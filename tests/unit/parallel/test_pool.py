"""Unit tests for the ordered pool map (repro.parallel.pool)."""

import multiprocessing
import time
from pathlib import Path

import pytest

from repro.parallel.pool import imap_ordered, map_ordered

N_TASKS = 40


def _touch_unless_first(task):
    """Fail task 0 at once; every other task marks that it ran."""
    directory, index = task
    if index == 0:
        raise RuntimeError("task 0 failed")
    time.sleep(0.05)
    (Path(directory) / str(index)).touch()
    return index


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_in_item_order(jobs):
    assert map_ordered(abs, range(-9, 0), jobs=jobs) == list(range(9, 0, -1))


def test_failing_task_cancels_the_rest(tmp_path):
    tasks = [(str(tmp_path), index) for index in range(N_TASKS)]
    with pytest.raises(RuntimeError, match="task 0 failed"):
        map_ordered(_touch_unless_first, tasks, jobs=2)
    assert multiprocessing.active_children() == []
    assert len(sorted(tmp_path.iterdir())) < N_TASKS - 1


def test_closing_early_cancels_the_rest(tmp_path):
    tasks = [(str(tmp_path), index) for index in range(1, N_TASKS)]
    results = imap_ordered(_touch_unless_first, tasks, jobs=2)
    assert next(results) == 1
    results.close()
    assert multiprocessing.active_children() == []
    assert len(sorted(tmp_path.iterdir())) < N_TASKS - 1


def test_invalid_jobs_raise_before_iteration():
    with pytest.raises(ValueError, match="jobs"):
        imap_ordered(abs, [1], jobs=0)
