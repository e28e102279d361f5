"""Ordered task execution: process pool with an inline fallback.

:func:`imap_ordered` is the one scheduling primitive the subsystem uses.
It dispatches picklable tasks to one
:class:`~concurrent.futures.ProcessPoolExecutor` per call and yields
results **in submission order**, so reductions downstream are
independent of worker completion order — the second half of the
determinism contract.  With ``jobs=1`` it degrades to a plain
in-process loop, which keeps single-job runs debuggable (no pickling, no
subprocesses, ordinary tracebacks) and bit-identical to pooled runs.
:func:`map_ordered` is its list.

Progress is reported through the stdlib :mod:`logging` channel
``repro.parallel`` (dispatch at INFO, per-task completion at DEBUG); the
CLI's ``-v/--verbose`` flag turns it on.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Generator, Iterable, Sequence, TypeVar

from concurrent.futures import ProcessPoolExecutor

_T = TypeVar("_T")
_R = TypeVar("_R")

#: The subsystem's logger; enable with ``logging.basicConfig`` or the
#: CLI's ``-v`` flag.
logger = logging.getLogger("repro.parallel")


def imap_ordered(fn: Callable[[_T], _R], items: Iterable[_T], *,
                 jobs: int = 1, label: str = "task"
                 ) -> Generator[_R, None, None]:
    """Apply ``fn`` to every item, yielding results in item order.

    Every task is submitted up front to one pool, which lives until the
    iterator is exhausted or closed; a result is yielded as soon as it
    and all earlier ones are done, so the caller reduces while later
    tasks run.  Closing the iterator early, or an exception in a task,
    cancels the tasks that have not started and waits for the running
    ones, so no worker outlives the iteration.  Close an iterator you do
    not exhaust (:func:`contextlib.closing`).

    Parameters
    ----------
    fn:
        A picklable (module-level) callable.
    items:
        The work items; consumed eagerly.
    jobs:
        Worker-process count.  ``1`` executes inline in this process;
        higher values use a process pool capped at ``len(items)``.
    label:
        Noun used in log messages (``"block"``, ``"chunk"``, ...).

    Raises
    ------
    ValueError
        If ``jobs`` is not positive.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return _imap(fn, list(items), jobs, label)


def _imap(fn: Callable[[_T], _R], tasks: Sequence[_T], jobs: int,
          label: str) -> Generator[_R, None, None]:
    """The generator behind :func:`imap_ordered`."""
    workers = min(jobs, len(tasks))
    started = time.perf_counter()
    if workers <= 1:
        logger.info("running %d %s(s) inline", len(tasks), label)
        for index, task in enumerate(tasks):
            t0 = time.perf_counter()
            result = fn(task)
            logger.debug("%s %d/%d done in %.3fs", label, index + 1,
                         len(tasks), time.perf_counter() - t0)
            yield result
    else:
        logger.info("dispatching %d %s(s) across %d worker processes",
                    len(tasks), label, workers)
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(fn, task) for task in tasks]
            for index, future in enumerate(futures):
                result = future.result()
                logger.debug("%s %d/%d collected", label, index + 1,
                             len(tasks))
                yield result
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    logger.info("%d %s(s) finished in %.3fs", len(tasks), label,
                time.perf_counter() - started)


def map_ordered(fn: Callable[[_T], _R], items: Iterable[_T], *,
                jobs: int = 1, label: str = "task") -> list[_R]:
    """Apply ``fn`` to every item, returning results in item order.

    The list of :func:`imap_ordered` (see there for the parameters).
    """
    return list(imap_ordered(fn, items, jobs=jobs, label=label))
