"""Smoke-scale tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every workload runs at 1% of its benchmark size, for the fewest
repetitions a run makes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SMOKE = 0.01


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_names_and_units_match_benchmark_json() -> None:
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name: str, trace: bool) -> None:
    record = run.run_workload(name, seed=3, seconds=0.0, trace=trace,
                              scale=SMOKE)
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == expected[key]
        assert isinstance(metric["value"], float)
        assert math.isfinite(metric["value"])
    if trace:
        assert record["checks"]
    else:
        assert all(result["metrics"][key]["value"] > 0 for key in expected)
    host = record["host"]
    for key in ("nproc", "cpu_model", "python", "numpy", "mem_total_mib",
                "commit", "dirty", "pool_exceeds_cores"):
        assert key in host


def test_truncated_log_counts_as_failed_operations(monkeypatch) -> None:
    characterize = workloads.characterize_file

    def truncate_first(path, tracer, counters):
        size = path.stat().st_size
        with open(path, "r+b") as stream:
            stream.truncate(size // 2)
        return characterize(path, tracer, counters)

    monkeypatch.setattr(workloads, "characterize_file", truncate_first)
    record = run.run_workload("log-text", seed=3, seconds=0.0, trace=False,
                              scale=SMOKE)
    result = record["result"]
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["failed"] <= result["attempted"]
    assert any("characterized" in message for message in record["failures"])


def _log_digest(seed: int, tmp_path: Path) -> str:
    workdir = tmp_path / f"seed{seed}"
    workdir.mkdir(exist_ok=True)
    workload = workloads.LogText(seed, workdir, SMOKE)
    workload.setup()
    try:
        return workload.run(None).artefacts["log"]
    finally:
        workload.teardown()


def test_seed_changes_the_inputs(tmp_path: Path) -> None:
    first = _log_digest(1, tmp_path)
    assert _log_digest(1, tmp_path) == first
    assert _log_digest(2, tmp_path) != first


def test_self_time_subtracts_covered_child_time() -> None:
    tracer = Tracer("t")
    tracer.add("parent", 0.0, 10.0, None)
    tracer.add("child", 1.0, 4.0, 0)
    tracer.add("child", 3.0, 5.0, 0)
    tracer.add("child", 9.0, 12.0, 0)
    own = tracer.self_times()
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert tracer.busy_by_name()["child"] == pytest.approx(3.0 + 2.0 + 3.0)
    assert tracer.top_level_seconds() == pytest.approx(10.0)


def test_bare_directory_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "log-text",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
