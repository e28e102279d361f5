"""Cross-pipeline differential oracle as a pytest gate.

Asserts trace/session/log bit-identity of the batch, sharded, and
streaming pipelines on the canonical matrix — including at least two
shard counts, two chunk sizes, and one mid-run checkpoint/resume split
per workload (the acceptance surface of the determinism contract).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest

from repro.conform import run_differential_oracle, workload_spec
from repro.conform.oracle import DEFAULT_CHUNK_SIZES, DEFAULT_SHARD_CONFIGS
from repro.conform.runner import _ORACLE_SHAPES
from repro.conform.scenarios import ORACLE_SCENARIOS, scenario_key


def test_differential_oracle_bit_identity(tmp_path, conform_workload):
    spec = workload_spec(conform_workload)
    shape = _ORACLE_SHAPES.get(conform_workload, {
        "shard_configs": DEFAULT_SHARD_CONFIGS,
        "chunk_sizes": DEFAULT_CHUNK_SIZES,
    })
    report = run_differential_oracle(spec, tmp_path, **shape)

    names = [c.name for c in report.comparisons]
    assert sum(1 for n in names if n.startswith("parallel[")) >= 1
    assert len({n for n in names
                if n.startswith("stream[chunk=") and n.endswith(".log")}) >= 2
    assert any(n.startswith("stream[resume@") for n in names)
    assert any(n.endswith(".decode") and n.startswith("binary[")
               for n in names)
    assert any(n.endswith(".entry-stream") and n.startswith("binary[")
               for n in names)
    assert any(n.startswith("binary[resume@") for n in names)

    failures = [f"{c.name}: {c.detail}" for c in report.failures()]
    assert not failures, (
        "cross-pipeline determinism contract violated:\n"
        + "\n".join(failures))


def test_oracle_covers_two_shard_counts_at_smoke():
    """The default differential matrix covers >= 2 shard counts."""
    assert len({shards for shards, _ in DEFAULT_SHARD_CONFIGS}) >= 2
    assert len(set(DEFAULT_CHUNK_SIZES)) >= 2


@pytest.mark.parametrize("scenario", ORACLE_SCENARIOS)
def test_scenario_differential_oracle_bit_identity(tmp_path, scenario):
    """Scenarios flow through every engine bit-identically.

    The oracle matrix covers at least two scenario atoms with different
    mechanisms (a model perturbation and a trace edit) plus one
    composition, each across batch vs sharded (two shard configs) vs
    streaming (two chunk sizes and a mid-run checkpoint/resume split).
    """
    spec = dc_replace(workload_spec("small"),
                      name=scenario_key("small", scenario))
    report = run_differential_oracle(spec, tmp_path, scenario=scenario)

    names = [c.name for c in report.comparisons]
    assert sum(1 for n in names if n.startswith("parallel[")) >= 2
    assert len({n for n in names
                if n.startswith("stream[chunk=") and n.endswith(".log")}) >= 2
    assert any(n.startswith("stream[resume@") for n in names)

    failures = [f"{c.name}: {c.detail}" for c in report.failures()]
    assert not failures, (
        f"scenario {scenario!r} broke cross-pipeline determinism:\n"
        + "\n".join(failures))


def test_oracle_scenarios_cover_both_mechanisms_and_a_composition():
    assert "flash-crowd" in ORACLE_SCENARIOS   # model perturbation
    assert "blackout" in ORACLE_SCENARIOS      # trace edit
    assert any("+" in name for name in ORACLE_SCENARIOS)
    # A bandwidth law, so the batch and streaming byte totals are not 0.
    assert "bimodal-shift" in ORACLE_SCENARIOS


def test_oracle_characterizes_the_binary_file(tmp_path):
    """The binary leg checks ``characterize_logs`` at one and two workers."""
    report = run_differential_oracle(workload_spec("small"), tmp_path,
                                     shard_configs=(), chunk_sizes=(7,),
                                     resume_split=False)
    legs = [c for c in report.comparisons
            if c.name.startswith("binary[") and c.name.endswith(".summary")]
    assert legs, "oracle ran no binary summary leg"
    assert all(c.passed for c in legs), [c.detail for c in legs]
