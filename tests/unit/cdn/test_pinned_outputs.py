"""Pinned output digests of the delivery simulation and the planner.

The admission engine and the leg reductions are exact, so their outputs
are fixed bytes for a fixed workload: a contended grid, an edge-failure
scenario and both static policies.  Any drift in a decision, a peak, a
sampled ``c(t)`` value or an origin count changes a digest.
"""

import hashlib
import json

import pytest

from repro.cdn import (
    CdnTopology,
    EdgeFailure,
    FailurePlan,
    plan_deployment,
    simulate_cdn,
)
from repro.core.gismo import LiveWorkloadGenerator
from repro.core.model import LiveWorkloadModel
from repro.trace.store import Trace

#: Edge 0 is down from the 4th to the 8th hour of the half-day trace.
FAILURE = FailurePlan((EdgeFailure(edge=0, at=14400.0, until=28800.0),))


def digest(doc):
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.1,
                                             n_clients=1500)
    trace = LiveWorkloadGenerator(model).generate(0.5, seed=14).trace
    assert trace.n_transfers == 3038
    path = tmp_path_factory.mktemp("pinned") / "trace.npz"
    trace.save_npz(path)
    return path


def test_contended_plan_report(trace_path):
    report = plan_deployment(
        trace_path, edge_counts=(1, 2, 3), bandwidths_bps=(1e6, 3e6, 1e7),
        max_connections=8, slo=0.02, jobs=1)
    assert digest(report.to_dict()) == (
        "99da85aeda172cd8b96aadeea7fbd8ee210d49bd3aee926fa2c49ef43c29f2c3")


def test_plan_report_with_edge_failure(trace_path):
    report = plan_deployment(
        trace_path, edge_counts=(2, 3), bandwidths_bps=(1e6, 3e6),
        slo=0.02, failures=FAILURE, jobs=1)
    assert [o.n_reassigned for o in report.outcomes] == [3, 10, 3, 6]
    assert digest(report.to_dict()) == (
        "d2ace8f0d657b278212af9d6494ba803fa5dd9417f1dfe84718eaf0b4193340d")


# Each edge's bytes_served is the exact sum of its admitted legs'
# products rounded once, as ``math.fsum`` of them divided by 8 gives.
@pytest.mark.parametrize("policy, failures, expected", [
    ("as-hash", FAILURE,
     "3a4c109ac13de897809f4b7e7db4598d6bba3d65fdd262dbc7fe59eedbc262f2"),
    ("sticky", None,
     "2efdaa7ddf6f784b3b858aa8e001a5298f7d448983896ed3c8a0f1e8c129f552"),
], ids=["as-hash-failure", "sticky"])
def test_simulation_with_samples(trace_path, policy, failures, expected):
    topology = CdnTopology.uniform(3, max_connections=6, bandwidth_bps=2e6)
    result = simulate_cdn(Trace.load_npz(trace_path), topology,
                          policy=policy, failures=failures)
    assert result.n_rejected > 0
    assert digest(result.to_dict(include_samples=True)) == expected
