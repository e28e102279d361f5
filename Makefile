# Convenience targets for the repro repository.

.PHONY: install lint lint-custom lint-mypy lint-ruff test test-all conform \
	conform-paper conform-update coverage \
	bench bench-core bench-parallel bench-stream bench-serve \
	bench-summary experiments figures \
	examples all

install:
	pip install -e .

# Static analysis, three layers (docs/LINTING.md):
#   1. repro lint  — the repo's own determinism/numeric-discipline rules:
#      a per-file AST pass (RL000..) plus a whole-program flow pass
#      (RL020..RL043). Pure stdlib, always runs. Warm reruns are served
#      from .reprolint-cache.json; pass --no-cache to force a cold run.
#   2. mypy --strict over src/repro (per-module overrides recorded in
#      pyproject.toml). Skipped with a notice when mypy is missing.
#   3. ruff — generic Python hygiene baseline. Skipped when missing.
# The custom pass gates `make test`; mypy/ruff additionally gate CI.
lint: lint-custom lint-mypy lint-ruff

lint-custom:
	PYTHONPATH=src python -m repro lint src tests

lint-mypy:
	@if python -c "import mypy" 2>/dev/null; then \
		python -m mypy --config-file pyproject.toml; \
	else \
		echo "mypy not installed; skipping (pip install -e .[dev])"; \
	fi

lint-ruff:
	@if python -c "import ruff" 2>/dev/null; then \
		python -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping (pip install -e .[dev])"; \
	fi

# Fast developer loop: the custom lint pass plus the tier-1 suite minus
# anything marked `slow` (paper-scale conformance parametrizations).
# Works from a clean checkout, no install step needed.
test: lint-custom
	PYTHONPATH=src python -m pytest -x -q -m "not slow"

# The whole suite, slow markers included (ROADMAP.md tier-1 command).
test-all:
	PYTHONPATH=src python -m pytest -x -q

# Conformance gates + cross-pipeline differential oracle against the
# committed golden registry (src/repro/conform/golden.json). Writes
# CONFORMANCE.json; exits non-zero with a readable failure list when a
# gate breaks.
conform:
	PYTHONPATH=src python -m repro conform --scale smoke --out CONFORMANCE.json

# Same, at full paper scale (~2 min: 2.4M-transfer workload).
conform-paper:
	PYTHONPATH=src python -m repro conform --scale paper --out CONFORMANCE.json

# Re-pin the golden registry at paper scale. Deterministic: running it
# twice yields a byte-identical golden.json. Only legitimate after an
# intentional generator/model change — commit the registry diff
# alongside the change that caused it.
conform-update:
	PYTHONPATH=src python -m repro conform --scale paper --update --out CONFORMANCE.json

# Coverage with the floor recorded in pyproject.toml
# ([tool.coverage.report] fail_under). Requires the dev extra:
# pip install -e .[dev]
coverage:
	@python -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov is not installed; run: pip install -e .[dev]"; \
		  exit 1; }
	PYTHONPATH=src python -m pytest -q -m "not slow" \
		--cov=repro --cov-report=term --cov-report=xml

# The full benchmark battery: every subsystem's JSON-recorded benchmark
# followed by the one-table summary of all BENCH_*.json artifacts.
bench: bench-core bench-parallel bench-stream bench-serve bench-summary

bench-summary:
	python benchmarks/bench_summary.py

# Core hot-path throughput only, with a JSON record so successive PRs
# can compare perf trajectories (BENCH_perf_core.json).
bench-core:
	PYTHONPATH=src pytest benchmarks/bench_perf_core.py --benchmark-only \
		--benchmark-json=BENCH_perf_core.json

# Serial-vs-sharded throughput of the repro.parallel engine, recorded to
# BENCH_parallel.json (includes the host core count, since the speedup
# ceiling is hardware-bound).
bench-parallel:
	PYTHONPATH=src python benchmarks/bench_parallel.py --out BENCH_parallel.json

# Paper-scale streaming run (28 days, ~5.7M transfers by default):
# records throughput AND peak RSS to BENCH_stream.json, alongside the
# estimated in-memory footprint the batch path would have needed.
bench-stream:
	PYTHONPATH=src python benchmarks/bench_stream.py --out BENCH_stream.json

# Live-service replay: boots repro.serve, replays a generated log over
# real sockets through both wire codecs and records sustained aggregate
# lines/sec plus p50/p99 ingest latency to BENCH_serve.json.
bench-serve:
	PYTHONPATH=src python benchmarks/bench_serve.py --out BENCH_serve.json

experiments:
	PYTHONPATH=src python -m repro experiments

figures:
	PYTHONPATH=src python -m repro figures --outdir figures/

examples:
	for ex in examples/*.py; do echo "== $$ex =="; PYTHONPATH=src python $$ex; done

all: test-all conform bench experiments
