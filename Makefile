# Convenience targets for the repro repository.

.PHONY: install lint lint-custom lint-mypy lint-ruff test test-all conform \
	conform-paper conform-update coverage \
	bench experiments figures \
	examples all

install:
	pip install -e .

# Static analysis, three layers (docs/LINTING.md):
#   1. repro lint  — the repo's own determinism/numeric-discipline rules:
#      one per-file AST pass (RL000..RL012, RL040). Pure stdlib, always
#      runs. Warm reruns are served from .reprolint-cache.json; pass
#      --no-cache to force a cold run.
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

# The end-to-end benchmark (perfbench/README.md): every workload of
# BENCHMARK.json, with time, throughput and peak RSS per stage.
bench:
	python3 perfbench/run.py

experiments:
	PYTHONPATH=src python -m repro experiments

figures:
	PYTHONPATH=src python -m repro figures --outdir figures/

examples:
	for ex in examples/*.py; do echo "== $$ex =="; PYTHONPATH=src python $$ex; done

all: test-all conform bench experiments
