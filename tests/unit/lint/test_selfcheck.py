"""Self-check: the repository is lint-clean, and the linter can prove it
would have caught real regressions (mutation-style check on a fixture
copy of a production module)."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC = REPO_ROOT / "src" / "repro"
TESTS = REPO_ROOT / "tests"


class TestRepositoryIsClean:
    def test_src_is_clean_at_head(self):
        result = lint_paths([SRC])
        assert result.clean, "\n".join(v.render() for v in result.violations)
        assert result.files_checked > 100

    def test_tests_are_clean_at_head(self):
        result = lint_paths([TESTS])
        assert result.clean, "\n".join(v.render() for v in result.violations)


class TestMutationSelfCheck:
    """Inject the two historical bug patterns into a copy of a real
    module and require the exact rule IDs to fire."""

    @pytest.fixture()
    def mutated_module(self, tmp_path):
        source = (SRC / "simulation" / "population.py").read_text()
        # Mutation 1: a global-RNG construction where the seed plumbing
        # used to be.
        mutated = source.replace(
            "rng = make_rng(seed)",
            "rng = np.random.default_rng()", 1)
        assert mutated != source, "mutation anchor vanished from population.py"
        # Mutation 2: a float equality branch.
        mutated += "\n\ndef _mutant_gate(x: float) -> bool:\n"
        mutated += '    """Mutation fixture."""\n'
        mutated += "    return x == 0.5\n"
        target = tmp_path / "repro" / "simulation" / "population.py"
        target.parent.mkdir(parents=True)
        target.write_text(mutated)
        return target

    def test_mutations_are_caught_with_exact_ids(self, mutated_module):
        result = lint_paths([mutated_module])
        fired = {v.rule_id for v in result.violations}
        assert "RL002" in fired  # np.random.default_rng()
        assert "RL007" in fired  # x == 0.5
        assert not result.clean

    def test_cli_exits_nonzero_naming_rules(self, mutated_module, capsys):
        code = main(["lint", str(mutated_module), "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL002" in out
        assert "RL007" in out


class TestFlowMutationSelfCheck:
    """A blocking call injected into an ``async def`` of a copy of the
    live feed worker must trip RL040."""

    @pytest.fixture()
    def mutated_tree(self, tmp_path):
        root = tmp_path / "repro"
        target = root / "serve" / "feed.py"
        target.parent.mkdir(parents=True)
        target.write_text((SRC / "serve" / "feed.py").read_text())
        with target.open("a") as stream:
            stream.write("\nimport time as _mut_time\n"
                         "class _MutationWorker:\n"
                         "    async def run(self) -> None:\n"
                         "        _mut_time.sleep(1.0)\n")
        return root

    def test_each_family_trips_with_exact_ids(self, mutated_tree):
        result = lint_paths([mutated_tree])
        assert [(v.rule_id, v.path.endswith("serve/feed.py"))
                for v in result.violations] == [("RL040", True)]
        assert "_MutationWorker.run" in result.violations[0].message

    def test_cli_rejects_the_mutated_tree(self, mutated_tree, capsys):
        code = main(["lint", str(mutated_tree), "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL040" in out

    def test_originals_are_clean(self):
        # The mutation fixture proves detection power only if the
        # unmutated module carries no unsuppressed findings.
        result = lint_paths([SRC / "serve" / "feed.py"])
        assert result.clean, "\n".join(v.render()
                                       for v in result.violations)
