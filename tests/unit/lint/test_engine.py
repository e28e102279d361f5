"""Engine-level behavior: discovery, contexts, scoping, select/ignore."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import LintError
from repro.lint import RULES, active_rule_ids, lint_paths, lint_source
from repro.lint.engine import classify_context, discover_files, module_path


class TestDiscovery:
    def test_directories_expand_sorted(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.py").write_text("x = 1\n")
        files = discover_files([tmp_path])
        assert [f.name for f in files] == ["a.py", "b.py", "c.py"]

    def test_duplicates_collapse(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        assert len(discover_files([tmp_path, target])) == 1

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError, match="does not exist"):
            discover_files([tmp_path / "nope"])

    def test_non_python_file_raises(self, tmp_path):
        other = tmp_path / "data.json"
        other.write_text("{}")
        with pytest.raises(LintError, match="not a Python file"):
            discover_files([other])


class TestClassification:
    def test_tests_directory_is_test_context(self):
        assert classify_context(Path("tests/unit/x.py")) == "test"

    def test_src_is_library_context(self):
        assert classify_context(Path("src/repro/rng.py")) == "library"

    def test_checkout_under_a_tests_directory_keeps_library_rules(
            self, tmp_path):
        # The deepest of the ``tests``/``repro`` components decides, so a
        # checkout that sits under some ``tests`` directory is not
        # demoted wholesale to test context.
        source = "import numpy as np\na = np.zeros(3)\n"
        for root in (tmp_path / "proj", tmp_path / "tests" / "proj"):
            library = root / "src" / "repro" / "trace" / "x.py"
            test = root / "tests" / "unit" / "x.py"
            for path in (library, test):
                path.parent.mkdir(parents=True)
                path.write_text(source)
            assert classify_context(library) == "library"
            assert classify_context(test) == "test"
            assert [v.rule_id for v in lint_paths([library]).violations] \
                == ["RL008"]
            assert lint_paths([test]).clean

    def test_neither_component_is_library_context(self):
        assert classify_context(Path("benchmarks/bench.py")) == "library"

    def test_module_path_roots_at_repro(self):
        assert module_path(Path("src/repro/trace/store.py")) == \
            "repro.trace.store"

    def test_module_path_strips_init(self):
        assert module_path(Path("src/repro/trace/__init__.py")) == \
            "repro.trace"

    def test_module_path_outside_repro_is_none(self):
        assert module_path(Path("scripts/tool.py")) is None


class TestSelectIgnore:
    def test_select_narrows(self):
        src = "import time\nt = time.time()\nkey = hash(t)\n"
        ids = [v.rule_id for v in lint_source(src, select=["RL011"])]
        assert ids == ["RL011"]

    def test_ignore_drops(self):
        src = "import time\nt = time.time()\nkey = hash(t)\n"
        ids = [v.rule_id for v in lint_source(src, ignore=["RL004"])]
        assert ids == ["RL011"]

    def test_unknown_select_raises(self):
        with pytest.raises(LintError, match="unknown rule id"):
            active_rule_ids(select=["RL999"])

    def test_unknown_ignore_raises(self):
        with pytest.raises(LintError, match="unknown rule id"):
            active_rule_ids(ignore=["RLXYZ"])

    def test_rule_count_contract(self):
        # The ISSUE acceptance floor: at least 10 active rule IDs.
        assert len(active_rule_ids()) >= 10
        assert len(RULES) == len({r.id for r in RULES})


class TestLintPaths:
    def test_syntax_error_reports_rl000(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        result = lint_paths([bad])
        (violation,) = result.violations
        assert violation.rule_id == "RL000"
        assert result.files_checked == 1
        assert not result.clean

    def test_clean_file(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("import numpy as np\nx = np.float64(3)\n")
        result = lint_paths([good])
        assert result.clean
        assert result.files_checked == 1

    def test_violations_sorted_by_location(self, tmp_path):
        f = tmp_path / "f.py"
        f.write_text("import time\nkey = hash(time.time())\n")
        result = lint_paths([f])
        assert [v.rule_id for v in result.violations] == ["RL011", "RL004"]
        assert [v.col for v in result.violations] == [7, 12]

    def test_package_scoping_follows_file_location(self, tmp_path):
        pkg = tmp_path / "repro" / "trace"
        pkg.mkdir(parents=True)
        inside = pkg / "x.py"
        inside.write_text("import numpy as np\na = np.zeros(4)\n")
        outside = tmp_path / "repro" / "other.py"
        outside.write_text("import numpy as np\na = np.zeros(4)\n")
        assert [v.rule_id for v in lint_paths([inside]).violations] == \
            ["RL008"]
        assert lint_paths([outside]).clean


class TestDecoding:
    # Bad bytes in the two lines searched for a coding cookie take a
    # different error path from bad bytes further down.
    @pytest.mark.parametrize("data, where", [
        (b'x = 1\ny = 2\nz = "\xff\xfe"\n', (3, 6)),
        (b'x = "\xff\xfe"\n', (1, 6)),
    ])
    def test_undecodable_file_reports_rl000_at_the_bad_byte(
            self, tmp_path, data, where):
        bad = tmp_path / "bad.py"
        bad.write_bytes(data)
        result = lint_paths([bad])
        (violation,) = result.violations
        assert violation.rule_id == "RL000"
        assert (violation.line, violation.col) == where
        assert "utf-8" in violation.message
        assert result.files_checked == 1

    def test_unknown_encoding_cookie_reports_rl000(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"# -*- coding: no-such-codec -*-\nx = 1\n")
        (violation,) = lint_paths([bad]).violations
        assert (violation.rule_id, violation.line) == ("RL000", 1)
        assert "no-such-codec" in violation.message

    def test_coding_cookie_is_honoured(self, tmp_path):
        latin = tmp_path / "latin.py"
        latin.write_bytes(b"# coding: latin-1\nimport time\n"
                          b"x = '\xe9'\nt = time.time()\n")
        (violation,) = lint_paths([latin]).violations
        assert (violation.rule_id, violation.line) == ("RL004", 4)

    def test_cli_reports_undecodable_file_without_a_traceback(
            self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b'x = "\xff\xfe"\n')
        code = main(["lint", str(bad), "--no-cache"])
        captured = capsys.readouterr()
        assert code == 1
        assert f"{bad.as_posix()}:1:6: RL000" in captured.out
        assert captured.err == ""
