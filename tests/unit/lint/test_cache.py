"""Incremental cache: warm hits, invalidation, corruption tolerance."""

import json

from repro.lint import lint_paths
from repro.lint.cache import CACHE_FORMAT, content_hash, load_cache
from repro.lint.rules import RULES_VERSION


def write_pkg(tmp_path, files):
    root = tmp_path / "repro"
    root.mkdir()
    (root / "__init__.py").write_text("")
    for name, source in files.items():
        (root / name).write_text(source)
    return root


SOURCES = {
    "alpha.py": "import numpy as np\n\n\ndef draw(seed):\n"
                "    rng = np.random.default_rng(seed)\n"
                "    return rng.random()\n",
    "beta.py": "def double(x):\n    return x * 2\n",
}


class TestWarmRuns:
    def test_second_run_is_all_hits(self, tmp_path):
        root = write_pkg(tmp_path, SOURCES)
        cache_file = tmp_path / "cache.json"
        cold = lint_paths([root], cache_path=cache_file)
        assert cold.cache_hits == 0
        assert cold.cache_misses == 3  # __init__ + two modules
        warm = lint_paths([root], cache_path=cache_file)
        assert warm.cache_hits == 3
        assert warm.cache_misses == 0
        assert [v.render() for v in warm.violations] == \
            [v.render() for v in cold.violations]

    def test_cached_violations_replay_identically(self, tmp_path):
        root = write_pkg(tmp_path, {
            "bad.py": "import time\nstamp = time.time()\n"})
        cache_file = tmp_path / "cache.json"
        cold = lint_paths([root], cache_path=cache_file)
        warm = lint_paths([root], cache_path=cache_file)
        assert not warm.clean
        assert [v.render() for v in warm.violations] == \
            [v.render() for v in cold.violations]

    def test_no_cache_path_means_no_statistics(self, tmp_path):
        root = write_pkg(tmp_path, SOURCES)
        result = lint_paths([root])
        assert result.cache_hits == 0
        assert not (tmp_path / ".reprolint-cache.json").exists()


class TestInvalidation:
    def test_content_change_invalidates_only_that_file(self, tmp_path):
        root = write_pkg(tmp_path, SOURCES)
        cache_file = tmp_path / "cache.json"
        lint_paths([root], cache_path=cache_file)
        (root / "beta.py").write_text("def triple(x):\n    return x * 3\n")
        rerun = lint_paths([root], cache_path=cache_file)
        assert rerun.cache_misses == 1
        assert rerun.cache_hits == 2

    def test_select_change_bypasses_per_file_entries(self, tmp_path):
        root = write_pkg(tmp_path, SOURCES)
        cache_file = tmp_path / "cache.json"
        lint_paths([root], cache_path=cache_file)
        narrowed = lint_paths([root], cache_path=cache_file,
                              select=["RL004"])
        assert narrowed.cache_misses == 3  # different applicable-rule key

    def test_rules_version_bump_discards_the_whole_cache(self, tmp_path):
        root = write_pkg(tmp_path, SOURCES)
        cache_file = tmp_path / "cache.json"
        lint_paths([root], cache_path=cache_file)
        payload = json.loads(cache_file.read_text())
        payload["rules_version"] = RULES_VERSION + 1
        cache_file.write_text(json.dumps(payload))
        assert not load_cache(cache_file).files
        rerun = lint_paths([root], cache_path=cache_file)
        assert rerun.cache_hits == 0
        assert rerun.cache_misses == 3

    def test_format_bump_discards_the_whole_cache(self, tmp_path):
        root = write_pkg(tmp_path, SOURCES)
        cache_file = tmp_path / "cache.json"
        lint_paths([root], cache_path=cache_file)
        payload = json.loads(cache_file.read_text())
        payload["format"] = CACHE_FORMAT + 1
        cache_file.write_text(json.dumps(payload))
        assert not load_cache(cache_file).files


class TestRobustness:
    def test_corrupt_cache_degrades_to_cold_run(self, tmp_path):
        root = write_pkg(tmp_path, SOURCES)
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("{not json")
        result = lint_paths([root], cache_path=cache_file)
        assert result.cache_misses == 3
        # And the run healed the file for next time.
        warm = lint_paths([root], cache_path=cache_file)
        assert warm.cache_hits == 3

    def test_truncated_entries_degrade_to_cold_run(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache_file.write_text(json.dumps({
            "format": CACHE_FORMAT,
            "rules_version": RULES_VERSION,
            "files": {"x.py": {"hash": "abc"}},  # missing required keys
        }))
        assert not load_cache(cache_file).files

    def test_missing_file_is_an_empty_cache(self, tmp_path):
        cache = load_cache(tmp_path / "never-written.json")
        assert not cache.files


class TestKeys:
    def test_content_hash_is_stable_and_content_sensitive(self):
        assert content_hash(b"x = 1\n") == content_hash(b"x = 1\n")
        assert content_hash(b"x = 1\n") != content_hash(b"x = 2\n")
