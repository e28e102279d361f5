"""Integration tests of the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.trace.store import Trace


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trace.npz"
    code = main(["simulate", "--days", "2", "--rate", "0.02",
                 "--clients", "1500", "--seed", "5",
                 "--out", str(path)])
    assert code == 0
    return path


class TestSimulate:
    def test_writes_loadable_trace(self, trace_path):
        trace = Trace.load_npz(trace_path)
        assert trace.n_transfers > 1_000
        assert trace.extent == pytest.approx(2 * 86_400.0)

    def test_wms_log_option(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        log = tmp_path / "t.log"
        main(["simulate", "--days", "1", "--rate", "0.01",
              "--clients", "500", "--seed", "1",
              "--out", str(out), "--wms-log", str(log)])
        assert log.read_text().startswith("#Software:")


class TestCharacterize:
    def test_prints_report(self, trace_path, capsys):
        code = main(["characterize", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Client layer (Section 3)" in out
        assert "sanitization removed" in out

    def test_no_sanitize_flag(self, trace_path, capsys):
        main(["characterize", str(trace_path), "--no-sanitize"])
        out = capsys.readouterr().out
        assert "sanitization removed" not in out


class TestCalibrateAndGenerate:
    def test_calibrate_writes_model(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = main(["calibrate", str(trace_path),
                     "--out", str(model_path)])
        assert code == 0
        data = json.loads(model_path.read_text())
        assert "interest_alpha" in data
        assert len(data["arrival_profile_bin_rates"]) == 96

    def test_generate_from_model(self, trace_path, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["calibrate", str(trace_path), "--out", str(model_path)])
        out_path = tmp_path / "synthetic.npz"
        code = main(["generate", "--model", str(model_path),
                     "--days", "1", "--seed", "2",
                     "--out", str(out_path)])
        assert code == 0
        trace = Trace.load_npz(out_path)
        assert trace.n_transfers > 100

    def test_generate_with_defaults(self, tmp_path, capsys):
        out_path = tmp_path / "default.npz"
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--seed", "3", "--out", str(out_path)])
        assert code == 0
        assert Trace.load_npz(out_path).n_transfers > 0


class TestReplay:
    def test_replay_reports(self, trace_path, capsys):
        code = main(["replay", str(trace_path),
                     "--max-concurrent", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rejected:" in out
        assert "peak concurrency:" in out


class TestValidate:
    def test_self_validation_is_faithful(self, trace_path, capsys):
        code = main(["validate", str(trace_path), str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: FAITHFUL" in out

    def test_mismatch_flagged(self, trace_path, tmp_path, capsys):
        other = tmp_path / "other.npz"
        main(["generate", "--days", "1", "--rate", "0.005",
              "--seed", "99", "--out", str(other)])
        capsys.readouterr()
        code = main(["validate", str(trace_path), str(other),
                     "--rtol", "0.05", "--corr-min", "0.99"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT FAITHFUL" in out


class TestFigures:
    def test_exports_selected_figures(self, tmp_path, capsys):
        outdir = tmp_path / "figs"
        code = main(["figures", "fig09", "--outdir", str(outdir)])
        assert code == 0
        assert (outdir / "index.txt").exists()
        assert (outdir / "fig09_sessions_vs_timeout.dat").exists()
        assert (outdir / "fig09.gp").exists()


class TestLint:
    def test_clean_file_exits_0(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("import numpy as np\nx = np.float64(1)\n")
        code = main(["lint", str(good), "--no-cache"])
        assert code == 0
        assert "clean: 1 files checked" in capsys.readouterr().out

    def test_violation_exits_1_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        code = main(["lint", str(bad), "--no-cache"])
        assert code == 1
        out = capsys.readouterr().out
        assert f"{bad.as_posix()}:2:9: RL004" in out

    def test_json_format_and_out_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("order = values.argsort()\n")
        report = tmp_path / "lint.json"
        code = main(["lint", str(bad), "--no-cache", "--format", "json",
                     "--out", str(report)])
        assert code == 1
        document = json.loads(report.read_text())
        assert document["clean"] is False
        assert document["violations"][0]["rule"] == "RL012"
        assert json.loads(capsys.readouterr().out) == document

    def test_sarif_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        report = tmp_path / "lint.sarif"
        code = main(["lint", str(bad), "--no-cache", "--format", "sarif",
                     "--out", str(report)])
        assert code == 1
        document = json.loads(report.read_text())
        assert document["version"] == "2.1.0"
        (result,) = document["runs"][0]["results"]
        assert result["ruleId"] == "RL004"
        assert json.loads(capsys.readouterr().out) == document

    def test_select_narrows_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nkey = hash(time.time())\n")
        code = main(["lint", str(bad), "--no-cache", "--select", "RL011"])
        assert code == 1
        out = capsys.readouterr().out
        assert "RL011" in out
        assert "RL004" not in out

    def test_ignore_drops_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        code = main(["lint", str(bad), "--no-cache", "--ignore", "RL004"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_cache_file_round_trip(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        cache = tmp_path / "cache.json"
        cold = main(["lint", str(bad), "--cache-file", str(cache),
                     "--format", "json"])
        cold_doc = json.loads(capsys.readouterr().out)
        warm = main(["lint", str(bad), "--cache-file", str(cache),
                     "--format", "json"])
        warm_doc = json.loads(capsys.readouterr().out)
        assert cold == warm == 1
        assert cache.exists()
        assert cold_doc["cache"] == {"hits": 0, "misses": 1}
        assert warm_doc["cache"]["hits"] == 1
        assert warm_doc["violations"] == cold_doc["violations"]
