"""Error-path tests for the command-line interface.

Every rejected invocation must exit non-zero and explain itself on
stderr — a silent exit code is useless in CI logs.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main

_SRC = str(Path(__file__).resolve().parents[2] / "src")
_SMALL = ["--days", "0.1", "--rate", "0.01", "--clients", "50", "--seed", "1"]


class TestUnknownCommand:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "command" in capsys.readouterr().err


class TestOneErrorExit:
    """Every refused invocation exits 2 with one ``<topic> error:`` line,
    whether the CLI, the library or the file system refuses it."""

    @pytest.mark.parametrize("argv", [
        ["generate", "SMALL", "--jobs", "0", "--out", "{tmp}/w.npz"],
        ["plan", "SMALL", "--jobs", "0"],
        ["generate", "SMALL", "--stream", "--blocks", "0",
         "--out", "{tmp}/w.log"],
        ["generate", "--days", "-1", "--out", "{tmp}/w.npz"],
        ["simulate", "--days", "0", "--out", "{tmp}/t.npz"],
        ["plan", "SMALL", "--step", "0"],
        ["plan", "SMALL", "--bandwidth-mbps", "-1"],
        ["plan", "SMALL", "--max-connections", "0"],
        ["experiments", "fig99"],
        ["figures", "fig99", "--outdir", "{tmp}/figs"],
        ["characterize", "{tmp}/missing.npz"],
        ["calibrate", "{tmp}/missing.npz", "--out", "{tmp}/m.json"],
        ["replay", "{tmp}/missing.npz"],
        ["validate", "{tmp}/missing.npz", "{tmp}/missing.npz"],
        ["generate", "--model", "{tmp}/missing.json", "--out", "{tmp}/w.npz"],
        ["characterize", "--log", "{tmp}/arrays.npz"],
        ["generate", "SMALL", "--stream", "--jobs", "2",
         "--out", "{tmp}/w.log"],
        ["generate", "SMALL", "--timeout", "10", "--out", "{tmp}/w.npz"],
    ], ids=lambda argv: " ".join(
        a for a in argv if a != "SMALL").replace("{tmp}/", ""))
    def test_exits_2_with_one_line(self, argv, tmp_path, capsys):
        np.savez(tmp_path / "arrays.npz", x=np.arange(3))
        code = main([word.format(tmp=tmp_path) for arg in argv
                     for word in (_SMALL if arg == "SMALL" else [arg])])
        out, err = capsys.readouterr()
        assert code == 2
        assert len(err.splitlines()) == 1, err
        assert err.split(":", 1)[0].endswith(" error")
        if argv[0] == "plan":  # refused before the workload is generated
            assert "generated" not in out, out

    def test_module_entry_point_exits_2_without_traceback(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "generate", *_SMALL,
             "--jobs", "0", "--out", str(tmp_path / "w.npz")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            "config error: --jobs must be at least 1, got 0\n")


class TestCharacterizeConflicts:
    def test_resume_without_checkpoint(self, capsys):
        code = main(["characterize", "whatever.log", "--log", "--resume"])
        assert code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_checkpoint_without_log(self, tmp_path, capsys):
        code = main(["characterize", "trace.npz",
                     "--checkpoint", str(tmp_path / "ckpt.json")])
        assert code == 2
        assert "--checkpoint requires --log" in capsys.readouterr().err

    def test_multiple_traces_without_log(self, capsys):
        code = main(["characterize", "a.npz", "b.npz"])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_no_sanitize_with_log(self, capsys):
        code = main(["characterize", "a.log", "--log", "--no-sanitize"])
        assert code == 2
        assert "--no-sanitize does not apply with --log" in (
            capsys.readouterr().err)

    def test_timeout_with_log(self, capsys):
        # Even the default value, named explicitly, does nothing here.
        code = main(["characterize", "a.log", "--log", "--timeout", "1500"])
        assert code == 2
        assert "--timeout does not apply with --log" in (
            capsys.readouterr().err)

    def test_jobs_without_log(self, capsys):
        code = main(["characterize", "trace.npz", "--jobs", "2"])
        assert code == 2
        assert "--jobs requires --log" in capsys.readouterr().err


class TestGenerateConflicts:
    def test_chunk_size_zero(self, tmp_path, capsys):
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--seed", "1", "--stream", "--chunk-size", "0",
                     "--out", str(tmp_path / "w.log")])
        assert code == 2
        assert "--chunk-size must be at least 1" in capsys.readouterr().err

    def test_chunk_size_negative(self, tmp_path, capsys):
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--seed", "1", "--stream", "--chunk-size", "-3",
                     "--out", str(tmp_path / "w.log")])
        assert code == 2
        assert "got -3" in capsys.readouterr().err

    def test_chunk_size_without_stream(self, tmp_path, capsys):
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--seed", "1", "--chunk-size", "64",
                     "--out", str(tmp_path / "w.npz")])
        assert code == 2
        assert "--chunk-size only applies with --stream" in (
            capsys.readouterr().err)

    def test_resume_without_stream(self, tmp_path, capsys):
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--seed", "1", "--resume",
                     "--out", str(tmp_path / "w.npz")])
        assert code == 2
        assert "only apply with --stream" in capsys.readouterr().err

    def test_stream_resume_without_checkpoint(self, tmp_path, capsys):
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--seed", "1", "--stream", "--resume",
                     "--out", str(tmp_path / "w.log")])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint error" in err
        assert "checkpoint_path" in err


class TestScenarioErrors:
    """Every invalid ``--scenario`` invocation exits 2 with a pointer."""

    def test_unknown_scenario_lists_available(self, tmp_path, capsys):
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--clients", "100", "--seed", "1",
                     "--scenario", "meteor-strike",
                     "--out", str(tmp_path / "w.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert "unknown scenario 'meteor-strike'" in err
        assert "available scenarios" in err
        assert "flash-crowd" in err

    def test_malformed_composition_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--clients", "100", "--seed", "1",
                     "--scenario", "flash-crowd++zapping",
                     "--out", str(tmp_path / "w.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert "stray '+'" in err

    def test_unbalanced_parens_exit_2(self, tmp_path, capsys):
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--clients", "100", "--seed", "1",
                     "--scenario", "flash-crowd(peak=3.0",
                     "--out", str(tmp_path / "w.npz")])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    def test_out_of_range_parameter_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--clients", "100", "--seed", "1",
                     "--scenario", "flash-crowd(peak=0.2)",
                     "--out", str(tmp_path / "w.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert "peak must be >= 1" in err

    def test_unknown_parameter_lists_valid_ones(self, tmp_path, capsys):
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--clients", "100", "--seed", "1",
                     "--scenario", "zapping(bogus=1.0)",
                     "--out", str(tmp_path / "w.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert "valid parameters" in err

    def test_stream_rejects_bad_scenario_before_generating(self, tmp_path,
                                                           capsys):
        out = tmp_path / "w.log"
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--clients", "100", "--seed", "1", "--stream",
                     "--scenario", "nope", "--out", str(out)])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_with_different_scenario_exits_2(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--clients", "100", "--seed", "1", "--stream",
                     "--scenario", "blackout",
                     "--checkpoint", str(checkpoint), "--max-blocks", "4",
                     "--out", str(tmp_path / "w.log")])
        assert code == 0
        capsys.readouterr()
        code = main(["generate", "--days", "1", "--rate", "0.01",
                     "--clients", "100", "--seed", "1", "--stream",
                     "--scenario", "zapping",
                     "--checkpoint", str(checkpoint), "--resume",
                     "--out", str(tmp_path / "w.log")])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint error" in err
        assert "blackout" in err
        assert "zapping" in err

    def test_plan_scenario_with_trace_exits_2(self, tmp_path, capsys):
        code = main(["plan", "--trace", str(tmp_path / "t.npz"),
                     "--scenario", "flash-crowd"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--scenario" in err
        assert "--trace" in err

    def test_plan_bad_scenario_exits_2(self, capsys):
        code = main(["plan", "--days", "0.1", "--clients", "50",
                     "--seed", "1", "--scenario", "nope"])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err


class TestConformErrors:
    def test_unknown_scale_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["conform", "--scale", "galactic"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_registry_exits_2(self, tmp_path, capsys):
        code = main(["conform", "--registry", str(tmp_path / "nope.json"),
                     "--no-oracle", "--no-mutation", "--boot", "0"])
        assert code == 2
        assert "conform-update" in capsys.readouterr().err


class TestLintErrors:
    def test_unknown_select_rule_exits_2(self, capsys):
        code = main(["lint", "src", "--select", "RL999"])
        assert code == 2
        err = capsys.readouterr().err
        assert "lint error" in err
        assert "RL999" in err

    def test_unknown_select_rule_lists_valid_ids(self, capsys):
        code = main(["lint", "src", "--select", "RL999"])
        assert code == 2
        err = capsys.readouterr().err
        assert "valid ids:" in err
        # The roll call names the real IDs, so the user can fix the
        # invocation without opening the docs.
        for known in ("RL000", "RL012", "RL040"):
            assert known in err
        # Neither a reserved gap nor a retired rule is advertised.
        for unknown in ("RL013", "RL020", "RL043"):
            assert unknown not in err

    def test_retired_rule_id_exits_2(self, capsys):
        code = main(["lint", "src", "--select", "RL020"])
        assert code == 2
        assert "unknown rule id in --select: RL020" in capsys.readouterr().err

    def test_unknown_ignore_rule_exits_2(self, capsys):
        code = main(["lint", "src", "--ignore", "RL007,BOGUS"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown rule id" in err
        assert "BOGUS" in err
        assert "valid ids:" in err

    def test_nonexistent_path_exits_2(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "missing_dir")])
        assert code == 2
        err = capsys.readouterr().err
        assert "lint error" in err
        assert "does not exist" in err

    def test_non_python_file_exits_2(self, tmp_path, capsys):
        payload = tmp_path / "data.csv"
        payload.write_text("a,b\n")
        code = main(["lint", str(payload)])
        assert code == 2
        assert "not a Python file" in capsys.readouterr().err

    def test_bad_format_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "src", "--format", "xml"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestPlanErrors:
    """Every invalid ``repro plan`` invocation exits 2 before any work."""

    def test_unknown_policy_exits_2(self, capsys):
        code = main(["plan", "--policy", "round-robin"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cdn error" in err
        assert "round-robin" in err

    @pytest.mark.parametrize("slo", ["-0.1", "1.5"])
    def test_slo_outside_unit_interval_exits_2(self, slo, capsys):
        code = main(["plan", "--slo", slo])
        assert code == 2
        assert "--slo must be within [0, 1]" in capsys.readouterr().err

    def test_zero_edges_exits_2(self, capsys):
        code = main(["plan", "--edges", "0"])
        assert code == 2
        assert "at least one edge" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["1:4", "4:1:1", "1:4:0", "a,b"])
    def test_malformed_edge_sweep_exits_2(self, sweep, capsys):
        code = main(["plan", "--edges", sweep])
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    def test_fractional_edge_sweep_exits_2(self, capsys):
        code = main(["plan", "--edges", "1.5,2"])
        assert code == 2
        assert "whole numbers" in capsys.readouterr().err

    def test_malformed_bandwidth_sweep_exits_2(self, capsys):
        code = main(["plan", "--bandwidth-mbps", "5:1:1"])
        assert code == 2
        assert "descending" in capsys.readouterr().err

    def test_failure_beyond_smallest_deployment_exits_2(self, capsys):
        code = main(["plan", "--edges", "1:2:1",
                     "--fail-edge", "3@100"])
        assert code == 2
        assert "names edge 3" in capsys.readouterr().err

    def test_malformed_failure_spec_exits_2(self, capsys):
        code = main(["plan", "--fail-edge", "0@noon"])
        assert code == 2
        assert "malformed failure spec" in capsys.readouterr().err
