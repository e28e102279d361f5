"""CLI integration tests for ``repro serve`` / ``repro serve-load``.

Error paths run the CLI in-process (exit code 2 + a stderr
explanation).  The end-to-end tests boot ``repro serve`` as a real
subprocess, replay a trace through the CLI load harness, and prove
that kill -9 during operation plus ``--resume`` reproduces the exact
state of an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.model import LiveWorkloadModel
from repro.stream import run_streaming_generation

SEED = 31415
_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def text_log(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve_cli")
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.05,
                                             n_clients=120)
    path = root / "run.log"
    run_streaming_generation(model, 1.0, seed=SEED, log_path=path)
    return path


# ----------------------------------------------------------------------
# Error paths (in-process)
# ----------------------------------------------------------------------
class TestServeErrors:
    def test_bad_tcp_port_exits_2(self, capsys):
        code = main(["serve", "--tcp-port", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "serve error" in err
        assert "port" in err

    def test_port_collision_exits_2(self, capsys):
        code = main(["serve", "--tcp-port", "7070", "--http-port", "7070"])
        assert code == 2
        assert "serve error" in capsys.readouterr().err

    def test_missing_checkpoint_dir_exits_2(self, tmp_path, capsys):
        code = main(["serve", "--tcp-port", "0", "--http-port", "0",
                     "--checkpoint",
                     str(tmp_path / "no_such_dir" / "ckpt.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert "serve error" in err
        assert "no_such_dir" in err

    def test_resume_without_checkpoint_exits_2(self, capsys):
        code = main(["serve", "--tcp-port", "0", "--http-port", "0",
                     "--resume"])
        assert code == 2
        assert "serve error" in capsys.readouterr().err

    def test_resume_missing_checkpoint_file_exits_2(self, tmp_path, capsys):
        code = main(["serve", "--tcp-port", "0", "--http-port", "0",
                     "--resume", "--checkpoint",
                     str(tmp_path / "absent.npz")])
        assert code == 2
        assert "serve error" in capsys.readouterr().err


class TestServeLoadErrors:
    def test_missing_log_exits_2(self, tmp_path, capsys):
        code = main(["serve-load", str(tmp_path / "absent.log")])
        assert code == 2
        err = capsys.readouterr().err
        assert "serve error" in err
        assert "does not exist" in err

    def test_resume_without_http_port_exits_2(self, text_log, capsys):
        code = main(["serve-load", str(text_log), "--resume-from-service"])
        assert code == 2
        assert "http_port" in capsys.readouterr().err

    def test_bad_feeds_exits_2(self, text_log, capsys):
        code = main(["serve-load", str(text_log), "--feeds", "0"])
        assert code == 2
        assert "feeds must be positive" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Subprocess end-to-end
# ----------------------------------------------------------------------
def _boot(extra_args):
    """Start ``repro serve`` on ephemeral ports; return (proc, tcp, http)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--tcp-port", "0", "--http-port", "0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    assert proc.stdout is not None
    banner = proc.stdout.readline()
    assert banner.startswith("repro-serve listening"), (
        banner + (proc.stdout.read() or ""))
    fields = dict(pair.split("=") for pair in banner.split()[2:])
    return proc, int(fields["tcp"]), int(fields["http"])


def _stop(proc):
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            proc.kill()
            proc.wait(timeout=15)
    if proc.stdout is not None:
        proc.stdout.close()


def _http_json(port, path, *, method="GET"):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method=method,
        data=b"" if method == "POST" else None)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


@pytest.fixture(scope="module")
def reference_state(text_log):
    """The /state document after an uninterrupted CLI replay."""
    proc, tcp, http = _boot([])
    try:
        code = main(["serve-load", str(text_log),
                     "--tcp-port", str(tcp), "--http-port", str(http)])
        assert code == 0
        return _http_json(http, "/state")
    finally:
        _stop(proc)


def test_cli_serve_load_report(text_log, tmp_path, capsys):
    out = tmp_path / "report.json"
    proc, tcp, http = _boot([])
    try:
        code = main(["serve-load", str(text_log),
                     "--tcp-port", str(tcp), "--http-port", str(http),
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "replayed" in stdout
        assert "lines/s" in stdout
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["codec"] == "text"
        assert report["lines_sent"] > 0
        assert report["lines_per_sec"] > 0
        assert report["latency_p99_s"] is not None
        metrics = _http_json(http, "/metrics")
        counters = metrics["feeds"]["feed0"]["counters"]
        assert counters["lines_ingested"] == report["lines_sent"]
    finally:
        _stop(proc)


def test_cli_kill9_resume_matches_uninterrupted(text_log, tmp_path,
                                                reference_state):
    checkpoint = tmp_path / "ckpt.npz"
    half = tmp_path / "half.log"
    lines = text_log.read_text(encoding="utf-8").splitlines(keepends=True)
    half.write_text("".join(lines[:len(lines) // 2]), encoding="utf-8")

    # Leg 1: ingest the first half, checkpoint, then kill -9 — no
    # graceful shutdown, no flush.
    proc, tcp, http = _boot(["--checkpoint", str(checkpoint),
                             "--checkpoint-interval", "3600"])
    try:
        code = main(["serve-load", str(half),
                     "--tcp-port", str(tcp), "--http-port", str(http)])
        assert code == 0
        _http_json(http, "/checkpoint", method="POST")
        assert checkpoint.exists()
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        _stop(proc)

    # Leg 2: resume from the checkpoint and replay the remainder.
    proc, tcp, http = _boot(["--checkpoint", str(checkpoint), "--resume",
                             "--checkpoint-interval", "3600"])
    try:
        code = main(["serve-load", str(text_log),
                     "--tcp-port", str(tcp), "--http-port", str(http),
                     "--resume-from-service"])
        assert code == 0
        resumed = _http_json(http, "/state")
    finally:
        _stop(proc)

    assert json.dumps(resumed, sort_keys=True) == json.dumps(
        reference_state, sort_keys=True)


def test_checkpoint_endpoint_without_path_is_409(text_log):
    proc, _, http = _boot([])
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _http_json(http, "/checkpoint", method="POST")
        assert excinfo.value.code == 409
    finally:
        _stop(proc)
