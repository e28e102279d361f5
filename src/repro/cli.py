"""Command-line interface.

Subcommands mirror the library's three faces plus the experiment harness:

* ``repro simulate`` — run the live-show scenario, write a trace.
* ``repro characterize`` — three-layer characterization report of a trace.
* ``repro calibrate`` — fit the Table 2 model from a trace, write JSON.
* ``repro generate`` — GISMO-live synthesis from a model (or defaults).
* ``repro replay`` — replay a trace against the server with admission
  control.
* ``repro experiments`` — regenerate the paper's tables and figures.
* ``repro conform`` — statistical conformance gates + cross-pipeline
  differential oracle against the golden registry.
* ``repro lint`` — AST-based determinism & numeric-discipline linter
  (rules RL000…; see ``docs/LINTING.md``).
* ``repro serve`` — live characterization service (asyncio ingest +
  metrics endpoint + checkpointing).
* ``repro serve-load`` — replay a trace log into a running service and
  report sustained throughput and ingest latency.
* ``repro plan`` — sweep CDN deployments (edge counts x per-edge
  bandwidths) through the two-tier delivery simulation and report the
  minimal deployment meeting a rejection-rate SLO.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .core.calibrate import calibrate_model
from .core.characterize import characterize
from .core.gismo import LiveWorkloadGenerator
from .core.model import LiveWorkloadModel
from .core.report import render_report
from .simulation.population import PopulationConfig
from .simulation.replay import replay_trace
from .simulation.scenario import LiveShowScenario, ScenarioConfig
from .trace.sanitize import sanitize_trace
from .trace.store import Trace
from .trace.wms_log import write_wms_log
from .units import DEFAULT_SESSION_TIMEOUT

if TYPE_CHECKING:
    from .trace.streaming import StreamingSummary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Hierarchical Characterization of a "
                    "Live Streaming Media Workload' (IMC 2002)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress (repeat for per-shard detail)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate",
                         help="simulate the live-show world into a trace")
    sim.add_argument("--days", type=float, default=28.0,
                     help="trace length in days (default: 28)")
    sim.add_argument("--rate", type=float, default=0.05,
                     help="mean session arrival rate per second "
                          "(default: 0.05; the paper's trace: ~0.62)")
    sim.add_argument("--clients", type=int, default=50_000,
                     help="population size (default: 50000)")
    sim.add_argument("--seed", type=int, default=None, help="random seed")
    sim.add_argument("--out", type=Path, required=True,
                     help="output .npz trace path")
    sim.add_argument("--wms-log", type=Path, default=None,
                     help="also write a Windows-Media-Server-style log")

    cha = sub.add_parser("characterize",
                         help="three-layer characterization of a trace")
    cha.add_argument("trace", type=Path, nargs="+",
                     help=".npz trace path (or WMS log paths with --log)")
    cha.add_argument("--timeout", type=float,
                     default=DEFAULT_SESSION_TIMEOUT,
                     help="session timeout T_o in seconds (default: 1500)")
    cha.add_argument("--no-sanitize", action="store_true",
                     help="skip the Section 2.4 sanitization pass")
    cha.add_argument("--log", action="store_true",
                     help="treat inputs as WMS-style logs and run the "
                          "streaming map-reduce characterization")
    cha.add_argument("--jobs", type=int, default=1,
                     help="worker processes for --log chunk "
                          "characterization (default: 1, inline)")
    cha.add_argument("--checkpoint", type=Path, default=None,
                     help="with --log: run the sequential resumable "
                          "characterization, checkpointing the "
                          "accumulator to this file")
    cha.add_argument("--resume", action="store_true",
                     help="with --checkpoint: continue from the "
                          "checkpoint if it exists")
    cha.add_argument("--codec", choices=("auto", "text", "binary"),
                     default="auto",
                     help="with --log: expected trace codec of the "
                          "inputs; 'auto' (default) sniffs each file, "
                          "naming one fails fast on a mismatch")

    cal = sub.add_parser("calibrate",
                         help="fit the Table 2 generative model from a trace")
    cal.add_argument("trace", type=Path, help=".npz trace path")
    cal.add_argument("--timeout", type=float,
                     default=DEFAULT_SESSION_TIMEOUT,
                     help="session timeout T_o in seconds (default: 1500)")
    cal.add_argument("--out", type=Path, required=True,
                     help="output model JSON path")

    gen = sub.add_parser("generate",
                         help="GISMO-live synthetic workload generation")
    gen.add_argument("--model", type=Path, default=None,
                     help="model JSON (default: the paper's Table 2 "
                          "parameters)")
    gen.add_argument("--days", type=float, default=7.0,
                     help="workload length in days (default: 7)")
    gen.add_argument("--rate", type=float, default=0.05,
                     help="mean session rate when using default model")
    gen.add_argument("--clients", type=int, default=50_000,
                     help="client population when using default model "
                          "(default: 50000)")
    gen.add_argument("--seed", type=int, default=None, help="random seed")
    gen.add_argument("--scenario", default=None, metavar="SPEC",
                     help="workload perturbation scenario: a registered "
                          "name with optional parameters, '+'-composed "
                          "(e.g. 'flash-crowd', "
                          "'flash-crowd(peak=6.0)+zapping'); the output "
                          "is identical across --shards/--jobs/--stream")
    gen.add_argument("--shards", type=int, default=1,
                     help="split generation into this many shards; the "
                          "merged trace is identical for any value "
                          "(default: 1)")
    gen.add_argument("--jobs", type=int, default=1,
                     help="worker processes executing the shards "
                          "(default: 1, inline)")
    gen.add_argument("--out", type=Path, required=True,
                     help="output .npz trace path (with --stream: the "
                          "WMS-style log path)")
    gen.add_argument("--stream", action="store_true",
                     help="bounded-memory streaming mode: write a "
                          "WMS-style log directly (never materializing "
                          "the trace); bit-identical to generating the "
                          "trace and writing the log from it")
    gen.add_argument("--chunk-size", type=int, default=None,
                     help="transfers per streamed batch (--stream only; "
                          "output is invariant to it)")
    gen.add_argument("--blocks", type=int, default=None,
                     help="canonical block count (--stream only; part "
                          "of the workload identity, default: 64)")
    gen.add_argument("--timeout", type=float,
                     default=DEFAULT_SESSION_TIMEOUT,
                     help="session timeout T_o for the online "
                          "sessionizer (--stream only, default: 1500)")
    gen.add_argument("--no-sessions", action="store_true",
                     help="skip online sessionization (--stream only)")
    gen.add_argument("--checkpoint", type=Path, default=None,
                     help="checkpoint the pipeline cursor to this file "
                          "after every block (--stream only; requires "
                          "--seed)")
    gen.add_argument("--resume", action="store_true",
                     help="continue from --checkpoint if it exists "
                          "(--stream only)")
    gen.add_argument("--max-blocks", type=int, default=None,
                     help="stop after this many blocks (--stream only; "
                          "for exercising interrupted runs)")
    gen.add_argument("--codec", choices=("text", "binary"), default=None,
                     help="trace serialization for --stream output: "
                          "'text' (WMS log, default) or 'binary' (the "
                          "columnar format; ~5x smaller, decodes to the "
                          "identical trace)")

    rep = sub.add_parser("replay",
                         help="replay a trace against the unicast server")
    rep.add_argument("trace", type=Path, help=".npz trace path")
    rep.add_argument("--max-concurrent", type=int, default=None,
                     help="admission-control limit (default: unlimited)")

    exp = sub.add_parser("experiments",
                         help="regenerate the paper's tables and figures")
    exp.add_argument("ids", nargs="*",
                     help="experiment ids to run (default: all)")
    exp.add_argument("--out", type=Path, default=None,
                     help="also write the rendered output to this file")

    figs = sub.add_parser("figures",
                          help="export figure data (.dat + gnuplot scripts)")
    figs.add_argument("ids", nargs="*",
                      help="experiment ids to export (default: all)")
    figs.add_argument("--outdir", type=Path, required=True,
                      help="directory for the exported files")

    con = sub.add_parser("conform",
                         help="statistical conformance gates + "
                              "cross-pipeline differential oracle")
    con.add_argument("--scale", choices=("smoke", "paper"),
                     default="smoke",
                     help="canonical workload matrix to run (default: "
                          "smoke; paper adds the 28-day Table 2-scale "
                          "workload)")
    con.add_argument("--out", type=Path, default=None,
                     help="write the CONFORMANCE.json report here")
    con.add_argument("--update", action="store_true",
                     help="re-pin the golden registry from this run "
                          "instead of gating against it")
    con.add_argument("--registry", type=Path, default=None,
                     help="golden registry path (default: the "
                          "committed src/repro/conform/golden.json)")
    con.add_argument("--no-oracle", action="store_true",
                     help="skip the cross-pipeline differential oracle")
    con.add_argument("--no-mutation", action="store_true",
                     help="skip the mutation self-check")
    con.add_argument("--no-scenarios", action="store_true",
                     help="skip the scenario sensitivity gates, scenario "
                          "oracles, and the inert-scenario self-check")
    con.add_argument("--boot", type=int, default=None,
                     help="bootstrap replicates per parameter "
                          "(default: 200)")

    lnt = sub.add_parser("lint",
                         help="AST-based determinism & numeric-discipline "
                              "linter (rules RL000..)")
    lnt.add_argument("paths", type=Path, nargs="*",
                     help="files or directories to lint "
                          "(default: src/ tests/)")
    lnt.add_argument("--format", choices=("text", "json", "sarif"),
                     default="text",
                     help="report format (default: text); sarif feeds "
                          "GitHub code scanning")
    lnt.add_argument("--select", action="append", default=None,
                     metavar="RLxxx[,RLxxx...]",
                     help="run only these rule IDs (repeatable)")
    lnt.add_argument("--ignore", action="append", default=None,
                     metavar="RLxxx[,RLxxx...]",
                     help="skip these rule IDs (repeatable)")
    lnt.add_argument("--out", type=Path, default=None,
                     help="also write the report to this file")
    lnt.add_argument("--cache-file", type=Path,
                     default=Path(".reprolint-cache.json"),
                     help="incremental analysis cache keyed by file "
                          "content hashes (default: "
                          ".reprolint-cache.json)")
    lnt.add_argument("--no-cache", action="store_true",
                     help="ignore and do not write the analysis cache")

    srv = sub.add_parser("serve",
                         help="live characterization service: TCP/HTTP "
                              "ingest, JSON metrics, checkpointing")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    srv.add_argument("--tcp-port", type=int, default=7070,
                     help="TCP ingest port; 0 picks an ephemeral port "
                          "(default: 7070)")
    srv.add_argument("--http-port", type=int, default=8080,
                     help="HTTP metrics/ingest port; 0 picks an "
                          "ephemeral port (default: 8080)")
    srv.add_argument("--checkpoint", type=Path, default=None,
                     help="periodically checkpoint service state to "
                          "this .npz file")
    srv.add_argument("--checkpoint-interval", type=float, default=30.0,
                     help="seconds between periodic checkpoints "
                          "(default: 30)")
    srv.add_argument("--resume", action="store_true",
                     help="restore state from --checkpoint before "
                          "serving")
    srv.add_argument("--timeout", type=float,
                     default=DEFAULT_SESSION_TIMEOUT,
                     help="session timeout T_o in seconds "
                          "(default: 1500)")
    srv.add_argument("--lateness", type=float, default=None,
                     help="reorder-buffer lateness bound in seconds "
                          "(default: 86400)")
    srv.add_argument("--queue-batches", type=int, default=64,
                     help="per-feed worker queue capacity in batches; "
                          "a full queue sheds input (default: 64)")
    srv.add_argument("--golden", default=None, metavar="WORKLOAD",
                     help="golden-registry workload for /metrics "
                          "parameter drift (e.g. 'small')")

    lod = sub.add_parser("serve-load",
                         help="replay a trace log into a running "
                              "service (load harness)")
    lod.add_argument("log", type=Path,
                     help="trace log to replay (text or binary codec)")
    lod.add_argument("--host", default="127.0.0.1",
                     help="service address (default: 127.0.0.1)")
    lod.add_argument("--tcp-port", type=int, default=7070,
                     help="service TCP ingest port (default: 7070)")
    lod.add_argument("--http-port", type=int, default=None,
                     help="service HTTP port; enables drain/latency "
                          "readout and backpressure recovery")
    lod.add_argument("--feeds", type=int, default=1,
                     help="partition the log across this many feeds "
                          "by object id (default: 1)")
    lod.add_argument("--speedup", type=float, default=0.0,
                     help="replay pacing: data seconds per wall second; "
                          "0 replays unpaced (default: 0)")
    lod.add_argument("--batch-lines", type=int, default=512,
                     help="text lines per send batch (default: 512)")
    lod.add_argument("--transport", choices=("tcp", "http"),
                     default="tcp",
                     help="ingest transport (http carries text only; "
                          "default: tcp)")
    lod.add_argument("--codec", choices=("auto", "text", "binary"),
                     default="auto",
                     help="log codec (default: sniff the file)")
    lod.add_argument("--resume-from-service", action="store_true",
                     help="ask /metrics how far each feed got and "
                          "replay only the remainder")
    lod.add_argument("--max-retries", type=int, default=3,
                     help="reconnect attempts per feed after "
                          "backpressure sheds (default: 3)")
    lod.add_argument("--out", type=Path, default=None,
                     help="write the JSON load report here")

    pln = sub.add_parser("plan",
                         help="sweep CDN deployments for the minimal one "
                              "meeting a rejection-rate SLO")
    pln.add_argument("--trace", type=Path, default=None,
                     help=".npz trace to plan for (default: generate a "
                          "workload from the model defaults)")
    pln.add_argument("--days", type=float, default=1.0,
                     help="generated workload length in days when no "
                          "--trace is given (default: 1)")
    pln.add_argument("--rate", type=float, default=0.05,
                     help="mean session rate for the generated workload "
                          "(default: 0.05)")
    pln.add_argument("--clients", type=int, default=2000,
                     help="client population for the generated workload "
                          "(default: 2000)")
    pln.add_argument("--seed", type=int, default=None,
                     help="random seed for the generated workload")
    pln.add_argument("--scenario", default=None, metavar="SPEC",
                     help="perturbation scenario for the generated "
                          "workload (e.g. 'flash-crowd'); incompatible "
                          "with --trace")
    pln.add_argument("--policy", default="as-hash",
                     help="client->edge assignment policy: as-hash, "
                          "sticky, or least-loaded (default: as-hash)")
    pln.add_argument("--slo", type=float, default=0.01,
                     help="max acceptable rejection rate in [0, 1] "
                          "(default: 0.01)")
    pln.add_argument("--edges", default="1:4:1",
                     help="edge-count sweep: 'a,b,c' or 'lo:hi:step' "
                          "(default: 1:4:1)")
    pln.add_argument("--bandwidth-mbps", default=None,
                     help="per-edge bandwidth sweep in Mbit/s: 'a,b,c' "
                          "or 'lo:hi:step' (default: unlimited)")
    pln.add_argument("--max-connections", type=int, default=None,
                     help="per-edge connection cap (default: unlimited)")
    pln.add_argument("--fail-edge", action="append", default=None,
                     metavar="EDGE@AT[:UNTIL]",
                     help="kill an edge at time AT seconds (optionally "
                          "reviving at UNTIL); repeatable")
    pln.add_argument("--step", type=float, default=60.0,
                     help="concurrency sampling period in seconds "
                          "(default: 60)")
    pln.add_argument("--jobs", type=int, default=1,
                     help="worker processes sharding the sweep "
                          "(default: 1, inline; output is identical "
                          "for any value)")
    pln.add_argument("--out", type=Path, default=None,
                     help="write the full JSON plan report here")

    val = sub.add_parser("validate",
                         help="compare two traces through the calibration "
                              "lens (generator fidelity)")
    val.add_argument("reference", type=Path,
                     help=".npz trace being imitated")
    val.add_argument("candidate", type=Path, help=".npz trace under test")
    val.add_argument("--rtol", type=float, default=0.2,
                     help="max relative error per Table 2 parameter")
    val.add_argument("--ks-max", type=float, default=0.1,
                     help="max two-sample KS on transfer lengths")
    val.add_argument("--corr-min", type=float, default=0.9,
                     help="min diurnal-profile correlation")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        days=args.days, mean_session_rate=args.rate,
        population=PopulationConfig(n_clients=args.clients))
    result = LiveShowScenario(config).run(args.seed)
    result.trace.save_npz(args.out)
    print(f"wrote {result.trace.n_transfers} transfers "
          f"({result.n_sessions} sessions, "
          f"{result.trace.n_clients} clients) to {args.out}")
    if args.wms_log is not None:
        entries = write_wms_log(result.trace, args.wms_log)
        print(f"wrote {entries} log entries to {args.wms_log}")
    return 0


def _render_streaming_summary(summary: StreamingSummary) -> str:
    """Render a :class:`~repro.trace.streaming.StreamingSummary` as text."""
    lines = [
        "streaming characterization",
        f"  entries parsed        {summary.n_entries}",
        f"  entries skipped       {summary.n_skipped}",
        f"  distinct clients      {summary.n_clients}",
        f"  length lognormal      mu={summary.length_log_mu:.3f} "
        f"sigma={summary.length_log_sigma:.3f}",
        f"  bytes served          {summary.bytes_served:.3e}",
        f"  congestion bound      "
        f"{summary.congestion_bound_fraction * 100:.2f}%",
        "  transfers per feed    " + ", ".join(
            f"feed{feed}={count}"
            for feed, count in summary.feed_counts.items()),
    ]
    if summary.top_clients:
        lines.append("  top clients           " + ", ".join(
            f"{player}={count}" for player, count in summary.top_clients[:5]))
    return "\n".join(lines)


def _cmd_characterize(args: argparse.Namespace) -> int:
    if args.checkpoint is not None and not args.log:
        print("--checkpoint requires --log (it checkpoints the streaming "
              "log characterization)", file=sys.stderr)
        return 2
    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.codec != "auto" and not args.log:
        print("--codec requires --log (npz traces have no codec)",
              file=sys.stderr)
        return 2
    if args.log:
        if args.codec != "auto":
            from .trace.codecs import detect_codec

            for path in args.trace:
                detected = detect_codec(path)
                if detected != args.codec:
                    print(f"{path}: detected codec {detected!r} does not "
                          f"match --codec {args.codec}", file=sys.stderr)
                    return 2
        if args.checkpoint is not None:
            from .errors import CheckpointError
            from .stream import characterize_logs_resumable

            try:
                summary = characterize_logs_resumable(
                    args.trace, checkpoint_path=args.checkpoint,
                    resume=args.resume)
            except CheckpointError as exc:
                print(f"checkpoint error: {exc}", file=sys.stderr)
                return 2
        else:
            from .parallel import characterize_logs

            summary = characterize_logs(args.trace, jobs=args.jobs)
        print(_render_streaming_summary(summary))
        return 0
    if len(args.trace) != 1:
        print("characterize accepts exactly one .npz trace "
              "(multiple inputs need --log)", file=sys.stderr)
        return 2
    trace = Trace.load_npz(args.trace[0])
    if not args.no_sanitize:
        trace, report = sanitize_trace(trace)
        if report.n_removed:
            print(f"sanitization removed {report.n_removed} entries "
                  f"({report.n_spanning} spanning, "
                  f"{report.n_out_of_window} out of window, "
                  f"{report.n_degenerate} degenerate)")
    print(render_report(characterize(trace, timeout=args.timeout)))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    trace = Trace.load_npz(args.trace)
    trace, _ = sanitize_trace(trace)
    result = calibrate_model(trace, timeout=args.timeout)
    args.out.write_text(json.dumps(result.model.to_dict(), indent=2))
    print(f"wrote model to {args.out}")
    print(f"  interest alpha        {result.model.interest_alpha:.4f}")
    print(f"  transfers/session     {result.model.transfers_alpha:.4f}")
    print(f"  gap lognormal         mu={result.model.gap_log_mu:.3f} "
          f"sigma={result.model.gap_log_sigma:.3f}")
    print(f"  length lognormal      mu={result.model.length_log_mu:.3f} "
          f"sigma={result.model.length_log_sigma:.3f}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .errors import ScenarioError
    from .scenarios import get_scenario

    if args.model is not None:
        model = LiveWorkloadModel.from_dict(
            json.loads(args.model.read_text()))
    else:
        model = LiveWorkloadModel.paper_defaults(
            mean_session_rate=args.rate, n_clients=args.clients)
    if args.chunk_size is not None and args.chunk_size < 1:
        print(f"--chunk-size must be at least 1, got {args.chunk_size}",
              file=sys.stderr)
        return 2
    try:
        get_scenario(args.scenario)  # fail fast, before any generation
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    if args.stream:
        return _cmd_generate_stream(args, model)
    for flag, name in ((args.chunk_size, "--chunk-size"),
                       (args.blocks, "--blocks"),
                       (args.checkpoint, "--checkpoint"),
                       (args.max_blocks, "--max-blocks"),
                       (args.codec, "--codec")):
        if flag is not None:
            print(f"{name} only applies with --stream", file=sys.stderr)
            return 2
    if args.resume or args.no_sessions:
        print("--resume/--no-sessions only apply with --stream",
              file=sys.stderr)
        return 2
    try:
        workload = LiveWorkloadGenerator(model).generate_sharded(
            args.days, seed=args.seed, shards=args.shards, jobs=args.jobs,
            scenario=args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    workload.trace.save_npz(args.out)
    scenario_note = (f" [scenario {args.scenario}]"
                     if args.scenario is not None else "")
    print(f"generated {workload.trace.n_transfers} transfers in "
          f"{workload.n_sessions} sessions over {args.days} days"
          f"{scenario_note} -> {args.out}")
    return 0


def _cmd_generate_stream(args: argparse.Namespace,
                         model: LiveWorkloadModel) -> int:
    from .errors import CheckpointError, ScenarioError
    from .stream import DEFAULT_CHUNK_SIZE, run_streaming_generation

    try:
        result = run_streaming_generation(
            model, args.days, seed=args.seed, log_path=args.out,
            chunk_size=(DEFAULT_CHUNK_SIZE if args.chunk_size is None
                        else args.chunk_size),
            blocks=args.blocks, timeout=args.timeout,
            sessionize=not args.no_sessions, collect_sessions=False,
            checkpoint_path=args.checkpoint, resume=args.resume,
            max_blocks=args.max_blocks,
            scenario=args.scenario,
            codec=args.codec if args.codec is not None else "text")
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    state = "complete" if result.completed else "interrupted"
    sessions = ("sessions off" if result.n_sessions is None
                else f"{result.n_sessions} sessions")
    print(f"streamed {result.n_entries} log entries "
          f"({result.n_transfers} transfers, {sessions}) over "
          f"{args.days} days -> {args.out} [{state}]")
    print(f"  peak state: {result.peak_open_sessions} open sessions, "
          f"{result.peak_log_buffered} buffered log entries, "
          f"{result.peak_pending} pending transfers")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = Trace.load_npz(args.trace)
    result = replay_trace(trace, max_concurrent=args.max_concurrent)
    print(f"requests:          {result.n_requests}")
    print(f"served:            {result.n_served}")
    print(f"rejected:          {result.n_rejected} "
          f"({result.rejection_rate * 100:.2f}%)")
    print(f"peak concurrency:  {result.peak_concurrency}")
    print(f"bytes served:      {result.bytes_served:.3e}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import ALL_EXPERIMENTS, run_all, summary_line

    names = tuple(args.ids) if args.ids else ALL_EXPERIMENTS
    chunks: list[str] = []

    def echo(text: str) -> None:
        chunks.append(text)
        print(text)

    results = run_all(names, echo=echo)
    summary = summary_line(results)
    chunks.append(summary)
    print(summary)
    if args.out is not None:
        args.out.write_text("\n".join(chunks) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    from .experiments.export import export_all
    from .experiments.runner import ALL_EXPERIMENTS

    names = tuple(args.ids) if args.ids else ALL_EXPERIMENTS
    exported = export_all(args.outdir, names)
    total = sum(len(files) for files in exported.values())
    print(f"exported {total} files for {len(exported)} experiments "
          f"to {args.outdir}")
    return 0


def _cmd_conform(args: argparse.Namespace) -> int:
    from .conform import (conformance_document, render_failures,
                          render_summary, run_conformance)
    from .conform.fingerprint import DEFAULT_N_BOOT
    from .conform.registry import REGISTRY_PATH
    from .errors import ReproError

    try:
        result = run_conformance(
            args.scale,
            update=args.update,
            run_oracle=not args.no_oracle,
            run_mutation=not args.no_mutation,
            run_scenarios=not args.no_scenarios,
            n_boot=DEFAULT_N_BOOT if args.boot is None else args.boot,
            registry_path=(REGISTRY_PATH if args.registry is None
                           else args.registry))
    except ReproError as exc:
        print(f"conformance error: {exc}", file=sys.stderr)
        return 2
    print(render_summary(result))
    if args.out is not None:
        args.out.write_text(
            json.dumps(conformance_document(result), indent=2,
                       sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if not result.passed:
        print(render_failures(result), file=sys.stderr)
        return 1
    return 0


def _split_rule_ids(values: list[str] | None) -> list[str] | None:
    """Flatten repeatable comma-separated ``--select``/``--ignore`` args."""
    if values is None:
        return None
    return [token for value in values
            for token in value.split(",") if token]


def _cmd_lint(args: argparse.Namespace) -> int:
    from .errors import LintError
    from .lint import lint_paths, render_json, render_sarif, render_text

    paths = [str(p) for p in args.paths] or ["src", "tests"]
    cache_file = None if args.no_cache else args.cache_file
    try:
        result = lint_paths(paths,
                            select=_split_rule_ids(args.select),
                            ignore=_split_rule_ids(args.ignore),
                            cache_path=cache_file)
    except LintError as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        report = render_json(result)
    elif args.format == "sarif":
        report = render_sarif(result)
    else:
        report = render_text(result) + "\n"
    print(report, end="")
    if args.out is not None:
        args.out.write_text(report)
    return 0 if result.clean else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .errors import ReproError
    from .serve.config import DEFAULT_LATENESS, ServeConfig
    from .serve.service import CharacterizationService

    config = ServeConfig(
        host=args.host,
        tcp_port=args.tcp_port,
        http_port=args.http_port,
        checkpoint_path=(None if args.checkpoint is None
                         else str(args.checkpoint)),
        checkpoint_interval=args.checkpoint_interval,
        resume=args.resume,
        timeout=args.timeout,
        lateness=(DEFAULT_LATENESS if args.lateness is None
                  else args.lateness),
        queue_batches=args.queue_batches,
        golden_workload=args.golden,
    )
    try:
        config.validate()
    except ReproError as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> int:
        service = CharacterizationService(config)
        try:
            await service.start()
        except ReproError as exc:
            print(f"serve error: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"repro-serve listening "
              f"tcp={service.tcp_port} http={service.http_port}",
              flush=True)
        try:
            await service.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - signal path
            pass
        finally:
            await service.stop()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def _cmd_serve_load(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .serve.load import run_load

    try:
        report = run_load(
            args.log,
            host=args.host,
            tcp_port=args.tcp_port,
            http_port=args.http_port,
            feeds=args.feeds,
            speedup=args.speedup,
            batch_lines=args.batch_lines,
            transport=args.transport,
            codec=None if args.codec == "auto" else args.codec,
            resume_from_service=args.resume_from_service,
            max_retries=args.max_retries,
        )
    except ReproError as exc:
        print(f"serve-load error: {exc}", file=sys.stderr)
        return 2
    print(f"replayed {report.lines_sent} lines "
          f"({report.codec} codec, {report.n_feeds} feeds) in "
          f"{report.wall_seconds:.2f}s -> "
          f"{report.lines_per_sec:.0f} lines/s")
    if report.latency_p99_s is not None:
        print(f"  ingest latency        p50={report.latency_p50_s:.6f}s "
              f"p99={report.latency_p99_s:.6f}s")
    if report.retries:
        print(f"  backpressure retries  {report.retries}")
    if args.out is not None:
        args.out.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


def _fmt_bandwidth(bps: float | None) -> str:
    return "unlimited" if bps is None else f"{bps / 1e6:g} Mbit/s"


def _cmd_plan(args: argparse.Namespace) -> int:
    import tempfile

    from .cdn import (parse_failure, parse_sweep, plan_deployment,
                      sweep_configs, validate_policy)
    from .cdn.failures import FailurePlan
    from .errors import CdnError

    try:
        validate_policy(args.policy)
        if not 0.0 <= args.slo <= 1.0:
            raise CdnError(f"--slo must be within [0, 1], got {args.slo}")
        edge_counts = tuple(
            int(v) for v in parse_sweep(args.edges, integral=True))
        bandwidths = (None if args.bandwidth_mbps is None else tuple(
            v * 1e6 for v in parse_sweep(args.bandwidth_mbps)))
        # Validate the whole candidate grid up front, before the
        # (potentially slow) workload generation below.
        sweep_configs(edge_counts, bandwidths,
                      max_connections=args.max_connections)
        failures = FailurePlan(tuple(
            parse_failure(spec) for spec in (args.fail_edge or ())))
        failures.validate(min(edge_counts) if edge_counts else 0)
    except CdnError as exc:
        print(f"plan error: {exc}", file=sys.stderr)
        return 2

    # The sweep always reads the workload from an .npz file — a
    # generated workload is materialized to a temp file first — so the
    # worker processes see the exact same bytes as the inline path and
    # the report is identical for any --jobs value.
    if args.trace is not None:
        if args.scenario is not None:
            print("--scenario applies to the generated workload; it is "
                  "incompatible with --trace (pre-recorded traces carry "
                  "no model to perturb)", file=sys.stderr)
            return 2
        trace_path, cleanup = args.trace, None
    else:
        from .errors import ScenarioError

        model = LiveWorkloadModel.paper_defaults(
            mean_session_rate=args.rate, n_clients=args.clients)
        try:
            workload = LiveWorkloadGenerator(model).generate(
                args.days, seed=args.seed, scenario=args.scenario)
        except ScenarioError as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return 2
        handle = tempfile.NamedTemporaryFile(
            suffix=".npz", delete=False)
        handle.close()
        workload.trace.save_npz(handle.name)
        trace_path, cleanup = Path(handle.name), Path(handle.name)
        scenario_note = ("" if args.scenario is None
                         else f", scenario={args.scenario}")
        print(f"generated {workload.trace.n_transfers} transfers over "
              f"{args.days} days (rate={args.rate}, "
              f"clients={args.clients}, seed={args.seed}"
              f"{scenario_note})")
    try:
        report = plan_deployment(
            trace_path, policy=args.policy, slo=args.slo,
            edge_counts=edge_counts, bandwidths_bps=bandwidths,
            max_connections=args.max_connections, failures=failures,
            step=args.step, jobs=args.jobs)
    except CdnError as exc:
        print(f"plan error: {exc}", file=sys.stderr)
        return 2
    finally:
        if cleanup is not None:
            cleanup.unlink(missing_ok=True)

    print(f"swept {len(report.outcomes)} deployments "
          f"(policy={report.policy}, slo={report.slo:g})")
    print(f"{'edges':>6} {'bandwidth':>14} {'requests':>9} "
          f"{'rejected':>9} {'rate':>8} {'reassigned':>10}")
    for o in report.outcomes:
        marker = " <- frontier" if o in report.frontier else ""
        print(f"{o.n_edges:>6} {_fmt_bandwidth(o.bandwidth_bps):>14} "
              f"{o.n_requests:>9} {o.n_rejected:>9} "
              f"{o.rejection_rate:>8.4f} {o.n_reassigned:>10}{marker}")
    if args.out is not None:
        args.out.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if report.best is None:
        print(f"no swept deployment meets the {args.slo:g} "
              f"rejection-rate SLO", file=sys.stderr)
        return 1
    best = report.best
    print(f"minimal deployment: {best.n_edges} edge(s) at "
          f"{_fmt_bandwidth(best.bandwidth_bps)} "
          f"(rejection rate {best.rejection_rate:.4f}, "
          f"origin peak {best.origin_peak_streams} streams)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .core.validate import compare_workloads

    reference = Trace.load_npz(args.reference)
    candidate = Trace.load_npz(args.candidate)
    report = compare_workloads(reference, candidate)
    print(f"comparing {args.candidate} against {args.reference}:")
    for line in report.summary_lines():
        print(line)
    ok = report.within(rtol=args.rtol, ks_max=args.ks_max,
                       corr_min=args.corr_min)
    print("verdict:", "FAITHFUL" if ok else "NOT FAITHFUL",
          f"(rtol={args.rtol}, ks_max={args.ks_max}, "
          f"corr_min={args.corr_min})")
    return 0 if ok else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "characterize": _cmd_characterize,
    "calibrate": _cmd_calibrate,
    "generate": _cmd_generate,
    "replay": _cmd_replay,
    "experiments": _cmd_experiments,
    "conform": _cmd_conform,
    "figures": _cmd_figures,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "serve-load": _cmd_serve_load,
    "plan": _cmd_plan,
    "validate": _cmd_validate,
}


def _configure_logging(verbosity: int) -> None:
    """Map ``-v`` counts onto stdlib logging levels.

    0 keeps the library silent (WARNING), 1 shows shard/chunk dispatch
    and merge timings (INFO), 2+ adds per-task completion detail (DEBUG).
    """
    if verbosity <= 0:
        level = logging.WARNING
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.DEBUG
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(name)s %(levelname)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
