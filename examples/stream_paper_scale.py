#!/usr/bin/env python3
"""Bounded-memory streaming: generate, sessionize and resume in one pass.

The batch pipeline materializes the whole transfer table before it can
sessionize or write a log; at the paper's scale (28 days, millions of
transfers) that is hundreds of megabytes.  ``repro.stream`` instead
k-way-merges the generation plan's seed blocks into bounded
time-ordered batches and pushes them through an online sessionizer and
an incremental WMS log writer, keeping only open-session state and a
small reorder buffer resident.  This example exercises the contract:

1. Stream a workload to a WMS log and verify the bytes are identical
   to the batch writer's, and the finalized sessions identical to the
   batch sessionizer's.
2. Interrupt a checkpointed run partway, resume it, and verify the
   resumed artifacts are bit-for-bit the same.
3. Characterize the streamed log in checkpointed, resumed legs
   across two worker processes.

The default scale runs in seconds; pass ``--days 28 --rate 1.4`` for a
true paper-scale run.

Run:  PYTHONPATH=src python examples/stream_paper_scale.py
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro import LiveWorkloadModel
from repro.core.sessionizer import sessionize
from repro.parallel import characterize_logs, generate_sharded
from repro.stream import run_streaming_generation
from repro.trace.wms_log import write_wms_log


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=float, default=1.0)
    parser.add_argument("--rate", type=float, default=0.02)
    parser.add_argument("--clients", type=int, default=1_000)
    parser.add_argument("--seed", type=int, default=2002)
    args = parser.parse_args()

    model = LiveWorkloadModel.paper_defaults(mean_session_rate=args.rate,
                                             n_clients=args.clients)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        print("== 1. streaming matches the batch pipeline exactly ==")
        workload = generate_sharded(model, args.days, seed=args.seed)
        batch_log = root / "batch.log"
        write_wms_log(workload.trace, batch_log)

        stream_log = root / "stream.log"
        result = run_streaming_generation(model, args.days, seed=args.seed,
                                          log_path=stream_log)
        client, start, end, count = sessionize(workload.trace).session_columns()
        same_log = stream_log.read_bytes() == batch_log.read_bytes()
        same_sessions = (
            np.array_equal(result.sessions.client_index, client)
            and np.array_equal(result.sessions.start, start)
            and np.array_equal(result.sessions.end, end)
            and np.array_equal(result.sessions.n_transfers, count)
        )
        print(f"   {result.n_transfers} transfers, "
              f"{result.n_sessions} sessions streamed")
        print(f"   log bytes identical:  {same_log}")
        print(f"   sessions identical:   {same_sessions}")
        print(f"   peak in-flight state: {result.peak_open_sessions} open "
              f"sessions, {result.peak_log_buffered} buffered log entries")
        assert same_log and same_sessions

        print("== 2. kill-and-resume is bit-transparent ==")
        resumed_log = root / "resumed.log"
        checkpoint = root / "ck.npz"
        legs = 0
        while True:
            leg = run_streaming_generation(
                model, args.days, seed=args.seed, log_path=resumed_log,
                checkpoint_path=checkpoint, resume=True, max_blocks=17)
            legs += 1
            if leg.completed:
                break
        same = resumed_log.read_bytes() == batch_log.read_bytes()
        print(f"   completed in {legs} interrupted legs")
        print(f"   log bytes identical:  {same}")
        assert same

        print("== 3. resumable characterization ==")
        ck = root / "characterize.npz"
        summary = None
        while summary is None:
            summary = characterize_logs(
                stream_log, jobs=2, checkpoint_path=ck, resume=True,
                chunk_bytes=256 * 1024, max_chunks=2)
        print(f"   {summary.n_entries} entries from "
              f"{summary.n_clients} clients, "
              f"length mu {summary.length_log_mu:.6f}")
        assert summary.n_entries == result.n_entries


if __name__ == "__main__":
    main()
