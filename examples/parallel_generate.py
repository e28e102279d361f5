#!/usr/bin/env python3
"""Scaling out: pooled generation and map-reduce characterization.

Paper-scale runs (28 days, millions of transfers) outgrow a single
process.  This example exercises the ``repro.parallel`` subsystem and its
determinism contract:

1. Generate the same workload serially and across 2 worker processes
   (one task per canonical block); verify the traces are bit-for-bit
   identical.
2. Write the workload to daily WMS log harvests and characterize them
   with the map-reduce reader, again checking the parallel result equals
   the single-process one exactly.

Run:  PYTHONPATH=src python examples/parallel_generate.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import LiveWorkloadGenerator, LiveWorkloadModel
from repro.parallel import characterize_logs
from repro.trace.streaming import StreamingCharacterizer
from repro.trace.transform import daily_slices
from repro.trace.wms_log import write_wms_log


def main() -> None:
    model = LiveWorkloadModel.paper_defaults(mean_session_rate=0.05,
                                             n_clients=2_000)

    print("== 1. pooled generation is bit-identical to serial ==")
    generator = LiveWorkloadGenerator(model)
    t0 = time.perf_counter()
    serial = generator.generate(days=2, seed=2002)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = generator.generate(days=2, seed=2002, jobs=2)
    pooled_s = time.perf_counter() - t0

    identical = (
        np.array_equal(serial.trace.start, pooled.trace.start)
        and np.array_equal(serial.trace.duration, pooled.trace.duration)
        and np.array_equal(serial.trace.client_index,
                           pooled.trace.client_index)
        and np.array_equal(serial.transfer_session, pooled.transfer_session)
    )
    print(f"   serial:              {serial.trace.n_transfers} transfers "
          f"in {serial_s:.2f}s")
    print(f"   jobs=2:              {pooled.trace.n_transfers} transfers "
          f"in {pooled_s:.2f}s")
    print(f"   bit-identical:       {identical}")
    assert identical

    print("== 2. map-reduce log characterization ==")
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for day, harvest in enumerate(daily_slices(serial.trace), start=1):
            path = Path(tmp) / f"harvest-{day:02d}.log"
            write_wms_log(harvest, path)
            paths.append(path)
        print(f"   wrote {len(paths)} daily harvests")

        one_pass = StreamingCharacterizer()
        for path in paths:
            with open(path, encoding="ascii") as stream:
                one_pass.consume(stream)
        expected = one_pass.summary()

        parallel = characterize_logs(paths, jobs=2, chunk_bytes=256 * 1024)
        print(f"   single process: {expected.n_entries} entries, "
              f"length mu {expected.length_log_mu:.6f}")
        print(f"   jobs=2:         {parallel.n_entries} entries, "
              f"length mu {parallel.length_log_mu:.6f}")
        match = (parallel.n_entries == expected.n_entries
                 and parallel.length_log_mu == expected.length_log_mu
                 and parallel.length_log_sigma == expected.length_log_sigma
                 and parallel.bytes_served == expected.bytes_served)
        print(f"   exact match:    {match}")
        assert match


if __name__ == "__main__":
    main()
