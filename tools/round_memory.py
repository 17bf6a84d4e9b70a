"""Minor page faults and tracemalloc peak of each steady-state round of the desk-scale SimCLR run.

Usage (from the repository root):

    PYTHONPATH=src python tools/round_memory.py

Builds the acceptance suite's desk-scale fixture (fedavg, 10 clients,
SimCLR, batch 16, seed 1) and runs its rounds through one
``FederatedRunner``. After 2 warm-up rounds, each of the next 20 rounds is
measured twice: once for the minor faults the process takes
(``ru_minflt``) and once, on a fresh runner at the same point, under
``tracemalloc`` for the peak traced allocation above the round's start.
The final round, which runs the linear probe, is not measured. Prints one
line per measured round and then the medians, in KiB for the peak.
"""

from __future__ import annotations

import copy
import resource
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from artifact_hashes import desk_scale  # noqa: E402

from fedsim.config import parse_config  # noqa: E402
from fedsim.engine import FederatedRunner, build_datasets  # noqa: E402
from fedsim.partition import partition  # noqa: E402

SEED, ROUNDS, WARMUP = 1, 20, 2  # WARMUP rounds run before the ROUNDS measured ones


def runner_at(cfg, warmup: int):
    """A runner and its state after ``warmup`` rounds."""
    train_ds, test_ds = build_datasets(cfg)
    runner = FederatedRunner(cfg, train_ds, partition(train_ds, cfg.partition), test_ds)
    state = runner.initial_state()
    for _ in range(warmup):
        state = runner.run_round(state)
    return runner, state


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        raw = dict(desk_scale("fedavg", SEED), output_dir=tmp)
        raw["rounds"] = WARMUP + ROUNDS + 1  # the last round, which probes, is not measured
        cfg = parse_config(copy.deepcopy(raw))

        runner, state = runner_at(cfg, WARMUP)
        faults = []
        for _ in range(ROUNDS):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            state = runner.run_round(state)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

        runner, state = runner_at(cfg, WARMUP)
        peaks = []
        tracemalloc.start()
        for _ in range(ROUNDS):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            state = runner.run_round(state)
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / 1024)
        tracemalloc.stop()
    for r, (f, p) in enumerate(zip(faults, peaks), start=WARMUP):
        print(f"round {r} ru_minflt {f} tracemalloc_peak_kib {p:.1f}")
    print(f"median ru_minflt {statistics.median(faults)} tracemalloc_peak_kib {statistics.median(peaks):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
