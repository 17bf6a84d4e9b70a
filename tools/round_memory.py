"""Minor page faults and tracemalloc peak of each steady-state round of the desk-scale SimCLR run.

Usage (from the repository root):

    PYTHONPATH=src python tools/round_memory.py [--seed N] [--rounds N] [--warmup N]

Builds the acceptance suite's desk-scale fixture (fedavg, 10 clients,
SimCLR, batch 16) and runs its rounds through one ``FederatedRunner``.
After ``--warmup`` rounds, each round is timed twice: once for the minor
faults the process takes (``ru_minflt``) and once, on a fresh runner at
the same point, under ``tracemalloc`` for the peak traced allocation above
the round's start. The final round, which runs the linear probe, is not
measured. Prints one line per measured round and then the medians, in KiB
for the peak.
"""

from __future__ import annotations

import argparse
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


def runner_at(cfg, warmup: int):
    """A runner and its state after ``warmup`` rounds."""
    train_ds, test_ds = build_datasets(cfg)
    runner = FederatedRunner(cfg, train_ds, partition(train_ds, cfg.partition), test_ds)
    state = runner.initial_state()
    for _ in range(warmup):
        state = runner.run_round(state)
    return runner, state


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=20, help="rounds measured")
    ap.add_argument("--warmup", type=int, default=2, help="rounds run before measuring")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        raw = dict(desk_scale("fedavg", args.seed), output_dir=tmp)
        raw["rounds"] = args.warmup + args.rounds + 1  # the last round, which probes, is not measured
        cfg = parse_config(copy.deepcopy(raw))

        runner, state = runner_at(cfg, args.warmup)
        faults = []
        for _ in range(args.rounds):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            state = runner.run_round(state)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

        runner, state = runner_at(cfg, args.warmup)
        peaks = []
        tracemalloc.start()
        for _ in range(args.rounds):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            state = runner.run_round(state)
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / 1024)
        tracemalloc.stop()
    for r, (f, p) in enumerate(zip(faults, peaks), start=args.warmup):
        print(f"round {r} ru_minflt {f} tracemalloc_peak_kib {p:.1f}")
    print(f"median ru_minflt {statistics.median(faults)} tracemalloc_peak_kib {statistics.median(peaks):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
