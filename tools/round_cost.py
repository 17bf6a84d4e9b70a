"""Wall time of a CSV cross-device run's training rounds, per round and per training group.

Usage (from the repository root):

    PYTHONPATH=src python tools/round_cost.py

Runs the config of ``tools/stage_memory.py`` (30 supervised rounds of 20 of
100 Dirichlet clients, encoder (32, 64, 32) with a 16-class head, batch 32)
through ``FederatedRunner.run_round``, every round but the last, which is the
one that probes. Each of 5 repeats starts from a fresh runner, built
untimed. Prints the best wall time of the rounds, that time per round and per
group, and the sha256 of the final global parameters, which is the same in
every repeat. A group is the clients that take one step with one batch size:
``train_clients`` runs the forward pass, loss, backward pass and SGD step once
per group, so a round of 20 clients takes as many groups as there are
distinct batch sizes at each of its steps. The rounds also aggregate, so the
per-group time spreads that over the groups. Public API only.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import time
from pathlib import Path

from stage_memory import ROUNDS, SEED, raw_config, write_csv

from fedsim.config import parse_config
from fedsim.engine import FederatedRunner, build_datasets, sample_clients
from fedsim.partition import partition

REPEATS = 5


def groups(cfg, runner: FederatedRunner, rounds: int) -> int:
    """The training groups of the first ``rounds`` rounds: at each step, the distinct batch sizes of its clients."""
    b, total = cfg.trainer.batch_size, 0
    for r in range(rounds):
        sizes = [len(runner.client_data[cid]) for cid in sample_clients(cfg.total_clients, cfg.clients_per_round, r,
                                                                        cfg.run_seed)]
        steps = -(-max(sizes) // b)
        total += sum(len({min(b, n - t * b) for n in sizes if n > t * b}) for t in range(steps))
    return total * max(cfg.trainer.local_epochs, 1)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "train.csv"
        write_csv(csv_path, SEED)
        cfg = parse_config(raw_config(csv_path, SEED, ROUNDS))
        train_ds, test_ds = build_datasets(cfg)
        parts = partition(train_ds, cfg.partition)
        times, digests = [], set()
        for _ in range(REPEATS):
            runner = FederatedRunner(cfg, train_ds, parts, test_ds)
            state = runner.initial_state()
            start = time.perf_counter()
            for _ in range(ROUNDS - 1):
                state = runner.run_round(state)
            times.append(time.perf_counter() - start)
            digests.add(hashlib.sha256(state.global_params.vector.tobytes()).hexdigest())
        n_groups = groups(cfg, runner, ROUNDS - 1)
    best = min(times)
    print(f"rounds {ROUNDS - 1} best_of_{REPEATS}_ms {best * 1e3:.1f} ms_per_round {best / (ROUNDS - 1) * 1e3:.2f} "
          f"groups {n_groups} us_per_group {best / n_groups * 1e6:.1f} global_sha256 {' '.join(sorted(digests))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
