"""Traced peak and retained memory of each stage of a CSV cross-device run.

Usage (from the repository root):

    PYTHONPATH=src python tools/stage_memory.py

Writes a CSV of 16 Gaussian classes of 1,000 rows and 32 features (5
decimals, label last, seed 1) and runs a 30-round supervised Dirichlet run
on it: 100 clients, 20 per round, encoder (32, 64, 32) with a 16-class
head, batch 32, ldawa_loss, a 30-epoch probe. Each stage runs under ``tracemalloc``:
``build_datasets`` (the CSV load and the train/test split), ``partition``,
the runner (``FederatedRunner`` and its initial state), the training rounds
(every round but the last, which is the one that probes) and the probe
(``linear_probe`` on the global after those rounds, as the last round calls
it). Prints one line per stage: the traced peak above the stage's start and
the size it leaves allocated, in MB.
"""

from __future__ import annotations

import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from fedsim.config import parse_config
from fedsim.engine import FederatedRunner, build_datasets
from fedsim.evaluation import linear_probe
from fedsim.partition import partition

CLASSES, ROWS_PER_CLASS, FEATURES = 16, 1000, 32
SEED, ROUNDS = 1, 30  # the last round is the one that probes


def write_csv(path: Path, seed: int) -> None:
    """Gaussian classes around random means at radius 3, rows shuffled; the last column is the label."""
    rng = np.random.default_rng([seed, 0x57A])
    means = rng.normal(size=(CLASSES, FEATURES))
    means *= 3.0 / np.linalg.norm(means, axis=1, keepdims=True)
    labels = rng.permutation(np.repeat(np.arange(CLASSES), ROWS_PER_CLASS))
    table = np.column_stack([means[labels] + rng.normal(size=(labels.size, FEATURES)), labels])
    header = ",".join([f"f{j}" for j in range(FEATURES)] + ["label"])
    np.savetxt(path, table, fmt=["%.5f"] * FEATURES + ["%d"], delimiter=",", header=header, comments="")


def raw_config(csv_path: Path, seed: int, rounds: int) -> dict:
    return {
        "dataset": {"type": "csv", "path": str(csv_path), "num_classes": CLASSES, "test_fraction": 0.2},
        "partition": {"scheme": "dirichlet", "num_clients": 100, "alpha": 0.1, "seed": seed},
        "clients_per_round": 20,
        "rounds": rounds,
        "trainer": {"method": "supervised", "lr": 0.05, "batch_size": 32, "local_epochs": 1},
        "model": {"encoder_dims": [FEATURES, 64, 32]},
        "aggregation": {"strategy": "ldawa_loss"},
        "evaluation": {"epochs": 30, "milestones": [20, 26], "lr": 0.1, "probe_every": 0},
        "run_seed": seed,
        "output_dir": str(csv_path.parent / "run"),
    }


def measured(name: str, stage):
    """``stage()``'s result, after printing its traced peak and retained size."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    result = stage()
    current, peak = tracemalloc.get_traced_memory()
    print(f"stage {name} peak_mb {(peak - start) / 1e6:.2f} retained_mb {(current - start) / 1e6:.2f}")
    return result


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "train.csv"
        write_csv(csv_path, SEED)
        cfg = parse_config(raw_config(csv_path, SEED, ROUNDS))
        tracemalloc.start()
        train_ds, test_ds = measured("build_datasets", lambda: build_datasets(cfg))
        parts = measured("partition", lambda: partition(train_ds, cfg.partition))

        def start():
            runner = FederatedRunner(cfg, train_ds, parts, test_ds)
            return runner, runner.initial_state()

        runner, state = measured("runner", start)

        def rounds(state=state):
            for _ in range(ROUNDS - 1):
                state = runner.run_round(state)
            return state

        state = measured("rounds", rounds)
        measured("probe", lambda: linear_probe(state.global_params, cfg.model, train_ds, test_ds, cfg.evaluation,
                                               cfg.evaluation.label_fractions[:1]))
        tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
