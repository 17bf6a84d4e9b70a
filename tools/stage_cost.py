"""Traced memory and wall time of the stages of two fixed runs, and of a cold ``fedsim aggregate``.

Usage (from the repository root):

    PYTHONPATH=src python tools/stage_cost.py

Takes no arguments and calls only fedsim's public API. Each run's datasets
and partition are built once.

The CSV cross-device run writes a CSV of 16 Gaussian classes of 1,000 rows
and 32 features (5 decimals, label last, seed 1) and runs a 30-round
supervised Dirichlet run on it: 100 clients, 20 per round, encoder
(32, 64, 32) with a 16-class head, batch 32, ldawa_loss, a 30-epoch probe.
It prints one ``stage`` line per stage, run under ``tracemalloc``: the
traced peak above the stage's start and the size it leaves allocated, in
MB. The stages are ``build_datasets`` (the CSV load and the train/test
split), ``partition``, the runner (``FederatedRunner`` and its initial
state), the training rounds (every round but the last, which probes) and
the probe (``linear_probe`` on the global after those rounds, as the last
round calls it, with the runner alive). Then, untraced, the best of 5 wall
times: of the training rounds, each from a fresh runner built untimed, per
round and per group, with the sha256 of the final global; and of the probe,
per head step (12,800 rows at batch 128 for 30 epochs: 3,000 steps, which
also bear the encoding and the test pass), with its accuracy. A group is
the clients that take one step with one batch size: ``train_clients`` runs
the forward pass, loss, backward pass and SGD step once per group. The
rounds also aggregate, so the per-group time spreads that over the groups.

The desk-scale SimCLR run is the acceptance suite's fixture (fedavg, 10
clients, SimCLR, batch 16, seed 1) through one ``FederatedRunner``. After 2
warm-up rounds, a ``workspace_bytes`` line gives the bytes of the arrays the
runner's ``Workspace`` holds. Each of the next 20 rounds runs under
``tracemalloc``. One ``round`` line each gives its traced peak above the
round's start, in KiB, and a last line their median. The final round, which
probes, is not run.

The cold aggregate writes a global and 16 client checkpoints shaped like
fedbench's ``offline_aggregate`` (encoder 128 -> 256 -> 512, projector
512 -> 64; 197k parameters) and times 9 calls of ``python -m fedsim.cli
aggregate --strategy ldawa``, each a fresh interpreter, as that workload's
``setup_s`` does. The ``cold`` line gives their median and minimum wall time
in ms, the number of fedsim modules one such call imports, and the max RSS
of one more call in MB (``ru_maxrss`` / 1024, as fedbench's
``peak_rss_mb``). A child's ``ru_maxrss`` starts at the peak RSS of the
process that spawned it, and this tool's is larger than a cold call's, so
that call is spawned by a fresh interpreter, which reads it through
``os.wait4``. A second ``cold`` line gives the max RSS, read the same way,
of one call over 4x the clients (64 checkpoints): ``fedsim aggregate``
reads its clients a chunk at a time, so the two should read alike. The
calls run the fedsim that this tool imported: their ``PYTHONPATH`` is its
source root.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from artifact_hashes import desk_scale

import fedsim
from fedsim.config import parse_config
from fedsim.engine import FederatedRunner, build_datasets, sample_clients
from fedsim.evaluation import linear_probe
from fedsim.learners import ModelSpec, init_params
from fedsim.params import ParamSet, save_checkpoint
from fedsim.partition import partition

CLASSES, ROWS_PER_CLASS, FEATURES = 16, 1000, 32
SEED, ROUNDS = 1, 30  # the CSV run's last round is the one that probes
REPEATS = 5  # timed calls of the CSV run's training rounds and of its probe
WARMUP, TRACED = 2, 20  # the desk-scale run's rounds before tracing and traced
COLD_CALLS, COLD_CLIENTS = 9, 16  # the cold aggregate's timed calls and client checkpoints
COLD_SCALE = 4  # the second max-RSS call reads this many times the clients
COLD_MODEL = ModelSpec(encoder_dims=(128, 256, 512), projector_dims=(512, 64))  # offline_aggregate's model


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


def best_of(run, prepare=lambda: ()):
    """The best wall time of REPEATS calls ``run(*prepare())``, each prepared untimed, and their results."""
    times, results = [], []
    for _ in range(REPEATS):
        args = prepare()
        start = time.perf_counter()
        results.append(run(*args))
        times.append(time.perf_counter() - start)
    return min(times), results


def groups(cfg, runner: FederatedRunner, rounds: int) -> int:
    """The training groups of the first ``rounds`` rounds: at each step, the distinct batch sizes of its clients."""
    b, total = cfg.trainer.batch_size, 0
    for r in range(rounds):
        sizes = [len(runner.client_data[cid]) for cid in sample_clients(cfg.total_clients, cfg.clients_per_round, r,
                                                                        cfg.run_seed)]
        steps = -(-max(sizes) // b)
        total += sum(len({min(b, n - t * b) for n in sizes if n > t * b}) for t in range(steps))
    return total * max(cfg.trainer.local_epochs, 1)


def csv_run(tmp: Path) -> None:
    csv_path = tmp / "train.csv"
    write_csv(csv_path, SEED)
    cfg = parse_config(raw_config(csv_path, SEED, ROUNDS))
    tracemalloc.start()
    train_ds, test_ds = measured("build_datasets", lambda: build_datasets(cfg))
    parts = measured("partition", lambda: partition(train_ds, cfg.partition))

    def start():
        runner = FederatedRunner(cfg, train_ds, parts, test_ds)
        return runner, runner.initial_state()

    def rounds(runner, state):
        for _ in range(ROUNDS - 1):
            state = runner.run_round(state)
        return state

    runner, state = measured("runner", start)
    state = measured("rounds", lambda: rounds(runner, state))

    def probe():
        return linear_probe(state.global_params, cfg.model, train_ds, test_ds, cfg.evaluation,
                            cfg.evaluation.label_fractions[:1])

    measured("probe", probe)
    tracemalloc.stop()

    best, states = best_of(rounds, start)
    digests = {hashlib.sha256(s.global_params.vector.tobytes()).hexdigest() for s in states}
    n_groups = groups(cfg, runner, ROUNDS - 1)
    print(f"rounds {ROUNDS - 1} best_of_{REPEATS}_ms {best * 1e3:.1f} ms_per_round {best / (ROUNDS - 1) * 1e3:.2f} "
          f"groups {n_groups} us_per_group {best / n_groups * 1e6:.1f} global_sha256 {' '.join(sorted(digests))}")

    best, results = best_of(probe)
    accs = {a for accuracies in results for a in accuracies}
    steps = cfg.evaluation.epochs * math.ceil(len(train_ds) / cfg.evaluation.batch_size)
    print(f"probe best_of_{REPEATS}_ms {best * 1e3:.1f} us_per_head_step {best / steps * 1e6:.1f} "
          f"steps {steps} accuracy {' '.join(f'{a:.4f}' for a in sorted(accs))}")


def workspace_bytes(workspace) -> int:
    """The bytes of the arrays ``workspace`` holds, in lists and tuples too; its dicts hold views of them."""
    held = [a for v in vars(workspace).values() for a in (v if isinstance(v, (list, tuple)) else [v])]
    return sum(a.nbytes for a in held if isinstance(a, np.ndarray))


def desk_scale_run(tmp: Path) -> None:
    raw = dict(desk_scale("fedavg", SEED), rounds=WARMUP + TRACED + 1, output_dir=str(tmp / "desk_scale"))
    cfg = parse_config(raw)
    train_ds, test_ds = build_datasets(cfg)
    runner = FederatedRunner(cfg, train_ds, partition(train_ds, cfg.partition), test_ds)
    state = runner.initial_state()
    for _ in range(WARMUP):
        state = runner.run_round(state)
    print(f"workspace_bytes {workspace_bytes(runner.workspace)}")
    peaks = []
    tracemalloc.start()
    for _ in range(TRACED):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        state = runner.run_round(state)
        peaks.append((tracemalloc.get_traced_memory()[1] - start) / 1024)
    tracemalloc.stop()
    for r, p in enumerate(peaks, start=WARMUP):
        print(f"round {r} tracemalloc_peak_kib {p:.1f}")
    print(f"median tracemalloc_peak_kib {statistics.median(peaks):.1f}")


def cold_aggregate(tmp: Path) -> None:
    rng = np.random.default_rng([SEED, 0xC01D])
    glob = init_params(COLD_MODEL, rng)
    save_checkpoint(glob, tmp / "global.bin")
    base = ["aggregate", "--global", str(tmp / "global.bin"), "--strategy", "ldawa", "--output", str(tmp / "cold.bin")]
    clients = []
    for k in range(COLD_CLIENTS * COLD_SCALE):
        vector = glob.vector * rng.uniform(0.5, 1.0) + rng.normal(scale=0.05, size=glob.num_params)
        save_checkpoint(ParamSet(vector, glob.layout), tmp / f"client{k:02d}.bin")
        clients += ["--client", str(tmp / f"client{k:02d}.bin")]
    argv = base + clients[: 2 * COLD_CLIENTS]  # two entries per client: the first COLD_CLIENTS
    env = dict(os.environ, PYTHONPATH=str(Path(fedsim.__file__).resolve().parent.parent))
    times = []
    for _ in range(COLD_CALLS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "fedsim.cli", *argv], env=env, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    count = ("import sys; from fedsim.cli import main; main(sys.argv[1:]); "
             "print(sum(m.split('.')[0] == 'fedsim' for m in sys.modules))")
    modules = subprocess.run([sys.executable, "-c", count, *argv], env=env, capture_output=True, text=True, check=True)
    launch = ("import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
              "_, status, usage = os.wait4(child.pid, 0); print(usage.ru_maxrss); "
              "sys.exit(os.waitstatus_to_exitcode(status))")

    def max_rss_mb(args) -> float:
        launched = subprocess.run([sys.executable, "-c", launch, sys.executable, "-m", "fedsim.cli", *args], env=env,
                                  capture_output=True, text=True, check=True)
        return int(launched.stdout) / 1024

    print(f"cold aggregate_calls {COLD_CALLS} median_ms {statistics.median(times) * 1e3:.1f} "
          f"min_ms {min(times) * 1e3:.1f} clients {COLD_CLIENTS} fedsim_modules {modules.stdout.split()[-1]} "
          f"max_rss_mb {max_rss_mb(argv):.1f}")
    print(f"cold clients {COLD_CLIENTS * COLD_SCALE} max_rss_mb {max_rss_mb(base + clients):.1f}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        csv_run(Path(tmp))
        desk_scale_run(Path(tmp))
        cold_aggregate(Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
