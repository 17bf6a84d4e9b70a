"""The benchmark's three workloads, their inputs, and the checks on their outputs.

Every workload calls fedsim only through its public API and reaches each
function through its module (``engine.write_rounds_csv``), so an installed
tracer sees the call. Checks run with the tracer paused.

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fedsim import aggregation, cli, config, engine, learners, params

from checkpoint_io import read_checkpoint
from reference import reference_aggregate


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class UnitResult:
    """One timed unit of work: a training run, or a pass over the strategies."""

    config: int
    wall_s: float  # scaled by clock.Clock, like round_ms and agg_ms
    raw_wall_s: float
    round_ms: list[float]  # per round; per aggregate call on offline_aggregate
    raw_round_ms: list[float]
    agg_ms: list[float]
    steps: int
    attempted: int
    failed: int
    hashes: dict[str, str] = field(default_factory=dict)
    probe_acc: float | None = None


# ---------------------------------------------------------------------------
# run workloads: full training runs through the engine's round loop
# ---------------------------------------------------------------------------


@dataclass
class RunSetup:
    cfg: object
    runner: object
    state: object
    out: Path
    steps: int = 0


def local_steps(cfg, parts) -> int:
    """SGD steps one run takes, from partition sizes, batch size and sampling."""
    t = cfg.trainer
    per_client = []
    for part in parts:
        n = len(part)
        batches = sum(
            1
            for start in range(0, n, t.batch_size)
            if not (t.is_ssl and min(t.batch_size, n - start) < 2)
        )
        per_client.append(batches * t.local_epochs)
    return sum(
        per_client[c]
        for r in range(cfg.rounds)
        for c in engine.sample_clients(cfg.total_clients, cfg.clients_per_round, r, cfg.run_seed)
    )


class RunWorkload:
    """Runs experiment configs end to end: set-up, round loop, artifacts."""

    def __init__(self, work: Path, seed: int, tracer, clock, src: Path) -> None:
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.clock = clock
        self.raw = self.raw_configs()
        self.first_hashes: dict[int, dict[str, str]] = {}

    def prepare(self) -> None:
        """Write input files (untimed)."""

    def raw_configs(self) -> list[dict]:
        raise NotImplementedError

    @property
    def n_configs(self) -> int:
        return len(self.raw)

    @property
    def trace_units(self) -> int:
        return len(self.raw)

    def setup(self, i: int) -> tuple[RunSetup, float]:
        """Config parse, dataset build, partition, runner and initial model."""
        out = self.work / f"run{i}"
        out.mkdir(exist_ok=True)
        with self.tracer.span("bench.setup"):
            t0 = time.perf_counter()
            cfg = config.parse_config(dict(self.raw[i], output_dir=str(out)))
            train_ds, test_ds = engine.build_datasets(cfg)
            parts = engine.partition(train_ds, cfg.partition)
            runner = engine.FederatedRunner(cfg, train_ds, parts, test_ds)
            state = runner.initial_state()
            elapsed = time.perf_counter() - t0
        with self.tracer.paused():
            steps = local_steps(cfg, parts)
        return RunSetup(cfg, runner, state, out, steps), elapsed

    def unit(self, i: int, s: RunSetup) -> UnitResult:
        cfg, runner, out = s.cfg, s.runner, s.out
        round_ms, raw_round_ms, agg_ms = [], [], []
        with self.tracer.span("bench.unit"):
            t0 = time.perf_counter()
            params.save_checkpoint(s.state.global_params, out / "checkpoint_init.bin")
            raw = time.perf_counter() - t0
            wall, raw_wall = raw * self.clock.factor(), raw
            state = s.state
            for _ in range(cfg.rounds):
                t0 = time.perf_counter()
                state = runner.run_round(state)
                raw = time.perf_counter() - t0
                f = self.clock.factor()
                round_ms.append(raw * f * 1e3)
                raw_round_ms.append(raw * 1e3)
                agg_ms.append(state.history[-1].agg_time_ms * f)
                wall += raw * f
                raw_wall += raw
            t0 = time.perf_counter()
            engine.write_rounds_csv(state.history, cfg.total_clients, out / "rounds.csv", cfg.record_timings)
            params.save_checkpoint(state.global_params, out / "checkpoint_final.bin")
            raw = time.perf_counter() - t0
            wall += raw * self.clock.factor()
            raw_wall += raw
        with self.tracer.paused():
            problems = check_run(cfg, out, len(runner.test_ds))
            hashes = {name: sha256(out / name) for name in ("rounds.csv", "checkpoint_final.bin")}
            first = self.first_hashes.setdefault(i, hashes)
            if hashes != first:
                problems.append(f"config {i}: artifacts differ from its first run")
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        return UnitResult(
            config=i,
            wall_s=wall,
            raw_wall_s=raw_wall,
            round_ms=round_ms,
            raw_round_ms=raw_round_ms,
            agg_ms=agg_ms,
            steps=s.steps,
            attempted=1,
            failed=1 if problems else 0,
            hashes={f"config{i}/{k}": v for k, v in hashes.items()},
            probe_acc=state.history[-1].probe_acc,
        )

    def final_check(self) -> tuple[int, int, dict[str, str]]:
        """Re-run config 0 through ``run_experiment``; its bytes must match the loop's."""
        with self.tracer.paused():
            out = self.work / "run_experiment"
            cfg = config.parse_config(dict(self.raw[0], output_dir=str(out)))
            result = engine.run_experiment(cfg)
            hashes = {
                "rounds.csv": sha256(result.rounds_csv),
                "checkpoint_final.bin": sha256(result.final_checkpoint),
            }
        failed = int(hashes != self.first_hashes.get(0))
        if failed:
            print("check failed: run_experiment output differs from the round loop's", file=sys.stderr)
        return 1, failed, {f"run_experiment/{k}": v for k, v in hashes.items()}


def chance_floor(num_classes: int, n_test: int) -> float:
    """Chance accuracy plus three binomial standard deviations."""
    p = 1.0 / num_classes
    return p + 3.0 * math.sqrt(p * (1 - p) / n_test)


def check_run(cfg, out: Path, n_test: int) -> list[str]:
    """rounds.csv and the final checkpoint of one run; returns the problems found."""
    problems = []
    with open(out / "rounds.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = list(engine.ROUNDS_CSV_PREFIX) + [f"client_{i}_delta" for i in range(cfg.total_clients)]
    if not rows or rows[0] != header:
        return ["rounds.csv header does not match the schema"]
    body = rows[1:]
    if len(body) != cfg.rounds:
        problems.append(f"rounds.csv has {len(body)} rows for {cfg.rounds} rounds")
    probe_col = header.index("probe_acc")
    for r, row in enumerate(body):
        if row[0] != str(r):
            problems.append(f"rounds.csv row {r} is labelled round {row[0]}")
        for col, cell in enumerate(row):
            if col in (0, 1):
                continue
            if cell == "":
                if col == probe_col and r == len(body) - 1:
                    problems.append("final round has no probe accuracy")
                elif col < len(engine.ROUNDS_CSV_PREFIX) and col != probe_col:
                    problems.append(f"rounds.csv row {r}: empty {header[col]}")
                continue
            if not math.isfinite(float(cell)):
                problems.append(f"rounds.csv row {r}: {header[col]} = {cell}")
    if body and body[-1][probe_col]:
        acc = float(body[-1][probe_col])
        floor = chance_floor(cfg.dataset.num_classes, n_test)
        if not acc > floor:
            problems.append(f"probe accuracy {acc:.4f} does not beat chance floor {floor:.4f}")
    layers = read_checkpoint(out / "checkpoint_final.bin")
    if [name for name, _ in layers] != learners.layer_names(cfg.model):
        problems.append("checkpoint layer names differ from layer_names(model)")
    if not all(np.isfinite(values).all() for _, values in layers):
        problems.append("checkpoint holds non-finite values")
    return problems


class SiloSimclr(RunWorkload):
    """The acceptance suite's desk-scale fixture: fedavg and ldawa on three seeds."""

    def raw_configs(self) -> list[dict]:
        return [
            desk_scale_raw(strategy, self.seed + k)
            for k in range(3)
            for strategy in ("fedavg", "ldawa")
        ]


def desk_scale_raw(strategy: str, seed: int, rounds: int = 30) -> dict:
    """Cross-silo single-class SimCLR setup; seed 1 is the acceptance fixture."""
    return {
        "dataset": {
            "type": "blobs",
            "num_classes": 8,
            "samples_per_class": 200,
            "dim": 16,
            "spread": 1.0,
            "seed": seed,
            "test_samples_per_class": 40,
        },
        "partition": {"scheme": "single_class", "num_clients": 10, "seed": seed, "allow_class_reuse": True},
        "clients_per_round": 10,
        "rounds": rounds,
        "trainer": {
            "method": "simclr",
            "temperature": 0.5,
            "lr": 0.1,
            "batch_size": 16,
            "local_epochs": 1,
            "augment_noise_std": 0.3,
            "augment_mask_prob": 0.0,
        },
        "model": {"encoder_dims": [16, 64, 32], "projector_dims": [32, 32]},
        "aggregation": {"strategy": strategy, "warmup_rounds": 2},
        "evaluation": {"epochs": 30, "milestones": [20, 26], "lr": 0.1, "probe_every": 0},
        "run_seed": seed,
        "output_dir": "",
    }


XDEVICE_CLASSES = 16
XDEVICE_ROWS_PER_CLASS = 1000
XDEVICE_FEATURES = 32


class XdeviceSupervised(RunWorkload):
    """Cross-device supervised training on a generated CSV file."""

    def prepare(self) -> None:
        write_class_csv(self.csv_path, self.seed)

    @property
    def csv_path(self) -> Path:
        return self.work / "train.csv"

    def raw_configs(self) -> list[dict]:
        return [
            {
                "dataset": {
                    "type": "csv",
                    "path": str(self.csv_path),
                    "num_classes": XDEVICE_CLASSES,
                    "test_fraction": 0.2,
                },
                "partition": {"scheme": "dirichlet", "num_clients": 100, "alpha": 0.1, "seed": seed},
                "clients_per_round": 20,
                "rounds": 30,
                "trainer": {"method": "supervised", "lr": 0.05, "batch_size": 32, "local_epochs": 1},
                "model": {"encoder_dims": [XDEVICE_FEATURES, 64, 32]},
                "aggregation": {"strategy": "ldawa_loss"},
                "evaluation": {"epochs": 30, "milestones": [20, 26], "lr": 0.1, "probe_every": 0},
                "run_seed": seed,
                "output_dir": "",
            }
            for seed in (self.seed, self.seed + 1, self.seed + 2)
        ]


def write_class_csv(path: Path, seed: int) -> None:
    """Gaussian classes around random means, rows shuffled; last column is the label."""
    rng = np.random.default_rng([seed, 0xC5F])
    means = rng.normal(0.0, 1.0, size=(XDEVICE_CLASSES, XDEVICE_FEATURES))
    means *= 3.0 / np.linalg.norm(means, axis=1, keepdims=True)
    labels = rng.permutation(np.repeat(np.arange(XDEVICE_CLASSES), XDEVICE_ROWS_PER_CLASS))
    feats = means[labels] + rng.normal(0.0, 1.0, size=(labels.size, XDEVICE_FEATURES))
    header = ",".join([f"f{j}" for j in range(XDEVICE_FEATURES)] + ["label"])
    table = np.column_stack([feats, labels])
    np.savetxt(path, table, fmt=["%.5f"] * XDEVICE_FEATURES + ["%d"], delimiter=",", header=header, comments="")


# ---------------------------------------------------------------------------
# offline aggregation through the CLI
# ---------------------------------------------------------------------------

OFFLINE_CLIENTS = 16
# Six tensors, 197,440 parameters: 1.6 MB per checkpoint, ~27 MB for the 17
# checkpoints one call reads.
OFFLINE_MODEL = learners.ModelSpec(encoder_dims=(128, 256, 512), projector_dims=(512, 64))


class OfflineAggregate:
    """``fedsim aggregate`` called in-process, cycling through every strategy."""

    n_configs = 1
    trace_units = 4

    def __init__(self, work: Path, seed: int, tracer, clock, src: Path) -> None:
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.clock = clock
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.strategies = list(aggregation.STRATEGIES)
        # (exit code, output sha256) of every call, per strategy; cold calls included.
        self.call_hashes: dict[str, list[tuple[int, str]]] = {s: [] for s in self.strategies}
        self.cold_calls = 0

    def prepare(self) -> None:
        """Write one global and OFFLINE_CLIENTS client checkpoints plus metadata."""
        rng = np.random.default_rng([self.seed, 0xA66])
        glob = learners.init_params(OFFLINE_MODEL, rng)
        params.save_checkpoint(glob, self.work / "global.bin")
        for k in range(OFFLINE_CLIENTS):
            arrays = {}
            for t in glob.layers:
                scale = rng.uniform(0.5, 1.0)
                noise = rng.uniform(0.1, 2.0) * t.values.std()
                arrays[t.name] = (scale * t.values + noise * rng.normal(size=t.size)).reshape(t.shape)
            params.save_checkpoint(params.ParamSet.from_arrays(arrays), self.client_path(k))
        meta = [
            {"num_samples": int(rng.integers(7, 389)), "train_loss": float(rng.uniform(0.5, 3.0))}
            for _ in range(OFFLINE_CLIENTS)
        ]
        with open(self.work / "meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)

    def client_path(self, k: int) -> Path:
        return self.work / f"client{k:02d}.bin"

    def output_path(self, strategy: str) -> Path:
        return self.work / f"agg_{strategy}.bin"

    def argv(self, strategy: str, output: Path) -> list[str]:
        argv = ["aggregate", "--global", str(self.work / "global.bin")]
        for k in range(OFFLINE_CLIENTS):
            argv += ["--client", str(self.client_path(k))]
        return argv + [
            "--strategy", strategy,
            "--metadata", str(self.work / "meta.json"),
            "--output", str(output),
            "--report", f"{output}.divergence.json",
        ]

    def setup(self, i: int) -> tuple[None, float]:
        """Set-up is the first, cold call: a fresh interpreter runs ``python -m fedsim.cli aggregate``."""
        out = self.work / "cold.bin"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "fedsim.cli", *self.argv("ldawa", out)],
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold call exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        self.call_hashes["ldawa"].append((0, sha256(out)))
        self.cold_calls += 1
        return None, elapsed

    def unit(self, i: int, s) -> UnitResult:
        call_ms, raw_ms, codes = [], [], []
        with self.tracer.span("bench.unit"), contextlib.redirect_stdout(io.StringIO()):
            for strategy in self.strategies:
                t0 = time.perf_counter()
                codes.append(cli.main(self.argv(strategy, self.output_path(strategy))))
                raw = (time.perf_counter() - t0) * 1e3
                call_ms.append(raw * self.clock.factor())
                raw_ms.append(raw)
        with self.tracer.paused():
            for strategy, code in zip(self.strategies, codes):
                digest = sha256(self.output_path(strategy)) if code == 0 else ""
                self.call_hashes[strategy].append((code, digest))
        return UnitResult(
            config=i,
            wall_s=sum(call_ms) / 1e3,
            raw_wall_s=sum(raw_ms) / 1e3,
            round_ms=call_ms,
            raw_round_ms=raw_ms,
            agg_ms=call_ms,
            steps=0,
            attempted=len(codes),
            failed=0,  # settled in final_check, once outputs are compared with the reference
        )

    def final_check(self) -> tuple[int, int, dict[str, str]]:
        """Compare each strategy's output with the numpy reference; count failed calls."""
        failed = 0
        hashes = {}
        with self.tracer.paused():
            glob = read_checkpoint(self.work / "global.bin")
            clients = [read_checkpoint(self.client_path(k)) for k in range(OFFLINE_CLIENTS)]
            with open(self.work / "meta.json", encoding="utf-8") as fh:
                meta = json.load(fh)
            for strategy in self.strategies:
                path = self.output_path(strategy)
                calls = self.call_hashes[strategy]
                good = ""
                if path.exists():
                    err = max_rel_error(read_checkpoint(path), reference_aggregate(strategy, glob, clients, meta))
                    if err <= REFERENCE_RTOL:
                        good = sha256(path)
                    else:
                        print(f"check failed: {strategy} output off the reference by {err:.3e}", file=sys.stderr)
                hashes[f"agg_{strategy}.bin"] = good
                failed += sum(1 for code, digest in calls if code != 0 or digest != good)
        return self.cold_calls, failed, hashes


# Relative to each layer's largest reference magnitude. The reference sums in
# another order than fedsim, so agreement is to rounding, not bit-exact.
REFERENCE_RTOL = 1e-12


def max_rel_error(got, want) -> float:
    if [name for name, _ in got] != [name for name, _ in want]:
        return math.inf
    worst = 0.0
    for (_, g), (_, w) in zip(got, want):
        if g.shape != w.shape:
            return math.inf
        scale = float(np.abs(w).max()) if w.size else 0.0
        diff = float(np.abs(g - w).max()) if w.size else 0.0
        worst = max(worst, diff / scale if scale > 0 else diff)
    return worst


WORKLOADS = {
    "silo_simclr": SiloSimclr,
    "offline_aggregate": OfflineAggregate,
    "xdevice_supervised": XdeviceSupervised,
}
