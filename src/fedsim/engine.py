"""Federated round orchestration: sampling, local training, aggregation, artifacts.

Rounds run one after another. A round trains its K sampled clients together
as the rows of one (K, P) weight block (``learners.train_clients``): at each
local step, the clients that share a batch size form one group and take the
step in one batched pass, and a client whose epoch has ended sits out. Every
client session owns an RNG stream derived from (run_seed, round, client_id),
each row is bit-identical to training that client alone, and client
contributions are aggregated in ascending client-id order, so a run is
bit-identical given its config.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .aggregation import AggregationSpec, ClientUpdates, aggregate, effective_strategy
from .config import BlobsConfig, CsvConfig, ExperimentConfig, resolved_dict
from .divergence import Divergence
from .evaluation import linear_probe
from .learners import ClientTrainingError, Workspace, init_params, projector_start, train_clients
from .params import ParamSet, save_checkpoint
from .partition import (
    ROUNDS_CSV_PREFIX,
    Dataset,
    load_csv,
    make_blobs,
    partition,
    save_partition_manifest,
    split_train_test,
)

logger = logging.getLogger(__name__)

# Purpose tags keeping the derived RNG streams disjoint.
_TAG_INIT = 1
_TAG_SAMPLE = 2
_TAG_TRAIN = 3


def derived_rng(run_seed: int, *parts: int) -> np.random.Generator:
    """Independent generator for a (seed, purpose, ...) coordinate."""
    return np.random.default_rng([int(run_seed)] + [int(p) for p in parts])


def sample_clients(total_clients: int, per_round: int, round_index: int, run_seed: int) -> list[int]:
    """Uniformly sample ``per_round`` distinct ids, deterministic per (seed, round)."""
    if not 1 <= per_round <= total_clients:
        raise ValueError(
            f"cannot sample {per_round} of {total_clients} clients"
        )
    rng = derived_rng(run_seed, _TAG_SAMPLE, round_index)
    ids = rng.choice(total_clients, size=per_round, replace=False)
    return sorted(int(i) for i in ids)


def fedu_start(
    spec: AggregationSpec, global_params: ParamSet, previous: ParamSet | None
) -> tuple[ParamSet, float | None]:
    """A FedU client's starting model and its backbone distance (None for a first-time client or FedU off).

    A backbone (the values before ``learners.projector_start``) beyond ``spec.fedu_threshold`` of the global's, in
    Euclidean norm, starts from the global backbone and its ``previous`` projector; else (ties too) from the global.
    """
    if previous is None or spec.fedu_threshold is None:
        return global_params, None
    global_params.require_compatible(previous)
    n = projector_start(global_params.layout)
    distance = float(np.linalg.norm(global_params.vector[:n] - previous.vector[:n]))
    if distance <= spec.fedu_threshold:
        return global_params, distance
    return ParamSet(np.concatenate([global_params.vector[:n], previous.vector[n:]]), global_params.layout), distance


@dataclass
class RoundRecord:
    """Per-round telemetry; ``div`` is the round's divergence table from :func:`aggregate`."""

    round_index: int
    strategy_effective: str
    div: Divergence
    mean_local_loss: float
    agg_time_ms: float
    probe_acc: float | None
    fedu_adopted: dict[int, bool] = field(default_factory=dict)


@dataclass
class RunState:
    """Mutable state threaded through the round loop; the next round's index is ``len(history)``."""

    global_params: ParamSet
    history: list[RoundRecord] = field(default_factory=list)
    client_models: dict[int, ParamSet] = field(default_factory=dict)


# (round index, [(client_id, data, init), ...]) -> the round's clients as one block, in order.
TrainFn = Callable[[int, list[tuple[int, Dataset, ParamSet]]], ClientUpdates]


def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Training and held-out test datasets from the dataset config."""
    ds = cfg.dataset
    if isinstance(ds, BlobsConfig):
        train = make_blobs(ds.num_classes, ds.samples_per_class, ds.dim, ds.spread, ds.seed, ds.separation)
        test = make_blobs(
            ds.num_classes, ds.test_samples_per_class, ds.dim, ds.spread, ds.seed + 1, ds.separation
        )
        return train, test
    full = load_csv(ds.path, num_classes=ds.num_classes)
    if ds.test_path is not None:
        return full, load_csv(ds.test_path, num_classes=ds.num_classes)
    return split_train_test(full, ds.test_fraction, cfg.run_seed)


class FederatedRunner:
    """Drives the round loop for one experiment.

    ``train_fn`` trains one round's clients. It defaults to local SGD
    training (``None``) and exists so tests can inject scripted client
    models; it reports a failed client by raising :class:`ClientTrainingError`.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        train_ds: Dataset,
        parts: Sequence[Sequence[int]],
        test_ds: Dataset | None = None,
        train_fn: TrainFn | None = None,
    ):
        if len(parts) != cfg.total_clients:
            raise ValueError(f"{len(parts)} partitions for {cfg.total_clients} clients")
        self.cfg = cfg
        self.train_ds = train_ds
        self.test_ds = test_ds
        self.client_data = [train_ds.subset(p) for p in parts]
        self.train_fn = train_fn  # None: _default_train, looked up per round (a stored bound method is a cycle)
        self.workspace = Workspace()  # the arrays every round's local training writes into; fresh for the last probe

    def _default_train(self, round_index: int, clients: list[tuple[int, Dataset, ParamSet]]) -> ClientUpdates:
        sessions = [
            (cid, data, init, derived_rng(self.cfg.run_seed, _TAG_TRAIN, round_index, cid))
            for cid, data, init in clients
        ]
        return train_clients(sessions, self.cfg.trainer, self.cfg.model, self.workspace)

    def initial_state(self) -> RunState:
        rng = derived_rng(self.cfg.run_seed, _TAG_INIT)
        return RunState(global_params=init_params(self.cfg.model, rng))

    def run_round(self, state: RunState) -> RunState:
        cfg = self.cfg
        r = len(state.history)
        ids = sample_clients(cfg.total_clients, cfg.clients_per_round, r, cfg.run_seed)
        threshold = cfg.aggregation.fedu_threshold  # None: FedU off
        clients, adopted = [], {}
        for cid in ids:  # without FedU no client model is kept, so every client starts from the global
            init, distance = fedu_start(cfg.aggregation, state.global_params, state.client_models.get(cid))
            if threshold is not None:
                adopted[cid] = init is state.global_params
                if not adopted[cid]:
                    logger.debug(
                        "round %d client %d keeps its projector (backbone distance %.4f > %.4f)",
                        r, cid, distance, threshold,
                    )
            clients.append((cid, self.client_data[cid], init))
        try:
            updates = (self.train_fn or self._default_train)(r, clients)
        except ClientTrainingError as exc:
            raise RuntimeError(f"round {r}: training failed for client {exc.client_id}: {exc}") from exc

        t0 = time.perf_counter()
        try:
            new_global, div = aggregate(cfg.aggregation, r, state.global_params, updates)
        except ValueError as exc:
            raise RuntimeError(f"round {r}: aggregation: {exc}") from exc
        agg_ms = (time.perf_counter() - t0) * 1000.0

        if threshold is not None:
            client_models = dict(state.client_models)
            rows = zip(updates.client_ids, updates.weights)
            client_models.update({cid: ParamSet(row.copy(), updates.layout) for cid, row in rows})
        else:
            client_models = state.client_models  # clients discarded after aggregation

        record = RoundRecord(
            round_index=r,
            strategy_effective=effective_strategy(cfg.aggregation, r),
            div=div,
            mean_local_loss=float(np.mean(updates.train_loss)),
            agg_time_ms=agg_ms,
            probe_acc=None,
            fedu_adopted=adopted,
        )
        if self._should_probe(r):
            if r == cfg.rounds - 1:  # the run's last probe: free the training arrays first
                self.workspace = Workspace()
            try:
                (record.probe_acc,) = linear_probe(
                    new_global, cfg.model, self.train_ds, self.test_ds, cfg.evaluation,
                    cfg.evaluation.label_fractions[:1],
                )
            except ValueError as exc:
                raise RuntimeError(f"round {r}: linear probe: {exc}") from exc
        history = state.history + [record]
        return RunState(new_global, history, client_models)

    def _should_probe(self, round_index: int) -> bool:
        every = self.cfg.evaluation.probe_every
        last = round_index == self.cfg.rounds - 1
        return self.test_ds is not None and (last or every > 0 and (round_index + 1) % every == 0)

    def run(self, state: RunState) -> RunState:
        for _ in range(self.cfg.rounds):
            state = self.run_round(state)
            last = state.history[-1]
            probe = "" if last.probe_acc is None else f" probe_acc={last.probe_acc:.4f}"
            logger.info(
                "round %d [%s] mu_delta=%.4f loss=%.4f%s",
                last.round_index, last.strategy_effective, last.div.mean("model"), last.mean_local_loss, probe,
            )
        return state


@dataclass
class RunResult:
    state: RunState
    output_dir: Path
    rounds_csv: Path
    final_checkpoint: Path


def write_rounds_csv(history: Sequence[RoundRecord], total_clients: int, path, record_timings: bool) -> None:
    """Fixed-schema telemetry CSV; one row per round.

    Wall-clock aggregation times are inherently irreproducible, so the
    ``agg_time_ms`` column is zeroed unless timing capture was requested;
    this keeps default telemetry byte-identical across repeated runs.
    """
    header = list(ROUNDS_CSV_PREFIX) + [f"client_{i}_delta" for i in range(total_clients)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in history:
            deltas = dict(zip(rec.div.client_ids, rec.div.model.tolist()))
            row = [
                rec.round_index,
                rec.strategy_effective,
                repr(rec.div.mean("model")),
                repr(rec.div.mean("layer")),
                repr(rec.mean_local_loss),
                repr(rec.agg_time_ms) if record_timings else repr(0.0),
                "" if rec.probe_acc is None else repr(rec.probe_acc),
            ]
            row += [repr(deltas[i]) if i in deltas else "" for i in range(total_clients)]
            writer.writerow(row)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Execute a validated config end to end and write all artifacts.

    Writes ``run.json`` (resolved config echo), ``partition.json``,
    ``rounds.csv`` and the initial/final checkpoints into the output
    directory. Fully deterministic given the config.
    """
    train_ds, test_ds = build_datasets(cfg)
    parts = partition(train_ds, cfg.partition)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump(resolved_dict(cfg), fh, indent=2)
        fh.write("\n")
    save_partition_manifest(parts, out / "partition.json")

    runner = FederatedRunner(cfg, train_ds, parts, test_ds)
    state = runner.initial_state()
    save_checkpoint(state.global_params, out / "checkpoint_init.bin")
    state = runner.run(state)

    write_rounds_csv(state.history, cfg.total_clients, out / "rounds.csv", cfg.record_timings)
    save_checkpoint(state.global_params, out / "checkpoint_final.bin")
    return RunResult(state, out, out / "rounds.csv", out / "checkpoint_final.bin")
