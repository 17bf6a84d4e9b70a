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

from .aggregation import ClientUpdate, aggregate, effective_strategy
from .config import BlobsConfig, CsvConfig, ExperimentConfig, resolved_dict
from .evaluation import linear_probe
from .learners import ClientTrainingError, init_params, train_clients
from .params import ParamSet, save_checkpoint, segments
from .partition import (
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

ROUNDS_CSV_PREFIX = [
    "round",
    "strategy_effective",
    "mu_delta_model",
    "mu_delta_layer",
    "mean_local_loss",
    "agg_time_ms",
    "probe_acc",
]


def derived_rng(run_seed: int, *parts: int) -> np.random.Generator:
    """Independent generator for a (seed, purpose, ...) coordinate."""
    return np.random.default_rng([int(run_seed)] + [int(p) for p in parts])


def sample_clients(total_clients: int, per_round: int, round_index: int, run_seed: int) -> list[int]:
    """Uniformly sample ``per_round`` distinct ids, deterministic per (seed, round)."""
    if not 1 <= per_round <= total_clients:
        raise ValueError(
            f"cannot sample {per_round} of {total_clients} clients"
        )
    if per_round == total_clients:
        return list(range(total_clients))
    rng = derived_rng(run_seed, _TAG_SAMPLE, round_index)
    ids = rng.choice(total_clients, size=per_round, replace=False)
    return sorted(int(i) for i in ids)


@dataclass(frozen=True)
class FeduDecision:
    """Whether a client adopts the global projector before local training."""

    adopt_projector: bool
    backbone_distance: float


def fedu_policy(global_params: ParamSet, client_init: ParamSet, threshold: float) -> FeduDecision:
    """Keep the client's own projector when its backbone drifted beyond the threshold.

    The backbone is the encoder (every layer not named ``projector.*``); its
    distance is the Euclidean norm of the concatenated differences. A
    distance exactly at the threshold still adopts (ties break toward
    adoption). Backbone layers always adopt the global regardless.
    """
    if not threshold > 0:
        raise ValueError("fedu threshold must be positive")
    global_params.require_compatible(client_init)
    layout = global_params.layout
    g, c = segments(global_params.vector, layout), segments(client_init.vector, layout)
    sq = 0.0
    for name, _ in layout:
        if not name.startswith("projector."):
            diff = (g[name] - c[name]).reshape(-1)
            sq += float(np.dot(diff, diff))
    distance = float(np.sqrt(sq))
    return FeduDecision(adopt_projector=distance <= threshold, backbone_distance=distance)


def _merge_projector(global_params: ParamSet, local_params: ParamSet) -> ParamSet:
    """Global backbone with the client's own projector layers."""
    layout, vector = global_params.layout, global_params.vector.copy()
    merged, local = segments(vector, layout), segments(local_params.vector, layout)
    for name, _ in layout:
        if name.startswith("projector."):
            merged[name][...] = local[name]
    return ParamSet(vector, layout)


@dataclass
class RoundRecord:
    """Per-round telemetry."""

    round_index: int
    strategy_effective: str
    mu_delta_model: float
    mu_delta_layer: float
    mean_local_loss: float
    agg_time_ms: float
    probe_acc: float | None
    client_deltas: dict[int, float]
    client_layer_deltas: dict[int, float]
    fedu_adopted: dict[int, bool] = field(default_factory=dict)


@dataclass
class RunState:
    """Mutable state threaded through the round loop."""

    global_params: ParamSet
    round_index: int = 0
    history: list[RoundRecord] = field(default_factory=list)
    client_models: dict[int, ParamSet] = field(default_factory=dict)


# (round index, [(client_id, data, init), ...]) -> one ClientUpdate per client, in order.
TrainFn = Callable[[int, list[tuple[int, Dataset, ParamSet]]], list[ClientUpdate]]


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
    training and exists so tests can inject scripted client models; it
    reports a failed client by raising :class:`ClientTrainingError`.
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
        self.train_fn = train_fn or self._default_train

    def _default_train(self, round_index: int, clients: list[tuple[int, Dataset, ParamSet]]) -> list[ClientUpdate]:
        sessions = [
            (cid, data, init, derived_rng(self.cfg.run_seed, _TAG_TRAIN, round_index, cid))
            for cid, data, init in clients
        ]
        return train_clients(sessions, self.cfg.trainer, self.cfg.model)

    def initial_state(self) -> RunState:
        rng = derived_rng(self.cfg.run_seed, _TAG_INIT)
        return RunState(global_params=init_params(self.cfg.model, rng))

    def _client_init(self, state: RunState, client_id: int) -> tuple[ParamSet, bool | None]:
        spec = self.cfg.aggregation
        if spec.strategy != "ldawa_fedu" or spec.fedu_threshold is None:
            return state.global_params, None
        previous = state.client_models.get(client_id)
        if previous is None:
            return state.global_params, True
        decision = fedu_policy(state.global_params, previous, spec.fedu_threshold)
        if decision.adopt_projector:
            return state.global_params, True
        logger.debug(
            "round %d client %d keeps its projector (backbone distance %.4f > %.4f)",
            state.round_index, client_id, decision.backbone_distance, spec.fedu_threshold,
        )
        return _merge_projector(state.global_params, previous), False

    def run_round(self, state: RunState) -> RunState:
        cfg = self.cfg
        r = state.round_index
        ids = sample_clients(cfg.total_clients, cfg.clients_per_round, r, cfg.run_seed)
        clients = []
        adopted: dict[int, bool] = {}
        for cid in ids:
            init, adopt = self._client_init(state, cid)
            if adopt is not None:
                adopted[cid] = adopt
            clients.append((cid, self.client_data[cid], init))
        try:
            updates = self.train_fn(r, clients)
        except ClientTrainingError as exc:
            raise RuntimeError(f"round {r}: training failed for client {exc.client_id}: {exc}") from exc

        t0 = time.perf_counter()
        new_global, div = aggregate(cfg.aggregation, r, state.global_params, updates)
        agg_ms = (time.perf_counter() - t0) * 1000.0

        if cfg.aggregation.strategy == "ldawa_fedu" and cfg.aggregation.fedu_threshold is not None:
            client_models = dict(state.client_models)
            client_models.update({u.client_id: u.params for u in updates})
        else:
            client_models = state.client_models  # clients discarded after aggregation

        record = RoundRecord(
            round_index=r,
            strategy_effective=effective_strategy(cfg.aggregation, r),
            mu_delta_model=div.mean("model"),
            mu_delta_layer=div.mean("layer"),
            mean_local_loss=float(np.mean([u.train_loss for u in updates])),
            agg_time_ms=agg_ms,
            probe_acc=None,
            client_deltas=dict(zip(map(int, div.client_ids), div.model.tolist())),
            client_layer_deltas={
                int(cid): float(np.mean(row)) for cid, row in zip(div.client_ids, div.layer)
            },
            fedu_adopted=adopted,
        )
        if self._should_probe(r):
            try:
                record.probe_acc = self._probe(new_global)
            except ValueError as exc:
                raise RuntimeError(f"round {r}: linear probe: {exc}") from exc
        history = state.history + [record]
        return RunState(new_global, r + 1, history, client_models)

    def _should_probe(self, round_index: int) -> bool:
        if self.test_ds is None:
            return False
        if round_index == self.cfg.rounds - 1:
            return True
        every = self.cfg.evaluation.probe_every
        return every > 0 and (round_index + 1) % every == 0

    def _probe(self, params: ParamSet) -> float:
        fraction = self.cfg.evaluation.label_fractions[0]
        return linear_probe(
            params, self.cfg.model, self.train_ds, self.test_ds, self.cfg.evaluation, fraction
        )

    def run(self, state: RunState | None = None) -> RunState:
        if state is None:
            state = self.initial_state()
        for _ in range(self.cfg.rounds):
            state = self.run_round(state)
            last = state.history[-1]
            logger.info(
                "round %d [%s] mu_delta=%.4f loss=%.4f%s",
                last.round_index,
                last.strategy_effective,
                last.mu_delta_model,
                last.mean_local_loss,
                "" if last.probe_acc is None else f" probe_acc={last.probe_acc:.4f}",
            )
        return state


@dataclass
class RunResult:
    cfg: ExperimentConfig
    state: RunState
    output_dir: Path
    rounds_csv: Path
    final_checkpoint: Path
    initial_checkpoint: Path
    partition_manifest: Path


def write_rounds_csv(
    history: Sequence[RoundRecord], total_clients: int, path, record_timings: bool
) -> None:
    """Fixed-schema telemetry CSV; one row per round.

    Wall-clock aggregation times are inherently irreproducible, so the
    ``agg_time_ms`` column is zeroed unless timing capture was requested;
    this keeps default telemetry byte-identical across repeated runs.
    """
    header = ROUNDS_CSV_PREFIX + [f"client_{i}_delta" for i in range(total_clients)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in history:
            row = [
                rec.round_index,
                rec.strategy_effective,
                repr(rec.mu_delta_model),
                repr(rec.mu_delta_layer),
                repr(rec.mean_local_loss),
                repr(rec.agg_time_ms) if record_timings else repr(0.0),
                "" if rec.probe_acc is None else repr(rec.probe_acc),
            ]
            for i in range(total_clients):
                row.append(repr(rec.client_deltas[i]) if i in rec.client_deltas else "")
            writer.writerow(row)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Execute a validated config end to end and write all artifacts.

    Writes ``run.json`` (resolved config echo), ``partition.json``,
    ``rounds.csv`` and the initial/final checkpoints into the output
    directory. Fully deterministic given the config.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    train_ds, test_ds = build_datasets(cfg)
    parts = partition(train_ds, cfg.partition)

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
    return RunResult(
        cfg=cfg,
        state=state,
        output_dir=out,
        rounds_csv=out / "rounds.csv",
        final_checkpoint=out / "checkpoint_final.bin",
        initial_checkpoint=out / "checkpoint_init.bin",
        partition_manifest=out / "partition.json",
    )
