"""Linear-probe and classifier evaluation of trained models."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .learners import ModelSpec, forward, loss_xent, require_layers
from .params import ParamSet
from .partition import Dataset, allocate_counts


@dataclass(frozen=True)
class EvalSpec:
    """Probe hyperparameters and cadence.

    ``probe_every == 0`` probes the final round only; ``N > 0`` probes every
    N-th round and the final one. The learning rate is multiplied by
    ``decay_factor`` at each milestone epoch.
    """

    label_fractions: tuple[float, ...] = (1.0,)
    epochs: int = 100
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 128
    milestones: tuple[int, ...] = (60, 80)
    decay_factor: float = 0.1
    probe_every: int = 0
    eval_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "label_fractions", tuple(float(f) for f in self.label_fractions))
        object.__setattr__(self, "milestones", tuple(int(m) for m in self.milestones))
        if not self.label_fractions:
            raise ValueError("label_fractions must not be empty")
        if any(not 0 < f <= 1 for f in self.label_fractions):
            raise ValueError("label fractions must lie in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if any(b >= self.epochs for b in self.milestones) or list(self.milestones) != sorted(
            set(self.milestones)
        ):
            raise ValueError("milestones must be strictly increasing and < epochs")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.probe_every < 0:
            raise ValueError("probe_every must be >= 0")
        if self.eval_seed < 0:
            raise ValueError("eval_seed must be non-negative")


def accuracy(predictions: Sequence[int], labels: Sequence[int]) -> float:
    """Fraction of exact matches."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have the same length")
    if predictions.size == 0:
        raise ValueError("accuracy of an empty sequence is undefined")
    return float((predictions == labels).mean())


def stratified_subset(labels: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Pick round(fraction * N) indices, class-stratified, >= 1 per present class.

    Per-class quotas follow largest-remainder allocation of the class counts;
    classes that would round to zero steal one slot from the largest quota
    when feasible.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n_take = int(round(fraction * labels.size))
    classes = np.unique(labels)
    counts = np.array([(labels == c).sum() for c in classes], dtype=np.float64)
    quotas = allocate_counts(counts, n_take)
    if n_take >= classes.size:
        while (quotas == 0).any():
            zero = int(np.flatnonzero(quotas == 0)[0])
            donor = int(np.argmax(quotas))
            if quotas[donor] <= 1:
                break
            quotas[zero] += 1
            quotas[donor] -= 1
    picked = []
    for c, q in zip(classes, quotas):
        idx = np.flatnonzero(labels == c)
        picked.append(rng.permutation(idx)[: int(q)])
    return np.sort(np.concatenate(picked))


def linear_probe(
    encoder_params: ParamSet,
    model_spec: ModelSpec,
    train_ds: Dataset,
    test_ds: Dataset,
    spec: EvalSpec,
    fraction: float = 1.0,
) -> float:
    """Last-epoch test accuracy of a fresh linear classifier on frozen features.

    The encoder is never updated (it is immutable); only the linear head
    trains, with SGD momentum and the milestone learning-rate schedule.
    Deterministic given ``spec.eval_seed``. ``encoder_params`` must hold the
    encoder layers of ``model_spec``; any other layers are ignored.
    """
    encoder = ModelSpec(model_spec.encoder_dims, activation=model_spec.activation)
    require_layers(encoder_params, encoder)
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    c = train_ds.num_classes
    n_take = int(round(fraction * len(train_ds)))
    if n_take < c:
        raise ValueError(
            f"fraction {fraction} yields {n_take} samples for {c} classes"
        )
    rng = np.random.default_rng([int(spec.eval_seed), 0x5EED])
    subset = stratified_subset(train_ds.labels, fraction, rng)
    feats = forward(encoder_params, encoder, train_ds.features[subset]).h
    labels = train_ds.labels[subset]
    test_feats = forward(encoder_params, encoder, test_ds.features).h
    if not (np.isfinite(feats).all() and np.isfinite(test_feats).all()):
        raise ValueError("non-finite frozen features: the encoder diverged")

    d = feats.shape[1]
    bound = 1.0 / math.sqrt(d)
    weight = rng.uniform(-bound, bound, size=(d, c))
    bias = rng.uniform(-bound, bound, size=c)
    vel_w = np.zeros_like(weight)
    vel_b = np.zeros_like(bias)

    n = feats.shape[0]
    for epoch in range(spec.epochs):
        lr = spec.lr * spec.decay_factor ** int(
            np.searchsorted(np.asarray(spec.milestones), epoch, side="right")
        )
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = order[start : start + spec.batch_size]
            logits = feats[idx] @ weight + bias
            _, grad = loss_xent(logits, labels[idx])
            vel_w = spec.momentum * vel_w + feats[idx].T @ grad
            vel_b = spec.momentum * vel_b + grad.sum(axis=0)
            weight = weight - lr * vel_w
            bias = bias - lr * vel_b

    if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
        raise ValueError("the linear head diverged to non-finite weights")
    predictions = (test_feats @ weight + bias).argmax(axis=1)
    return accuracy(predictions, test_ds.labels)


def classifier_accuracy(params: ParamSet, model_spec: ModelSpec, ds: Dataset) -> float:
    """Accuracy of a supervised model's own head on a dataset."""
    if model_spec.head_classes is None:
        raise ValueError("model has no classifier head")
    logits = forward(params, model_spec, ds.features).logits
    return accuracy(logits.argmax(axis=1), ds.labels)


def divergence_series(history: Sequence, mode: str = "model") -> tuple[list[float], dict[int, float]]:
    """Two aggregations of the recorded per-client divergences.

    Returns the per-round mean across participating clients and, per client,
    the mean across the rounds it participated in. ``mode`` selects the
    whole-model deltas or the per-layer-averaged ones.
    """
    history = list(history)
    if not history:
        raise ValueError("divergence_series: empty history")
    if mode not in ("model", "layer"):
        raise ValueError(f"unknown mode {mode!r}")
    per_round: list[float] = []
    totals: dict[int, float] = {}
    counts: dict[int, int] = {}
    for record in history:
        deltas = record.client_deltas if mode == "model" else record.client_layer_deltas
        per_round.append(float(np.mean(list(deltas.values()))))
        for client, value in deltas.items():
            totals[client] = totals.get(client, 0.0) + value
            counts[client] = counts.get(client, 0) + 1
    per_client = {client: totals[client] / counts[client] for client in sorted(totals)}
    return per_round, per_client
