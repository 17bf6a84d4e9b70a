"""Linear-probe and classifier evaluation of trained models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .learners import (
    ForwardPass, ModelSpec, _log_softmax, _xent_grad, backward, encode, forward, init_params, require_layers, sgd_step,
)
from .params import ParamSet, segments
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
        if any(not 0 <= b < self.epochs for b in self.milestones) or list(self.milestones) != sorted(
            set(self.milestones)
        ):
            raise ValueError("milestones must be strictly increasing and lie in [0, epochs)")
        if self.lr < 0 or self.momentum < 0 or self.decay_factor < 0:
            raise ValueError("lr, momentum and decay_factor must be >= 0")
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

    Labels must be non-negative, as a ``Dataset``'s are. Per-class quotas
    follow largest-remainder allocation of the class counts; classes that
    would round to zero steal one slot from the largest quota when feasible.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n_take = int(round(fraction * labels.size))
    rows = [np.flatnonzero(labels == c) for c in np.flatnonzero(np.bincount(labels))]  # per present class, ascending
    quotas = allocate_counts(np.array([r.size for r in rows], dtype=np.float64), n_take)
    if n_take >= len(rows):
        # The quotas total n_take >= the class count, so while one is 0 the largest is at least 2.
        while (quotas == 0).any():
            zero = int(np.flatnonzero(quotas == 0)[0])
            donor = int(np.argmax(quotas))
            quotas[zero] += 1
            quotas[donor] -= 1
    return np.sort(np.concatenate([rng.permutation(idx)[: int(q)] for idx, q in zip(rows, quotas)]))


def linear_probe(
    encoder_params: ParamSet, model_spec: ModelSpec, train_ds: Dataset, test_ds: Dataset,
    spec: EvalSpec, fractions: Sequence[float],
) -> list[float]:
    """Per label fraction, the last-epoch test accuracy of a fresh linear classifier on frozen features.

    The encoder is never updated (it is immutable); only the head, a
    one-layer learners model ``ModelSpec((d, classes))``, trains through
    learners' passes and ``sgd_step``, with the milestone learning-rate schedule.
    The encoder's layers and every fraction are checked before any head
    trains; every fraction's training features are encoded first, then the
    test set once. ``encode`` works in blocks of rows, so beyond the features
    it keeps the probe holds one block's hidden layers. Deterministic given
    ``spec.eval_seed``, and each fraction's accuracy is the same alone or
    among others. ``encoder_params`` must hold the encoder layers of
    ``model_spec``; any other layers are ignored.
    """
    encoder = ModelSpec(model_spec.encoder_dims, activation=model_spec.activation)
    require_layers(encoder_params, encoder)
    c = train_ds.num_classes
    draws = []  # per fraction: its training features, labels and generator
    for fraction in fractions:
        if not 0 < fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        n_take = int(round(fraction * len(train_ds)))
        if n_take < c:
            raise ValueError(f"fraction {fraction} yields {n_take} samples for {c} classes")
        rng = np.random.default_rng([int(spec.eval_seed), 0x5EED])
        rows = stratified_subset(train_ds.labels, fraction, rng)
        rows = rows if len(rows) < len(train_ds) else slice(None)  # every row, in order: no gathered copy
        draws.append((encode(encoder_params, encoder, train_ds.features[rows]), train_ds.labels[rows], rng))
    test_feats = encode(encoder_params, encoder, test_ds.features)
    accs = []
    for feats, labels, rng in draws:
        if not (np.isfinite(feats).all() and np.isfinite(test_feats).all()):
            raise ValueError("non-finite frozen features: the encoder diverged")

        head = ModelSpec((feats.shape[1], c))
        init = init_params(head, rng)
        w = _train_head(head, init, feats, labels, spec, rng)
        if not np.isfinite(w).all():
            raise ValueError("the linear head diverged to non-finite weights")
        predictions = forward(segments(w, init.layout), head, test_feats).pre[-1].argmax(axis=1)
        accs.append(accuracy(predictions, test_ds.labels))
    return accs


def _train_head(head: ModelSpec, init: ParamSet, feats: np.ndarray, labels: np.ndarray, spec: EvalSpec,
                rng: np.random.Generator) -> np.ndarray:
    """``head``'s vector trained from ``init`` on frozen ``feats``: momentum SGD, no weight decay, ``rng`` shuffles.

    ``labels`` are int64 and lie in the head's classes, as a ``Dataset``'s do: no step checks them or computes
    the loss. Every step writes into arrays made once here, C-ordered; a batch of m rows uses their first m rows.
    """
    w, (v, g, step) = init.vector.copy(), np.zeros((3, init.num_params))  # step: sgd_step's scratch
    params, grads = segments(w, init.layout), segments(g, init.layout)
    n = len(feats)
    b, c = min(spec.batch_size, n), head.encoder_dims[-1]
    x, logits, temp, sums = np.empty((b, feats.shape[1])), np.empty((b, c)), np.empty((b, c)), np.empty((b, 1))
    cuts = {  # per batch size, a full batch's and an epoch's last: the arrays' first m rows
        m: (x[:m], ForwardPass([None], [logits[:m]]), (temp[:m], sums[:m])) for m in {b, (n - 1) % b + 1}
    }
    offsets = np.arange(n) % b * c  # each shuffled row's first index in its batch's flattened logits
    at = np.empty(n, dtype=np.int64)  # each shuffled row's label's index there
    for epoch in range(spec.epochs):
        lr = spec.lr * spec.decay_factor ** int(np.searchsorted(np.asarray(spec.milestones), epoch, side="right"))
        order = rng.permutation(n)
        np.add(np.take(labels, order, out=at, mode="clip"), offsets, out=at)
        for start in range(0, n, spec.batch_size):
            idx = order[start : start + spec.batch_size]
            batch, out, scratch = cuts[len(idx)]
            np.take(feats, idx, axis=0, out=batch, mode="clip")  # idx is in range; "raise" buffers
            fp = forward(params, head, batch, out)
            logp = _log_softmax(fp.pre[-1], fp.pre[-1], scratch)
            backward(params, head, fp, _xent_grad(logp, at[start : start + spec.batch_size], logp), out=grads)
            sgd_step(w, g, v, lr, spec.momentum, weight_decay=0.0, out=step)
    return w
