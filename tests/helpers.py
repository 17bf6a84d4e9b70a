"""Helpers and scalar oracles shared by test modules (pytest puts this directory on ``sys.path``)."""

import math
from typing import NamedTuple

import numpy as np

from fedsim.aggregation import AggregationSpec, ClientUpdates, aggregate
from fedsim.evaluation import accuracy
from fedsim.learners import ModelSpec, _log_softmax, _xent_grad, _xent_loss, forward
from fedsim.params import ParamSet, weighted_sum
from fedsim.partition import Dataset


def classifier_accuracy(params: ParamSet, model_spec: ModelSpec, ds: Dataset) -> float:
    """Accuracy of a supervised model's own head on a dataset."""
    if model_spec.head_classes is None:
        raise ValueError("model has no classifier head")
    logits = forward(params, model_spec, ds.features).pre[-1]
    return accuracy(logits.argmax(axis=1), ds.labels)


def ps(named):
    return ParamSet.from_arrays({n: np.asarray(v, dtype=np.float64) for n, v in named.items()})


class Client(NamedTuple):
    """One client of a test round; :func:`pack` stacks a round's clients into one block."""

    client_id: int
    params: ParamSet
    num_samples: int
    train_loss: float


def pack(clients):
    """A round's clients (ascending ids, one layout) as the rows of one ClientUpdates block."""
    return ClientUpdates(
        tuple(c.client_id for c in clients),
        np.stack([c.params.vector for c in clients]),
        clients[0].params.layout,
        [c.num_samples for c in clients],
        [c.train_loss for c in clients],
    )


def summed(block, layout, coeffs):
    """``weighted_sum`` of a (K, P) block's rows added into a zero vector, as a ParamSet."""
    out = np.zeros(block.shape[1])
    weighted_sum(block, layout, coeffs, out)
    return ParamSet(out, layout)


def rule(strategy, global_params, clients):
    """The new global under ``strategy``, past any warm-up."""
    return aggregate(AggregationSpec(strategy), 0, global_params, pack(clients))[0]


def brute_force_cosine(g, c):
    num = sum(float(x) * float(y) for x, y in zip(g, c))
    ng = math.sqrt(sum(float(x) ** 2 for x in g))
    nc = math.sqrt(sum(float(x) ** 2 for x in c))
    if ng <= 1e-12 and nc <= 1e-12:
        return 1.0
    if ng <= 1e-12 or nc <= 1e-12:
        return 0.0
    return max(-1.0, min(1.0, num / (ng * nc)))


def brute_force_layerwise(global_params, updates, base_coeffs, scale="layer", renormalize=False):
    """Scalar-loop expansion of layer l = sum_k beta_k * s_k(l) * w_k(l).

    ``scale`` is None (s = 1), "model" (whole-model cosine) or "layer"
    (per-layer cosine); ``renormalize`` divides each layer's coefficients of
    a divergence-scaled rule by their sum unless that sum is within 1e-12
    of zero.
    """
    flat_global = global_params.vector.tolist()
    result = {}
    for name in global_params.names:
        layer = global_params[name].reshape(-1).tolist()
        coeffs = []
        for u, beta in zip(updates, base_coeffs):
            if scale == "layer":
                s = brute_force_cosine(layer, u.params[name].reshape(-1).tolist())
            elif scale == "model":
                s = brute_force_cosine(flat_global, u.params.vector.tolist())
            else:
                s = 1.0
            coeffs.append(beta * s)
        total = sum(coeffs)
        if renormalize and scale is not None and abs(total) > 1e-12:
            coeffs = [c / total for c in coeffs]
        acc = [0.0] * len(layer)
        for u, c in zip(updates, coeffs):
            client_layer = u.params[name].reshape(-1).tolist()
            for i in range(len(layer)):
                acc[i] += c * client_layer[i]
        result[name] = acc
    return result


def brute_force_ntxent(z_a, z_b, tau):
    """Direct per-anchor evaluation of the normalized temperature-scaled loss.

    For each anchor u the candidates are its positive and every other row of
    both views; the anchor term is -(u.v+ / tau) + log sum exp(u.v / tau).
    """
    rows = [v / np.linalg.norm(v) for v in list(z_a) + list(z_b)]
    b = len(z_a)
    total = 0.0
    for i, u in enumerate(rows):
        pos = rows[(i + b) % (2 * b)]
        candidates = [v for j, v in enumerate(rows) if j != i]
        log_z = math.log(sum(math.exp(float(np.dot(u, v)) / tau) for v in candidates))
        total += -(float(np.dot(u, pos)) / tau) + log_z
    return total / (2 * b)


def brute_force_barlow(z_a, z_b, lam):
    """Direct evaluation: standardize, correlate, then the two penalty sums."""
    n, d = z_a.shape
    def standardize(z):
        out = np.empty_like(z)
        for j in range(d):
            col = z[:, j]
            mu = col.mean()
            sd = math.sqrt(((col - mu) ** 2).mean())
            out[:, j] = (col - mu) / (sd + 1e-8)
        return out
    a, b = standardize(z_a), standardize(z_b)
    corr = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            corr[i, j] = float(np.dot(a[:, i], b[:, j])) / n
    total = 0.0
    for i in range(d):
        total += (1.0 - corr[i, i]) ** 2
        for j in range(d):
            if j != i:
                total += lam * corr[i, j] ** 2
    return total


def parent_loss_xent(logits, labels):
    """The cross-entropy's formula before its row max and label terms were rewritten, verbatim."""
    n, c = logits.shape[-2:]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    onehot = labels[..., None] == np.arange(c)
    loss = -np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0].mean(axis=-1)
    return loss, (np.exp(logp) - onehot) / n


def training_xent(logits, labels):
    """Mean cross-entropy and its gradient as supervised training runs them: learners' log-softmax, loss and
    gradient, in place in a C-ordered copy of ``logits``, at each label's index in the flattened logits."""
    logits = np.array(logits, dtype=np.float64, order="C")
    c = logits.shape[-1]
    logp = _log_softmax(logits, logits, (np.empty(logits.shape), np.empty((*logits.shape[:-1], 1))))
    at = np.arange(0, labels.size * c, c) + labels.reshape(-1)
    return _xent_loss(logp, at), _xent_grad(logp, at, logp)


def fd_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def label_entropy(labels):
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())
