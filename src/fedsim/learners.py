"""Toy-scale local training: MLP encoder/projector with exact analytic gradients.

The model is a chain of linear layers with an elementwise activation between
consecutive layers (never after the last one): the representation ``h`` is
the raw output of the final encoder layer, the projection ``z`` the raw
output of the final projector layer. Supervised models replace the projector
with a linear classifier head on ``h``.

All gradients (cross-entropy, the contrastive loss, the cross-correlation
redundancy loss, and full backprop through the chain) are written out by
hand and validated against central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .aggregation import ClientUpdate
from .params import ParamSet, segments

ACTIVATIONS = ("relu", "tanh")
TRAINER_METHODS = ("supervised", "simclr", "barlow_twins")

# Added to per-dimension batch std before standardizing embeddings, so a
# constant dimension yields zero (not NaN) rather than dividing by zero.
BARLOW_STD_EPS = 1e-8


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths of the encoder, optional projector, and optional head."""

    encoder_dims: tuple[int, ...]
    projector_dims: tuple[int, ...] = ()
    activation: str = "relu"
    head_classes: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "encoder_dims", tuple(int(d) for d in self.encoder_dims))
        object.__setattr__(self, "projector_dims", tuple(int(d) for d in self.projector_dims))
        if len(self.encoder_dims) < 2:
            raise ValueError("encoder needs at least one layer (two widths)")
        if any(d < 1 for d in self.encoder_dims + self.projector_dims):
            raise ValueError("all layer widths must be positive")
        if self.projector_dims and len(self.projector_dims) < 2:
            raise ValueError("projector_dims must list input and output widths")
        if self.projector_dims and self.projector_dims[0] != self.encoder_dims[-1]:
            raise ValueError(
                f"projector input width {self.projector_dims[0]} != "
                f"representation width {self.encoder_dims[-1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.head_classes is not None and self.head_classes < 2:
            raise ValueError("head_classes must be >= 2")

    @property
    def input_dim(self) -> int:
        return self.encoder_dims[0]

    @property
    def representation_dim(self) -> int:
        return self.encoder_dims[-1]


@dataclass(frozen=True)
class TrainerSpec:
    """Local-training hyperparameters for one client session."""

    method: str
    temperature: float = 0.5
    lambda_offdiag: float = 5e-3
    lr: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 64
    local_epochs: int = 1
    augment_noise_std: float = 0.1
    augment_mask_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.method not in TRAINER_METHODS:
            raise ValueError(f"unknown trainer method {self.method!r}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.lambda_offdiag < 0:
            raise ValueError("lambda_offdiag must be >= 0")
        if self.lr < 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("lr, momentum and weight_decay must be >= 0")
        min_batch = 2 if self.is_ssl else 1
        if self.batch_size < min_batch:
            raise ValueError(f"batch_size must be >= {min_batch} for {self.method}")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be >= 0")
        for field in ("augment_noise_std", "augment_mask_prob"):
            v = getattr(self, field)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{field} must lie in [0, 1]")

    @property
    def is_ssl(self) -> bool:
        return self.method != "supervised"


def validate_model_for_trainer(model: ModelSpec, trainer: TrainerSpec) -> None:
    """SSL methods need a projector and no head; supervised the reverse."""
    if trainer.is_ssl:
        if not model.projector_dims:
            raise ValueError(f"{trainer.method} requires projector_dims")
        if model.head_classes is not None:
            raise ValueError(f"{trainer.method} does not use a classifier head")
    else:
        if model.head_classes is None:
            raise ValueError("supervised training requires head_classes")
        if model.projector_dims:
            raise ValueError("supervised training does not use a projector")


def _chain_dims(spec: ModelSpec) -> list[tuple[int, int]]:
    dims = list(spec.encoder_dims) + list(spec.projector_dims[1:])
    return list(zip(dims[:-1], dims[1:]))


def layer_names(spec: ModelSpec) -> list[str]:
    """Canonical parameter order: encoder, projector, then head."""
    names = []
    n_enc = len(spec.encoder_dims) - 1
    for i in range(n_enc):
        names += [f"encoder.{i}.weight", f"encoder.{i}.bias"]
    for i in range(len(spec.projector_dims) - 1 if spec.projector_dims else 0):
        names += [f"projector.{i}.weight", f"projector.{i}.bias"]
    if spec.head_classes is not None:
        names += ["head.weight", "head.bias"]
    return names


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ParamSet:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    arrays: dict[str, np.ndarray] = {}
    n_enc = len(spec.encoder_dims) - 1
    for i, (fan_in, fan_out) in enumerate(_chain_dims(spec)):
        prefix = f"encoder.{i}" if i < n_enc else f"projector.{i - n_enc}"
        bound = 1.0 / math.sqrt(fan_in)
        arrays[f"{prefix}.weight"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        arrays[f"{prefix}.bias"] = rng.uniform(-bound, bound, size=fan_out)
    if spec.head_classes is not None:
        fan_in = spec.representation_dim
        bound = 1.0 / math.sqrt(fan_in)
        arrays["head.weight"] = rng.uniform(-bound, bound, size=(fan_in, spec.head_classes))
        arrays["head.bias"] = rng.uniform(-bound, bound, size=spec.head_classes)
    return ParamSet.from_arrays(arrays)


def _act(x: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(x, 0.0) if kind == "relu" else np.tanh(x)


def _act_grad(pre: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (pre > 0).astype(np.float64)
    t = np.tanh(pre)
    return 1.0 - t * t


@dataclass
class ForwardPass:
    """Everything the backward pass needs, plus h / z / logits."""

    chain_inputs: list[np.ndarray]  # input fed to each linear layer
    pre: list[np.ndarray]  # raw linear outputs, per chain layer
    h: np.ndarray
    z: np.ndarray | None
    logits: np.ndarray | None


def forward(params: Mapping[str, np.ndarray], spec: ModelSpec, batch: np.ndarray) -> ForwardPass:
    """Run the full encoder (+projector, +head) chain on a batch; ``params`` maps names to shaped arrays."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(
            f"batch of width {x.shape[-1] if x.ndim == 2 else '?'} "
            f"does not match input width {spec.input_dim}"
        )
    n_enc = len(spec.encoder_dims) - 1
    inputs: list[np.ndarray] = []
    pre: list[np.ndarray] = []
    a = x
    for i in range(len(_chain_dims(spec))):
        prefix = f"encoder.{i}" if i < n_enc else f"projector.{i - n_enc}"
        if i > 0:
            a = _act(pre[-1], spec.activation)
        inputs.append(a)
        a = a @ params[f"{prefix}.weight"] + params[f"{prefix}.bias"]
        pre.append(a)
    h = pre[n_enc - 1]
    z = pre[-1] if spec.projector_dims else None
    logits = None
    if spec.head_classes is not None:
        logits = h @ params["head.weight"] + params["head.bias"]
    return ForwardPass(inputs, pre, h, z, logits)


def representation(params: Mapping[str, np.ndarray], spec: ModelSpec, batch: np.ndarray) -> np.ndarray:
    """Frozen-encoder features: the raw output of the last encoder layer."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"batch width does not match input width {spec.input_dim}")
    a = x
    for i in range(len(spec.encoder_dims) - 1):
        if i > 0:
            a = _act(a, spec.activation)
        a = a @ params[f"encoder.{i}.weight"] + params[f"encoder.{i}.bias"]
    return a


def backward(
    params: Mapping[str, np.ndarray],
    spec: ModelSpec,
    fp: ForwardPass,
    grad_out: np.ndarray,
    grad_logits: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Gradients for every parameter given d(loss)/d(chain output).

    ``grad_out`` is the gradient with respect to the final chain output
    (``z`` for SSL models, ``h`` otherwise). For supervised models pass
    ``grad_logits`` instead and ``grad_out=None`` is not allowed; the head
    contribution is routed into ``h`` automatically.
    """
    n_enc = len(spec.encoder_dims) - 1
    grads: dict[str, np.ndarray] = {}
    n_chain = len(_chain_dims(spec))

    g = np.zeros_like(fp.pre[-1]) if grad_out is None else np.asarray(grad_out, dtype=np.float64)
    if grad_logits is not None:
        grads["head.weight"] = fp.h.T @ grad_logits
        grads["head.bias"] = grad_logits.sum(axis=0)
        g_head = grad_logits @ params["head.weight"].T
        if n_chain == n_enc:
            g = g + g_head
    for i in range(n_chain - 1, -1, -1):
        prefix = f"encoder.{i}" if i < n_enc else f"projector.{i - n_enc}"
        if grad_logits is not None and n_chain != n_enc and i == n_enc - 1:
            g = g + g_head  # head branch joins at the representation
        grads[f"{prefix}.weight"] = fp.chain_inputs[i].T @ g
        grads[f"{prefix}.bias"] = g.sum(axis=0)
        if i > 0:
            g = (g @ params[f"{prefix}.weight"].T) * _act_grad(fp.pre[i - 1], spec.activation)
    return grads


def loss_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient (softmax - onehot)/batch."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.shape[0] != labels.shape[0]:
        raise ValueError(f"{logits.shape[0]} logit rows but {labels.shape[0]} labels")
    n, c = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"label outside [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(n), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def _require_finite(*embeddings: np.ndarray) -> None:
    if not all(np.isfinite(z).all() for z in embeddings):
        raise ValueError("non-finite embedding: the model diverged")


def loss_ntxent(
    z_a: np.ndarray, z_b: np.ndarray, temperature: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Symmetric normalized temperature-scaled contrastive loss.

    Rows are L2-normalized internally. Each of the 2B normalized embeddings
    anchors one term whose positive is the matching row of the other view and
    whose negatives are all remaining rows of both views; the loss is the
    mean over anchors. Returns exact gradients with respect to the raw
    (unnormalized) inputs.
    """
    z_a = np.asarray(z_a, dtype=np.float64)
    z_b = np.asarray(z_b, dtype=np.float64)
    if z_a.shape != z_b.shape:
        raise ValueError("view embeddings must have the same shape")
    b = z_a.shape[0]
    if b < 2:
        raise ValueError("contrastive loss needs a batch of at least 2")
    tau = float(temperature)

    norms_a = np.linalg.norm(z_a, axis=1, keepdims=True)
    norms_b = np.linalg.norm(z_b, axis=1, keepdims=True)
    if not (norms_a > 0).all() or not (norms_b > 0).all():
        _require_finite(z_a, z_b)  # a NaN row fails the test above too
        raise ValueError("cannot normalize a zero embedding row")
    s = np.vstack([z_a / norms_a, z_b / norms_b])  # (2B, D), unit rows

    sim = (s @ s.T) / tau
    np.fill_diagonal(sim, -np.inf)  # anchors never pair with themselves
    pos = (np.arange(2 * b) + b) % (2 * b)

    row_max = sim.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.exp(sim - row_max).sum(axis=1))
    loss = float((lse - sim[np.arange(2 * b), pos]).mean())
    if not math.isfinite(loss):
        _require_finite(z_a, z_b)  # an inf row normalizes to NaN

    # d(loss)/d(sim): softmax over each anchor's candidates minus the positive.
    soft = np.exp(sim - lse[:, None])
    soft[np.arange(2 * b), pos] -= 1.0
    soft /= 2 * b
    np.fill_diagonal(soft, 0.0)

    grad_s = ((soft + soft.T) @ s) / tau
    grad_u, grad_v = grad_s[:b], grad_s[b:]

    # Through row normalization u = z/|z|: dz = (g - (g.u) u)/|z|.
    ua, vb = s[:b], s[b:]
    grad_a = (grad_u - (grad_u * ua).sum(axis=1, keepdims=True) * ua) / norms_a
    grad_b = (grad_v - (grad_v * vb).sum(axis=1, keepdims=True) * vb) / norms_b
    return loss, grad_a, grad_b


def _standardize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = z.mean(axis=0, keepdims=True)
    centered = z - mean
    std = np.sqrt((centered**2).mean(axis=0, keepdims=True))
    return centered / (std + BARLOW_STD_EPS), centered, std


def _standardize_backward(
    grad_hat: np.ndarray, centered: np.ndarray, std: np.ndarray
) -> np.ndarray:
    n = centered.shape[0]
    denom = std + BARLOW_STD_EPS
    g = (grad_hat - grad_hat.mean(axis=0, keepdims=True)) / denom
    # d(std)/dx term; a constant dimension has no std direction to move along.
    coef = (grad_hat * centered).sum(axis=0, keepdims=True) / (n * denom**2)
    g -= centered * np.divide(coef, std, out=np.zeros_like(coef), where=std > 0)
    return g


def cross_correlation(z_a: np.ndarray, z_b: np.ndarray) -> np.ndarray:
    """Batch cross-correlation of per-dimension standardized embeddings."""
    z_a = np.asarray(z_a, dtype=np.float64)
    z_b = np.asarray(z_b, dtype=np.float64)
    if z_a.shape != z_b.shape:
        raise ValueError("view embeddings must have the same shape")
    if z_a.shape[0] < 2:
        raise ValueError("cross-correlation needs a batch of at least 2")
    a_hat, _, _ = _standardize(z_a)
    b_hat, _, _ = _standardize(z_b)
    return (a_hat.T @ b_hat) / z_a.shape[0]


def redundancy_loss_from_corr(corr: np.ndarray, lambda_offdiag: float) -> float:
    """sum_i (1 - C_ii)^2 + lambda * sum_{i != j} C_ij^2; exactly 0 at C == I."""
    corr = np.asarray(corr, dtype=np.float64)
    diag = np.diagonal(corr)
    off = corr - np.diag(diag)
    return float(((1.0 - diag) ** 2).sum() + lambda_offdiag * (off**2).sum())


def loss_barlow(
    z_a: np.ndarray, z_b: np.ndarray, lambda_offdiag: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Redundancy-reduction loss on the batch cross-correlation matrix.

    Embedding dimensions are standardized across the batch (mean 0, unit
    std, ddof 0) before correlating, so diagonal entries live in [-1, 1].
    Returns exact gradients with respect to the raw inputs, including the
    path through the standardization.
    """
    z_a = np.asarray(z_a, dtype=np.float64)
    z_b = np.asarray(z_b, dtype=np.float64)
    if z_a.shape != z_b.shape:
        raise ValueError("view embeddings must have the same shape")
    n = z_a.shape[0]
    if n < 2:
        raise ValueError("redundancy loss needs a batch of at least 2")
    lam = float(lambda_offdiag)

    a_hat, a_centered, a_std = _standardize(z_a)
    b_hat, b_centered, b_std = _standardize(z_b)
    corr = (a_hat.T @ b_hat) / n
    loss = redundancy_loss_from_corr(corr, lam)

    grad_corr = 2.0 * lam * corr
    np.fill_diagonal(grad_corr, -2.0 * (1.0 - np.diagonal(corr)))
    grad_a_hat = (b_hat @ grad_corr.T) / n
    grad_b_hat = (a_hat @ grad_corr) / n
    grad_a = _standardize_backward(grad_a_hat, a_centered, a_std)
    grad_b = _standardize_backward(grad_b_hat, b_centered, b_std)
    return loss, grad_a, grad_b


def make_views(
    batch: np.ndarray, noise_std: float, mask_prob: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two independently perturbed copies: additive Gaussian noise, then zero-masking."""
    batch = np.asarray(batch, dtype=np.float64)
    views = []
    for _ in range(2):
        v = batch + rng.normal(0.0, noise_std, size=batch.shape)
        keep = rng.random(batch.shape) >= mask_prob
        views.append(v * keep)
    return views[0], views[1]


def sgd_step(
    w: np.ndarray, g: np.ndarray, v: np.ndarray | None, lr: float, momentum: float, weight_decay: float
) -> np.ndarray:
    """One in-place SGD-with-momentum update of flat arrays: v <- m*v + (g + wd*w); w <- w - lr*v.

    ``v`` is the velocity of one training session: pass None on its first
    step (the velocity starts as g + wd*w) and the returned buffer after.
    ``w`` and ``v`` are updated in place.
    """
    if g.shape != w.shape:
        raise ValueError(f"gradient of shape {g.shape} for weights of shape {w.shape}")
    step = g + weight_decay * w
    if v is None:
        v = step
    else:
        v *= momentum
        v += step
    w -= lr * v
    return v


def _batch_loss_and_grads(
    params: Mapping[str, np.ndarray],
    model: ModelSpec,
    trainer: TrainerSpec,
    xb: np.ndarray,
    yb: np.ndarray | None,
    rng: np.random.Generator,
    grads: Mapping[str, np.ndarray],
) -> float:
    """The batch loss; its gradient is written into the arrays of ``grads``."""
    if trainer.method == "supervised":
        fp = forward(params, model, xb)
        loss, grad_logits = loss_xent(fp.logits, yb)
        for name, g in backward(params, model, fp, None, grad_logits=grad_logits).items():
            grads[name][...] = g
        return loss
    view_a, view_b = make_views(xb, trainer.augment_noise_std, trainer.augment_mask_prob, rng)
    fa = forward(params, model, view_a)
    fb = forward(params, model, view_b)
    if trainer.method == "simclr":
        loss, ga, gb = loss_ntxent(fa.z, fb.z, trainer.temperature)
    else:
        loss, ga, gb = loss_barlow(fa.z, fb.z, trainer.lambda_offdiag)
    grads_a = backward(params, model, fa, ga)
    grads_b = backward(params, model, fb, gb)
    for name, g in grads_a.items():
        np.add(g, grads_b[name], out=grads[name])
    return loss


def train_local(
    client_data,
    init: ParamSet,
    trainer: TrainerSpec,
    model: ModelSpec,
    rng: np.random.Generator,
    client_id: int | str = 0,
) -> ClientUpdate:
    """Train for ``local_epochs`` epochs of shuffled mini-batches from ``init``.

    Returns the final parameters, the client's sample count, and the mean
    loss over the final epoch (with ``local_epochs == 0``, a single
    evaluation pass supplies the loss and the parameters are untouched).
    Momentum buffers live and die inside this call. Deterministic given the
    rng state.
    """
    x = np.asarray(client_data.features, dtype=np.float64)
    y = np.asarray(client_data.labels, dtype=np.int64)
    n = x.shape[0]
    if n == 0:
        raise ValueError(f"client {client_id}: empty dataset")
    if trainer.is_ssl and n < 2:
        raise ValueError(
            f"client {client_id}: cannot assemble a batch of 2 from {n} sample(s)"
        )
    validate_model_for_trainer(model, trainer)

    # One private copy of the weights, updated in place; the layer views share its memory.
    w, v = init.vector.copy(), None
    g = np.empty_like(w)
    params, grads = segments(w, init.layout), segments(g, init.layout)
    epoch_loss = math.nan
    passes = max(trainer.local_epochs, 1)
    evaluate_only = trainer.local_epochs == 0
    for _ in range(passes):
        order = rng.permutation(n)
        total_loss = 0.0
        total_used = 0
        for start in range(0, n, trainer.batch_size):
            batch_idx = order[start : start + trainer.batch_size]
            if trainer.is_ssl and batch_idx.size < 2:
                continue  # a lone trailing sample has no contrastive partner
            xb = x[batch_idx]
            yb = y[batch_idx] if trainer.method == "supervised" else None
            loss = _batch_loss_and_grads(params, model, trainer, xb, yb, rng, grads)
            if not evaluate_only:
                v = sgd_step(w, g, v, trainer.lr, trainer.momentum, trainer.weight_decay)
                if not np.isfinite(w).all():
                    bad = next(name for name, a in params.items() if not np.isfinite(a).all())
                    raise ValueError(f"layer {bad!r} contains non-finite values")
            total_loss += loss * batch_idx.size
            total_used += batch_idx.size
        epoch_loss = total_loss / total_used
    return ClientUpdate(client_id, ParamSet.from_vector(w, init.layout), n, float(epoch_loss))
