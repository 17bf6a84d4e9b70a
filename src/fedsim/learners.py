"""Toy-scale local training: MLP encoder/projector with exact analytic gradients.

The model is a chain of linear layers with an elementwise activation between
consecutive layers (never after the last one): the representation ``h`` is
the raw output of the final encoder layer, the projection ``z`` the raw
output of the final projector layer. Supervised models replace the projector
with a linear classifier head on the raw ``h``. One private list,
:func:`_layers`, states those layers; names, init, both passes and the
checkpoint check read it.

All gradients (cross-entropy, the contrastive loss, the cross-correlation
redundancy loss, and full backprop through the chain) are written out by
hand and validated against central finite differences in the test suite.

The passes and losses also take a leading client axis: K clients' (K, B, D)
batches through their (K, *shape) layers give K independent results, each
bit-identical to the one-client call. ``train_clients`` trains a round's
clients that way, as the rows of one (K, P) weight block, and names a failing
client by training the round's clients again one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .aggregation import ClientUpdates
from .params import IncompatibleModelError, Layout, ParamSet, segments

ACTIVATIONS = ("relu", "tanh")
TRAINER_METHODS = ("supervised", "simclr", "barlow_twins")

# Added to per-dimension batch std before standardizing embeddings, so a
# constant dimension yields zero (not NaN) rather than dividing by zero.
BARLOW_STD_EPS = 1e-8


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths of the encoder and of an optional projector or head (not both)."""

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
        if self.projector_dims and self.head_classes is not None:
            raise ValueError("a model has a projector or a classifier head, not both")

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
    """SSL methods need a projector, supervised training a head."""
    if trainer.is_ssl and not model.projector_dims:
        raise ValueError(f"{trainer.method} requires projector_dims")
    if not trainer.is_ssl and model.head_classes is None:
        raise ValueError("supervised training requires head_classes")


def _layers(spec: ModelSpec) -> list[tuple[str, int, int]]:
    """The model's linear layers as (name prefix, fan_in, fan_out), in parameter order.

    The encoder's layers come first, then the projector's or the head. Each
    layer's weight is (fan_in, fan_out) and its bias (fan_out,).
    """
    n_enc = len(spec.encoder_dims) - 1
    dims = spec.encoder_dims + spec.projector_dims[1:]
    layers = [
        (f"encoder.{i}" if i < n_enc else f"projector.{i - n_enc}", fan_in, fan_out)
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:]))
    ]
    if spec.head_classes is not None:
        layers.append(("head", spec.representation_dim, spec.head_classes))
    return layers


def projector_start(layout: Layout) -> int:
    """Leading (backbone) parameters before the projector, which :func:`_layers` puts last; all if none."""
    start = 0
    for name, shape in layout:
        if name.startswith("projector."):
            break
        start += math.prod(shape)
    return start


def layer_names(spec: ModelSpec) -> list[str]:
    """Canonical parameter order: encoder, projector, then head."""
    return [f"{prefix}.{kind}" for prefix, _, _ in _layers(spec) for kind in ("weight", "bias")]


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ParamSet:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    arrays: dict[str, np.ndarray] = {}
    for prefix, fan_in, fan_out in _layers(spec):
        bound = 1.0 / math.sqrt(fan_in)
        arrays[f"{prefix}.weight"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        arrays[f"{prefix}.bias"] = rng.uniform(-bound, bound, size=fan_out)
    return ParamSet.from_arrays(arrays)


def require_layers(params: ParamSet, spec: ModelSpec) -> None:
    """Raise :class:`IncompatibleModelError` at the first layer of ``spec`` that ``params`` lacks or misshapes.

    Layers of ``params`` that ``spec`` does not have are ignored.
    """
    shapes = dict(params.layout)
    for prefix, fan_in, fan_out in _layers(spec):
        for name, shape in ((f"{prefix}.weight", (fan_in, fan_out)), (f"{prefix}.bias", (fan_out,))):
            if name not in shapes:
                raise IncompatibleModelError(f"missing layer {name!r}")
            if shapes[name] != shape:
                raise IncompatibleModelError(f"layer {name!r}: shape {shapes[name]}, expected {shape}")


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
    pre: list[np.ndarray]  # raw linear outputs, per layer
    h: np.ndarray
    z: np.ndarray | None
    logits: np.ndarray | None


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (of every stacked matrix)."""
    return a.swapaxes(-1, -2)


def forward(params: Mapping[str, np.ndarray], spec: ModelSpec, batch: np.ndarray) -> ForwardPass:
    """Run the full encoder (+projector or +head) chain on a batch.

    ``params`` maps names to shaped arrays and ``batch`` is (B, D). With a
    leading client axis, ``params`` maps names to (K, *shape) stacks and
    ``batch`` is (K, B, D): client k's batch runs through client k's layers,
    and every output keeps the leading axis.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != spec.input_dim:
        raise ValueError(
            f"batch of width {x.shape[-1] if x.ndim >= 2 else '?'} "
            f"does not match input width {spec.input_dim}"
        )
    inputs: list[np.ndarray] = []
    pre: list[np.ndarray] = []
    a = x
    for i, (prefix, _, _) in enumerate(_layers(spec)):
        if i > 0:  # the head reads the raw representation
            a = pre[-1] if prefix == "head" else _act(pre[-1], spec.activation)
        inputs.append(a)
        a = a @ params[f"{prefix}.weight"] + params[f"{prefix}.bias"][..., None, :]
        pre.append(a)
        if prefix.startswith("encoder."):
            h = a
    z = pre[-1] if spec.projector_dims else None
    logits = pre[-1] if spec.head_classes is not None else None
    return ForwardPass(inputs, pre, h, z, logits)


def backward(
    params: Mapping[str, np.ndarray], spec: ModelSpec, fp: ForwardPass, grad: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients for every parameter given ``grad``, d(loss)/d(the last layer's output).

    That output is ``z`` for SSL models, the logits for supervised ones and
    ``h`` for an encoder alone. With a leading client axis (see
    :func:`forward`) every gradient is a (K, *shape) stack.
    """
    grads: dict[str, np.ndarray] = {}
    g = np.asarray(grad, dtype=np.float64)
    for i, (prefix, _, _) in reversed(list(enumerate(_layers(spec)))):
        grads[f"{prefix}.weight"] = _t(fp.chain_inputs[i]) @ g
        grads[f"{prefix}.bias"] = g.sum(axis=-2)
        if i > 0:
            g = g @ _t(params[f"{prefix}.weight"])
            if prefix != "head":  # the head reads the raw representation
                g *= _act_grad(fp.pre[i - 1], spec.activation)
    return grads


def loss_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy and its gradient (softmax - onehot)/batch.

    ``logits`` is (B, C) with (B,) labels, or (K, B, C) with (K, B) labels
    for K clients; the loss is then one value per client.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.shape[:-1] != labels.shape:
        raise ValueError(f"{logits.shape[-2]} logit rows but {labels.shape[-1]} labels")
    n, c = logits.shape[-2:]
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"label outside [0, {c})")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    onehot = labels[..., None] == np.arange(c)
    loss = -np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0].mean(axis=-1)
    return loss, (np.exp(logp) - onehot) / n


def _require_finite(*embeddings: np.ndarray) -> None:
    if not all(np.isfinite(z).all() for z in embeddings):
        raise ValueError("non-finite embedding: the model diverged")


def loss_ntxent(
    z_a: np.ndarray, z_b: np.ndarray, temperature: float
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric normalized temperature-scaled contrastive loss.

    Rows are L2-normalized internally. Each of the 2B normalized embeddings
    anchors one term whose positive is the matching row of the other view and
    whose negatives are all remaining rows of both views; the loss is the
    mean over anchors. Returns exact gradients with respect to the raw
    (unnormalized) inputs. (K, B, D) embeddings of K clients give one loss
    per client.
    """
    z_a = np.asarray(z_a, dtype=np.float64)
    z_b = np.asarray(z_b, dtype=np.float64)
    if z_a.shape != z_b.shape:
        raise ValueError("view embeddings must have the same shape")
    b = z_a.shape[-2]
    if b < 2:
        raise ValueError("contrastive loss needs a batch of at least 2")
    tau = float(temperature)

    norms_a = np.linalg.norm(z_a, axis=-1, keepdims=True)
    norms_b = np.linalg.norm(z_b, axis=-1, keepdims=True)
    if not (norms_a > 0).all() or not (norms_b > 0).all():
        _require_finite(z_a, z_b)  # a NaN row fails the test above too
        raise ValueError("cannot normalize a zero embedding row")
    s = np.concatenate([z_a / norms_a, z_b / norms_b], axis=-2)  # (..., 2B, D), unit rows

    anchors = np.arange(2 * b)
    pos = (anchors + b) % (2 * b)
    sim = (s @ _t(s)) / tau
    sim[..., anchors, anchors] = -np.inf  # anchors never pair with themselves

    row_max = sim.max(axis=-1, keepdims=True)
    lse = row_max[..., 0] + np.log(np.exp(sim - row_max).sum(axis=-1))
    loss = (lse - sim[..., anchors, pos]).mean(axis=-1)
    if not np.isfinite(loss).all():
        _require_finite(z_a, z_b)  # an inf row normalizes to NaN

    # d(loss)/d(sim): softmax over each anchor's candidates minus the positive.
    soft = np.exp(sim - lse[..., None])
    soft[..., anchors, pos] -= 1.0
    soft /= 2 * b
    soft[..., anchors, anchors] = 0.0

    grad_s = ((soft + _t(soft)) @ s) / tau
    grad_u, grad_v = grad_s[..., :b, :], grad_s[..., b:, :]

    # Through row normalization u = z/|z|: dz = (g - (g.u) u)/|z|.
    ua, vb = s[..., :b, :], s[..., b:, :]
    grad_a = (grad_u - (grad_u * ua).sum(axis=-1, keepdims=True) * ua) / norms_a
    grad_b = (grad_v - (grad_v * vb).sum(axis=-1, keepdims=True) * vb) / norms_b
    return loss, grad_a, grad_b


def _standardize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = z.mean(axis=-2, keepdims=True)
    centered = z - mean
    std = np.sqrt((centered**2).mean(axis=-2, keepdims=True))
    return centered / (std + BARLOW_STD_EPS), centered, std


def _standardize_backward(
    grad_hat: np.ndarray, centered: np.ndarray, std: np.ndarray
) -> np.ndarray:
    n = centered.shape[-2]
    denom = std + BARLOW_STD_EPS
    g = (grad_hat - grad_hat.mean(axis=-2, keepdims=True)) / denom
    # d(std)/dx term; a constant dimension has no std direction to move along.
    coef = (grad_hat * centered).sum(axis=-2, keepdims=True) / (n * denom**2)
    g -= centered * np.divide(coef, std, out=np.zeros_like(coef), where=std > 0)
    return g


def redundancy_loss_from_corr(corr: np.ndarray, lambda_offdiag: float) -> float | np.ndarray:
    """sum_i (1 - C_ii)^2 + lambda * sum_{i != j} C_ij^2; exactly 0 at C == I.

    A (K, D, D) stack of correlation matrices gives one loss per matrix.
    """
    corr = np.asarray(corr, dtype=np.float64)
    dims = np.arange(corr.shape[-1])
    # A view, not corr[..., dims, dims]: that copy is column-major when K > 1, and
    # its row sums would then round differently from the one-client sum.
    diag = np.diagonal(corr, axis1=-2, axis2=-1)
    diag_matrix = np.zeros_like(corr)
    diag_matrix[..., dims, dims] = diag
    off = (corr - diag_matrix).reshape(*corr.shape[:-2], -1)
    return ((1.0 - diag) ** 2).sum(axis=-1) + lambda_offdiag * (off**2).sum(axis=-1)


def loss_barlow(
    z_a: np.ndarray, z_b: np.ndarray, lambda_offdiag: float
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Redundancy-reduction loss on the batch cross-correlation matrix.

    Embedding dimensions are standardized across the batch (mean 0, unit
    std, ddof 0) before correlating, so diagonal entries live in [-1, 1].
    Returns exact gradients with respect to the raw inputs, including the
    path through the standardization. (K, B, D) embeddings of K clients are
    standardized per client and give one loss per client.
    """
    z_a = np.asarray(z_a, dtype=np.float64)
    z_b = np.asarray(z_b, dtype=np.float64)
    if z_a.shape != z_b.shape:
        raise ValueError("view embeddings must have the same shape")
    n = z_a.shape[-2]
    if n < 2:
        raise ValueError("redundancy loss needs a batch of at least 2")
    lam = float(lambda_offdiag)

    a_hat, a_centered, a_std = _standardize(z_a)
    b_hat, b_centered, b_std = _standardize(z_b)
    corr = (_t(a_hat) @ b_hat) / n
    loss = redundancy_loss_from_corr(corr, lam)

    dims = np.arange(corr.shape[-1])
    grad_corr = 2.0 * lam * corr
    grad_corr[..., dims, dims] = -2.0 * (1.0 - corr[..., dims, dims])
    grad_a_hat = (b_hat @ _t(grad_corr)) / n
    grad_b_hat = (a_hat @ grad_corr) / n
    grad_a = _standardize_backward(grad_a_hat, a_centered, a_std)
    grad_b = _standardize_backward(grad_b_hat, b_centered, b_std)
    return loss, grad_a, grad_b


def make_views(batch: np.ndarray, noise_std: float, mask_prob: float, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Two independently perturbed copies of each batch: additive Gaussian noise, then zero-masking.

    ``batch`` is a (K, B, D) stack of K clients' batches and ``rngs`` their
    K generators. Each client draws view a's noise and mask, then view b's,
    from its own generator, so its views are bit-identical to making them
    alone.
    """
    batch = np.asarray(batch, dtype=np.float64)
    noise = np.empty((2, *batch.shape))
    mask = np.empty_like(noise)
    for k, g in enumerate(rngs):
        for view in range(2):
            g.standard_normal(out=noise[view, k])
            g.random(out=mask[view, k])
    noise *= noise_std
    noise += 0.0  # Generator.normal's loc + scale * z, down to the sign of zero
    noise += batch
    noise *= mask >= mask_prob
    return noise[0], noise[1]


def sgd_step(w: np.ndarray, g: np.ndarray, v: np.ndarray, lr: float, momentum: float, weight_decay: float) -> None:
    """One in-place SGD-with-momentum update of flat arrays: v <- m*v + (g + wd*w); w <- w - lr*v.

    ``v`` is the velocity of one training session; it starts at zero.
    ``w`` and ``v`` are updated in place. The arrays may be rows of a
    (K, P) block: the update is elementwise.
    """
    if g.shape != w.shape:
        raise ValueError(f"gradient of shape {g.shape} for weights of shape {w.shape}")
    v *= momentum
    v += g + weight_decay * w
    w -= lr * v


class ClientTrainingError(ValueError):
    """Local training of one client failed; the message is the cause's own."""

    def __init__(self, client_id: int | str, message: str):
        super().__init__(message)
        self.client_id = client_id


def _batch_sizes(n: int, trainer: TrainerSpec) -> list[int]:
    """One epoch's mini-batch sizes; SSL skips a lone trailing sample (it has no contrastive partner)."""
    sizes = [min(trainer.batch_size, n - start) for start in range(0, n, trainer.batch_size)]
    if trainer.is_ssl and sizes[-1] < 2:
        sizes.pop()
    return sizes


@dataclass
class _Session:
    """One client's training session: its data, RNG and mini-batch sizes."""

    x: np.ndarray
    y: np.ndarray
    rng: np.random.Generator
    sizes: list[int]
    perm: np.ndarray | None = None  # the current epoch's shuffle


class _Block:
    """A round's sessions as the rows of one (K, P) weight block, with gradient and velocity blocks.

    ``params`` and ``grads`` map each layer to its (K, *shape) view. Rows are
    sorted by (steps desc, last batch size desc), so the sessions taking step
    t of an epoch are a prefix of the rows and the ones sharing a batch size
    at that step are a contiguous run: every group is a slice of the block,
    never a gather.
    """

    def __init__(self, sessions: list[_Session], w: np.ndarray, layout):
        self.rows = sessions
        self.w = w
        self.v = np.zeros_like(w)
        self.g = np.empty_like(w)
        self.total = np.zeros(len(sessions))  # loss x batch size, summed over the current epoch
        self.params, self.grads = segments(self.w, layout), segments(self.g, layout)

    def groups(self, t: int):
        """(lo, hi, batch size) for each run of rows that take step ``t`` with one batch size."""
        active = sum(len(s.sizes) > t for s in self.rows)
        lo = 0
        while lo < active:
            b, hi = self.rows[lo].sizes[t], lo + 1
            while hi < active and self.rows[hi].sizes[t] == b:
                hi += 1
            yield lo, hi, b
            lo = hi

    def inputs(self, lo: int, hi: int, start: int, b: int, trainer: TrainerSpec) -> tuple[np.ndarray, np.ndarray]:
        """Rows lo:hi's next batches, stacked: (features, labels), or the two SSL views."""
        batches = [(s, s.perm[start : start + b]) for s in self.rows[lo:hi]]
        x = np.stack([s.x[idx] for s, idx in batches])
        if trainer.method == "supervised":
            return x, np.stack([s.y[idx] for s, idx in batches])
        return make_views(x, trainer.augment_noise_std, trainer.augment_mask_prob, [s.rng for s, _ in batches])


def _group_loss(block: _Block, lo: int, hi: int, inputs, model: ModelSpec, trainer: TrainerSpec) -> np.ndarray:
    """Rows lo:hi's batch losses; their gradients are written into the block's gradient rows.

    The two SSL views take one pass as a (2, K, B, D) stack, and each gradient's two halves are added.
    """
    params = {name: a[lo:hi] for name, a in block.params.items()}
    grads = {name: a[lo:hi] for name, a in block.grads.items()}
    if trainer.method == "supervised":
        fp = forward(params, model, inputs[0])
        loss, grad_logits = loss_xent(fp.logits, inputs[1])
        for name, g in backward(params, model, fp, grad_logits).items():
            grads[name][...] = g
        return loss
    fp = forward(params, model, np.stack(inputs))
    if trainer.method == "simclr":
        loss, ga, gb = loss_ntxent(fp.z[0], fp.z[1], trainer.temperature)
    else:
        loss, ga, gb = loss_barlow(fp.z[0], fp.z[1], trainer.lambda_offdiag)
    for name, g in backward(params, model, fp, np.stack([ga, gb])).items():
        np.add(g[0], g[1], out=grads[name])
    return loss


def _train_block(block: _Block, trainer: TrainerSpec, model: ModelSpec) -> None:
    """Run every epoch on the block's rows; the first ValueError of any row propagates."""
    train = trainer.local_epochs > 0
    hyper = (trainer.lr, trainer.momentum, trainer.weight_decay)
    steps = len(block.rows[0].sizes)
    for epoch in range(max(trainer.local_epochs, 1)):
        for s in block.rows:
            s.perm = s.rng.permutation(len(s.x))
        block.total[:] = 0.0
        for t in range(steps):
            for lo, hi, b in block.groups(t):  # row 0 takes every step, so there is always a group
                inputs = block.inputs(lo, hi, t * trainer.batch_size, b, trainer)
                loss = _group_loss(block, lo, hi, inputs, model, trainer)
                if train:
                    sgd_step(block.w[lo:hi], block.g[lo:hi], block.v[lo:hi], *hyper)
                block.total[lo:hi] += loss * b
            if train and not np.isfinite(block.w[:hi]).all():
                bad = next(name for name, a in block.params.items() if not np.isfinite(a[:hi]).all())
                raise ValueError(f"layer {bad!r} contains non-finite values")


def _train_round(clients, trainer: TrainerSpec, model: ModelSpec, first: ParamSet) -> tuple[np.ndarray, np.ndarray]:
    """Check and train ``clients`` as one block: (final weights, mean final-epoch losses) in round order.

    Every ``init`` must be compatible with ``first``, the round's first
    client's. The first ValueError of any client propagates.
    """
    sessions: list[_Session] = []
    for cid, data, init, rng in clients:
        n = len(data.features)
        if n == 0:
            raise ValueError(f"client {cid}: empty dataset")
        if trainer.is_ssl and n < 2:
            raise ValueError(f"client {cid}: cannot assemble a batch of 2 from {n} sample(s)")
        first.require_compatible(init)
        x, y = np.asarray(data.features, dtype=np.float64), np.asarray(data.labels, dtype=np.int64)
        sessions.append(_Session(x, y, rng, _batch_sizes(n, trainer)))
    validate_model_for_trainer(model, trainer)

    order = sorted(range(len(sessions)), key=lambda k: (-len(sessions[k].sizes), -sessions[k].sizes[-1]))
    block = _Block([sessions[k] for k in order], np.stack([clients[k][2].vector for k in order]), first.layout)
    _train_block(block, trainer, model)
    back = np.argsort(order)
    return block.w[back], block.total[back] / [sum(s.sizes) for s in sessions]


def train_clients(clients, trainer: TrainerSpec, model: ModelSpec) -> ClientUpdates:
    """Train a round's clients together, each for ``local_epochs`` epochs of shuffled mini-batches.

    ``clients`` lists ``(client_id, data, init, rng)`` in round order
    (ascending client id, as :class:`ClientUpdates` requires). The
    clients are the rows of one (K, P) weight block (see :class:`_Block`).
    Each step runs the forward pass, loss, backward pass and SGD step once
    per group of rows that share a batch size; a client that has finished
    its epoch is not touched. Every client draws its permutations and views
    from its own ``rng`` as it would alone, so each row is bit-identical to
    training that client by itself (K=1).

    Returns the block's rows in round order as one :class:`ClientUpdates`:
    the final parameters, the sample counts and the mean losses over the
    final epoch (with ``local_epochs == 0``, a single evaluation pass
    supplies the loss and the parameters are untouched). Momentum buffers
    live and die inside this call.

    If the round fails, each ``rng`` is put back where the round started
    and the clients are trained again one at a time, in round order.
    :class:`ClientTrainingError` names the first that fails alone: the
    client a client-by-client loop would name.
    """
    if not clients:
        raise ValueError("train_clients: no clients")
    first = clients[0][2]
    states = [rng.bit_generator.state for *_, rng in clients]
    try:
        weights, losses = _train_round(clients, trainer, model, first)
    except ValueError:
        for (*_, rng), state in zip(clients, states):
            rng.bit_generator.state = state
        for client in clients:
            try:
                _train_round([client], trainer, model, first)
            except ValueError as exc:
                raise ClientTrainingError(client[0], str(exc)) from exc
        raise  # every client trains alone: the failure is the block's, not a client's
    ids, counts = [cid for cid, *_ in clients], [len(data.features) for _, data, *_ in clients]
    return ClientUpdates(ids, weights, first.layout, counts, losses)
