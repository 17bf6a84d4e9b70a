"""Toy-scale local training: MLP encoder/projector with exact analytic gradients.

The model is a chain of linear layers with an elementwise activation between
consecutive layers (never after the last one): the representation is the raw
output of the final encoder layer, the projection the raw output of the final
projector layer. Supervised models replace the projector with a linear
classifier head on the raw representation. One private tuple, :func:`_layers`,
states those layers; names, init, both passes and the checkpoint check read it.

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

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .aggregation import ClientUpdates
from .params import IncompatibleModelError, Layout, ParamSet, segments
from .params import _require_finite as _require_finite_layers  # learners' own _require_finite checks embeddings

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


@functools.lru_cache(maxsize=64)
def _layers(spec: ModelSpec) -> tuple[tuple[str, str, int, int, bool], ...]:
    """The model's linear layers as (weight name, bias name, fan_in, fan_out, activated), in parameter order.

    The encoder's layers come first, then the projector's or the head. Each
    layer's weight is (fan_in, fan_out) and its bias (fan_out,); ``activated``
    layers (all but the first and the head) read their input through the
    activation. Cached for the last 64 specs (frozen, so hashable); a tuple, so no caller can change the cache.
    """
    n_enc = len(spec.encoder_dims) - 1
    dims = spec.encoder_dims + spec.projector_dims[1:]
    layers = [
        (f"encoder.{i}" if i < n_enc else f"projector.{i - n_enc}", fan_in, fan_out, i > 0)
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:]))
    ]
    if spec.head_classes is not None:
        layers.append(("head", spec.representation_dim, spec.head_classes, False))
    return tuple((f"{prefix}.weight", f"{prefix}.bias", *rest) for prefix, *rest in layers)


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
    return [name for weight, bias, *_ in _layers(spec) for name in (weight, bias)]


def init_params(spec: ModelSpec, rng: np.random.Generator) -> ParamSet:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    arrays: dict[str, np.ndarray] = {}
    for weight, bias, fan_in, fan_out, _ in _layers(spec):
        bound = 1.0 / math.sqrt(fan_in)
        arrays[weight] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        arrays[bias] = rng.uniform(-bound, bound, size=fan_out)
    return ParamSet.from_arrays(arrays)


def require_layers(params: ParamSet, spec: ModelSpec) -> None:
    """Raise :class:`IncompatibleModelError` at the first layer of ``spec`` that ``params`` lacks or misshapes.

    Layers of ``params`` that ``spec`` does not have are ignored.
    """
    shapes = dict(params.layout)
    for weight, bias, fan_in, fan_out, _ in _layers(spec):
        for name, shape in ((weight, (fan_in, fan_out)), (bias, (fan_out,))):
            if name not in shapes:
                raise IncompatibleModelError(f"missing layer {name!r}")
            if shapes[name] != shape:
                raise IncompatibleModelError(f"layer {name!r}: shape {shapes[name]}, expected {shape}")


def _act(x: np.ndarray, kind: str, out=None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out) if kind == "relu" else np.tanh(x, out=out)


def _act_grad(pre: np.ndarray, kind: str, out=None) -> np.ndarray:
    if kind == "relu":
        return np.greater(pre, 0, out=out)  # a bool array scales like its 0.0/1.0 floats
    t = np.tanh(pre, out=out)
    return np.subtract(1.0, np.multiply(t, t, out=t), out=t)


@dataclass
class ForwardPass:
    """Everything the backward pass needs; ``pre[-1]`` is the output: projection, logits or representation."""

    chain_inputs: list[np.ndarray]  # input fed to each linear layer
    pre: list[np.ndarray]  # raw linear outputs, per layer


def forward(params: Mapping[str, np.ndarray], spec: ModelSpec, batch: np.ndarray, out=None) -> ForwardPass:
    """Run the full encoder (+projector or +head) chain on a batch; the output is ``pre[-1]``.

    ``params`` maps names to shaped arrays and ``batch`` is (B, D). With a
    leading client axis, ``params`` maps names to (K, *shape) stacks and
    ``batch`` is (K, B, D): client k's batch runs through client k's layers,
    and every output keeps the leading axis. Given ``out``, a ForwardPass,
    layer i writes its output into ``out.pre[i]`` and an activated layer its input into ``out.chain_inputs[i]``.
    """
    a = np.asarray(batch, dtype=np.float64)  # each layer's input, then its output
    if a.ndim < 2 or a.shape[-1] != spec.input_dim:
        raise ValueError(
            f"batch of width {a.shape[-1] if a.ndim >= 2 else '?'} "
            f"does not match input width {spec.input_dim}"
        )
    inputs: list[np.ndarray] = []
    pre: list[np.ndarray] = []
    for i, (weight, bias, _, _, activated) in enumerate(_layers(spec)):
        if activated:
            a = _act(a, spec.activation, out and out.chain_inputs[i])
        inputs.append(a)
        a = np.matmul(a, params[weight], out=out and out.pre[i])
        a += params[bias][..., None, :]
        pre.append(a)
    return ForwardPass(inputs, pre)


# ``encode`` runs this many rows at a time: its transient is one block's hidden layers, flat in the row count.
ENCODE_ROWS = 1024


def encode(params: Mapping[str, np.ndarray], spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    """``forward(params, spec, x).pre[-1]`` for a (B, D) ``x``, when no backward pass follows, in blocks of rows.

    Blocks are ``ENCODE_ROWS`` rows, the last taking the rest but never one row
    (numpy takes a one-row product through gemv, which rounds otherwise). Each
    block's last layer goes into its rows of the one (B, d_out) result; each
    hidden layer reuses one (block, width) array, activated in place as the
    next layer's input. So the pass holds its output plus one block, and its
    bytes are the plain pass's where the BLAS rounds a row alike in any block.
    """
    layers, starts = _layers(spec), range(0, max(len(x) - 1, 1), ENCODE_ROWS)  # an empty x runs once: width check
    out = np.empty((len(x), layers[-1][3]))
    hidden = [np.empty((min(len(x), ENCODE_ROWS + 1), fan_out)) for *_, fan_out, _ in layers[:-1]]
    for start, stop in zip(starts, [*starts[1:], len(x)]):
        pre = [h[: stop - start] for h in hidden] + [out[start:stop]]
        inputs = [pre[i - 1] if activated else None for i, (*_, activated) in enumerate(layers)]
        forward(params, spec, x[start:stop], ForwardPass(inputs, pre))
    return out


def backward(
    params: Mapping[str, np.ndarray], spec: ModelSpec, fp: ForwardPass, grad: np.ndarray, out=None
) -> dict[str, np.ndarray]:
    """Gradients for every parameter given ``grad``, d(loss)/d(the pass's output ``fp.pre[-1]``).

    With a leading client axis (see :func:`forward`) every gradient is a
    (K, *shape) stack. Given ``out``, a dict, each gradient is written into
    ``out[name]``, and the gradients along the chain overwrite ``fp``'s arrays
    once they have been read.
    """
    grads: dict[str, np.ndarray] = {} if out is None else out
    g = np.asarray(grad, dtype=np.float64)
    for i, (weight, bias, _, _, activated) in reversed(list(enumerate(_layers(spec)))):
        grads[weight] = np.matmul(fp.chain_inputs[i].mT, g, out=out and out[weight])
        grads[bias] = g.sum(axis=-2, out=out and out[bias])
        if i > 0:
            g = np.matmul(g, params[weight].mT, out=out and fp.chain_inputs[i])
            if activated:
                g *= _act_grad(fp.pre[i - 1], spec.activation, out and fp.pre[i - 1])
    return grads


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``, taken down a class-major copy: numpy reduces a narrow last axis row by row.

    Max is exact: only which of a tied +0.0 and -0.0 is kept can differ. The
    softmax losses subtract this shift, and a tie leaves that row's exp-sum
    >= 2, so its log is non-zero and no output bit changes. A NaN propagates
    as in ``a.max``, and such rows end in the losses' non-finite errors.
    """
    c = a.shape[-1]
    return np.maximum.reduce(a.reshape(-1, c).T.copy()).reshape(*a.shape[:-1], 1)


def _log_softmax(logits: np.ndarray, out: np.ndarray, scratch) -> np.ndarray:
    """Each row of ``logits`` less its log-sum-exp, taken after shifting the row by its max.

    The log-softmax is written into ``out`` (``logits``' shape; it may be
    ``logits``), the exps and row sums into ``scratch``: C-ordered arrays of
    ``logits``' shape and of its row sums' (keepdims).
    """
    temp, sums = scratch
    shifted = np.subtract(logits, _row_max(logits), out=out)
    sums = np.add.reduce(np.exp(shifted, out=temp), axis=-1, keepdims=True, out=sums)
    return np.subtract(shifted, np.log(sums, out=sums), out=shifted)


def _xent_grad(logp: np.ndarray, at: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Mean cross-entropy's gradient (softmax - onehot)/batch from the log-softmax ``logp``.

    ``at`` holds each label's index in the flattened logits. The
    gradient is written into ``out`` (it may be ``logp``), which must
    be C-ordered: on any other layout the label subtraction would land in a copy.
    """
    grad = np.exp(logp, out=out)
    grad.reshape(-1)[at] -= 1.0
    return np.divide(grad, logp.shape[-2], out=grad)


def _xent_loss(logp: np.ndarray, at: np.ndarray) -> float | np.ndarray:
    """Mean cross-entropy over axis -2 of the log-softmax ``logp``; ``at`` as in :func:`_xent_grad`, one per row."""
    return -(np.add.reduce(logp.reshape(-1)[at].reshape(logp.shape[:-1]), axis=-1) / logp.shape[-2])


def _require_finite(*embeddings: np.ndarray) -> None:
    if not all(np.isfinite(z).all() for z in embeddings):
        raise ValueError("non-finite embedding: the model diverged")


def _two_views(z_a: np.ndarray, z_b: np.ndarray, loss: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Both views' embeddings as float64 and their batch size; ``loss`` names the loss that needs 2 rows."""
    z_a, z_b = np.asarray(z_a, dtype=np.float64), np.asarray(z_b, dtype=np.float64)
    if z_a.shape != z_b.shape:
        raise ValueError("view embeddings must have the same shape")
    if z_a.shape[-2] < 2:
        raise ValueError(f"{loss} loss needs a batch of at least 2")
    return z_a, z_b, z_a.shape[-2]


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
    z_a, z_b, b = _two_views(z_a, z_b, "contrastive")
    tau = float(temperature)

    z = np.concatenate([z_a, z_b], axis=-2)  # (..., 2B, D): both views' rows, normalized in place
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    if not (norms > 0).all():
        _require_finite(z)  # a NaN row fails the test above too
        raise ValueError("cannot normalize a zero embedding row")
    s = np.divide(z, norms, out=z)

    anchors = np.arange(2 * b)
    pos = (anchors + b) % (2 * b)
    sim = (s @ s.mT) / tau
    sim[..., anchors, anchors] = -np.inf  # anchors never pair with themselves

    row_max = _row_max(sim)
    lse = row_max[..., 0] + np.log(np.exp(sim - row_max).sum(axis=-1))
    loss = (lse - sim[..., anchors, pos]).mean(axis=-1)
    if not np.isfinite(loss).all():
        _require_finite(z_a, z_b)  # an inf row normalizes to NaN

    # d(loss)/d(sim): softmax over each anchor's candidates minus the positive.
    soft = np.exp(sim - lse[..., None])
    soft[..., anchors, pos] -= 1.0
    soft /= 2 * b
    soft[..., anchors, anchors] = 0.0

    grad_s = ((soft + soft.mT) @ s) / tau
    # Through row normalization u = z/|z|: dz = (g - (g.u) u)/|z|, every row of both views at once.
    grad = (grad_s - (grad_s * s).sum(axis=-1, keepdims=True) * s) / norms
    return loss, grad[..., :b, :], grad[..., b:, :]


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
    z_a, z_b, n = _two_views(z_a, z_b, "redundancy")
    lam = float(lambda_offdiag)

    a_hat, a_centered, a_std = _standardize(z_a)
    b_hat, b_centered, b_std = _standardize(z_b)
    corr = (a_hat.mT @ b_hat) / n
    loss = redundancy_loss_from_corr(corr, lam)

    dims = np.arange(corr.shape[-1])
    grad_corr = 2.0 * lam * corr
    grad_corr[..., dims, dims] = -2.0 * (1.0 - corr[..., dims, dims])
    grad_a_hat = (b_hat @ grad_corr.mT) / n
    grad_b_hat = (a_hat @ grad_corr) / n
    grad_a = _standardize_backward(grad_a_hat, a_centered, a_std)
    grad_b = _standardize_backward(grad_b_hat, b_centered, b_std)
    return loss, grad_a, grad_b


def make_views(batch: np.ndarray, noise_std: float, mask_prob: float, rngs, out) -> tuple[np.ndarray, np.ndarray]:
    """Two independently perturbed copies of each batch: additive Gaussian noise, then zero-masking.

    ``batch`` is a (K, B, D) stack of K clients' batches and ``rngs`` their
    K generators. Each client draws view a's noise and mask, then view b's,
    from its own generator, so its views are bit-identical to making them
    alone. ``out`` is a (2, 2, K, B, D) array: the views are written into
    ``out[0]`` and the mask draws into ``out[1]``.
    """
    batch = np.asarray(batch, dtype=np.float64)
    noise, mask = out
    for k, g in enumerate(rngs):
        for view in range(2):
            g.standard_normal(out=noise[view, k])
            g.random(out=mask[view, k])
    noise *= noise_std
    noise += 0.0  # Generator.normal's loc + scale * z, down to the sign of zero
    noise += batch
    noise *= np.greater_equal(mask, mask_prob, out=mask)
    return noise[0], noise[1]


def sgd_step(
    w: np.ndarray, g: np.ndarray, v: np.ndarray, lr: float, momentum: float, weight_decay: float, out=None
) -> None:
    """One in-place SGD-with-momentum update of flat arrays: v <- m*v + (g + wd*w); w <- w - lr*v.

    ``v`` is the velocity of one training session; it starts at zero.
    ``w`` and ``v`` are updated in place. The arrays may be rows of a
    (K, P) block: the update is elementwise. ``out`` (``w``'s shape) holds the intermediate terms.
    """
    if g.shape != w.shape:
        raise ValueError(f"gradient of shape {g.shape} for weights of shape {w.shape}")
    step = np.add(g, np.multiply(weight_decay, w, out=out), out=out)
    v *= momentum
    v += step
    w -= np.multiply(lr, v, out=step)


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


def _batches(a: np.ndarray, m: int, b: int) -> np.ndarray:
    """The first m * b rows (axis -2) of ``a`` as m batches of b: a view that is C-ordered along its last three axes."""
    return a[..., : m * b, :].reshape(*a.shape[:-2], m, b, a.shape[-1])


class Workspace:
    """One round's local training, and the arrays it writes into, kept from one :func:`train_clients` call to the next.

    The round's sessions are the K rows of the (K, P) blocks of one (4, K, P) array: weights, velocities,
    gradients, and a spare that holds view b's gradients in an SSL step and is ``sgd_step``'s scratch in every
    step. They are sorted by (steps desc, last batch size desc): the rows taking step t of an epoch are a prefix,
    and those sharing a batch size at it a contiguous run, so every group's rows are a slice of the blocks. A
    step gathers a group's batch in one call, at indices into the round's rows that each epoch writes from the
    clients' shuffles; supervised labels are checked once a round, by :func:`_train_round`. The per-batch arrays
    (inputs, SSL views and mask draws, each layer's outputs and activations, the log-softmax's exps and row sums)
    are sized (views, K * batch_size, width); rows lo:hi at batch size b use their first (hi - lo) * b rows as one
    C-ordered (hi - lo, b, width) block. The loss gradient overwrites the pass's output once the loss has read it.
    A supervised round makes no views. A round of another K, batch size or model makes them anew. Every step
    overwrites them, so nothing returned is a view of them.
    """

    _size: tuple = ()  # (width, model, is_ssl, rows, batch size) of the arrays

    def _fit(self, k: int, width: int, model: ModelSpec, trainer: TrainerSpec) -> None:
        """Make the arrays anew unless they hold k rows of ``width`` parameters at ``trainer``'s batch size."""
        n = k * trainer.batch_size
        size = (width, model, trainer.is_ssl, k, trainer.batch_size)
        if self._size == size:
            return
        self._size, lead, layers = size, (2,) if trainer.is_ssl else (), _layers(model)  # lead: a views axis
        self.rows = np.empty((4, k, width))  # weights, velocities, gradients, spare
        self.x = np.empty((n, model.input_dim))
        self.views = np.empty((2, 2, n, model.input_dim)) if lead else None  # SSL views, then their mask draws
        self.pre = [np.empty((*lead, n, fan_out)) for *_, fan_out, _ in layers]
        self.act = [np.empty((*lead, n, fan_in)) if activated else None for *_, fan_in, _, activated in layers]
        self.xent = None if lead else (np.empty((n, layers[-1][3])), np.empty((n, 1)))  # log-softmax exps, row sums

    def _train(self, sessions: list[_Session], inits: list[np.ndarray], layout: Layout,
               trainer: TrainerSpec, model: ModelSpec) -> np.ndarray:
        """Train the sorted ``sessions`` from ``inits``: each row's loss x batch size, summed over the final epoch.

        The trained weights are left in ``rows[0]``. The first ValueError of any row propagates.
        """
        k, supervised = len(sessions), not trainer.is_ssl
        self._fit(k, len(inits[0]), model, trainer)
        w, v, g, spare = self.rows
        np.stack(inits, out=w)
        v.fill(0.0)
        total = np.zeros(k)
        self._sessions = sessions
        self._params, self._grads = segments(w, layout), segments(self.rows[2:], layout)  # grads: (2, K, *shape)
        steps = [list(self._groups(t)) for t in range(len(sessions[0].sizes))]  # row 0 takes every step
        x = np.concatenate([s.x for s in sessions])  # the round's rows
        idx = np.zeros((k, len(steps), trainer.batch_size), dtype=np.int64)  # [k, t, :b]: row k's batch at step t
        starts = np.cumsum([0] + [len(s.x) for s in sessions])
        if supervised:
            y, at, offsets = np.concatenate([s.y for s in sessions]), np.empty_like(idx), np.zeros_like(idx)
            for t, groups in enumerate(steps):  # each sample's first index in its group's flattened logits
                for lo, hi, b in groups:
                    offsets[lo:hi, t, :b] = np.arange((hi - lo) * b).reshape(hi - lo, b) * model.head_classes
        train = trainer.local_epochs > 0
        hyper = (trainer.lr, trainer.momentum, trainer.weight_decay)
        for epoch in range(max(trainer.local_epochs, 1)):
            for s, row, start in zip(sessions, idx, starts):
                used = sum(s.sizes)  # all n, or n - 1 where SSL skips a lone last sample
                np.add(s.rng.permutation(len(s.x))[:used], start, out=row.reshape(-1)[:used])
            if supervised:  # each sample's label's index in its group's flattened logits
                np.add(np.take(y, idx, out=at, mode="clip"), offsets, out=at)  # idx is in range; "raise" buffers
            total[:] = 0.0
            for t, groups in enumerate(steps):
                for lo, hi, b in groups:
                    batch = (slice(lo, hi), t, slice(None, b))
                    loss = self._group_loss(lo, hi, b, x, idx[batch], at[batch] if supervised else None, trainer, model)
                    if train:
                        sgd_step(w[lo:hi], g[lo:hi], v[lo:hi], *hyper, out=spare[lo:hi])
                    total[lo:hi] += loss * b
                if train:
                    _require_finite_layers(w[:hi], layout)
        return total

    def _groups(self, t: int):
        """(lo, hi, batch size) for each run of rows that take step ``t`` with one batch size."""
        active = sum(len(s.sizes) > t for s in self._sessions)
        lo = 0
        while lo < active:
            b, hi = self._sessions[lo].sizes[t], lo + 1
            while hi < active and self._sessions[hi].sizes[t] == b:
                hi += 1
            yield lo, hi, b
            lo = hi

    def _group_loss(self, lo: int, hi: int, b: int, x: np.ndarray, rows: np.ndarray, at: np.ndarray | None,
                    trainer: TrainerSpec, model: ModelSpec) -> np.ndarray:
        """Rows lo:hi's losses on their batches, the (hi - lo, b) ``rows`` of ``x``; gradients go in the gradient rows.

        A supervised group's cross-entropy runs in place in its logits, at its labels' flat ``at`` indices. The two SSL
        views take one pass as a (2, K, B, D) stack, their loss gradients overwrite its projections, and view b's
        gradients, written into the spare rows, are added into view a's.
        """
        m = hi - lo
        x = np.take(x, rows, axis=0, out=_batches(self.x, m, b), mode="clip")
        if trainer.is_ssl:
            views = _batches(self.views, m, b)
            make_views(x, trainer.augment_noise_std, trainer.augment_mask_prob, [s.rng for s in self._sessions[lo:hi]],
                       out=views)
            x = views[0]  # both views, as one stack
        params = {name: a[lo:hi] for name, a in self._params.items()}
        out = ForwardPass([a if a is None else _batches(a, m, b) for a in self.act],
                          [_batches(a, m, b) for a in self.pre])
        fp = forward(params, model, x, out)
        grads = {name: a[:, lo:hi] if trainer.is_ssl else a[0, lo:hi] for name, a in self._grads.items()}
        if not trainer.is_ssl:
            logp = _log_softmax(fp.pre[-1], fp.pre[-1], [_batches(a, m, b) for a in self.xent])
            loss = _xent_loss(logp, at)
            backward(params, model, fp, _xent_grad(logp, at, logp), grads)
            return loss
        if trainer.method == "simclr":
            loss, ga, gb = loss_ntxent(*fp.pre[-1], trainer.temperature)
        else:
            loss, ga, gb = loss_barlow(*fp.pre[-1], trainer.lambda_offdiag)
        backward(params, model, fp, np.stack([ga, gb], out=fp.pre[-1]), grads)
        np.add(self.rows[2, lo:hi], self.rows[3, lo:hi], out=self.rows[2, lo:hi])  # view a's plus view b's
        return loss


def _train_round(clients, trainer: TrainerSpec, model: ModelSpec, first: ParamSet, ws) -> tuple[np.ndarray, np.ndarray]:
    """Check and train ``clients`` as one block: (final weights, mean final-epoch losses) in round order.

    Every ``init`` must be compatible with ``first``, the round's first
    client's, and every supervised label in the head's classes. The first ValueError of any client propagates.
    """
    sessions: list[_Session] = []
    for _, data, init, rng in clients:
        n = len(data.features)
        if n == 0:
            raise ValueError("empty dataset")
        if trainer.is_ssl and n < 2:
            raise ValueError(f"cannot assemble a batch of 2 from {n} sample(s)")
        first.require_compatible(init)
        x, y = np.asarray(data.features, dtype=np.float64), np.asarray(data.labels, dtype=np.int64)
        sessions.append(_Session(x, y, rng, _batch_sizes(n, trainer)))
    validate_model_for_trainer(model, trainer)
    require_layers(first, model)
    extra = dict(first.layout).keys() - layer_names(model)
    if extra:  # training would write no gradient for them
        raise IncompatibleModelError(f"layers {sorted(extra)} are not in the model")
    if not trainer.is_ssl and any(s.y.min() < 0 or s.y.max() >= model.head_classes for s in sessions):
        raise ValueError(f"label outside [0, {model.head_classes})")  # here, once: no step checks them

    order = sorted(range(len(sessions)), key=lambda k: (-len(sessions[k].sizes), -sessions[k].sizes[-1]))
    total = ws._train([sessions[k] for k in order], [clients[k][2].vector for k in order], first.layout, trainer, model)
    back = np.argsort(order)
    return ws.rows[0, back], total[back] / [sum(s.sizes) for s in sessions]


def train_clients(clients, trainer: TrainerSpec, model: ModelSpec, workspace: Workspace) -> ClientUpdates:
    """Train a round's clients together, each for ``local_epochs`` epochs of shuffled mini-batches.

    ``clients`` lists ``(client_id, data, init, rng)`` in round order
    (ascending client id, as :class:`ClientUpdates` requires). The
    clients are the rows of one (K, P) weight block (see :class:`Workspace`).
    Each epoch writes every client's shuffle as indices into the round's rows, so
    a step gathers a group's batch in one call, then runs the forward pass, loss,
    backward pass and SGD step once per group of rows that share a batch size; a
    client that has finished its epoch is not touched. Supervised labels are
    checked against the head's classes once a round, not at each step. Each
    client draws its permutations and views from its own ``rng`` as it would
    alone, so each row is bit-identical to training that client by itself (K=1).

    Returns the block's rows in round order as one :class:`ClientUpdates`:
    the final parameters, the sample counts and the mean losses over the
    final epoch (with ``local_epochs == 0``, a single evaluation pass
    supplies the loss and the parameters are untouched). Training writes
    into ``workspace``; the result never aliases it.

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
        weights, losses = _train_round(clients, trainer, model, first, workspace)
    except ValueError:
        for (*_, rng), state in zip(clients, states):
            rng.bit_generator.state = state
        for client in clients:
            try:
                _train_round([client], trainer, model, first, workspace)
            except ValueError as exc:
                raise ClientTrainingError(client[0], str(exc)) from exc
        raise  # every client trains alone: the failure is the block's, not a client's
    ids, counts = [cid for cid, *_ in clients], [len(data.features) for _, data, *_ in clients]
    return ClientUpdates(ids, weights, first.layout, counts, losses)
