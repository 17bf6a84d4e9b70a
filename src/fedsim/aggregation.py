"""Server-side aggregation: every strategy is one coefficient matrix.

Layer l of the new global is ``sum_k C[k, l] * w_k(l)`` with
``C[k, l] = beta_k * s_k(l)``, where the strategy picks the base weight
beta_k and the scale s_k(l):

strategy      base beta_k                      scale s_k(l)
fedavg        samples: n_k / sum_j n_j         none: 1
fairavg       uniform: 1 / K                   none
loss          loss: softmax of -train_loss_k   none
mdawa         uniform                          model: whole-model divergence delta_k
ldawa         uniform                          layer: per-layer divergence delta_k(l)
ldawa_fedavg  samples                          layer
ldawa_loss    loss                             layer
ldawa_fedu    samples                          layer (client-side policy: engine)

There is deliberately no renormalization by the divergence sum: when clients
diverge the aggregate's norm contracts (an optional ``renormalize`` switch
divides each column of a divergence-scaled C by its sum, leaving columns
whose sum is within 1e-12 of zero as they are; it defaults off). Clients
then start from a smaller global, so on later rounds their cosine to it is
lower than under fedavg; acceptance 7b checks this. A round's clients are
the rows of :class:`ClientUpdates` in ascending client_id order, accumulated
in row order in one block or in chunks, so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import Divergence, DivergenceTerms
from .params import Layout, ParamSet, weighted_sum

# strategy -> (base rule, scale rule); the table in the module docstring.
RULES = {
    "fedavg": ("samples", None),
    "fairavg": ("uniform", None),
    "loss": ("loss", None),
    "mdawa": ("uniform", "model"),
    "ldawa": ("uniform", "layer"),
    "ldawa_fedavg": ("samples", "layer"),
    "ldawa_loss": ("loss", "layer"),
    "ldawa_fedu": ("samples", "layer"),
}
STRATEGIES = tuple(RULES)

# Strategies whose coefficients consume the uploaded client metadata.
METADATA_STRATEGIES = tuple(s for s, (base, _) in RULES.items() if base != "uniform")

# float64 holds every integer up to here: fedavg's n_k / sum_j n_j is exact for sample totals within it.
MAX_TOTAL_SAMPLES = 2**53


@dataclass(frozen=True, eq=False)
class ClientUpdates:
    """A round's trained client models as the rows of one block, plus the metadata they upload.

    Row k of ``weights``, a read-only (K, P) float64 block in ``layout``, is
    the model of client ``client_ids[k]``, with its sample count and mean
    local loss at ``num_samples[k]`` and ``train_loss[k]``. The ids strictly
    ascend and the counts total at most ``MAX_TOTAL_SAMPLES``. Every rule
    is checked once, here. ``weights`` is None when the rows arrive in
    chunks instead (see :func:`aggregate`).
    """

    client_ids: tuple
    weights: np.ndarray
    layout: Layout
    num_samples: np.ndarray
    train_loss: np.ndarray

    def __post_init__(self) -> None:
        ids, k = tuple(self.client_ids), len(self.client_ids)
        weights = None if self.weights is None else np.ascontiguousarray(self.weights, dtype=np.float64)
        num_samples, train_loss = np.array(self.num_samples), np.array(self.train_loss, dtype=np.float64)
        width = sum(math.prod(shape) for _, shape in self.layout)
        if not k:
            raise ValueError("no client updates")
        shape = getattr(weights, "shape", (k, width))  # no weights: the rows come in chunks
        if shape != (k, width) or num_samples.shape != (k,) or train_loss.shape != (k,):
            raise ValueError(
                f"{k} client ids and a layout of {width} parameters for weights of shape {shape}, "
                f"num_samples of shape {num_samples.shape} and train_loss of shape {train_loss.shape}"
            )
        if not all(a < b for a, b in zip(ids, ids[1:])):
            raise ValueError(f"client ids {ids} are not strictly ascending")
        counts = num_samples.tolist()
        for cid, n, loss in zip(ids, counts, train_loss.tolist()):
            if n < 1:
                raise ValueError(f"client {cid}: num_samples must be >= 1")
            if not math.isfinite(loss):
                raise ValueError(f"client {cid}: train_loss is not finite")
        if sum(counts) > MAX_TOTAL_SAMPLES:
            raise ValueError(f"num_samples total {sum(counts)} exceeds 2**53, beyond which float64 is inexact")
        for name, value in zip(("client_ids", "weights", "num_samples", "train_loss"),
                               (ids, weights, num_samples, train_loss)):
            object.__setattr__(self, name, value)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


@dataclass(frozen=True)
class AggregationSpec:
    """Which strategy to run and how.

    While ``round < warmup_rounds`` the effective strategy is forced to
    fedavg. ``fedu_threshold`` is the client-side policy parameter of
    ``ldawa_fedu``, consumed by the engine; None disables the policy.
    """

    strategy: str
    warmup_rounds: int = 0
    fedu_threshold: float | None = None
    renormalize: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r} (expected one of {', '.join(STRATEGIES)})"
            )
        if self.warmup_rounds < 0:
            raise ValueError("warmup_rounds must be >= 0")
        if self.fedu_threshold is not None and not self.fedu_threshold > 0:
            raise ValueError("fedu_threshold must be positive")
        if self.fedu_threshold is not None and self.strategy != "ldawa_fedu":
            raise ValueError(f"fedu_threshold applies only to strategy 'ldawa_fedu', not {self.strategy!r}")


def effective_strategy(spec: AggregationSpec, round_index: int) -> str:
    return "fedavg" if round_index < spec.warmup_rounds else spec.strategy


def coeffs_fedavg(updates: ClientUpdates) -> list[float]:
    """Coefficients proportional to sample counts, summing to 1."""
    return (updates.num_samples / updates.num_samples.sum()).tolist()


def coeffs_loss(updates: ClientUpdates) -> list[float]:
    """Softmax of negated mean local losses, computed with max-subtraction."""
    neg = -updates.train_loss
    neg -= neg.max()
    ex = np.exp(neg)
    return (ex / ex.sum()).tolist()


BASE_RULES = {
    "uniform": lambda updates: [1.0 / len(updates.client_ids)] * len(updates.client_ids),
    "samples": coeffs_fedavg,
    "loss": coeffs_loss,
}


def coefficient_matrix(
    strategy: str, updates: ClientUpdates, div: Divergence, renormalize: bool = False
) -> np.ndarray:
    """The (K, L) matrix C[k, l] = beta_k * s_k(l) of ``strategy``.

    Row k of ``div`` belongs to row k of ``updates``; columns follow the
    layer order of ``div``. ``renormalize`` divides each column of a
    divergence-scaled C by its sum.
    """
    base, scale = RULES[strategy]
    beta = np.array(BASE_RULES[base](updates), dtype=np.float64)[:, None]
    s = {"layer": div.layer, "model": div.model[:, None], None: 1.0}[scale]  # s_k(l), broadcast to (K, L)
    table = np.multiply(beta, s, out=np.empty(div.layer.shape))
    if renormalize and scale is not None:
        # Clients are summed in row order (``table.sum(axis=0)`` adds a column of 8 or more rows pairwise);
        # degenerate column sums are left untouched rather than amplified.
        sums = np.zeros(len(div.names))
        for row in table:
            sums += row
        keep = np.abs(sums) > 1e-12
        table[:, keep] /= sums[keep]
    return table


def aggregate(
    spec: AggregationSpec, round_index: int, global_params: ParamSet, updates: ClientUpdates, chunks=None
) -> tuple[ParamSet, Divergence]:
    """Run one aggregation round.

    Returns the new global model and the divergence of every client against
    the incoming global (computed for telemetry regardless of strategy),
    which checks the layout once. While ``round_index <
    spec.warmup_rounds`` the fedavg rule is applied no matter what
    ``spec.strategy`` says. The rows come as ``chunks``, (k, P) blocks in
    row order that are each used up before the next is drawn (``fedsim
    aggregate`` refills one buffer), or as the one chunk ``updates.weights``.
    A chunk adds its rows' divergence, then C[k, l] * row_k(l) in row order,
    so the bits ignore the chunking. ``renormalize`` needs every column sum
    first, so it takes the one chunk.
    """
    if spec.renormalize and chunks is not None:
        raise ValueError("renormalize needs every row's divergence first: pass the rows as updates.weights")
    terms, strategy = DivergenceTerms(global_params, updates), effective_strategy(spec, round_index)
    acc = np.zeros(global_params.num_params)
    for chunk in (updates.weights,) if chunks is None else chunks:
        rows = terms.add(chunk)  # first: the coefficients read its rows' divergence
        coeffs = coefficient_matrix(strategy, updates, terms.div, spec.renormalize)[rows]
        weighted_sum(chunk, updates.layout, coeffs, out=acc)
    div = terms.finish()  # before the sum is checked finite, as one block's divergence is
    return ParamSet(acc, updates.layout), div
