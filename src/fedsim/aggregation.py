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
lower than under fedavg; acceptance 7b checks this. Client contributions are
always accumulated in ascending client_id order so results are
bit-reproducible regardless of input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergence import Divergence, divergence
from .params import ParamSet, weighted_sum

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


@dataclass(frozen=True)
class ClientUpdate:
    """One client's trained model plus the metadata it uploads."""

    client_id: int | str
    params: ParamSet
    num_samples: int
    train_loss: float

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError(f"client {self.client_id}: num_samples must be >= 1")
        if not math.isfinite(self.train_loss):
            raise ValueError(f"client {self.client_id}: train_loss is not finite")


@dataclass(frozen=True)
class AggregationSpec:
    """Which strategy to run and how.

    While ``round < warmup_rounds`` the effective strategy is forced to
    fedavg. ``fedu_threshold`` is the client-side policy parameter consumed
    by the engine; None disables the policy.
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


def effective_strategy(spec: AggregationSpec, round_index: int) -> str:
    return "fedavg" if round_index < spec.warmup_rounds else spec.strategy


def coeffs_fedavg(updates: Sequence[ClientUpdate]) -> list[float]:
    """Coefficients proportional to sample counts, summing to 1."""
    if not updates:
        raise ValueError("coeffs_fedavg: no updates")
    total = sum(u.num_samples for u in updates)
    return [u.num_samples / total for u in updates]


def coeffs_loss(updates: Sequence[ClientUpdate]) -> list[float]:
    """Softmax of negated mean local losses, computed with max-subtraction."""
    if not updates:
        raise ValueError("coeffs_loss: no updates")
    neg = np.array([-u.train_loss for u in updates], dtype=np.float64)
    neg -= neg.max()
    ex = np.exp(neg)
    return [float(v) for v in ex / ex.sum()]


BASE_RULES = {
    "uniform": lambda updates: [1.0 / len(updates)] * len(updates),
    "samples": coeffs_fedavg,
    "loss": coeffs_loss,
}


def coefficient_matrix(
    strategy: str, updates: Sequence[ClientUpdate], div: Divergence, renormalize: bool = False
) -> np.ndarray:
    """The (K, L) matrix C[k, l] = beta_k * s_k(l) of ``strategy``.

    Row k of ``div`` belongs to ``updates[k]``; rows follow the given order
    and columns the layer order of ``div``. ``renormalize`` divides each
    column of a divergence-scaled C by its sum.
    """
    base, scale = RULES[strategy]
    if scale == "layer":
        s = div.layer
    elif scale == "model":
        s = np.repeat(div.model[:, None], len(div.names), axis=1)
    else:
        s = np.ones(div.layer.shape)
    table = np.array(BASE_RULES[base](updates), dtype=np.float64)[:, None] * s
    if renormalize and scale is not None:
        # Clients are summed in order, as a scalar loop would add them;
        # degenerate column sums are left untouched rather than amplified.
        sums = np.zeros(len(div.names))
        for row in table:
            sums += row
        keep = np.abs(sums) > 1e-12
        table[:, keep] /= sums[keep]
    return table


def aggregate(
    spec: AggregationSpec, round_index: int, global_params: ParamSet, updates: Sequence[ClientUpdate]
) -> tuple[ParamSet, Divergence]:
    """Run one aggregation round.

    Returns the new global model and the divergence of every client against
    the incoming global (computed for telemetry regardless of strategy),
    rows in ascending client-id order. While ``round_index <
    spec.warmup_rounds`` the fedavg rule is applied no matter what
    ``spec.strategy`` says.
    """
    if not updates:
        raise ValueError("no client updates to aggregate")
    ups = sorted(updates, key=lambda u: u.client_id)
    models = [u.params for u in ups]
    div = divergence(global_params, models, [u.client_id for u in ups])
    coeffs = coefficient_matrix(effective_strategy(spec, round_index), ups, div, spec.renormalize)
    return weighted_sum(models, coeffs), div
