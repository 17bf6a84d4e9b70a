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

from .divergence import DivergenceReport, layer_divergence
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


def _sorted_updates(updates: Sequence[ClientUpdate]) -> list[ClientUpdate]:
    ups = list(updates)
    if not ups:
        raise ValueError("no client updates to aggregate")
    return sorted(ups, key=lambda u: u.client_id)


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


def divergence_reports(
    global_params: ParamSet, updates: Sequence[ClientUpdate]
) -> list[DivergenceReport]:
    """Per-client divergence against the incoming global, in the given order."""
    return [layer_divergence(global_params, u.params, client_id=u.client_id) for u in updates]


BASE_RULES = {
    "uniform": lambda updates: [1.0 / len(updates)] * len(updates),
    "samples": coeffs_fedavg,
    "loss": coeffs_loss,
}


def coefficient_matrix(
    strategy: str,
    updates: Sequence[ClientUpdate],
    reports: Sequence[DivergenceReport],
    renormalize: bool = False,
) -> np.ndarray:
    """The (K, L) matrix C[k, l] = beta_k * s_k(l) of ``strategy``.

    ``reports[k]`` belongs to ``updates[k]``; rows follow the given order and
    columns the layer order of the client models. ``renormalize`` divides
    each column of a divergence-scaled C by its sum.
    """
    base, scale = RULES[strategy]
    names = updates[0].params.names
    if scale is None:
        s = [[1.0] * len(names) for _ in updates]
    elif scale == "model":
        s = [[r.model_delta] * len(names) for r in reports]
    else:
        s = [[r.per_layer_delta[n] for n in names] for r in reports]
    beta = np.array(BASE_RULES[base](updates), dtype=np.float64)
    table = beta[:, None] * np.array(s, dtype=np.float64).reshape(len(updates), len(names))
    if renormalize and scale is not None:
        # Clients are summed in order, as a scalar loop would add them;
        # degenerate column sums are left untouched rather than amplified.
        sums = np.zeros(len(names))
        for row in table:
            sums += row
        keep = np.abs(sums) > 1e-12
        table[:, keep] /= sums[keep]
    return table


def _aggregate_rule(
    strategy: str,
    global_params: ParamSet,
    updates: Sequence[ClientUpdate],
    reports: Sequence[DivergenceReport] | None,
) -> ParamSet:
    """Apply ``strategy`` with ``reports`` matched to the updates by client id."""
    ups = _sorted_updates(updates)
    if reports is None:
        reports = divergence_reports(global_params, ups)
    by_id = {r.client_id: r for r in reports}
    try:
        reps = [by_id[u.client_id] for u in ups]
    except KeyError as exc:
        raise ValueError(f"no divergence report for client {exc.args[0]!r}") from exc
    return weighted_sum([u.params for u in ups], coefficient_matrix(strategy, ups, reps))


def aggregate_mdawa(
    global_params: ParamSet,
    updates: Sequence[ClientUpdate],
    reports: Sequence[DivergenceReport] | None = None,
) -> ParamSet:
    """Whole-model divergence scaling: (1/K) * sum_k delta_k * w_k."""
    return _aggregate_rule("mdawa", global_params, updates, reports)


def aggregate_ldawa(
    global_params: ParamSet,
    updates: Sequence[ClientUpdate],
    reports: Sequence[DivergenceReport] | None = None,
) -> ParamSet:
    """Layer-wise divergence scaling: layer l = (1/K) * sum_k delta_k(l) * w_k(l)."""
    return _aggregate_rule("ldawa", global_params, updates, reports)


def aggregate(
    spec: AggregationSpec,
    round_index: int,
    global_params: ParamSet,
    updates: Sequence[ClientUpdate],
) -> tuple[ParamSet, list[DivergenceReport]]:
    """Run one aggregation round.

    Returns the new global model and the divergence reports of every client
    against the incoming global (computed for telemetry regardless of
    strategy). While ``round_index < spec.warmup_rounds`` the fedavg rule is
    applied no matter what ``spec.strategy`` says.
    """
    ups = _sorted_updates(updates)
    for u in ups:
        global_params.require_compatible(u.params)
    reports = divergence_reports(global_params, ups)
    coeffs = coefficient_matrix(effective_strategy(spec, round_index), ups, reports, spec.renormalize)
    return weighted_sum([u.params for u in ups], coeffs), reports
