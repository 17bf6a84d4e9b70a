"""Angular and Euclidean divergence between a client model and the global model.

The angular divergence of a tensor pair is the cosine of the angle between
them: 1 means aligned, 0 orthogonal, -1 opposed. Negative values are kept
(not clamped at zero) so that multiplying a client contribution by its
divergence flips sign for opposed weights, folding the effective angular
range from [180deg, 0deg] down to [90deg, 0deg].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .params import LayerTensor, ParamSet, dot, flatten, norm

# Below this norm a tensor is treated as degenerate (e.g. an all-zero bias).
ZERO_NORM_TOL = 1e-12

# Rounding in the dot/norm reductions can leave exactly (anti-)aligned tensors
# a few ulps inside the unit interval; snap so they report exactly +-1.
SNAP_TOL = 1e-12

MEAN_DELTA_MODES = ("model", "layer")


def cosine(a: LayerTensor, b: LayerTensor, norm_a: float | None = None) -> float:
    """Cosine similarity of two same-shaped tensors, clamped to [-1, 1].

    Zero-norm convention: if both tensors are degenerate they count as
    identical (1.0); if exactly one is degenerate they count as orthogonal
    (0.0). This keeps round-zero aggregation of identically initialized
    models equal to plain averaging and never produces NaN. ``norm_a``, if
    given, is ``norm(a)`` computed beforehand.
    """
    na = norm(a) if norm_a is None else norm_a
    nb = norm(b)
    if na <= ZERO_NORM_TOL or nb <= ZERO_NORM_TOL:
        if a.shape != b.shape:
            raise ValueError(f"cosine: shape mismatch {a.shape} vs {b.shape}")
        return 1.0 if na <= ZERO_NORM_TOL and nb <= ZERO_NORM_TOL else 0.0
    v = dot(a, b) / (na * nb)
    if v >= 1.0 - SNAP_TOL:
        return 1.0
    if v <= -1.0 + SNAP_TOL:
        return -1.0
    return float(v)


@dataclass(frozen=True)
class DivergenceReport:
    """Per-layer and whole-model divergence of one client against the global."""

    client_id: int | str
    per_layer_delta: dict[str, float]
    model_delta: float
    per_layer_euclid: dict[str, float] = field(default_factory=dict)

    def layer_mean(self) -> float:
        """Unweighted mean of the per-layer divergences."""
        if not self.per_layer_delta:
            raise ValueError("report has no layers")
        return float(np.mean(list(self.per_layer_delta.values())))

    def to_json_dict(self) -> dict:
        return {
            "client_id": self.client_id,
            "model_delta": self.model_delta,
            "per_layer_delta": dict(self.per_layer_delta),
            "per_layer_euclid": dict(self.per_layer_euclid),
        }


def global_norms(global_params: ParamSet) -> tuple[float, ...]:
    """The norm of every layer, then of the whole vector: what :func:`layer_divergence` needs of the global."""
    return tuple(norm(t) for t in global_params.layers) + (norm(flatten(global_params)),)


def layer_divergence(
    global_params: ParamSet,
    client_params: ParamSet,
    client_id: int | str = "",
    norms: Sequence[float] | None = None,
) -> DivergenceReport:
    """Divergence of a client model against the global, per layer and whole-model.

    ``norms`` is ``global_norms(global_params)``, computed once when many
    clients are compared with the same global.
    """
    global_params.require_compatible(client_params)
    if norms is None:
        norms = global_norms(global_params)
    per_layer: dict[str, float] = {}
    euclid: dict[str, float] = {}
    for g, c, ng in zip(global_params.layers, client_params.layers, norms):
        per_layer[g.name] = cosine(g, c, ng)
        euclid[g.name] = float(np.linalg.norm(g.values - c.values))
    model_delta = cosine(flatten(global_params), flatten(client_params), norms[-1])
    return DivergenceReport(client_id, per_layer, model_delta, euclid)


def mean_delta(reports: Sequence[DivergenceReport], mode: str = "model") -> float:
    """Mean divergence across clients.

    ``model`` averages the whole-model deltas; ``layer`` first averages each
    client's per-layer deltas across layers, then averages across clients.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("mean_delta: no reports")
    if mode == "model":
        return float(np.mean([r.model_delta for r in reports]))
    if mode == "layer":
        return float(np.mean([r.layer_mean() for r in reports]))
    raise ValueError(f"mean_delta: unknown mode {mode!r} (expected one of {MEAN_DELTA_MODES})")
