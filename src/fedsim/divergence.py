"""Angular divergence between client models and the global model; the report adds Euclidean distances.

The angular divergence of a tensor pair is the cosine of the angle between
them: 1 means aligned, 0 orthogonal, -1 opposed. Negative values are kept
(not clamped at zero) so that multiplying a client contribution by its
divergence flips sign for opposed weights, folding the effective angular
range from [180deg, 0deg] down to [90deg, 0deg]. A round reads only cosines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .params import ParamSet, segments

if TYPE_CHECKING:
    from .aggregation import ClientUpdates

# Below this norm a tensor is treated as degenerate (e.g. an all-zero bias).
ZERO_NORM_TOL = 1e-12

# Rounding in the dot/norm reductions can leave exactly (anti-)aligned tensors
# a few ulps inside the unit interval; snap so they report exactly +-1.
SNAP_TOL = 1e-12

_NOT_FINITE = "a dot product, squared norm or squared distance of the divergence is not finite"


def _cosines(dots: np.ndarray, g_sq, c_sq: np.ndarray) -> np.ndarray:
    """Cosines from dot products and squared norms (the global's broadcast), snapped to +-1 near the ends.

    Zero-norm convention: if both tensors are degenerate they count as
    identical (1.0); if exactly one is, orthogonal (0.0). This keeps round-zero
    aggregation of identically initialized models equal to plain averaging.
    """
    norm_g, norm_c = np.sqrt(g_sq), np.sqrt(c_sq)
    g_zero, c_zero = norm_g <= ZERO_NORM_TOL, norm_c <= ZERO_NORM_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = dots / (norm_g * norm_c)
    v = np.where(v >= 1.0 - SNAP_TOL, 1.0, np.where(v <= -1.0 + SNAP_TOL, -1.0, v))
    return np.where(g_zero | c_zero, np.where(g_zero & c_zero, 1.0, 0.0), v)


@dataclass(frozen=True, eq=False)
class Divergence:
    """One round's divergence of K client models against the global model.

    ``layer[k, l]`` is the cosine between client k's layer l and the
    global's, and ``model[k]`` the cosine between the whole vectors. Rows
    follow ``client_ids`` and columns ``names``.
    """

    client_ids: tuple
    names: tuple[str, ...]
    layer: np.ndarray
    model: np.ndarray

    def mean(self, mode: str = "model") -> float:
        """Mean divergence across clients.

        ``model`` averages the whole-model cosines; ``layer`` first averages
        each client's per-layer cosines, then averages across clients.
        """
        if mode == "model":
            return float(np.mean(self.model))
        if mode == "layer":
            return float(np.mean([np.mean(row) for row in self.layer]))
        raise ValueError(f"mean: unknown mode {mode!r} (expected 'model' or 'layer')")

    def to_json(self, global_params: ParamSet, updates: ClientUpdates) -> str:
        """The ``aggregate --report`` document of this round: per client, its cosines and each layer's distance."""
        flat = tuple((name, (math.prod(shape),)) for name, shape in global_params.layout)
        pairs = zip(segments(global_params.vector, flat).values(), segments(updates.weights, flat).values())
        euclid = np.empty(self.layer.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the ValueError below, not a warning
            for l, (g, c) in enumerate(pairs):
                d = np.empty(g.size)  # aligned as a fresh ``g - c`` is (ddot's order may follow alignment); reused
                euclid[:, l] = [np.subtract(g, row, out=d).dot(d) for row in c]
                if not np.isfinite(euclid[:, l]).all():
                    raise ValueError(f"layer {self.names[l]!r}: {_NOT_FINITE}")
        rows = zip(self.client_ids, self.model.tolist(), self.layer.tolist(), np.sqrt(euclid).tolist())
        doc = [
            {"client_id": cid, "model_delta": model, "per_layer_delta": dict(zip(self.names, layer)),
             "per_layer_euclid": dict(zip(self.names, euclid))}
            for cid, model, layer, euclid in rows
        ]
        return json.dumps(doc, indent=2) + "\n"


def divergence(global_params: ParamSet, updates: ClientUpdates) -> Divergence:
    """Divergence of each row of ``updates.weights`` against the global, per layer and whole-model.

    Row k belongs to ``updates.client_ids[k]``. Per layer, ``np.vecdot`` takes all K rows at once and
    runs BLAS ``ddot`` on each, as ``np.dot(g, c)`` and ``np.linalg.norm(c)`` do, so the bits are the
    same. The global goes first, as in ``np.dot(g, c)``: some kernels round swapped operands differently.
    A dot product or squared norm that is not finite (float64 overflows on weights near 1e154) raises
    ValueError naming its layer, or the whole model.
    """
    global_params.require_compatible(updates)
    block, v = updates.weights, global_params.vector
    flat = tuple((name, (math.prod(shape),)) for name, shape in global_params.layout)
    g_sq = np.empty(len(flat))
    dots, c_sq = terms = np.empty((2, len(block), len(flat)))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the ValueError below, not a warning
        for l, (g, c) in enumerate(zip(segments(v, flat).values(), segments(block, flat).values())):
            g_sq[l], dots[:, l], c_sq[:, l] = g.dot(g), np.vecdot(g, c), np.vecdot(c, c)
        whole = np.vecdot(v, block), v.dot(v), np.vecdot(block, block)
    finite = [*(np.isfinite(terms).all(axis=(0, 1)) & np.isfinite(g_sq)), all(np.isfinite(t).all() for t in whole)]
    if not all(finite):
        where = [*(f"layer {name!r}" for name in global_params.names), "whole model"][finite.index(False)]
        raise ValueError(f"{where}: {_NOT_FINITE}")
    return Divergence(updates.client_ids, global_params.names, _cosines(dots, g_sq, c_sq), _cosines(*whole))
