"""Angular and Euclidean divergence between client models and the global model.

The angular divergence of a tensor pair is the cosine of the angle between
them: 1 means aligned, 0 orthogonal, -1 opposed. Negative values are kept
(not clamped at zero) so that multiplying a client contribution by its
divergence flips sign for opposed weights, folding the effective angular
range from [180deg, 0deg] down to [90deg, 0deg].
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


def _cosine(g: np.ndarray, c: np.ndarray, norm_g: float) -> float:
    """Cosine of two flat same-sized arrays, snapped to +-1 near the ends.

    Zero-norm convention: if both are degenerate they count as identical
    (1.0); if exactly one is degenerate they count as orthogonal (0.0). This
    keeps round-zero aggregation of identically initialized models equal to
    plain averaging and never produces NaN. ``norm_g`` is the norm of ``g``,
    computed once per round.
    """
    norm_c = float(np.linalg.norm(c))
    if norm_g <= ZERO_NORM_TOL or norm_c <= ZERO_NORM_TOL:
        return 1.0 if norm_g <= ZERO_NORM_TOL and norm_c <= ZERO_NORM_TOL else 0.0
    v = float(np.dot(g, c)) / (norm_g * norm_c)
    if v >= 1.0 - SNAP_TOL:
        return 1.0
    if v <= -1.0 + SNAP_TOL:
        return -1.0
    return v


@dataclass(frozen=True, eq=False)
class Divergence:
    """One round's divergence of K client models against the global model.

    ``layer[k, l]`` is the cosine between client k's layer l and the
    global's, ``euclid[k, l]`` their Euclidean distance, and ``model[k]`` the
    cosine between the whole vectors. Rows follow ``client_ids`` and columns
    ``names``.
    """

    client_ids: tuple
    names: tuple[str, ...]
    layer: np.ndarray
    euclid: np.ndarray
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

    def to_json(self) -> str:
        """The ``aggregate --report`` document: one entry per client, in row order."""
        rows = zip(self.client_ids, self.model.tolist(), self.layer.tolist(), self.euclid.tolist())
        doc = [
            {"client_id": cid, "model_delta": model, "per_layer_delta": dict(zip(self.names, layer)),
             "per_layer_euclid": dict(zip(self.names, euclid))}
            for cid, model, layer, euclid in rows
        ]
        return json.dumps(doc, indent=2) + "\n"


def divergence(global_params: ParamSet, updates: ClientUpdates) -> Divergence:
    """Divergence of each row of ``updates.weights`` against the global, per layer and whole-model.

    Row k belongs to ``updates.client_ids[k]``. The layout is checked once;
    the global's norms are computed once; each cosine is one ``np.dot`` and
    two norms over flat views of the layer's segments.
    """
    global_params.require_compatible(updates)
    flat = tuple((name, (math.prod(shape),)) for name, shape in global_params.layout)
    g_layers = list(segments(global_params.vector, flat).values())
    g_norms = [float(np.linalg.norm(g)) for g in g_layers]
    g_norm = float(np.linalg.norm(global_params.vector))
    c_layers = list(segments(updates.weights, flat).values())  # (K, n) views, one per layer
    layer, euclid = np.zeros((2, len(updates.weights), len(flat)))
    for k in range(len(updates.weights)):
        for l, (g, c) in enumerate(zip(g_layers, c_layers)):
            layer[k, l] = _cosine(g, c[k], g_norms[l])
            euclid[k, l] = np.linalg.norm(g - c[k])
    model = np.array([_cosine(global_params.vector, w, g_norm) for w in updates.weights])
    return Divergence(updates.client_ids, global_params.names, layer, euclid, model)
