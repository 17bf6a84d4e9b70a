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

    def to_json(self, sq_distances: np.ndarray) -> str:
        """The ``aggregate --report`` document of this round: per client, its cosines and each layer's distance.

        ``sq_distances`` are the (K, L) squared distances of :func:`distances`; one not finite raises ValueError.
        """
        finite = np.isfinite(sq_distances).all(axis=0).tolist()
        if not all(finite):
            raise ValueError(f"layer {self.names[finite.index(False)]!r}: {_NOT_FINITE}")
        rows = zip(self.client_ids, self.model.tolist(), self.layer.tolist(), np.sqrt(sq_distances).tolist())
        doc = [
            {"client_id": cid, "model_delta": model, "per_layer_delta": dict(zip(self.names, layer)),
             "per_layer_euclid": dict(zip(self.names, euclid))}
            for cid, model, layer, euclid in rows
        ]
        return json.dumps(doc, indent=2) + "\n"


class DivergenceTerms:
    """One round's :class:`Divergence` ``div``, filled by :meth:`add` a chunk of rows at a time, in row order.

    The one statement of the chunk protocol: a chunk is a (k >= 1, P) block of the round's next k rows in ``updates``'
    layout, used up before the next is drawn. :meth:`add` raises ValueError for any other chunk or one past K rows
    (K = ``len(updates.client_ids)``), :meth:`finish` for fewer. The global's squared norms are taken once.
    ``np.vecdot`` runs BLAS ``ddot`` on each row, global first, as ``np.dot(g, c)`` and ``np.linalg.norm(c)`` do
    (some kernels round swapped operands differently), so a row's cosines have the same bits in any chunk. A term
    that is not finite (float64 overflows on weights near 1e154) leaves NaN cosines; :meth:`finish` names its layer.
    """

    def __init__(self, global_params: ParamSet, updates: ClientUpdates) -> None:
        global_params.require_compatible(updates)
        v, k = global_params.vector, len(updates.client_ids)
        self.flat = tuple((name, (math.prod(shape),)) for name, shape in global_params.layout)
        self.g = [*segments(v, self.flat).values(), v]  # each layer's segment, then the whole vector
        self.g_sq = np.array([g.dot(g) for g in self.g])
        self.terms = np.zeros((2, k, len(self.g)))  # each row's dot with each of ``g``, and its squared norm
        self.div = Divergence(updates.client_ids, global_params.names, np.zeros((k, len(self.flat))), np.zeros(k))
        self.rows = 0

    def add(self, chunk: np.ndarray) -> slice:
        """The slice of ``chunk``'s rows in the round, their cosines written to ``div``."""
        shape, room, width = np.shape(chunk), len(self.div.model) - self.rows, len(self.g[-1])
        if len(shape) != 2 or not 0 < shape[0] <= room or shape[1] != width:
            raise ValueError(f"a chunk of shape {shape} after {self.rows} rows: expected up to ({room}, {width})")
        rows = slice(self.rows, self.rows + shape[0])
        dots, c_sq = self.terms[:, rows]
        with np.errstate(over="ignore", invalid="ignore"):  # a term that is not finite is ``finish``'s ValueError
            for l, (g, c) in enumerate(zip(self.g, [*segments(chunk, self.flat).values(), chunk])):
                dots[:, l], c_sq[:, l] = np.vecdot(g, c), np.vecdot(c, c)
            cosines = _cosines(dots, self.g_sq, c_sq)
        self.div.layer[rows], self.div.model[rows] = cosines[:, :-1], cosines[:, -1]
        self.rows = rows.stop
        return rows

    def finish(self) -> Divergence:
        """``div``, read-only, once every row is added; a term that is not finite raises ValueError naming its layer."""
        if self.rows != len(self.div.model):
            raise ValueError(f"the chunks gave {self.rows} rows for {len(self.div.model)} client ids")
        finite = (np.isfinite(self.terms).all(axis=(0, 1)) & np.isfinite(self.g_sq)).tolist()
        if not all(finite):
            where = [*(f"layer {name!r}" for name in self.div.names), "whole model"][finite.index(False)]
            raise ValueError(f"{where}: {_NOT_FINITE}")
        for table in (self.div.layer, self.div.model):
            table.setflags(write=False)
        return self.div


def distances(global_params: ParamSet, block: np.ndarray) -> np.ndarray:
    """``block``'s (k, L) squared distances to the global, each ``d.dot(d)`` for ``d = g - c``: ``to_json`` checks them.

    One fresh ``d`` per layer is aligned as ``g - c`` is (ddot's order may follow alignment), so each has the
    bits of ``np.linalg.norm(g - c)`` squared.
    """
    flat = tuple((name, (math.prod(shape),)) for name, shape in global_params.layout)
    out = np.empty((len(block), len(flat)))
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (g, c) in enumerate(zip(segments(global_params.vector, flat).values(), segments(block, flat).values())):
            d = np.empty(g.size)
            out[:, l] = [np.subtract(g, row, out=d).dot(d) for row in c]
    return out
