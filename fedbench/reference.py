"""Independent numpy reference of every server aggregation rule.

Written from the formulas in the docstring of ``fedsim/aggregation.py``
(round 0, no warm-up, no renormalisation), not from its code:

  base weights  fedavg n_k / sum n;  fairavg 1/K;  loss softmax(-loss_k)
  fedavg, fairavg, loss   layer l = sum_k beta_k w_k(l)
  mdawa                   layer l = (1/K) sum_k delta_k w_k(l)
  ldawa                   layer l = (1/K) sum_k delta_k(l) w_k(l)
  ldawa_fedavg/_fedu      layer l = sum_k (n_k / sum n) delta_k(l) w_k(l)
  ldawa_loss              layer l = sum_k softmax(-loss)_k delta_k(l) w_k(l)

delta is the cosine between the client's and the global tensor (per layer,
or of the whole flattened model), 1 when both are zero, 0 when one is.
"""

from __future__ import annotations

import numpy as np

ZERO_NORM = 1e-12


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.sqrt((a * a).sum()), np.sqrt((b * b).sum())
    if na <= ZERO_NORM and nb <= ZERO_NORM:
        return 1.0
    if na <= ZERO_NORM or nb <= ZERO_NORM:
        return 0.0
    return float(np.clip((a * b).sum() / (na * nb), -1.0, 1.0))


def reference_aggregate(strategy, glob, clients, meta) -> list[tuple[str, np.ndarray]]:
    """Aggregate ``clients`` (lists of (name, array)) against ``glob`` by ``strategy``."""
    k = len(clients)
    names = [name for name, _ in glob]
    g = [values.ravel() for _, values in glob]
    w = [[values.ravel() for _, values in client] for client in clients]
    n = np.array([m["num_samples"] for m in meta], dtype=np.float64)
    loss = np.array([m["train_loss"] for m in meta], dtype=np.float64)
    soft = np.exp(-(loss - loss.min()))
    base = {
        "fedavg": n / n.sum(),
        "fairavg": np.full(k, 1.0 / k),
        "loss": soft / soft.sum(),
        "mdawa": np.full(k, 1.0 / k),
        "ldawa": np.full(k, 1.0 / k),
        "ldawa_fedavg": n / n.sum(),
        "ldawa_fedu": n / n.sum(),
        "ldawa_loss": soft / soft.sum(),
    }[strategy]
    coef = np.repeat(base[:, None], len(names), axis=1)
    if strategy == "mdawa":
        g_flat = np.concatenate(g)
        coef *= np.array([[_cosine(g_flat, np.concatenate(wk))] for wk in w])
    elif strategy.startswith("ldawa"):
        coef *= np.array([[_cosine(gl, wl) for gl, wl in zip(g, wk)] for wk in w])
    out = []
    for l, (name, values) in enumerate(glob):
        stacked = np.stack([wk[l] for wk in w])
        out.append((name, (coef[:, l] @ stacked).reshape(values.shape)))
    return out
