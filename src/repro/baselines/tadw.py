"""TADW — text-associated DeepWalk [44], the paper's strongest
factorization-based ANE competitor.

Faithful reimplementation of the actual objective:

    min_{W,H}  ‖M − W^T H T‖_F² + λ(‖W‖² + ‖H‖²)

with ``M = (P + P²)/2`` the second-order proximity matrix and ``T`` the
f-dimensional text-feature matrix (top singular directions of R, as the
original uses). Solved by alternating closed-form ridge updates. The
node embedding is the concatenation ``[W^T ‖ (HT)^T]``.

``M`` is Θ(n²) dense — exactly why TADW cannot scale; graphs beyond
``max_nodes`` raise :class:`MethodTooExpensive`, reproducing the
paper's "-" cells for the large datasets.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.common import MethodTooExpensive, NodeEmbedding
from repro.core.affinity import normalize_attrs
from repro.linalg.randsvd import rand_svd


def tadw_lite(
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    k: int = 32,
    text_dim: int = 64,
    lam: float = 0.2,
    iters: int = 10,
    max_nodes: int = 6000,
    seed: int = 0,
) -> NodeEmbedding:
    """Alternating ridge solve of the TADW objective."""
    if n > max_nodes:
        raise MethodTooExpensive(
            f"TADW materializes an n×n proximity matrix; n={n} > cap {max_nodes}"
        )
    k2 = max(1, k // 2)
    # M = (P + P^2) / 2 over the row-stochastic walk matrix.
    p = np.zeros((n, n))
    deg = np.zeros(n)
    np.add.at(deg, src, 1.0)
    np.add.at(p, (src, dst), 1.0 / np.maximum(deg[src], 1.0))
    m = (p + p @ p) / 2.0

    # Text features: top singular directions of the attribute matrix.
    f = min(text_dim, d, n)
    r, _ = normalize_attrs(n, d, node, attr, weight)
    u, s, _ = rand_svd(r, f, t=5, seed=seed)
    tmat = (u * np.diag(s)[None, :]).T  # (f, n)

    rng = np.random.default_rng(seed)
    w = rng.standard_normal((k2, n)) * 0.01
    h = rng.standard_normal((k2, f)) * 0.01
    eye_k = np.eye(k2)
    tt = tmat @ tmat.T  # (f, f)
    for _ in range(iters):
        z = h @ tmat  # (k2, n)
        w = np.linalg.solve(z @ z.T + lam * eye_k, z @ m.T)  # (k2, n)
        lhs = w @ w.T + lam * eye_k
        h = np.linalg.solve(lhs, w @ m @ tmat.T) @ np.linalg.inv(
            tt + lam * np.eye(f)
        )
    emb = np.hstack([w.T, (h @ tmat).T])  # (n, k)
    return NodeEmbedding(x=emb)
