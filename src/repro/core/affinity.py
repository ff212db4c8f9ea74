"""Forward/backward affinity approximation: APMI (Alg. 2) and PAPMI (Alg. 6).

Both compute, without sampling a single walk,

    P_f^(t) = α Σ_{ℓ=0..t} (1-α)^ℓ P^ℓ R_r      (Equation 6)
    P_b^(t) = α Σ_{ℓ=0..t} (1-α)^ℓ (P^T)^ℓ R_c

via the recurrence ``P^(ℓ) = (1-α)·P·P^(ℓ-1) + α·P^(0)``, then column-
normalize the forward / row-normalize the backward matrix and apply the
SPMI transform ``F' = log2(n·P̂f + 1)``, ``B' = log2(d·P̂b + 1)``
(Equation 7; base-2 per Lemma 3.1, DESIGN.md note #4).

``R_r`` is row-stochastic (each node's attribute distribution) and
``R_c`` column-stochastic (each attribute's node distribution) — the
walk semantics of Section 2.2; see DESIGN.md deviation #1 on the
Equation (1) typo.

The Spark version (PAPMI) distributes the node dimension: the state
DataFrames carry one length-d vector per node, SpMM is DataFrame
message passing, and the per-block math runs in NumPy inside
``applyInPandas`` — the paper's nb threads mapped onto Spark partitions.
Each iteration is one aggregation per direction: the walk weights carry
the ``(1-α)`` factor, and the ``α·R`` restart rows join the same group-by.
"""
from __future__ import annotations

import math

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.linalg import (
    col_normalize,
    elementwise,
    make_state,
    row_normalize,
    spmm,
    spmv_coo,
    state_to_numpy,
    walk_edges,
)


def num_iterations(eps: float, alpha: float) -> int:
    """The paper's iteration count ``t = log(ϵ)/log(1-α) − 1`` (Alg. 1, Line 1).

    Rounded up so the tail bound (1-α)^{t+1} ≤ ϵ of Lemma 3.1 holds.
    Both drivers call this first, so it also rejects ``alpha``/``eps``
    outside (0, 1), where the formula is undefined.
    """
    for name, value in (("alpha", alpha), ("eps", eps)):
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    t = math.log(eps) / math.log(1.0 - alpha) - 1.0
    return max(1, math.ceil(t - 1e-9))


def normalize_attrs(
    n: int, d: int, node: np.ndarray, attr: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``(R_r, R_c)`` from COO associations (Equation 1, walk semantics)."""
    R = np.zeros((n, d))
    np.add.at(R, (node, attr), weight)
    rs = R.sum(axis=1, keepdims=True)
    Rr = np.divide(R, rs, out=np.zeros_like(R), where=rs > 0)
    cs = R.sum(axis=0, keepdims=True)
    Rc = np.divide(R, cs, out=np.zeros_like(R), where=cs > 0)
    return Rr, Rc


def apmi_numpy(
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    alpha: float,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2 (single-thread reference): returns ``(F', B')``."""
    Rr, Rc = normalize_attrs(n, d, node, attr, weight)
    deg = np.zeros(n)
    np.add.at(deg, src, 1.0)
    w = 1.0 / deg[src]  # random-walk weights of P = D^{-1} A
    pf, pb = Rr.copy(), Rc.copy()
    for _ in range(t):
        pf = (1 - alpha) * spmv_coo(src, dst, w, pf, n) + alpha * Rr
        pb = (1 - alpha) * spmv_coo(dst, src, w, pb, n) + alpha * Rc
    cs = pf.sum(axis=0, keepdims=True)
    pf_hat = np.divide(pf, cs, out=np.zeros_like(pf), where=cs > 0)
    rs = pb.sum(axis=1, keepdims=True)
    pb_hat = np.divide(pb, rs, out=np.zeros_like(pb), where=rs > 0)
    return np.log2(n * pf_hat + 1), np.log2(d * pb_hat + 1)


def papmi_from_states(
    edges: DataFrame,
    rr_state: DataFrame,
    rc_state: DataFrame,
    n: int,
    d: int,
    alpha: float,
    t: int,
    nb: int,
) -> tuple[DataFrame, DataFrame]:
    """Algorithm 6 (PAPMI) core loop on pre-built R_r/R_c states.

    The walk weights are scaled by ``(1-α)`` once and cached, so each
    step ``P^(ℓ) = (1-α)·P·P^(ℓ-1) + α·R`` is one ``spmm`` with ``R`` as
    its restart rows. The recurrence lineage is cut with
    ``localCheckpoint`` each iteration so the plan stays flat across the
    t SpMM rounds.
    """
    ew = (
        walk_edges(edges)
        .withColumn("w", F.col("w") * (1 - alpha))
        .localCheckpoint(eager=True)
    )
    pf, pb = rr_state, rc_state
    for _ in range(t):
        pf = spmm(ew, pf, nb, restart=rr_state, alpha=alpha).localCheckpoint(
            eager=True
        )
        pb = spmm(
            ew, pb, nb, transpose=True, restart=rc_state, alpha=alpha
        ).localCheckpoint(eager=True)
    f = elementwise(col_normalize(pf, d), lambda m: np.log2(n * m + 1))
    b = elementwise(row_normalize(pb), lambda m: np.log2(d * m + 1))
    return f.localCheckpoint(eager=True), b.localCheckpoint(eager=True)


def papmi_spark(
    spark: SparkSession,
    edges: DataFrame,
    n: int,
    d: int,
    rr: np.ndarray,
    rc: np.ndarray,
    alpha: float,
    t: int,
    nb: int,
) -> tuple[DataFrame, DataFrame]:
    """Algorithm 6 (PAPMI) from dense ``(R_r, R_c)`` — the test entry point."""
    rr_state = make_state(spark, rr, nb).localCheckpoint(eager=True)
    rc_state = make_state(spark, rc, nb).localCheckpoint(eager=True)
    return papmi_from_states(edges, rr_state, rc_state, n, d, alpha, t, nb)


def affinities_spark_to_numpy(
    f_state: DataFrame, b_state: DataFrame, n: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Collect distributed ``(F', B')`` for verification against Alg. 2."""
    return state_to_numpy(f_state, n, d), state_to_numpy(b_state, n, d)
