"""Cyclic coordinate descent refinement: SVDCCD (Alg. 4) / PSVDCCD (Alg. 8).

Loop structure vs the paper: Algorithm 4 iterates node-major
(``for vi: for l``) in the X-phase and attribute-major (``for rj: for
l``) in the Y-phase. Rows do not interact within the X-phase (each
update touches only ``Xf[vi,·]`` and the residual row ``Sf[vi]``) and
columns do not interact within the Y-phase (``Y[rj,·]`` touches only
``Sf[:,rj]``), so interchanging the loops to coordinate-major
(``for l: all vi at once``) performs the *identical* update sequence
per row/column while vectorizing over the independent index. The
bit-level equivalence with the literal Algorithm-4 loop nest is
asserted in tests (``naive_svdccd_numpy``).

Both phases run in moment form (CCD++, Yu et al. ICDM 2012): the X-phase
on ``P := S·Y = X·(Y^T Y) − M·Y`` (n×k/2 per affinity), the Y-phase on
``N := Xf^T Sf + Xb^T Sb = G·Y^T − C`` with ``G = Xf^T Xf + Xb^T Xb`` and
``C = Xf^T F' + Xb^T B'`` ((k/2)² and (k/2)×d). Neither materializes an
n×d residual, and each reproduces the paper's dynamic residual
maintenance (Equations 18-20) exactly. Distributed, one PSVDCCD sweep is
one pass over the node rows: each task runs the X-phase on its rows and
emits its partial ``(G, C)``; the driver sums the partials and replays
the Y-phase.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.greedy_init import CCD_STATE_SCHEMA

_TINY = 1e-12


def objective(
    f: np.ndarray, b: np.ndarray, xf: np.ndarray, xb: np.ndarray, y: np.ndarray
) -> float:
    """Equation (4): total squared reconstruction error of both affinities."""
    return float(
        np.sum((f - xf @ y.T) ** 2) + np.sum((b - xb @ y.T) ** 2)
    )


def x_phase(
    f: np.ndarray, b: np.ndarray, xf: np.ndarray, xb: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One CCD sweep over all node rows (Alg. 4 Lines 3-9), vectorized.

    Runs on ``P = S·Y`` rather than the residual ``S = X·Y^T − M``: with
    ``A = Y^T Y``, ``P = X·A − M·Y`` and Equations (18)-(19)'s update
    ``S −= µ·Y[:,l]^T`` becomes ``P −= µ·A[l]``, so the ``l`` loop works
    on n×k/2 arrays, not n×d ones. The forward and backward rows share
    ``A`` and are stacked; both are held transposed so each coordinate is
    one contiguous row, and only the columns of ``P`` still to be read
    (``> l``) are updated. Pure function: inputs are not mutated (the
    Spark sweep task reuses it verbatim).
    """
    n = len(xf)
    a = y.T @ y
    x = np.vstack([xf, xb]).T.copy()
    p = a @ x
    p -= np.vstack([f @ y, b @ y]).T
    for l in range(len(a)):
        if a[l, l] < _TINY:
            continue
        mu = p[l] / a[l, l]
        x[l] -= mu
        p[l + 1 :] -= np.outer(a[l, l + 1 :], mu)
    return x[:, :n].T, x[:, n:].T


def y_phase_from_moments(
    y: np.ndarray, g: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """One CCD sweep over Y (Alg. 4 Lines 10-14) given the moments.

    ``g = Xf^T Xf + Xb^T Xb`` and ``c = Xf^T F' + Xb^T B'``; the running
    numerator matrix ``n = g·Y^T − c`` absorbs Equation (20)'s residual
    maintenance. Vectorized over the independent attribute index.
    """
    y = y.copy()
    n = g @ y.T - c
    for l in range(y.shape[1]):
        denom = g[l, l]
        if denom < _TINY:
            continue
        mu = n[l, :] / denom
        y[:, l] -= mu
        n -= np.outer(g[:, l], mu)
    return y


def svdccd_numpy(
    f: np.ndarray,
    b: np.ndarray,
    xf: np.ndarray,
    xb: np.ndarray,
    y: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 4's refinement loop (single-thread reference)."""
    for _ in range(t):
        xf, xb = x_phase(f, b, xf, xb, y)
        g = xf.T @ xf + xb.T @ xb
        c = xf.T @ f + xb.T @ b
        y = y_phase_from_moments(y, g, c)
    return xf, xb, y


def naive_svdccd_numpy(
    f: np.ndarray,
    b: np.ndarray,
    xf: np.ndarray,
    xb: np.ndarray,
    y: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Literal transcription of Algorithm 4 (Lines 2-14), scalar loops.

    Exists only as the ground-truth for equivalence tests — O(ndk·t)
    with Python-level loops, usable on toy sizes.
    """
    xf, xb, y = xf.copy(), xb.copy(), y.copy()
    n, d = f.shape
    k2 = y.shape[1]
    sf = xf @ y.T - f
    sb = xb @ y.T - b
    for _ in range(t):
        for vi in range(n):
            for l in range(k2):
                denom = y[:, l] @ y[:, l]
                if denom < _TINY:
                    continue
                muf = (sf[vi] @ y[:, l]) / denom  # Equation (16)
                mub = (sb[vi] @ y[:, l]) / denom
                xf[vi, l] -= muf  # Equation (13)
                xb[vi, l] -= mub  # Equation (14)
                sf[vi] -= muf * y[:, l]  # Equation (18)
                sb[vi] -= mub * y[:, l]  # Equation (19)
        for rj in range(d):
            for l in range(k2):
                denom = xf[:, l] @ xf[:, l] + xb[:, l] @ xb[:, l]
                if denom < _TINY:
                    continue
                muy = (xf[:, l] @ sf[:, rj] + xb[:, l] @ sb[:, rj]) / denom  # (17)
                y[rj, l] -= muy  # Equation (15)
                sf[:, rj] -= muy * xf[:, l]  # Equation (20)
                sb[:, rj] -= muy * xb[:, l]
    return xf, xb, y


def psvdccd_spark(
    state: DataFrame, y: np.ndarray, t: int
) -> tuple[DataFrame, np.ndarray]:
    """Algorithm 8's refinement loop on the combined CCD state DataFrame.

    Each sweep is one ``mapInPandas`` pass, with no shuffle: the X-phase
    rows are independent (Alg. 8 Lines 3-10), so every task runs
    ``x_phase`` on its Arrow batches with ``Y`` in the closure, keeps the
    block partitioning, and appends one sentinel row (``node < 0``) with
    its partial moments ``G`` (in ``xf``) and ``C`` (in ``f``). The driver
    sums the partials and replays the exact Y-phase (Lines 11-16).
    """
    k2 = y.shape[1]
    d = y.shape[0]
    for _ in range(t):
        y_cur = y

        def sweep(batches):
            g = np.zeros((k2, k2))
            c = np.zeros((k2, d))
            for pdf in batches:
                if not len(pdf):
                    continue
                fi, bi, xf, xb = (
                    np.stack(pdf[col].to_numpy()) for col in ("f", "b", "xf", "xb")
                )
                xf, xb = x_phase(fi, bi, xf, xb, y_cur)
                g += xf.T @ xf + xb.T @ xb
                c += xf.T @ fi + xb.T @ bi
                yield pdf.assign(xf=list(xf), xb=list(xb))
            empty = np.empty(0)
            yield pd.DataFrame({
                "block": np.int32([-1]), "node": np.int64([-1]),
                "f": [c.ravel()], "b": [empty], "xf": [g.ravel()], "xb": [empty],
            })

        swept = state.mapInPandas(sweep, CCD_STATE_SCHEMA).localCheckpoint(eager=True)
        g = np.zeros((k2, k2))
        c = np.zeros((k2, d))
        for row in swept.filter("node < 0").select("f", "xf").collect():
            g += np.asarray(row["xf"]).reshape(k2, k2)
            c += np.asarray(row["f"]).reshape(k2, d)
        y = y_phase_from_moments(y, g, c)
        state = swept.filter("node >= 0")
    return state, y


def state_from_numpy(
    spark, f: np.ndarray, b: np.ndarray, xf: np.ndarray, xb: np.ndarray, nb: int
) -> DataFrame:
    """Build the combined CCD state DataFrame from dense arrays (tests/benches)."""
    n = f.shape[0]
    ids = np.arange(n, dtype=np.int64)
    pdf = pd.DataFrame(
        {
            "block": (ids % nb).astype(np.int32),
            "node": ids,
            "f": list(f.astype(np.float64)),
            "b": list(b.astype(np.float64)),
            "xf": list(xf.astype(np.float64)),
            "xb": list(xb.astype(np.float64)),
        }
    )
    return spark.createDataFrame(pdf, schema=CCD_STATE_SCHEMA).repartition(nb, "block")


def collect_embeddings(
    state: DataFrame, n: int, k2: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pull the final per-node embeddings ``(Xf, Xb)`` back to the driver."""
    pdf = state.select("node", "xf", "xb").toPandas()
    xf = np.zeros((n, k2))
    xb = np.zeros((n, k2))
    idx = pdf["node"].to_numpy()
    xf[idx] = np.stack(pdf["xf"].to_numpy())
    xb[idx] = np.stack(pdf["xb"].to_numpy())
    return xf, xb
