"""Dense-state operations: SpMM, normalization, column sums.

These are the building blocks PAPMI (Algorithm 6) and PSVDCCD
(Algorithm 8) are written in. The SpMM is DataFrame message passing:
join the sparse matrix's COO rows with the dense state on the inner
index, union any restart rows, then aggregate weighted vector sums per
output index inside an ``applyInPandas`` block task (block matrix
multiplication, [11] in the paper) — one aggregation per PAPMI step and
direction. The per-block kernel ``sum_by_key`` sorts by output index and
uses ``np.add.reduceat`` over contiguous runs, so the Python-side cost is
a handful of vectorized NumPy calls per block, not per edge. The NumPy
paths (APMI, the baselines) run the same kernel through ``spmv_coo``.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.linalg.matrix import STATE_SCHEMA


def sum_by_key(
    keys: np.ndarray, rows: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Group-sum value rows by ``keys``: returns (unique_keys, sums).

    ``rows(order)`` builds the value rows already permuted into key
    order, so each row is gathered once rather than built, then sorted.
    """
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    return uniq, np.add.reduceat(rows(order), starts, axis=0)


def spmv_coo(
    out_idx: np.ndarray, in_idx: np.ndarray, w: np.ndarray, v: np.ndarray, n: int
) -> np.ndarray:
    """``out[out_idx] += w · v[in_idx]`` — COO sparse-times-dense in NumPy."""
    uniq, sums = sum_by_key(out_idx, lambda o: v[in_idx[o]] * w[o, None])
    out = np.zeros((n, v.shape[1]))
    out[uniq] = sums
    return out


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm (zero rows stay zero)."""
    s = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, s, out=np.zeros_like(x), where=s > 0)


def spmm(
    edges_w: DataFrame,
    state: DataFrame,
    nb: int,
    transpose: bool = False,
    restart: DataFrame | None = None,
    alpha: float = 1.0,
) -> DataFrame:
    """Sparse-times-dense: ``out = P @ V + α·R`` (``P^T`` if ``transpose``).

    ``edges_w`` holds the nonzeros of ``P`` as ``(src, dst, w)``; ``state``
    holds the dense ``V`` as ``(block, node, vec)``. Forward mode pulls each
    out-neighbor's vector: ``out[src] = Σ_dst w · V[dst]``; transpose mode
    pushes along edges: ``out[dst] = Σ_src w · V[src]``. The optional
    ``restart`` state ``R`` enters the same aggregation as one extra message
    per row, with weight ``alpha``, so an APMI step is a single group-by.
    Output rows exist only for nodes that received at least one message
    (sparse semantics).
    """
    inner, outer = ("src", "dst") if transpose else ("dst", "src")
    msgs = edges_w.join(
        state.select(F.col("node").alias(inner), "vec"), inner
    ).select(
        (F.col(outer) % nb).cast("int").alias("block"),
        F.col(outer).alias("node"),
        "w",
        "vec",
    )
    if restart is not None:
        msgs = msgs.unionByName(
            restart.select("block", "node", F.lit(float(alpha)).alias("w"), "vec")
        )

    def agg(pdf: pd.DataFrame) -> pd.DataFrame:
        blk = np.int32(pdf["block"].iloc[0])
        vecs, w = pdf["vec"].to_numpy(), pdf["w"].to_numpy()
        uniq, sums = sum_by_key(
            pdf["node"].to_numpy(), lambda o: np.stack(vecs[o]) * w[o, None]
        )
        return pd.DataFrame(
            {"block": np.full(len(uniq), blk), "node": uniq, "vec": list(sums)}
        )

    return msgs.groupBy("block").applyInPandas(agg, STATE_SCHEMA)


def elementwise(state: DataFrame, fn: Callable[[np.ndarray], np.ndarray]) -> DataFrame:
    """Apply a vectorized NumPy function to every row vector of a state DF.

    Schema-preserving: any extra columns pass through untouched.
    """
    schema = state.schema

    def apply(it):
        for pdf in it:
            if len(pdf):
                mat = np.stack(pdf["vec"].to_numpy())
                pdf = pdf.assign(vec=list(fn(mat)))
            yield pdf

    return state.mapInPandas(apply, schema)


def col_sums(state: DataFrame, d: int) -> np.ndarray:
    """Column sums of the distributed dense matrix (length-``d`` vector)."""

    def partial(it):
        acc = np.zeros(d)
        for pdf in it:
            if len(pdf):
                acc += np.stack(pdf["vec"].to_numpy()).sum(axis=0)
        yield pd.DataFrame({"s": [list(acc)]})

    parts = state.mapInPandas(partial, "s array<double>").collect()
    out = np.zeros(d)
    for row in parts:
        out += np.asarray(row["s"])
    return out


def col_normalize(state: DataFrame, d: int) -> DataFrame:
    """Normalize each column to sum 1 (zero-sum columns stay zero).

    Matrix analogue of Algorithm 2, Line 6 (``P̂f``).
    """
    sums = col_sums(state, d)
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return elementwise(state, lambda m: m * inv[None, :])


def row_normalize(state: DataFrame) -> DataFrame:
    """Normalize each row vector to sum 1 (zero rows stay zero).

    Matrix analogue of Algorithm 2, Line 7 (``P̂b``).
    """

    def fn(m: np.ndarray) -> np.ndarray:
        s = m.sum(axis=1, keepdims=True)
        return np.divide(m, s, out=np.zeros_like(m), where=s > 0)

    return elementwise(state, fn)
