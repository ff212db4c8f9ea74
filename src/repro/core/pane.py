"""End-to-end PANE drivers: Algorithm 1 (single thread) / Algorithm 5 (parallel).

The single-thread version is the NumPy reference implementation — it is
both the paper's "PANE (single thread)" table row and the semantic
oracle the Spark version is tested against. The parallel version is the
PySpark reproduction: node/attribute sets are partitioned into ``nb``
blocks (Alg. 5 Lines 1-2 — here ``block = id % nb`` Spark partitions),
PAPMI computes the affinities, SMGreedyInit seeds and PSVDCCD refines.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.affinity import apmi_numpy, num_iterations, papmi_from_states
from repro.core.ccd import collect_embeddings, psvdccd_spark, svdccd_numpy
from repro.core.greedy_init import (
    greedy_init_numpy,
    random_init_numpy,
    sm_greedy_init_spark,
)
from repro.linalg import l2_normalize_rows
from repro.linalg.matrix import STATE_SCHEMA, attrs_df, edges_df


@dataclass
class PaneEmbedding:
    """PANE's output: forward/backward node embeddings + attribute embeddings.

    ``xf, xb`` are (n, k/2); ``y`` is (d, k/2). Scoring helpers implement
    the paper's prediction rules: Equation (21) for attribute inference
    and Equation (22) for link prediction (with the exact ``Y^T Y``
    contraction rather than the ``≈ I`` shortcut).
    """

    xf: np.ndarray
    xb: np.ndarray
    y: np.ndarray

    def attr_scores(self, nodes: np.ndarray, attrs: np.ndarray) -> np.ndarray:
        """Equation (21): p(v, r) = Xf[v]·Y[r] + Xb[v]·Y[r]."""
        yv = self.y[attrs]
        return np.einsum("ij,ij->i", self.xf[nodes] + self.xb[nodes], yv)

    def link_scores(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Equation (22): p(u, v) = Xf[u] · (Y^T Y) · Xb[v]^T."""
        m = self.y.T @ self.y
        return np.einsum("ij,ij->i", self.xf[src] @ m, self.xb[dst])

    def node_features(self) -> np.ndarray:
        """Section 5.4's classifier input: L2-normalized [Xf ‖ Xb]."""
        return np.hstack([l2_normalize_rows(self.xf), l2_normalize_rows(self.xb)])


def pane_numpy(
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    k: int = 32,
    alpha: float = 0.5,
    eps: float = 0.015,
    seed: int = 0,
    greedy: bool = True,
) -> PaneEmbedding:
    """Algorithm 1: APMI → GreedyInit → SVDCCD, all in NumPy."""
    t = num_iterations(eps, alpha)
    f, b = apmi_numpy(n, d, src, dst, node, attr, weight, alpha, t)
    k2 = k // 2
    if greedy:
        xf, xb, y = greedy_init_numpy(f, b, k2, t, seed)
    else:
        xf, xb, y = random_init_numpy(n, d, k2, seed)
    xf, xb, y = svdccd_numpy(f, b, xf, xb, y, t)
    return PaneEmbedding(xf, xb, y)


def attr_states(
    spark: SparkSession, attrs: DataFrame, d: int, nb: int
) -> tuple[DataFrame, DataFrame]:
    """Distributed ``(R_r, R_c)`` state DataFrames from COO associations.

    Normalizations run as Spark aggregations (Alg. 6 Line 1); the dense
    per-node rows are assembled per block. Nodes with no attributes get
    no row (zero-row semantics, DESIGN.md deviation #2).
    """
    node_sum = attrs.groupBy("node").agg(F.sum("weight").alias("ns"))
    attr_sum = attrs.groupBy("attr").agg(F.sum("weight").alias("as"))
    rr = attrs.join(node_sum, "node").select(
        "node", "attr", (F.col("weight") / F.col("ns")).alias("w")
    )
    rc = attrs.join(attr_sum, "attr").select(
        "node", "attr", (F.col("weight") / F.col("as")).alias("w")
    )

    def densify(pdf: pd.DataFrame) -> pd.DataFrame:
        blk = np.int32(pdf["block"].iloc[0])
        nodes, inv = np.unique(pdf["node"].to_numpy(), return_inverse=True)
        mat = np.zeros((len(nodes), d))
        np.add.at(mat, (inv, pdf["attr"].to_numpy()), pdf["w"].to_numpy())
        return pd.DataFrame(
            {"block": np.full(len(nodes), blk), "node": nodes, "vec": list(mat)}
        )

    def to_state(coo: DataFrame) -> DataFrame:
        return (
            coo.withColumn("block", (F.col("node") % nb).cast("int"))
            .groupBy("block")
            .applyInPandas(densify, STATE_SCHEMA)
            .localCheckpoint(eager=True)
        )

    return to_state(rr), to_state(rc)


def pane_spark(
    spark: SparkSession,
    n: int,
    d: int,
    src: np.ndarray,
    dst: np.ndarray,
    node: np.ndarray,
    attr: np.ndarray,
    weight: np.ndarray,
    k: int = 32,
    alpha: float = 0.5,
    eps: float = 0.015,
    nb: int = 8,
    seed: int = 0,
    greedy: bool = True,
) -> PaneEmbedding:
    """Algorithm 5: PAPMI → SMGreedyInit → PSVDCCD on Spark DataFrames.

    Inputs arrive as COO arrays (the datasets module's native format);
    they are turned into edge/association DataFrames here so the whole
    pipeline — normalization, propagation, factorization — runs as
    distributed dataflow. The final embeddings are collected to NumPy
    (n×k/2 each — the same driver-resident output the paper writes to
    disk).
    """
    t = num_iterations(eps, alpha)
    k2 = k // 2
    edges = edges_df(spark, src, dst)
    assoc = attrs_df(spark, node, attr, weight)
    rr_state, rc_state = attr_states(spark, assoc, d, nb)
    f_state, b_state = papmi_from_states(
        edges, rr_state, rc_state, n, d, alpha, t, nb
    )
    state, y = sm_greedy_init_spark(
        f_state, b_state, d, k2, t, seed, random_init=not greedy
    )
    state, y = psvdccd_spark(state, y, t)
    xf, xb = collect_embeddings(state, n, k2)
    return PaneEmbedding(xf, xb, y)
