"""COO / dense-state DataFrame constructors and converters.

The *state DataFrame* layout — ``(block: int, node: long, vec:
array<double>)`` — is the distributed representation of a dense n×d
matrix whose rows are indexed by node id. ``block = node % nb`` gives a
deterministic, balanced partitioning that mirrors the paper's equal
split of the node set V into nb subsets (Algorithm 5, Line 1).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    IntegerType,
    LongType,
    StructField,
    StructType,
)

STATE_SCHEMA = StructType(
    [
        StructField("block", IntegerType(), False),
        StructField("node", LongType(), False),
        StructField("vec", ArrayType(DoubleType()), False),
    ]
)


def make_state(
    spark: SparkSession, mat: np.ndarray, nb: int, ids: np.ndarray | None = None
) -> DataFrame:
    """Distribute a dense ``(n, d)`` NumPy matrix as a state DataFrame.

    ``ids`` defaults to ``0..n-1``. The result is repartitioned by
    ``block`` so each of the ``nb`` "threads" owns a contiguous task.
    """
    n = mat.shape[0]
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    pdf = pd.DataFrame(
        {
            "block": (ids % nb).astype(np.int32),
            "node": ids.astype(np.int64),
            "vec": list(mat.astype(np.float64)),
        }
    )
    return spark.createDataFrame(pdf, schema=STATE_SCHEMA).repartition(nb, "block")


def state_to_numpy(state: DataFrame, n: int, d: int) -> np.ndarray:
    """Collect a state DataFrame back into a dense ``(n, d)`` matrix.

    Nodes absent from the state get zero rows — this mirrors the sparse
    semantics of message passing (a node that received no messages has
    an all-zero vector).
    """
    pdf = state.select("node", "vec").toPandas()
    out = np.zeros((n, d), dtype=np.float64)
    if len(pdf):
        out[pdf["node"].to_numpy()] = np.stack(pdf["vec"].to_numpy())
    return out


def edges_df(spark: SparkSession, src: np.ndarray, dst: np.ndarray) -> DataFrame:
    """Build an unweighted COO edge DataFrame ``(src, dst)``."""
    pdf = pd.DataFrame({"src": src.astype(np.int64), "dst": dst.astype(np.int64)})
    return spark.createDataFrame(pdf, schema="src long, dst long")


def attrs_df(
    spark: SparkSession, node: np.ndarray, attr: np.ndarray, weight: np.ndarray
) -> DataFrame:
    """Build the node-attribute association DataFrame ``(node, attr, weight)``."""
    pdf = pd.DataFrame(
        {
            "node": node.astype(np.int64),
            "attr": attr.astype(np.int64),
            "weight": weight.astype(np.float64),
        }
    )
    return spark.createDataFrame(pdf, schema="node long, attr long, weight double")


def walk_edges(edges: DataFrame) -> DataFrame:
    """Attach random-walk weights ``w = 1 / outdeg(src)`` to each edge.

    This materializes the nonzero entries of the paper's random-walk
    matrix ``P = D^{-1} A``. Dangling nodes (out-degree 0) simply have
    no row — a zero row in ``P`` (DESIGN.md deviation #3).
    """
    deg = edges.groupBy("src").agg(F.count(F.lit(1)).alias("outdeg"))
    return edges.join(deg, "src").select(
        "src", "dst", (F.lit(1.0) / F.col("outdeg")).alias("w")
    )
