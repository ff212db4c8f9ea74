"""Spark tests for the distributed linear-algebra substrate (system #1).

SpMM / normalization / state conversions are checked both against NumPy
references and — where the operation is SQL-expressible — against the
DuckDB oracle (``repro.oracle``), so a broken join or aggregation is
caught as a wrong *result*, not just a crash.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.linalg import (
    col_normalize,
    col_sums,
    edges_df,
    elementwise,
    make_state,
    row_normalize,
    spmm,
    state_to_numpy,
    walk_edges,
)
from repro.oracle import assert_equivalent


def _random_graph(n=30, m=120, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    keep = src != dst
    return src[keep], dst[keep]


def _p_dense(n, src, dst):
    p = np.zeros((n, n))
    deg = np.zeros(n)
    np.add.at(deg, src, 1.0)
    np.add.at(p, (src, dst), 1.0)
    return p / np.maximum(deg, 1)[:, None]


class TestStateRoundtrip:
    @pytest.mark.parametrize("nb", [1, 3, 8])
    def test_roundtrip(self, spark, nb):
        mat = np.random.default_rng(1).standard_normal((17, 5))
        st = make_state(spark, mat, nb)
        assert np.allclose(state_to_numpy(st, 17, 5), mat)

    def test_blocks_cover_all_nodes(self, spark):
        mat = np.ones((10, 3))
        st = make_state(spark, mat, 4)
        pdf = st.toPandas()
        assert sorted(pdf["node"]) == list(range(10))
        assert set(pdf["block"]) <= set(range(4))
        assert (pdf["block"] == pdf["node"] % 4).all()

    def test_missing_nodes_become_zero_rows(self, spark):
        mat = np.ones((4, 2))
        st = make_state(spark, mat, 2, ids=np.array([0, 2, 5, 7]))
        out = state_to_numpy(st, 9, 2)
        assert out[0].tolist() == [1, 1] and out[1].tolist() == [0, 0]
        assert out[7].tolist() == [1, 1] and out[8].tolist() == [0, 0]


class TestWalkEdges:
    def test_weights_vs_duckdb(self, spark):
        src, dst = _random_graph(seed=2)
        e = edges_df(spark, src, dst)
        got = walk_edges(e)
        assert_equivalent(
            got.select("src", "dst", "w"),
            """
            SELECT e.src AS src, e.dst AS dst,
                   1.0 / CAST(d.outdeg AS DOUBLE) AS w
            FROM edges e
            JOIN (SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src) d
              ON e.src = d.src
            """,
            edges=pd.DataFrame({"src": src, "dst": dst}),
        )

    def test_rows_sum_to_one(self, spark):
        src, dst = _random_graph(seed=3)
        e = edges_df(spark, src, dst)
        sums = walk_edges(e).groupBy("src").agg(F.sum("w").alias("s")).toPandas()
        assert np.allclose(sums["s"], 1.0)


class TestSpmm:
    @pytest.mark.parametrize("nb", [1, 2, 7])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_matches_numpy(self, spark, nb, transpose):
        n, dcols = 25, 4
        src, dst = _random_graph(n=n, m=100, seed=4)
        mat = np.random.default_rng(5).standard_normal((n, dcols))
        p = _p_dense(n, src, dst)
        expected = (p.T if transpose else p) @ mat
        ew = walk_edges(edges_df(spark, src, dst))
        st = make_state(spark, mat, nb)
        got = state_to_numpy(spmm(ew, st, nb, transpose=transpose), n, dcols)
        assert np.allclose(got, expected, atol=1e-10)

    def test_spmm_vs_duckdb_scalar_column(self, spark):
        """One-column SpMM with restart rows is a SQL join, union and
        group-by — oracle-checkable."""
        n = 20
        src, dst = _random_graph(n=n, m=80, seed=6)
        vec = np.random.default_rng(7).random(n)
        ids = np.arange(0, n, 3)  # restart rows on every third node
        rvec = np.random.default_rng(8).random(len(ids))
        ew = walk_edges(edges_df(spark, src, dst))
        st = make_state(spark, vec[:, None], 3)
        rst = make_state(spark, rvec[:, None], 3, ids=ids)
        got_state = spmm(ew, st, 3, restart=rst, alpha=0.25)
        got = got_state.select(
            "node", F.element_at("vec", 1).alias("val")
        )
        deg = np.zeros(n)
        np.add.at(deg, src, 1.0)
        assert_equivalent(
            got,
            """
            SELECT node, SUM(val) AS val FROM (
                SELECT e.src AS node, e.w * v.x AS val
                FROM edges_w e JOIN vecs v ON e.dst = v.node
                UNION ALL
                SELECT node, 0.25 * x AS val FROM restart
            ) GROUP BY node
            """,
            edges_w=pd.DataFrame({"src": src, "dst": dst, "w": 1.0 / deg[src]}),
            vecs=pd.DataFrame({"node": np.arange(n), "x": vec}),
            restart=pd.DataFrame({"node": ids, "x": rvec}),
        )

    def test_output_sparse_only_message_receivers(self, spark):
        # star graph: only node 0 has out-edges → only row 0 in output
        src = np.array([0, 0, 0], dtype=np.int64)
        dst = np.array([1, 2, 3], dtype=np.int64)
        ew = walk_edges(edges_df(spark, src, dst))
        st = make_state(spark, np.ones((4, 2)), 2)
        out = spmm(ew, st, 2).toPandas()
        assert out["node"].tolist() == [0]
        assert np.allclose(np.stack(out["vec"]), [[1.0, 1.0]])


class TestFusedStep:
    """One APMI step ``(1-α)·P·V + α·R`` as a single ``spmm`` aggregation."""

    @pytest.mark.parametrize("nb", [1, 4])
    def test_matches_numpy(self, spark, nb):
        n, dcols, alpha = 25, 3, 0.3
        src, dst = _random_graph(n=n, m=100, seed=8)
        mat = np.random.default_rng(9).standard_normal((n, dcols))
        r = np.random.default_rng(10).random((n, dcols))
        p = _p_dense(n, src, dst)
        ew = walk_edges(edges_df(spark, src, dst)).withColumn(
            "w", F.col("w") * (1 - alpha)
        )
        st, rst = make_state(spark, mat, nb), make_state(spark, r, nb)
        for transpose in (False, True):
            expected = (1 - alpha) * (p.T if transpose else p) @ mat + alpha * r
            out = spmm(ew, st, nb, transpose=transpose, restart=rst, alpha=alpha)
            assert np.allclose(state_to_numpy(out, n, dcols), expected, atol=1e-10)

    def test_restart_only_messages_only_and_both(self, spark):
        # Forward messages reach sources: node 1 and node 2 pull node 3's
        # vector. Restart rows sit on nodes 0 and 2; node 3 gets neither.
        ew = spark.createDataFrame(
            pd.DataFrame({"src": [1, 2], "dst": [3, 3], "w": [0.5, 0.25]}),
            schema="src long, dst long, w double",
        )
        st = make_state(spark, np.arange(8.0).reshape(4, 2), 2)
        rst = make_state(
            spark, np.array([[1.0, 2.0], [3.0, 4.0]]), 2, ids=np.array([0, 2])
        )
        out = spmm(ew, st, 2, restart=rst, alpha=0.5)
        pdf = out.toPandas()
        assert sorted(pdf["node"]) == [0, 1, 2]
        assert (pdf["block"] == pdf["node"] % 2).all()
        got = state_to_numpy(out, 4, 2)
        assert np.allclose(got[0], [0.5, 1.0])  # restart only
        assert np.allclose(got[1], [3.0, 3.5])  # messages only
        assert np.allclose(got[2], [1.5 + 1.5, 1.75 + 2.0])  # both
        assert np.allclose(got[3], [0.0, 0.0])


class TestNormalizeAndSums:
    def test_col_sums(self, spark):
        m = np.random.default_rng(10).random((15, 6))
        st = make_state(spark, m, 4)
        assert np.allclose(col_sums(st, 6), m.sum(axis=0))

    def test_col_normalize(self, spark):
        m = np.random.default_rng(11).random((15, 4))
        m[:, 2] = 0.0  # zero column must stay zero
        st = make_state(spark, m, 3)
        got = state_to_numpy(col_normalize(st, 4), 15, 4)
        expected = m / np.where(m.sum(0) > 0, m.sum(0), 1.0)
        assert np.allclose(got, expected)
        assert np.allclose(got[:, 2], 0.0)

    def test_row_normalize(self, spark):
        m = np.random.default_rng(12).random((10, 4))
        m[3] = 0.0  # zero row must stay zero
        st = make_state(spark, m, 3)
        got = state_to_numpy(row_normalize(st), 10, 4)
        sums = got.sum(axis=1)
        assert np.allclose(sums[np.arange(10) != 3], 1.0)
        assert np.allclose(got[3], 0.0)

    def test_row_normalize_vs_duckdb(self, spark):
        m = np.abs(np.random.default_rng(13).random((8, 3))) + 0.1
        st = make_state(spark, m, 2)
        got = row_normalize(st).select(
            "node", F.element_at("vec", 1).alias("c0")
        )
        pdf = pd.DataFrame(
            {"node": np.arange(8), "c0": m[:, 0], "rs": m.sum(axis=1)}
        )
        assert_equivalent(
            got,
            "SELECT node, c0 / rs AS c0 FROM t",
            t=pdf,
        )

    def test_elementwise(self, spark):
        m = np.random.default_rng(14).random((9, 3))
        st = make_state(spark, m, 2)
        got = state_to_numpy(elementwise(st, lambda x: np.log1p(2 * x)), 9, 3)
        assert np.allclose(got, np.log1p(2 * m))
