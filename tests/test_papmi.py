"""Lemma 4.1: PAPMI (Algorithm 6) returns the same F', B' as APMI (Alg. 2)."""
import numpy as np
import pytest

from repro.core.affinity import (
    affinities_spark_to_numpy,
    apmi_numpy,
    normalize_attrs,
    papmi_from_states,
    papmi_spark,
)
from repro.core.pane import attr_states, pane_numpy, pane_spark
from repro.linalg.matrix import attrs_df, edges_df
from repro.linalg import state_to_numpy


def _instance(n=24, d=7, deg=3, seed=0):
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for i in range(n):
        for _ in range(deg):
            j = int(rng.integers(0, n))
            if j != i:
                src.append(i)
                dst.append(j)
    n_assoc = 2 * n
    node = rng.integers(0, n, n_assoc).astype(np.int64)
    attr = rng.integers(0, d, n_assoc).astype(np.int64)
    w = 1.0 + rng.random(n_assoc)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), node, attr, w


class TestLemma41:
    @pytest.mark.parametrize("nb", [1, 3, 8])
    def test_papmi_equals_apmi(self, spark, nb):
        n, d = 24, 7
        src, dst, node, attr, w = _instance(n, d)
        alpha, t = 0.5, 5
        f_ref, b_ref = apmi_numpy(n, d, src, dst, node, attr, w, alpha, t)
        rr, rc = normalize_attrs(n, d, node, attr, w)
        fs, bs = papmi_spark(
            spark, edges_df(spark, src, dst), n, d, rr, rc, alpha, t, nb
        )
        f, b = affinities_spark_to_numpy(fs, bs, n, d)
        assert np.abs(f - f_ref).max() < 1e-9
        assert np.abs(b - b_ref).max() < 1e-9

    @pytest.mark.parametrize("alpha,t", [(0.3, 3), (0.7, 8)])
    def test_parameter_variants(self, spark, alpha, t):
        n, d = 18, 5
        src, dst, node, attr, w = _instance(n, d, seed=2)
        f_ref, b_ref = apmi_numpy(n, d, src, dst, node, attr, w, alpha, t)
        rr, rc = normalize_attrs(n, d, node, attr, w)
        fs, bs = papmi_spark(
            spark, edges_df(spark, src, dst), n, d, rr, rc, alpha, t, 4
        )
        f, b = affinities_spark_to_numpy(fs, bs, n, d)
        assert np.abs(f - f_ref).max() < 1e-9
        assert np.abs(b - b_ref).max() < 1e-9

    def test_with_dangling_and_attributeless_nodes(self, spark):
        # node 3 dangling; node 0 attribute-less — the documented deviations
        src = np.array([0, 1, 2], dtype=np.int64)
        dst = np.array([1, 2, 3], dtype=np.int64)
        node = np.array([1, 2, 3], dtype=np.int64)
        attr = np.array([0, 1, 1], dtype=np.int64)
        w = np.ones(3)
        n, d = 4, 2
        f_ref, b_ref = apmi_numpy(n, d, src, dst, node, attr, w, 0.5, 6)
        rr, rc = normalize_attrs(n, d, node, attr, w)
        fs, bs = papmi_spark(spark, edges_df(spark, src, dst), n, d, rr, rc, 0.5, 6, 2)
        f, b = affinities_spark_to_numpy(fs, bs, n, d)
        assert np.abs(f - f_ref).max() < 1e-9
        assert np.abs(b - b_ref).max() < 1e-9

    def test_empty_edge_list_matches_numpy(self, spark):
        """No edges: both paths keep only the restart mass, and agree."""
        n, d, nb = 12, 5, 3
        _, _, node, attr, w = _instance(n, d, seed=7)
        src = dst = np.zeros(0, dtype=np.int64)
        f_ref, b_ref = apmi_numpy(n, d, src, dst, node, attr, w, 0.5, 6)
        rr_s, rc_s = attr_states(spark, attrs_df(spark, node, attr, w), d, nb)
        fs, bs = papmi_from_states(
            edges_df(spark, src, dst), rr_s, rc_s, n, d, 0.5, 6, nb
        )
        f, b = affinities_spark_to_numpy(fs, bs, n, d)
        assert np.abs(f - f_ref).max() < 1e-9
        assert np.abs(b - b_ref).max() < 1e-9
        _assert_exact_scores_agree(spark, (n, d, src, dst, node, attr, w), nb)

    @pytest.mark.parametrize("nb", [1, 3])
    def test_one_sided_nodes_match_numpy(self, spark, nb):
        """Nodes 10 and 11 have no attributes; 10 has only out-edges (an F'
        row, no B' row), 11 only in-edges (a B' row, no F' row). Both keep
        their embedding rows on Spark, as in NumPy."""
        n, d = 12, 5
        src, dst, node, attr, w = _instance(10, d, seed=7)
        src = np.concatenate([src, [10, 10, 3, 6]])
        dst = np.concatenate([dst, [2, 5, 11, 11]])
        _assert_exact_scores_agree(spark, (n, d, src, dst, node, attr, w), nb)


def _assert_exact_scores_agree(spark, args, nb):
    """With k/2 = d both factorizations are exact, so every Eq. (21) and
    Eq. (22) score of ``pane_spark`` must equal ``pane_numpy``'s."""
    n, d = args[:2]
    emb_p = pane_spark(spark, *args, k=2 * d, nb=nb)
    emb_s = pane_numpy(*args, k=2 * d)
    vs, rs = np.divmod(np.arange(n * d), d)
    assert np.allclose(
        emb_p.attr_scores(vs, rs), emb_s.attr_scores(vs, rs), atol=1e-9
    )
    us, ws = np.divmod(np.arange(n * n), n)
    assert np.allclose(
        emb_p.link_scores(us, ws), emb_s.link_scores(us, ws), atol=1e-9
    )


class TestAttrStates:
    """The distributed R_r/R_c builder matches the NumPy normalization."""

    @pytest.mark.parametrize("nb", [1, 4])
    def test_matches_numpy(self, spark, nb):
        n, d = 20, 6
        _, _, node, attr, w = _instance(n, d, seed=5)
        rr_ref, rc_ref = normalize_attrs(n, d, node, attr, w)
        rr_s, rc_s = attr_states(spark, attrs_df(spark, node, attr, w), d, nb)
        assert np.abs(state_to_numpy(rr_s, n, d) - rr_ref).max() < 1e-12
        assert np.abs(state_to_numpy(rc_s, n, d) - rc_ref).max() < 1e-12

    def test_duplicate_entries_accumulate(self, spark):
        node = np.array([0, 0, 1], dtype=np.int64)
        attr = np.array([1, 1, 0], dtype=np.int64)
        w = np.array([1.0, 3.0, 2.0])
        rr_s, rc_s = attr_states(spark, attrs_df(spark, node, attr, w), 2, 2)
        rr = state_to_numpy(rr_s, 2, 2)
        assert rr[0, 1] == pytest.approx(1.0)  # 4/4 after merge
        rc = state_to_numpy(rc_s, 2, 2)
        assert rc[0, 1] == pytest.approx(1.0)
