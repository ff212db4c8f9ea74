"""End-to-end PANE tests: Algorithm 1 vs Algorithm 5, scoring APIs, ablations."""
import numpy as np
import pytest

from repro.core.affinity import apmi_numpy, num_iterations
from repro.core.ccd import objective, svdccd_numpy
from repro.core.greedy_init import random_init_numpy
from repro.core.pane import PaneEmbedding, pane_numpy, pane_spark
from repro.datasets import load
from repro.eval.metrics import roc_auc
from repro.eval.splits import attribute_split, link_split


@pytest.fixture(scope="module")
def g():
    return load("cora", profile="test")


@pytest.fixture(scope="module")
def emb_st(g):
    return pane_numpy(
        g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, k=32, seed=0
    )


class TestSingleThread:
    def test_shapes(self, g, emb_st):
        assert emb_st.xf.shape == (g.n, 16)
        assert emb_st.xb.shape == (g.n, 16)
        assert emb_st.y.shape == (g.d, 16)

    def test_deterministic(self, g, emb_st):
        emb2 = pane_numpy(
            g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, k=32, seed=0
        )
        assert np.array_equal(emb_st.xf, emb2.xf)
        assert np.array_equal(emb_st.y, emb2.y)

    def test_reconstructs_affinities(self, g, emb_st):
        t = num_iterations(0.015, 0.5)
        f, b = apmi_numpy(g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, 0.5, t)
        rel_f = np.linalg.norm(f - emb_st.xf @ emb_st.y.T) / np.linalg.norm(f)
        rel_b = np.linalg.norm(b - emb_st.xb @ emb_st.y.T) / np.linalg.norm(b)
        assert rel_f < 0.8 and rel_b < 0.8  # far better than the zero model

    def test_greedy_beats_random_at_equal_iterations(self, g, emb_st):
        """Section 5.7 (Figures 7-8): GreedyInit beats random init. PANE-R
        is composed as ``tables.greedyinit_rows`` composes it."""
        t = num_iterations(0.015, 0.5)
        f, b = apmi_numpy(g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, 0.5, t)
        e_r = svdccd_numpy(f, b, *random_init_numpy(g.n, g.d, 16, seed=0), t)
        assert objective(f, b, emb_st.xf, emb_st.xb, emb_st.y) < objective(
            f, b, *e_r
        )

    def test_attr_scores_eq21(self, g, emb_st):
        nodes = np.array([0, 1, 2])
        attrs = np.array([0, 1, 2])
        got = emb_st.attr_scores(nodes, attrs)
        want = np.array(
            [
                emb_st.xf[v] @ emb_st.y[r] + emb_st.xb[v] @ emb_st.y[r]
                for v, r in zip(nodes, attrs)
            ]
        )
        assert np.allclose(got, want)

    def test_link_scores_eq22(self, g, emb_st):
        src = np.array([0, 3])
        dst = np.array([1, 4])
        got = emb_st.link_scores(src, dst)
        want = np.array(
            [
                sum(
                    (emb_st.xf[u] @ emb_st.y[r]) * (emb_st.xb[v] @ emb_st.y[r])
                    for r in range(g.d)
                )
                for u, v in zip(src, dst)
            ]
        )
        assert np.allclose(got, want, rtol=1e-8)

    def test_node_features_normalized_concat(self, g, emb_st):
        feats = emb_st.node_features()
        assert feats.shape == (g.n, 32)
        half = feats[:, :16]
        norms = np.linalg.norm(half, axis=1)
        nz = norms > 0
        assert np.allclose(norms[nz], 1.0)


@pytest.mark.parametrize(
    "kwargs, name", [({"alpha": 1.0}, "alpha"), ({"alpha": 0.0}, "alpha"),
                     ({"eps": 0.0}, "eps"), ({"eps": 1.5}, "eps")]
)
def test_drivers_reject_bad_alpha_eps_alike(spark, g, kwargs, name):
    args = (g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight)
    with pytest.raises(ValueError, match=rf"^{name} must be in") as e_np:
        pane_numpy(*args, **kwargs)
    with pytest.raises(ValueError, match=rf"^{name} must be in") as e_sp:
        pane_spark(spark, *args, nb=2, **kwargs)
    assert str(e_np.value) == str(e_sp.value)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"k": 7}, "k must be an even integer >= 2, got 7"),
        ({"k": 0}, "k must be an even integer >= 2, got 0"),
        ({"dst": np.array([1, 2])}, "src, dst must have equal lengths, got [3, 2]"),
        ({"weight": np.ones(2)},
         "node, attr, weight must have equal lengths, got [3, 3, 2]"),
        ({"src": np.array([0, 1, 4])}, "src ids must be in [0, 4), got [0, 4]"),
        ({"node": np.array([-1, 1, 2])}, "node ids must be in [0, 4), got [-1, 2]"),
        ({"attr": np.array([0, 1, 2])}, "attr ids must be in [0, 2), got [0, 2]"),
    ],
)
def test_drivers_reject_bad_inputs_alike(spark, change, message):
    inputs = {
        "n": 4, "d": 2,
        "src": np.array([0, 1, 2]), "dst": np.array([1, 2, 3]),
        "node": np.array([1, 2, 3]), "attr": np.array([0, 1, 1]),
        "weight": np.ones(3), "k": 2, **change,
    }
    with pytest.raises(ValueError) as e_np:
        pane_numpy(**inputs)
    with pytest.raises(ValueError) as e_sp:
        pane_spark(spark, nb=2, **inputs)
    assert str(e_np.value) == str(e_sp.value) == message


class TestParallelVsSingle:
    @pytest.fixture(scope="class")
    def emb_par(self, spark, g):
        return pane_spark(
            spark, g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight,
            k=32, nb=4, seed=0,
        )

    def test_shapes(self, g, emb_par):
        assert emb_par.xf.shape == (g.n, 16) and emb_par.y.shape == (g.d, 16)

    def test_objective_close_to_single_thread(self, g, emb_st, emb_par):
        """§4: parallel PANE trades a small utility loss for speed."""
        t = num_iterations(0.015, 0.5)
        f, b = apmi_numpy(g.n, g.d, g.src, g.dst, g.node, g.attr, g.weight, 0.5, t)
        o_st = objective(f, b, emb_st.xf, emb_st.xb, emb_st.y)
        o_par = objective(f, b, emb_par.xf, emb_par.xb, emb_par.y)
        zero = objective(f, b, 0 * emb_st.xf, 0 * emb_st.xb, emb_st.y)
        assert o_par < 0.7 * zero  # genuinely fits the affinities
        assert o_par < 1.5 * o_st  # close to the single-thread optimum

    def test_reconstruction_correlates_with_single_thread(self, emb_st, emb_par):
        r_st = (emb_st.xf @ emb_st.y.T).ravel()
        r_par = (emb_par.xf @ emb_par.y.T).ravel()
        assert np.corrcoef(r_st, r_par)[0, 1] > 0.9

    def test_task_quality_parity(self, spark, g, emb_st, emb_par):
        """AUC gap between parallel and single-thread stays small (Table 4)."""
        s = attribute_split(g, seed=0)
        auc_st = roc_auc(
            s.test_label, emb_st.attr_scores(s.test_node, s.test_attr)
        )
        auc_par = roc_auc(
            s.test_label, emb_par.attr_scores(s.test_node, s.test_attr)
        )
        assert abs(auc_st - auc_par) < 0.1


class TestBetterThanRandomEmbeddings:
    def test_attr_inference_beats_noise(self, g):
        s = attribute_split(g, seed=0)
        emb = pane_numpy(
            g.n, g.d, g.src, g.dst, s.train_node, s.train_attr, s.train_weight,
            k=32, seed=0,
        )
        auc = roc_auc(s.test_label, emb.attr_scores(s.test_node, s.test_attr))
        rng = np.random.default_rng(0)
        noise = PaneEmbedding(
            rng.standard_normal(emb.xf.shape),
            rng.standard_normal(emb.xb.shape),
            rng.standard_normal(emb.y.shape),
        )
        auc_noise = roc_auc(
            s.test_label, noise.attr_scores(s.test_node, s.test_attr)
        )
        assert auc > 0.6 > auc_noise + 0.05 or auc > auc_noise + 0.15

    def test_link_prediction_beats_noise(self, g):
        s = link_split(g, seed=0)
        emb = pane_numpy(
            g.n, g.d, s.train_src, s.train_dst, g.node, g.attr, g.weight,
            k=32, seed=0,
        )
        auc = roc_auc(s.test_label, emb.link_scores(s.test_src, s.test_dst))
        assert auc > 0.6
