"""The traced pipelines compute what ``pane_spark`` / ``pane_numpy`` compute.

The benchmark's traced run calls the layer functions itself; if a driver's
composition changes, these tests fail instead of the trace silently
measuring a different pipeline. Link scores are compared rather than raw
factors, so SVD sign flips cannot trip the check.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""
import numpy as np
import pytest

from perfbench.run import ALPHA, EPS, NB
from perfbench.stages import StageReader
from perfbench.trace import Tracer, traced_numpy, traced_spark
from repro.core.pane import pane_numpy, pane_spark
from repro.datasets import load
from repro.eval.splits import link_split

K = 16  # the test profile has few attributes; k/2 must not exceed d
SEED = 3


@pytest.fixture(scope="module")
def inputs():
    g = load("cora", "test", seed=0)
    split = link_split(g, seed=0)
    args = (g.n, g.d, split.train_src, split.train_dst, g.node, g.attr, g.weight)
    return args, split


def scores(emb, split):
    return emb.link_scores(split.test_src, split.test_dst)


def test_traced_numpy_matches_pane_numpy(inputs):
    args, split = inputs
    kw = dict(k=K, alpha=ALPHA, eps=EPS, seed=SEED)
    tracer = Tracer()
    res = traced_numpy(tracer, *args, **kw)
    ref = pane_numpy(*args, **kw)
    assert np.abs(scores(res.emb, split) - scores(ref, split)).max() < 1e-9
    assert [s.name for s in tracer.spans] == ["apmi", "init", "ccd"]
    assert 0 < res.ccd_rel_err <= res.init_rel_err < 1


def test_traced_spark_matches_pane_spark(spark, inputs):
    args, split = inputs
    kw = dict(k=K, alpha=ALPHA, eps=EPS, nb=NB, seed=SEED)
    tracer = Tracer(StageReader(spark))
    res = traced_spark(tracer, spark, *args, **kw)
    ref = pane_spark(spark, *args, **kw)
    assert np.abs(scores(res.emb, split) - scores(ref, split)).max() < 1e-9
    assert [s.name for s in tracer.spans] == [
        "load", "attr_states", "papmi", "init", "ccd", "collect"
    ]
    assert all(s.stage_metrics["stages"] > 0 for s in tracer.spans[1:])
    assert 0 < res.ccd_rel_err <= res.init_rel_err < 1
