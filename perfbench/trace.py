"""Spans around the layer calls of the PANE drivers, recorded from outside.

The traced pipelines below call the same layer functions, in the same
order and with the same arguments, as ``repro.core.pane.pane_spark`` and
``pane_numpy``; ``test_fidelity.py`` checks that they still do. Every
Spark layer ends in an eager ``localCheckpoint`` or a collect, so a span
closes only after its layer's work is done and its wall time is exact.
Spans are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from perfbench.stages import StageReader, zero_stage_metrics
from repro.core.affinity import (
    affinities_spark_to_numpy,
    apmi_numpy,
    num_iterations,
    papmi_from_states,
)
from repro.core.ccd import collect_embeddings, objective, psvdccd_spark, svdccd_numpy
from repro.core.greedy_init import greedy_init_numpy, sm_greedy_init_spark
from repro.core.pane import PaneEmbedding, attr_states
from repro.linalg.matrix import attrs_df, edges_df

SPARK_SPANS = ("load", "attr_states", "papmi", "init", "ccd", "collect")


@dataclass
class Span:
    """One layer call: wall and driver-CPU time, plus its Spark stages."""

    name: str
    start: float
    end: float
    cpu_s: float
    stage_metrics: dict

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {
            "span": self.name, "parent": "embed",
            "start": self.start, "end": self.end, "wall_s": self.wall_s,
            "cpu_s": self.cpu_s, **self.stage_metrics,
        }


class Tracer:
    """Records spans; with a ``StageReader`` each also gets its Spark stages."""

    def __init__(self, reader: StageReader | None = None):
        self.reader = reader
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str):
        snap = self.reader.snapshot() if self.reader else None
        start, cpu = time.perf_counter(), time.process_time()
        yield
        end, cpu_end = time.perf_counter(), time.process_time()
        stage_metrics = self.reader.since(snap) if self.reader else zero_stage_metrics()
        self.spans.append(Span(name, start, end, cpu_end - cpu, stage_metrics))


def rel_err(f, b, xf, xb, y) -> float:
    """Equation (4)'s objective as a share of ‖F′‖² + ‖B′‖²."""
    return objective(f, b, xf, xb, y) / float(np.sum(f * f) + np.sum(b * b))


@dataclass
class TracedResult:
    emb: PaneEmbedding
    init_rel_err: float
    ccd_rel_err: float
    # Wall time spent between the spans on ``init_rel_err`` (on Spark,
    # collecting F′, B′ and the initial embedding); not part of the pipeline.
    extra_s: float


def traced_spark(tracer: Tracer, spark, n, d, src, dst, node, attr, weight,
                 k, alpha, eps, nb, seed) -> TracedResult:
    """``pane_spark`` (greedy init), one span per layer."""
    t = num_iterations(eps, alpha)
    k2 = k // 2
    with tracer.span("load"):
        edges = edges_df(spark, src, dst)
        assoc = attrs_df(spark, node, attr, weight)
    with tracer.span("attr_states"):
        rr_state, rc_state = attr_states(spark, assoc, d, nb)
    with tracer.span("papmi"):
        f_state, b_state = papmi_from_states(
            edges, rr_state, rc_state, n, d, alpha, t, nb
        )
    with tracer.span("init"):
        state, y = sm_greedy_init_spark(f_state, b_state, d, k2, t, seed)
    t0 = time.perf_counter()
    f, b = affinities_spark_to_numpy(f_state, b_state, n, d)
    init_err = rel_err(f, b, *collect_embeddings(state, n, k2), y)
    extra_s = time.perf_counter() - t0
    with tracer.span("ccd"):
        state, y = psvdccd_spark(state, y, t)
    with tracer.span("collect"):
        xf, xb = collect_embeddings(state, n, k2)
    return TracedResult(
        PaneEmbedding(xf, xb, y), init_err, rel_err(f, b, xf, xb, y), extra_s
    )


def traced_numpy(tracer: Tracer, n, d, src, dst, node, attr, weight,
                 k, alpha, eps, seed) -> TracedResult:
    """``pane_numpy`` (greedy init), one span per layer."""
    t = num_iterations(eps, alpha)
    with tracer.span("apmi"):
        f, b = apmi_numpy(n, d, src, dst, node, attr, weight, alpha, t)
    with tracer.span("init"):
        xf, xb, y = greedy_init_numpy(f, b, k // 2, t, seed)
    t0 = time.perf_counter()
    init_err = rel_err(f, b, xf, xb, y)
    extra_s = time.perf_counter() - t0
    with tracer.span("ccd"):
        xf, xb, y = svdccd_numpy(f, b, xf, xb, y, t)
    return TracedResult(
        PaneEmbedding(xf, xb, y), init_err, rel_err(f, b, xf, xb, y), extra_s
    )
