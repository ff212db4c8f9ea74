"""The stage-metrics helper on a known shuffle and on a span with no Spark work.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""
import numpy as np

from perfbench.stages import StageReader
from perfbench.trace import Tracer


def test_groupby_over_four_partitions(spark):
    reader = StageReader(spark)
    snap = reader.snapshot()
    rows = (
        spark.range(0, 10_000, numPartitions=4)
        .selectExpr("id % 7 AS k")
        .groupBy("k")
        .count()
        .collect()
    )
    assert sum(r["count"] for r in rows) == 10_000
    stages = reader.stages_since(snap)
    assert len(stages) >= 1
    maps = [s for s in stages if s["shuffle_write_mb"] > 0]
    assert [s["tasks"] for s in maps] == [4]
    assert maps[0]["shuffle_records"] > 0
    totals = reader.since(snap)
    assert totals["stages"] == len(stages)
    assert totals["shuffle_write_mb"] == maps[0]["shuffle_write_mb"]


def test_numpy_only_span_has_no_stages(spark):
    tracer = Tracer(StageReader(spark))
    with tracer.span("apmi"):
        np.linalg.svd(np.random.default_rng(0).random((200, 50)))
    (span,) = tracer.spans
    assert span.stage_metrics["stages"] == 0
    assert span.stage_metrics["tasks"] == 0
    assert span.wall_s > 0
