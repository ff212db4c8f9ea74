"""Per-stage Spark metrics, read from the driver's application status store.

The store (``SparkContext.statusStore``) is the data behind the Spark UI
and is kept even with ``spark.ui.enabled=false``. It is a private API, so
every call into it lives in this module. Stages are assigned to an
interval by stage id: the stages that appear after a snapshot taken at
the interval's start. A skipped stage (its shuffle output already existed)
counts as a stage but runs no tasks.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

MB = 1e6

# Summed fields of the status store's ``v1.StageData``, keyed by the
# name they are reported under, with the scale that converts them.
_FIELDS = {
    "tasks": ("numCompleteTasks", 1),
    "executor_run_s": ("executorRunTime", 1e-3),
    "gc_s": ("jvmGcTime", 1e-3),
    "shuffle_write_mb": ("shuffleWriteBytes", 1 / MB),
    "shuffle_read_mb": ("shuffleReadBytes", 1 / MB),
    "shuffle_records": ("shuffleWriteRecords", 1),
    "spill_mb": ("diskBytesSpilled", 1 / MB),
}

STAGE_METRICS = ("stages",) + tuple(_FIELDS)


def zero_stage_metrics() -> dict[str, float]:
    """The stage metrics of an interval that ran no Spark stage."""
    return dict.fromkeys(STAGE_METRICS, 0)


class StageReader:
    """Sums the metrics of the Spark stages run since a snapshot."""

    def __init__(self, spark: SparkSession):
        sc = spark.sparkContext._jsc.sc()
        self._store = sc.statusStore()
        self._bus = sc.listenerBus()
        self._defaults = [
            getattr(self._store, f"stageList$default${i}")() for i in range(2, 6)
        ]

    def _stage_list(self):
        # Stage events reach the store asynchronously; drain them first so
        # the stages of jobs that have returned are complete.
        self._bus.waitUntilEmpty()
        return self._store.stageList(None, *self._defaults)

    def snapshot(self) -> int:
        """The highest stage id known now; later stages have larger ids."""
        stages = self._stage_list()
        return max((stages.apply(i).stageId() for i in range(stages.size())), default=-1)

    def stages_since(self, snapshot: int) -> list[dict[str, float]]:
        """One metrics record per stage with an id above ``snapshot``."""
        stages = self._stage_list()
        out = []
        for i in range(stages.size()):
            s = stages.apply(i)
            if s.stageId() > snapshot:
                out.append({name: getattr(s, field)() * scale
                            for name, (field, scale) in _FIELDS.items()})
        return out

    def since(self, snapshot: int) -> dict[str, float]:
        """Metrics summed over the stages with an id above ``snapshot``."""
        out = zero_stage_metrics()
        for stage in self.stages_since(snapshot):
            out["stages"] += 1
            for name, value in stage.items():
                out[name] += value
        return out
