#!/usr/bin/env python3
"""PANE benchmark: COO arrays in, a ``PaneEmbedding`` out, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload mag-spark --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the layer
functions one span at a time and prints the per-layer metrics. The last
line of standard output is the result object; the lines before it are
the environment record, a run summary and (traced) the spans.
Workloads, metrics and baseline numbers are in ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NB, K, ALPHA, EPS = 4, 128, 0.5, 0.015
# The ``mag`` bench stand-in's shape (d, labels, attributes per node,
# edges per node) at 1/8 of its nodes and edges, so that every run of a
# Spark workload fits its time budget (README.md, "Scale").
MAG = dict(name="mag", n=2500, d=256, m=43750, n_labels=16, avg_attrs=7,
           directed=True)
WORKLOADS = {"mag-spark": "spark", "mag-numpy": "numpy"}
DRIVER_MEM = "4g"
# Fresh interpreters started by an untraced run besides its own. Each
# times a set-up and, on NumPy, a cold embed: ~3 s there, against ~35 s on
# Spark, where only the run's own process pays one.
PROBES = 2
# The gate: every embedding's link AUC must reach the NumPy path's AUC on
# the same split, less float noise, and the floor recorded for the graph.
AUC_TOL = 1e-3
MIN_AUC = 0.87  # lowest AUC over 27 seeds at this commit: 0.8872


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="only time one set-up (and cold embed), print it and exit")
    return p.parse_args(argv)


def configure_env(work: Path) -> None:
    """Pin the Spark settings and keep every scratch file inside ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    for name in ("PYSPARK_SUBMIT_ARGS", "SPARK_SHUFFLE_PARTITIONS"):
        os.environ.pop(name, None)
    os.environ.update(
        SPARK_MASTER=f"local[{os.cpu_count()}]",
        SPARK_DRIVER_MEM=DRIVER_MEM,
        SPARK_LOCAL_DIRS=str(work),
        TMPDIR=str(work),
        JAVA_TOOL_OPTIONS=f"-Djava.io.tmpdir={work}",
        PYSPARK_PYTHON=sys.executable,
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep),
    )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def setup(path: str):
    """Imports plus SparkSession start: what a user pays before the first call.

    The program's modules are imported here rather than at the top of
    this file so that their import time is part of the measurement.
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import repro.core.pane  # noqa: F401
    import repro.eval.metrics  # noqa: F401

    spark = None
    if path == "spark":
        from jobs._session import build_session

        spark = build_session("perfbench")
    return time.perf_counter() - t0, spark


def teardown(spark) -> None:
    """Stop Spark and wait until its JVM (and its Python workers) exit."""
    if spark is None:
        return
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        gateway.proc.wait(timeout=60)
        SparkContext._gateway = None


def probe(workload: str, seed: int) -> dict:
    """Run ``run_probe`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--probe"],
        stdout=subprocess.PIPE, text=True, timeout=150, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_probe(path: str, seed: int) -> dict:
    """One set-up and, on NumPy, one cold embed."""
    setup_s, spark = setup(path)
    try:
        out = {"setup_s": setup_s, "first_embed_s": None, "embeds": []}
        if path == "numpy":
            g, split = make_inputs(seed)
            gate = Gate(g, split)
            out["first_embed_s"] = cold_embed(path, spark, g, split, seed, gate)
            out["embeds"] = gate.embeds
        return out
    finally:
        teardown(spark)


def make_inputs(seed: int):
    from repro.datasets import attributed_graph
    from repro.eval.splits import link_split

    g = attributed_graph(seed=seed, **MAG)
    return g, link_split(g, seed=seed)


def embed(path: str, spark, g, split, seed: int):
    from repro.core.pane import pane_numpy, pane_spark

    args = (g.n, g.d, split.train_src, split.train_dst, g.node, g.attr, g.weight)
    if path == "spark":
        return pane_spark(spark, *args, k=K, alpha=ALPHA, eps=EPS, nb=NB, seed=seed)
    return pane_numpy(*args, k=K, alpha=ALPHA, eps=EPS, seed=seed)


class Gate:
    """Checks every embedding and counts failed embeds against attempts."""

    def __init__(self, g, split):
        self.g, self.split = g, split
        self.embeds: list[dict] = []  # per attempt: its AUC and its problem

    def call(self, fn):
        """Time one embed; returns ``(seconds, result or None if it raised)``."""
        self.embeds.append({"auc": None, "problem": None})
        gc.collect()  # the benchmark's own garbage is not the program's cost
        t0 = time.perf_counter()
        try:
            res = fn()
        except Exception:  # an embed that raises counts as failed; run on
            traceback.print_exc()
            self.embeds[-1]["problem"] = "raised"
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, res

    def check(self, emb) -> bool:
        """Shapes and finiteness of the last embed; its AUC is judged in ``finish``."""
        import numpy as np

        k2 = K // 2
        n, d = self.g.n, self.g.d
        for name, arr, shape in (("xf", emb.xf, (n, k2)), ("xb", emb.xb, (n, k2)),
                                 ("y", emb.y, (d, k2))):
            if arr.shape != shape or not np.isfinite(arr).all():
                self.embeds[-1]["problem"] = f"bad {name} {arr.shape}"
                return False
        self.embeds[-1]["auc"] = link_auc(emb, self.split)
        return True

    def finish(self, reference: float | None) -> None:
        """Judge every AUC; without a reference none can pass."""
        floor = max(reference - AUC_TOL, MIN_AUC) if reference is not None else None
        for e in self.embeds:
            if e["auc"] is None:
                continue
            if floor is None:
                e["problem"] = "no reference AUC"
            elif e["auc"] < floor:
                e["problem"] = f"link_auc {e['auc']:.5f} below {floor:.5f}"

    @property
    def attempted(self) -> int:
        return len(self.embeds)

    @property
    def failed(self) -> int:
        return sum(e["problem"] is not None for e in self.embeds)

    @property
    def aucs(self) -> list[float]:
        return [e["auc"] for e in self.embeds if e["auc"] is not None]


def link_auc(emb, split) -> float:
    """§5.3 link-prediction AUC with Eq. (22) scores."""
    from repro.eval.metrics import roc_auc

    return roc_auc(split.test_label, emb.link_scores(split.test_src, split.test_dst))


def environment(spark, g, split, seed: int) -> dict:
    import numpy as np
    import pyspark

    from repro.core.affinity import num_iterations

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "nb": NB,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "spark": pyspark.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "seed": seed,
        "dataset": {"name": g.name, "n": g.n, "train_edges": len(split.train_src),
                    "d": g.d, "assoc": g.n_assoc, "t": num_iterations(EPS, ALPHA),
                    "k": K, "alpha": ALPHA, "eps": EPS},
    }
    if spark is not None:
        conf = spark.sparkContext.getConf()
        env.update(
            master=spark.sparkContext.master,
            shuffle_partitions=spark.conf.get("spark.sql.shuffle.partitions"),
            driver_memory=conf.get("spark.driver.memory", DRIVER_MEM),
        )
    return env


def unit(name: str) -> str:
    metric = name.rsplit(".", 1)[-1]
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric in ("stages", "tasks", "shuffle_records"):
        return "count"
    return "1"


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    from perfbench.stages import STAGE_METRICS
    from perfbench.trace import SPARK_SPANS

    names = [f"{s}.{m}" for s in SPARK_SPANS
             for m in ("wall_s", "cpu_s", "slot_busy") + STAGE_METRICS]
    return names + ["apmi.wall_s", "apmi.cpu_s", "score.wall_s", "init.rel_err",
                    "ccd.rel_err", "embed.wall_s", "embed.stages",
                    "embed.shuffle_write_mb", "trace.overhead_s"]


def cold_embed(path, spark, g, split, seed, gate) -> float | None:
    """The first pipeline call in the process; None if it failed."""
    dt, emb = gate.call(lambda: embed(path, spark, g, split, seed))
    return dt if emb is not None and gate.check(emb) else None


def run_untraced(path, spark, g, split, seed, seconds, gate, probes) -> dict:
    colds = [p["first_embed_s"] for p in probes if p["first_embed_s"] is not None]
    first_s = cold_embed(path, spark, g, split, seed, gate)
    if first_s is not None:
        colds.append(first_s)
    warm = []
    loop_start = time.perf_counter()
    while True:  # at least one warm attempt, then until ``seconds`` have passed
        dt, emb = gate.call(lambda: embed(path, spark, g, split, seed))
        if emb is not None and gate.check(emb):
            warm.append(dt)
        if time.perf_counter() - loop_start >= seconds:
            break
    return {
        "first_embed_s": statistics.median(colds) if colds else None,
        "first_embed_samples": colds,
        "embed_s": statistics.median(warm) if warm else None,
        "embed_samples": warm,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def run_traced(path, spark, g, split, seed, gate) -> tuple[dict, list]:
    """A cold embed, then a traced one between two warm untraced ones.

    Bracketing the traced embed cancels the warm-up trend of later calls
    in ``trace.overhead_s``.
    """
    from perfbench.stages import StageReader
    from perfbench.trace import Tracer, traced_numpy, traced_spark

    names = per_layer_names()
    metrics = dict.fromkeys(names, 0.0)
    reader = StageReader(spark) if spark is not None else None

    def warm_embed():
        snap = reader.snapshot() if reader else None
        dt, emb = gate.call(lambda: embed(path, spark, g, split, seed))
        if emb is None or not gate.check(emb):
            return None
        if reader:
            totals = reader.since(snap)
            metrics["embed.stages"] = totals["stages"]
            metrics["embed.shuffle_write_mb"] = totals["shuffle_write_mb"]
        return dt

    cold_embed(path, spark, g, split, seed, gate)
    warm = [warm_embed()]
    tracer = Tracer(reader)
    args = (g.n, g.d, split.train_src, split.train_dst, g.node, g.attr, g.weight)
    kw = dict(k=K, alpha=ALPHA, eps=EPS, seed=seed)
    if path == "spark":
        _, res = gate.call(lambda: traced_spark(tracer, spark, *args, nb=NB, **kw))
    else:
        _, res = gate.call(lambda: traced_numpy(tracer, *args, **kw))
    if res is not None:
        traced_s = tracer.spans[-1].end - tracer.spans[0].start - res.extra_s
        with tracer.span("score"):
            res.emb.link_scores(split.test_src, split.test_dst)
        gate.check(res.emb)
    warm = [w for w in warm + [warm_embed()] if w is not None]
    if res is None or not warm:
        return metrics, tracer.spans

    cores = spark.sparkContext.defaultParallelism if spark is not None else 1
    for s in tracer.spans:
        values = {"wall_s": s.wall_s, "cpu_s": s.cpu_s, **s.stage_metrics,
                  "slot_busy": s.stage_metrics["executor_run_s"] / (s.wall_s * cores)}
        metrics.update((f"{s.name}.{m}", v) for m, v in values.items()
                       if f"{s.name}.{m}" in names)
    metrics["init.rel_err"] = res.init_rel_err
    metrics["ccd.rel_err"] = res.ccd_rel_err
    metrics["embed.wall_s"] = statistics.median(warm)
    metrics["trace.overhead_s"] = traced_s - metrics["embed.wall_s"]
    return metrics, tracer.spans


def reference_auc(path, spark, g, split, seed, gate) -> float | None:
    """The NumPy path's AUC on the same split; None if that call fails.

    On a NumPy workload the run's own cold embed is that call; otherwise
    it is made here, after the timing.
    """
    if path == "numpy" and gate.embeds[0]["auc"] is not None:
        return gate.embeds[0]["auc"]
    try:
        return link_auc(embed("numpy", spark, g, split, seed), split)
    except Exception:  # reported as failed embeds by ``Gate.finish``
        traceback.print_exc()
        return None


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "_session.py").is_file():
        print(f"perfbench: no program sources under {ROOT}", file=sys.stderr)
        return 2
    path = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    configure_env(work)
    spark = None
    try:
        if args.probe:
            emit(run_probe(path, args.seed))
            return 0

        probes = [] if args.trace else [probe(args.workload, args.seed)
                                        for _ in range(PROBES)]
        setup_s, spark = setup(path)
        setups = [p["setup_s"] for p in probes] + [setup_s]

        g, split = make_inputs(args.seed)
        emit({"env": environment(spark, g, split, args.seed)})
        gate = Gate(g, split)
        if args.trace:
            metrics, spans = run_traced(path, spark, g, split, args.seed, gate)
            for s in spans:
                emit(s.record())
            summary = {}
        else:
            summary = run_untraced(path, spark, g, split, args.seed, args.seconds,
                                   gate, probes)
        reference = reference_auc(path, spark, g, split, args.seed, gate)
        gate.embeds += [e for p in probes for e in p["embeds"]]
        gate.finish(reference)
        teardown(spark)
        spark = None
        if not args.trace:
            metrics = {
                "setup_s": statistics.median(setups),
                "first_embed_s": summary["first_embed_s"],
                "embed_s": summary["embed_s"],
                "link_auc": statistics.median(gate.aucs) if gate.aucs else None,
                "peak_rss_mb": summary["peak_rss_mb"],
            }
        emit({"summary": {**summary, "setup_samples": setups, "aucs": gate.aucs,
                          "reference_auc": reference, "embeds": gate.embeds}})
        correct = gate.failed == 0 and all(
            v is not None and math.isfinite(v) for v in metrics.values()
        )
        emit({
            "correct": correct,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        })
        return 0
    finally:
        teardown(spark)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run (or a probe's parent) still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
