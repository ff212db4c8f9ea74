"""The one SparkSession builder: spark-submit jobs, the test fixture, perfbench.

local[*] (``SPARK_MASTER`` overrides), Arrow on, broadcast joins off so
the SpMM message passing really shuffles, 32 shuffle partitions
(``SPARK_SHUFFLE_PARTITIONS`` overrides), quiet progress bars.
"""
import os


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _driver_mem() -> str:
    """~75% of the machine's memory, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > /proc/meminfo MemTotal > 48g fallback. spark.driver.memory is
    read at JVM launch, not from SparkConf, so it goes into
    PYSPARK_SUBMIT_ARGS before the first session starts.

    The cgroup read is best-effort: sandboxed kernels may not pass the
    host limit through. An unbounded value (cgroup-v1's ~9.2e18
    "unlimited" sentinel, or a missing limit) is treated as absent, and
    the host's physical memory is used instead, so the JVM is never
    handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        raw = (_read(p) or "").strip()
        try:
            gib = int(raw) / (1 << 30)
        except ValueError:  # missing, empty or "max"
            continue
        if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
            continue
        os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
        return f"{max(1, int(gib * 0.75))}g"
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            kib = int(line.split()[1])
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"meminfo:MemTotal={kib}kB"
            return f"{max(1, int(kib / (1 << 20) * 0.75))}g"
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def build_session(app: str):
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "32"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
