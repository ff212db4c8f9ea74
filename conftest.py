import os
import sys

import pytest
from pyspark.sql import SparkSession

from jobs._session import build_session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Built by ``jobs/_session.build_session``, the same builder the jobs
    and the benchmark use.
    """
    s = build_session("repro")
    # One line in test_output.txt that tells whether the cgroup
    # derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
