"""Smoke tests for the spark-submit job entrypoints (NumPy-only jobs run
as real subprocesses; Spark-bound jobs are checked for CLI wiring)."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jobs import _session

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _run(args, timeout=600):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=timeout, cwd=JOBS.parent,
    )


class TestNumpyJobs:
    def test_run_table2(self):
        r = _run([JOBS / "run_table2.py"])
        assert r.returncode == 0, r.stderr
        assert "Table 2" in r.stdout
        # all four qualitative claims must hold on the reconstruction
        assert r.stdout.count("True") == 4 and "False" not in r.stdout

    def test_run_table3_test_profile(self):
        r = _run([JOBS / "run_table3.py", "--profile", "test"])
        assert r.returncode == 0, r.stderr
        for name in ("cora", "mag", "paper"):
            assert name in r.stdout

    def test_run_greedyinit_test_profile(self):
        r = _run(
            [JOBS / "run_greedyinit.py", "--profile", "test",
             "--datasets", "cora", "--k", "16"]
        )
        assert r.returncode == 0, r.stderr
        assert "PANE-R" in r.stdout and "AUC=" in r.stdout

    def test_run_sensitivity_test_profile(self):
        r = _run(
            [JOBS / "run_sensitivity.py", "--profile", "test",
             "--datasets", "cora"]
        )
        assert r.returncode == 0, r.stderr
        assert "alpha=" in r.stdout and "k=16" in r.stdout


class TestSparkJobsCli:
    """Spark jobs: verify CLI wiring (help text) without booting a second
    JVM inside the test session."""

    @pytest.mark.parametrize(
        "job", ["run_table4.py", "run_table5.py", "run_classification.py",
                "run_scalability.py"]
    )
    def test_help_exits_zero(self, job):
        r = _run([JOBS / job, "--help"], timeout=120)
        assert r.returncode == 0, r.stderr
        assert "--profile" in r.stdout


class TestDriverMem:
    """``_session._driver_mem``: env > cgroup limit > 75% of MemTotal > 48g."""

    MEMINFO = "MemTotal:       16384000 kB\nMemFree:        15000000 kB\n"

    @pytest.fixture
    def files(self, monkeypatch):
        monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
        monkeypatch.setenv("_SPARK_DRIVER_MEM_SRC", "")  # restored afterwards
        contents = {}
        monkeypatch.setattr(_session, "_read", contents.get)
        return contents

    def test_env_wins(self, files, monkeypatch):
        files["/sys/fs/cgroup/memory.max"] = str(8 << 30)
        monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
        assert _session._driver_mem() == "3g"

    def test_cgroup_limit(self, files):
        files["/sys/fs/cgroup/memory.max"] = f"{8 << 30}\n"
        files["/proc/meminfo"] = self.MEMINFO
        assert _session._driver_mem() == "6g"

    @pytest.mark.parametrize(
        "cgroup",
        [{}, {"/sys/fs/cgroup/memory.max": "max\n"},
         {"/sys/fs/cgroup/memory/memory.limit_in_bytes": f"{2**63 - 4096}\n"}],
    )
    def test_meminfo_when_no_cgroup_limit(self, files, cgroup):
        files.update(cgroup)
        files["/proc/meminfo"] = self.MEMINFO  # 15.6 GiB → 11g
        assert _session._driver_mem() == "11g"
        assert os.environ["_SPARK_DRIVER_MEM_SRC"] == "meminfo:MemTotal=16384000kB"

    def test_fixed_fallback_without_meminfo(self, files):
        assert _session._driver_mem() == "48g"
