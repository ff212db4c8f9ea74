"""Shared helpers for the table benchmarks.

Each bench computes one paper table (or one dataset's slice of it),
prints the rows, and persists them under ``benchmarks/results/`` so the
paper-vs-measured tables live in artifacts rather than scrollback.
"""
from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(text)


def bench_datasets() -> list[str] | None:
    """Optional dataset subset via REPRO_BENCH_DATASETS=cora,mag (CI knob)."""
    env = os.environ.get("REPRO_BENCH_DATASETS")
    return env.split(",") if env else None
