#!/usr/bin/env python3
"""Smoke check: every workload emits every metric on tiny inputs.

Runs ``run.py --smoke`` for each workload, untraced and traced, and
asserts that the final JSON line names exactly the end-to-end or
per-layer metrics of ``BENCHMARK.json`` with the same units, that the
outputs checked correct, and that no operation failed on ``fresh_mix``
and ``paper_cnn`` (``ok_frac`` = 1, i.e. ``fail_frac`` = 0).

Usage, from the repository root (about a minute; the ISS model fits
dominate)::

    python3 perfbench/smoke_check.py
    python3 -m pytest -q perfbench/smoke_check.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
NO_FAILURES = ("fresh_mix", "paper_cnn")


def run_smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    result = run_smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, (workload, trace)
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected, (workload, trace, set(emitted) ^ set(expected))
    if workload in NO_FAILURES:
        assert result["failed"] == 0, (workload, result["failed"])
        if not trace:
            assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_smoke_untraced():
    for workload in WORKLOADS:
        check(workload, 0)


def test_smoke_traced():
    for workload in WORKLOADS:
        check(workload, 1)


if __name__ == "__main__":
    for trace in (0, 1):
        for workload in WORKLOADS:
            check(workload, trace)
            print(f"ok  {workload} trace={trace}")
