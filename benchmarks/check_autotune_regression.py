#!/usr/bin/env python3
"""Gate autotuning regressions: tuned must never lose to the default.

Validates a freshly generated ``BENCH_autotune.json`` and fails (exit 1)
when the invariant the search is built around breaks: for every library
kernel, the tuned recipe's simulated cycles must be **at most** the
default recipe's (the default is the incumbent the beam search starts
from, so a tuned result that is worse means the tuner stopped honouring
its own oracle).  The record's ``gemm_vs_handwritten`` section is gated
the same way: tuned compiled GeMM must still beat the frozen cycles of
the retired handwritten ``xmk0`` body at the strip-mined shape,
bit-exactly.

With ``--baseline`` (the committed record) the gate additionally
compares tuned cycles per kernel and fails when a kernel got slower by
more than ``--threshold`` (default 10%).  Sections are compared only
when geometry and machine-config fingerprint match — a record produced
on a different simulated machine is skipped with a note, not failed.
Simulated cycles are seeded-deterministic, so a regression means the
compiler, the scheduler or the search actually got worse, not that CI
drew a slow machine.  Wall-clock is never compared.

Usage::

    PYTHONPATH=src python benchmarks/check_autotune_regression.py \
        --current benchmarks/results/BENCH_autotune.json \
        --baseline benchmarks/baselines/BENCH_autotune.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def check_invariants(record: dict) -> int:
    """The in-record invariants; returns the number of failures."""
    failures = 0
    kernels = record.get("kernels") or {}
    if not kernels:
        print("FAIL: record has no kernels section")
        failures += 1
    for name, row in sorted(kernels.items()):
        default = row.get("default_cycles")
        tuned = row.get("tuned_cycles")
        if not isinstance(default, int) or not isinstance(tuned, int):
            print(f"FAIL: {name}: missing cycle counts")
            failures += 1
            continue
        if tuned > default:
            print(f"FAIL: {name}: tuned {tuned:,} > default {default:,} "
                  f"(tuned recipe {row.get('tuned_recipe')})")
            failures += 1
        elif not row.get("bit_exact"):
            print(f"FAIL: {name}: record does not attest bit-exactness")
            failures += 1
        else:
            print(f"  {name}: tuned {tuned:,} <= default {default:,} [ok]")

    versus = record.get("gemm_vs_handwritten") or {}
    hand = versus.get("handwritten_cycles")
    tuned = versus.get("tuned_cycles")
    if not isinstance(hand, int) or not isinstance(tuned, int):
        print("FAIL: gemm_vs_handwritten section missing or incomplete")
        failures += 1
    elif tuned >= hand:
        print(f"FAIL: tuned cgemm {tuned:,} no longer beats the frozen "
              f"xmk0 {hand:,} at shape {versus.get('shape')}")
        failures += 1
    elif not versus.get("bit_exact"):
        print("FAIL: gemm_vs_handwritten does not attest bit-exactness")
        failures += 1
    else:
        print(f"  cgemm vs frozen xmk0: tuned {tuned:,} < {hand:,} [ok]")
    return failures


def check_against_baseline(baseline: dict, current: dict,
                           threshold: float) -> int:
    """Per-kernel tuned-cycle comparison; returns number of failures."""
    failures = 0
    base_fp = (baseline.get("search") or {}).get("config_fingerprint")
    curr_fp = (current.get("search") or {}).get("config_fingerprint")
    if base_fp != curr_fp:
        print("baseline: machine-config fingerprint differs, skipped")
        return 0
    for name, base in sorted((baseline.get("kernels") or {}).items()):
        curr = (current.get("kernels") or {}).get(name)
        if curr is None:
            print(f"FAIL: kernel {name} present in baseline but missing "
                  f"from current record")
            failures += 1
            continue
        if base.get("geometry") != curr.get("geometry"):
            print(f"baseline.{name}: geometry differs, skipped")
            continue
        base_cycles, curr_cycles = base["tuned_cycles"], curr["tuned_cycles"]
        change = (curr_cycles - base_cycles) / base_cycles
        regressed = change > threshold
        status = "FAIL" if regressed else "ok"
        print(f"  baseline.{name}: tuned {base_cycles:,} -> {curr_cycles:,} "
              f"({change:+.1%}) [{status}]")
        failures += int(regressed)
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--current", type=pathlib.Path, required=True,
                        help="freshly generated BENCH_autotune.json")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="committed BENCH_autotune.json (optional)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated tuned-cycle rise vs baseline "
                             "(0.10 = 10%%)")
    args = parser.parse_args()

    current = json.loads(args.current.read_text())
    failures = check_invariants(current)
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
        failures += check_against_baseline(baseline, current, args.threshold)

    if failures:
        print(f"\n{failures} autotune regression check(s) failed")
        return 1
    print("\nautotune regression checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
