#!/usr/bin/env python3
"""Gate serving-performance regressions against the committed baseline.

Compares a freshly generated ``BENCH_serving.json`` against the committed
one and fails (exit 1) when a *simulated* throughput metric regresses by
more than the threshold (default 20%).  Only simulated-time metrics are
gated — ``requests_per_megacycle``, ``cycles_per_request``, p99 queue
delay — because they are seeded-deterministic: a regression means the
dispatch core, the scheduler, or the replay cache actually got worse,
not that CI drew a slow machine.  Wall-clock metrics are never compared.

Sections are compared only when their workload/system configuration
matches between the two records (request count, pool size, traffic spec,
seeds).  A mismatched section — e.g. CI's bounded ``--scale`` run vs the
committed full-scale record — is skipped with a note, not failed.

The committed baseline itself is validated: its ``scale`` section must
report ``pool_size >= 32`` and ``requests >= 10000`` (the scale
acceptance bar), so the full-scale record cannot silently rot into a
bounded one.

When the fresh record carries an ``integrity`` section (the bench ran
with ``--integrity``), it is gated on its own terms, no baseline
needed: the drill must actually have drawn and manifested corruption
(a recall over an empty sample proves nothing), the ``abft`` policy
must report detection recall 1.0 over the ABFT-covered gemm-family
kernels, and the clean-run overhead of the policy must stay bounded
(ABFT adds host-side checks only, so its simulated-cycle ratio is
pinned at ~1.0).

Usage::

    PYTHONPATH=src python benchmarks/check_serving_regression.py \
        --baseline benchmarks/baselines/BENCH_serving.json \
        --current benchmarks/results/BENCH_serving.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: (metric path, direction) gated per serving section; "higher" means a
#: drop is a regression, "lower" means a rise is.
SECTION_METRICS = (
    (("requests_per_megacycle",), "higher"),
    (("cycles_per_request",), "lower"),
    (("queue_delay_cycles", "p99"), "lower"),
)
SCALE_METRICS = (
    (("requests_per_megacycle",), "higher"),
    (("cycles_per_request",), "lower"),
    (("queue_delay_p99_cycles",), "lower"),
)
#: Queue-delay p99 below this many cycles is noise-level queueing; a
#: relative gate on it would flag 0 -> 500 as infinite regression.
ABS_FLOOR_CYCLES = 2000.0

MIN_SCALE_POOL = 32
MIN_SCALE_REQUESTS = 10000

#: Integrity-drill bounds.  ABFT checksums run host-side, so the clean
#: run must cost no extra simulated cycles; the wall-clock bound is
#: generous because CI smoke runs are sub-second and noisy.
ABFT_MAX_CLEAN_CYCLES_RATIO = 1.01
MAX_CLEAN_WALL_RATIO = 3.0


def dig(record: dict, path: tuple) -> float | None:
    value = record
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return float(value) if isinstance(value, (int, float)) else None


def section_config(record: dict, section: dict) -> tuple:
    """What must match for two records' sections to be comparable."""
    workload = record.get("workload", {})
    return (
        workload.get("requests"), workload.get("base_size"),
        workload.get("seed"), workload.get("trace"),
        workload.get("traffic_seed"), workload.get("faults"),
        workload.get("fault_seed"),
        section.get("n_requests"), section.get("pool_size"),
        section.get("admission"),
    )


def scale_config(scale: dict, section: dict) -> tuple:
    return (
        scale.get("pool_size"), scale.get("requests"), scale.get("seed"),
        scale.get("traffic_seed"), section.get("trace"),
    )


def compare(name: str, base: dict, curr: dict, metrics, threshold: float):
    """Yield (metric, base, curr, failed) rows for one comparable section."""
    for path, direction in metrics:
        label = ".".join(path)
        base_value = dig(base, path)
        curr_value = dig(curr, path)
        if base_value is None or curr_value is None:
            print(f"  {name}.{label}: missing on one side, skipped")
            continue
        if "queue_delay" in label and base_value < ABS_FLOOR_CYCLES \
                and curr_value < ABS_FLOOR_CYCLES:
            print(f"  {name}.{label}: {base_value:g} -> {curr_value:g} "
                  f"(below {ABS_FLOOR_CYCLES:g}-cycle floor, not gated)")
            continue
        if base_value == 0:
            print(f"  {name}.{label}: baseline is 0, skipped")
            continue
        change = (curr_value - base_value) / base_value
        regressed = change < -threshold if direction == "higher" \
            else change > threshold
        status = "FAIL" if regressed else "ok"
        print(f"  {name}.{label}: {base_value:g} -> {curr_value:g} "
              f"({change:+.1%}) [{status}]")
        yield regressed


def check_integrity(section: dict) -> int:
    """Gate the fresh record's integrity drill; returns failure count.

    Self-contained (no baseline comparison): the drill's fault plan and
    seeds live in the section itself, so its claims — recall over
    manifested corruption, detection overhead — are checked absolutely.
    """
    failures = 0
    policy = section.get("policy")
    injected = sum((section.get("injected") or {}).values())
    caught = section.get("detected", 0) + section.get("corrected", 0)
    undetected = section.get("undetected", 0)
    covered = section.get("covered") or {}
    print(f"integrity (policy={policy}, faults={section.get('faults')}):")

    if injected <= 0 or caught + undetected <= 0:
        print(f"  sample: injected={injected} caught={caught} "
              f"undetected={undetected} [FAIL] — no manifested corruption, "
              f"recall is vacuous; raise the drill's corruption rate")
        failures += 1
    else:
        print(f"  sample: injected={injected} caught={caught} "
              f"undetected={undetected} [ok]")

    if policy == "abft":
        recall = covered.get("recall")
        if recall is None or recall < 1.0:
            print(f"  covered.recall: {recall} [FAIL] — ABFT must catch every "
                  f"manifested corruption on gemm-family kernels")
            failures += 1
        else:
            print(f"  covered.recall: {recall:.2f} over "
                  f"{covered.get('requests')} covered request(s) [ok]")
        for path, bound in (
            (("overhead", "clean_cycles_ratio"), ABFT_MAX_CLEAN_CYCLES_RATIO),
            (("overhead", "clean_wall_ratio"), MAX_CLEAN_WALL_RATIO),
        ):
            label = ".".join(path)
            value = dig(section, path)
            if value is None:
                print(f"  {label}: missing, skipped")
                continue
            status = "FAIL" if value > bound else "ok"
            print(f"  {label}: {value:g} (bound {bound:g}) [{status}]")
            failures += value > bound
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=pathlib.Path, required=True,
                        help="committed BENCH_serving.json")
    parser.add_argument("--current", type=pathlib.Path, required=True,
                        help="freshly generated BENCH_serving.json")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max tolerated relative regression (0.20 = 20%%)")
    args = parser.parse_args()

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    failures = 0

    base_scale = baseline.get("scale") or {}
    if base_scale.get("pool_size", 0) < MIN_SCALE_POOL \
            or base_scale.get("requests", 0) < MIN_SCALE_REQUESTS:
        print(f"FAIL: committed baseline scale section must report "
              f"pool_size >= {MIN_SCALE_POOL} and requests >= "
              f"{MIN_SCALE_REQUESTS}, got pool_size="
              f"{base_scale.get('pool_size')} "
              f"requests={base_scale.get('requests')}")
        failures += 1

    for name in ("offline", "online", "online_faults"):
        base = baseline.get(name)
        curr = current.get(name)
        if base is None or curr is None:
            print(f"{name}: absent on one side, skipped")
            continue
        if section_config(baseline, base) != section_config(current, curr):
            print(f"{name}: configuration differs from baseline, skipped")
            continue
        print(f"{name}:")
        failures += sum(
            compare(name, base, curr, SECTION_METRICS, args.threshold)
        )

    integrity = current.get("integrity")
    if integrity is None:
        print("integrity: absent in current record, skipped")
    else:
        failures += check_integrity(integrity)

    curr_scale = current.get("scale") or {}
    for name, base in (base_scale.get("sections") or {}).items():
        curr = (curr_scale.get("sections") or {}).get(name)
        if curr is None:
            print(f"scale.{name}: absent in current record, skipped")
            continue
        if scale_config(base_scale, base) != scale_config(curr_scale, curr):
            print(f"scale.{name}: configuration differs from baseline "
                  f"(bounded CI run?), skipped")
            continue
        print(f"scale.{name}:")
        failures += sum(
            compare(f"scale.{name}", base, curr, SCALE_METRICS, args.threshold)
        )

    if failures:
        print(f"\n{failures} serving regression check(s) failed "
              f"(threshold {args.threshold:.0%})")
        return 1
    print("\nserving regression checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
