#!/usr/bin/env python3
"""Serving throughput benchmark: many requests over a pool of ARCANE systems.

Drives the :class:`~repro.serve.engine.ServingEngine` with a seeded mixed
workload (gemm / conv_layer / compiled fc / kernel graphs), verifies every
output against the numpy golden models, and emits one JSON perf record —
the repo's serving-performance trajectory, tracked per commit by CI.

The record carries two sections: **offline** (the whole batch arriving
at cycle 0) and **online** (the same workload replayed as
arrival-driven traffic).  Both run through the FIFO admission queue +
least-backlog dispatcher and report the ``queue_delay + service``
latency split and per-worker utilization; online adds the sustained
req/Mcycle under load.

With ``--faults`` the record gains a third section, **online_faults**:
the same traffic replayed under a seeded fault plan
(:meth:`repro.serve.faults.FaultPlan.parse` — e.g. ``kill:0.1`` or
``kill:0.05,slow:0.02:4x``), whose availability metrics (success rate,
retries, failovers, sheds, worker health events) land in the JSON
alongside the clean-run throughput numbers.

With ``--integrity`` the record gains an **integrity** section: the
offline workload is replayed under the fault plan (which should include
a data-corruption clause, e.g. ``flip:0.005``) on an engine with the
chosen detection policy (``abft`` / ``digest`` / ``dmr``) and
report-mode golden checks, measuring detection recall — overall and
restricted to the ABFT-covered gemm family — plus how many detected
corruptions recovered to ``status=ok`` through the escalation ladder.
The same workload is also run clean under the policy and under ``off``
to bound the detection overhead (simulated cycles and wall clock).
``check_serving_regression.py`` gates covered recall at 1.0 and the
overhead ratios when the section is present.

Online runs are observed (``observe=True``): each online section carries
a rolling-metrics ``timeline`` (windowed queue depth / in-flight /
rates / per-worker busy fractions), and the run's request-span tree is
exported as a Perfetto-loadable Chrome trace-event file next to the
record (``BENCH_serving.trace.json``); CI uploads both as artifacts.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py --smoke
    PYTHONPATH=src python benchmarks/bench_serving.py --requests 500 --pool 4 \
        --output my_record.json
    PYTHONPATH=src python benchmarks/bench_serving.py --trace poisson:50
    PYTHONPATH=src python benchmarks/bench_serving.py --trace bursty:8:200000
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --faults kill:0.1
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke \
        --faults flip:0.005 --integrity abft
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --scale

``--trace`` takes any :meth:`repro.serve.traffic.TrafficSpec.parse` spec
(``poisson:<rate>``, ``uniform:<low>:<high>``, ``bursty:<burst>:<gap>``,
``trace:<c0,c1,...>``); arrivals are seeded by ``--traffic-seed`` and
fault draws by ``--fault-seed``, so every section is reproducible.
``--smoke`` is the CI configuration: 100 small requests over a pool of
2 — exercising the long-lived-pool lifecycle (the run
would exhaust the matrix heap within a handful of requests without heap
recycling) in a few seconds.  The JSON lands at
``benchmarks/results/BENCH_serving.json`` by default.

``--scale`` adds a **scale** section: ``--scale-requests`` (default
10000) template-cycling requests over a ``--scale-pool`` (default 32)
worker pool with the shared fleet replay cache, replayed as sustained
poisson traffic (``--scale-rate`` req/Mcycle) and as deep bursts.  Each
scale run records sustained req/Mcycle, p99 queue-delay/latency cycles
and the per-worker fleet-cache hit counts; CI runs a bounded variant
(``--scale-requests 300 --scale-pool 8``) and gates the committed
full-scale record with ``check_serving_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

import numpy as np

from repro.compiler import FUNC5_CGEMM, FUNC5_EWISE_ADD, FUNC5_FC, FUNC5_ROWSUM
from repro.core.config import ArcaneConfig
from repro.obs import write_chrome_trace
from repro.serve import (
    CORRUPTION_KINDS,
    FaultPlan,
    GraphNode,
    ServingEngine,
    conv_layer_request,
    gemm_request,
    graph_request,
    kernel_request,
)

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "results" / "BENCH_serving.json"


def make_workload(n_requests: int, size: int, seed: int) -> list:
    """A seeded request mix: 40% conv layers, 30% gemm, 20% fc, 10% graphs."""
    rng = np.random.default_rng(seed)
    requests = []
    for rid in range(n_requests):
        slot = rid % 10
        if slot < 4:
            x = rng.integers(-8, 8, (3 * size, size)).astype(np.int8)
            f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
            requests.append(conv_layer_request(rid, x, f))
        elif slot < 7:
            m, k, n = size, size + 4, size - 2
            a = rng.integers(-6, 6, (m, k)).astype(np.int16)
            b = rng.integers(-6, 6, (k, n)).astype(np.int16)
            c = rng.integers(-6, 6, (m, n)).astype(np.int16)
            requests.append(gemm_request(rid, a, b, c, alpha=2, beta=-1))
        elif slot < 9:
            xv = rng.integers(-8, 8, (1, 4 * size)).astype(np.int16)
            w = rng.integers(-8, 8, (4 * size, size)).astype(np.int16)
            bias = rng.integers(-8, 8, (1, size)).astype(np.int16)
            requests.append(kernel_request(rid, FUNC5_FC, [xv, w, bias], (1, size)))
        else:
            m = max(4, size // 2)
            a = rng.integers(-4, 4, (m, m)).astype(np.int16)
            b = rng.integers(-4, 4, (m, m)).astype(np.int16)
            c = np.zeros((m, m), dtype=np.int16)
            d = rng.integers(-4, 4, (m, m)).astype(np.int16)
            nodes = [
                GraphNode("prod", FUNC5_CGEMM, ("a", "b", "c"), (m, m), params=(1, 0)),
                GraphNode("sum", FUNC5_EWISE_ADD, ("prod", "d"), (m, m)),
                GraphNode("row", FUNC5_ROWSUM, ("sum",), (m, 1)),
            ]
            requests.append(
                graph_request(rid, {"a": a, "b": b, "c": c, "d": d}, nodes)
            )
    return requests


#: Distinct payload templates cycled by the scale workload.  A serving
#: pool's steady state is recurring model shapes, so the kernel replay
#: cache — and the shared fleet cache across workers — carry the load.
SCALE_TEMPLATES = 12


def make_scale_workload(n_requests: int, seed: int) -> list:
    """Template-cycling workload for ``--scale`` runs.

    ``SCALE_TEMPLATES`` distinct payloads (conv / gemm / fc, varying
    shapes) are built once and cycled across ``n_requests`` requests:
    every worker sees every template, so with ``share_replay`` each
    kernel is simulated cold exactly once fleet-wide and replayed
    everywhere else.
    """
    rng = np.random.default_rng(seed)
    templates = []
    for t in range(SCALE_TEMPLATES):
        slot = t % 3
        if slot == 0:
            size = 8 + 2 * (t % 4)
            x = rng.integers(-8, 8, (3 * size, size)).astype(np.int8)
            f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
            templates.append(("conv", (x, f)))
        elif slot == 1:
            m, k, n = 6 + 2 * (t % 4), 8, 6
            a = rng.integers(-6, 6, (m, k)).astype(np.int16)
            b = rng.integers(-6, 6, (k, n)).astype(np.int16)
            templates.append(("gemm", (a, b)))
        else:
            size = 8 + 4 * (t % 3)
            xv = rng.integers(-8, 8, (1, 2 * size)).astype(np.int16)
            w = rng.integers(-8, 8, (2 * size, size)).astype(np.int16)
            bias = rng.integers(-8, 8, (1, size)).astype(np.int16)
            templates.append(("fc", (xv, w, bias)))
    requests = []
    for rid in range(n_requests):
        kind, data = templates[rid % len(templates)]
        if kind == "conv":
            requests.append(conv_layer_request(rid, *data))
        elif kind == "gemm":
            requests.append(gemm_request(rid, *data))
        else:
            xv, w, bias = data
            requests.append(
                kernel_request(rid, FUNC5_FC, [xv, w, bias], (1, w.shape[1]))
            )
    return requests


def plan_corrupts(spec) -> bool:
    """True when the fault plan contains a data-corruption clause."""
    plan = FaultPlan.coerce(spec)
    return plan is not None and any(
        clause.kind in CORRUPTION_KINDS for clause in plan.clauses
    )


def run_integrity(args, config, requests) -> dict:
    """The ``--integrity`` section: detection recall + overhead vs ``off``.

    Three offline runs of the same workload:

    1. clean, policy ``off``  — the overhead baseline;
    2. clean, chosen policy   — its cost with nothing to detect
       (``dmr`` re-executes every kernel, ``abft``/``digest`` only add
       host-side checks);
    3. corrupted (the fault plan), chosen policy, ``verify="report"`` —
       report-mode golden checks mark what slipped past detection as
       ``status="corrupted"`` instead of aborting, so the report's
       integrity section can state recall honestly.

    Recall is reported overall and restricted to the ABFT-covered gemm
    family (gemm / cgemm / fc) — the subset the regression gate pins at
    1.0 for the ``abft`` policy.

    When ``--faults`` has no data-corruption clause (CI's main plan is
    ``kill:0.1``, kept stable so the availability sections stay
    comparable against the committed baseline) the drill falls back to
    ``flip:0.02`` — a rate at which the smoke workload deterministically
    draws flips, so the regression gate can insist the drill actually
    detected something rather than passing on an empty sample.
    """
    plan = args.faults if plan_corrupts(args.faults) else "flip:0.02"
    base = ServingEngine(pool_size=args.pool, config=config, integrity="off")
    guarded = ServingEngine(
        pool_size=args.pool, config=config, integrity=args.integrity,
    )

    start = time.perf_counter()
    off_clean = base.serve(requests, verify=not args.no_verify)
    off_wall = time.perf_counter() - start

    start = time.perf_counter()
    on_clean = guarded.serve(requests, verify=not args.no_verify)
    on_wall = time.perf_counter() - start

    start = time.perf_counter()
    drill = guarded.serve(
        requests, verify="report", faults=plan, fault_seed=args.fault_seed,
    )
    drill_wall = time.perf_counter() - start

    assert np.array_equal(off_clean.results[0].output, on_clean.results[0].output)
    section = dict(drill.integrity or {})
    section.update({
        "policy": args.integrity,
        "faults": plan,
        "fault_seed": args.fault_seed,
        "n_requests": len(requests),
        "success_rate": drill.success_rate,
        "statuses": drill.availability["statuses"],
        "overhead": {
            # clean-run cost of the detection policy, nothing to detect
            "clean_cycles_ratio": round(
                on_clean.total_sim_cycles / off_clean.total_sim_cycles, 4
            ) if off_clean.total_sim_cycles else None,
            "clean_wall_ratio": round(on_wall / off_wall, 3) if off_wall else None,
            "clean_wall_seconds_off": round(off_wall, 3),
            "clean_wall_seconds_on": round(on_wall, 3),
            "drill_wall_seconds": round(drill_wall, 3),
        },
    })

    print(f"== integrity drill ({plan}, policy={args.integrity}) ==")
    print(drill.summary())
    overhead = section["overhead"]
    print(f"  clean overhead  : {overhead['clean_cycles_ratio']}x sim cycles, "
          f"{overhead['clean_wall_ratio']}x wall vs policy=off")
    print()
    return section


def run_scale(args, config) -> dict:
    """The ``--scale`` section: sustained load over a large shared-cache pool.

    Replays the template-cycling workload as poisson and bursty traffic
    through one engine with the shared fleet replay cache, and distills
    each run to the metrics the regression gate tracks: sustained
    req/Mcycle and the p99 queue-delay / latency cycles.  Verification
    and observability are off — this section measures the dispatch loop
    and the fleet cache, not the golden models.
    """
    requests = make_scale_workload(args.scale_requests, args.seed)
    engine = ServingEngine(
        pool_size=args.scale_pool, config=config, share_replay=True,
    )
    sections = {}
    for name, trace in (
        ("poisson", f"poisson:{args.scale_rate}"),
        ("bursty", f"bursty:{max(8, args.scale_pool * 2)}:400000"),
    ):
        start = time.perf_counter()
        report = engine.serve_online(
            requests, traffic=trace, seed=args.traffic_seed,
        )
        elapsed = time.perf_counter() - start
        payload = report.as_dict()
        fleet_hits = sum(
            stats.get("fleet_hits", 0)
            for stats in (payload.get("replay") or {}).get("per_worker", {}).values()
        )
        sections[name] = {
            "trace": trace,
            "requests_per_megacycle": payload["requests_per_megacycle"],
            "makespan_cycles": payload["makespan_cycles"],
            "cycles_per_request": payload["cycles_per_request"],
            "queue_delay_p99_cycles": payload["queue_delay_cycles"]["p99"],
            "queue_delay_p50_cycles": payload["queue_delay_cycles"]["p50"],
            "latency_p99_cycles": payload["latency_cycles"]["p99"],
            "service_p50_cycles": payload["service_cycles"]["p50"],
            "success_rate": report.success_rate,
            "fleet_hits": fleet_hits,
            "replay": payload.get("replay"),
            "wall_seconds": round(elapsed, 3),
        }
        print(f"== scale/{name} ({trace}, pool {args.scale_pool}, "
              f"{args.scale_requests} requests) ==")
        print(report.summary())
        print()
    return {
        "pool_size": args.scale_pool,
        "requests": args.scale_requests,
        "templates": SCALE_TEMPLATES,
        "share_replay": True,
        "seed": args.seed,
        "traffic_seed": args.traffic_seed,
        "sections": sections,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--pool", type=int, default=2, help="ARCANE instances")
    parser.add_argument("--size", type=int, default=16, help="base operand size")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--trace", default="poisson:25",
                        help="online arrival process, e.g. poisson:25, "
                             "uniform:10000:50000, bursty:8:200000, "
                             "trace:0,500,9000 (rate in req/Mcycle)")
    parser.add_argument("--traffic-seed", type=int, default=7,
                        help="seed for the online arrival process")
    parser.add_argument("--faults", default=None,
                        help="fault plan for an extra online_faults section, "
                             "e.g. kill:0.1 or kill:0.05,slow:0.02:4x")
    parser.add_argument("--fault-seed", type=int, default=2025,
                        help="seed for the fault injector draws")
    parser.add_argument("--integrity", default="off",
                        choices=("off", "digest", "abft", "dmr"),
                        help="add an integrity section: replay the offline "
                             "workload under the (corrupting) fault plan with "
                             "this detection policy and record recall + "
                             "overhead vs off")
    parser.add_argument("--lanes", type=int, default=4)
    parser.add_argument("--no-verify", action="store_true",
                        help="skip golden-model output checks")
    parser.add_argument("--smoke", action="store_true",
                        help="CI configuration: 100 small requests, pool of 2")
    parser.add_argument("--scale", action="store_true",
                        help="add a scale section: sustained traffic over a "
                             "large pool with the shared fleet replay cache")
    parser.add_argument("--scale-requests", type=int, default=10000,
                        help="requests per scale traffic run")
    parser.add_argument("--scale-pool", type=int, default=32,
                        help="worker pool size for the scale section")
    parser.add_argument("--scale-rate", type=int, default=2000,
                        help="poisson arrival rate (req/Mcycle) for the "
                             "scale section's sustained-load run")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()

    if args.smoke:
        args.requests, args.pool, args.size = 100, 2, 12

    config = ArcaneConfig(
        n_vpus=2, lanes=args.lanes, line_bytes=256, vpu_kib=8, main_memory_kib=1024
    )
    requests = make_workload(args.requests, args.size, args.seed)
    engine = ServingEngine(pool_size=args.pool, config=config)
    offline = engine.serve(requests, verify=not args.no_verify)

    # the same warm engine serves both modes
    online = engine.serve_online(
        requests, traffic=args.trace, seed=args.traffic_seed,
        verify=not args.no_verify, observe=True,
    )

    faulty = None
    if args.faults:
        # same traffic under a seeded fault plan: the availability section
        # (success rate, retries, failovers, worker health) joins the record.
        # A corrupting plan downgrades strict verification to report mode —
        # this engine has no detection policy, so an undetected flip must
        # mark the request corrupted, not abort the benchmark.
        fault_verify = False if args.no_verify else (
            "report" if plan_corrupts(args.faults) else "strict"
        )
        faulty = engine.serve_online(
            requests, traffic=args.trace, seed=args.traffic_seed,
            faults=args.faults, fault_seed=args.fault_seed,
            verify=fault_verify, observe=True,
        )

    # Perfetto-loadable trace of the most interesting observed run (the
    # faulted one when present); CI uploads it as an artifact
    trace_path = args.output.with_suffix(".trace.json")
    args.output.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(faulty if faulty is not None else online, trace_path)

    record = {
        "benchmark": "serving",
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        "workload": {
            "requests": args.requests,
            "base_size": args.size,
            "seed": args.seed,
            "mix": "40% conv_layer / 30% gemm / 20% fc / 10% 3-node graph",
            "trace": args.trace,
            "traffic_seed": args.traffic_seed,
            "faults": args.faults,
            "fault_seed": args.fault_seed if args.faults else None,
        },
        "system": {
            "pool_size": args.pool,
            "config": config.describe(),
        },
        "offline": offline.as_dict(),
        "online": online.as_dict(),
    }
    if faulty is not None:
        record["online_faults"] = faulty.as_dict()
    if args.integrity != "off":
        record["integrity"] = run_integrity(args, config, requests)
    if args.scale:
        record["scale"] = run_scale(args, config)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(record, indent=2) + "\n")

    print("== offline (batch at cycle 0) ==")
    print(offline.summary())
    print("\n== online (arrival-driven) ==")
    print(online.summary())
    if faulty is not None:
        print(f"\n== online under faults ({args.faults}) ==")
        print(faulty.summary())
    print(f"\nJSON perf record written to {args.output}")
    print(f"Perfetto trace written to {trace_path}")


if __name__ == "__main__":
    main()
