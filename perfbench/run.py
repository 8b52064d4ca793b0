#!/usr/bin/env python3
"""Repository benchmark: host throughput and paper fidelity, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fresh_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload paper_cnn --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload template_repeat --smoke --seconds 1

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer split (see ``tracer.py``) plus the tracing overhead.  Every
number is printed with its unit and its clock -- ``host`` (seconds of
this process's wall clock), ``sim`` (modelled cycles) or ``count`` --
and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from tracer import LAYERS, LayerTracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: end-to-end metrics, measured untraced: (name, unit, better, clock)
END_TO_END = (
    ("req_per_s", "1/s", "higher", "host"),
    ("setup_s", "s", "lower", "host"),
    ("peak_rss_mb", "MB", "lower", "host"),
    ("ok_frac", "fraction", "higher", "count"),
    ("anchor_err", "ln_ratio", "lower", "sim"),
)

#: direction of each anchor toward its paper value, as measured at the
#: commit that defined the benchmark
_ANCHOR_BETTER = {
    "speedup_int8_3x3_8lane": "lower", "speedup_int8_7x7_8lane": "lower",
    "speedup_multi_instance": "lower", "speedup_pulp_int8_3x3": "higher",
    "speedup_vs_pulp_7x7": "lower", "preamble_small_input": "higher",
    "preamble_large_input": "higher", "overhead_saturation": "lower",
}

#: per-layer metrics, from the traced repetitions: (name, unit, better, clock)
PER_LAYER = (
    *((f"{layer}.self_s", "s", "lower", "host") for layer in LAYERS),
    ("baselines.fit_s", "s", "lower", "host"),
    ("serve.attempts", "count", "lower", "count"),
    ("serve.retries", "count", "lower", "count"),
    ("serve.failovers", "count", "lower", "count"),
    ("serve.sim.req_per_mcyc", "1/Mcyc", "higher", "sim"),
    ("serve.sim.latency_p50_kcyc", "kcyc", "lower", "sim"),
    ("serve.sim.latency_p99_kcyc", "kcyc", "lower", "sim"),
    ("serve.sim.util", "fraction", "higher", "sim"),
    ("integrity.checks", "count", "lower", "count"),
    ("sim.steps", "count", "lower", "count"),
    ("sim.us_per_step", "us", "lower", "host"),
    ("runtime.launches", "count", "lower", "sim"),
    ("runtime.alloc.rows", "count", "lower", "sim"),
    ("runtime.replay.hits", "count", "higher", "count"),
    ("runtime.replay.misses", "count", "lower", "count"),
    ("runtime.replay.recorded", "count", "lower", "count"),
    ("runtime.replay.bypassed", "count", "lower", "count"),
    ("runtime.replay.hit_ratio", "fraction", "higher", "count"),
    ("runtime.replay.unused_records", "count", "lower", "count"),
    ("mem.dma.kcyc", "kcyc", "lower", "sim"),
    ("cache.refills", "count", "lower", "sim"),
    ("cache.writebacks", "count", "lower", "sim"),
    ("vpu.ops", "count", "lower", "sim"),
    ("cpu.iss.instructions", "count", "lower", "count"),
    ("cpu.iss.us_per_instr", "us", "lower", "host"),
    *((f"model.{label}.kcyc", "kcyc", "lower", "sim") for label in (
        "i8_3x3", "i8_7x7", "i8_3x3_multi", "i8_7x7_multi", "i32_small", "i32_large",
    )),
    *((f"anchor.{name}", "%" if name.startswith(("preamble", "overhead")) else "x",
       better, "sim") for name, better in _ANCHOR_BETTER.items()),
    ("trace.body_s", "s", "lower", "host"),
    ("trace.overhead_frac", "fraction", "lower", "host"),
    ("trace.unattributed_s", "s", "lower", "host"),
)

#: imports timed in fresh interpreters for ``setup_s``
_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
    "import workloads; print(time.perf_counter() - t)"
)
IMPORT_PROBES = 5


@dataclass
class Rep:
    """One repetition: set-up, timed body, verification (outside the timer)."""

    construct_s: float
    body_s: float
    wall_s: float
    verdict: object
    #: host seconds of each call in the body (one part for serving bodies)
    parts: List[float] = field(default_factory=list)
    spans: Optional[Dict[str, float]] = None
    checks: List[str] = field(default_factory=list)
    #: the process's peak resident set once this repetition is done
    rss_mb: float = 0.0


def run_rep(workload, tracer=None) -> Rep:
    """Build, time one body, tear down, verify; traced when ``tracer`` is given."""
    clock = time.perf_counter
    gc.collect()  # the previous repetition's garbage, outside every timer
    start = clock()
    if tracer is not None:
        tracer.install()
    try:
        state = workload.build()
        built = clock()
        try:
            if tracer is not None:
                tracer.reset()
                tracer.active = True
            body_start = clock()
            outcome, parts = workload.serve(state)
            body_s = clock() - body_start
        finally:
            if tracer is not None:
                tracer.active = False
            workload.close(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rep = Rep(built - start, body_s, 0.0, None, parts or [body_s])
    if tracer is not None:
        rep.spans = span_metrics(tracer, body_s, body_s - tracer.top_s)
        rep.checks = span_checks(rep.spans, body_s)
    rep.verdict = workload.verify(outcome)
    rep.wall_s = clock() - start
    rep.rss_mb = peak_rss_mb()
    return rep


def span_metrics(tracer, body_s: float, unattributed: float) -> Dict[str, float]:
    calls = tracer.calls
    metrics = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0) for layer in LAYERS}
    metrics.update({
        "baselines.fit_s": tracer.incl_s.get("baselines", 0.0),
        "integrity.checks": calls.get("check_output", 0),
        "sim.steps": calls.get("Process._step", 0),
        "cpu.iss.instructions": calls.get("Cpu.step", 0),
        "runtime.replay.unused_records": len(tracer.stored - tracer.replayed),
        "trace.body_s": body_s,
        "trace.unattributed_s": unattributed,
    })
    return metrics


def span_checks(spans: Dict[str, float], body_s: float) -> List[str]:
    """Self times are non-negative and, with the unattributed rest, add up."""
    problems = []
    self_times = {k: v for k, v in spans.items() if k.endswith(".self_s")}
    for name, value in self_times.items():
        if value < -1e-9:
            problems.append(f"{name} is negative ({value:.3g} s)")
    total = sum(self_times.values()) + spans["trace.unattributed_s"]
    if abs(total - body_s) > 1e-6 * max(body_s, 1.0):
        problems.append(f"self times + unattributed = {total:.6f} s != body {body_s:.6f} s")
    return problems


def measure(workload, seconds: float, tracer=None) -> List[Rep]:
    """Repetitions until ``seconds`` would be exceeded (at least one).

    Traced runs alternate an untraced and a traced repetition, so both
    sides see the same machine state over the run.
    """
    reps: List[Rep] = []
    start = time.perf_counter()
    while True:
        batch = [run_rep(workload)]
        if tracer is not None:
            batch.append(run_rep(workload, tracer))
        reps.extend(batch)
        spent = time.perf_counter() - start
        if spent + sum(rep.wall_s for rep in batch) > seconds:
            return reps


def best_body_s(reps: List[Rep]) -> float:
    """One body's host seconds with every part at its fastest repetition.

    Shared hosts slow down in phases of several seconds (other tenants);
    interference only ever adds time, so the fastest repetition
    of each part is the steadiest estimate of the work itself.  Medians
    swing with the phases and are printed alongside for reference.
    """
    return sum(min(column) for column in zip(*(rep.parts for rep in reps)))


def peak_rss_mb() -> float:
    """Peak resident set of this process (every workload serves in-process)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds() -> float:
    """Median import time of the benchmark's modules in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return "single sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def emit(name: str, value, unit: str, clock: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<36} {text:>14} {unit:<9} [{clock}] {note}".rstrip())


def run_checks(reps: List[Rep]) -> List[str]:
    """Golden outputs, identical simulated statistics in every repetition
    (traced or not), and the span accounting of traced repetitions."""
    problems = []
    digests = {rep.verdict.digest for rep in reps}
    if len(digests) != 1:
        problems.append(f"simulated statistics differ between repetitions: {sorted(digests)}")
    mismatched = sum(rep.verdict.mismatched for rep in reps)
    if mismatched:
        problems.append(f"{mismatched} output(s) mismatch the golden model")
    for rep in reps:
        problems.extend(rep.checks)
    return problems


def end_to_end(args, workloads, reps: List[Rep]) -> Tuple[Dict[str, float], List[str]]:
    # one workload run is one repetition; later repetitions only add
    # allocator fragmentation, which varies with how many fit in a run
    rss = reps[0].rss_mb
    problems = []
    throughput = [rep.verdict.ok / rep.body_s for rep in reps]
    best = best_body_s(reps)
    ops = sum(rep.verdict.ops for rep in reps)
    ok = sum(rep.verdict.ok for rep in reps)
    if args.workload == "paper_cnn":
        anchors = reps[0].verdict.anchors
        anchors_s = best
    else:
        # fidelity is a property of the program, not of the traffic: every
        # run measures it, after the serving figures are taken
        anchor_rep = run_rep(workloads.PaperCnnWorkload(args.seed, args.smoke))
        if anchor_rep.verdict.mismatched:
            problems.append("an anchor-set output mismatches ref_conv_layer")
        anchors = anchor_rep.verdict.anchors
        anchors_s = anchor_rep.body_s
    imports = import_seconds()
    construct = statistics.median(rep.construct_s for rep in reps)
    values = {
        "req_per_s": min(rep.verdict.ok for rep in reps) / best,
        "setup_s": imports + construct,
        "peak_rss_mb": rss,
        "ok_frac": ok / ops,
        "anchor_err": workloads.anchor_error(anchors),
    }
    print("end-to-end (untraced repetitions):")
    emit("req_per_s", values["req_per_s"], "1/s", "host",
         f"ok ops / fastest body second; per-repetition median "
         f"{statistics.median(throughput):.6g} ({quartiles(throughput)})")
    emit("setup_s", values["setup_s"], "s", "host",
         f"imports {imports:.4f} s (median of {IMPORT_PROBES}) + construction "
         f"{construct:.4f} s (median of {len(reps)})")
    emit("peak_rss_mb", rss, "MB", "host", "peak resident set after the first repetition")
    emit("ok_frac", values["ok_frac"], "fraction", "count", f"{ok} ok of {ops} attempted")
    emit("fail_frac", 1 - values["ok_frac"], "fraction", "count",
         "failed + shed + timed-out + golden-mismatched, of attempted")
    emit("anchor_err", values["anchor_err"], "ln_ratio", "sim",
         f"RMS ln(measured/paper) over {len(anchors)} anchors")
    emit("anchors_s", anchors_s, "s", "host",
         "whole anchor set incl. ISS model fits" + (
             " (fastest body)" if args.workload == "paper_cnn" else " (one set)"
         ))
    for name, value in anchors.items():
        paper, unit, _ = workloads.PAPER_ANCHORS[name]
        emit(f"anchor.{name}", value, unit, "sim", f"paper {paper:g} {unit}")
    return values, problems


def per_layer(reps: List[Rep]) -> Dict[str, float]:
    plain = [rep for rep in reps if rep.spans is None]
    traced = [rep for rep in reps if rep.spans is not None]
    values: Dict[str, float] = {name: 0.0 for name, _, _, _ in PER_LAYER}
    for rep in traced:
        sample = dict(rep.verdict.counts)
        sample.update({f"anchor.{k}": v for k, v in rep.verdict.anchors.items()})
        sample.update(rep.spans)
        for name in values:
            values[name] += sample.get(name, 0.0) / len(traced)
    plain_body = statistics.median(rep.body_s for rep in plain)
    traced_body = statistics.median(rep.body_s for rep in traced)
    values["trace.overhead_frac"] = traced_body / plain_body - 1.0
    # per-unit rates from the summed times and counts, not a mean of ratios
    steps, instructions = values["sim.steps"], values["cpu.iss.instructions"]
    values["sim.us_per_step"] = 1e6 * values["sim.loop.self_s"] / steps if steps else 0.0
    values["cpu.iss.us_per_instr"] = (
        1e6 * values["cpu.iss.self_s"] / instructions if instructions else 0.0
    )
    print(f"per-layer (mean of {len(traced)} traced bodies; untraced body median "
          f"{plain_body:.4f} s, traced {traced_body:.4f} s):")
    for name, unit, _, clock in PER_LAYER:
        emit(name, values[name], unit, clock)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fresh_mix", "template_repeat", "paper_cnn"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: a fast check that every metric is emitted")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    workload = workloads.make(args.workload, args.seed, args.smoke)
    reps = measure(workload, args.seconds, LayerTracer() if args.trace else None)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}{'  (smoke)' if args.smoke else ''}")
    print(f"  sim_digest {reps[0].verdict.digest}  (blake2b over every simulated "
          "statistic: cycles, phases, RunReport.stats)")
    problems = run_checks(reps)
    if args.trace:
        values = per_layer(reps)
    else:
        values, anchor_problems = end_to_end(args, workloads, reps)
        problems += anchor_problems
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": sum(rep.verdict.ops for rep in reps),
        "failed": sum(rep.verdict.ops - rep.verdict.ok for rep in reps),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _, _ in names
        },
    }
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("CHECK FAILED: non-finite metric value")
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
