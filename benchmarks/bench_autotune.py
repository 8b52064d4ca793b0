#!/usr/bin/env python3
"""Autotuning benchmark: default vs tuned recipes for every library kernel.

Runs the :class:`~repro.compiler.Tuner` beam search over the
legal-recipe space of each compiled library kernel at a fixed benchmark
geometry, then re-measures both the default and the winning recipe on a
fresh system and emits one JSON perf record
(``benchmarks/results/BENCH_autotune.json``) — the repo's autotuning
trajectory, tracked per commit by CI.

Asserted relations (the record is only written if they hold):

* the tuned recipe is never worse than the default recipe, for every
  kernel (the search keeps the default as the incumbent);
* tuned compiled GeMM beats the frozen cycles of the retired
  handwritten Table I ``xmk0`` body (:mod:`frozen_xmk0`) at the
  strip-mined shape, with bit-exact outputs;
* every tuned output matches the unscheduled reference interpretation
  of the algorithm, bit-exactly.

Usage::

    PYTHONPATH=src python benchmarks/bench_autotune.py
    PYTHONPATH=src python benchmarks/bench_autotune.py --smoke
    PYTHONPATH=src python benchmarks/bench_autotune.py --budget 32 \
        --output my_record.json

``--smoke`` is the bounded CI configuration (budget 8, beam width 2) —
same shapes, same assertions, smaller search.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

import numpy as np

from frozen_xmk0 import frozen_xmk0
from repro.compiler import (
    ALGORITHMS,
    Tuner,
    algorithm,
    config_fingerprint,
    infer_out_shape,
    recompile,
    reference_output,
    offload_compiled,
)
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem
from repro.integrity.check import output_digest

CONFIG = ArcaneConfig(n_vpus=4, lanes=4, line_bytes=256, vpu_kib=8,
                      main_memory_kib=2048)
TUNE_SLOT = 15

#: Benchmark geometry per kernel.  The GeMM shape is the strip-mined one
#: (K=48 exceeds the VRF) — the shape at which the compiled kernel beats
#: the frozen handwritten ``xmk0``.
GEMM_SHAPE = (8, 48, 24)
GEMM_PARAMS = (2, -1)


def workloads(rng):
    m, k, n = GEMM_SHAPE
    yield "cgemm", [
        rng.integers(-8, 8, (m, k)).astype(np.int16),
        rng.integers(-8, 8, (k, n)).astype(np.int16),
        rng.integers(-8, 8, (m, n)).astype(np.int16),
    ], GEMM_PARAMS
    yield "dwconv2d", [
        rng.integers(-6, 6, (3 * 12, 16)).astype(np.int16),
        rng.integers(-3, 3, (3 * 3, 3)).astype(np.int16),
    ], ()
    yield "fc", [
        rng.integers(-8, 8, (1, 64)).astype(np.int16),
        rng.integers(-8, 8, (64, 24)).astype(np.int16),
        rng.integers(-8, 8, (1, 24)).astype(np.int16),
    ], ()
    ewise = [
        rng.integers(-100, 100, (16, 32)).astype(np.int16),
        rng.integers(-100, 100, (16, 32)).astype(np.int16),
    ]
    yield "ewise_add", ewise, ()
    yield "ewise_mul", ewise, ()
    yield "rowsum", ewise[:1], ()


def run_recipe(name, recipe, sources, params):
    """Measure one recipe on a fresh system; returns (output, cycles)."""
    system = ArcaneSystem(CONFIG)
    spec = recompile(name, recipe, func5=TUNE_SLOT)
    system.llc.runtime.library.register(spec, replace=True)
    handles = [system.place_matrix(s) for s in sources]
    out_shape = infer_out_shape(algorithm(name), [s.shape for s in sources])
    out = system.alloc_matrix(out_shape, sources[0].dtype)
    with system.program() as prog:
        for register, handle in enumerate(handles):
            prog.xmr(register, handle)
        prog.xmr(len(handles), out)
        offload_compiled(prog, TUNE_SLOT, out.etype.suffix, dest=len(handles),
                         sources=list(range(len(handles))), params=list(params))
    return system.read_matrix(out), system.last_report.total_cycles


def reference(name, sources, params):
    program = algorithm(name)
    out_shape = infer_out_shape(program, [s.shape for s in sources])
    operands = {program.dest.name: np.zeros(out_shape, dtype=sources[0].dtype)}
    for op, src in zip(program.sources, sources):
        operands[op.name] = src
    env = dict(zip(program.params, (int(p) for p in params)))
    return reference_output(program, operands, params=env)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budget", type=int, default=24,
                        help="max schedule candidates measured per kernel")
    parser.add_argument("--beam-width", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="bounded CI run: budget 8, beam width 2")
    parser.add_argument("--output", type=pathlib.Path,
                        default=pathlib.Path(__file__).parent
                        / "results" / "BENCH_autotune.json")
    args = parser.parse_args()
    if args.smoke:
        args.budget, args.beam_width = 8, 2

    rng = np.random.default_rng(7)
    tuner = Tuner(CONFIG, budget=args.budget, beam_width=args.beam_width)
    kernels = {}
    t0 = time.perf_counter()

    for name, sources, params in workloads(rng):
        result = tuner.tune(name, sources, params=params)
        expected = reference(name, sources, params)
        default_out, default_cycles = run_recipe(
            name, result.default_recipe, sources, params
        )
        tuned_out, tuned_cycles = run_recipe(
            name, result.best_recipe, sources, params
        )
        assert np.array_equal(default_out, expected), name
        assert np.array_equal(tuned_out, expected), name
        assert tuned_cycles <= default_cycles, (
            f"{name}: tuned recipe {result.best_recipe.describe()} "
            f"({tuned_cycles}) regressed below the default "
            f"({default_cycles})"
        )
        kernels[name] = {
            "geometry": result.geometry,
            "default_recipe": result.default_recipe.as_steps(),
            "default_cycles": default_cycles,
            "tuned_recipe": result.best_recipe.as_steps(),
            "tuned_cycles": tuned_cycles,
            "speedup": round(default_cycles / tuned_cycles, 4),
            "evaluated": result.evaluated,
            "bit_exact": True,
        }
        print(f"{name:<10} default {default_cycles:>8,}  tuned "
              f"{tuned_cycles:>8,}  ({result.evaluated} candidates)  "
              f"[{result.best_recipe.describe()}]")

    # -- tuned compiled GeMM vs the frozen handwritten Table I xmk0 ---------
    m, k, n = GEMM_SHAPE
    a = rng.integers(-8, 8, (m, k)).astype(np.int16)
    b = rng.integers(-8, 8, (k, n)).astype(np.int16)
    c = rng.integers(-8, 8, (m, n)).astype(np.int16)
    gemm_result = tuner.tune("cgemm", [a, b, c], params=GEMM_PARAMS)
    tuned_out, tuned_cycles = run_recipe(
        "cgemm", gemm_result.best_recipe, [a, b, c], GEMM_PARAMS
    )
    frozen = frozen_xmk0(f"bench_autotune/{m}x{k}x{n}")
    hand_cycles = frozen["total_cycles"]
    assert output_digest(tuned_out).hex() == frozen["output"]
    assert tuned_cycles < hand_cycles, (
        f"tuned cgemm ({tuned_cycles}) must beat the frozen xmk0 cycles "
        f"({hand_cycles}) at the strip-mined shape {GEMM_SHAPE}"
    )
    versus = {
        "shape": list(GEMM_SHAPE),
        "handwritten_cycles": hand_cycles,
        "tuned_cycles": tuned_cycles,
        "speedup": round(hand_cycles / tuned_cycles, 4),
        "tuned_recipe": gemm_result.best_recipe.as_steps(),
        "bit_exact": True,
    }
    print(f"cgemm vs frozen xmk0 @ {m}x{k}x{n}: "
          f"{hand_cycles:,} -> {tuned_cycles:,} "
          f"({versus['speedup']}x, bit-exact)")

    record = {
        "benchmark": "autotune",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "search": {
            "budget": args.budget,
            "beam_width": args.beam_width,
            "smoke": args.smoke,
            "config_fingerprint": config_fingerprint(CONFIG),
        },
        "cache": tuner.cache.stats(),
        "kernels": kernels,
        "gemm_vs_handwritten": versus,
        "wall_seconds": round(time.perf_counter() - t0, 3),
    }
    args.output.parent.mkdir(exist_ok=True)
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output} "
          f"({len(kernels)}/{len(ALGORITHMS)} kernels tuned, "
          f"{record['wall_seconds']}s)")


if __name__ == "__main__":
    main()
