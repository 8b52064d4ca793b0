#!/usr/bin/env python3
"""Autotuning — search the legal-recipe space for the cheapest schedule.

Schedules are data: every library kernel is a pure loop-nest algorithm
plus a serializable :class:`~repro.compiler.Recipe` of transform steps
(``shard`` / ``strip_mine`` / ``unroll`` / ``vectorize``).  The
:class:`~repro.compiler.Tuner` walks ``Schedule.legal_moves()`` with a
budgeted beam search, measuring each candidate's *simulated* cycles on
the target machine, and memoizes the winner per
``(kernel, geometry, machine-config)`` in a JSON-persistable
:class:`~repro.compiler.ScheduleCache`.

This example tunes the compiled GeMM for one strip-mined shape, shows
the winning recipe and its cycle cost next to the default recipe and
the Table I ``xmk0`` GEMM (slot 0: the same compiled algorithm under
its default recipe), verifies all three outputs are bit-exact, and
demonstrates the cache hit on a repeat call.

Usage:  python examples/autotune.py
"""

import numpy as np

from repro import ArcaneConfig, ArcaneSystem
from repro.baselines.reference import ref_gemm
from repro.compiler import Tuner, recompile, offload_compiled

M, K, N = 8, 48, 24  # K=48 exceeds the VRF: the schedule must strip-mine
ALPHA, BETA = 2, -1
TUNE_SLOT = 15


def run_xmk0_gemm(config, a, b, c):
    system = ArcaneSystem(config)
    ma, mb, mc = (system.place_matrix(x) for x in (a, b, c))
    md = system.alloc_matrix((a.shape[0], b.shape[1]), a.dtype)
    with system.program() as prog:
        prog.xmr(0, ma).xmr(1, mb).xmr(2, mc).xmr(3, md)
        prog.gemm(dest=3, a=0, b=1, c=2, alpha=ALPHA, beta=BETA,
                  suffix=ma.etype.suffix)
    return system.read_matrix(md), system.last_report.total_cycles


def run_recipe(config, recipe, a, b, c):
    system = ArcaneSystem(config)
    spec = recompile("cgemm", recipe, func5=TUNE_SLOT)
    system.llc.runtime.library.register(spec, replace=True)
    handles = [system.place_matrix(x) for x in (a, b, c)]
    out = system.alloc_matrix((a.shape[0], b.shape[1]), a.dtype)
    with system.program() as prog:
        for register, handle in enumerate(handles):
            prog.xmr(register, handle)
        prog.xmr(3, out)
        offload_compiled(prog, TUNE_SLOT, out.etype.suffix, dest=3,
                         sources=[0, 1, 2], params=[ALPHA, BETA])
    return system.read_matrix(out), system.last_report.total_cycles


def main() -> None:
    rng = np.random.default_rng(7)
    a = rng.integers(-8, 8, (M, K)).astype(np.int16)
    b = rng.integers(-8, 8, (K, N)).astype(np.int16)
    c = rng.integers(-8, 8, (M, N)).astype(np.int16)
    config = ArcaneConfig(n_vpus=4, lanes=4, line_bytes=256, vpu_kib=8,
                          main_memory_kib=2048)

    # Search the recipe space for this (kernel, shape, machine).
    tuner = Tuner(config, budget=16, beam_width=3)
    result = tuner.tune("cgemm", [a, b, c], params=(ALPHA, BETA))
    print(f"tuned cgemm {M}x{K}x{N} on {result.geometry}")
    print(f"  candidates measured : {result.evaluated} (budget {result.budget})")
    print(f"  default recipe      : {result.default_recipe.describe()}"
          f" -> {result.default_cycles:,} cycles")
    print(f"  best recipe         : {result.best_recipe.describe()}"
          f" -> {result.best_cycles:,} cycles")

    # The winner is never worse than the default recipe, and the search
    # result is bit-exact: same integer output as the unscheduled
    # algorithm, the default schedule, and the Table I GEMM slot.
    expected = ref_gemm(a, b, c, ALPHA, BETA)
    tuned_out, tuned_cycles = run_recipe(config, result.best_recipe, a, b, c)
    hand_out, hand_cycles = run_xmk0_gemm(config, a, b, c)
    assert np.array_equal(tuned_out, expected)
    assert np.array_equal(hand_out, expected)
    assert tuned_cycles <= result.default_cycles
    print(f"  xmk0 (slot 0)       : {hand_cycles:,} cycles "
          f"(tuned is {hand_cycles / tuned_cycles:.2f}x)")
    print("  outputs bit-exact vs numpy golden model: yes")

    # The winner is memoized: a second tune() for the same geometry and
    # machine fingerprint is a cache hit (zero candidates measured), and
    # the cache itself round-trips through JSON for reuse across runs.
    again = tuner.tune("cgemm", [a, b, c], params=(ALPHA, BETA))
    assert again.from_cache and again.best_cycles == result.best_cycles
    restored = type(tuner.cache).from_json(tuner.cache.to_json())
    assert len(restored) == len(tuner.cache)
    print(f"  repeat tune()       : cache hit "
          f"({tuner.cache.stats()['hits']} hit(s), JSON round-trip ok)")


if __name__ == "__main__":
    main()
