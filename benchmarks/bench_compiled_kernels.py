"""Compiled vs handwritten kernels: simulated-cycle comparison.

Renders one artifact: the compiled GeMM against the frozen cycles of the
retired handwritten ``xmk0`` body (:mod:`frozen_xmk0`, same inputs, same
system config), the compiled depthwise conv against the handwritten
``xmk3``, and the simulated cycle cost of the four new compiled-only
workloads (fully-connected, depthwise conv, element-wise add/mul,
row-sum).

Asserted relations:

* compiled GeMM is bit-exact vs the frozen ``xmk0`` outputs and within
  10% of its cycles (better once strip-mined: the row cache keeps
  partial strips resident);
* compiled single-channel conv matches ``xmk3`` bit-exactly;
* every compiled-only kernel matches its NumPy golden model.
"""

import numpy as np
import pytest

from conftest import publish
from frozen_xmk0 import frozen_xmk0
from repro.baselines.reference import ref_conv2d, ref_gemm
from repro.compiler import (
    FUNC5_CGEMM,
    FUNC5_DWCONV2D,
    FUNC5_EWISE_ADD,
    FUNC5_EWISE_MUL,
    FUNC5_FC,
    FUNC5_ROWSUM,
    install_compiled,
    offload_compiled,
)
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem
from repro.integrity.check import output_digest

CONFIG = ArcaneConfig(n_vpus=4, lanes=4, line_bytes=256, vpu_kib=8,
                      main_memory_kib=2048)


def make_system() -> ArcaneSystem:
    system = ArcaneSystem(CONFIG)
    install_compiled(system.llc.runtime.library)
    return system


def run_compiled(func5, sources, dest_shape, dtype, params=()):
    system = make_system()
    handles = [system.place_matrix(s) for s in sources]
    out = system.alloc_matrix(dest_shape, dtype)
    with system.program() as prog:
        for register, handle in enumerate(handles):
            prog.xmr(register, handle)
        prog.xmr(len(handles), out)
        offload_compiled(prog, func5, out.etype.suffix, dest=len(handles),
                         sources=list(range(len(handles))), params=params)
    return system.read_matrix(out), system.last_report.total_cycles


def run_handwritten_conv(x, f):
    system = make_system()
    mx, mf = system.place_matrix(x), system.place_matrix(f)
    out_shape = (x.shape[0] - f.shape[0] + 1, x.shape[1] - f.shape[0] + 1)
    md = system.alloc_matrix(out_shape, x.dtype)
    with system.program() as prog:
        prog.xmr(0, mx).xmr(1, mf).xmr(2, md)
        prog.conv2d(dest=2, src=0, flt=1, suffix=mx.etype.suffix)
    return system.read_matrix(md), system.last_report.total_cycles


@pytest.fixture(scope="module")
def results():
    rng = np.random.default_rng(7)
    rows = []

    # -- twins: compiled vs handwritten (GeMM: its frozen cycles) -----------
    for label, (m, k, n) in (("fits VRF", (8, 16, 24)), ("strip-mined", (8, 48, 24))):
        a = rng.integers(-8, 8, (m, k)).astype(np.int16)
        b = rng.integers(-8, 8, (k, n)).astype(np.int16)
        c = rng.integers(-8, 8, (m, n)).astype(np.int16)
        comp, comp_cycles = run_compiled(
            FUNC5_CGEMM, [a, b, c], (m, n), np.int16, params=[2, -1]
        )
        frozen = frozen_xmk0(f"bench_compiled_kernels/{m}x{k}x{n}")
        assert np.array_equal(comp, ref_gemm(a, b, c, 2, -1))
        assert output_digest(comp).hex() == frozen["output"]
        rows.append((f"gemm {m}x{k}x{n} ({label})", frozen["total_cycles"], comp_cycles))

    x = rng.integers(-6, 6, (30, 32)).astype(np.int16)
    f = rng.integers(-3, 3, (3, 3)).astype(np.int16)
    hand, hand_cycles = run_handwritten_conv(x, f)
    comp, comp_cycles = run_compiled(FUNC5_DWCONV2D, [x, f], hand.shape, np.int16)
    assert np.array_equal(comp, hand) and np.array_equal(hand, ref_conv2d(x, f))
    rows.append(("conv2d 30x32 3x3 (1 ch)", hand_cycles, comp_cycles))

    # -- compiled-only workloads -------------------------------------------
    extra = []
    xv = rng.integers(-8, 8, (1, 64)).astype(np.int16)
    w = rng.integers(-8, 8, (64, 24)).astype(np.int16)
    bias = rng.integers(-8, 8, (1, 24)).astype(np.int16)
    got, cycles = run_compiled(FUNC5_FC, [xv, w, bias], (1, 24), np.int16)
    assert np.array_equal(
        got, (xv.astype(np.int64) @ w.astype(np.int64) + bias).astype(np.int16)
    )
    extra.append(("fc 64->24 (GEMV+bias)", cycles))

    x3 = rng.integers(-6, 6, (3 * 12, 16)).astype(np.int16)
    f3 = rng.integers(-3, 3, (3 * 3, 3)).astype(np.int16)
    got, cycles = run_compiled(FUNC5_DWCONV2D, [x3, f3], (3 * 10, 14), np.int16)
    expected = np.vstack(
        [ref_conv2d(x3[ch * 12 : (ch + 1) * 12], f3[ch * 3 : (ch + 1) * 3])
         for ch in range(3)]
    )
    assert np.array_equal(got, expected)
    extra.append(("dwconv2d 3ch 12x16 3x3", cycles))

    ea = rng.integers(-100, 100, (16, 32)).astype(np.int16)
    eb = rng.integers(-100, 100, (16, 32)).astype(np.int16)
    got, cycles = run_compiled(FUNC5_EWISE_ADD, [ea, eb], ea.shape, np.int16)
    assert np.array_equal(got, (ea.astype(np.int64) + eb).astype(np.int16))
    extra.append(("ewise_add 16x32", cycles))
    got, cycles = run_compiled(FUNC5_EWISE_MUL, [ea, eb], ea.shape, np.int16)
    assert np.array_equal(got, (ea.astype(np.int64) * eb).astype(np.int16))
    extra.append(("ewise_mul 16x32", cycles))

    got, cycles = run_compiled(FUNC5_ROWSUM, [ea], (16, 1), np.int16)
    assert np.array_equal(
        got, ea.astype(np.int64).sum(axis=1).astype(np.int16).reshape(-1, 1)
    )
    extra.append(("rowsum 16x32", cycles))

    return {"twins": rows, "extra": extra}


def test_compiled_vs_handwritten(benchmark, results):
    benchmark.pedantic(
        lambda: run_compiled(
            FUNC5_EWISE_ADD,
            [np.ones((8, 16), dtype=np.int16)] * 2, (8, 16), np.int16,
        ),
        rounds=3, iterations=1,
    )
    lines = ["Compiled vs handwritten kernels (simulated cycles; the GeMM "
             "rows' handwritten column is the frozen xmk0)", ""]
    lines.append(f"{'workload':<28} {'handwritten':>12} {'compiled':>10} {'ratio':>7}")
    for label, hand, comp in results["twins"]:
        lines.append(f"{label:<28} {hand:>12,} {comp:>10,} {comp / hand:>6.2f}x")
    lines.append("")
    lines.append(f"{'compiled-only workload':<28} {'cycles':>12}")
    for label, cycles in results["extra"]:
        lines.append(f"{label:<28} {cycles:>12,}")
    publish("compiled_kernels", "\n".join(lines))


def test_compiled_gemm_within_10pct(results):
    for label, hand, comp in results["twins"]:
        if label.startswith("gemm"):
            assert comp <= hand * 1.10, (label, hand, comp)


def test_strip_mined_gemm_beats_frozen_xmk0(results):
    """The row cache's partial-strip reuse should win once strip-mined."""
    strip = next(r for r in results["twins"] if "strip-mined" in r[0])
    assert strip[2] < strip[1]
