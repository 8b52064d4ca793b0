"""End-to-end parity tests for the compiled kernel library.

Every compiled kernel runs through the full stack (program builder ->
bridge -> decoder -> scheduler -> VPU) and must match the NumPy golden
models bit-for-bit.  GeMM slot 0 (``xmk0``) is the compiled GeMM under
its default recipe; :class:`TestFrozenXmk0` holds it to the outputs,
cycles and stats the retired handwritten body produced."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.baselines.reference import ref_conv2d, ref_gemm
from repro.compiler import (
    FUNC5_CGEMM,
    FUNC5_DWCONV2D,
    FUNC5_EWISE_ADD,
    FUNC5_EWISE_MUL,
    FUNC5_FC,
    FUNC5_ROWSUM,
    ShapeError,
    install_compiled,
    offload_compiled,
)
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem
from repro.integrity.check import output_digest
from repro.runtime.context import KernelContext
from repro.vpu.visa import VectorOpcode

SMALL = ArcaneConfig(n_vpus=4, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)

DTYPES = [np.int8, np.int16, np.int32]


def make_system(**overrides) -> ArcaneSystem:
    config = ArcaneConfig(**{**SMALL.__dict__, **overrides})
    system = ArcaneSystem(config)
    install_compiled(system.llc.runtime.library)
    return system


def run_compiled(system, func5, sources, dest_shape, dtype, params=()):
    handles = [system.place_matrix(s) for s in sources]
    out = system.alloc_matrix(dest_shape, dtype)
    with system.program() as prog:
        for register, handle in enumerate(handles):
            prog.xmr(register, handle)
        prog.xmr(len(handles), out)
        offload_compiled(
            prog, func5, out.etype.suffix,
            dest=len(handles), sources=list(range(len(handles))), params=params,
        )
    return system.read_matrix(out), system.last_report


class TestCompiledGemm:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_reference(self, rng, dtype):
        m, k, n = 5, 7, 6
        a = rng.integers(-8, 8, (m, k)).astype(dtype)
        b = rng.integers(-8, 8, (k, n)).astype(dtype)
        c = rng.integers(-8, 8, (m, n)).astype(dtype)
        got, _ = run_compiled(
            make_system(), FUNC5_CGEMM, [a, b, c], (m, n), dtype, params=[2, -1]
        )
        assert np.array_equal(got, ref_gemm(a, b, c, 2, -1))

    def test_beta_zero_skips_addend(self, rng):
        a = rng.integers(-4, 4, (3, 3)).astype(np.int32)
        b = rng.integers(-4, 4, (3, 3)).astype(np.int32)
        c = rng.integers(-4, 4, (3, 3)).astype(np.int32)
        got, _ = run_compiled(
            make_system(), FUNC5_CGEMM, [a, b, c], (3, 3), np.int32, params=[1, 0]
        )
        assert np.array_equal(got, ref_gemm(a, b, c, 1, 0))

    def test_wraparound_int8(self):
        a = np.full((2, 4), 100, dtype=np.int8)
        b = np.full((4, 2), 100, dtype=np.int8)
        c = np.zeros((2, 2), dtype=np.int8)
        got, _ = run_compiled(
            make_system(), FUNC5_CGEMM, [a, b, c], (2, 2), np.int8, params=[1, 0]
        )
        assert np.array_equal(got, ref_gemm(a, b, c, 1, 0))

    def test_sharded_multi_vpu(self, rng):
        m, k, n = 12, 10, 8
        a = rng.integers(-8, 8, (m, k)).astype(np.int16)
        b = rng.integers(-8, 8, (k, n)).astype(np.int16)
        c = rng.integers(-8, 8, (m, n)).astype(np.int16)
        got, _ = run_compiled(
            make_system(multi_vpu=True), FUNC5_CGEMM, [a, b, c], (m, n),
            np.int16, params=[2, -1],
        )
        assert np.array_equal(got, ref_gemm(a, b, c, 2, -1))

    def test_shape_mismatch_raises(self, rng):
        a = rng.integers(-4, 4, (3, 4)).astype(np.int32)
        b = rng.integers(-4, 4, (5, 3)).astype(np.int32)  # inner dim differs
        c = rng.integers(-4, 4, (3, 3)).astype(np.int32)
        with pytest.raises(ShapeError, match="'b' rows"):
            run_compiled(
                make_system(), FUNC5_CGEMM, [a, b, c], (3, 3), np.int32, params=[1, 0]
            )

    def test_element_type_mismatch_raises(self, rng):
        system = make_system()
        a = system.place_matrix(rng.integers(-4, 4, (3, 3)).astype(np.int32))
        b = system.place_matrix(rng.integers(-4, 4, (3, 3)).astype(np.int16))
        c = system.place_matrix(rng.integers(-4, 4, (3, 3)).astype(np.int32))
        out = system.alloc_matrix((3, 3), np.int32)
        with pytest.raises(ValueError, match="bound as"):
            with system.program() as prog:
                prog.xmr(0, a).xmr(1, b).xmr(2, c).xmr(3, out)
                offload_compiled(prog, FUNC5_CGEMM, "w", dest=3,
                                 sources=[0, 1, 2], params=[1, 0])


#: Outputs, cycles, phase breakdowns and stats of the handwritten ``xmk0``
#: body, captured before it was deleted (slot 0 now runs the compiled
#: GeMM).  This file is an oracle: it is never regenerated.
XMK0_REFERENCE = pathlib.Path(__file__).parent / "data" / "xmk0_reference.json"

XMK0_SHAPES = [(5, 7, 6), (8, 40, 12), (8, 48, 24), (12, 16, 10)]
XMK0_DTYPES = {"b": np.int8, "h": np.int16, "w": np.int32}
XMK0_PARAMS = [(2, -1), (1, 0), (-3, 2), (0, 1)]
XMK0_SYSTEMS = {"single": SMALL, "multi": SMALL.with_multi_vpu(True)}
#: K above the 29 registers SMALL leaves for B: the B strip is re-streamed.
#: Such a launch claims every register of its VPU, so in multi-VPU mode no
#: LLC line is left to write D through; these shapes run single-VPU only.
XMK0_STRIP_MINED_K = {40, 48}

XMK0_CASES = {
    f"{suffix}/{m}x{k}x{n}/{alpha},{beta}/{system}": (
        suffix, (m, k, n), (alpha, beta), system,
    )
    for suffix in XMK0_DTYPES
    for m, k, n in XMK0_SHAPES
    for alpha, beta in XMK0_PARAMS
    for system in XMK0_SYSTEMS
    if system == "single" or k not in XMK0_STRIP_MINED_K
}


def run_slot0_gemm(case: str) -> dict:
    """One ``prog.gemm`` (slot 0) launch: output digest, cycles and stats."""
    suffix, (m, k, n), (alpha, beta), system_name = XMK0_CASES[case]
    dtype = XMK0_DTYPES[suffix]
    rng = np.random.default_rng([31, m, k, n, "bhw".index(suffix)])
    a, b, c = (
        rng.integers(-8, 8, shape).astype(dtype)
        for shape in ((m, k), (k, n), (m, n))
    )
    system = ArcaneSystem(XMK0_SYSTEMS[system_name])
    ma, mb, mc = (system.place_matrix(x) for x in (a, b, c))
    md = system.alloc_matrix((m, n), dtype)
    with system.program() as prog:
        prog.xmr(0, ma).xmr(1, mb).xmr(2, mc).xmr(3, md)
        prog.gemm(dest=3, a=0, b=1, c=2, alpha=alpha, beta=beta, suffix=suffix)
    out = system.read_matrix(md)
    assert np.array_equal(out, ref_gemm(a, b, c, alpha, beta))
    report = system.last_report
    return {
        "output": output_digest(out).hex(),
        "total_cycles": report.total_cycles,
        "breakdown": dict(report.breakdown.cycles),
        "stats": dict(sorted(report.stats.items())),
    }


@pytest.fixture(scope="module")
def xmk0_reference() -> dict:
    return json.loads(XMK0_REFERENCE.read_text())


class TestFrozenXmk0:
    """Slot 0 against the frozen handwritten ``xmk0``: the same output
    everywhere; the same cycles and stats where alpha != 0 and B fits
    the VRF; no more cycles elsewhere (the row cache re-streams fewer B
    rows, and a zero alpha skips every null ``vmacc.vs``)."""

    def test_reference_covers_every_case(self, xmk0_reference):
        assert sorted(xmk0_reference["cases"]) == sorted(XMK0_CASES)

    @pytest.mark.parametrize("case", sorted(XMK0_CASES))
    def test_slot0_matches_frozen_xmk0(self, case, xmk0_reference, monkeypatch):
        opcodes = []
        vop = KernelContext.vop

        def counting_vop(context, opcode, *args, **kwargs):
            opcodes.append(opcode)
            return vop(context, opcode, *args, **kwargs)

        monkeypatch.setattr(KernelContext, "vop", counting_vop)
        got = run_slot0_gemm(case)
        frozen = xmk0_reference["cases"][case]
        _, (_, k, _), (alpha, _), _ = XMK0_CASES[case]
        assert got["output"] == frozen["output"]
        if alpha != 0 and k not in XMK0_STRIP_MINED_K:
            assert got == frozen
        else:
            assert got["total_cycles"] <= frozen["total_cycles"]
        if alpha == 0:
            assert VectorOpcode.VMACC_VS not in opcodes


class TestNoIrWalkAtRunTime:
    """A compiled body is emitted Python: once it runs, nothing evaluates
    or traverses the IR."""

    @pytest.mark.parametrize("func5", [FUNC5_CGEMM, FUNC5_FC])
    def test_body_never_walks_the_ir(self, rng, func5, monkeypatch):
        import repro.compiler.ir as ir
        import repro.compiler.lower as lower

        def forbidden(*args, **kwargs):
            raise AssertionError("a compiled body walked the IR")

        system = make_system()
        library = system.llc.runtime.library
        spec = library.lookup(func5)

        def guarded(kc, kernel, shard=None):
            for module in (ir, lower):
                for name in ("eval_expr", "syms", "accesses", "walk"):
                    monkeypatch.setattr(module, name, forbidden, raising=False)
            yield from spec.body(kc, kernel, shard)

        library.register(dataclasses.replace(spec, body=guarded), replace=True)
        if func5 == FUNC5_CGEMM:
            a, b, c = (rng.integers(-8, 8, s).astype(np.int16)
                       for s in ((5, 7), (7, 6), (5, 6)))
            sources, params, expected = [a, b, c], [2, -1], ref_gemm(a, b, c, 2, -1)
        else:  # K = 40 strip-mines the weights on SMALL
            x, w, bias = (rng.integers(-8, 8, s).astype(np.int16)
                          for s in ((1, 40), (40, 12), (1, 12)))
            sources, params = [x, w, bias], []
            expected = (x.astype(np.int64) @ w + bias).astype(np.int16)
        got, _ = run_compiled(
            system, func5, sources, expected.shape, np.int16, params=params
        )
        assert np.array_equal(got, expected)


class TestCompiledDepthwiseConv:
    def test_single_channel_matches_conv2d(self, rng):
        x = rng.integers(-6, 6, (9, 10)).astype(np.int16)
        f = rng.integers(-3, 3, (3, 3)).astype(np.int16)
        got, _ = run_compiled(make_system(), FUNC5_DWCONV2D, [x, f], (7, 8), np.int16)
        assert np.array_equal(got, ref_conv2d(x, f))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_multi_channel(self, rng, dtype):
        channels, height, width, ksize = 3, 6, 8, 3
        x = rng.integers(-6, 6, (channels * height, width)).astype(dtype)
        f = rng.integers(-3, 3, (channels * ksize, ksize)).astype(dtype)
        expected = np.vstack([
            ref_conv2d(
                x[ch * height : (ch + 1) * height], f[ch * ksize : (ch + 1) * ksize]
            )
            for ch in range(channels)
        ])
        got, _ = run_compiled(
            make_system(), FUNC5_DWCONV2D, [x, f], expected.shape, dtype
        )
        assert np.array_equal(got, expected)

    def test_sharded_multi_vpu(self, rng):
        channels, height, width, ksize = 4, 5, 7, 2
        x = rng.integers(-6, 6, (channels * height, width)).astype(np.int8)
        f = rng.integers(-3, 3, (channels * ksize, ksize)).astype(np.int8)
        expected = np.vstack([
            ref_conv2d(
                x[ch * height : (ch + 1) * height], f[ch * ksize : (ch + 1) * ksize]
            )
            for ch in range(channels)
        ])
        got, _ = run_compiled(
            make_system(multi_vpu=True), FUNC5_DWCONV2D, [x, f], expected.shape,
            np.int8,
        )
        assert np.array_equal(got, expected)

    def test_channel_divisibility_enforced(self, rng):
        x = rng.integers(-6, 6, (10, 8)).astype(np.int16)
        f = rng.integers(-3, 3, (4, 3)).astype(np.int16)  # 4 rows not divisible by 3
        with pytest.raises(ShapeError, match="cannot split"):
            run_compiled(make_system(), FUNC5_DWCONV2D, [x, f], (6, 6), np.int16)


class TestCompiledFullyConnected:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_numpy(self, rng, dtype):
        k, n = 20, 9
        x = rng.integers(-8, 8, (1, k)).astype(dtype)
        w = rng.integers(-8, 8, (k, n)).astype(dtype)
        bias = rng.integers(-8, 8, (1, n)).astype(dtype)
        expected = (
            x.astype(np.int64) @ w.astype(np.int64) + bias.astype(np.int64)
        ).astype(dtype)
        got, _ = run_compiled(make_system(), FUNC5_FC, [x, w, bias], (1, n), dtype)
        assert np.array_equal(got, expected)

    def test_strip_mined_weights(self, rng):
        """K = 40 exceeds the free-register budget on the small config."""
        k, n = 40, 12
        x = rng.integers(-8, 8, (1, k)).astype(np.int16)
        w = rng.integers(-8, 8, (k, n)).astype(np.int16)
        bias = rng.integers(-8, 8, (1, n)).astype(np.int16)
        expected = (
            x.astype(np.int64) @ w.astype(np.int64) + bias.astype(np.int64)
        ).astype(np.int16)
        got, _ = run_compiled(make_system(), FUNC5_FC, [x, w, bias], (1, n), np.int16)
        assert np.array_equal(got, expected)


class TestCompiledElementwise:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_add(self, rng, dtype):
        x = rng.integers(-100, 100, (6, 11)).astype(dtype)
        y = rng.integers(-100, 100, (6, 11)).astype(dtype)
        got, _ = run_compiled(make_system(), FUNC5_EWISE_ADD, [x, y], x.shape, dtype)
        assert np.array_equal(got, (x.astype(np.int64) + y.astype(np.int64)).astype(dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_mul_wraps(self, rng, dtype):
        """Exercises the vmul.vv ISA extension, including wrap-around."""
        x = rng.integers(-100, 100, (6, 11)).astype(dtype)
        y = rng.integers(-100, 100, (6, 11)).astype(dtype)
        got, _ = run_compiled(make_system(), FUNC5_EWISE_MUL, [x, y], x.shape, dtype)
        assert np.array_equal(got, (x.astype(np.int64) * y.astype(np.int64)).astype(dtype))

    def test_row_too_long_for_register(self):
        x = np.ones((2, 100), dtype=np.int32)  # 100 > 64 int32 per 256B line
        with pytest.raises(ValueError, match="exceed"):
            run_compiled(make_system(), FUNC5_EWISE_ADD, [x, x], x.shape, np.int32)


class TestCompiledRowSum:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_numpy(self, rng, dtype):
        x = rng.integers(-100, 100, (7, 13)).astype(dtype)
        expected = x.astype(np.int64).sum(axis=1).astype(dtype).reshape(-1, 1)
        got, _ = run_compiled(make_system(), FUNC5_ROWSUM, [x], (7, 1), dtype)
        assert np.array_equal(got, expected)

    def test_sharded_multi_vpu(self, rng):
        x = rng.integers(-100, 100, (16, 10)).astype(np.int16)
        expected = x.astype(np.int64).sum(axis=1).astype(np.int16).reshape(-1, 1)
        got, _ = run_compiled(
            make_system(multi_vpu=True), FUNC5_ROWSUM, [x], (16, 1), np.int16
        )
        assert np.array_equal(got, expected)


class TestCustomCompiledKernel:
    def test_param_colliding_with_generated_strip_name(self, rng):
        """Regression: a param named 'k_o' must survive strip-mining (the
        generated strip counter used to shadow it in the runtime env)."""
        from repro.compiler import (
            Accum, Assign, Const, KernelProgram, Loop, Operand, Schedule, Sym,
            compile_kernel,
        )

        K, N, k_o = Sym("K"), Sym("N"), Sym("k_o")
        j, k = Sym("j"), Sym("k")
        d = Operand("d", (Const(1), N), out=True)
        x = Operand("x", (K, N))
        program = KernelProgram(
            "scaled_colsum", [d, x],
            [
                Loop(j, N, [Assign(d[0, j], Const(0))]),
                Loop(k, K, [Loop(j, N, [Accum(d[0, j], k_o * x[k, j])])]),
            ],
            params=["k_o"],
        )
        spec = compile_kernel(Schedule(program).strip_mine("k").vectorize("j"), 9)
        system = ArcaneSystem(SMALL)
        system.llc.runtime.library.register(spec)
        values = rng.integers(-8, 8, (10, 6)).astype(np.int16)
        hx = system.place_matrix(values)
        out = system.alloc_matrix((1, 6), np.int16)
        with system.program() as prog:
            prog.xmr(0, hx).xmr(1, out)
            offload_compiled(prog, 9, "h", dest=1, sources=[0], params=[3])
        expected = (3 * values.astype(np.int64).sum(axis=0)).astype(np.int16)
        assert np.array_equal(system.read_matrix(out)[0], expected)


class TestLibraryRegistration:
    def test_installs_six_kernels_above_table1(self):
        system = make_system()
        names = system.llc.runtime.library.names()
        assert names[FUNC5_CGEMM] == "cgemm"
        assert names[FUNC5_DWCONV2D] == "dwconv2d"
        assert names[FUNC5_FC] == "fc"
        assert names[FUNC5_EWISE_ADD] == "ewise_add"
        assert names[FUNC5_EWISE_MUL] == "ewise_mul"
        assert names[FUNC5_ROWSUM] == "rowsum"
        assert set(range(5)) <= set(names)  # Table I kernels untouched

    def test_double_install_collides_loudly(self):
        system = make_system()
        with pytest.raises(ValueError, match="replace=True"):
            install_compiled(system.llc.runtime.library)

    def test_offload_rejects_excess_operands(self):
        system = make_system()
        prog = system.program()
        with pytest.raises(ValueError, match="at most two"):
            offload_compiled(prog, FUNC5_CGEMM, "h", dest=3,
                             sources=[0, 1, 2], params=[1, 0, 99])
        with pytest.raises(ValueError, match="at most three"):
            offload_compiled(prog, FUNC5_CGEMM, "h", dest=4,
                             sources=[0, 1, 2, 3], params=[1, 0])
