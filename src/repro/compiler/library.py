"""Compiled kernels: new workloads authored in the IR, not by hand.

Every library kernel is two separable pieces — the Exo idiom the
autotuner (:mod:`repro.compiler.tune`) depends on:

* a pure **algorithm**: a builder in :data:`ALGORITHMS` returning a
  fresh, unscheduled :class:`~repro.compiler.ir.KernelProgram` (the
  semantic ground truth, interpretable by
  :func:`~repro.compiler.ir.reference_output`);
* a named **default recipe** in :data:`DEFAULT_RECIPES`: the hand-picked
  :class:`~repro.compiler.schedule.Recipe` the stock library ships with.

:func:`recompile` combines any algorithm with any legal recipe into a
registrable :class:`~repro.runtime.kernel_lib.KernelSpec` — the stock
slot by default, or any other slot (user slots :data:`USER_SLOTS` =
5..15 by convention) for alternate-schedule variants living alongside
the defaults.  The stock library:

==============  ======  ====================================================
Mnemonic        func5   Operation
==============  ======  ====================================================
``cgemm``       16      D = alpha * (A @ B) + beta * C (also serves xmk0)
``dwconv2d``    17      depthwise 'valid' conv: per-channel planes x filters
``fc``          18      fully-connected: out = x @ W + bias (GEMV + bias)
``ewise_add``   19      D = X + Y
``ewise_mul``   20      D = X * Y (uses the ``vmul.vv`` ISA extension)
``rowsum``      21      D[i, 0] = sum_j X[i, j] (``vredsum`` reduction)
==============  ======  ====================================================

``dwconv2d`` stacks channel planes row-wise like ``xmk4``: X is (C*H, W),
F is (C*K, K), D is (C*(H-K+1), W-K+1); with C == 1 it is exactly the
``xmk3`` single-channel convolution.  ``cgemm`` and ``dwconv2d`` use the
same operand packing as Table I's ``xmk0`` and ``xmk3``, so host programs
are interchangeable between them.  GeMM has one source: Table I slot 0
(``xmk0``) registers :func:`make_gemm_spec` under the default recipe.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.compiler.ir import Accum, Assign, KernelProgram, Loop, Operand, Sym
from repro.compiler.lower import compile_kernel
from repro.compiler.schedule import Recipe, Schedule
from repro.isa.xmnmc import pack_pair
from repro.runtime.kernel_lib import KernelLibrary, KernelSpec

#: Library slots for the compiled kernels (5..15 stay free for users).
FUNC5_CGEMM = 16
FUNC5_DWCONV2D = 17
FUNC5_FC = 18
FUNC5_EWISE_ADD = 19
FUNC5_EWISE_MUL = 20
FUNC5_ROWSUM = 21

#: Slots reserved for user-registered kernels and recompiled variants.
USER_SLOTS = range(5, 16)


# ---------------------------------------------------------------------------
# the algorithms (pure, unscheduled)
# ---------------------------------------------------------------------------


def gemm_program() -> KernelProgram:
    """D = alpha * (A @ B) + beta * C — served in slots 0 (``xmk0``) and 16."""
    M, K, N = Sym("M"), Sym("K"), Sym("N")
    alpha, beta = Sym("alpha"), Sym("beta")
    d = Operand("d", (M, N), out=True)
    a = Operand("a", (M, K))
    b = Operand("b", (K, N))
    c = Operand("c", (M, N))
    i, j, k = Sym("i"), Sym("j"), Sym("k")
    return KernelProgram(
        "cgemm",
        [d, a, b, c],
        [
            Loop(i, M, [
                Loop(j, N, [Assign(d[i, j], beta * c[i, j])]),
                Loop(k, K, [
                    Loop(j, N, [Accum(d[i, j], alpha * a[i, k] * b[k, j])]),
                ]),
            ], parallel=True),
        ],
        params=["alpha", "beta"],
    )


def dwconv2d_program() -> KernelProgram:
    """Depthwise 2D 'valid' convolution over row-stacked channel planes."""
    C, H, W, K = Sym("C"), Sym("H"), Sym("W"), Sym("K")
    out_h = H - K + 1
    out_w = W - K + 1
    d = Operand("d", (C * out_h, out_w), out=True)
    x = Operand("x", (C * H, W))
    f = Operand("f", (C * K, K))
    c, i, dr, dc, j = Sym("c"), Sym("i"), Sym("dr"), Sym("dc"), Sym("j")
    return KernelProgram(
        "dwconv2d",
        [d, x, f],
        [
            Loop(c, C, [
                Loop(i, out_h, [
                    Loop(j, out_w, [Assign(d[c * out_h + i, j], 0)]),
                    Loop(dr, K, [
                        Loop(dc, K, [
                            Loop(j, out_w, [
                                Accum(
                                    d[c * out_h + i, j],
                                    f[c * K + dr, dc] * x[c * H + i + dr, j + dc],
                                ),
                            ]),
                        ]),
                    ]),
                ], parallel=True),
            ], parallel=True),
        ],
    )


def fc_program() -> KernelProgram:
    """Fully-connected layer: out = x @ W + bias (GEMV + bias)."""
    K, N = Sym("K"), Sym("N")
    d = Operand("d", (1, N), out=True)
    x = Operand("x", (1, K))
    w = Operand("w", (K, N))
    bias = Operand("bias", (1, N))
    j, k = Sym("j"), Sym("k")
    return KernelProgram(
        "fc",
        [d, x, w, bias],
        [
            Loop(j, N, [Assign(d[0, j], bias[0, j])]),
            Loop(k, K, [
                Loop(j, N, [Accum(d[0, j], x[0, k] * w[k, j])]),
            ]),
        ],
    )


def _ewise_program(name: str, op: str) -> KernelProgram:
    M, N = Sym("M"), Sym("N")
    d = Operand("d", (M, N), out=True)
    x = Operand("x", (M, N))
    y = Operand("y", (M, N))
    i, j = Sym("i"), Sym("j")
    value = x[i, j] + y[i, j] if op == "add" else x[i, j] * y[i, j]
    return KernelProgram(
        name,
        [d, x, y],
        [Loop(i, M, [Loop(j, N, [Assign(d[i, j], value)])], parallel=True)],
    )


def ewise_add_program() -> KernelProgram:
    """Element-wise addition: D = X + Y."""
    return _ewise_program("ewise_add", "add")


def ewise_mul_program() -> KernelProgram:
    """Element-wise product: D = X * Y (the ``vmul.vv`` ISA extension)."""
    return _ewise_program("ewise_mul", "mul")


def rowsum_program() -> KernelProgram:
    """Row-sum reduction: D[i, 0] = sum_j X[i, j]."""
    M, N = Sym("M"), Sym("N")
    d = Operand("d", (M, 1), out=True)
    x = Operand("x", (M, N))
    i, j = Sym("i"), Sym("j")
    return KernelProgram(
        "rowsum",
        [d, x],
        [
            Loop(i, M, [
                Assign(d[i, 0], 0),
                Loop(j, N, [Accum(d[i, 0], x[i, j])]),
            ], parallel=True),
        ],
    )


#: name -> pure algorithm builder (fresh unscheduled program per call).
ALGORITHMS: Dict[str, Callable[[], KernelProgram]] = {
    "cgemm": gemm_program,
    "dwconv2d": dwconv2d_program,
    "fc": fc_program,
    "ewise_add": ewise_add_program,
    "ewise_mul": ewise_mul_program,
    "rowsum": rowsum_program,
}

#: name -> the hand-picked schedule the stock library ships with.
DEFAULT_RECIPES: Dict[str, Recipe] = {
    "cgemm": Recipe([("shard", "i"), ("strip_mine", "k"), ("vectorize", "j")]),
    "dwconv2d": Recipe([("shard", "c"), ("vectorize", "j")]),
    "fc": Recipe([("strip_mine", "k"), ("vectorize", "j")]),
    "ewise_add": Recipe([("shard", "i"), ("vectorize", "j")]),
    "ewise_mul": Recipe([("shard", "i"), ("vectorize", "j")]),
    "rowsum": Recipe([("shard", "i"), ("vectorize", "j")]),
}

#: name -> stock library slot.
DEFAULT_FUNC5: Dict[str, int] = {
    "cgemm": FUNC5_CGEMM,
    "dwconv2d": FUNC5_DWCONV2D,
    "fc": FUNC5_FC,
    "ewise_add": FUNC5_EWISE_ADD,
    "ewise_mul": FUNC5_EWISE_MUL,
    "rowsum": FUNC5_ROWSUM,
}

#: stock slot -> kernel name (e.g. for mapping requests back to algorithms).
NAME_BY_FUNC5: Dict[int, str] = {func5: name for name, func5 in DEFAULT_FUNC5.items()}


def algorithm(name: str) -> KernelProgram:
    """A fresh unscheduled program for one library kernel, by name."""
    try:
        return ALGORITHMS[name]()
    except KeyError:
        raise ValueError(
            f"unknown library kernel {name!r}; available: "
            + ", ".join(sorted(ALGORITHMS))
        ) from None


def default_recipe(name: str) -> Recipe:
    """The stock schedule for one library kernel, by name."""
    if name not in DEFAULT_RECIPES:
        raise ValueError(
            f"unknown library kernel {name!r}; available: "
            + ", ".join(sorted(DEFAULT_RECIPES))
        )
    return DEFAULT_RECIPES[name]


def recompile(
    name: str,
    recipe: Union[Recipe, Sequence, str, None] = None,
    func5: Optional[int] = None,
    description: str = "",
) -> KernelSpec:
    """Compile one library algorithm under a (possibly alternate) recipe.

    ``recipe=None`` uses the kernel's default; ``func5=None`` targets the
    stock slot (register with ``replace=True`` to swap the variant in —
    the library's generation bump invalidates stale replay recordings).
    Pass a slot from :data:`USER_SLOTS` (5..15) to install the variant
    *alongside* the stock kernel instead.
    """
    chosen = default_recipe(name) if recipe is None else Recipe.coerce(recipe)
    return replace(
        _lowered(name, chosen),
        func5=DEFAULT_FUNC5[name] if func5 is None else func5,
        description=description or f"compiled {name} [{chosen.describe()}]",
    )


@lru_cache(maxsize=None)
def _lowered(name: str, recipe: Recipe) -> KernelSpec:
    """Schedule and lower one (algorithm, recipe) pair once per process
    (at most the legal-recipe space); every slot registering it shares
    the emitted body, which holds no state."""
    return compile_kernel(Schedule(algorithm(name)).apply(recipe), DEFAULT_FUNC5[name])


# -- stock spec builders (algorithm + default recipe, overridable) -----------


def make_gemm_spec(func5: int = FUNC5_CGEMM, recipe=None) -> KernelSpec:
    """Compiled GeMM — ``cgemm`` in slot 16, and ``xmk0`` in slot 0."""
    return recompile(
        "cgemm", recipe, func5, "compiled D = alpha * (A @ B) + beta * C"
    )


def make_dwconv2d_spec(func5: int = FUNC5_DWCONV2D, recipe=None) -> KernelSpec:
    """Compiled depthwise 2D convolution over row-stacked channel planes."""
    return recompile(
        "dwconv2d", recipe, func5, "compiled depthwise 'valid' 2D convolution"
    )


def make_fc_spec(func5: int = FUNC5_FC, recipe=None) -> KernelSpec:
    """Compiled fully-connected layer: out = x @ W + bias (GEMV + bias)."""
    return recompile("fc", recipe, func5, "compiled fully-connected (GEMV + bias)")


def make_ewise_add_spec(func5: int = FUNC5_EWISE_ADD, recipe=None) -> KernelSpec:
    return recompile("ewise_add", recipe, func5, "compiled element-wise add")


def make_ewise_mul_spec(func5: int = FUNC5_EWISE_MUL, recipe=None) -> KernelSpec:
    return recompile("ewise_mul", recipe, func5, "compiled element-wise mul")


def make_rowsum_spec(func5: int = FUNC5_ROWSUM, recipe=None) -> KernelSpec:
    """Compiled row-sum reduction: D[i, 0] = sum_j X[i, j]."""
    return recompile("rowsum", recipe, func5, "compiled row-sum reduction")


def compiled_specs() -> Tuple[KernelSpec, ...]:
    """Freshly compiled instances of every library kernel."""
    return (
        make_gemm_spec(),
        make_dwconv2d_spec(),
        make_fc_spec(),
        make_ewise_add_spec(),
        make_ewise_mul_spec(),
        make_rowsum_spec(),
    )


def install_compiled(library: KernelLibrary) -> Tuple[KernelSpec, ...]:
    """Compile and register the whole compiled-kernel library."""
    specs = compiled_specs()
    for spec in specs:
        library.register(spec)
    return specs


def offload_compiled(
    prog,
    func5: int,
    suffix: str,
    dest: int,
    sources: Sequence[int],
    params: Sequence[int] = (),
) -> None:
    """Queue a compiled-kernel offload on a :class:`HostProgram`.

    Packs the instruction word with the convention ``compile_kernel``
    generates preambles for: params in rs1, sources in (rs3.first,
    rs3.second, rs2.first), destination in rs2.second.
    """
    if len(params) > 2:
        raise ValueError(f"{len(params)} params given; rs1 packs at most two")
    if len(sources) > 3:
        raise ValueError(
            f"{len(sources)} sources given; the instruction word packs at most three"
        )
    params = list(params) + [0] * (2 - len(params))
    regs = list(sources) + [0] * (3 - len(sources))
    prog.xmk(
        func5, suffix,
        rs1=pack_pair(params[0] & 0xFFFF, params[1] & 0xFFFF),
        rs2=pack_pair(regs[2], dest),
        rs3=pack_pair(regs[0], regs[1]),
    )
