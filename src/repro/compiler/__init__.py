"""The kernel compiler: loop-nest IR -> scheduled -> eCPU micro-programs.

Authoring pipeline (see ``examples/compiled_kernel.py``)::

    program  = KernelProgram(...)            # loop nest over matrix elements
    schedule = (Schedule(program)
                .shard("i")                  # multi-VPU row partitioning
                .strip_mine("k")             # tile K against VRF capacity
                .vectorize("j"))             # innermost loop -> vector ISA
    spec     = compile_kernel(schedule, func5=9)
    system.llc.runtime.library.register(spec)

Schedules are **data**: the same chain is a serializable
:class:`~repro.compiler.schedule.Recipe` (``Schedule(p).apply(recipe)``),
every library builder splits into a pure algorithm plus a named default
recipe (:func:`~repro.compiler.library.recompile` combines any pair),
and :mod:`repro.compiler.tune` searches the legal-recipe space for the
cheapest schedule per (kernel, geometry, config), memoized in a
JSON-persistable :class:`~repro.compiler.tune.ScheduleCache`.

The compiled :class:`~repro.runtime.kernel_lib.KernelSpec` is a drop-in
peer of the Table I kernels (slot 0 *is* one): same preamble contract, same
:class:`~repro.runtime.context.KernelContext` micro-program API, same
hazard guarding — new complex instructions without touching simulator,
runtime or hardware model.
"""

from repro.compiler.ir import (
    Access,
    Accum,
    Assign,
    CompilerError,
    Const,
    Expr,
    IrError,
    KernelProgram,
    Loop,
    Operand,
    ShapeError,
    Sym,
    bind_shapes,
    infer_out_shape,
    reference_output,
)
from repro.compiler.lower import LoweringError, compile_kernel
from repro.compiler.schedule import Recipe, Schedule, ScheduleError
from repro.compiler.library import (
    ALGORITHMS,
    DEFAULT_FUNC5,
    DEFAULT_RECIPES,
    FUNC5_CGEMM,
    FUNC5_DWCONV2D,
    FUNC5_EWISE_ADD,
    FUNC5_EWISE_MUL,
    FUNC5_FC,
    FUNC5_ROWSUM,
    NAME_BY_FUNC5,
    USER_SLOTS,
    algorithm,
    compiled_specs,
    default_recipe,
    install_compiled,
    make_dwconv2d_spec,
    make_ewise_add_spec,
    make_ewise_mul_spec,
    make_fc_spec,
    make_gemm_spec,
    make_rowsum_spec,
    offload_compiled,
    recompile,
)
from repro.compiler.tune import (
    ScheduleCache,
    TunedSchedule,
    TuneResult,
    Tuner,
    config_fingerprint,
    geometry_key,
)

__all__ = [
    "Access",
    "Accum",
    "Assign",
    "CompilerError",
    "Const",
    "Expr",
    "IrError",
    "KernelProgram",
    "Loop",
    "LoweringError",
    "Operand",
    "Recipe",
    "Schedule",
    "ScheduleCache",
    "ScheduleError",
    "ShapeError",
    "Sym",
    "TuneResult",
    "TunedSchedule",
    "Tuner",
    "algorithm",
    "bind_shapes",
    "compile_kernel",
    "compiled_specs",
    "config_fingerprint",
    "default_recipe",
    "geometry_key",
    "infer_out_shape",
    "install_compiled",
    "offload_compiled",
    "recompile",
    "reference_output",
    "ALGORITHMS",
    "DEFAULT_FUNC5",
    "DEFAULT_RECIPES",
    "FUNC5_CGEMM",
    "FUNC5_DWCONV2D",
    "FUNC5_FC",
    "FUNC5_EWISE_ADD",
    "FUNC5_EWISE_MUL",
    "FUNC5_ROWSUM",
    "NAME_BY_FUNC5",
    "USER_SLOTS",
    "make_gemm_spec",
    "make_dwconv2d_spec",
    "make_fc_spec",
    "make_ewise_add_spec",
    "make_ewise_mul_spec",
    "make_rowsum_spec",
]
