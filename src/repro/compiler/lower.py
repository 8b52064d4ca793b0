"""Lowering: scheduled IR -> a registered :class:`KernelSpec`.

:func:`compile_kernel` turns a vectorized :class:`Schedule` into the two
artifacts every library kernel has:

* an auto-generated **preamble** — unpacks the instruction word with the
  Table I operand-packing convention, resolves logical matrix registers
  through the :class:`~repro.runtime.matrix.MatrixMap`, checks element
  types, and infers/validates every symbolic dimension from the actual
  operand shapes (:func:`repro.compiler.ir.bind_shapes`);
* a **body generator** emitted once as Python source and compiled once
  (:class:`_Emitter`): loops are ``for`` loops, indices plain
  arithmetic, and it calls nothing but the
  :class:`~repro.runtime.context.KernelContext`, so no IR is walked at
  run time.  It claims register windows sized by the VRF-capacity
  policy (:func:`repro.runtime.kernels.common.k_strip_size`), keeps
  source rows resident in direct-mapped windows (a B-matrix strip is
  DMA-loaded once and reused across output rows), loads each output
  row's coefficient rows first, batches strip loads under one
  cache-lock acquisition, folds zero coefficients at launch time
  (``beta == 0`` skips the C load and becomes ``vclear``) and skips null
  ``vmacc.vs`` contributions.

The result registers into the kernel library by ``func5``; GeMM slot 0
(``xmk0``) is this compiler's GeMM.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler.ir import (
    Access,
    Assign,
    Accum,
    BinOp,
    CompilerError,
    Const,
    Expr,
    KernelProgram,
    Loop,
    RowRef,
    Stmt,
    StripLoop,
    Sym,
    VClearElem,
    VEwise,
    VInit,
    VMacc,
    VReduce,
    VectorStmt,
    accesses,
    bind_shapes,
    key,
    syms,
    walk,
)
from repro.compiler.schedule import Schedule
from repro.isa.xmnmc import OffloadRequest
from repro.runtime.kernel_lib import KernelSpec, PreambleResult
from repro.runtime.kernels.common import k_strip_size, shard_rows, signed16
from repro.runtime.matrix import MatrixMap
from repro.vpu.visa import OP_TRAITS, ElementType, VectorOpcode


class LoweringError(CompilerError):
    """The scheduled program cannot be mapped onto the micro-program API."""


#: Which opcodes each vector statement's lowering can emit (see
#: ``_Emitter.vector``).  Consulted against ``OP_TRAITS`` when
#: planning register windows.
_STMT_OPCODES = {
    VInit: (VectorOpcode.VCLEAR, VectorOpcode.VMV, VectorOpcode.VMUL_VS),
    VEwise: (VectorOpcode.VADD_VV, VectorOpcode.VMUL_VV),
    VMacc: (VectorOpcode.VMACC_VS,),
    VReduce: (VectorOpcode.VREDSUM, VectorOpcode.VADD_VV),
    VClearElem: (VectorOpcode.VCLEAR,),
}


# ---------------------------------------------------------------------------
# compile-time analysis
# ---------------------------------------------------------------------------


@dataclass
class _CacheSpec:
    """Register-window plan for one source operand's resident rows."""

    operand: str
    capacity: Optional[Expr]  # None -> strip-sized (runtime S)
    strip_row: Optional[Expr] = None  # representative row expr (strip operands)

    @property
    def is_strip(self) -> bool:
        return self.capacity is None


@dataclass
class _Plan:
    """Everything the generated body needs, derived once at compile time."""

    program: KernelProgram
    store_loop: Optional[Loop]
    strip: Optional[StripLoop]
    caches: Dict[str, _CacheSpec]
    needs_scratch: bool
    dest_row: Expr
    sharded_var: Optional[str]


def _row_uses(program: KernelProgram) -> Dict[str, List[Expr]]:
    """operand -> row expressions of every vector/scalar access, in order."""
    uses: Dict[str, List[Expr]] = {}
    for stmt in walk(program.body):
        coeff = stmt.coeff if isinstance(stmt, (VInit, VMacc)) else Const(0)
        refs = [getattr(stmt, name, None) for name in ("src", "a", "b")]
        for ref in accesses(coeff) + [ref for ref in refs if ref is not None]:
            uses.setdefault(ref.operand, []).append(ref.row)
    return uses


def _analyze(program: KernelProgram) -> _Plan:
    if program.vector_var is None:
        raise LoweringError(
            f"kernel {program.name!r} is not vectorized; apply "
            "Schedule.vectorize() before lowering"
        )

    # Residual element statements: only the scalar destination-clear form
    # survives vectorization; rewrite it, reject anything else.
    def rewrite_residuals(block: List[Stmt]) -> None:
        for index, stmt in enumerate(block):
            if isinstance(stmt, (Loop, StripLoop)):
                rewrite_residuals(stmt.body)
            elif isinstance(stmt, Assign):
                if isinstance(stmt.value, Const) and stmt.value.value == 0:
                    block[index] = VClearElem(stmt.dest.row, stmt.dest.col)
                else:
                    raise LoweringError(
                        f"element statement {stmt.dest!r} = {stmt.value!r} "
                        "was not vectorized and has no scalar lowering"
                    )
            elif isinstance(stmt, Accum):
                raise LoweringError(
                    f"element accumulation into {stmt.dest!r} was not "
                    "vectorized (is it missing a loop over the vector var?)"
                )

    rewrite_residuals(program.body)

    vector_stmts = [s for s in walk(program.body) if isinstance(s, VectorStmt)]
    if not vector_stmts:
        raise LoweringError(f"kernel {program.name!r} has no vector statements")
    dest_rows = {key(s.dest_row) for s in vector_stmts}
    if len(dest_rows) > 1:
        raise LoweringError(
            f"kernel writes {len(dest_rows)} distinct destination rows per "
            f"iteration ({sorted(dest_rows)}); one accumulator row is supported"
        )
    dest_row = vector_stmts[0].dest_row

    # loop inventory
    strip = next((s for s in walk(program.body) if isinstance(s, StripLoop)), None)
    strip_syms = (
        {strip.outer_var, strip.inner_var, strip.size_sym} if strip else set()
    )
    parallel_loops: List[Loop] = []
    reduction_extents: Dict[str, Expr] = {}
    sharded_var: Optional[str] = None

    def scan(block: Sequence[Stmt]) -> None:
        nonlocal sharded_var
        for stmt in block:
            if isinstance(stmt, Loop):
                if stmt.parallel:
                    parallel_loops.append(stmt)
                    if stmt.sharded:
                        sharded_var = stmt.var
                else:
                    reduction_extents[stmt.var] = stmt.extent
                scan(stmt.body)
            elif isinstance(stmt, StripLoop):
                scan(stmt.body)

    scan(program.body)

    dest_syms = syms(dest_row)
    bad = dest_syms & (set(reduction_extents) | strip_syms)
    if bad:
        raise LoweringError(
            f"destination row {dest_row!r} is indexed by reduction "
            f"variables {sorted(bad)}"
        )
    store_loop = None
    for loop in parallel_loops:  # scan() appends outermost-first
        if loop.var in dest_syms:
            store_loop = loop

    # first write into the accumulator must be an assignment form
    first = vector_stmts[0]
    if isinstance(first, (VMacc, VReduce)):
        raise LoweringError(
            "destination is accumulated before being initialized; start "
            "each output iteration with an assignment (e.g. acc = 0)"
        )

    # row caches
    caches: Dict[str, _CacheSpec] = {}
    for operand, rows in _row_uses(program).items():
        strip_rows = [r for r in rows if syms(r) & strip_syms]
        if strip_rows:
            if len(strip_rows) != len(rows):
                raise LoweringError(
                    f"operand {operand!r} is accessed both inside and "
                    "outside the strip-mined loop; unsupported"
                )
            if len({key(r) for r in strip_rows}) != 1:
                raise LoweringError(
                    f"operand {operand!r} has several distinct strip-row "
                    f"indexings; unsupported"
                )
            caches[operand] = _CacheSpec(operand, None, strip_rows[0])
        else:
            capacity: Expr = Const(1)
            seen = set()
            for row in rows:
                for name in syms(row) & set(reduction_extents):
                    if name not in seen:
                        seen.add(name)
                        capacity = BinOp("*", capacity, reduction_extents[name])
            caches[operand] = _CacheSpec(operand, capacity)

    strip_caches = [c for c in caches.values() if c.is_strip]
    if len(strip_caches) > 1:
        raise LoweringError(
            "strip-mined rows of more than one operand; the strip window "
            "policy supports a single resident-strip operand"
        )
    if strip is not None and not strip_caches:
        raise LoweringError(
            "strip-mined loop does not index any operand rows; remove the "
            "strip_mine() step"
        )

    for stmt in vector_stmts:
        if isinstance(stmt, VEwise):
            # vs2 has no element-offset addressing in the vector ISA
            offset = stmt.b.offset
            if not (isinstance(offset, Const) and offset.value == 0):
                raise LoweringError(
                    f"second element-wise source {stmt.b!r} needs a column "
                    "offset; only vs1 supports gather addressing"
                )

    # A reduction opcode collapses the row into vd[vd_offset]; combining
    # that value into the accumulator takes one scratch register, which
    # must be reserved out of the strip-mining budget.
    needs_scratch = any(
        OP_TRAITS[opcode].is_reduction
        for stmt in vector_stmts
        for opcode in _STMT_OPCODES[type(stmt)]
    )
    return _Plan(
        program, store_loop, strip, caches, needs_scratch, dest_row, sharded_var
    )


# ---------------------------------------------------------------------------
# the body emitter
# ---------------------------------------------------------------------------


def _ident(prefix: str, name: str) -> str:
    """A Python local for an IR name (symbols and operands are user text)."""
    return prefix + (name if name.isidentifier() else "x" + name.encode().hex())


class _Emitter:
    """Writes the scheduled IR as the Python source of one body generator.

    Loops become ``for`` loops over locals (``s_<var>``) and index
    expressions plain arithmetic.  Each source operand keeps its rows in
    a direct-mapped register window ``w_<operand>`` (slot ``row %
    capacity``, resident rows in ``r_<operand>``) checked inline, so a
    B-matrix strip is DMA-loaded once and reused across output rows, and
    the executed body calls nothing but the :class:`KernelContext`.
    """

    def __init__(self, plan: _Plan) -> None:
        self.plan = plan
        self.lines: List[str] = []
        self.temps = 0
        #: operand -> its window's slot count (a local, or a literal)
        self.capacity = {
            name: _ident("s_", plan.strip.size_sym) if spec.is_strip
            else str(max(1, spec.capacity.value)) if isinstance(spec.capacity, Const)
            else _ident("c_", name)
            for name, spec in plan.caches.items()
        }

    def emit(self, depth: int, *lines: str) -> None:
        self.lines.extend("    " * depth + line for line in lines)

    def bind(self, depth: int, value: str) -> str:
        """``value`` as a local or a literal, evaluated once."""
        if value.isidentifier() or value.lstrip("-").isdigit():
            return value
        self.temps += 1
        self.emit(depth, f"t{self.temps} = {value}")
        return f"t{self.temps}"

    def index(self, expr: Expr) -> str:
        """A pure index expression as Python arithmetic."""
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, Sym):
            return _ident("s_", expr.name)
        if isinstance(expr, BinOp):
            return f"({self.index(expr.lhs)} {expr.op} {self.index(expr.rhs)})"
        raise LoweringError(f"element access {expr!r} in an index position")

    def scalar(self, depth: int, expr: Expr) -> str:
        """Emit a coefficient's element reads, in order; return its value."""
        if isinstance(expr, BinOp):
            lhs = self.scalar(depth, expr.lhs)
            return f"({lhs} {expr.op} {self.scalar(depth, expr.rhs)})"
        if isinstance(expr, Access):
            register = self.ensure(depth, expr.operand, expr.row)
            col = self.index(expr.col)
            return self.bind(depth, f"(yield from kc.read_element({register}, {col}))")
        return self.index(expr)

    def ensure(self, depth: int, operand: str, row_expr: Expr) -> str:
        """Emit a residency check that loads on a miss; return the register."""
        row = self.bind(depth, self.index(row_expr))
        window, resident, capacity = (
            _ident("w_", operand), _ident("r_", operand), self.capacity[operand]
        )
        load = f"yield from kc.load_rows({window}, {_ident('m_', operand)}, {row}, 1"
        if capacity == "1":  # a single-row window needs no slot arithmetic
            self.emit(depth, f"if {resident} != {row}:", f"    {load}, 0)",
                      f"    {resident} = {row}")
            return _ident("g_", operand)
        slot = self.bind(depth, f"{row} % {capacity}")
        self.emit(depth, f"if {resident}[{slot}] != {row}:", f"    {load}, {slot})",
                  f"    {resident}[{slot}] = {row}")
        return f"{window}[{slot}]"

    def ref(self, depth: int, ref: RowRef) -> Tuple[str, str]:
        return self.ensure(depth, ref.operand, ref.row), self.index(ref.offset)

    # -- statements -------------------------------------------------------------

    def block(self, depth: int, block: Sequence[Stmt]) -> None:
        for stmt in block:
            if isinstance(stmt, Loop):
                self.loop(depth, stmt)
            elif isinstance(stmt, StripLoop):
                self.strip(depth, stmt)
            else:
                self.vector(depth, stmt)

    def loop(self, depth: int, loop: Loop) -> None:
        var, extent = _ident("s_", loop.var), self.index(loop.extent)
        if loop.sharded:
            self.emit(
                depth,
                f"first, count = (0, {extent}) if shard is None "
                f"else shard_rows({extent}, shard)",
                f"for {var} in range(first, first + count):",
            )
        else:
            self.emit(depth, f"for {var} in range({extent}):")
        if loop is self.plan.store_loop:
            self.hoist(depth + 1, loop)
        self.block(depth + 1, loop.body)
        if loop is self.plan.store_loop:
            self.store(depth + 1)

    def hoist(self, depth: int, loop: Loop) -> None:
        """Load the coefficient rows no inner loop variable indexes first,
        at the top of each output row (the order ``xmk0`` always used)."""
        inner = set()
        for stmt in walk(loop.body):
            if isinstance(stmt, Loop):
                inner.add(stmt.var)
            elif isinstance(stmt, StripLoop):
                inner |= {stmt.outer_var, stmt.inner_var}
        seen = set()
        coeffs = [s.coeff for s in walk(loop.body) if isinstance(s, (VInit, VMacc))]
        for access in (access for coeff in coeffs for access in accesses(coeff)):
            ident = (access.operand, key(access.row))
            if ident not in seen and not syms(access.row) & inner:
                seen.add(ident)
                self.ensure(depth, access.operand, access.row)

    def strip(self, depth: int, strip: StripLoop) -> None:
        """Strips of launch-time size; each strip's missing rows are
        batch-loaded under one cache-lock acquisition."""
        spec = next(c for c in self.plan.caches.values() if c.is_strip)
        size, total = _ident("s_", strip.size_sym), self.bind(depth, self.index(strip.total))
        outer, inner = _ident("s_", strip.outer_var), _ident("s_", strip.inner_var)
        window, binding, resident = (
            _ident(prefix, spec.operand) for prefix in ("w_", "m_", "r_")
        )
        self.emit(
            depth,
            f"for {outer} in range(({total} + {size} - 1) // {size}):",
            f"    count = min({size}, {total} - {outer} * {size})",
            "    rows = []",
            f"    for {inner} in range(count):",
            f"        row = {self.index(spec.strip_row)}",
            f"        if {resident}[row % {size}] != row:",
            f"            rows.append(({window}, {binding}, row, row % {size}))",
            f"            {resident}[row % {size}] = row",
            "    if rows:",
            "        yield from kc.load_row_set(rows)",
            f"    for {inner} in range(count):",
        )
        self.block(depth + 2, strip.body)

    def store(self, depth: int) -> None:
        row = self.index(self.plan.dest_row)
        self.emit(depth, f"yield from kc.store_rows(acc_win, dest, {row}, 1)")

    def vector(self, depth: int, stmt: VectorStmt) -> None:
        """One vector statement; ``vop``'s arguments are positional:
        (opcode, vd, vs1, vs2, vl, scalar, offset, stride, vd_offset)."""
        emit = self.emit
        if isinstance(stmt, VInit):
            coeff = self.bind(depth, self.scalar(depth, stmt.coeff))
            clear = "yield from kc.vop(VCLEAR, acc, 0, 0, vl)"
            if stmt.src is None:
                return emit(depth, clear)
            # launch-time constant folding: a zero coefficient clears the
            # accumulator and skips the source row DMA entirely
            emit(depth, f"if {coeff} == 0:", f"    {clear}", "else:")
            register, offset = self.ref(depth + 1, stmt.src)
            emit(
                depth + 1, f"if {coeff} == 1:",
                f"    yield from kc.vop(VMV, acc, {register}, 0, vl, 0, {offset})",
                "else:",
                f"    yield from kc.vop(VMUL_VS, acc, {register}, 0, vl, {coeff}, {offset})",
            )
        elif isinstance(stmt, VEwise):
            (reg_a, offset), (reg_b, _) = self.ref(depth, stmt.a), self.ref(depth, stmt.b)
            opcode = "VADD_VV" if stmt.op == "add" else "VMUL_VV"
            emit(depth, f"yield from kc.vop({opcode}, acc, {reg_a}, {reg_b}, vl, 0, {offset})")
        elif isinstance(stmt, VMacc):
            coeff = self.bind(depth, self.scalar(depth, stmt.coeff))
            emit(depth, f"if {coeff} != 0:  # software skips null contributions")
            register, offset = self.ref(depth + 1, stmt.src)
            emit(depth + 1,
                 f"yield from kc.vop(VMACC_VS, acc, {register}, 0, vl, {coeff}, {offset})")
        elif isinstance(stmt, VReduce):
            (register, offset), col = self.ref(depth, stmt.src), self.index(stmt.col)
            emit(depth, f"yield from kc.vop(VREDSUM, tmp, {register}, 0, vl, 0, {offset})",
                 f"yield from kc.vop(VADD_VV, acc, acc, tmp, 1, 0, {col}, 1, {col})")
        else:  # VClearElem
            col = self.index(stmt.col)
            emit(depth, f"yield from kc.vop(VCLEAR, acc, 0, 0, 1, 0, 0, 1, {col})")

    def body(self, source_names: Sequence[str]) -> str:
        plan, program, emit = self.plan, self.plan.program, self.emit
        emit(0, "def body(kc, kernel, shard=None):")
        for name in sorted(program.dims | set(program.params)):
            emit(1, f"{_ident('s_', name)} = kernel.scalars[{name!r}]")
        sources = "".join(_ident("m_", name) + ", " for name in source_names)
        emit(
            1, f"{sources}= kernel.sources", "dest = kernel.dest",
            f"vl = {self.index(program.vector_extent)}",
            "if vl <= 0:", "    return",
            "if vl > kc.max_vl:",
            f"    raise ValueError({f'kernel {program.name!r}: '!r} + f\"output rows of "
            "{vl} elements exceed the {kc.max_vl}-element vector registers\")",
        )
        if plan.sharded_var is None:
            # unsharded kernel in multi-instance mode: one shard does the work
            emit(1, "if shard is not None and shard[0] != 0:", "    return")
        # register windows: strip, accumulator, scratch, then single rows
        fixed = [name for name, spec in plan.caches.items() if not spec.is_strip]
        for name in fixed:
            if not self.capacity[name].isdigit():
                capacity = self.index(plan.caches[name].capacity)
                emit(1, f"{self.capacity[name]} = max(1, {capacity})")
        if plan.strip is not None:
            operand = next(name for name in plan.caches if name not in fixed)
            size = self.capacity[operand]
            reserved = ["1"] * (1 + plan.needs_scratch) + [self.capacity[n] for n in fixed]
            emit(1, f"{size} = k_strip_size({self.index(plan.strip.total)}, "
                    f"kc.free_regs(), {' + '.join(reserved)})")
            if plan.strip.max_size is not None:
                # recipe-provided cap on the launch-time strip choice
                emit(1, f"{size} = min({size}, {plan.strip.max_size})")
            self.window(operand)
        emit(1, "acc_win = kc.claim(1)", "acc = acc_win[0]")
        if plan.needs_scratch:
            emit(1, "tmp = kc.claim(1)[0]")
        for name in fixed:
            self.window(name)
        self.block(1, program.body)
        if plan.store_loop is None:
            self.store(1)
        return "\n".join(self.lines) + "\n"

    def window(self, operand: str) -> None:
        window, capacity = _ident("w_", operand), self.capacity[operand]
        self.emit(1, f"{window} = kc.claim({capacity})")
        if capacity == "1":
            self.emit(1, f"{_ident('g_', operand)} = {window}[0]",
                      f"{_ident('r_', operand)} = None")
        else:
            self.emit(1, f"{_ident('r_', operand)} = [None] * {capacity}")


#: Names an emitted body reads besides its arguments.
_BODY_GLOBALS = {
    "k_strip_size": k_strip_size,
    "shard_rows": shard_rows,
    **{opcode.name: opcode for opcode in VectorOpcode},
}


def _lower_body(plan: _Plan, source_names: Sequence[str]):
    """Emit the body's source once and ``compile()`` it once."""
    source = _Emitter(plan).body(source_names)
    namespace = dict(_BODY_GLOBALS)
    exec(compile(source, f"<compiled kernel {plan.program.name}>", "exec"), namespace)
    return namespace["body"]


# ---------------------------------------------------------------------------
# the compiler entry point
# ---------------------------------------------------------------------------


def compile_kernel(
    schedule: Schedule,
    func5: int,
    description: str = "",
) -> KernelSpec:
    """Lower a scheduled kernel to a library-registrable :class:`KernelSpec`.

    Operand packing follows the Table I convention: the (up to two)
    scalar params ride in rs1, sources take (rs3.first, rs3.second,
    rs2.first) in declaration order and the destination register is
    rs2.second — so a compiled GeMM is invoked exactly like ``xmk0``.
    """
    program = schedule.program
    plan = _analyze(program)
    source_names = [op.name for op in program.sources]
    params = list(program.params)

    def preamble(request: OffloadRequest, matrix_map: MatrixMap) -> PreambleResult:
        (p0, p1), (s3, dreg), (s1, s2) = request.pairs()
        registers = [s1, s2, s3][: len(source_names)]
        raw_params = [p0, p1][: len(params)]
        env: Dict[str, int] = {
            name: signed16(value) for name, value in zip(params, raw_params)
        }
        etype = ElementType.from_suffix(request.size_suffix)
        sources = [matrix_map.resolve(register) for register in registers]
        dest = matrix_map.resolve(dreg)
        for name, binding in zip(source_names + [program.dest.name],
                                 sources + [dest]):
            if binding.etype is not etype:
                raise ValueError(
                    f"kernel {program.name!r}: operand {name!r} is bound as "
                    f".{binding.etype.suffix} but the instruction is "
                    f".{etype.suffix}"
                )
        actual = {
            name: (binding.rows, binding.cols)
            for name, binding in zip(source_names, sources)
        }
        actual[program.dest.name] = (dest.rows, dest.cols)
        bind_shapes(program, actual, env)
        return dest, sources, env

    body = _lower_body(plan, source_names)

    return KernelSpec(
        func5=func5,
        name=program.name,
        preamble=preamble,
        body=body,
        description=description or f"compiled kernel {program.name!r}",
    )
