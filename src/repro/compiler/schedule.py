"""Composable scheduling transforms over the kernel IR — schedules as data.

A :class:`Schedule` wraps a deep copy of a :class:`~repro.compiler.ir.
KernelProgram` and rewrites its loop nest, Exo-style::

    sched = (Schedule(program)
             .shard("i")        # partition output rows across VPUs
             .strip_mine("k")   # tile the reduction against VRF capacity
             .vectorize("j"))   # innermost loop -> vector instructions

Each transform is *checked*: an illegal application (vectorizing a
non-innermost loop, strip-mining a parallel loop, unrolling a symbolic
extent, ...) raises :class:`ScheduleError` at schedule-construction time,
not at kernel runtime.  All transforms only re-associate wrap-around
additions or change data residency, so they never change results.

Beyond the chained-call style, a schedule is also first-class *data*: a
:class:`Recipe` is an ordered list of transform steps like
``("shard", "i")`` / ``("strip_mine", "k", 4)`` / ``("vectorize", "j")``
that round-trips through JSON, applies to any compatible program via
:meth:`Schedule.apply`, and can be *enumerated*:
:meth:`Schedule.legal_moves` lists every step that would apply cleanly
to the current program (optionally constrained by an
:class:`~repro.core.config.ArcaneConfig`'s lanes / vector-register
limits), which is the search space the autotuner in
:mod:`repro.compiler.tune` walks.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.compiler.ir import (
    Access,
    Accum,
    Assign,
    BinOp,
    CompilerError,
    Const,
    accesses,
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
    key,
    subst,
    syms,
    walk,
)


class ScheduleError(CompilerError):
    """An illegal scheduling transform."""


# ---------------------------------------------------------------------------
# recipes: schedules as serializable data
# ---------------------------------------------------------------------------

#: Transform ops a recipe step may name.
TRANSFORM_OPS = ("shard", "strip_mine", "unroll", "vectorize")

#: A normalized recipe step: ``(op, var)`` or ``(op, var, arg)``.
Step = Tuple


def _normalize_step(step) -> Step:
    """Coerce one step to canonical tuple form, validating its grammar."""
    if isinstance(step, str):
        raise ScheduleError(
            f"recipe step {step!r} is not an (op, var[, arg]) sequence"
        )
    try:
        fields = tuple(step)
    except TypeError:
        raise ScheduleError(
            f"recipe step {step!r} is not an (op, var[, arg]) sequence"
        ) from None
    if not 2 <= len(fields) <= 3:
        raise ScheduleError(
            f"recipe step {step!r} needs 2 or 3 fields: (op, var[, arg])"
        )
    op, var = fields[0], fields[1]
    if op not in TRANSFORM_OPS:
        raise ScheduleError(
            f"unknown recipe op {op!r}; expected one of {TRANSFORM_OPS}"
        )
    if not isinstance(var, str) or not var:
        raise ScheduleError(f"recipe step {step!r} needs a loop-variable name")
    if len(fields) == 2 or fields[2] is None:
        return (op, var)
    arg = fields[2]
    if op not in ("strip_mine", "unroll"):
        raise ScheduleError(
            f"recipe op {op!r} takes no argument, got step {step!r}"
        )
    if isinstance(arg, bool) or not isinstance(arg, int) or arg < 1:
        raise ScheduleError(
            f"recipe step {step!r}: the argument must be a positive integer"
        )
    return (op, var, arg)


class Recipe:
    """An ordered, serializable chain of scheduling transform steps.

    Steps are ``(op, var)`` or ``(op, var, arg)`` tuples where ``op`` is
    one of :data:`TRANSFORM_OPS`; the optional integer argument is the
    unroll factor (``unroll``; omitted = full) or the launch-time strip
    size cap (``strip_mine``).  Recipes are immutable value objects:
    they hash and compare by their normalized steps, so they key caches,
    and they round-trip losslessly through JSON
    (:meth:`to_json` / :meth:`from_json`).
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable = ()) -> None:
        object.__setattr__(
            self, "steps", tuple(_normalize_step(step) for step in steps)
        )

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Recipe is immutable")

    @classmethod
    def coerce(cls, spec: Union["Recipe", Iterable, str, None]) -> "Recipe":
        """None | steps | JSON string | Recipe -> Recipe."""
        if spec is None:
            return cls()
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            return cls.from_json(spec)
        return cls(spec)

    def then(self, op: str, var: str, arg: Optional[int] = None) -> "Recipe":
        """A new recipe with one more step appended."""
        step = (op, var) if arg is None else (op, var, arg)
        return Recipe(self.steps + (step,))

    # -- serialization -------------------------------------------------------

    def as_steps(self) -> List[List]:
        """JSON-clean nested-list form (for embedding in larger records)."""
        return [list(step) for step in self.steps]

    def to_json(self) -> str:
        return json.dumps(self.as_steps())

    @classmethod
    def from_json(cls, text: str) -> "Recipe":
        try:
            steps = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScheduleError(f"recipe JSON does not parse: {exc}") from None
        if not isinstance(steps, list):
            raise ScheduleError(
                f"recipe JSON must be a list of steps, got {type(steps).__name__}"
            )
        return cls(steps)

    # -- value-object protocol -----------------------------------------------

    def describe(self) -> str:
        """Human-readable one-liner: ``shard(i) . strip_mine(k, 4) . ...``"""
        if not self.steps:
            return "(unscheduled)"
        return " . ".join(
            f"{step[0]}({', '.join(str(f) for f in step[1:])})"
            for step in self.steps
        )

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __bool__(self) -> bool:
        return bool(self.steps)

    def __eq__(self, other) -> bool:
        return isinstance(other, Recipe) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return f"Recipe({list(self.steps)!r})"


# ---------------------------------------------------------------------------
# statement cloning / substitution
# ---------------------------------------------------------------------------


def _subst_row(ref: Optional[RowRef], mapping: Dict[str, Expr]) -> Optional[RowRef]:
    if ref is None:
        return None
    return RowRef(ref.operand, subst(ref.row, mapping), subst(ref.offset, mapping))


def subst_stmt(stmt: Stmt, mapping: Dict[str, Expr]) -> Stmt:
    """Structurally copy a statement, substituting symbols in every
    expression position (used by clone, unroll and strip-mine)."""
    if isinstance(stmt, Loop):
        new = Loop(
            stmt.var,
            subst(stmt.extent, mapping),
            [subst_stmt(s, mapping) for s in stmt.body],
            parallel=stmt.parallel,
        )
        new.sharded = stmt.sharded
        return new
    if isinstance(stmt, StripLoop):
        return StripLoop(
            stmt.outer_var,
            stmt.inner_var,
            stmt.size_sym,
            subst(stmt.total, mapping),
            [subst_stmt(s, mapping) for s in stmt.body],
            stmt.max_size,
        )
    if isinstance(stmt, Assign):
        return Assign(subst(stmt.dest, mapping), subst(stmt.value, mapping))
    if isinstance(stmt, Accum):
        return Accum(subst(stmt.dest, mapping), subst(stmt.value, mapping))
    if isinstance(stmt, VInit):
        return VInit(
            subst(stmt.dest_row, mapping),
            subst(stmt.coeff, mapping),
            _subst_row(stmt.src, mapping),
        )
    if isinstance(stmt, VEwise):
        return VEwise(
            subst(stmt.dest_row, mapping), stmt.op,
            _subst_row(stmt.a, mapping), _subst_row(stmt.b, mapping),
        )
    if isinstance(stmt, VMacc):
        return VMacc(
            subst(stmt.dest_row, mapping),
            subst(stmt.coeff, mapping),
            _subst_row(stmt.src, mapping),
        )
    if isinstance(stmt, VReduce):
        return VReduce(
            subst(stmt.dest_row, mapping), subst(stmt.col, mapping),
            _subst_row(stmt.src, mapping),
        )
    if isinstance(stmt, VClearElem):
        return VClearElem(subst(stmt.dest_row, mapping), subst(stmt.col, mapping))
    raise ScheduleError(f"cannot clone unknown statement {stmt!r}")


def clone_block(stmts: Sequence[Stmt]) -> List[Stmt]:
    return [subst_stmt(s, {}) for s in stmts]


# ---------------------------------------------------------------------------
# the schedule
# ---------------------------------------------------------------------------


class Schedule:
    """A kernel program plus an applied chain of loop transforms.

    Every transform records the step it applied, so ``schedule.recipe``
    is always the :class:`Recipe` that reproduces this schedule from the
    original program — the chained-call style and the data style are the
    same thing.
    """

    def __init__(self, program: KernelProgram) -> None:
        self.program = KernelProgram(
            name=program.name,
            operands=program.operands,
            body=clone_block(program.body),
            params=list(program.params),
            vector_var=program.vector_var,
            vector_extent=program.vector_extent,
        )
        self.applied: List[Step] = []

    @property
    def recipe(self) -> Recipe:
        """The recipe of every transform applied to this schedule so far."""
        return Recipe(self.applied)

    # -- helpers -------------------------------------------------------------

    def _used_names(self) -> set:
        """Every symbol the runtime env can hold: dims, params, operand
        names, loop variables and strip symbols.  Generated names must
        avoid all of them or a transform would silently shadow a value."""
        program = self.program
        used = set(program.params) | program.dims
        used |= {op.name for op in program.operands}
        for stmt in walk(program.body):
            if isinstance(stmt, Loop):
                used.add(stmt.var)
            elif isinstance(stmt, StripLoop):
                used |= {stmt.outer_var, stmt.inner_var, stmt.size_sym}
        return used

    @staticmethod
    def _fresh(base: str, used: set) -> str:
        name, counter = base, 0
        while name in used:
            counter += 1
            name = f"{base}{counter}"
        used.add(name)
        return name

    def _available_vars(self) -> str:
        names = self.program.loop_vars()
        if not names:
            return "(the program has no loops)"
        return "available loop variables: " + ", ".join(repr(n) for n in names)

    def _the_loop(self, var: str) -> Loop:
        loops = self.program.find_loops(var)
        if not loops:
            raise ScheduleError(
                f"kernel {self.program.name!r} has no loop over {var!r}; "
                + self._available_vars()
            )
        if len(loops) > 1:
            raise ScheduleError(
                f"loop variable {var!r} labels {len(loops)} loops; this "
                "transform needs a unique target"
            )
        return loops[0]

    def _replace_in_block(
        self, block: List[Stmt], target: Stmt, replacement: List[Stmt]
    ) -> bool:
        for index, stmt in enumerate(block):
            if stmt is target:
                block[index : index + 1] = replacement
                return True
            if isinstance(stmt, (Loop, StripLoop)):
                if self._replace_in_block(stmt.body, target, replacement):
                    return True
        return False

    # -- transforms ----------------------------------------------------------

    def shard(self, var: str) -> "Schedule":
        """Mark the loop over ``var`` for multi-VPU row sharding.

        The loop must be parallel (independent output rows) and at the
        top level of the kernel: shards partition its range with the same
        :func:`~repro.runtime.kernels.common.shard_rows` policy the
        handwritten kernels use.
        """
        loop = self._the_loop(var)
        if not loop.parallel:
            raise ScheduleError(
                f"cannot shard reduction loop {var!r}: iterations are not "
                "independent output rows"
            )
        if not any(s is loop for s in self.program.body):
            raise ScheduleError(
                f"cannot shard {var!r}: only an outermost loop partitions "
                "cleanly across VPUs"
            )
        if any(isinstance(s, Loop) and s.sharded for s in walk(self.program.body)):
            raise ScheduleError("kernel already has a sharded loop")
        loop.sharded = True
        self.applied.append(("shard", var))
        return self

    def strip_mine(self, var: str, size: Optional[int] = None) -> "Schedule":
        """Tile the reduction loop over ``var`` against VRF capacity.

        The loop becomes a strips/rows pair whose strip size is picked at
        kernel launch from the free-register budget (shared ``k_strip_size``
        policy), so source rows indexed by ``var`` are DMA-loaded strip by
        strip instead of element by element.  ``size`` optionally *caps*
        that launch-time choice — smaller strips shorten each cache-lock
        window at the cost of more DMA batches, which is the knob the
        autotuner sweeps.
        """
        loop = self._the_loop(var)
        if loop.parallel:
            raise ScheduleError(
                f"cannot strip-mine parallel loop {var!r}: strip-mining "
                "tiles a reduction against register capacity"
            )
        if any(isinstance(s, StripLoop) for s in walk(self.program.body)):
            raise ScheduleError("kernel already has a strip-mined loop")
        if size is not None and (not isinstance(size, int) or size < 1):
            raise ScheduleError(
                f"strip size cap must be a positive integer, got {size!r}"
            )
        used = self._used_names()
        outer = self._fresh(f"{var}_o", used)
        inner = self._fresh(f"{var}_i", used)
        size_sym = self._fresh(f"_strip_{var}", used)
        mapping = {var: BinOp("+", BinOp("*", Sym(outer), Sym(size_sym)), Sym(inner))}
        strip = StripLoop(
            outer, inner, size_sym, loop.extent,
            [subst_stmt(s, mapping) for s in loop.body],
            size,
        )
        self._replace_in_block(self.program.body, loop, [strip])
        self.applied.append(
            ("strip_mine", var) if size is None else ("strip_mine", var, size)
        )
        return self

    def unroll(self, var: str, factor: Optional[int] = None) -> "Schedule":
        """Unroll a constant-extent loop (fully, or by ``factor``)."""
        loop = self._the_loop(var)
        if not isinstance(loop.extent, Const):
            raise ScheduleError(
                f"cannot unroll loop {var!r}: extent {loop.extent!r} is not "
                "a compile-time constant"
            )
        extent = loop.extent.value
        factor = extent if factor is None else factor
        if factor <= 0 or extent % factor:
            raise ScheduleError(
                f"unroll factor {factor} does not divide extent {extent}"
            )
        if loop.sharded and factor == extent:
            raise ScheduleError(
                f"cannot fully unroll sharded loop {var!r}: the shard "
                "partition needs a surviving loop"
            )
        if factor == extent:
            replacement = [
                subst_stmt(s, {var: Const(u)})
                for u in range(extent)
                for s in loop.body
            ]
        else:
            outer = self._fresh(f"{var}_u", self._used_names())
            unrolled = Loop(
                outer, Const(extent // factor),
                [
                    subst_stmt(
                        s,
                        {var: BinOp("+", BinOp("*", Sym(outer), Const(factor)),
                                    Const(u))},
                    )
                    for u in range(factor)
                    for s in loop.body
                ],
                parallel=loop.parallel,
            )
            unrolled.sharded = loop.sharded  # shard now partitions blocks
            replacement = [unrolled]
        self._replace_in_block(self.program.body, loop, replacement)
        self.applied.append(
            ("unroll", var) if factor == extent else ("unroll", var, factor)
        )
        return self

    def vectorize(self, var: str) -> "Schedule":
        """Map every innermost loop over ``var`` onto vector instructions.

        Legality: the loops must be innermost; ``var`` may only appear in
        *column* positions, as ``var`` or ``var + offset`` with a
        ``var``-free offset; the destination column must be exactly
        ``var``; and every loop over ``var`` must share one extent (the
        runtime vector length).
        """
        program = self.program
        if program.vector_var is not None:
            raise ScheduleError(f"kernel is already vectorized over {program.vector_var!r}")
        loops = program.find_loops(var)
        if not loops:
            raise ScheduleError(
                f"kernel {program.name!r} has no loop over {var!r}; "
                + self._available_vars()
            )
        extents = {key(loop.extent) for loop in loops}
        if len(extents) > 1:
            raise ScheduleError(
                f"loops over {var!r} have differing extents {sorted(extents)}; "
                "one vector length is required"
            )
        for loop in loops:
            for inner in walk(loop.body):
                if isinstance(inner, (Loop, StripLoop)):
                    raise ScheduleError(
                        f"cannot vectorize {var!r}: loop contains a nested "
                        f"loop (vectorize applies to innermost loops only)"
                    )
            replacement = [
                self._vectorize_stmt(stmt, var) for stmt in loop.body
            ]
            self._replace_in_block(program.body, loop, replacement)
        # var must be fully consumed
        for stmt in walk(program.body):
            if isinstance(stmt, (Assign, Accum)):
                if var in syms(stmt.value) | syms(stmt.dest):
                    raise ScheduleError(
                        f"{var!r} appears outside its loops in {stmt!r}"
                    )
        program.vector_var = var
        program.vector_extent = loops[0].extent
        self.applied.append(("vectorize", var))
        return self

    # -- schedules as data ----------------------------------------------------

    def apply(self, recipe: Union[Recipe, Iterable, str, None]) -> "Schedule":
        """Apply every step of ``recipe`` (steps, JSON or Recipe) in order."""
        for step in Recipe.coerce(recipe):
            op, var = step[0], step[1]
            arg = step[2] if len(step) > 2 else None
            if op == "shard":
                self.shard(var)
            elif op == "strip_mine":
                self.strip_mine(var, arg)
            elif op == "unroll":
                self.unroll(var, arg)
            else:  # vectorize (Recipe normalized the op already)
                self.vectorize(var)
        return self

    def legal_moves(
        self,
        config=None,
        etype_bytes: int = 2,
        max_unroll: int = 8,
    ) -> List[Step]:
        """Every single transform step that applies cleanly right now.

        Each returned step is guaranteed to succeed as the next
        ``apply`` on this schedule (soundness comes from trial
        application against a throwaway copy, so the legality rules
        can never drift from the transforms themselves).  With an
        :class:`~repro.core.config.ArcaneConfig` the enumeration is
        additionally constrained by the machine:

        * ``vectorize`` candidates whose constant extent exceeds the
          vector length (``line_bytes // etype_bytes`` elements) are
          dropped;
        * ``strip_mine`` gains capped variants — power-of-two strip
          size caps below the per-VPU register-file capacity — which
          is the resident-strip-vs-lock-window tuning axis.

        ``strip_mine`` is only offered for loops that index exactly one
        operand's *rows* — the strip window policy keeps a single
        resident-strip operand, so any other strip choice is rejected at
        lowering anyway (mirroring that check here keeps search budgets
        spent on candidates that can actually compile).

        ``unroll`` variants enumerate the divisors of constant loop
        extents up to ``max_unroll`` (full unroll only for small
        extents, keeping generated bodies bounded).
        """
        program = self.program
        already_sharded = any(
            isinstance(s, Loop) and s.sharded for s in walk(program.body)
        )
        has_strip = any(isinstance(s, StripLoop) for s in walk(program.body))
        max_vl: Optional[int] = None
        strip_caps: List[Optional[int]] = [None]
        if config is not None:
            max_vl = max(1, config.line_bytes // max(1, etype_bytes))
            cap = 2
            while cap < config.vregs_per_vpu and len(strip_caps) < 4:
                strip_caps.append(cap)
                cap *= 2

        # operands whose row index references each loop var (the strip
        # window policy supports exactly one resident-strip operand)
        row_indexers: Dict[str, set] = {}
        for stmt in walk(program.body):
            if not isinstance(stmt, (Assign, Accum)):
                continue
            for access in [stmt.dest] + accesses(stmt.value):
                for name in syms(access.row):
                    row_indexers.setdefault(name, set()).add(access.operand)

        candidates: List[Step] = []
        seen: set = set()
        for stmt in walk(program.body):
            if not isinstance(stmt, Loop) or stmt.var in seen:
                continue
            seen.add(stmt.var)
            var = stmt.var
            unique = len(program.find_loops(var)) == 1
            if unique and stmt.parallel and not already_sharded:
                candidates.append(("shard", var))
            strippable = len(row_indexers.get(var, ())) == 1
            if unique and not stmt.parallel and not has_strip and strippable:
                for cap in strip_caps:
                    candidates.append(
                        ("strip_mine", var) if cap is None
                        else ("strip_mine", var, cap)
                    )
            if unique and isinstance(stmt.extent, Const):
                extent = stmt.extent.value
                factors = [
                    f for f in range(2, min(extent, max_unroll + 1))
                    if extent % f == 0
                ]
                if 1 < extent <= max_unroll:
                    candidates.append(("unroll", var))
                candidates.extend(("unroll", var, f) for f in factors)
            if program.vector_var is None:
                if max_vl is not None and isinstance(stmt.extent, Const) and (
                    stmt.extent.value > max_vl
                ):
                    continue  # rows would not fit one vector register
                candidates.append(("vectorize", var))

        moves: List[Step] = []
        for step in candidates:
            trial = Schedule(program)
            try:
                trial.apply((step,))
            except CompilerError:
                continue
            moves.append(step)
        return moves

    # -- the vectorizer ------------------------------------------------------

    def _row_ref(self, access: Access, var: str) -> RowRef:
        if var in syms(access.row):
            raise ScheduleError(
                f"cannot vectorize over {var!r}: it indexes the *rows* of "
                f"{access.operand!r} in {access!r} (rows are the DMA axis)"
            )
        col = access.col
        if key(col) == var:
            offset: Expr = Const(0)
        elif (
            isinstance(col, BinOp) and col.op == "+"
            and (key(col.lhs) == var) != (key(col.rhs) == var)
        ):
            offset = col.rhs if key(col.lhs) == var else col.lhs
            if var in syms(offset):
                raise ScheduleError(f"column index {col!r} is not affine in {var!r}")
        else:
            raise ScheduleError(
                f"column index {col!r} of {access!r} must be {var!r} or "
                f"{var!r} + offset"
            )
        return RowRef(access.operand, access.row, offset)

    def _split_product(self, value: Expr, var: str):
        """Flatten a product into (var-free coefficient, var-carrying factors)."""
        factors: List[Expr] = []

        def flatten(expr: Expr) -> None:
            if isinstance(expr, BinOp) and expr.op == "*":
                flatten(expr.lhs)
                flatten(expr.rhs)
            else:
                factors.append(expr)

        flatten(value)
        carrying = [f for f in factors if var in syms(f)]
        coeff_factors = [f for f in factors if var not in syms(f)]
        coeff: Expr = Const(1)
        for factor in coeff_factors:
            coeff = factor if key(coeff) == "1" else BinOp("*", coeff, factor)
        return coeff, carrying

    def _vectorize_stmt(self, stmt: Stmt, var: str) -> VectorStmt:
        if not isinstance(stmt, (Assign, Accum)):
            raise ScheduleError(f"cannot vectorize statement {stmt!r}")
        dest = stmt.dest
        if var in syms(dest.row):
            raise ScheduleError(
                f"{var!r} indexes destination rows in {dest!r}; vectorize a "
                "column loop instead"
            )
        dest_row = dest.row
        value = stmt.value

        if var not in syms(dest.col):
            # scalar destination: only the reduction pattern reads var
            if isinstance(stmt, Accum) and isinstance(value, Access) and var in syms(
                value
            ):
                return VReduce(dest_row, dest.col, self._row_ref(value, var))
            if isinstance(stmt, Assign) and isinstance(value, Const) and value.value == 0:
                return VClearElem(dest_row, dest.col)
            raise ScheduleError(
                f"unsupported scalar-destination statement under {var!r}: {stmt!r}"
            )

        if key(dest.col) != var:
            raise ScheduleError(
                f"destination column {dest.col!r} must be exactly {var!r}"
            )

        if isinstance(stmt, Accum):
            coeff, carrying = self._split_product(value, var)
            if len(carrying) == 1 and isinstance(carrying[0], Access):
                return VMacc(dest_row, coeff, self._row_ref(carrying[0], var))
            raise ScheduleError(
                f"accumulation {value!r} does not match the supported "
                f"coefficient * row form (vmacc.vs)"
            )

        # Assign forms
        if var not in syms(value):
            if isinstance(value, Const) and value.value == 0:
                return VInit(dest_row, Const(0), None)
            raise ScheduleError(
                f"cannot splat {value!r} across a row (only 0 has a vector "
                "instruction)"
            )
        if isinstance(value, BinOp) and value.op == "+":
            lhs, rhs = value.lhs, value.rhs
            if (
                isinstance(lhs, Access) and isinstance(rhs, Access)
                and var in syms(lhs) and var in syms(rhs)
            ):
                return VEwise(
                    dest_row, "add", self._row_ref(lhs, var), self._row_ref(rhs, var)
                )
        coeff, carrying = self._split_product(value, var)
        if len(carrying) == 1 and isinstance(carrying[0], Access):
            return VInit(dest_row, coeff, self._row_ref(carrying[0], var))
        if (
            len(carrying) == 2
            and all(isinstance(f, Access) for f in carrying)
            and key(coeff) == "1"
        ):
            return VEwise(
                dest_row, "mul",
                self._row_ref(carrying[0], var), self._row_ref(carrying[1], var),
            )
        raise ScheduleError(
            f"assignment {value!r} does not match a supported vector pattern "
            "(row, coeff * row, row + row, row * row, or 0)"
        )
