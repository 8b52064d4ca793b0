"""The VPU execution model: functional semantics + lane-accurate timing.

Timing model (from the NM-Carus microarchitecture the paper builds on):

* a vector instruction streams its elements through ``lanes`` 32-bit
  lanes; contiguous (stride-1) accesses pack ``4 / element_bytes``
  elements per lane per cycle (sub-word SIMD), so the throughput is
  ``lanes * elems_per_word`` elements/cycle;
* strided/gather accesses defeat packing: one element per lane per cycle;
* every instruction pays a small fixed ``startup`` cost (decode + first
  operand fetch);
* reductions pay an extra ``log2(lanes)`` merge cost.

Functional semantics use wrap-around two's-complement arithmetic in the
element width, matching the RTL datapath; :func:`bind_vop` is their one
definition.

Kernels do not execute instructions one at a time: a kernel context
buffers what it issues between two synchronisation points and hands the
run to :func:`run_ops` (through :meth:`Vpu.run_segment`).  The runner
keeps the algorithm and changes only its execution granularity, as Exo
separates a schedule from its algorithm.  A maximal run of ``vmacc.vs``
sharing ``vd``, ``vl``, ``etype``, ``stride`` and ``vd_offset`` is one
blocked dot product, PULP-NN style: one gather of every term's source
elements through the VRF's flat view, one integer dot product with the
scalars, one add into the destination.  Every other instruction — and a
chain the collapse cannot take (one term, a term reading ``vd``, an
operand out of range) — runs through its :func:`bind_vop` closure, so
the arithmetic keeps a single definition and an out-of-range operand
raises exactly where per-op execution would.
"""

from __future__ import annotations

import functools
import math
from itertools import groupby
from operator import itemgetter
from typing import Callable, Optional, Sequence

import numpy as np

from repro.sim.stats import StatsRegistry
from repro.vpu.visa import VectorOp, VectorOpcode
from repro.vpu.vrf import VectorRegisterFile


class Vpu:
    """One near-memory vector processing unit."""

    STARTUP_CYCLES = 2

    def __init__(
        self,
        index: int,
        vrf: VectorRegisterFile,
        lanes: int,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        if lanes < 1:
            raise ValueError("a VPU needs at least one lane")
        self.index = index
        self.vrf = vrf
        self.lanes = lanes
        self.stats = stats or StatsRegistry()
        # Counter handles are resolved once here: segments run many times
        # per kernel and must not build f-string names or walk the
        # registry dict on every run.
        self._c_ops = self.stats.counter(f"vpu{index}.ops")
        self._c_cycles = self.stats.counter(f"vpu{index}.cycles")
        self._c_elems = self.stats.counter(f"vpu{index}.elems")
        self._reduction_cycles = max(
            1, int(math.log2(lanes)) if lanes > 1 else 1
        )

    # -- timing ----------------------------------------------------------

    def op_cycles(self, op: VectorOp) -> int:
        """Cycle cost of executing ``op`` on this VPU.

        The single source of the timing formula — every issued op is
        priced here (:meth:`~repro.vpu.dispatcher.Segment.add`), live or
        replayed, so the fast and slow paths cannot drift apart.  Traits
        come from the precomputed enum-member attributes (no per-op dict
        hashing).
        """
        opcode = op.opcode
        vl = op.vl
        if vl == 0:
            return self.STARTUP_CYCLES
        if opcode.strided and op.stride != 1:
            throughput = self.lanes
        else:
            throughput = self.lanes * op.etype.elems_per_word
        cycles = self.STARTUP_CYCLES + -(-vl // throughput)  # ceil division
        if opcode.traits.is_reduction:
            cycles += self._reduction_cycles
        return cycles

    # -- functional execution ------------------------------------------------

    def execute(self, op: VectorOp) -> int:
        """Execute ``op`` functionally; return its cycle cost."""
        cycles = self.op_cycles(op)
        self.run_segment((op,), cycles, op.vl)
        return cycles

    def run_segment(self, ops: Sequence[VectorOp], cycles: int, elems: int) -> None:
        """Execute ``ops`` in issue order, their summed ``op_cycles`` and
        ``vl`` being ``cycles`` and ``elems``."""
        # counters are monotonic by construction: bump directly
        self._c_ops.value += len(ops)
        self._c_cycles.value += cycles
        self._c_elems.value += elems
        run_ops(ops, self.vrf)


@functools.lru_cache(maxsize=1024)
def _ring_scalar(scalar: int, dtype: type):
    """``scalar`` wrapped into the element dtype.  Cached: kernels reuse a
    few filter taps and coefficients, and the cast costs more than the op."""
    return np.int64(scalar).astype(dtype)


def bind_vop(op: VectorOp, vrf: VectorRegisterFile) -> Optional[Callable[[], None]]:
    """Bind one vector instruction's functional effect to a closure.

    The single definition of the VPU arithmetic: :func:`run_ops` binds
    and calls every op outside a collapsed ``vmacc.vs`` chain, and a
    chain's gather-dot is the same ring arithmetic summed at once.
    Register views, slices, traits and scalar casts are resolved here;
    the closure does only the numpy work, and reads its sources when
    called.  Returns None for ``vl == 0`` (timing-only) instructions.

    Arithmetic runs in the element dtype.  Truncation mod ``2**w`` is a
    ring homomorphism, so add/mul/macc computed directly in the wrapping
    element dtype — with the scalar pre-wrapped — give the same values
    as computing in int64 and truncating, with one same-width ufunc
    instead of three widening casts.  ``VMAX_VS``/``VMIN_VS`` compare,
    so their scalar must fit the element type: binding raises
    ``OverflowError`` when it does not.
    """
    vl = op.vl
    if vl == 0:
        return None
    opcode = op.opcode
    etype = op.etype
    dtype = etype.np_dtype
    dst_view = vrf.view(op.vd, etype)
    dst = dst_view[op.vd_offset : op.vd_offset + vl]
    if len(dst) != vl:
        raise ValueError(
            f"vl={vl} at vd_offset={op.vd_offset} overflows register {op.vd}"
        )
    if opcode is VectorOpcode.VCLEAR:
        def clear() -> None:
            dst[:] = 0
        return clear

    view = vrf.view(op.vs1, etype)
    offset = op.offset
    stride = op.stride
    if stride == 1:
        src = view[offset : offset + vl]
        if len(src) != vl:
            raise ValueError(
                f"vl={vl} at offset={offset} overflows source register {op.vs1}"
            )
    else:
        last = offset + stride * (vl - 1)
        if last >= len(view):
            raise ValueError(
                f"strided access (off={offset}, stride={stride}, vl={vl}) "
                f"overflows source register {op.vs1}"
            )
        # a strided slice *view*: no per-op index array
        src = view[offset : last + 1 : stride]

    if opcode is VectorOpcode.VMACC_VS:
        wrapped = _ring_scalar(op.scalar, dtype)
        buffer = np.empty(vl, dtype)
        def macc() -> None:
            np.multiply(src, wrapped, out=buffer)
            np.add(dst, buffer, out=dst)
        return macc
    if opcode is VectorOpcode.VMV:
        if op.vs1 == op.vd:
            # an overlapping view of the destination: read it whole first
            def move_aliased() -> None:
                dst[:] = src.copy()
            return move_aliased
        def move() -> None:
            dst[:] = src
        return move
    if opcode is VectorOpcode.VADD_VV or opcode is VectorOpcode.VMUL_VV:
        other = vrf.view(op.vs2, etype)[:vl]
        ufunc = np.add if opcode is VectorOpcode.VADD_VV else np.multiply
        def ewise() -> None:
            ufunc(src, other, out=dst)
        return ewise
    if opcode is VectorOpcode.VMUL_VS or opcode is VectorOpcode.VADD_VS:
        wrapped = _ring_scalar(op.scalar, dtype)
        ufunc = np.multiply if opcode is VectorOpcode.VMUL_VS else np.add
        def ewise_vs() -> None:
            ufunc(src, wrapped, out=dst)
        return ewise_vs
    if opcode is VectorOpcode.VMAX_VV:
        def max_vv() -> None:
            np.maximum(dst, src, out=dst)
        return max_vv
    if opcode is VectorOpcode.VMAX_VS or opcode is VectorOpcode.VMIN_VS:
        bound = dtype(op.scalar)  # raises OverflowError outside the dtype
        ufunc = np.maximum if opcode is VectorOpcode.VMAX_VS else np.minimum
        def minmax_vs() -> None:
            ufunc(src, bound, out=dst)
        return minmax_vs
    if opcode is VectorOpcode.VSRA_VS:
        shift = int(op.scalar)
        def sra() -> None:
            np.right_shift(src, shift, out=dst)
        return sra
    if opcode is VectorOpcode.VREDSUM:
        vd_offset = op.vd_offset
        def redsum() -> None:
            dst_view[vd_offset] = src.astype(np.int64).sum().astype(dtype)
        return redsum
    raise NotImplementedError(opcode)  # pragma: no cover - enum is closed


#: what a ``vmacc.vs`` chain shares: opcode, etype, vd, vl, stride, vd_offset
_CHAIN_KEY = itemgetter(0, 1, 2, 5, 8, 9)
#: what its terms do not: vs1, scalar, offset
_VS1, _SCALAR, _OFFSET = itemgetter(3), itemgetter(6), itemgetter(7)


@functools.lru_cache(maxsize=256)
def _lane_steps(vl: int, stride: int) -> np.ndarray:
    """Element offsets ``i * stride`` of one gathered source, ``i < vl``."""
    return np.arange(0, vl * stride, stride, dtype=np.intp)


def run_ops(ops: Sequence[VectorOp], vrf: VectorRegisterFile) -> None:
    """Execute ``ops`` in issue order; each same-``vd`` ``vmacc.vs`` chain
    runs as one gather-dot (see the module docstring)."""
    for key, group in groupby(ops, _CHAIN_KEY):
        if key[0] is VectorOpcode.VMACC_VS:
            group = list(group)
            if len(group) > 1 and _macc_chain(group, key, vrf):
                continue
        for op in group:
            effect = bind_vop(op, vrf)
            if effect is not None:
                effect()


def _macc_chain(chain: list, key: tuple, vrf: VectorRegisterFile) -> bool:
    """``vd += sum_k scalar_k * vs1_k[offset_k + i*stride]`` in one dot.

    Returns False, touching nothing, when the chain must run op by op: a
    term reads ``vd`` (it would see the partial sums), or some operand or
    scalar is out of range (the per-op path then raises ``bind_vop``'s
    own error at the first bad term, after applying the terms before it
    — a fancy index past the register end would silently read the next
    register).

    Sums run in ``uint64``, whose overflow is defined modulo ``2**64``;
    truncating to the element width is a ring homomorphism, so the wrapped
    total equals per-op accumulation in the element dtype even where two
    int32 products already overflow int64.
    """
    _, etype, vd, vl, stride, vd_offset = key
    vs1s = list(map(_VS1, chain))
    offsets = list(map(_OFFSET, chain))
    n_regs = vrf.n_regs
    max_vl = vrf.max_vl(etype)
    if (
        vl == 0
        or vd in vs1s
        or not 0 <= vd < n_regs
        or vd_offset < 0
        or vd_offset + vl > max_vl
        or min(vs1s) < 0
        or max(vs1s) >= n_regs
        or min(offsets) < 0
        or max(offsets) + stride * (vl - 1) >= max_vl
    ):
        return False
    dtype = etype.np_dtype
    scalars = list(map(_SCALAR, chain))
    try:
        # wrapped into the element dtype first, as _ring_scalar wraps them
        coefficients = np.array(scalars, dtype=np.int64).astype(dtype).astype(np.uint64)
    except OverflowError:  # a scalar past int64: let _ring_scalar raise it
        return False
    flat = vrf.flat(etype)
    starts = np.array(vs1s, dtype=np.intp) * max_vl + np.array(offsets, dtype=np.intp)
    terms = flat[starts[:, None] + _lane_steps(vl, stride)].astype(np.uint64)
    base = vd * max_vl + vd_offset
    dst = flat[base : base + vl]
    np.add(dst, (coefficients @ terms).astype(dtype), out=dst)
    return True
