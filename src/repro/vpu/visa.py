"""The NM-Carus-style custom vector ISA executed inside the cache.

Matrix kernels (paper section IV) are micro-programs built from these
vector-like instructions; the eCPU dispatches them to a VPU which decodes
and executes them in hardware.  The subset here is what the five Table I
kernels need:

=============  =============================================================
``vclear``     vd[0:vl] = 0
``vmv``        vd[0:vl] = vs[off + i*stride]           (gather/slide move)
``vadd.vv``    vd[0:vl] = vs1[...] + vs2[...]
``vmacc.vs``   vd[0:vl] += vs[off + i*stride] * scalar (the conv workhorse)
``vmul.vv``    vd[0:vl] = vs1[...] * vs2[...]
``vmul.vs``    vd[0:vl] = vs[...] * scalar
``vadd.vs``    vd[0:vl] = vs[...] + scalar
``vmax.vv``    vd[0:vl] = max(vd[...], vs[off + i*stride])
``vmax.vs``    vd[0:vl] = max(vs[...], scalar)
``vmin.vs``    vd[0:vl] = min(vs[...], scalar)
``vsra.vs``    vd[0:vl] = vs[...] >> scalar            (arithmetic)
``vredsum``    vd[0]    = sum(vs[0:vl])                (reduction)
=============  =============================================================

All operands use wrap-around two's-complement arithmetic in the element
width, like the hardware datapath.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ElementType(enum.Enum):
    """Vector element width: the .b/.h/.w suffix of xmnmc and the vector ISA."""

    B = ("b", 1, np.int8)
    H = ("h", 2, np.int16)
    W = ("w", 4, np.int32)

    def __init__(self, suffix: str, nbytes: int, np_dtype: type) -> None:
        self.suffix = suffix
        self.nbytes = nbytes
        self.np_dtype = np_dtype
        #: sub-word SIMD elements packed per 32-bit lane (precomputed:
        #: the VPU timing model reads this per dispatched instruction)
        self.elems_per_word = 4 // nbytes

    @classmethod
    def from_suffix(cls, suffix: str) -> "ElementType":
        for member in cls:
            if member.suffix == suffix:
                return member
        raise ValueError(f"unknown element suffix {suffix!r}")

    @classmethod
    def from_bytes(cls, nbytes: int) -> "ElementType":
        for member in cls:
            if member.nbytes == nbytes:
                return member
        raise ValueError(f"no element type of {nbytes} bytes")



class VectorOpcode(enum.Enum):
    VCLEAR = "vclear"
    VMV = "vmv"
    VADD_VV = "vadd.vv"
    VMUL_VV = "vmul.vv"
    VMACC_VS = "vmacc.vs"
    VMUL_VS = "vmul.vs"
    VADD_VS = "vadd.vs"
    VMAX_VV = "vmax.vv"
    VMAX_VS = "vmax.vs"
    VMIN_VS = "vmin.vs"
    VSRA_VS = "vsra.vs"
    VREDSUM = "vredsum"


#: Opcodes whose source uses the (offset, stride) gather addressing.
STRIDED_SOURCES = frozenset(
    {
        VectorOpcode.VMV,
        VectorOpcode.VMACC_VS,
        VectorOpcode.VMAX_VV,
        VectorOpcode.VADD_VV,
        VectorOpcode.VMUL_VV,
    }
)


@dataclass(frozen=True)
class OpTraits:
    """Static operand metadata for one vector opcode.

    ``n_vs_registers`` is the number of ``vs`` register operands the
    opcode reads (the VPU fetches ``vs2`` only for the two-source
    forms).  ``is_reduction`` marks opcodes that collapse the ``vl``
    elements into ``vd[vd_offset]``: they pay the lane-merge cost in
    the timing model, and the kernel compiler reserves a scratch
    register for their collapsed value when planning register windows
    against the capacity-aware strip-mining budget (see
    ``repro.compiler.lower``).
    """

    n_vs_registers: int  # vs operands read (vmax.vv reads vd + vs1: one vs)
    is_reduction: bool  # collapses vl elements into vd[vd_offset]


OP_TRAITS = {
    VectorOpcode.VCLEAR: OpTraits(0, False),
    VectorOpcode.VMV: OpTraits(1, False),
    VectorOpcode.VADD_VV: OpTraits(2, False),
    VectorOpcode.VMUL_VV: OpTraits(2, False),
    VectorOpcode.VMACC_VS: OpTraits(1, False),
    VectorOpcode.VMUL_VS: OpTraits(1, False),
    VectorOpcode.VADD_VS: OpTraits(1, False),
    VectorOpcode.VMAX_VV: OpTraits(1, False),
    VectorOpcode.VMAX_VS: OpTraits(1, False),
    VectorOpcode.VMIN_VS: OpTraits(1, False),
    VectorOpcode.VSRA_VS: OpTraits(1, False),
    VectorOpcode.VREDSUM: OpTraits(1, True),
}

# The VPU execute loop runs per vector instruction; looking traits up by
# enum key pays a (pure-Python) Enum.__hash__ per access, so the static
# metadata is also mirrored onto the enum members as plain attributes.
for _opcode, _traits in OP_TRAITS.items():
    _opcode.traits = _traits
    _opcode.strided = _opcode in STRIDED_SOURCES
del _opcode, _traits


class _VectorOpFields(NamedTuple):
    opcode: VectorOpcode
    etype: ElementType
    vd: int
    vs1: int = 0
    vs2: int = 0
    vl: int = 0
    scalar: int = 0
    offset: int = 0
    stride: int = 1
    vd_offset: int = 0


class VectorOp(_VectorOpFields):
    """One vector instruction as dispatched by the eCPU to a VPU.

    An immutable tuple, cheap to build: kernels build one per issued
    instruction.  Construction validates ``vl`` and ``stride``.

    Attributes:
        opcode: operation selector.
        etype: element width.
        vd: destination vector register index.
        vs1: first source register (ignored by vclear).
        vs2: second source register (``.vv`` forms only).
        vl: vector length in elements.
        scalar: the ``.vs`` scalar operand.
        offset: starting element offset applied to vs1.
        stride: element stride applied to vs1 (1 = contiguous); strided
            access defeats sub-word packing, which the timing model
            reflects.
        vd_offset: starting element offset applied to vd.
    """

    __slots__ = ()

    def __new__(
        cls, opcode: VectorOpcode, etype: ElementType, vd: int, vs1: int = 0,
        vs2: int = 0, vl: int = 0, scalar: int = 0, offset: int = 0,
        stride: int = 1, vd_offset: int = 0,
    ) -> "VectorOp":
        if vl < 0:
            raise ValueError("vector length must be non-negative")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        return tuple.__new__(
            cls, (opcode, etype, vd, vs1, vs2, vl, scalar, offset, stride, vd_offset)
        )
