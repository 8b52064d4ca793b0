"""Shared helpers for kernel preambles and micro-program bodies."""

from __future__ import annotations

from typing import Tuple

from repro.isa.xmnmc import OffloadRequest
from repro.runtime.matrix import MatrixBinding, MatrixMap
from repro.utils.bitops import sign_extend


def signed16(value: int) -> int:
    """Interpret a 16-bit operand field as signed (alpha/beta scalars)."""
    return sign_extend(value, 16)


def resolve(matrix_map: MatrixMap, register: int) -> MatrixBinding:
    """Resolve a logical matrix register field to its current binding."""
    return matrix_map.resolve(register)


def check_shape(binding: MatrixBinding, rows: int, cols: int, role: str) -> None:
    """Validate a destination/source shape against kernel expectations."""
    if binding.rows != rows or binding.cols != cols:
        raise ValueError(
            f"{role} matrix m{binding.register} is "
            f"{binding.rows}x{binding.cols}, kernel expects {rows}x{cols}"
        )


def conv_output_shape(in_rows: int, in_cols: int, k: int) -> Tuple[int, int]:
    """'Valid' convolution output shape."""
    if k > in_rows or k > in_cols:
        raise ValueError(f"filter {k}x{k} larger than input {in_rows}x{in_cols}")
    return in_rows - k + 1, in_cols - k + 1


def pool_output_shape(rows: int, cols: int, window: int, stride: int) -> Tuple[int, int]:
    """Max-pool output shape (floor semantics, no padding)."""
    if window > rows or window > cols:
        raise ValueError(f"pool window {window} larger than input {rows}x{cols}")
    return (rows - window) // stride + 1, (cols - window) // stride + 1


def k_strip_size(k_total: int, free_regs: int, reserved: int) -> int:
    """VRF-capacity strip-mining policy for reduction (K) dimensions.

    A kernel that keeps one operand resident as a window of K rows
    strip-mines K when the vector register file cannot hold it: the
    strip gets every free register except the ``reserved`` ones the
    kernel needs for its other operands (row buffers, accumulators).
    The kernel compiler sizes every strip window with it, Table I's
    GeMM (slot 0) included.
    """
    if reserved < 0:
        raise ValueError("reserved register count must be non-negative")
    return max(1, min(k_total, free_regs - reserved))


def shard_rows(total_rows: int, shard: Tuple[int, int]) -> Tuple[int, int]:
    """Contiguous row partition for multi-VPU sharding.

    Returns (first_row, n_rows) for shard ``(index, count)``.
    """
    index, count = shard
    base = total_rows // count
    extra = total_rows % count
    start = index * base + min(index, extra)
    n_rows = base + (1 if index < extra else 0)
    return start, n_rows
