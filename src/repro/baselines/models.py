"""Analytical baseline cycle models, fitted against the ISS.

A 256x256 int8 conv layer is 27M (3x3) to 107M (7x7) CV32E40X cycles.
``Cpu.run`` retires one instruction in about 0.2 us [host: 2-vCPU Xeon
VM, untraced, over the 32 calibration runs below; 0.37 us before it
executed straight-line blocks], so one such point would take 5 to 20
seconds instruction by instruction, and the benchmark grid needs
hundreds of points.  But the generated kernels have *exactly linear*
cycle counts in their loop-trip structure (every loop contributes a
per-iteration cost and a per-entry constant; ``li32`` keeps code size
shape-independent), so a linear model over structural features is exact
up to the data-dependent branches in the scalar pooling epilogue (a
< 0.5 % effect).

The model is fitted by least squares over a set of small ISS runs and
cached per (architecture, element size).  ``tests/test_baseline_models``
validates predictions against held-out ISS runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.pulp_kernels import padded_k, run_pulp_conv_layer, simd_width
from repro.baselines.scalar_kernels import ConvLayerShape, run_scalar_conv_layer

#: Calibration shapes: varied (H, W, K) to make the feature matrix well
#: conditioned.  The slowest (int32 18x18, 7x7 taps, scalar) takes about
#: 0.035 s on the ISS [host: 2-vCPU Xeon VM, best of 3; 0.07 s before
#: ``Cpu.run`` executed straight-line blocks].
_CALIBRATION_SHAPES = (
    ConvLayerShape(8, 8, 3),
    ConvLayerShape(10, 14, 3),
    ConvLayerShape(14, 10, 3),
    ConvLayerShape(12, 12, 5),
    ConvLayerShape(16, 12, 5),
    ConvLayerShape(14, 16, 7),
    ConvLayerShape(18, 18, 7),
    ConvLayerShape(20, 16, 3),
)


def _features(shape: ConvLayerShape, esize: int, arch: str) -> np.ndarray:
    """Structural loop-trip counts of the generated kernel."""
    s = shape
    conv_pixels = s.conv_rows * s.conv_cols
    c_iters = conv_pixels * s.channels
    dr_iters = c_iters * s.k
    out_rows, out_cols = s.out_shape
    if arch == "scalar":
        innermost = dr_iters * s.k  # dc loop iterations
    elif arch == "pulp":
        innermost = dr_iters * (padded_k(s.k, esize) // simd_width(esize))
    else:
        raise ValueError(f"unknown arch {arch!r}")
    return np.array(
        [
            innermost,
            dr_iters,
            c_iters,
            conv_pixels,
            s.conv_rows,
            out_rows * out_cols,
            out_rows,
            1.0,
        ],
        dtype=np.float64,
    )


@dataclass(frozen=True)
class FittedConvModel:
    """Least-squares coefficients over the structural features."""

    arch: str
    esize: int
    coefficients: np.ndarray
    residual_rel: float  # worst relative error over the calibration set

    def cycles(self, shape: ConvLayerShape) -> int:
        prediction = float(self._predict(shape))
        return max(1, int(round(prediction)))

    def _predict(self, shape: ConvLayerShape) -> float:
        return float(_features(shape, self.esize, self.arch) @ self.coefficients)


_RUNNERS = {"scalar": run_scalar_conv_layer, "pulp": run_pulp_conv_layer}
_MODEL_CACHE: Dict[Tuple[str, int], FittedConvModel] = {}
_DTYPES = {1: np.int8, 2: np.int16, 4: np.int32}


def _measure(arch: str, esize: int, shape: ConvLayerShape) -> int:
    rng = np.random.default_rng(1234 + esize)
    dtype = _DTYPES[esize]
    image = rng.integers(-8, 8, (shape.channels * shape.height, shape.width)).astype(dtype)
    filters = rng.integers(-2, 3, (shape.channels * shape.k, shape.k)).astype(dtype)
    _, cycles = _RUNNERS[arch](image, filters)
    return cycles


def fit_conv_model(arch: str, esize: int) -> FittedConvModel:
    """Fit (or fetch the cached) cycle model for one baseline/element size."""
    key = (arch, esize)
    if key in _MODEL_CACHE:
        return _MODEL_CACHE[key]
    rows: List[np.ndarray] = []
    targets: List[float] = []
    for shape in _CALIBRATION_SHAPES:
        rows.append(_features(shape, esize, arch))
        targets.append(float(_measure(arch, esize, shape)))
    matrix = np.vstack(rows)
    target_vec = np.array(targets)
    coefficients, *_ = np.linalg.lstsq(matrix, target_vec, rcond=None)
    predictions = matrix @ coefficients
    residual_rel = float(np.max(np.abs(predictions - target_vec) / target_vec))
    model = FittedConvModel(arch, esize, coefficients, residual_rel)
    _MODEL_CACHE[key] = model
    return model


def scalar_conv_layer_cycles(shape: ConvLayerShape, esize: int) -> int:
    """Predicted CV32E40X cycles for the conv layer workload."""
    return fit_conv_model("scalar", esize).cycles(shape)


def pulp_conv_layer_cycles(shape: ConvLayerShape, esize: int) -> int:
    """Predicted CV32E40PX (XCVPULP) cycles for the conv layer workload."""
    return fit_conv_model("pulp", esize).cycles(shape)
