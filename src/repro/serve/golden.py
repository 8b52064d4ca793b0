"""Numpy oracles for serving requests (result verification).

Maps library slots (func5) to the hardware-exact golden models in
:mod:`repro.baselines.reference`, and evaluates whole requests by
interpreting their node chain over numpy arrays.  The
engine's ``verify=True`` path and the serving tests both check every
served output against these.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.baselines.reference import (
    ref_conv2d,
    ref_conv_layer,
    ref_gemm,
    ref_leaky_relu,
    ref_maxpool,
)
from repro.compiler import (
    FUNC5_CGEMM,
    FUNC5_DWCONV2D,
    FUNC5_EWISE_ADD,
    FUNC5_EWISE_MUL,
    FUNC5_FC,
    FUNC5_ROWSUM,
)
from repro.serve.request import InferenceRequest


def _wrap(dtype, exact: np.ndarray) -> np.ndarray:
    return exact.astype(np.int64).astype(dtype)


def _g_gemm(inputs: Sequence[np.ndarray], params: Sequence[int]) -> np.ndarray:
    a, b, c = inputs
    alpha = params[0] if len(params) > 0 else 1
    beta = params[1] if len(params) > 1 else 0
    return ref_gemm(a, b, c, alpha, beta)


def _g_leaky_relu(inputs, params):
    (x,) = inputs
    return ref_leaky_relu(x, params[0] if params else 3)


def _g_maxpool(inputs, params):
    (x,) = inputs
    stride = params[0] if len(params) > 0 else 2
    window = params[1] if len(params) > 1 else 2
    return ref_maxpool(x, window, stride)


def _g_conv2d(inputs, params):
    x, f = inputs
    return ref_conv2d(x, f)


def _g_conv_layer(inputs, params):
    x, f = inputs
    return ref_conv_layer(x, f)


def _g_dwconv2d(inputs, params):
    x, f = inputs
    k = f.shape[1]
    channels = f.shape[0] // k
    height = x.shape[0] // channels
    return np.vstack([
        ref_conv2d(x[ch * height : (ch + 1) * height], f[ch * k : (ch + 1) * k])
        for ch in range(channels)
    ])


def _g_fc(inputs, params):
    x, w, bias = inputs
    exact = x.astype(np.int64) @ w.astype(np.int64) + bias.astype(np.int64)
    return _wrap(x.dtype, exact)


def _g_ewise_add(inputs, params):
    x, y = inputs
    return _wrap(x.dtype, x.astype(np.int64) + y.astype(np.int64))


def _g_ewise_mul(inputs, params):
    x, y = inputs
    return _wrap(x.dtype, x.astype(np.int64) * y.astype(np.int64))


def _g_rowsum(inputs, params):
    (x,) = inputs
    return _wrap(x.dtype, x.astype(np.int64).sum(axis=1).reshape(-1, 1))


#: func5 -> golden(inputs, params); covers Table I plus the compiled library.
KERNEL_GOLDEN = {
    0: _g_gemm,
    1: _g_leaky_relu,
    2: _g_maxpool,
    3: _g_conv2d,
    4: _g_conv_layer,
    FUNC5_CGEMM: _g_gemm,
    FUNC5_DWCONV2D: _g_dwconv2d,
    FUNC5_FC: _g_fc,
    FUNC5_EWISE_ADD: _g_ewise_add,
    FUNC5_EWISE_MUL: _g_ewise_mul,
    FUNC5_ROWSUM: _g_rowsum,
}


def kernel_golden(func5: int, inputs: Sequence[np.ndarray], params: Sequence[int]):
    fn = KERNEL_GOLDEN.get(func5)
    if fn is None:
        raise KeyError(f"no golden model registered for kernel slot {func5}")
    return fn(list(inputs), list(params))


def expected_output(request: InferenceRequest) -> np.ndarray:
    """Evaluate one request's node chain on the numpy oracles."""
    payload = request.payload
    env: Dict[str, np.ndarray] = dict(payload["inputs"])
    for node in payload["nodes"]:
        env[node.name] = kernel_golden(
            node.func5, [env[name] for name in node.inputs], node.params
        )
    return env[payload["output"]]
