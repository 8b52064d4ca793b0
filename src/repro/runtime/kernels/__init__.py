"""The five complex matrix kernels of paper Table I.

==========  ======  ==============================================
Mnemonic    func5   Operation
==========  ======  ==============================================
``xmk0``    0       GeMM:      D = alpha * (A @ B) + beta * C
``xmk1``    1       LeakyReLU: D = max(X, 0) + (min(X, 0) >> alpha)
``xmk2``    2       MaxPool:   2D max pooling, window/stride params
``xmk3``    3       2D Conv:   valid convolution, single channel
``xmk4``    4       3-channel 2D Conv Layer: conv + ReLU + 2x2 pool
==========  ======  ==============================================

Slots 1..4 are handwritten modules, each exporting a
:class:`~repro.runtime.kernel_lib.KernelSpec`.  GeMM has no handwritten
body: slot 0 is the compiled GeMM algorithm under its default recipe
(:func:`repro.compiler.library.make_gemm_spec`), the source ``cgemm``
also serves.  :func:`install_all` registers all five in their paper slots.
"""

from dataclasses import replace

from repro.runtime.kernel_lib import KernelLibrary
from repro.runtime.kernels.leaky_relu import LEAKY_RELU_SPEC
from repro.runtime.kernels.maxpool import MAXPOOL_SPEC
from repro.runtime.kernels.conv2d import CONV2D_SPEC
from repro.runtime.kernels.conv_layer import CONV_LAYER_SPEC

HANDWRITTEN_SPECS = (LEAKY_RELU_SPEC, MAXPOOL_SPEC, CONV2D_SPEC, CONV_LAYER_SPEC)


def install_all(library: KernelLibrary) -> None:
    """Register the default Table I kernels (slots 0..4)."""
    # imported on use: the compiler builds on this package's helpers
    from repro.compiler.library import make_gemm_spec

    library.register(replace(make_gemm_spec(func5=0), name="gemm"))
    for spec in HANDWRITTEN_SPECS:
        library.register(spec)


__all__ = [
    "HANDWRITTEN_SPECS",
    "install_all",
    "LEAKY_RELU_SPEC",
    "MAXPOOL_SPEC",
    "CONV2D_SPEC",
    "CONV_LAYER_SPEC",
]
