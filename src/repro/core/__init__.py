"""ARCANE top level: configuration, system assembly and the public API.

Typical use (the Python analogue of the paper's Listing 1)::

    import numpy as np
    from repro import ArcaneConfig, ArcaneSystem

    system = ArcaneSystem(ArcaneConfig(lanes=4))
    x = system.place_matrix(np.random.randint(-8, 8, (3 * 32, 32), np.int8))
    f = system.place_matrix(np.random.randint(-2, 2, (3 * 3, 3), np.int8))
    out = system.alloc_matrix((14, 15), np.int8)

    with system.program() as prog:
        prog.xmr(0, x)
        prog.xmr(1, f)
        prog.xmr(2, out)
        prog.conv_layer(dest=2, src=0, flt=1)

    result = system.read_matrix(out)        # pooled conv+ReLU output
    report = system.last_report             # cycles + phase breakdown
"""

from repro.core.config import ArcaneConfig, PRESET_2_LANES, PRESET_4_LANES, PRESET_8_LANES
from repro.core.llc import ArcaneLlc
from repro.core.system import ArcaneSystem, HeapExhaustedError, HostProgram, RunReport
from repro.core.api import Matrix

__all__ = [
    "ArcaneConfig",
    "PRESET_2_LANES",
    "PRESET_4_LANES",
    "PRESET_8_LANES",
    "ArcaneLlc",
    "ArcaneSystem",
    "HeapExhaustedError",
    "HostProgram",
    "RunReport",
    "Matrix",
]
