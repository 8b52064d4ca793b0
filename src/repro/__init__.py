"""ARCANE reproduction: adaptive RISC-V cache with near-memory extensions.

Functional/cycle-level reproduction of "ARCANE: Adaptive RISC-V Cache
Architecture for Near-memory Extensions" (DAC 2025).  See README.md for
the system inventory; ``python3 perfbench/run.py --workload paper_cnn``
prints the paper-vs-measured record (the ``anchor.*`` lines and their
RMS log error ``anchor_err``).

Public entry points:

* :class:`repro.ArcaneSystem` / :class:`repro.ArcaneConfig` -- the smart
  LLC system model and its configuration (the primary contribution);
* :mod:`repro.baselines` -- CV32E40X scalar and CV32E40PX packed-SIMD
  baselines (ISS-backed) plus the conventional-cache system;
* :mod:`repro.compiler` -- the kernel compiler: author new complex
  instructions as loop nests over matrix elements, schedule them
  (shard / strip-mine / unroll / vectorize) and lower them to
  library-registrable kernels.  ``install_compiled`` adds six compiled
  workloads (GeMM, depthwise conv, fully-connected, element-wise
  add/mul, row-sum) above the five Table I slots — the
  paper's software-based ISA extensibility at compiler scale (see
  ``examples/compiled_kernel.py``);
* :mod:`repro.eval` -- area model, throughput comparisons and the data
  series behind every table/figure of the paper.
"""

from repro.core.api import Matrix
from repro.core.config import (
    ArcaneConfig,
    PRESET_2_LANES,
    PRESET_4_LANES,
    PRESET_8_LANES,
)
from repro.core.system import ArcaneSystem, HeapExhaustedError, HostProgram, RunReport

__version__ = "1.0.0"

__all__ = [
    "Matrix",
    "ArcaneConfig",
    "ArcaneSystem",
    "HeapExhaustedError",
    "HostProgram",
    "RunReport",
    "PRESET_2_LANES",
    "PRESET_4_LANES",
    "PRESET_8_LANES",
    "__version__",
]
