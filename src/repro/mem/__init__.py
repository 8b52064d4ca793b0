"""Memory subsystem: main memory, OBI-like bus latency model, 2D DMA.

The ARCANE LLC (paper Fig. 1) sits between the host system bus and the
external memories; cache refills, write-backs and matrix-operand
allocation all go through the :class:`~repro.mem.dma.Dma2D` engine
modelled here.
"""

from repro.mem.memory import MainMemory, MainMemoryError
from repro.mem.bus import BusModel
from repro.mem.dma import Dma2D, DmaRequest

__all__ = [
    "MainMemory",
    "MainMemoryError",
    "BusModel",
    "Dma2D",
    "DmaRequest",
]
