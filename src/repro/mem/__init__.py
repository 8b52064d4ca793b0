"""Memory subsystem: main memory, OBI-like bus latency model, 2D DMA.

The ARCANE LLC (paper Fig. 1) sits between the host system bus and the
external memories.  Every kernel operand row — the Matrix Allocator's
loads and write-backs, and their replayed form — is priced and moved by
the :class:`~repro.mem.dma.Dma2D` engine; cache line refills and
write-backs stay in the LLC controller.
"""

from repro.mem.memory import MainMemory, MainMemoryError
from repro.mem.bus import BusModel
from repro.mem.dma import Dma2D

__all__ = [
    "MainMemory",
    "MainMemoryError",
    "BusModel",
    "Dma2D",
]
