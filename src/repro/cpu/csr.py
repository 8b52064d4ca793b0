"""Minimal machine-mode CSR file (Zicsr subset used by the eCPU firmware).

The C-RT on the eCPU is interrupt-driven (paper section III-B): the bridge
raises an interrupt, the eCPU decodes the offloaded instruction in the
handler.  The CSR subset here is what that flow needs — trap vector,
status/enable bits, cause, plus the cycle/instret counters.
"""

from __future__ import annotations

from typing import Dict

from repro.utils.fixedint import wrap32

MSTATUS = 0x300
MISA = 0x301
MIE = 0x304
MTVEC = 0x305
MSCRATCH = 0x340
MEPC = 0x341
MCAUSE = 0x342
MTVAL = 0x343
MIP = 0x344
MCYCLE = 0xB00
MINSTRET = 0xB02
MCYCLEH = 0xB80
MINSTRETH = 0xB82

MSTATUS_MIE_BIT = 3
MIP_MEIP_BIT = 11  # machine external interrupt (the bridge line)

_KNOWN = {
    MSTATUS, MISA, MIE, MTVEC, MSCRATCH, MEPC, MCAUSE, MTVAL, MIP,
    MCYCLE, MINSTRET, MCYCLEH, MINSTRETH,
}


class CsrFile:
    """Flat CSR storage with the read/write/set/clear access primitives."""

    def __init__(self) -> None:
        self._csrs: Dict[int, int] = {address: 0 for address in _KNOWN}
        self._csrs[MISA] = (1 << 30) | (1 << 8) | (1 << 12) | (1 << 2)  # RV32IMC

    def read(self, address: int) -> int:
        return self._csrs.get(address, 0)

    def write(self, address: int, value: int) -> None:
        self._csrs[address] = wrap32(value)

    def set_bits(self, address: int, bits: int) -> int:
        old = self.read(address)
        self.write(address, old | bits)
        return old

    def clear_bits(self, address: int, bits: int) -> int:
        old = self.read(address)
        self.write(address, old & ~bits)
        return old

    # -- interrupt helpers ---------------------------------------------

    @property
    def interrupts_enabled(self) -> bool:
        return bool(self.read(MSTATUS) >> MSTATUS_MIE_BIT & 1)

    def raise_external_interrupt(self) -> None:
        self.set_bits(MIP, 1 << MIP_MEIP_BIT)

    def clear_external_interrupt(self) -> None:
        self.clear_bits(MIP, 1 << MIP_MEIP_BIT)
