"""ARCANE system configuration (paper section V-A).

The synthesized configurations share: 4 VPUs x 32 KiB (128 KiB data LLC),
1 KiB vector length == cache line size, a CV32E40X eCPU with 16 KiB eMEM,
128 KiB instruction memory, 250 MHz target clock — and differ in the
number of 32-bit lanes per VPU (2 / 4 / 8).

All timing-model constants live here so that every calibrated number is
visible (and sweepable) in one place; their provenance is documented in
:mod:`repro.eval.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ArcaneConfig:
    """Full parameterisation of one ARCANE instance."""

    # -- structural (paper V-A) ---------------------------------------------
    n_vpus: int = 4
    lanes: int = 4
    line_bytes: int = 1024  # vector length == cache line size (1 KiB)
    vpu_kib: int = 32  # per-VPU share of the data LLC
    emem_kib: int = 16
    imem_kib: int = 128
    clock_mhz: float = 250.0

    # -- C-RT sizing (paper IV-B: static allocation) ---------------------------
    n_matrix_registers: int = 8
    kernel_queue_capacity: int = 8
    address_table_entries: int = 16

    # -- memory system timing ------------------------------------------------
    bus_width_bytes: int = 4
    bus_request_latency: int = 1
    offchip_latency: int = 80  # external flash/PSRAM access penalty per burst

    # -- eCPU/VPU interaction timing ---------------------------------------------
    issue_cycles: int = 24  # eCPU software loop per dispatched vector instr
    lock_overhead_cycles: int = 8  # lock register write + handshake

    # -- behaviour switches (ablations) --------------------------------------------
    multi_vpu: bool = False  # shard kernels across all VPUs (section V-C)
    vpu_policy: str = "fewest_dirty"  # or "round_robin" / "first_free"
    main_memory_kib: int = 8192
    #: kernel replay cache (bit-exact fast path for repeated launches);
    #: the one switch for it, reaching the LLC and every serving worker
    fastpath: bool = True

    def __post_init__(self) -> None:
        if self.n_vpus < 1:
            raise ValueError("need at least one VPU")
        if self.lanes < 1:
            raise ValueError("need at least one lane")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        if self.vpu_kib * 1024 % self.line_bytes:
            raise ValueError("VPU capacity must be a whole number of lines")

    @property
    def vregs_per_vpu(self) -> int:
        return self.vpu_kib * 1024 // self.line_bytes

    @property
    def llc_kib(self) -> int:
        return self.n_vpus * self.vpu_kib

    def with_lanes(self, lanes: int) -> "ArcaneConfig":
        return replace(self, lanes=lanes)

    def with_multi_vpu(self, multi_vpu: bool = True) -> "ArcaneConfig":
        return replace(self, multi_vpu=multi_vpu)

    def with_fastpath(self, fastpath: bool = True) -> "ArcaneConfig":
        return replace(self, fastpath=fastpath)

    def describe(self) -> str:
        return (
            f"ARCANE {self.n_vpus} VPUs x {self.lanes} lanes, "
            f"{self.llc_kib} KiB LLC ({self.line_bytes} B lines), "
            f"{self.emem_kib} KiB eMEM @ {self.clock_mhz:.0f} MHz"
        )


#: The three synthesized configurations of paper Table II.
PRESET_2_LANES = ArcaneConfig(lanes=2)
PRESET_4_LANES = ArcaneConfig(lanes=4)
PRESET_8_LANES = ArcaneConfig(lanes=8)
