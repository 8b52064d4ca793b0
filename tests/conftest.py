"""Shared fixtures for the ARCANE reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.cache.address_table import AddressTable
from repro.cache.cache_table import CacheTable
from repro.cache.controller import LlcController
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem
from repro.mem.bus import BusModel
from repro.mem.memory import MainMemory
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import Tracer


#: ``--hypothesis-profile=deep``: the example budget of properties that
#: take theirs from the profile (the default profile gives them 100)
settings.register_profile("deep", max_examples=2000, deadline=None)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "dispatch: dispatch-core tests (offline is online at cycle 0, "
        "late binding, bounded admission, pool failures, shared fleet "
        "replay cache)",
    )


#: A small configuration that keeps unit-test simulations fast while
#: retaining every architectural feature (4 VPUs, small cache/memory).
SMALL_CONFIG = ArcaneConfig(
    n_vpus=4,
    lanes=4,
    line_bytes=256,
    vpu_kib=8,
    main_memory_kib=512,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def small_config() -> ArcaneConfig:
    return SMALL_CONFIG


@pytest.fixture
def system(small_config) -> ArcaneSystem:
    return ArcaneSystem(small_config)


@pytest.fixture
def traced_system(small_config) -> ArcaneSystem:
    return ArcaneSystem(small_config, trace=True)


class CacheHarness:
    """A bare cache controller + memory universe for cache unit tests."""

    def __init__(self, n_vpus=2, vregs=4, line_bytes=64, memory_bytes=64 * 1024):
        self.sim = Simulator()
        self.stats = StatsRegistry()
        self.tracer = Tracer(enabled=True)
        self.memory = MainMemory(memory_bytes)
        self.bus = BusModel(offchip_latency=10)
        self.ct = CacheTable(n_vpus, vregs, line_bytes)
        self.at = AddressTable(8, self.sim)
        self.controller = LlcController(
            self.sim, self.ct, self.at, self.memory, self.bus, self.stats, self.tracer
        )

    def read(self, address: int, size: int = 4) -> int:
        """Run a host read to completion and return its value."""
        return self.sim.run_process(
            self.controller.host_read(address, size), name="read"
        )

    def write(self, address: int, value: int, size: int = 4) -> None:
        self.sim.run_process(
            self.controller.host_write(address, value, size), name="write"
        )


@pytest.fixture
def cache() -> CacheHarness:
    return CacheHarness()
