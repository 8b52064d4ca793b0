"""Replay must not run while a mid-kernel corruption hook is armed.

``dma_corrupt`` and ``vrf_flip`` count DMA rows and register-file writes
as the kernel body runs.  A replayed body applies its effects in one
step, so an armed hook would see a different event stream (or none).
``ReplayCache.can_replay`` therefore sends such launches down the slow
path, and a worker whose recording is warm must behave exactly like a
``fastpath=False`` worker: same outcome, output bytes, fired events and
cycles.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import ArcaneConfig
from repro.integrity import CorruptionDirective
from repro.serve import SilentCorruptionError, SystemWorker, gemm_request

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)

#: three warm-up runs: first sighting, recording, first replay hit
WARMUPS = 3


def _operands():
    rng = np.random.default_rng(11)
    a = rng.integers(-50, 50, (8, 8)).astype(np.int32)
    b = rng.integers(-50, 50, (8, 8)).astype(np.int32)
    return a, b


def _armed_run(fastpath: bool, kind: str, site: int):
    """Warm a worker on one gemm, then run it once more with a directive."""
    config = dataclasses.replace(CFG, fastpath=fastpath)
    worker = SystemWorker(0, config)
    a, b = _operands()
    for request_id in range(WARMUPS):
        worker.run(gemm_request(request_id, a, b))
    directive = CorruptionDirective(kind, site=site, value=5)
    try:
        result = worker.run(gemm_request(WARMUPS, a, b), directives=[directive])
    except SilentCorruptionError as error:
        return worker, ("error", type(error).__name__), None
    events = (result.integrity or {}).get("events", [])
    return worker, ("ok", result.output.tobytes(), result.sim_cycles), events


@pytest.mark.parametrize("site", range(0, 31, 3))
@pytest.mark.parametrize("kind", ["dma_corrupt", "vrf_flip"])
def test_armed_hook_matches_slow_path(kind, site):
    fast_worker, fast_outcome, fast_events = _armed_run(True, kind, site)
    _, slow_outcome, slow_events = _armed_run(False, kind, site)
    assert fast_outcome == slow_outcome
    assert fast_events == slow_events
    cache = fast_worker.system.llc.runtime.replay_cache
    assert cache.stats["bypassed"] == 1


def test_armed_dma_hook_fires_on_a_warm_key():
    _, outcome, events = _armed_run(True, "dma_corrupt", 0)
    assert outcome[0] == "ok"
    assert [event["kind"] for event in events] == ["dma_corrupt"]
