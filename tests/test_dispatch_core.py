"""Dispatch-core tests (``pytest -m dispatch``).

An offline batch must be the online loop with every arrival at cycle 0,
failures on the pool must be recovered and reported the same way in
both modes, and a run with the shared fleet replay cache must produce
exactly the cold-cache outputs while giving workers replay hits on
kernels they never launched first.
"""

import gc
import json
import pathlib
import re
import weakref

import numpy as np
import pytest

from repro.core.config import ArcaneConfig
from repro.obs import chrome_trace, validate_trace
from repro.serve import (
    AdmissionPolicy,
    DispatchCore,
    FleetReplayCache,
    RetryPolicy,
    SerialPool,
    ServingEngine,
    SystemWorker,
    estimate_service_cycles,
    gemm_request,
    kernel_request,
)

pytestmark = pytest.mark.dispatch

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)


def gemm_batch(rng, count, shape=(6, 8, 5)):
    m, k, n = shape
    return [
        gemm_request(
            rid,
            rng.integers(-5, 5, (m, k)).astype(np.int16),
            rng.integers(-5, 5, (k, n)).astype(np.int16),
        )
        for rid in range(count)
    ]


def repeated_gemm_batch(count, shape=(6, 8, 5)):
    """Identical payloads under distinct ids: every request replays one kernel."""
    rng = np.random.default_rng(11)
    m, k, n = shape
    a = rng.integers(-5, 5, (m, k)).astype(np.int16)
    b = rng.integers(-5, 5, (k, n)).astype(np.int16)
    return [gemm_request(rid, a, b) for rid in range(count)]


def strip_wall(payload):
    for volatile in ("wall_seconds", "requests_per_second"):
        payload.pop(volatile, None)
    return payload


class TestPoolFailures:
    def test_online_with_worker_crash(self, rng):
        """A crashed worker is rebuilt once, and its request fails over."""
        report = ServingEngine(pool_size=2, config=CFG).serve_online(
            gemm_batch(rng, 6),
            traffic="poisson:20",
            seed=3,
            faults="crash_worker:0@1",
            fault_seed=0,
        )
        assert all(r.status == "ok" for r in report.results)
        assert report.per_worker[0]["rebuilds"] == 1
        assert report.per_worker[1]["rebuilds"] == 0
        assert report.availability["failed_attempts_by_class"] == {"crash_worker": 1}

    def test_offline_rejected_slots_without_faults(self, rng):
        """A fault-free offline batch whose attempts fail anyway (offloads
        to an unregistered slot, which the decoder kills) reports each
        failure once, by class, and keeps serving the rest."""
        requests = []
        for i in range(6):
            a = rng.integers(-5, 5, (6, 8)).astype(np.int16)
            b = rng.integers(-5, 5, (8, 5)).astype(np.int16)
            requests.append(gemm_request(2 * i, a, b))
            requests.append(kernel_request(
                2 * i + 1, 30, [np.zeros((4, 4), dtype=np.int16)], (4, 4)
            ))
        report = ServingEngine(pool_size=2, config=CFG).serve(requests)
        assert report.availability["failed_attempts_by_class"] == {"rejected": 6}
        assert [r.status for r in report.results] == ["ok", "failed"] * 6
        fails = [e for e in report.events() if e["kind"] == "fail"]
        assert [e["request"] for e in fails] == [2 * i + 1 for i in range(6)]


class TestOfflineIsArrivalsAtZero:
    """An offline batch is the online loop with every arrival at cycle 0:
    the same decisions, timelines, event log, spans and trace export."""

    def test_serve_equals_serve_online_at_cycle_zero(self, rng):
        batch = gemm_batch(rng, 10)
        kwargs = dict(faults="kill:0.2,transient:0.2", fault_seed=4, observe=True)
        offline = ServingEngine(pool_size=2, config=CFG, integrity="abft").serve(
            batch, **kwargs
        )
        online = ServingEngine(
            pool_size=2, config=CFG, integrity="abft"
        ).serve_online(batch, **kwargs)
        assert any(r.attempts > 1 for r in offline.results)
        for a, b in zip(offline.results, online.results):
            assert (a.status, a.worker, a.attempts, a.sim_cycles) \
                == (b.status, b.worker, b.attempts, b.sim_cycles)
            assert (a.arrival_cycle, a.start_cycle, a.completion_cycle) \
                == (b.arrival_cycle, b.start_cycle, b.completion_cycle)
            assert a.arrival_cycle == 0
            if a.output is None:
                assert b.output is None
            else:
                assert np.array_equal(a.output, b.output)
        assert offline.dispatch_events == online.dispatch_events
        assert [s.as_dict() for s in offline.spans.spans] \
            == [s.as_dict() for s in online.spans.spans]
        assert offline.spans.instants == online.spans.instants
        trace = chrome_trace(offline)
        assert trace == chrome_trace(online)
        assert validate_trace(trace) == []
        a_dict = strip_wall(offline.as_dict())
        b_dict = strip_wall(online.as_dict())
        assert (a_dict.pop("mode"), b_dict.pop("mode")) == ("offline", "online")
        assert b_dict.pop("traffic") == "replay" and "traffic" not in a_dict
        assert a_dict == b_dict


class TestBackendIndices:
    """The core addresses workers 0..n-1 by position."""

    @pytest.mark.parametrize("indices", [[5], [1, 3]])
    def test_backend_without_positional_indices_rejected(self, indices):
        pool = SerialPool([SystemWorker(index, CFG) for index in indices])
        with pytest.raises(ValueError, match=re.escape(f"worker indices {indices}")):
            DispatchCore(pool)

    def test_positional_indices_accepted(self, rng):
        pool = SerialPool([SystemWorker(index, CFG) for index in (1, 0)])
        results = DispatchCore(pool).run(gemm_batch(rng, 2))
        assert [r.worker for r in results] == [0, 1]


class TestFleetReplayCache:
    def test_serial_fleet_hits_are_bit_exact(self):
        """On bare pools (no engine, so no result memo) every repeat
        launches, and the shared fleet store serves the replays."""
        requests = repeated_gemm_batch(4)
        fleet = FleetReplayCache()
        cold_workers = [SystemWorker(i, CFG) for i in range(2)]
        shared_workers = [SystemWorker(i, CFG, fleet=fleet) for i in range(2)]
        cold_core = DispatchCore(SerialPool(cold_workers))
        shared_core = DispatchCore(SerialPool(shared_workers))
        cold = cold_core.run(requests)
        shared = shared_core.run(requests)
        for a, b in zip(cold, shared):
            assert np.array_equal(a.output, b.output)
            assert a.sim_cycles == b.sim_cycles
            assert (a.worker, a.start_cycle, a.completion_cycle) \
                == (b.worker, b.start_cycle, b.completion_cycle)
        assert cold_core.makespan_cycles == shared_core.makespan_cycles
        # worker 1 never launched the kernel first, yet replays it from
        # the fleet store seeded by worker 0
        caches = [w.system.llc.runtime.replay_cache for w in shared_workers]
        assert all(cache.fleet is fleet for cache in caches)
        assert caches[1].stats["fleet_hits"] >= 1
        assert all(
            w.system.llc.runtime.replay_cache.fleet is None for w in cold_workers
        )

    def test_evicted_recordings_are_released(self):
        """Past its capacity the fleet keeps no reference to what it
        evicted (recordings are slotted, so weak-referenceable stand-ins
        take their place)."""

        class StandIn:
            pass

        fleet = FleetReplayCache(capacity=2)
        published = [StandIn() for _ in range(5)]
        refs = [weakref.ref(item) for item in published]
        for index, item in enumerate(published):
            fleet.publish(("key", index), item)
        del published, item
        gc.collect()
        assert len(fleet) == 2
        assert [ref() is None for ref in refs] == [True, True, True, False, False]


class TestAdmissionPolicies:
    def serve_order(self, requests, admission):
        engine = ServingEngine(pool_size=1, config=CFG, admission=admission)
        report = engine.serve_online(requests)
        started = sorted(report.results, key=lambda r: r.start_cycle)
        return [r.request_id for r in started]

    def test_priority_orders_simultaneous_arrivals(self, rng):
        requests = gemm_batch(rng, 3)
        for request, priority in zip(requests, (2, 0, 1)):
            request.priority = priority
        assert self.serve_order(requests, "priority") == [1, 2, 0]

    def test_edf_orders_by_deadline(self, rng):
        requests = gemm_batch(rng, 3)
        for request, deadline in zip(requests, (30_000_000, 10_000_000, 20_000_000)):
            request.deadline_cycle = deadline
        assert self.serve_order(requests, "edf") == [1, 2, 0]

    def test_sjf_orders_by_estimated_cost(self, rng):
        small = gemm_batch(rng, 1, shape=(4, 4, 4))[0]
        big = gemm_batch(rng, 1, shape=(12, 12, 12))[0]
        big.request_id, small.request_id = 0, 1
        assert self.serve_order([big, small], "sjf") == [1, 0]
        assert estimate_service_cycles(big) > estimate_service_cycles(small)

    def test_fifo_is_the_default(self, rng):
        """FIFO is the empty rank: the heap orders by (ready, seq) alone."""
        engine = ServingEngine(pool_size=1, config=CFG)
        assert engine.admission == AdmissionPolicy.coerce("fifo")
        assert engine.admission.rank(gemm_batch(rng, 1)[0]) == ()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            ServingEngine(pool_size=1, config=CFG, admission="lifo")

    def test_admission_recorded_in_report(self, rng):
        engine = ServingEngine(pool_size=1, config=CFG, admission="edf")
        report = engine.serve_online(gemm_batch(rng, 2))
        assert report.admission == "edf"
        assert report.as_dict()["admission"] == "edf"


class TestProcessesArgument:
    """The pool runs in one process; ``processes`` accepts only 1."""

    @pytest.mark.parametrize("processes", [0, 2])
    def test_processes_other_than_one_rejected(self, processes):
        with pytest.raises(ValueError, match="processes must be 1"):
            ServingEngine(pool_size=2, config=CFG, processes=processes)

    def test_processes_one_serves(self, rng):
        report = ServingEngine(pool_size=2, config=CFG, processes=1).serve(
            gemm_batch(rng, 2), verify=True,
        )
        assert report.verified
        # one pool layout: the record carries no process-count fields
        payload = report.as_dict()
        assert "processes" not in payload
        assert "requested_processes" not in payload


SHEDDING_REFERENCE = pathlib.Path(__file__).parent / "data" / "shedding_reference.json"

#: bounded-queue runs (every admission policy binds a request to a worker
#: only when the worker takes it, so the queue holds the requests still
#: waiting under each): (traffic, queue capacity, fault spec, admission)
SHEDDING_RUNS = {
    "burst4_cap2_kill_transient": (
        "bursty:4:12000", 2, "kill:0.15,transient:0.15", "fifo",
    ),
    "burst4_cap4_transient": ("bursty:4:12000", 4, "transient:0.3", "fifo"),
    "burst6_cap1": ("bursty:6:20000", 1, None, "fifo"),
    "burst6_cap1_edf": ("bursty:6:20000", 1, None, "edf"),
    "poisson120_cap2_kill_transient": (
        "poisson:120", 2, "kill:0.15,transient:0.15", "fifo",
    ),
}


def mixed_gemm_batch():
    """48 gemm requests over five row counts."""
    rng = np.random.default_rng(21)
    return [
        gemm_request(
            rid,
            rng.integers(-5, 5, (4 + rid % 5, 6)).astype(np.int16),
            rng.integers(-5, 5, (6, 5)).astype(np.int16),
        )
        for rid in range(48)
    ]


def shedding_run(name: str) -> dict:
    """Bursty arrivals into a small bounded queue, with retries that
    re-enter it later: which requests are shed, and the event log."""
    traffic, capacity, faults, admission = SHEDDING_RUNS[name]
    report = ServingEngine(pool_size=2, config=CFG, admission=admission).serve_online(
        mixed_gemm_batch(), traffic=traffic, seed=3, faults=faults, fault_seed=9,
        queue_capacity=capacity,
    )
    return {
        "statuses": [result.status for result in report.results],
        "fault_classes": [result.fault_class for result in report.results],
        "events": [
            [event.cycle, event.kind, event.request_id, event.worker]
            for event in report.dispatch_events
        ],
    }


class TestBoundedQueue:
    """Queue-depth admission keeps its decisions and event order."""

    @pytest.mark.parametrize("name", sorted(SHEDDING_RUNS))
    def test_shedding_matches_reference(self, name):
        expected = json.loads(SHEDDING_REFERENCE.read_text())[name]
        observed = shedding_run(name)
        assert "shed" in observed["statuses"]
        assert observed == expected

    @pytest.mark.parametrize("admission", ["fifo", "priority", "edf", "sjf"])
    def test_capacity_bounds_every_policy(self, admission):
        """16 requests at cycle 0 on two workers with room for two more:
        every policy starts two, queues two and sheds the other twelve."""
        engine = ServingEngine(pool_size=2, config=CFG, admission=admission)
        report = engine.serve_online(
            repeated_gemm_batch(16), traffic="bursty:16:0", queue_capacity=2,
        )
        statuses = [result.status for result in report.results]
        assert statuses.count("shed") == 12
        assert statuses.count("ok") == 4


class TestLateBinding:
    """A request is bound to a worker only when the worker takes it."""

    def test_escalation_retry_keeps_its_worker_through_a_wait(self):
        """Level-1 corruption escalation re-runs on the worker that
        produced the corrupted result, even when that worker is busy as
        the retry re-enters: the retry waits for it (it is taken later
        than its backoff alone) instead of failing over."""
        engine = ServingEngine(
            pool_size=2, config=CFG, admission="edf", integrity="abft"
        )
        report = engine.serve_online(
            mixed_gemm_batch(), traffic="poisson:120", seed=3, faults="flip:0.3",
            fault_seed=9,
        )
        first_corrupted = {}
        waited = 0
        for event in report.dispatch_events:
            if event.kind not in ("dispatch", "fail"):
                continue
            rid = event.request_id
            if rid in first_corrupted and event.attempt == 2:
                cycle, worker = first_corrupted[rid]
                assert event.worker == worker and not event.failover
                waited += event.cycle > cycle + RetryPolicy().backoff(1)
            if event.attempt == 1 and event.fault_class == "corrupted":
                first_corrupted[rid] = (event.cycle, event.worker)
        assert first_corrupted and waited
