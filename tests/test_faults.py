"""Fault-tolerant serving tests: injection, retries, quarantine, deadlines."""

import json

import numpy as np
import pytest

from repro.core.config import ArcaneConfig
from repro.serve import (
    DispatchCore,
    FaultInjector,
    FaultPlan,
    GraphNode,
    RequestRejected,
    RetryPolicy,
    SerialPool,
    ServingEngine,
    SystemWorker,
    WorkerSupervisor,
    expected_output,
    fold_tallies,
    gemm_request,
    kernel_request,
    stamp_arrivals,
    stamp_deadlines,
)
from repro.integrity.inject import CORRUPTION_KINDS
from repro.serve.faults import HEALTHY, PROBATION, QUARANTINED
from repro.serve.traffic import TrafficSpec

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)


def gemm_batch(rng, count, shape=(4, 4)):
    return [
        gemm_request(
            rid,
            rng.integers(-5, 5, shape).astype(np.int16),
            rng.integers(-5, 5, (shape[1], shape[0])).astype(np.int16),
        )
        for rid in range(count)
    ]


def strip_wall(record):
    """A report dict minus the wall-clock fields (the only run-to-run noise)."""
    record = dict(record)
    record.pop("wall_seconds")
    record.pop("requests_per_second")
    return record


class TestFaultPlanGrammar:
    def test_parse_round_trips_every_kind(self):
        spec = "kill:0.05,transient:0.1,slow:0.02:4x,crash_worker:2@50"
        plan = FaultPlan.parse(spec)
        assert [c.kind for c in plan.clauses] == [
            "kill", "transient", "slow", "crash_worker"
        ]
        assert plan.describe() == spec
        assert FaultPlan.parse(plan.describe()) == plan

    def test_coerce_accepts_none_string_and_plan(self):
        assert FaultPlan.coerce(None) is None
        plan = FaultPlan.coerce("kill:0.5")
        assert isinstance(plan, FaultPlan)
        assert FaultPlan.coerce(plan) is plan

    @pytest.mark.parametrize("bad", [
        "meteor:0.1",            # unknown kind
        "kill:0",                # probability must be in (0, 1]
        "kill:1.5",
        "slow:0.1:1x",           # factor must be > 1
        "slow:0.1",              # missing factor
        "crash_worker:2",        # missing @<nth>
        "crash_worker:-1@3",     # worker must be >= 0
        "crash_worker:0@0",      # nth is 1-based
        "flip:0",                # corruption probabilities too
        "dma_corrupt:1.5",
        "stuck_line:1",          # missing @<nth>
        "stuck_line:-1@2",
        "stuck_line:0@0",
        "",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_corruption_clauses_round_trip(self):
        spec = "flip:0.01,dma_corrupt:0.02,vrf_flip:0.05,stuck_line:1@3"
        plan = FaultPlan.parse(spec)
        assert [c.kind for c in plan.clauses] == list(CORRUPTION_KINDS)
        assert plan.describe() == spec
        assert FaultPlan.parse(plan.describe()) == plan


class TestInjectorDeterminism:
    def test_draws_depend_only_on_seed_request_attempt(self, rng):
        """The same (seed, request, attempt) must meet the same fate no
        matter which worker runs it or in what order — that is what makes
        offline and online injection identical."""
        plan = FaultPlan.parse("kill:0.3,transient:0.2")
        requests = gemm_batch(rng, 30)

        def fate(injector, request, attempt, worker):
            try:
                injector.before_attempt(request, attempt, worker)
                return "ok"
            except Exception as error:
                return type(error).__name__

        a = FaultInjector(plan, seed=7)
        b = FaultInjector(plan, seed=7)
        fates_fwd = [fate(a, r, 1, 0) for r in requests]
        fates_rev = [fate(b, r, 1, 5) for r in reversed(requests)]
        assert fates_fwd == list(reversed(fates_rev))
        assert any(f != "ok" for f in fates_fwd)  # the plan actually fires

    def test_different_seeds_differ(self, rng):
        plan = FaultPlan.parse("kill:0.5")
        requests = gemm_batch(rng, 40)

        def fates(seed):
            injector = FaultInjector(plan, seed=seed)
            out = []
            for r in requests:
                try:
                    injector.before_attempt(r, 1, 0)
                    out.append(True)
                except Exception:
                    out.append(False)
            return out

        assert fates(1) != fates(2)


class TestCorruptionDrawDeterminism:
    def test_directives_depend_only_on_seed_request_attempt(self, rng):
        """Corruption sites/values hash from (seed, request, attempt,
        site-salt): byte-identical no matter the worker or draw order."""
        plan = FaultPlan.parse("flip:0.6,dma_corrupt:0.6,vrf_flip:0.6")
        requests = gemm_batch(rng, 20)
        a = FaultInjector(plan, seed=11)
        b = FaultInjector(plan, seed=11)
        fwd = [a.corruption_for(r, 1, worker=0) for r in requests]
        rev = [b.corruption_for(r, 1, worker=5) for r in reversed(requests)]
        assert fwd == list(reversed(rev))
        assert any(fwd)  # the plan actually fires
        kinds = {d.kind for directives in fwd for d in directives}
        assert kinds == {"flip", "dma_corrupt", "vrf_flip"}

    def test_attempts_draw_independent_sites(self, rng):
        plan = FaultPlan.parse("flip:1")
        request = gemm_batch(rng, 1)[0]
        injector = FaultInjector(plan, seed=3)
        first = injector.corruption_for(request, 1, worker=0)
        second = injector.corruption_for(request, 2, worker=0)
        assert first and second
        assert first[0].site != second[0].site

    def test_stuck_line_keys_on_worker_run_not_request(self, rng):
        """The stuck cell is a property of the silicon, not the workload:
        the directive fires on worker 0's nth run with the same site for
        any request that happens to trigger it."""
        plan = FaultPlan.parse("stuck_line:0@2")
        requests = gemm_batch(rng, 3)

        def nth_run_site(order):
            injector = FaultInjector(plan, seed=9)
            sites = []
            for request in order:
                injector.before_attempt(request, 1, worker=0)
                sites.extend(
                    d.site for d in injector.corruption_for(request, 1, worker=0)
                )
            return sites

        forward = nth_run_site(requests)
        shuffled = nth_run_site(requests[::-1])
        assert len(forward) == len(shuffled) == 1
        assert forward == shuffled

    def test_legacy_draws_are_pinned_and_unperturbed(self, rng):
        """Satellite regression: adding corruption clauses to a plan must
        not shift the legacy kill/transient/slow draw stream.  The fates
        below are the recorded seed-7 draws for the legacy plan; the
        corruption-augmented plan must reproduce them exactly."""
        expected = [
            "ok", "ok", "TransientOffloadError", "TransientOffloadError",
            "ok", "KernelKilledError", "KernelKilledError", "ok",
            "TransientOffloadError", "KernelKilledError", "KernelKilledError",
            "ok", "ok", "TransientOffloadError", "KernelKilledError", "ok",
            "TransientOffloadError", "ok", "ok", "ok",
        ]
        requests = gemm_batch(rng, 20)

        def fates(spec):
            injector = FaultInjector(FaultPlan.parse(spec), seed=7)
            out = []
            for request in requests:
                try:
                    injector.before_attempt(request, 1, 0)
                    out.append("ok")
                except Exception as error:
                    out.append(type(error).__name__)
            return out

        legacy = "kill:0.3,transient:0.2,slow:0.2:3x"
        augmented = legacy + ",flip:0.9,dma_corrupt:0.9,vrf_flip:0.9,stuck_line:0@1"
        assert fates(legacy) == expected
        assert fates(augmented) == expected


class TestOfflineFaults:
    def test_kill_faults_do_not_abort_the_batch(self, rng):
        """~10% kernel kills, no retries: the batch completes, failures are
        per-request results, and the availability section accounts for them."""
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve(
            gemm_batch(rng, 40), faults="kill:0.1", fault_seed=3,
            retry=RetryPolicy(max_attempts=1),
        )
        assert report.n_requests == 40
        statuses = report.availability["statuses"]
        assert statuses["failed"] > 0
        assert report.success_rate < 1.0
        assert report.success_rate == statuses["ok"] / 40
        by_class = report.availability["failed_attempts_by_class"]
        assert by_class == {"kill": statuses["failed"]}
        assert report.availability["injected_faults"]["kill"] == statuses["failed"]
        for result in report.results:
            if result.status == "failed":
                assert result.output is None
                assert "injected fault" in result.error
                assert result.fault_class == "kill"

    def test_retried_requests_are_bit_exact(self, rng):
        """An injected failure never perturbs the machine: the retry that
        succeeds matches the fault-free run output AND cycle count."""
        requests = gemm_batch(rng, 12)
        clean = ServingEngine(pool_size=2, config=CFG).serve(requests)
        faulty = ServingEngine(pool_size=2, config=CFG).serve(
            requests, faults="kill:0.3", fault_seed=1, verify=True,
        )
        assert faulty.availability["retries"] > 0
        assert any(r.attempts > 1 for r in faulty.results)
        for base, result in zip(clean.results, faulty.results):
            if result.status != "ok":
                continue
            assert np.array_equal(result.output, base.output)
            assert result.sim_cycles == base.sim_cycles

    def test_crash_failover_and_rebuild(self, rng):
        """A crashed worker is rebuilt and the retry fails over elsewhere."""
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve(gemm_batch(rng, 4), faults="crash_worker:0@1")
        assert all(r.status == "ok" for r in report.results)
        crashed = [r for r in report.results if r.attempts > 1]
        assert len(crashed) == 1
        assert crashed[0].worker == 1  # failover away from the crashed worker
        assert "crashed" in crashed[0].error
        assert report.availability["failovers"] >= 1
        assert report.per_worker[0]["rebuilds"] == 1
        assert report.per_worker[1]["rebuilds"] == 0

    def test_offline_quarantine_spans_simulated_cycles(self, rng):
        """Every request of an offline batch arrives at cycle 0, yet a
        quarantine lasts ``quarantine_cycles`` simulated cycles: each
        worker's probation is logged exactly that long after its
        quarantine, a failure on probation quarantines it again, and its
        first clean attempt after a release reinstates it."""
        report = ServingEngine(pool_size=2, config=CFG).serve(
            gemm_batch(rng, 24), faults="kill:0.5", fault_seed=2,
        )
        span = WorkerSupervisor(2).quarantine_cycles
        events = report.availability["worker_events"]
        assert [e for e in events if e["worker"] == 0] == [
            {"cycle": 0, "worker": 0, "event": "quarantined"},
            {"cycle": span, "worker": 0, "event": "probation"},
            {"cycle": 8749, "worker": 0, "event": "quarantined"},
            {"cycle": 8749 + span, "worker": 0, "event": "probation"},
            {"cycle": 17570, "worker": 0, "event": "reinstated"},
        ]
        for worker in (0, 1):
            mine = [e for e in events if e["worker"] == worker]
            for before, after in zip(mine, mine[1:]):
                if before["event"] == "quarantined":
                    assert after["event"] == "probation"
                    assert after["cycle"] == before["cycle"] + span
        assert all(r.status == "ok" for r in report.results)

    def test_fault_free_serving_is_unchanged(self, rng):
        """No fault spec: statuses all ok, single attempts, clean report."""
        report = ServingEngine(pool_size=2, config=CFG).serve(
            gemm_batch(rng, 6), verify=True,
        )
        assert all(r.status == "ok" and r.attempts == 1 for r in report.results)
        assert report.faults is None
        assert report.availability["success_rate"] == 1.0
        assert report.availability["retries"] == 0
        assert report.availability["worker_events"] == []

    def test_offline_report_is_deterministic(self, rng):
        requests = gemm_batch(rng, 16)
        kwargs = dict(faults="kill:0.2,slow:0.1:3x", fault_seed=9)
        a = ServingEngine(pool_size=2, config=CFG).serve(requests, **kwargs)
        b = ServingEngine(pool_size=2, config=CFG).serve(requests, **kwargs)
        assert strip_wall(a.as_dict()) == strip_wall(b.as_dict())

    @pytest.mark.parametrize(
        "spec",
        ["flip:0.4", "dma_corrupt:0.4", "vrf_flip:0.4", "stuck_line:0@1"],
    )
    def test_corruption_same_seed_reports_are_identical(self, rng, spec):
        """Every corruption clause: same seed, same engine layout ->
        byte-identical reports (sites, values and verdicts included)."""
        requests = gemm_batch(rng, 8)
        kwargs = dict(verify="report", faults=spec, fault_seed=10)
        a = ServingEngine(pool_size=2, config=CFG, integrity="abft").serve(
            requests, **kwargs)
        b = ServingEngine(pool_size=2, config=CFG, integrity="abft").serve(
            requests, **kwargs)
        assert strip_wall(a.as_dict()) == strip_wall(b.as_dict())
        for x, y in zip(a.results, b.results):
            assert x.status == y.status and x.integrity == y.integrity
            assert (x.output is None) == (y.output is None)
            if x.output is not None:
                assert np.array_equal(x.output, y.output)

    def test_combined_corruption_escalates_on_serial_pool(self, rng):
        """All four corruption clauses at once: each detected corruption
        re-runs with the replay fast path bypassed on the worker that
        produced it, unless the supervisor quarantined that worker
        meanwhile, and recovers; nothing slips past golden validation,
        and the same seed reproduces the report byte for byte."""
        requests = gemm_batch(rng, 8)
        kwargs = dict(
            verify="report", fault_seed=10,
            faults="flip:0.3,dma_corrupt:0.3,vrf_flip:0.3,stuck_line:0@2",
        )
        a, b = (
            ServingEngine(pool_size=2, config=CFG, integrity="abft").serve(
                requests, **kwargs)
            for _ in range(2)
        )
        assert strip_wall(a.as_dict()) == strip_wall(b.as_dict())
        integrity = a.integrity
        assert set(integrity["injected"]) == set(CORRUPTION_KINDS)
        assert integrity["detected"] >= 1
        assert integrity["recovered"] == integrity["detected"]
        assert integrity["undetected"] == 0
        escalations = integrity["escalations"]
        assert escalations["escalations"] == integrity["detected"]
        assert escalations["bypass_retries"] == integrity["detected"]
        assert all(r.status == "ok" for r in a.results)
        retried = [r for r in a.results if r.attempts > 1]
        assert len(retried) == integrity["detected"]
        quarantined = {
            e["worker"] for e in a.availability["worker_events"]
            if e["event"] == "quarantined"
        }
        for result in retried:
            home = next(
                w for w in range(2)
                if result.error.startswith(f"attempt 1 on worker {w}:")
            )
            assert result.worker == home or home in quarantined

    def test_flip_sites_are_mode_independent(self, rng):
        """Flip draws hash from (seed, request, attempt) only, so offline
        and online serving corrupt the same bits and reach the same
        verdicts.  The replay fast path is off here: a replay hit would
        mask a flip's manifestation, and the two modes warm the caches in
        different orders (sites still match; detection might not)."""
        nofast = ArcaneConfig(
            n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8,
            main_memory_kib=512, fastpath=False,
        )
        requests = gemm_batch(rng, 8)
        offline = ServingEngine(pool_size=2, config=nofast, integrity="abft").serve(
            requests, verify="report", faults="flip:0.5", fault_seed=3)
        online = ServingEngine(pool_size=2, config=nofast, integrity="abft").serve_online(
            requests, traffic="bursty:8:0", verify="report",
            faults="flip:0.5", fault_seed=3)
        assert offline.integrity["injected"] == online.integrity["injected"]
        assert offline.integrity["detected"] == online.integrity["detected"]
        for x, y in zip(offline.results, online.results):
            assert x.status == y.status
            flips = lambda r: [
                (e["kind"], e.get("bit"), e.get("address"))
                for e in (r.integrity or {}).get("events", [])
            ]
            assert flips(x) == flips(y)
            if x.output is not None:
                assert np.array_equal(x.output, y.output)


class TestOnlineFaults:
    def test_kill_under_poisson_completes_and_retries_reenter_queue(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve_online(
            gemm_batch(rng, 20), traffic="poisson:25", seed=7,
            faults="kill:0.3", fault_seed=1, verify=True,
        )
        assert report.n_requests == 20
        assert report.availability["retries"] > 0
        retried = [r for r in report.results if r.status == "ok" and r.attempts > 1]
        assert retried
        policy = RetryPolicy()
        for result in retried:
            # a retry re-enters the admission queue after simulated backoff,
            # so its service cannot start before arrival + first backoff
            assert result.start_cycle >= result.arrival_cycle + policy.backoff(1)

    def test_online_fail_retry_events_interleave(self, rng):
        workers = [SystemWorker(i, CFG) for i in range(2)]
        plan = FaultPlan.parse("kill:0.3")
        core = DispatchCore(SerialPool(workers), injector=FaultInjector(plan, seed=1))
        requests = stamp_arrivals(
            gemm_batch(rng, 12), TrafficSpec.parse("uniform:100:2000"), seed=3)
        results = core.run(requests)
        kinds = {e.kind for e in core.events}
        assert {"arrival", "dispatch", "completion", "fail", "retry"} <= kinds
        assert fold_tallies(core.events)[0]["retries"] == sum(
            r.attempts - 1 for r in results)
        fails = [e for e in core.events if e.kind == "fail"]
        assert all(e.worker is not None for e in fails)
        # a retry is logged when it re-enters the queue after its backoff,
        # naming the worker its failed attempt ran on
        retries = [e for e in core.events if e.kind == "retry"]
        assert sorted((e.cycle, e.request_id, e.worker) for e in retries) == sorted(
            (e.cycle + core.retry.backoff(e.attempt), e.request_id, e.worker)
            for e in fails
        )

    def test_quarantine_skip_probation_reinstate(self, rng):
        """Three consecutive crashes quarantine worker 1; the dispatcher
        routes around it, then probation reinstates it on a clean request
        of the second burst, which arrives after the quarantine ends."""
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve_online(
            gemm_batch(rng, 12), traffic="bursty:6:20000",
            faults="crash_worker:1@1,crash_worker:1@2,crash_worker:1@3",
        )
        assert all(r.status == "ok" for r in report.results)
        events = [e["event"] for e in report.availability["worker_events"]]
        assert "quarantined" in events
        assert "probation" in events
        assert "reinstated" in events
        assert events.index("quarantined") < events.index("probation")
        assert events.index("probation") < events.index("reinstated")
        assert all(e["worker"] == 1
                   for e in report.availability["worker_events"])
        assert report.per_worker[1]["rebuilds"] == 3  # one rebuild per crash
        # worker 1 came back and served real work after reinstatement
        assert report.per_worker[1]["served"] > 0

    def test_quarantined_worker_is_skipped(self):
        supervisor = WorkerSupervisor(2, threshold=1, quarantine_cycles=2)
        assert supervisor.record_failure(1, 10) is True
        assert supervisor.state_of(1) == QUARANTINED
        assert supervisor.available() == [0]
        assert supervisor.release(11) == []
        # released at its own cycle, whenever the clock passes it
        assert supervisor.release(50) == [(12, 1)]
        assert supervisor.state_of(1) == PROBATION
        assert supervisor.available() == [0, 1]
        assert supervisor.record_success(1) is True
        assert supervisor.state_of(1) == HEALTHY

    def test_all_quarantined_waits_for_release(self, rng):
        """A pool of one whose only worker is quarantined holds every
        request until the quarantine ends, then serves it on probation."""
        report = ServingEngine(pool_size=1, config=CFG).serve(
            gemm_batch(rng, 4),
            faults="crash_worker:0@1,crash_worker:0@2,crash_worker:0@3",
        )
        release = WorkerSupervisor(1).quarantine_cycles
        assert report.availability["worker_events"] == [
            {"cycle": 0, "worker": 0, "event": "quarantined"},
            {"cycle": release, "worker": 0, "event": "probation"},
            {"cycle": release, "worker": 0, "event": "reinstated"},
        ]
        assert all(r.status == "ok" for r in report.results)
        assert min(r.start_cycle for r in report.results) == release
        assert "forced_probation" not in {e["kind"] for e in report.events()}

    def test_deadline_ok_timed_out_shed(self, rng):
        """Pool of one, three identical simultaneous arrivals, budget just
        over one service time: first completes, second finishes late,
        third is shed before it burns cycles."""
        requests = gemm_batch(rng, 3)
        requests = [r for r in requests]
        clean = ServingEngine(pool_size=1, config=CFG).serve([requests[0]])
        service = clean.results[0].sim_cycles
        assert service > 10
        stamped = stamp_deadlines(
            stamp_arrivals(requests, TrafficSpec.parse("bursty:3:0")),
            budget_cycles=service + 10,
        )
        report = ServingEngine(pool_size=1, config=CFG).serve_online(stamped)
        statuses = [r.status for r in report.results]
        assert statuses == ["ok", "timed_out", "shed"]
        timed_out = report.results[1]
        assert timed_out.output is not None  # late but kept
        assert timed_out.completion_cycle > stamped[1].deadline_cycle
        shed = report.results[2]
        assert shed.fault_class == "deadline"
        assert shed.sim_cycles == 0
        assert report.availability["statuses"] == {
            "ok": 1, "failed": 0, "timed_out": 1, "shed": 1}
        # latency stats cover completed requests only
        assert report.makespan_cycles == timed_out.completion_cycle

    def test_bounded_queue_sheds_excess_arrivals(self, rng):
        report = ServingEngine(pool_size=1, config=CFG).serve_online(
            gemm_batch(rng, 4), traffic="bursty:4:0", queue_capacity=1,
        )
        statuses = [r.status for r in report.results]
        assert statuses == ["ok", "ok", "shed", "shed"]
        for result in report.results[2:]:
            assert result.fault_class == "queue_full"
            assert "queue full" in result.error

    def test_online_report_is_deterministic(self, rng):
        """Same (traffic seed, fault seed) -> identical reports, including
        availability and worker events."""
        requests = gemm_batch(rng, 16)
        kwargs = dict(traffic="poisson:25", seed=7,
                      faults="kill:0.2,transient:0.1,slow:0.1:2x", fault_seed=5)
        a = ServingEngine(pool_size=2, config=CFG).serve_online(requests, **kwargs)
        b = ServingEngine(pool_size=2, config=CFG).serve_online(requests, **kwargs)
        assert strip_wall(a.as_dict()) == strip_wall(b.as_dict())
        assert json.loads(a.to_json())["availability"] is not None

    def test_slow_fault_stretches_timeline_not_numerics(self, rng):
        requests = gemm_batch(rng, 6)
        clean = ServingEngine(pool_size=1, config=CFG).serve_online(
            requests, traffic="trace:0,0,0,0,0,0")
        slowed = ServingEngine(pool_size=1, config=CFG).serve_online(
            requests, traffic="trace:0,0,0,0,0,0",
            faults="slow:1.0:4x", verify=True,  # every request spiked 4x
        )
        assert slowed.availability["injected_faults"]["slow"] == 6
        for base, spiked in zip(clean.results, slowed.results):
            assert np.array_equal(base.output, spiked.output)
            assert spiked.sim_cycles == int(round(base.sim_cycles * 4.0))
            # the RunReports keep the machine's true cycle count
            assert sum(r.total_cycles for r in spiked.reports) == base.sim_cycles


class TestWorkerRecovery:
    def test_organic_failure_counts_a_recovery(self, rng):
        worker = SystemWorker(0, CFG)
        bad = kernel_request(0, 30, [np.zeros((4, 4), dtype=np.int16)], (4, 4))
        with pytest.raises(RequestRejected):
            worker.run(bad)  # slot 30 unregistered -> offload killed
        # the dispatch core logs this on the fail event; reports count it
        assert worker.last_recovery == {"via": "reset", "error": None}
        good = gemm_request(
            1,
            rng.integers(-5, 5, (4, 4)).astype(np.int16),
            rng.integers(-5, 5, (4, 4)).astype(np.int16),
        )
        result = worker.run(good)
        assert np.array_equal(result.output, expected_output(good))
        assert worker.last_recovery is None  # a clean run recovers nothing

    def test_nonretryable_failure_is_terminal_with_recovery_counted(self, rng):
        engine = ServingEngine(pool_size=1, config=CFG)
        bad = kernel_request(0, 30, [np.zeros((4, 4), dtype=np.int16)], (4, 4))
        report = engine.serve([bad])
        result = report.results[0]
        assert result.status == "failed"
        assert result.fault_class == "rejected"
        assert result.attempts == 1  # RequestRejected is not retryable
        assert report.per_worker[0]["recoveries"] == 1
        assert report.availability["failed_attempts_by_class"] == {"rejected": 1}


class TestRequestValidation:
    @pytest.mark.parametrize("shape", [(0, 4), (4, -1), (4,), (2, 3, 4), "bad"])
    def test_kernel_request_rejects_bad_out_shape(self, shape):
        with pytest.raises(ValueError, match="out_shape"):
            kernel_request(0, 1, [np.zeros((4, 4), dtype=np.int16)], shape)

    def test_graph_node_rejects_bad_out_shape(self):
        with pytest.raises(ValueError, match="out_shape"):
            GraphNode("n", 1, ("a",), (4, 0))

    def test_valid_shapes_are_normalised_to_int_tuples(self):
        node = GraphNode("n", 1, ("a",), (np.int64(4), np.int64(2)))
        assert node.out_shape == (4, 2)
        assert all(isinstance(d, int) for d in node.out_shape)


class TestVerifyCollectsAllMismatches:
    def test_every_failing_request_is_reported(self, rng):
        engine = ServingEngine(pool_size=1, config=CFG)
        requests = gemm_batch(rng, 3)
        report = engine.serve(requests)
        results = report.results
        results[0].output = results[0].output + 7   # corrupt two of three
        results[2].output = results[2].output - 1
        with pytest.raises(AssertionError) as excinfo:
            ServingEngine._verify_outputs(requests, results)
        message = str(excinfo.value)
        assert "2 request(s) mismatch" in message
        assert "request 0" in message and "request 2" in message
        assert "request 1" not in message
        assert "max |diff| = 7" in message

    def test_failed_results_are_skipped(self, rng):
        engine = ServingEngine(pool_size=1, config=CFG)
        requests = gemm_batch(rng, 2)
        report = engine.serve(
            requests, retry=RetryPolicy(max_attempts=1), faults="kill:1",
        )
        assert all(r.status == "failed" for r in report.results)
        assert ServingEngine._verify_outputs(requests, report.results) is True
