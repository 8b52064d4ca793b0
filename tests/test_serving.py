"""Serving engine tests: scheduling, bit-exactness, reports."""

import dataclasses
import json

import numpy as np
import pytest

from repro.compiler import FUNC5_CGEMM, FUNC5_EWISE_ADD, FUNC5_FC, FUNC5_ROWSUM
from repro.core.config import ArcaneConfig
from repro.eval.serving import build_serving_report, latency_stats, percentile
from repro.serve import (
    GraphNode,
    DispatchCore,
    InferenceRequest,
    SerialPool,
    ServingEngine,
    SystemWorker,
    TrafficSpec,
    arrival_cycles,
    conv_layer_request,
    expected_output,
    gemm_request,
    graph_request,
    kernel_request,
    stamp_arrivals,
)

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)


def mixed_requests(rng, count):
    requests = []
    for rid in range(count):
        slot = rid % 4
        if slot == 0:
            x = rng.integers(-8, 8, (3 * 12, 12)).astype(np.int8)
            f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
            requests.append(conv_layer_request(rid, x, f))
        elif slot == 1:
            a = rng.integers(-5, 5, (6, 8)).astype(np.int16)
            b = rng.integers(-5, 5, (8, 10)).astype(np.int16)
            c = rng.integers(-5, 5, (6, 10)).astype(np.int16)
            requests.append(gemm_request(rid, a, b, c, alpha=2, beta=-1))
        elif slot == 2:
            xv = rng.integers(-8, 8, (1, 32)).astype(np.int16)
            w = rng.integers(-8, 8, (32, 12)).astype(np.int16)
            bias = rng.integers(-8, 8, (1, 12)).astype(np.int16)
            requests.append(kernel_request(rid, FUNC5_FC, [xv, w, bias], (1, 12)))
        else:
            a = rng.integers(-4, 4, (4, 6)).astype(np.int16)
            b = rng.integers(-4, 4, (6, 4)).astype(np.int16)
            c = np.zeros((4, 4), dtype=np.int16)
            d = rng.integers(-4, 4, (4, 4)).astype(np.int16)
            nodes = [
                GraphNode("prod", FUNC5_CGEMM, ("a", "b", "c"), (4, 4), params=(1, 0)),
                GraphNode("sum", FUNC5_EWISE_ADD, ("prod", "d"), (4, 4)),
                GraphNode("row", FUNC5_ROWSUM, ("sum",), (4, 1)),
            ]
            requests.append(
                graph_request(rid, {"a": a, "b": b, "c": c, "d": d}, nodes)
            )
    return requests


class TestEngineServing:
    def test_mixed_batch_verified_on_pool_of_two(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        requests = mixed_requests(rng, 12)
        report = engine.serve(requests, verify=True)
        assert report.verified is True
        assert report.n_requests == 12
        assert sum(report.per_kind.values()) == 12
        assert len(report.per_worker) == 2  # both systems actually served
        assert report.total_sim_cycles > 0
        # results arrive in request order
        assert [r.request_id for r in report.results] == list(range(12))

    def test_results_bit_exact_with_single_shot(self, rng):
        """Each pooled result must match a fresh system's single-shot run —
        outputs AND cycle counts (cold-start equivalence after reset)."""
        engine = ServingEngine(pool_size=2, config=CFG)
        requests = mixed_requests(rng, 8)
        report = engine.serve(requests)
        for request, result in zip(requests, report.results):
            single = SystemWorker(99, CFG).run(request)
            assert np.array_equal(single.output, result.output)
            assert single.sim_cycles == result.sim_cycles

    def test_outputs_match_golden_models(self, rng):
        engine = ServingEngine(pool_size=3, config=CFG)
        requests = mixed_requests(rng, 8)
        report = engine.serve(requests)
        for request, result in zip(requests, report.results):
            assert np.array_equal(result.output, expected_output(request))

    def test_duplicate_request_ids_rejected(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        a = rng.integers(-5, 5, (4, 4)).astype(np.int16)
        b = rng.integers(-5, 5, (4, 4)).astype(np.int16)
        with pytest.raises(ValueError, match="duplicate request_id"):
            engine.serve([gemm_request(1, a, b), gemm_request(1, a, b)])

    def test_long_lived_pool_survives_many_requests(self, rng):
        """The acceptance-criteria scenario, sized for the test suite: one
        pool, many requests, no heap exhaustion, no deadlock."""
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve(mixed_requests(rng, 40), verify=True)
        assert report.n_requests == 40
        for worker in engine.workers:
            assert worker.system.heap_stats()["live_matrices"] == 0


class TestRequestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            InferenceRequest(0, "sorting", {})

    def test_graph_undefined_tensor_rejected(self, rng):
        a = rng.integers(-4, 4, (4, 4)).astype(np.int16)
        nodes = [GraphNode("out", FUNC5_EWISE_ADD, ("a", "missing"), (4, 4))]
        with pytest.raises(ValueError, match="undefined tensors"):
            graph_request(0, {"a": a}, nodes)

    def test_graph_duplicate_tensor_rejected(self, rng):
        a = rng.integers(-4, 4, (4, 4)).astype(np.int16)
        nodes = [GraphNode("a", FUNC5_ROWSUM, ("a",), (4, 1))]
        with pytest.raises(ValueError, match="defined twice"):
            graph_request(0, {"a": a}, nodes)

    def test_graph_bad_output_rejected(self, rng):
        a = rng.integers(-4, 4, (4, 4)).astype(np.int16)
        nodes = [GraphNode("out", FUNC5_ROWSUM, ("a",), (4, 1))]
        with pytest.raises(ValueError, match="not produced"):
            graph_request(0, {"a": a}, nodes, output="elsewhere")


def _served(request, fastpath):
    """(output, sim_cycles, per-report simulated record) of two runs on
    one fresh worker: the second replays the first's recording when the
    fast path is on."""
    worker = SystemWorker(0, CFG.with_fastpath(fastpath))
    runs = []
    for _ in range(2):
        result = worker.run(request)
        runs.append((
            result.output.tobytes(), result.output.shape, result.sim_cycles,
            [
                (r.total_cycles, r.host_cycles, r.breakdown.as_dict(), r.stats)
                for r in result.reports
            ],
        ))
    return runs


class TestConstructorEquivalence:
    """Every constructor builds one kernel graph: the same kernel on the
    same operands serves, digests and ranks identically whichever
    constructor built it."""

    def _assert_equivalent(self, requests):
        from repro.integrity.check import request_digest
        from repro.serve.dispatch import estimate_service_cycles

        first, *rest = requests
        for fastpath in (True, False):
            served = _served(first, fastpath)
            for other in rest:
                assert _served(other, fastpath) == served, other.kind
        for other in rest:
            assert request_digest(other) == request_digest(first), other.kind
            assert estimate_service_cycles(other) == estimate_service_cycles(first)

    def test_gemm_kernel_and_graph_agree(self, rng):
        a = rng.integers(-5, 5, (6, 8)).astype(np.int16)
        b = rng.integers(-5, 5, (8, 10)).astype(np.int16)
        c = rng.integers(-5, 5, (6, 10)).astype(np.int16)
        node = GraphNode("d", 0, ("a", "b", "c"), (6, 10), params=(2, -1))
        self._assert_equivalent([
            gemm_request(0, a, b, c, 2, -1),
            kernel_request(0, 0, [a, b, c], (6, 10), (2, -1)),
            graph_request(0, {"a": a, "b": b, "c": c}, [node]),
        ])

    def test_conv_layer_and_kernel_agree(self, rng):
        x = rng.integers(-8, 8, (3 * 12, 12)).astype(np.int8)
        f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
        self._assert_equivalent([
            conv_layer_request(0, x, f),
            kernel_request(0, 4, [x, f], (5, 5)),
        ])


class TestServingReport:
    def test_json_round_trip(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve(mixed_requests(rng, 6), verify=True)
        decoded = json.loads(report.to_json())
        assert decoded["n_requests"] == 6
        assert decoded["pool_size"] == 2
        assert decoded["verified"] is True
        assert decoded["requests_per_second"] > 0
        assert decoded["cycles_per_request"] > 0
        assert set(decoded["latency_cycles"]) == {
            "min", "mean", "p50", "p90", "p99", "max",
        }

    def test_latency_percentiles_ordered(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve(mixed_requests(rng, 10))
        lat = report.latency_cycles
        assert lat["min"] <= lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["max"]
        assert report.makespan_cycles <= report.total_sim_cycles

    def test_percentile_function(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 0) == 10
        assert percentile(values, 100) == 40
        assert percentile(values, 50) == 25.0
        assert percentile([], 50) == 0.0
        assert percentile([7], 99) == 7.0


class TestWorkerLifecycle:
    def test_worker_resets_between_requests(self, rng):
        engine = ServingEngine(pool_size=1, config=CFG)
        worker = engine.workers[0]
        served = 0
        for rid in range(3):
            request = gemm_request(
                rid,
                rng.integers(-5, 5, (6, 8)).astype(np.int16),
                rng.integers(-5, 5, (8, 10)).astype(np.int16),
            )
            report = engine.serve([request])
            result = report.results[0]
            assert np.array_equal(result.output, expected_output(request))
            assert worker.system.heap_stats()["live_matrices"] == 0
            served += report.per_worker[0]["served"]
        assert served == 3
        assert result.sim_cycles > 0

    def test_worker_resets_even_on_failure(self, rng):
        from repro.serve import RequestRejected

        worker = SystemWorker(0, CFG)
        bad = kernel_request(0, 30, [np.zeros((4, 4), dtype=np.int16)], (4, 4))
        with pytest.raises(RequestRejected, match="killed"):
            worker.run(bad)  # slot 30 is unregistered -> offload killed
        # the system is still clean and serviceable
        assert worker.system.heap_stats()["live_matrices"] == 0
        good = gemm_request(
            1,
            rng.integers(-5, 5, (4, 4)).astype(np.int16),
            rng.integers(-5, 5, (4, 4)).astype(np.int16),
        )
        result = worker.run(good)
        assert np.array_equal(result.output, expected_output(good))


class TestReportInvariants:
    """The conservation laws a serving report must satisfy in any mode."""

    def test_total_cycles_is_sum_of_per_request_cycles(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve(mixed_requests(rng, 8))
        assert report.total_sim_cycles == sum(r.sim_cycles for r in report.results)

    def test_offline_makespan_bounds(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve(mixed_requests(rng, 8))
        # the slowest worker's pile is at least the largest single request
        # and at most all the work
        assert report.makespan_cycles >= max(r.sim_cycles for r in report.results)
        assert report.makespan_cycles <= report.total_sim_cycles
        busy = sum(w["busy_cycles"] for w in report.per_worker.values())
        assert busy == report.total_sim_cycles

    def test_per_worker_utilization_bounded(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve(mixed_requests(rng, 8))
        for stats in report.per_worker.values():
            assert 0.0 < stats["utilization"] <= 1.0

    def test_idle_workers_still_reported(self, rng):
        """A pool slot that served nothing must show up with served=0 and
        0% utilization, not vanish from the record."""
        a = rng.integers(-5, 5, (4, 6)).astype(np.int16)
        b = rng.integers(-5, 5, (6, 4)).astype(np.int16)
        engine = ServingEngine(pool_size=3, config=CFG)
        report = engine.serve([gemm_request(0, a, b)])
        assert set(report.per_worker) == {0, 1, 2}
        idle = [w for w, s in report.per_worker.items() if s["served"] == 0]
        assert len(idle) == 2
        for w in idle:
            assert report.per_worker[w]["busy_cycles"] == 0
            assert report.per_worker[w]["utilization"] == 0.0

    def test_latency_stats_empty_and_single_sample(self):
        empty = latency_stats([])
        assert all(empty[k] == 0.0 for k in ("min", "mean", "p50", "p90", "p99", "max"))
        single = latency_stats([42])
        assert all(single[k] == 42.0 for k in ("min", "mean", "p50", "p90", "p99", "max"))

    def test_empty_result_report(self):
        report = build_serving_report([], pool_size=2, wall_seconds=0.0)
        assert report.n_requests == 0
        assert report.total_sim_cycles == 0
        assert report.makespan_cycles == 0
        assert report.requests_per_megacycle == 0.0
        assert report.latency_cycles["p99"] == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown serving mode"):
            build_serving_report([], 1, 0.0, mode="sideways")

    def test_online_report_requires_timelines(self, rng):
        """Only the dispatch core stamps timelines: results straight from
        a worker have none, and a report over them (in any mode) raises."""
        worker = SystemWorker(0, CFG)
        bare = [worker.run(request) for request in mixed_requests(rng, 2)]
        for mode in ("offline", "online"):
            with pytest.raises(ValueError, match="needs simulated timelines"):
                build_serving_report(bare, 1, 0.0, mode=mode)


class TestTraffic:
    def test_parse_round_trips(self):
        for text in ("poisson:25", "uniform:100:5000", "bursty:8:200000",
                     "trace:0,500,500,9000"):
            spec = TrafficSpec.parse(text)
            assert spec.describe() == text
            assert TrafficSpec.parse(spec.describe()) == spec

    def test_bad_specs_rejected(self):
        for text in ("gaussian:5", "poisson:0", "poisson:-3", "poisson:1:2",
                     "uniform:5", "uniform:9:3", "bursty:0:100", "trace:",
                     "poisson:abc"):
            with pytest.raises(ValueError):
                TrafficSpec.parse(text)

    def test_trace_must_be_non_decreasing(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TrafficSpec("trace", (0, 500, 400))
        with pytest.raises(ValueError, match="non-negative"):
            TrafficSpec("trace", (-1, 500))

    def test_arrival_cycles_deterministic_per_seed(self):
        spec = TrafficSpec.parse("poisson:25")
        assert arrival_cycles(spec, 20, seed=7) == arrival_cycles(spec, 20, seed=7)
        assert arrival_cycles(spec, 20, seed=7) != arrival_cycles(spec, 20, seed=8)

    def test_arrival_cycles_non_decreasing(self):
        for text in ("poisson:25", "uniform:0:1000", "bursty:4:500"):
            cycles = arrival_cycles(TrafficSpec.parse(text), 50, seed=3)
            assert len(cycles) == 50
            assert all(b >= a for a, b in zip(cycles, cycles[1:]))
            assert all(c >= 0 for c in cycles)

    def test_bursty_pattern(self):
        cycles = arrival_cycles(TrafficSpec.parse("bursty:3:1000"), 8)
        assert cycles == [0, 0, 0, 1000, 1000, 1000, 2000, 2000]

    def test_uniform_gaps_within_bounds(self):
        cycles = arrival_cycles(TrafficSpec.parse("uniform:10:20"), 30, seed=1)
        gaps = [b - a for a, b in zip([0] + cycles, cycles)]
        assert all(10 <= g <= 20 for g in gaps)

    def test_trace_replay_and_exhaustion(self):
        spec = TrafficSpec.parse("trace:0,500,9000")
        assert arrival_cycles(spec, 2) == [0, 500]
        with pytest.raises(ValueError, match="trace has 3 arrivals"):
            arrival_cycles(spec, 4)

    def test_stamp_arrivals_copies_not_mutates(self, rng):
        a = rng.integers(-5, 5, (4, 4)).astype(np.int16)
        b = rng.integers(-5, 5, (4, 4)).astype(np.int16)
        originals = [gemm_request(0, a, b), gemm_request(1, a, b)]
        stamped = stamp_arrivals(originals, TrafficSpec.parse("trace:100,200"))
        assert [r.arrival_cycle for r in stamped] == [100, 200]
        assert all(r.arrival_cycle == 0 for r in originals)
        assert [r.request_id for r in stamped] == [0, 1]

    def test_negative_arrival_cycle_rejected(self, rng):
        a = rng.integers(-5, 5, (4, 4)).astype(np.int16)
        request = gemm_request(0, a, a)
        with pytest.raises(ValueError, match="arrival_cycle"):
            dataclasses.replace(request, arrival_cycle=-5)


class TestTrafficEdgeCases:
    """Boundary shapes the arrival processes must survive."""

    def test_bursty_burst_larger_than_batch(self, rng):
        # burst 8 but only 3 requests: one incomplete burst, all at cycle 0
        assert arrival_cycles(TrafficSpec.parse("bursty:8:100"), 3) == [0, 0, 0]
        report = ServingEngine(pool_size=2, config=CFG).serve_online(
            mixed_requests(rng, 3), traffic="bursty:8:100", verify=True)
        assert all(r.arrival_cycle == 0 for r in report.results)
        assert all(r.status == "ok" for r in report.results)

    def test_trace_with_exactly_n_arrivals(self, rng):
        # the == boundary of the trace-exhaustion check: no error, all used
        report = ServingEngine(pool_size=1, config=CFG).serve_online(
            mixed_requests(rng, 3), traffic="trace:0,500,9000", verify=True)
        assert [r.arrival_cycle for r in report.results] == [0, 500, 9000]

    def test_high_rate_poisson_collapses_gaps_to_zero(self, rng):
        # mean gap = 1e6/rate < 1 cycle: int() truncation makes most gaps 0,
        # so arrivals pile onto the same cycle — still non-decreasing, and
        # FIFO admission must break those ties by submission order
        cycles = arrival_cycles(TrafficSpec.parse("poisson:4000000"), 50, seed=3)
        assert len(cycles) != len(set(cycles))  # duplicates actually occur
        assert all(b >= a for a, b in zip(cycles, cycles[1:]))
        report = ServingEngine(pool_size=2, config=CFG).serve_online(
            mixed_requests(rng, 6), traffic="poisson:4000000", seed=3)
        assert [r.request_id for r in report.results] == list(range(6))
        for a, b in zip(report.results, report.results[1:]):
            if a.worker == b.worker:  # same-worker service order is FIFO
                assert b.start_cycle >= a.start_cycle

    def test_completion_event_precedes_later_arrival(self, rng):
        """When a completion lands before a later arrival cycle, the event
        log must interleave them chronologically, not batch completions at
        the end."""
        a = rng.integers(-5, 5, (4, 4)).astype(np.int16)
        requests = [gemm_request(0, a, a), gemm_request(1, a, a)]
        worker = SystemWorker(0, CFG)
        probe = worker.run(requests[0])
        service = probe.sim_cycles
        trace = f"trace:0,{service + 1000}"  # second arrival after completion
        core = DispatchCore(SerialPool([SystemWorker(0, CFG)]))
        results = core.run(
            stamp_arrivals(requests, TrafficSpec.parse(trace)))
        log = [(e.kind, e.request_id) for e in core.events]
        assert log == [
            ("arrival", 0), ("dispatch", 0), ("completion", 0),
            ("arrival", 1), ("dispatch", 1), ("completion", 1),
        ]
        cycles = [e.cycle for e in core.events]
        assert cycles == sorted(cycles)
        assert results[0].completion_cycle == service
        assert results[1].start_cycle == service + 1000


class TestOnlineServing:
    def test_conservation_laws_per_request(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve_online(mixed_requests(rng, 8),
                                     traffic="poisson:25", seed=7, verify=True)
        assert report.mode == "online"
        assert report.verified is True
        for r in report.results:
            assert r.completion_cycle >= r.arrival_cycle
            assert r.start_cycle >= r.arrival_cycle
            assert r.queue_delay_cycles >= 0
            assert r.queue_delay_cycles + r.sim_cycles == r.latency_cycles

    def test_deterministic_under_fixed_seed(self, rng):
        requests = mixed_requests(rng, 8)
        first = ServingEngine(pool_size=2, config=CFG).serve_online(
            requests, traffic="poisson:25", seed=7)
        second = ServingEngine(pool_size=2, config=CFG).serve_online(
            requests, traffic="poisson:25", seed=7)
        for a, b in zip(first.results, second.results):
            assert (a.arrival_cycle, a.start_cycle, a.completion_cycle,
                    a.worker) == (b.arrival_cycle, b.start_cycle,
                                  b.completion_cycle, b.worker)
        a_dict, b_dict = first.as_dict(), second.as_dict()
        for volatile in ("wall_seconds", "requests_per_second"):
            a_dict.pop(volatile), b_dict.pop(volatile)
        assert a_dict == b_dict

    def test_report_invariants_online(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve_online(mixed_requests(rng, 8),
                                     traffic="poisson:25", seed=7)
        results = report.results
        assert report.total_sim_cycles == sum(r.sim_cycles for r in results)
        assert report.makespan_cycles == max(r.completion_cycle for r in results)
        assert report.makespan_cycles >= max(r.latency_cycles for r in results)
        assert report.traffic == "poisson:25"
        for stats in report.per_worker.values():
            assert 0.0 <= stats["utilization"] <= 1.0

    def test_burst_queues_behind_busy_pool(self, rng):
        # 4 simultaneous arrivals on one worker: FIFO queue, strictly
        # increasing start cycles, everyone after the first waits
        engine = ServingEngine(pool_size=1, config=CFG)
        report = engine.serve_online(mixed_requests(rng, 4), traffic="bursty:4:0")
        starts = [r.start_cycle for r in report.results]
        assert starts == sorted(starts)
        assert report.results[0].queue_delay_cycles == 0
        for prev, r in zip(report.results, report.results[1:]):
            assert r.start_cycle == prev.completion_cycle
            assert r.queue_delay_cycles > 0

    def test_replay_uses_request_stamps(self, rng):
        a = rng.integers(-5, 5, (4, 6)).astype(np.int16)
        b = rng.integers(-5, 5, (6, 4)).astype(np.int16)
        requests = [
            dataclasses.replace(gemm_request(0, a, b), arrival_cycle=1000),
            dataclasses.replace(gemm_request(1, a, b), arrival_cycle=2500),
        ]
        report = ServingEngine(pool_size=2, config=CFG).serve_online(requests)
        assert report.traffic == "replay"
        assert [r.arrival_cycle for r in report.results] == [1000, 2500]

    def test_least_backlog_spreads_simultaneous_burst(self, rng):
        # a burst of 4 over 2 idle workers must use both (backlog-aware),
        # with ties broken by lowest worker index
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve_online(mixed_requests(rng, 4), traffic="bursty:4:0")
        assert report.results[0].worker == 0
        assert report.results[1].worker == 1
        assert {r.worker for r in report.results} == {0, 1}

    def test_online_json_record(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve_online(mixed_requests(rng, 6),
                                     traffic="uniform:100:5000", seed=3)
        decoded = json.loads(report.to_json())
        assert decoded["mode"] == "online"
        assert decoded["traffic"] == "uniform:100:5000"
        for block in ("latency_cycles", "queue_delay_cycles", "service_cycles"):
            assert set(decoded[block]) == {"min", "mean", "p50", "p90", "p99", "max"}
        for stats in decoded["per_worker"].values():
            assert set(stats) == {"served", "busy_cycles", "utilization",
                                  "recoveries", "rebuilds"}
        assert decoded["faults"] is None
        assert decoded["availability"]["success_rate"] == 1.0

    def test_online_matches_offline_outputs(self, rng):
        """Queueing changes timing, never numerics: same outputs either way."""
        requests = mixed_requests(rng, 8)
        offline = ServingEngine(pool_size=2, config=CFG).serve(requests)
        online = ServingEngine(pool_size=2, config=CFG).serve_online(
            requests, traffic="poisson:25", seed=7)
        for a, b in zip(offline.results, online.results):
            assert np.array_equal(a.output, b.output)
            assert a.sim_cycles == b.sim_cycles  # service time is arrival-free

    def test_event_log_chronological(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        requests = engine.serve_online(mixed_requests(rng, 6),
                                       traffic="poisson:25", seed=7)
        del requests  # report unused; inspect the dispatcher via a fresh run
        workers = [SystemWorker(i, CFG) for i in range(2)]
        core = DispatchCore(SerialPool(workers))
        stamped = stamp_arrivals(mixed_requests(rng, 6),
                                 TrafficSpec.parse("poisson:25"), seed=7)
        core.run(stamped)
        cycles = [event.cycle for event in core.events]
        assert cycles == sorted(cycles)
        kinds = {event.kind for event in core.events}
        assert kinds == {"arrival", "dispatch", "completion"}
        assert core.makespan_cycles == max(core.free_at)


def test_partial_timeline_rejected_by_online_report(rng):
    """A result with only some timeline fields set must hit the diagnostic
    ValueError, not a TypeError inside latency_stats."""
    a = rng.integers(-5, 5, (4, 4)).astype(np.int16)
    engine = ServingEngine(pool_size=1, config=CFG)
    report = engine.serve_online([gemm_request(0, a, a)], traffic="trace:100")
    broken = report.results[0]
    broken.arrival_cycle = None  # completion_cycle still set
    with pytest.raises(ValueError, match="needs simulated timelines"):
        build_serving_report([broken], 1, 0.0, mode="online")
