"""The request-level result memo (``pytest -m dispatch``).

A :class:`~repro.serve.engine.ServingEngine` serves a repeated payload
from the clean result it stored the first time.  A hit must equal a
cold single-shot run in everything simulated; the memo must be bypassed
wherever re-execution is the point (corrupting plans, escalation
retries, ``dmr``); an autotune swap must miss; and the store is a
bounded LRU owned by one engine.
"""

import numpy as np
import pytest

from repro.compiler import FUNC5_CGEMM, FUNC5_FC
from repro.compiler.schedule import Recipe
from repro.compiler.tune import TunedSchedule, geometry_key
from repro.core.config import ArcaneConfig
from repro.runtime.phases import PhaseBreakdown
from repro.serve import (
    ResultMemo,
    SerialPool,
    ServingEngine,
    SystemWorker,
    conv_layer_request,
    gemm_request,
    kernel_request,
)
from repro.serve.engine import AutotunePolicy
from repro.serve.memo import MEMO_CAPACITY
from repro.serve.request import RequestResult

pytestmark = pytest.mark.dispatch

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)


def payloads():
    """One gemm, one conv layer and one fc payload: request factories."""
    rng = np.random.default_rng(5)
    a = rng.integers(-6, 6, (6, 8)).astype(np.int16)
    b = rng.integers(-6, 6, (8, 6)).astype(np.int16)
    x = rng.integers(-8, 8, (24, 8)).astype(np.int8)
    f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
    xv = rng.integers(-8, 8, (1, 16)).astype(np.int16)
    w = rng.integers(-8, 8, (16, 8)).astype(np.int16)
    bias = rng.integers(-8, 8, (1, 8)).astype(np.int16)
    return [
        lambda rid: gemm_request(rid, a, b, alpha=2, beta=-1),
        lambda rid: conv_layer_request(rid, x, f),
        lambda rid: kernel_request(rid, FUNC5_FC, [xv, w, bias], (1, 8)),
    ]


def repeated_batch(copies=4):
    """Every payload ``copies`` times, payload-major, distinct ids."""
    factories = payloads()
    return [
        factories[rid // copies](rid) for rid in range(copies * len(factories))
    ]


def run_record(result):
    """Everything simulated about one result (kernel ids aside)."""
    return (
        result.output.dtype.str, result.output.tobytes(), result.sim_cycles,
        sorted(result.breakdown.cycles.items()),
        [
            (
                r.total_cycles, r.host_cycles, sorted(r.breakdown.cycles.items()),
                sorted(r.stats.items()), r.outcomes,
                [sorted(k.cycles.items()) for k in r.per_kernel.values()],
            )
            for r in result.reports
        ],
    )


def cold_run(request, integrity="off"):
    """The request single-shot on a fresh worker."""
    return SystemWorker(0, CFG, integrity=integrity).run(request)


def memo_tagged(result):
    tags = {launch["replay"] for launch in result.launches}
    assert len(tags) == 1, tags
    return tags == {"memo"}


class TestHits:
    @pytest.mark.parametrize("integrity", ["off", "abft"])
    def test_hit_equals_cold_run_on_either_worker(self, integrity):
        engine = ServingEngine(pool_size=2, config=CFG, integrity=integrity)
        requests = repeated_batch()
        report = engine.serve(requests, observe=True)
        hits = [r for r in report.results if memo_tagged(r)]
        assert {r.worker for r in hits} == {0, 1}
        assert len(hits) == len(requests) - 3
        assert len(engine.memo) == 3
        for request, result in zip(requests, report.results):
            cold = cold_run(request, integrity)
            assert run_record(result) == run_record(cold)
            assert result.integrity == cold.integrity
        # the served output is the caller's own copy
        report.results[-1].output[...] = 0
        again = engine.serve(requests[-1:])
        assert run_record(again.results[0]) == run_record(cold_run(requests[-1]))

    def test_hit_launches_copy_the_stored_records(self):
        engine = ServingEngine(pool_size=1, config=CFG)
        first, second = repeated_batch(copies=2)[:2]
        # stored by an unobserved run, served to an observed one
        engine.serve([first])
        observed = engine.serve([second], observe=True).results[0]
        cold = SystemWorker(0, CFG).run(first, observe=True)
        assert [dict(launch, replay="memo") for launch in cold.launches] == [
            {k: v for k, v in launch.items() if k not in ("start_cycle", "end_cycle")}
            for launch in observed.launches
        ]
        # the core stamped the served copies, never the stored records
        stored = engine.memo.lookup(engine.workers[0].memo_key(first))
        assert all("start_cycle" not in launch for launch in stored.launches)

    def test_second_engine_starts_empty(self):
        requests = repeated_batch(copies=2)
        first = ServingEngine(pool_size=2, config=CFG)
        first.serve(requests)
        assert len(first.memo) == 3
        second = ServingEngine(pool_size=2, config=CFG)
        assert len(second.memo) == 0 and second.memo is not first.memo
        report = second.serve(requests[:1], observe=True)
        assert not memo_tagged(report.results[0])
        assert len(second.memo) == 1

    def test_slow_fault_stretches_a_hit(self):
        engine = ServingEngine(pool_size=2, config=CFG)
        requests = repeated_batch(copies=1)
        engine.serve(requests)
        report = engine.serve(requests, faults="slow:1.0:4x", observe=True)
        for request, result in zip(requests, report.results):
            assert memo_tagged(result)
            cold = cold_run(request)
            assert result.sim_cycles == int(round(4 * cold.sim_cycles))
            assert result.reports[0].total_cycles == cold.reports[0].total_cycles


    def test_one_request_digest_per_served_attempt(self, monkeypatch):
        """The memo key's digest feeds the ledger check: a conv request
        (no ABFT cover) is hashed once per attempt, hit or miss."""
        import repro.integrity.check as check_module
        import repro.serve.worker as worker_module

        calls = []
        real = check_module.request_digest

        def counted(request):
            calls.append(request.request_id)
            return real(request)

        monkeypatch.setattr(check_module, "request_digest", counted)
        monkeypatch.setattr(worker_module, "request_digest", counted)
        engine = ServingEngine(pool_size=2, config=CFG, integrity="abft")
        factory = payloads()[1]
        requests = [factory(rid) for rid in range(4)]
        report = engine.serve(requests)
        assert all(r.completed for r in report.results)
        # every attempt reached the ledger fallback
        assert sum(
            w.ledger.stats["recorded"] + w.ledger.stats["confirmed"]
            for w in engine.workers
        ) == len(requests)
        assert sorted(calls) == [r.request_id for r in report.results]


class TestBypass:
    def test_corrupting_plan_neither_reads_nor_writes(self):
        engine = ServingEngine(pool_size=2, config=CFG, integrity="abft")
        requests = repeated_batch(copies=2)
        engine.serve(requests[:1])
        key = engine.workers[0].memo_key(requests[0])
        entry = engine.memo.lookup(key)
        report = engine.serve(requests, faults="flip:0.5", fault_seed=1, observe=True)
        # not read: no result was served from the memo; not written: the
        # other payloads were not stored and the stored one not replaced
        assert not any(memo_tagged(r) for r in report.results if r.completed)
        assert len(engine.memo) == 1 and engine.memo.lookup(key) is entry
        assert report.integrity["injected"]["flip"] > 0

    def test_escalation_retry_neither_reads_nor_writes(self):
        memo = ResultMemo()
        pool = SerialPool([SystemWorker(0, CFG)], memo=memo)
        request = repeated_batch(copies=1)[0]
        pool.execute(0, request, bypass_fastpath=True)
        assert len(memo) == 0
        pool.execute(0, request)
        entry = memo.lookup(pool.workers[0].memo_key(request))
        retried = pool.execute(0, request, bypass_fastpath=True, observe=True)
        assert not memo_tagged(retried)
        assert len(memo) == 1
        assert memo.lookup(pool.workers[0].memo_key(request)) is entry

    def test_dmr_has_no_memo(self):
        engine = ServingEngine(pool_size=1, config=CFG, integrity="dmr")
        assert engine.memo is None
        report = engine.serve(repeated_batch(copies=2)[:2], observe=True)
        for result in report.results:
            assert not memo_tagged(result)
            # primary plus the shadow run, every time
            assert len(result.reports) == 2


class TestKey:
    def test_autotune_swap_misses_and_equals_a_cold_tuned_run(self):
        rng = np.random.default_rng(9)
        m, k, n = 4, 12, 8
        operands = [
            rng.integers(-6, 6, shape).astype(np.int16)
            for shape in ((m, k), (k, n), (m, n))
        ]

        def request(rid):
            return kernel_request(
                rid, FUNC5_CGEMM, operands, (m, n), params=[2, -1], dtype=np.int16
            )

        engine = ServingEngine(
            pool_size=2, config=CFG, autotune=AutotunePolicy(threshold=2, budget=4),
        )
        # a variant whose cycles differ from stock, so a stale hit would show
        variant = Recipe([("strip_mine", "k", 4), ("vectorize", "j")])
        geometry = geometry_key([a.shape for a in operands], np.int16, [2, -1])
        engine.schedule_cache.put(
            "cgemm", geometry, CFG,
            TunedSchedule(variant, cycles=100, default_cycles=120, evaluated=4),
        )
        stock = engine.serve([request(0)]).results[0]
        assert len(engine.memo) == 1
        swapped = engine.serve([request(1)], observe=True)
        assert swapped.autotune["tuned"][0]["swapped"] is True
        tuned = swapped.results[0]
        assert not memo_tagged(tuned) and len(engine.memo) == 2
        cold = SystemWorker(0, CFG)
        cold.register_recipe("cgemm", variant.to_json())
        assert run_record(tuned) == run_record(cold.run(request(1)))
        assert tuned.sim_cycles != stock.sim_cycles
        assert np.array_equal(tuned.output, stock.output)
        # the swapped pool now hits its own tuned entry
        again = engine.serve([request(2)], observe=True).results[0]
        assert memo_tagged(again) and len(engine.memo) == 2
        assert run_record(again) == run_record(tuned)

    def test_rebuilt_worker_keys_the_same(self):
        worker = SystemWorker(0, CFG)
        request = repeated_batch(copies=1)[0]
        worker.register_recipe("cgemm", Recipe([("vectorize", "j")]).to_json())
        key = worker.memo_key(request)
        worker.rebuild()
        assert worker.memo_key(request) == key
        assert SystemWorker(1, CFG).memo_key(request) != key


def fake_result(rid, **integrity):
    return RequestResult(
        request_id=rid, kind="gemm", worker=0,
        output=np.full((1, 1), rid, dtype=np.int32), sim_cycles=1,
        breakdown=PhaseBreakdown(), wall_seconds=0.0,
        integrity=integrity or None,
    )


class TestStore:
    def test_corrected_or_corrupted_results_are_not_stored(self):
        memo = ResultMemo()
        memo.remember("corrected", fake_result(0, corrected=True, method="abft"))
        memo.remember("fired", fake_result(1, events=[{"kind": "flip"}]))
        assert len(memo) == 0
        memo.remember("clean", fake_result(2, policy="abft", method="abft"))
        assert len(memo) == 1

    def test_lru_never_exceeds_capacity(self):
        memo = ResultMemo()
        for rid in range(MEMO_CAPACITY + 10):
            memo.remember(rid, fake_result(rid))
            assert len(memo) <= MEMO_CAPACITY
            if rid == MEMO_CAPACITY - 1:
                # a hit refreshes the oldest entry past the next evictions
                assert memo.lookup(0) is not None
        assert len(memo) == MEMO_CAPACITY
        assert memo.lookup(0) is not None
        assert all(memo.lookup(rid) is None for rid in range(1, 11))
        assert memo.lookup(MEMO_CAPACITY + 9).output[0, 0] == MEMO_CAPACITY + 9
