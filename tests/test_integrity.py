"""Data-integrity tests: ABFT checksums, detection policies, recovery.

Covers the tentpole arc end to end — hardware-level corruption injection
(bit flips in LLC-resident operands, DMA payload corruption, VPU
register-file flips, stuck cache lines), ABFT/digest/DMR detection,
corruption-aware escalation in the dispatch core, and replay-cache
poisoning defense (local invalidation + fleet-wide retraction).
"""

import numpy as np
import pytest

from repro.core.config import ArcaneConfig
from repro.integrity import (
    CORRUPTION_KINDS,
    INTEGRITY_POLICIES,
    CorruptionDirective,
    DigestLedger,
    coerce_policy,
    correct_single,
    covered,
    gemm_residues,
    output_digest,
    request_digest,
    verify_gemm,
)
from repro.serve import (
    FleetReplayCache,
    RetryPolicy,
    ServingEngine,
    SilentCorruptionError,
    SystemWorker,
    conv_layer_request,
    expected_output,
    gemm_request,
)

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


def clean_gemm(seed=0, shape=(4, 4), dtype=np.int16):
    rng = np.random.default_rng(seed)
    a = rng.integers(-5, 5, shape).astype(dtype)
    b = rng.integers(-5, 5, (shape[1], shape[0])).astype(dtype)
    c = rng.integers(-5, 5, (shape[0], shape[0])).astype(dtype)
    out = (
        a.astype(np.int64) @ b.astype(np.int64) + c.astype(np.int64)
    ).astype(dtype)
    return a, b, c, out


class TestAbftChecksums:
    def test_clean_gemm_has_zero_residues(self):
        a, b, c, out = clean_gemm()
        row, col = gemm_residues(a, b, c, 1, 1, out)
        assert not row.any() and not col.any()

    def test_input_flip_manifests_in_residues(self):
        a, b, c, out = clean_gemm()
        bad_a = a.copy()
        bad_a[1, 2] ^= 1 << 3
        bad_out = (
            bad_a.astype(np.int64) @ b.astype(np.int64) + c.astype(np.int64)
        ).astype(np.int16)
        # residues are computed against the *claimed* inputs: a corrupted
        # A perturbs the output, so the column checksum breaks
        row, col = gemm_residues(a, b, c, 1, 1, bad_out)
        assert col.any()

    def test_single_output_flip_is_located_and_corrected(self):
        a, b, c, out = clean_gemm()
        bad = out.copy()
        bad[2, 1] ^= 1 << 7
        row, col = gemm_residues(a, b, c, 1, 1, bad)
        assert np.count_nonzero(row) == 1 and np.count_nonzero(col) == 1
        fixed = correct_single(bad, row, col)
        assert fixed is not None
        assert np.array_equal(fixed, out)

    def test_verify_gemm_statuses(self):
        a, b, c, out = clean_gemm()
        assert verify_gemm(a, b, c, 1, 1, out)[0] == "clean"
        single = out.copy()
        single[0, 3] ^= 1 << 2
        status, fixed = verify_gemm(a, b, c, 1, 1, single)
        assert status == "corrected"
        assert np.array_equal(fixed, out)
        multi = out.copy()
        multi[0, 0] ^= 1
        multi[3, 3] ^= 1
        assert verify_gemm(a, b, c, 1, 1, multi)[0] == "corrupt"

    def test_wrapping_arithmetic_matches_device_truncation(self):
        # int16 gemm that overflows: checksums must wrap exactly like the
        # device's int64-accumulate-then-truncate, or clean outputs would
        # be flagged
        rng = np.random.default_rng(3)
        a = rng.integers(-(2 ** 14), 2 ** 14, (4, 4)).astype(np.int16)
        b = rng.integers(-(2 ** 14), 2 ** 14, (4, 4)).astype(np.int16)
        c = np.zeros((4, 4), dtype=np.int16)
        out = (a.astype(np.int64) @ b.astype(np.int64)).astype(np.int16)
        assert verify_gemm(a, b, c, 1, 0, out)[0] == "clean"


class TestPoliciesAndCoverage:
    def test_policy_coercion(self):
        assert coerce_policy(None) == "off"
        for policy in INTEGRITY_POLICIES:
            assert coerce_policy(policy) == policy
        with pytest.raises(ValueError):
            coerce_policy("paranoid")

    def test_gemm_family_is_covered_conv_is_not(self, rng):
        gemm = gemm_batch(rng, 1)[0]
        assert covered(gemm)
        conv = conv_layer_request(
            1,
            rng.integers(0, 5, (18, 8)).astype(np.int16),
            rng.integers(-2, 2, (9, 3)).astype(np.int16),
        )
        assert not covered(conv)

    def test_digest_ledger_detects_divergence_on_repeat(self):
        ledger = DigestLedger()
        assert ledger.observe("k", b"x") is False  # first sighting: learn
        assert ledger.observe("k", b"x") is False  # confirmation
        assert ledger.observe("k", b"y") is True   # divergence
        # the entry is evicted on mismatch (the ledger cannot tell which
        # run was the corrupt one), so the next sighting relearns
        assert ledger.observe("k", b"y") is False

    def test_request_digest_tracks_payload(self, rng):
        first, second = gemm_batch(rng, 2)
        # request_id is not part of the identity; operands are
        clone = gemm_request(99, first.payload["inputs"]["a"], first.payload["inputs"]["b"])
        assert request_digest(first) == request_digest(clone)
        assert request_digest(first) != request_digest(second)

    def test_output_digest_is_content_addressed(self):
        a = np.arange(16, dtype=np.int16).reshape(4, 4)
        assert output_digest(a) == output_digest(a.copy())
        assert output_digest(a) != output_digest(a.T.copy())


class TestWorkerDetection:
    def test_flip_directive_raises_and_recovers(self, rng):
        worker = SystemWorker(0, CFG, integrity="abft")
        request = gemm_batch(rng, 1)[0]
        with pytest.raises(SilentCorruptionError):
            worker.run(
                request, directives=[CorruptionDirective("flip", site=5, value=0)]
            )
        # the corruption dies with the attempt: a clean rerun is correct
        result = worker.run(request)
        assert np.array_equal(result.output, expected_output(request))

    @pytest.mark.parametrize("kind,site", [("dma_corrupt", 2), ("vrf_flip", 0)])
    def test_transfer_and_register_corruption_detected(self, rng, kind, site):
        worker = SystemWorker(0, CFG, integrity="abft")
        request = gemm_batch(rng, 1)[0]
        with pytest.raises(SilentCorruptionError) as excinfo:
            worker.run(
                request, directives=[CorruptionDirective(kind, site=site, value=3)]
            )
        assert excinfo.value.fault_class == "corrupted"

    def test_digest_policy_detects_on_repeat(self, rng):
        worker = SystemWorker(0, CFG, integrity="digest")
        a = rng.integers(-5, 5, (4, 4)).astype(np.int16)
        b = rng.integers(-5, 5, (4, 4)).astype(np.int16)
        worker.run(gemm_request(0, a, b))  # ledger learns the clean digest
        with pytest.raises(SilentCorruptionError):
            worker.run(
                gemm_request(1, a, b),
                directives=[CorruptionDirective("flip", site=5, value=0)],
            )

    def test_dmr_detects_via_shadow_disagreement(self, rng):
        worker = SystemWorker(0, CFG, integrity="dmr")
        request = gemm_batch(rng, 1)[0]
        with pytest.raises(SilentCorruptionError) as excinfo:
            worker.run(
                request, directives=[CorruptionDirective("flip", site=5, value=0)]
            )
        assert "via dmr" in str(excinfo.value) or "via abft" in str(excinfo.value)

    def test_off_policy_attaches_no_ledger(self):
        assert SystemWorker(0, CFG).ledger is None
        assert SystemWorker(0, CFG, integrity="abft").ledger is not None


class TestReplayPoisoningDefense:
    def test_poisoned_recording_is_invalidated_and_retracted(self, rng):
        """A corruption that fires after the replay key is drawn poisons
        the recording; detection must invalidate it locally AND retract
        it from the fleet before any other worker replays it."""
        fleet = FleetReplayCache()
        workers = [
            SystemWorker(i, CFG, fleet=fleet, integrity="abft") for i in range(2)
        ]
        a = rng.integers(-5, 5, (4, 4)).astype(np.int16)
        b = rng.integers(-5, 5, (4, 4)).astype(np.int16)
        workers[0].run(gemm_request(2, a, b))  # warm-up: first sighting
        with pytest.raises(SilentCorruptionError):
            workers[0].run(
                gemm_request(0, a, b),
                directives=[CorruptionDirective("dma_corrupt", site=2, value=3)],
            )
        cache0 = workers[0].system.llc.runtime.replay_cache
        assert cache0.stats["invalidated"] >= 1
        assert fleet.stats["retracted"] >= 1
        # the second worker gets a replay MISS (the poisoned recording is
        # gone fleet-wide) and computes the correct answer from scratch
        request = gemm_request(1, a, b)
        result = workers[1].run(request)
        cache1 = workers[1].system.llc.runtime.replay_cache
        assert cache1.stats["fleet_hits"] == 0
        assert np.array_equal(result.output, expected_output(request))

    def test_end_to_end_outputs_stay_golden_with_shared_replay(self, rng):
        """Shared replay + DMA corruption: every completed output still
        matches the golden model (nothing ever replays poisoned rows)."""
        requests = gemm_batch(rng, 10)
        engine = ServingEngine(
            pool_size=2, config=CFG, share_replay=True, integrity="abft",
        )
        report = engine.serve(
            requests, verify=True, faults="dma_corrupt:0.4", fault_seed=7,
        )
        assert report.verified is True
        assert sum(report.integrity["injected"].values()) > 0


class TestServingIntegration:
    def test_abft_recall_is_one_and_detected_requests_recover(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG, integrity="abft")
        report = engine.serve(
            gemm_batch(rng, 12), verify="report", faults="flip:0.5", fault_seed=3,
        )
        integ = report.integrity
        assert integ["policy"] == "abft"
        assert integ["injected"]["flip"] > 0
        assert integ["detected"] > 0
        # every detected request escalated through retry back to ok
        assert integ["recovered"] == integ["detected"]
        assert integ["undetected"] == 0
        assert integ["recall"] == 1.0
        assert integ["covered"]["recall"] == 1.0
        assert integ["escalations"]["escalations"] >= integ["detected"]
        assert all(r.status == "ok" for r in report.results)

    def test_exhausted_escalation_is_failed_corrupted(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG, integrity="abft")
        report = engine.serve(
            gemm_batch(rng, 6), faults="flip:1", fault_seed=1,
            retry=RetryPolicy(max_attempts=1),
        )
        failed = [r for r in report.results if r.status == "failed"]
        assert failed
        assert all(r.fault_class == "corrupted" for r in failed)
        by_class = report.availability["failed_attempts_by_class"]
        assert by_class.get("corrupted", 0) == len(failed)

    def test_report_mode_marks_undetected_corruption(self, rng):
        """No integrity policy: injected flips sail through undetected;
        validate='report' flags them corrupted without aborting the batch
        and the recall accounting shows the misses."""
        engine = ServingEngine(pool_size=2, config=CFG)
        report = engine.serve(
            gemm_batch(rng, 12), verify="report", faults="flip:0.5", fault_seed=3,
        )
        integ = report.integrity
        assert integ["policy"] == "off"
        assert integ["detected"] == 0
        corrupted = [r for r in report.results if r.status == "corrupted"]
        assert corrupted
        assert integ["undetected"] == len(corrupted)
        assert integ["recall"] < 1.0
        for result in corrupted:
            assert result.output is not None  # kept for forensics
            assert result.fault_class == "corrupted"
            assert "differ" in result.error
        # statuses and latency stats keep counting corrupted completions
        assert report.availability["statuses"]["corrupted"] == len(corrupted)
        assert report.n_requests == 12

    def test_strict_mode_still_raises(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG)
        with pytest.raises(AssertionError, match="mismatch the golden model"):
            engine.serve(
                gemm_batch(rng, 12), verify="strict", faults="flip:0.5",
                fault_seed=3,
            )

    def test_stuck_line_arc_detect_quarantine_rebuild_reinstate(self, rng):
        """A stuck cache line keeps corrupting worker 0 until the
        supervisor quarantines it; the rebuild replaces the silicon (and
        the stuck line), and the worker comes back clean."""
        engine = ServingEngine(pool_size=2, config=CFG, integrity="abft")
        report = engine.serve(
            gemm_batch(rng, 10), verify="report",
            faults="stuck_line:0@1", fault_seed=10,
        )
        integ = report.integrity
        assert integ["injected"]["stuck_line"] == 1
        assert integ["detected"] >= 1
        assert integ["undetected"] == 0
        events = [e["event"] for e in report.availability["worker_events"]]
        assert "quarantined" in events
        assert report.per_worker[0]["rebuilds"] >= 1
        assert all(r.status == "ok" for r in report.results)

    def test_dmr_policy_detects_and_recovers(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG, integrity="dmr")
        report = engine.serve(
            gemm_batch(rng, 6), verify="report", faults="flip:0.4", fault_seed=5,
        )
        integ = report.integrity
        assert integ["detected"] > 0
        assert integ["recovered"] == integ["detected"]
        assert integ["recall"] == 1.0

    def test_integrity_events_ride_on_results(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG, integrity="abft")
        report = engine.serve(
            gemm_batch(rng, 8), faults="flip:0.5", fault_seed=3,
        )
        events = [
            event
            for result in report.results
            if result.integrity
            for event in result.integrity.get("events", [])
        ]
        assert events  # at least one benign flip survived to a result
        assert all(e["kind"] in CORRUPTION_KINDS for e in events)

    def test_online_serving_carries_integrity_section(self, rng):
        engine = ServingEngine(pool_size=2, config=CFG, integrity="abft")
        report = engine.serve_online(
            gemm_batch(rng, 8), traffic="poisson:25", seed=7,
            verify="report", faults="flip:0.4", fault_seed=2,
        )
        integ = report.integrity
        assert integ["recall"] == 1.0
        assert report.as_dict()["integrity"] == integ


class TestOffModeBitIdentity:
    def test_no_plan_off_policy_leaves_reports_unchanged(self, rng):
        """IntegrityPolicy off + no fault plan: no integrity section, the
        legacy availability schema, and bit-identical outputs/cycles to a
        default engine — the zero-cost-when-off contract."""
        requests = gemm_batch(rng, 6)
        base = ServingEngine(pool_size=2, config=CFG).serve(requests)
        off = ServingEngine(pool_size=2, config=CFG, integrity="off").serve(requests)
        assert base.integrity is None and off.integrity is None
        assert "integrity" not in base.as_dict()
        assert sorted(base.availability["statuses"]) == [
            "failed", "ok", "shed", "timed_out"
        ]
        for a, b in zip(base.results, off.results):
            assert np.array_equal(a.output, b.output)
            assert a.sim_cycles == b.sim_cycles
            assert a.integrity is None and b.integrity is None

    def test_legacy_injected_schema_has_no_corruption_keys(self, rng):
        report = ServingEngine(pool_size=2, config=CFG).serve(
            gemm_batch(rng, 4), faults="kill:0.2", fault_seed=3,
        )
        assert sorted(report.availability["injected_faults"]) == [
            "crash_worker", "kill", "slow", "transient"
        ]
        assert report.integrity is None
