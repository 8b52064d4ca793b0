"""Fast-path equivalence suite: replayed kernels must be bit-exact.

Every test pairs a fast-path system (kernel replay cache on, the default)
with a slow-path twin (``fastpath=False``) driven through the identical
request sequence, and requires *everything observable* to match: outputs,
``RunReport`` cycle counts, phase breakdowns and stats counters.  The
replay-cache bookkeeping itself (hits / misses / recorded / bypassed)
lives in ``RunReport.replay`` precisely so the simulated-world metrics
can be compared wholesale.
"""

import numpy as np
import pytest

from repro.compiler import (
    FUNC5_CGEMM,
    FUNC5_DWCONV2D,
    FUNC5_EWISE_ADD,
    FUNC5_EWISE_MUL,
    FUNC5_FC,
    FUNC5_ROWSUM,
)
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem
from repro.runtime.kernel_lib import KernelSpec
from repro.runtime.kernels.common import conv_output_shape, pool_output_shape
from repro.runtime.replay import ReplayCache
from repro.serve import (
    ServingEngine,
    SystemWorker,
    conv_layer_request,
    expected_output,
    gemm_request,
    kernel_request,
)

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)
SLOW = CFG.with_fastpath(False)


def assert_reports_equal(fast, slow, label=""):
    assert fast.total_cycles == slow.total_cycles, f"{label}: total_cycles differ"
    assert fast.host_cycles == slow.host_cycles, f"{label}: host_cycles differ"
    assert fast.stats == slow.stats, f"{label}: stats counters differ"
    assert fast.breakdown.cycles == slow.breakdown.cycles, f"{label}: breakdown differs"
    fast_per = {k: b.cycles for k, b in fast.per_kernel.items()}
    slow_per = {k: b.cycles for k, b in slow.per_kernel.items()}
    assert fast_per == slow_per, f"{label}: per-kernel breakdowns differ"
    assert fast.load_values == slow.load_values, f"{label}: load values differ"


def paired_workers():
    return SystemWorker(0, CFG), SystemWorker(0, SLOW)


def run_both(request, fast_worker, slow_worker):
    fast = fast_worker.run(request)
    slow = slow_worker.run(request)
    assert np.array_equal(fast.output, slow.output)
    assert fast.sim_cycles == slow.sim_cycles
    for fast_report, slow_report in zip(fast.reports, slow.reports):
        assert_reports_equal(fast_report, slow_report, request.kind)
    return fast, slow


class TestRepeatedLaunches:
    def test_repeated_gemm_hits_and_stays_bit_exact(self, rng):
        a = rng.integers(-6, 6, (10, 12)).astype(np.int16)
        b = rng.integers(-6, 6, (12, 8)).astype(np.int16)
        c = rng.integers(-6, 6, (10, 8)).astype(np.int16)
        fast_worker, slow_worker = paired_workers()
        # warm-up: a key's first sighting is only remembered
        run_both(gemm_request(4, a, b, c, alpha=2, beta=-1), fast_worker, slow_worker)
        results = []
        for i in range(4):
            request = gemm_request(i, a, b, c, alpha=2, beta=-1)
            fast, _ = run_both(request, fast_worker, slow_worker)
            results.append(fast)
        # the second sighting records, later identical launches replay
        assert results[0].reports[0].replay["misses"] == 1
        assert results[0].reports[0].replay["recorded"] == 1
        for result in results[1:]:
            assert result.reports[0].replay["hits"] == 1
        # the slow path must not even have a replay cache attached
        assert slow_worker.system.llc.runtime.replay_cache is None

    def test_data_change_misses_but_stays_correct(self, rng):
        fast_worker, slow_worker = paired_workers()
        for i in range(3):
            a = rng.integers(-6, 6, (6, 6)).astype(np.int16)
            b = rng.integers(-6, 6, (6, 6)).astype(np.int16)
            c = np.zeros((6, 6), dtype=np.int16)
            request = gemm_request(i, a, b, c, alpha=1, beta=0)
            fast, _ = run_both(request, fast_worker, slow_worker)
            assert np.array_equal(fast.output, expected_output(request))
            assert fast.reports[0].replay["hits"] == 0
            assert fast.reports[0].replay["misses"] == 1


def _run_gemm(system, a, b, c, alpha, beta):
    ma, mb, mc = (system.place_matrix(m) for m in (a, b, c))
    out = system.alloc_matrix((a.shape[0], b.shape[1]), a.dtype)
    with system.program() as prog:
        prog.xmr(0, ma).xmr(1, mb).xmr(2, mc).xmr(3, out)
        prog.gemm(dest=3, a=0, b=1, c=2, alpha=alpha, beta=beta,
                  suffix=ma.etype.suffix)
    return system.read_matrix(out), system.last_report


def _run_leaky_relu(system, x):
    mx = system.place_matrix(x)
    out = system.alloc_matrix(x.shape, x.dtype)
    with system.program() as prog:
        prog.xmr(0, mx).xmr(1, out)
        prog.leaky_relu(dest=1, src=0, alpha=3, suffix=mx.etype.suffix)
    return system.read_matrix(out), system.last_report


def _run_maxpool(system, x):
    shape = pool_output_shape(x.shape[0], x.shape[1], 2, 2)
    mx = system.place_matrix(x)
    out = system.alloc_matrix(shape, x.dtype)
    with system.program() as prog:
        prog.xmr(0, mx).xmr(1, out)
        prog.maxpool(dest=1, src=0, window=2, stride=2, suffix=mx.etype.suffix)
    return system.read_matrix(out), system.last_report


def _run_conv2d(system, x, f):
    shape = conv_output_shape(x.shape[0], x.shape[1], f.shape[0])
    mx, mf = system.place_matrix(x), system.place_matrix(f)
    out = system.alloc_matrix(shape, x.dtype)
    with system.program() as prog:
        prog.xmr(0, mx).xmr(1, mf).xmr(2, out)
        prog.conv2d(dest=2, src=0, flt=1, suffix=mx.etype.suffix)
    return system.read_matrix(out), system.last_report


HANDWRITTEN_CASES = {
    "gemm_beta0": lambda system, rng: _run_gemm(
        system,
        rng.integers(-6, 6, (7, 9)).astype(np.int16),
        rng.integers(-6, 6, (9, 11)).astype(np.int16),
        np.zeros((7, 11), dtype=np.int16),
        alpha=1, beta=0,
    ),
    "gemm_beta": lambda system, rng: _run_gemm(
        system,
        rng.integers(-6, 6, (7, 9)).astype(np.int32),
        rng.integers(-6, 6, (9, 5)).astype(np.int32),
        rng.integers(-6, 6, (7, 5)).astype(np.int32),
        alpha=3, beta=-2,
    ),
    "leaky_relu": lambda system, rng: _run_leaky_relu(
        system, rng.integers(-100, 100, (6, 14)).astype(np.int16)
    ),
    "maxpool": lambda system, rng: _run_maxpool(
        system, rng.integers(-50, 50, (8, 12)).astype(np.int16)
    ),
    "conv2d": lambda system, rng: _run_conv2d(
        system,
        rng.integers(-8, 8, (10, 10)).astype(np.int8),
        rng.integers(-3, 3, (3, 3)).astype(np.int8),
    ),
}


class TestAllKernelsBitExact:
    @pytest.mark.parametrize("name", sorted(HANDWRITTEN_CASES))
    def test_handwritten_kernel_replay_is_bit_exact(self, name, rng):
        runner = HANDWRITTEN_CASES[name]
        fast = ArcaneSystem(CFG)
        slow = ArcaneSystem(SLOW)
        for launch in range(4):  # launch 0 is the warm-up (first sighting)
            seeded = np.random.default_rng(123)
            out_fast, rep_fast = runner(fast, seeded)
            seeded = np.random.default_rng(123)
            out_slow, rep_slow = runner(slow, seeded)
            assert np.array_equal(out_fast, out_slow), f"{name} launch {launch}"
            assert_reports_equal(rep_fast, rep_slow, f"{name} launch {launch}")
            fast.reset_heap()
            slow.reset_heap()
        # the third and fourth launches must have been replays, not re-runs
        assert fast.llc.runtime.replay_cache.stats["hits"] >= 2

    def test_conv_layer_prefetch_replay_is_bit_exact(self, rng):
        x = rng.integers(-8, 8, (3 * 14, 14)).astype(np.int8)
        f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
        fast_worker, slow_worker = paired_workers()
        for i in range(3):
            run_both(conv_layer_request(i, x, f), fast_worker, slow_worker)

    @pytest.mark.parametrize(
        "func5,builder",
        [
            (FUNC5_CGEMM, lambda rng: ([
                rng.integers(-5, 5, (6, 8)).astype(np.int16),
                rng.integers(-5, 5, (8, 7)).astype(np.int16),
                rng.integers(-5, 5, (6, 7)).astype(np.int16),
            ], (6, 7), (2, 1))),
            (FUNC5_DWCONV2D, lambda rng: ([
                rng.integers(-6, 6, (2 * 8, 9)).astype(np.int16),
                rng.integers(-3, 3, (2 * 3, 3)).astype(np.int16),
            ], (2 * 6, 7), ())),
            (FUNC5_FC, lambda rng: ([
                rng.integers(-8, 8, (1, 24)).astype(np.int16),
                rng.integers(-8, 8, (24, 10)).astype(np.int16),
                rng.integers(-8, 8, (1, 10)).astype(np.int16),
            ], (1, 10), ())),
            (FUNC5_EWISE_ADD, lambda rng: ([
                rng.integers(-50, 50, (5, 13)).astype(np.int8),
                rng.integers(-50, 50, (5, 13)).astype(np.int8),
            ], (5, 13), ())),
            (FUNC5_EWISE_MUL, lambda rng: ([
                rng.integers(-10, 10, (4, 9)).astype(np.int32),
                rng.integers(-10, 10, (4, 9)).astype(np.int32),
            ], (4, 9), ())),
            (FUNC5_ROWSUM, lambda rng: ([
                rng.integers(-20, 20, (6, 15)).astype(np.int16),
            ], (6, 1), ())),
        ],
    )
    def test_compiled_kernel_replay_is_bit_exact(self, func5, builder, rng):
        inputs, out_shape, params = builder(rng)
        fast_worker, slow_worker = paired_workers()
        for i in range(3):
            request = kernel_request(i, func5, inputs, out_shape, params=params)
            fast, _ = run_both(request, fast_worker, slow_worker)
            assert np.array_equal(fast.output, expected_output(request))


class TestServingEquivalence:
    def _repeated_requests(self, rng, count=12):
        a = rng.integers(-6, 6, (8, 10)).astype(np.int16)
        b = rng.integers(-6, 6, (10, 6)).astype(np.int16)
        c = rng.integers(-6, 6, (8, 6)).astype(np.int16)
        x = rng.integers(-8, 8, (3 * 10, 10)).astype(np.int8)
        f = rng.integers(-2, 3, (6, 2)).astype(np.int8)
        requests = []
        for rid in range(count):
            if rid % 2:
                requests.append(conv_layer_request(rid, x, f))
            else:
                requests.append(gemm_request(rid, a, b, c, alpha=1, beta=1))
        return requests

    def test_offline_serving_bit_exact(self, rng):
        requests = self._repeated_requests(rng)
        fast = ServingEngine(pool_size=2, config=CFG)
        slow = ServingEngine(pool_size=2, config=SLOW)
        fast_report = fast.serve(requests, verify=True)
        slow_report = slow.serve(requests, verify=True)
        for fr, sr in zip(fast_report.results, slow_report.results):
            assert np.array_equal(fr.output, sr.output)
            assert fr.sim_cycles == sr.sim_cycles
            assert fr.worker == sr.worker
        assert fast_report.total_sim_cycles == slow_report.total_sim_cycles

    def test_online_serving_bit_exact(self, rng):
        requests = self._repeated_requests(rng)
        fast = ServingEngine(pool_size=2, config=CFG)
        slow = ServingEngine(pool_size=2, config=SLOW)
        fast_report = fast.serve_online(requests, traffic="poisson:25", seed=11,
                                        verify=True)
        slow_report = slow.serve_online(requests, traffic="poisson:25", seed=11,
                                        verify=True)
        for fr, sr in zip(fast_report.results, slow_report.results):
            assert np.array_equal(fr.output, sr.output)
            assert fr.arrival_cycle == sr.arrival_cycle
            assert fr.start_cycle == sr.start_cycle
            assert fr.completion_cycle == sr.completion_cycle
            assert fr.queue_delay_cycles == sr.queue_delay_cycles
            assert fr.latency_cycles == sr.latency_cycles


class TestLifecycleInvalidation:
    def test_replay_survives_free_matrix_relocation(self, rng):
        """Recordings are position-independent: shifting the operands to
        different heap addresses (via an interposed allocation and a
        free) must keep replaying bit-exactly."""
        a = rng.integers(-6, 6, (6, 8)).astype(np.int16)
        b = rng.integers(-6, 6, (8, 6)).astype(np.int16)
        c = rng.integers(-6, 6, (6, 6)).astype(np.int16)
        fast = ArcaneSystem(CFG)
        slow = ArcaneSystem(SLOW)

        def sequence(system):
            outs = []
            _run_gemm(system, a, b, c, 2, -1)  # warm-up: first sighting
            system.reset_heap()
            out, report = _run_gemm(system, a, b, c, 2, -1)
            outs.append((out, report))
            system.reset_heap()
            # shift the heap layout: a live spacer matrix relocates the
            # gemm operands, then gets freed mid-sequence
            spacer = system.place_matrix(
                np.ones((3, 40), dtype=np.int32), "spacer"
            )
            out, report = _run_gemm(system, a, b, c, 2, -1)
            outs.append((out, report))
            system.free_matrix(spacer)
            out, report = _run_gemm(system, a, b, c, 2, -1)
            outs.append((out, report))
            system.reset_heap()
            return outs

        fast_outs = sequence(fast)
        slow_outs = sequence(slow)
        for i, ((fo, fr), (so, sr)) in enumerate(zip(fast_outs, slow_outs)):
            assert np.array_equal(fo, so), f"step {i}"
            assert_reports_equal(fr, sr, f"step {i}")
        # The spacer-relocated launch replayed (same geometry + data at
        # new addresses).  The post-free launch may legitimately re-record
        # instead: leftover dirty lines steer the fewest-dirty policy to
        # the other VPU, and recordings are per-VPU by key.
        assert fast.llc.runtime.replay_cache.stats["hits"] >= 1

    def test_reprogramming_a_slot_invalidates_recordings(self, rng):
        a = rng.integers(-6, 6, (5, 5)).astype(np.int16)
        b = rng.integers(-6, 6, (5, 5)).astype(np.int16)
        c = np.zeros((5, 5), dtype=np.int16)
        system = ArcaneSystem(CFG)
        _run_gemm(system, a, b, c, 1, 0)  # warm-up: first sighting
        system.reset_heap()
        out, _ = _run_gemm(system, a, b, c, 1, 0)
        system.reset_heap()
        out2, _ = _run_gemm(system, a, b, c, 1, 0)
        system.reset_heap()
        assert system.llc.runtime.replay_cache.stats["hits"] == 1

        library = system.llc.runtime.library
        original = library.lookup(0)

        def zero_body(kc, kernel, shard=None):
            window = kc.claim(1)
            for i in range(kernel.dest.rows):
                yield from kc.vop(
                    __import__("repro.vpu.visa", fromlist=["VectorOpcode"])
                    .VectorOpcode.VCLEAR,
                    vd=window[0], vl=kernel.dest.cols,
                )
                yield from kc.store_rows(window, kernel.dest, i, 1)

        library.register(
            KernelSpec(0, "gemm_zero", original.preamble, zero_body), replace=True
        )
        out3, _ = _run_gemm(system, a, b, c, 1, 0)
        assert np.array_equal(out3, np.zeros((5, 5), dtype=np.int16))
        assert system.llc.runtime.replay_cache.stats["invalidated"] >= 1


class TestDestReadingKernels:
    def test_dest_data_is_part_of_the_key(self, rng):
        """A custom kernel may load and branch on its *destination*
        region (read-modify-write).  Changing only the dest data must be
        a cache miss — never a replay against a stale stream."""
        from repro.compiler import make_gemm_spec
        from repro.vpu.visa import VectorOpcode

        gemm_preamble = make_gemm_spec().preamble

        def double_if_first_nonzero(kc, kernel, shard=None):
            # loads dest row 0, reads element 0, and branches on it
            window = kc.claim(1)
            dest = kernel.dest
            yield from kc.load_rows(window, dest, 0, 1)
            first = yield from kc.read_element(window[0], 0)
            if first != 0:
                yield from kc.vop(
                    VectorOpcode.VADD_VS, vd=window[0], vs1=window[0],
                    scalar=first, vl=dest.cols,
                )
            yield from kc.store_rows(window, dest, 0, 1)

        a = rng.integers(-4, 4, (4, 4)).astype(np.int16)  # sources held fixed
        outs = {}
        for fastpath in (True, False):
            system = ArcaneSystem(CFG.with_fastpath(fastpath))
            system.llc.runtime.library.register(
                KernelSpec(9, "rmw", gemm_preamble, double_if_first_nonzero)
            )
            outs[fastpath] = []
            for first_value in (5, 0, 7):
                d = np.full((4, 4), first_value, dtype=np.int16)
                ma = system.place_matrix(a)
                md = system.place_matrix(d)
                from repro.isa.xmnmc import pack_pair

                with system.program() as prog:
                    prog.xmr(0, ma).xmr(1, ma).xmr(2, ma).xmr(3, md)
                    prog.xmk(9, "h", rs1=pack_pair(1, 0),
                             rs2=pack_pair(2, 3), rs3=pack_pair(0, 1))
                outs[fastpath].append(
                    (system.read_matrix(md), system.last_report.total_cycles)
                )
                system.reset_heap()
        for (fast_out, fast_cycles), (slow_out, slow_cycles) in zip(
            outs[True], outs[False]
        ):
            assert np.array_equal(fast_out, slow_out)
            assert fast_cycles == slow_cycles


class TestFastpathSwitches:
    def test_tracing_disables_fastpath(self):
        assert ArcaneSystem(CFG, trace=True).llc.runtime.replay_cache is None

    def test_disabled_fastpath_reports_empty_replay_block(self, rng):
        a = rng.integers(-4, 4, (4, 4)).astype(np.int16)
        system = ArcaneSystem(SLOW)
        _, report = _run_gemm(system, a, a, np.zeros((4, 4), np.int16), 1, 0)
        assert report.replay == {}


class TestReplayCacheMechanics:
    def test_capacity_bound_evicts_oldest(self):
        system = ArcaneSystem(CFG)
        cache = ReplayCache(system.llc.runtime.library, capacity=2)
        from repro.runtime.replay import Recording

        for key in ("k1", "k2", "k3"):
            cache.store(key, Recording(0, []))
        assert len(cache) == 2
        assert cache.lookup("k1") is None
        assert cache.lookup("k3") is not None

    def test_lru_refresh_protects_hot_entries(self):
        system = ArcaneSystem(CFG)
        cache = ReplayCache(system.llc.runtime.library, capacity=2)
        from repro.runtime.replay import Recording

        cache.store("hot", Recording(0, []))
        cache.store("cold1", Recording(0, []))
        assert cache.lookup("hot") is not None  # refreshes recency
        cache.store("cold2", Recording(0, []))  # evicts cold1, not hot
        assert cache.lookup("hot") is not None
        assert cache.lookup("cold1") is None

    def test_environment_mismatch_bypasses_instead_of_replaying(self, rng):
        """A perturbed VRF free list must route identical launches down
        the slow path (bypassed), still bit-exact vs. an identically
        perturbed slow system."""
        a = rng.integers(-6, 6, (5, 7)).astype(np.int16)
        b = rng.integers(-6, 6, (7, 5)).astype(np.int16)
        c = np.zeros((5, 5), dtype=np.int16)
        fast = ArcaneSystem(CFG)
        slow = ArcaneSystem(SLOW)
        for system in (fast, slow):
            _run_gemm(system, a, b, c, 1, 0)  # warm-up: first sighting
            system.reset_heap()
            out, _ = _run_gemm(system, a, b, c, 1, 0)
            system.reset_heap()
        # perturb both systems identically: pin one vector register on
        # every VPU so the free list no longer matches the recording
        for system in (fast, slow):
            for vpu_index in range(system.config.n_vpus):
                system.llc.runtime.allocator.claim(vpu_index, 1)
        out_fast, rep_fast = _run_gemm(fast, a, b, c, 1, 0)
        out_slow, rep_slow = _run_gemm(slow, a, b, c, 1, 0)
        assert np.array_equal(out_fast, out_slow)
        assert_reports_equal(rep_fast, rep_slow, "perturbed")
        assert rep_fast.replay["bypassed"] == 1
        assert rep_fast.replay["hits"] == 0


class TestSecondSightingAdmission:
    """A key is recorded on its second miss; a fleet recording replays on
    the first local sighting."""

    @staticmethod
    def _gemm(rid, rng):
        return gemm_request(
            rid,
            rng.integers(-6, 6, (6, 9)).astype(np.int16),
            rng.integers(-6, 6, (9, 7)).astype(np.int16),
            rng.integers(-6, 6, (6, 7)).astype(np.int16),
            alpha=3, beta=2,
        )

    def test_one_off_keys_store_nothing(self, rng):
        worker = SystemWorker(0, CFG)
        for rid in range(5):  # fresh operand bytes every request
            result = worker.run(self._gemm(rid, rng))
            assert result.reports[0].replay["misses"] == 1
            assert result.reports[0].replay["recorded"] == 0
        cache = worker.system.llc.runtime.replay_cache
        assert cache.stats["recorded"] == 0
        assert len(cache) == 0

    def test_second_sighting_records_third_replays(self, rng):
        request = self._gemm(0, rng)
        fast_worker, slow_worker = paired_workers()
        outcomes = []
        for _ in range(3):
            fast, _ = run_both(request, fast_worker, slow_worker)
            replay = fast.reports[0].replay
            outcomes.append((replay["misses"], replay["recorded"], replay["hits"]))
        assert outcomes == [(1, 0, 0), (1, 1, 0), (0, 0, 1)]
        assert len(fast_worker.system.llc.runtime.replay_cache) == 1

    def test_remembered_keys_stay_within_capacity(self):
        cache = ReplayCache(ArcaneSystem(CFG).llc.runtime.library, capacity=2)
        assert [cache.admit(key) for key in ("k1", "k2", "k3")] == [False] * 3
        assert len(cache._sighted) == 2
        assert cache.admit("k1") is False  # forgotten: oldest past the bound
        assert cache.admit("k3") is True  # remembered: its second sighting
        assert len(cache._sighted) <= cache.capacity

    def test_fleet_recording_replays_on_first_local_sighting(self, rng):
        from repro.serve import FleetReplayCache

        fleet = FleetReplayCache()
        first, second = (SystemWorker(i, CFG, fleet=fleet) for i in range(2))
        request = self._gemm(0, rng)
        slow = SystemWorker(0, SLOW)
        run_both(request, first, slow)
        run_both(request, first, slow)  # second sighting: records, publishes
        adopted, _ = run_both(request, second, SystemWorker(1, SLOW))
        assert adopted.reports[0].replay["hits"] == 1
        assert adopted.reports[0].replay["misses"] == 0
        assert second.system.llc.runtime.replay_cache.stats["fleet_hits"] == 1
