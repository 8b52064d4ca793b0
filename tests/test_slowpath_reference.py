"""The slow kernel path pinned to reference results.

Every scenario here runs with the replay fast path off
(``fastpath=False`` in both configs), so each launch executes its kernel body
through :class:`~repro.runtime.context.KernelContext`.  The reference
file ``data/slowpath_reference.json`` holds, per run, the total and host
cycles, the phase breakdowns, ``RunReport.stats`` and a digest of the
output.  It was captured from a context that suspended the event loop
once per vector instruction, so these tests pin the run-ahead context
(compute charged at the next synchronisation point) to the same
simulated results.  Covered:

* every handwritten and compiled library kernel on a small machine;
* multi-VPU sharded ``conv_layer`` at the paper's int8 3x3 and 7x7
  multi-instance points (4 VPUs x 8 lanes), at a small image size;
* prefetching convolutions (``conv2d`` and ``conv_layer`` double-buffer
  their input rows), including the per-channel filter-register layout;
* a host access to an unrelated address issued mid-kernel, at several
  instants, so it stalls on the LLC lock the kernel's DMA holds (during
  ``conv_layer`` and during a compiled gemm whose strip loads fall
  between compute runs);
* online serving with ``kill``/``transient`` faults;
* ``vrf_flip`` and ``dma_corrupt`` injection runs under ABFT checking.

``TestResumptionCount`` checks the point of the run-ahead context: a
single-VPU launch resumes the simulator once per synchronisation point
(DMA lock section or prefetch wait), not once per vector instruction.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

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
from repro.runtime.context import KernelContext
from repro.runtime.kernels.common import conv_output_shape, pool_output_shape
from repro.runtime.kernels.conv_layer import conv_layer_shapes
from repro.serve import (
    GraphNode,
    ServingEngine,
    SystemWorker,
    conv_layer_request,
    gemm_request,
    graph_request,
    kernel_request,
)
from repro.sim.kernel import Process

REFERENCE_PATH = pathlib.Path(__file__).parent / "data" / "slowpath_reference.json"

CFG = ArcaneConfig(
    n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512,
    fastpath=False,
)
#: the paper's machine (4 VPUs x 8 lanes) in multi-instance mode
PAPER_MULTI = ArcaneConfig(fastpath=False).with_lanes(8).with_multi_vpu(True)


def digest(array) -> str:
    array = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=12)
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def observe_report(report) -> dict:
    return {
        "total_cycles": report.total_cycles,
        "host_cycles": report.host_cycles,
        "breakdown": dict(report.breakdown.cycles),
        "per_kernel": {
            str(kernel): dict(b.cycles) for kernel, b in sorted(report.per_kernel.items())
        },
        "stats": dict(sorted(report.stats.items())),
        "load_values": list(report.load_values),
        "outcomes": [outcome.value for outcome in report.outcomes],
    }


def observe_run(output, report) -> dict:
    return {"output": digest(output), **observe_report(report)}


def observe_result(result) -> dict:
    return {
        "request_id": result.request_id,
        "status": result.status,
        "worker": result.worker,
        "attempts": result.attempts,
        "fault_class": result.fault_class,
        "sim_cycles": result.sim_cycles,
        "arrival_cycle": result.arrival_cycle,
        "start_cycle": result.start_cycle,
        "completion_cycle": result.completion_cycle,
        "output": None if result.output is None else digest(result.output),
        "reports": [observe_report(report) for report in result.reports],
    }


def canonical(value):
    """JSON round trip: what the reference file can hold."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


# -- handwritten kernels, driven through the host program API ---------------


def run_gemm(system, a, b, c, alpha, beta):
    ma, mb, mc = (system.place_matrix(m) for m in (a, b, c))
    out = system.alloc_matrix((a.shape[0], b.shape[1]), a.dtype)
    with system.program() as prog:
        prog.xmr(0, ma).xmr(1, mb).xmr(2, mc).xmr(3, out)
        prog.gemm(dest=3, a=0, b=1, c=2, alpha=alpha, beta=beta,
                  suffix=ma.etype.suffix)
    return system.read_matrix(out), system.last_report


def run_leaky_relu(system, x):
    mx = system.place_matrix(x)
    out = system.alloc_matrix(x.shape, x.dtype)
    with system.program() as prog:
        prog.xmr(0, mx).xmr(1, out)
        prog.leaky_relu(dest=1, src=0, alpha=3, suffix=mx.etype.suffix)
    return system.read_matrix(out), system.last_report


def run_maxpool(system, x):
    mx = system.place_matrix(x)
    out = system.alloc_matrix(pool_output_shape(x.shape[0], x.shape[1], 2, 2), x.dtype)
    with system.program() as prog:
        prog.xmr(0, mx).xmr(1, out)
        prog.maxpool(dest=1, src=0, window=2, stride=2, suffix=mx.etype.suffix)
    return system.read_matrix(out), system.last_report


def run_conv2d(system, x, f):
    mx, mf = system.place_matrix(x), system.place_matrix(f)
    out = system.alloc_matrix(conv_output_shape(x.shape[0], x.shape[1], f.shape[0]),
                              x.dtype)
    with system.program() as prog:
        prog.xmr(0, mx).xmr(1, mf).xmr(2, out)
        prog.conv2d(dest=2, src=0, flt=1, suffix=mx.etype.suffix)
    return system.read_matrix(out), system.last_report


def ints(rng, low, high, shape, dtype):
    return rng.integers(low, high, shape).astype(dtype)


HANDWRITTEN = {
    "gemm_beta0": lambda s, r: run_gemm(
        s, ints(r, -6, 6, (7, 9), np.int16), ints(r, -6, 6, (9, 11), np.int16),
        np.zeros((7, 11), np.int16), 1, 0),
    "gemm_beta_i32": lambda s, r: run_gemm(
        s, ints(r, -6, 6, (7, 9), np.int32), ints(r, -6, 6, (9, 5), np.int32),
        ints(r, -6, 6, (7, 5), np.int32), 3, -2),
    "gemm_i8_wrap": lambda s, r: run_gemm(
        s, ints(r, -128, 128, (6, 10), np.int8), ints(r, -128, 128, (10, 6), np.int8),
        ints(r, -128, 128, (6, 6), np.int8), 7, 5),
    "leaky_relu": lambda s, r: run_leaky_relu(s, ints(r, -100, 100, (6, 14), np.int16)),
    "maxpool": lambda s, r: run_maxpool(s, ints(r, -50, 50, (8, 12), np.int16)),
    "conv2d_prefetch": lambda s, r: run_conv2d(
        s, ints(r, -8, 8, (12, 12), np.int8), ints(r, -3, 3, (3, 3), np.int8)),
    "conv_layer_prefetch_i8": lambda s, r: s.run_conv_layer(
        ints(r, -8, 8, (3 * 14, 14), np.int8), ints(r, -2, 3, (9, 3), np.int8)),
    # 3*5*5 taps overflow one 64-element int32 register: per-channel planes
    "conv_layer_plane_filters_i32": lambda s, r: s.run_conv_layer(
        ints(r, -8, 8, (3 * 12, 12), np.int32), ints(r, -2, 3, (15, 5), np.int32)),
}


def handwritten(name: str) -> dict:
    system = ArcaneSystem(CFG)
    output, report = HANDWRITTEN[name](system, np.random.default_rng([11, len(name)]))
    return observe_run(output, report)


# -- compiled kernels, driven through a serving worker ------------------------


COMPILED = {
    "cgemm": (FUNC5_CGEMM, lambda r: (
        [ints(r, -5, 5, (6, 8), np.int16), ints(r, -5, 5, (8, 7), np.int16),
         ints(r, -5, 5, (6, 7), np.int16)], (6, 7), (2, 1))),
    "dwconv2d": (FUNC5_DWCONV2D, lambda r: (
        [ints(r, -6, 6, (2 * 8, 9), np.int16), ints(r, -3, 3, (2 * 3, 3), np.int16)],
        (2 * 6, 7), ())),
    "fc": (FUNC5_FC, lambda r: (
        [ints(r, -8, 8, (1, 24), np.int16), ints(r, -8, 8, (24, 10), np.int16),
         ints(r, -8, 8, (1, 10), np.int16)], (1, 10), ())),
    "ewise_add": (FUNC5_EWISE_ADD, lambda r: (
        [ints(r, -50, 50, (5, 13), np.int8), ints(r, -50, 50, (5, 13), np.int8)],
        (5, 13), ())),
    "ewise_mul": (FUNC5_EWISE_MUL, lambda r: (
        [ints(r, -10, 10, (4, 9), np.int32), ints(r, -10, 10, (4, 9), np.int32)],
        (4, 9), ())),
    "rowsum": (FUNC5_ROWSUM, lambda r: (
        [ints(r, -20, 20, (6, 15), np.int16)], (6, 1), ())),
}


def compiled(name: str) -> dict:
    func5, builder = COMPILED[name]
    inputs, out_shape, params = builder(np.random.default_rng([12, len(name)]))
    result = SystemWorker(0, CFG).run(
        kernel_request(0, func5, inputs, out_shape, params=params)
    )
    return observe_result(result)


# -- multi-instance (sharded) conv_layer at the paper's int8 points ------------


MULTI = {"i8_3x3": 3, "i8_7x7": 7}


def multi_instance(name: str) -> dict:
    k = MULTI[name]
    rng = np.random.default_rng([13, k])
    image = ints(rng, -8, 8, (3 * 24, 24), np.int8)
    filters = ints(rng, -2, 3, (3 * k, k), np.int8)
    output, report = ArcaneSystem(PAPER_MULTI).run_conv_layer(image, filters)
    return observe_run(output, report)


# -- a host access to an unrelated address issued mid-kernel -------------------


#: issue instants (cycles after the offload returns); the last one lands
#: after the kernel finished, so its accesses never stall
HOST_DELAYS = (0, 40, 300, 700, 1500, 2600, 4100, 6000, 30000)


def queue_conv_layer(system, prog, rng) -> object:
    image = ints(rng, -8, 8, (3 * 14, 14), np.int8)
    filters = ints(rng, -2, 3, (9, 3), np.int8)
    x = system.place_matrix(image, "x")
    f = system.place_matrix(filters, "f")
    *_, pooled = conv_layer_shapes(*image.shape, *filters.shape)
    out = system.alloc_matrix(pooled, image.dtype, "out")
    prog.xmr(0, x).xmr(1, f).xmr(2, out)
    prog.conv_layer(dest=2, src=0, flt=1, suffix=x.etype.suffix)
    return out


def queue_cgemm(system, prog, rng) -> object:
    """Compiled gemm: its strip-mined row loads (``load_row_set``) land
    between compute runs, not only at the start of the body."""
    from repro.compiler import install_compiled, offload_compiled

    install_compiled(system.llc.runtime.library)
    a, b, c = (system.place_matrix(ints(rng, -5, 5, shape, np.int16))
               for shape in ((8, 12), (12, 9), (8, 9)))
    out = system.alloc_matrix((8, 9), np.int16, "out")
    prog.xmr(0, a).xmr(1, b).xmr(2, c).xmr(3, out)
    offload_compiled(prog, FUNC5_CGEMM, "h", dest=3, sources=(0, 1, 2), params=(2, 1))
    return out


MID_KERNEL = {"conv_layer": queue_conv_layer, "cgemm": queue_cgemm}


def host_mid_kernel(case: str) -> dict:
    """A kernel runs while the host touches an unrelated matrix.

    The offload returns once the kernel is queued; ``delay`` cycles later
    the host loads and stores an unrelated matrix.  Whenever the access
    lands inside one of the kernel's DMA lock sections it stalls on the
    LLC lock (``llc.host_lock_stalls``), and a host access in flight in
    turn holds off the kernel's next lock acquisition.
    """
    kernel, delay = case.split("@")
    delay = int(delay)
    rng = np.random.default_rng(14)
    system = ArcaneSystem(CFG)
    unrelated = system.place_matrix(ints(rng, -100, 100, (8, 64), np.int32), "u")
    with system.program() as prog:
        out = MID_KERNEL[kernel](system, prog, rng)
        prog.delay(delay)
        prog.load(unrelated, 0, 0).store(unrelated, 3, 5, 77).load(unrelated, 7, 63)
        prog.delay(delay // 3)
        prog.load(unrelated, 3, 5)
    return {
        "unrelated": digest(system.read_matrix(unrelated)),
        **observe_run(system.read_matrix(out), system.last_report),
    }


# -- serving: online with loud faults, offline with silent corruption ----------


def serving_requests(seed: int, count: int) -> list:
    rng = np.random.default_rng([15, seed])
    requests = []
    for rid in range(count):
        slot = rid % 4
        if slot == 0:
            requests.append(conv_layer_request(
                rid, ints(rng, -8, 8, (3 * 10, 10), np.int8),
                ints(rng, -2, 3, (9, 3), np.int8)))
        elif slot == 1:
            requests.append(gemm_request(
                rid, ints(rng, -6, 6, (8, 10), np.int16),
                ints(rng, -6, 6, (10, 6), np.int16),
                ints(rng, -6, 6, (8, 6), np.int16), alpha=2, beta=-1))
        elif slot == 2:
            requests.append(kernel_request(
                rid, FUNC5_FC,
                [ints(rng, -8, 8, (1, 32), np.int16), ints(rng, -8, 8, (32, 8), np.int16),
                 ints(rng, -8, 8, (1, 8), np.int16)], (1, 8)))
        else:
            m = 6
            operands = {name: ints(rng, -4, 4, (m, m), np.int16) for name in "abd"}
            operands["c"] = np.zeros((m, m), np.int16)
            requests.append(graph_request(rid, operands, [
                GraphNode("prod", FUNC5_CGEMM, ("a", "b", "c"), (m, m), params=(1, 0)),
                GraphNode("sum", FUNC5_EWISE_ADD, ("prod", "d"), (m, m)),
                GraphNode("row", FUNC5_ROWSUM, ("sum",), (m, 1)),
            ]))
    return requests


def observe_serving(report) -> dict:
    return {
        "results": [observe_result(result) for result in report.results],
        "total_sim_cycles": report.total_sim_cycles,
        "makespan_cycles": report.makespan_cycles,
        "availability": report.availability,
        "integrity": report.integrity,
    }


def online_faults() -> dict:
    engine = ServingEngine(pool_size=2, config=CFG)
    report = engine.serve_online(
        serving_requests(1, 16), traffic="poisson:25", seed=7,
        faults="kill:0.2,transient:0.2", fault_seed=5, verify=True,
    )
    return observe_serving(report)


def injection(kind: str) -> dict:
    engine = ServingEngine(pool_size=2, config=CFG, integrity="abft")
    report = engine.serve(
        serving_requests(2, 12), verify="report", faults=f"{kind}:0.5", fault_seed=3,
    )
    return observe_serving(report)


SCENARIOS = {
    **{f"handwritten/{name}": (handwritten, name) for name in HANDWRITTEN},
    **{f"compiled/{name}": (compiled, name) for name in COMPILED},
    **{f"multi/{name}": (multi_instance, name) for name in MULTI},
    **{
        f"host_mid_kernel/{kernel}@{delay}": (host_mid_kernel, f"{kernel}@{delay}")
        for kernel in MID_KERNEL for delay in HOST_DELAYS
    },
    "serving/online_kill_transient": (online_faults, None),
    "injection/vrf_flip": (injection, "vrf_flip"),
    "injection/dma_corrupt": (injection, "dma_corrupt"),
}


def observe(name: str) -> dict:
    fn, arg = SCENARIOS[name]
    return canonical(fn() if arg is None else fn(arg))


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class TestSlowPathReference:
    def test_reference_covers_every_scenario(self, reference):
        assert sorted(reference) == sorted(SCENARIOS)

    def test_configs_disable_the_fast_path(self):
        for config in (CFG, PAPER_MULTI):
            assert ArcaneSystem(config).llc.runtime.replay_cache is None

    @pytest.mark.parametrize("kernel", sorted(MID_KERNEL))
    def test_mid_kernel_host_accesses_stall_on_the_lock(self, reference, kernel):
        stalls = [
            reference[f"host_mid_kernel/{kernel}@{delay}"]["stats"]
            .get("llc.host_lock_stalls", 0)
            for delay in HOST_DELAYS
        ]
        assert any(stalls[:-1]) and not stalls[-1]

    def test_fault_runs_inject_what_they_claim(self, reference):
        online = reference["serving/online_kill_transient"]["availability"]
        assert online["retries"] > 0
        for kind in ("vrf_flip", "dma_corrupt"):
            integrity = reference[f"injection/{kind}"]["integrity"]
            assert integrity["injected"][kind] > 0

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_reference(self, name, reference):
        assert observe(name) == reference[name]


class TestResumptionCount:
    """A launch's event-loop resumptions scale with its synchronisation
    points, not with its vector instructions."""

    #: host program, bridge, decoder and scheduler resumptions of one run
    #: (12 for a single launch), plus headroom
    SLACK = 16

    @pytest.mark.parametrize("name", [
        "gemm_beta_i32", "leaky_relu", "maxpool", "conv2d_prefetch",
        "conv_layer_prefetch_i8", "conv_layer_plane_filters_i32",
    ])
    def test_single_vpu_launch(self, name, monkeypatch):
        steps = [0]
        waits = [0]
        step = Process._step
        wait_prefetch = KernelContext.wait_prefetch

        def counting_step(process, value):
            steps[0] += 1
            return step(process, value)

        def counting_wait(context, handle):
            waits[0] += handle is not None
            return wait_prefetch(context, handle)

        monkeypatch.setattr(Process, "_step", counting_step)
        monkeypatch.setattr(KernelContext, "wait_prefetch", counting_wait)
        system = ArcaneSystem(CFG)
        _, report = HANDWRITTEN[name](system, np.random.default_rng([11, len(name)]))
        stats = report.stats
        rows = stats["alloc.rows_loaded"] + stats["alloc.rows_stored"]
        sections = stats["llc.lock_acquired"]
        # the DMA's own timing: one lock-overhead resumption per section,
        # one per row moved, and a prefetch process's start and end
        dma = rows + sections + 2 * waits[0]
        # what is left is the body's: at most one per lock section or
        # prefetch wait (its compute lag), plus the constant
        assert steps[0] - dma <= sections + waits[0] + self.SLACK, (
            steps[0], dma, stats["dispatch.ops"]
        )


class TestSyncPoints:
    """Run-ahead compute is charged at the next synchronisation point,
    the end of the body included.  ``claim`` and ``prefetch_row_set`` act
    on shared state at the current instant, so they need a flushed clock."""

    @staticmethod
    def run_body(body):
        from repro.isa.xmnmc import pack_pair
        from repro.runtime.kernel_lib import KernelSpec
        from repro.compiler import make_gemm_spec

        gemm_preamble = make_gemm_spec().preamble

        system = ArcaneSystem(CFG)
        system.llc.runtime.library.register(KernelSpec(9, "probe", gemm_preamble, body))
        a = system.place_matrix(np.ones((4, 4), np.int16))
        d = system.place_matrix(np.zeros((4, 4), np.int16))
        with system.program() as prog:
            prog.xmr(0, a).xmr(1, a).xmr(2, a).xmr(3, d)
            prog.xmk(9, "h", rs1=pack_pair(1, 0), rs2=pack_pair(2, 3),
                     rs3=pack_pair(0, 1))
        return system

    @staticmethod
    def compute(kc, window):
        from repro.vpu.visa import VectorOpcode

        yield from kc.vop(VectorOpcode.VCLEAR, vd=window[0], vl=4)

    def test_claim_after_compute_raises(self):
        def body(kc, kernel, shard=None):
            window = kc.claim(1)
            yield from self.compute(kc, window)
            kc.claim(1)

        with pytest.raises(RuntimeError, match="flushed clock"):
            self.run_body(body)

    def test_prefetch_after_compute_raises(self):
        def body(kc, kernel, shard=None):
            window = kc.claim(1)
            yield from self.compute(kc, window)
            kc.prefetch_row_set([(window, kernel.sources[0], 0, 0)])

        with pytest.raises(RuntimeError, match="flushed clock"):
            self.run_body(body)

    def test_trailing_compute_is_charged(self):
        def body(kc, kernel, shard=None):
            window = kc.claim(1)
            yield from self.compute(kc, window)
            yield from kc.store_rows(window, kernel.dest, 0, 1)
            yield from self.compute(kc, window)  # after the last sync point

        report = self.run_body(body).last_report
        assert report.stats["dispatch.ops"] == 2
        assert report.breakdown.cycles["compute"] == report.stats["dispatch.cycles"]

    def test_claim_after_a_sync_point_is_allowed(self):
        def body(kc, kernel, shard=None):
            window = kc.claim(1)
            yield from self.compute(kc, window)
            yield from kc.store_rows(window, kernel.dest, 0, 1)
            kc.claim(1)

        report = self.run_body(body).last_report
        assert report.breakdown.cycles["compute"] > 0
