"""The benchmark's three workloads: inputs, set-up, timed body, golden check.

Every input is generated here from the run's seed, so edits to the
repository's own benchmark generators cannot move this benchmark.  Each
workload splits one repetition into

* ``build()``  -- set-up: engine or system construction;
* ``serve()``  -- the timed body: one batch call into the program,
  returning its outcome and, where the body is several calls, the host
  seconds of each;
* ``close()``  -- teardown;
* ``verify()`` -- outside the timer: golden comparison of every output,
  a digest of every simulated statistic, and the layer counts.

Host seconds and simulated cycles never mix: every count returned by
``verify()`` is either a simulated statistic or a deterministic host-side
count (replay-cache outcomes), never a time.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines import models
from repro.baselines.reference import ref_conv_layer
from repro.baselines.scalar_kernels import ConvLayerShape
from repro.compiler import FUNC5_CGEMM, FUNC5_EWISE_ADD, FUNC5_FC, FUNC5_ROWSUM
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem
from repro.eval.figures import ConvLayerPoint
from repro.serve import (
    GraphNode,
    ServingEngine,
    conv_layer_request,
    gemm_request,
    graph_request,
    kernel_request,
)
from repro.serve.golden import expected_output

#: the serving workloads' machine: 2 VPUs x 4 lanes, 256 B lines
SERVING_CONFIG = ArcaneConfig(
    n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=1024
)

#: fixed for every run, so the fault fates (a hash of fault seed, request
#: id and attempt) are the same whatever ``--seed`` is.  Under this seed the
#: 960-request body draws 61 faults and every one recovers within the
#: default three attempts, so no operation fails.
FAULT_SEED = 2026
FAULT_PLAN = "kill:0.03,transient:0.03"

#: the paper's reference results: name -> (value, unit, where in the paper)
PAPER_ANCHORS: Dict[str, Tuple[float, str, str]] = {
    "speedup_int8_3x3_8lane": (30.0, "x", "V-C: 256x256 int8 3x3, 8 lanes, vs CV32E40X"),
    "speedup_int8_7x7_8lane": (84.0, "x", "VI: 256x256x3 int8 7x7 vs CV32E40X"),
    "speedup_multi_instance": (120.0, "x", "V-C: 4 VPUs x 8 lanes multi-instance"),
    "speedup_pulp_int8_3x3": (5.0, "x", "V-C: CV32E40PX vs CV32E40X, int8 3x3"),
    "speedup_vs_pulp_7x7": (16.0, "x", "VI: 7x7 vs CV32E40PX (XCVPULP)"),
    "preamble_small_input": (60.0, "%", "V-B / Fig. 3: preamble share, small input"),
    "preamble_large_input": (2.89, "%", "V-B / Fig. 3: preamble share, large input"),
    "overhead_saturation": (20.0, "%", "V-B / Fig. 3: non-compute share, 256^2 int32"),
}

#: paper_cnn points: label -> (full size, smoke size, filter k, dtype, multi-instance)
CNN_POINTS: Dict[str, Tuple[int, int, int, type, bool]] = {
    "i8_3x3": (256, 24, 3, np.int8, False),
    "i8_7x7": (256, 24, 7, np.int8, False),
    "i8_3x3_multi": (256, 24, 3, np.int8, True),
    "i8_7x7_multi": (256, 24, 7, np.int8, True),
    "i32_small": (16, 16, 3, np.int32, False),
    "i32_large": (256, 24, 3, np.int32, False),
}

#: paper_cnn filter taps are the canonical draw of repro.eval.figures, not
#: the run's seed: the conv kernel skips zero taps, so simulated cycles
#: (and with them every anchor) depend on the taps and nothing else.  Fixed
#: taps make ``anchor_err`` a property of the program that repeats exactly;
#: the images still come from ``--seed``.
FILTER_SEED = 7

#: replay-cache outcomes summed over a body (host-side, deterministic)
REPLAY_KEYS = ("hits", "misses", "recorded", "bypassed")


@dataclass
class Verdict:
    """What ``verify()`` found for one repetition (all outside the timer)."""

    ops: int
    ok: int
    mismatched: int
    digest: str
    #: deterministic counts and simulated-clock values, by metric name
    counts: Dict[str, float] = field(default_factory=dict)
    #: paper_cnn only: measured anchor values
    anchors: Dict[str, float] = field(default_factory=dict)


def _digest(items) -> str:
    return hashlib.blake2b(repr(items).encode(), digest_size=12).hexdigest()


def _report_stats(report) -> tuple:
    """Every simulated statistic of one RunReport, in a canonical order."""
    return (
        report.total_cycles,
        report.host_cycles,
        tuple(sorted(report.breakdown.cycles.items())),
        tuple(sorted(report.stats.items())),
    )


def _layer_counts(reports: list, replay: Dict[str, int]) -> Dict[str, float]:
    """Layer counters: simulated ``RunReport.stats`` plus replay outcomes."""

    def total(*names: str) -> int:
        return sum(report.stats.get(name, 0) for report in reports for name in names)

    launches = total("scheduler.kernels")
    counts = {
        "runtime.launches": launches,
        "runtime.alloc.rows": total("alloc.rows_loaded", "alloc.rows_stored"),
        "mem.dma.kcyc": total("alloc.load_cycles", "alloc.store_cycles") / 1e3,
        "cache.refills": total("llc.refills"),
        "cache.writebacks": total("llc.writebacks"),
        "vpu.ops": total("dispatch.ops"),
        "runtime.replay.hit_ratio": replay.get("hits", 0) / launches if launches else 0.0,
    }
    counts.update({f"runtime.replay.{key}": replay.get(key, 0) for key in REPLAY_KEYS})
    return counts


# -- request generators -------------------------------------------------------


def fresh_mix_requests(n_requests: int, size: int, seed: int) -> list:
    """40% conv_layer / 30% gemm / 20% fc / 10% 3-node graph, fresh bytes each."""
    rng = np.random.default_rng([seed, 1])
    requests = []
    for rid in range(n_requests):
        slot = rid % 10
        if slot < 4:
            x = rng.integers(-8, 8, (3 * size, size)).astype(np.int8)
            f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
            requests.append(conv_layer_request(rid, x, f))
        elif slot < 7:
            m, k, n = size, size + 4, size - 2
            a = rng.integers(-6, 6, (m, k)).astype(np.int16)
            b = rng.integers(-6, 6, (k, n)).astype(np.int16)
            c = rng.integers(-6, 6, (m, n)).astype(np.int16)
            requests.append(gemm_request(rid, a, b, c, alpha=2, beta=-1))
        elif slot < 9:
            xv = rng.integers(-8, 8, (1, 4 * size)).astype(np.int16)
            w = rng.integers(-8, 8, (4 * size, size)).astype(np.int16)
            bias = rng.integers(-8, 8, (1, size)).astype(np.int16)
            requests.append(kernel_request(rid, FUNC5_FC, [xv, w, bias], (1, size)))
        else:
            m = max(4, size // 2)
            a = rng.integers(-4, 4, (m, m)).astype(np.int16)
            b = rng.integers(-4, 4, (m, m)).astype(np.int16)
            c = np.zeros((m, m), dtype=np.int16)
            d = rng.integers(-4, 4, (m, m)).astype(np.int16)
            nodes = [
                GraphNode("prod", FUNC5_CGEMM, ("a", "b", "c"), (m, m), params=(1, 0)),
                GraphNode("sum", FUNC5_EWISE_ADD, ("prod", "d"), (m, m)),
                GraphNode("row", FUNC5_ROWSUM, ("sum",), (m, 1)),
            ]
            requests.append(graph_request(rid, {"a": a, "b": b, "c": c, "d": d}, nodes))
    return requests


TEMPLATES = 12


def template_requests(n_requests: int, seed: int) -> list:
    """``TEMPLATES`` conv / gemm / fc payloads of varied shapes, cycled."""
    rng = np.random.default_rng([seed, 2])
    templates = []
    for t in range(TEMPLATES):
        slot = t % 3
        if slot == 0:
            size = 8 + 2 * (t % 4)
            x = rng.integers(-8, 8, (3 * size, size)).astype(np.int8)
            f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
            templates.append(lambda rid, x=x, f=f: conv_layer_request(rid, x, f))
        elif slot == 1:
            m, k, n = 6 + 2 * (t % 4), 8, 6
            a = rng.integers(-6, 6, (m, k)).astype(np.int16)
            b = rng.integers(-6, 6, (k, n)).astype(np.int16)
            templates.append(lambda rid, a=a, b=b: gemm_request(rid, a, b))
        else:
            size = 8 + 4 * (t % 3)
            xv = rng.integers(-8, 8, (1, 2 * size)).astype(np.int16)
            w = rng.integers(-8, 8, (2 * size, size)).astype(np.int16)
            bias = rng.integers(-8, 8, (1, size)).astype(np.int16)
            templates.append(
                lambda rid, xv=xv, w=w, bias=bias, size=size: kernel_request(
                    rid, FUNC5_FC, [xv, w, bias], (1, size)
                )
            )
    return [templates[rid % TEMPLATES](rid) for rid in range(n_requests)]


# -- workloads ----------------------------------------------------------------


class ServingWorkload:
    """One online serving batch on a fresh engine (caches start empty).

    Load model: a single client makes one ``serve_online`` call per
    repetition (closed loop on the host); inside it, arrivals are an
    open-loop poisson process in *simulated* time.
    """

    def __init__(
        self,
        requests: list,
        traffic: str,
        traffic_seed: int,
        engine_kwargs: dict,
        serve_kwargs: dict,
        expected_key=None,
    ) -> None:
        self.requests = requests
        self.traffic = traffic
        self.traffic_seed = traffic_seed
        self.engine_kwargs = engine_kwargs
        self.serve_kwargs = serve_kwargs
        # template payloads repeat: compute each golden output once
        self._expected_key = expected_key or (lambda request: request.request_id)
        self._expected: Dict = {}

    def build(self) -> ServingEngine:
        return ServingEngine(pool_size=2, config=SERVING_CONFIG, **self.engine_kwargs)

    def serve(self, engine: ServingEngine):
        report = engine.serve_online(
            self.requests, traffic=self.traffic, seed=self.traffic_seed,
            verify=False, **self.serve_kwargs,
        )
        return report, None

    @staticmethod
    def close(engine: ServingEngine) -> None:
        engine.close()

    def _golden(self, request) -> np.ndarray:
        key = self._expected_key(request)
        if key not in self._expected:
            self._expected[key] = expected_output(request)
        return self._expected[key]

    def verify(self, report) -> Verdict:
        ok = mismatched = 0
        sim = []
        for request, result in zip(self.requests, report.results):
            if result.status == "ok":
                expected = self._golden(request)
                output = result.output
                if (
                    output is not None
                    and output.dtype == expected.dtype
                    and np.array_equal(output, expected)
                ):
                    ok += 1
                else:
                    mismatched += 1
            sim.append((
                result.request_id, result.status, result.worker, result.attempts,
                result.sim_cycles, result.arrival_cycle, result.start_cycle,
                result.completion_cycle,
                tuple(_report_stats(r) for r in result.reports),
            ))
        replay: Dict[str, int] = {}
        for stats in (report.replay or {}).get("per_worker", {}).values():
            for key in REPLAY_KEYS:
                replay[key] = replay.get(key, 0) + stats.get(key, 0)
        counts = _layer_counts(
            [r for result in report.results for r in result.reports], replay
        )
        availability = report.availability or {}
        per_worker = report.per_worker or {}
        utils = [stats.get("utilization", 0.0) for stats in per_worker.values()]
        counts.update({
            "serve.attempts": sum(r.attempts for r in report.results),
            "serve.retries": availability.get("retries", 0),
            "serve.failovers": availability.get("failovers", 0),
            "serve.sim.req_per_mcyc": report.requests_per_megacycle,
            "serve.sim.latency_p50_kcyc": report.latency_cycles.get("p50", 0.0) / 1e3,
            "serve.sim.latency_p99_kcyc": report.latency_cycles.get("p99", 0.0) / 1e3,
            "serve.sim.util": sum(utils) / len(utils) if utils else 0.0,
        })
        return Verdict(
            ops=len(self.requests), ok=ok, mismatched=mismatched,
            digest=_digest((sim, report.makespan_cycles)), counts=counts,
        )


class PaperCnnWorkload:
    """The paper's conv-layer anchor set on the default 4-VPU x 8-lane config.

    One repetition prices every point the way
    :func:`repro.eval.figures.measure_conv_layer` does -- an ARCANE system
    simulation plus the ISS-fitted CV32E40X / CV32E40PX cycle models --
    but with images drawn from the run's seed and the output kept for the
    golden check.  The
    fitted-model cache is cleared in set-up, so every body pays the ISS
    fits, as every fresh process does.
    """

    def __init__(self, seed: int, smoke: bool = False) -> None:
        rng = np.random.default_rng([seed, 3])
        self.points = []
        for label, (size, smoke_size, k, dtype, multi) in CNN_POINTS.items():
            size = smoke_size if smoke else size
            image = rng.integers(-8, 8, (3 * size, size)).astype(dtype)
            # the taps repro.eval.figures draws after its own image
            canonical = np.random.default_rng(FILTER_SEED)
            canonical.integers(-8, 8, (3 * size, size))
            filters = canonical.integers(-2, 3, (3 * k, k)).astype(dtype)
            self.points.append((label, size, k, dtype, multi, image, filters))
        self._expected: Dict[str, np.ndarray] = {}

    def build(self) -> List[ArcaneSystem]:
        models._MODEL_CACHE.clear()
        return [
            ArcaneSystem(ArcaneConfig().with_lanes(8).with_multi_vpu(multi))
            for _, _, _, _, multi, _, _ in self.points
        ]

    def serve(self, systems: Sequence[ArcaneSystem]):
        """Price every point; also returns the host seconds of each call.

        The calls run back to back, in the same order every repetition, so
        call ``i`` does the same work in every repetition (the first
        baseline call per element size carries that size's ISS fit).
        """
        clock = time.perf_counter
        measured, parts = [], []
        for system, (label, size, k, dtype, multi, image, filters) in zip(
            systems, self.points
        ):
            shape = ConvLayerShape(height=size, width=size, k=k)
            esize = np.dtype(dtype).itemsize
            start = clock()
            output, report = system.run_conv_layer(image, filters)
            simulated = clock()
            scalar = models.scalar_conv_layer_cycles(shape, esize)
            priced_scalar = clock()
            pulp = models.pulp_conv_layer_cycles(shape, esize)
            parts += [simulated - start, priced_scalar - simulated, clock() - priced_scalar]
            point = ConvLayerPoint(
                size=size, k=k, dtype=np.dtype(dtype).name, lanes=8,
                multi_vpu=multi, arcane_cycles=report.total_cycles,
                scalar_cycles=scalar, pulp_cycles=pulp, breakdown=report.breakdown,
            )
            measured.append((label, output, report, point))
        return measured, parts

    @staticmethod
    def close(systems) -> None:
        pass

    def verify(self, measured) -> Verdict:
        ok = mismatched = 0
        replay: Dict[str, int] = {}
        sim = []
        points: Dict[str, ConvLayerPoint] = {}
        for (label, output, report, point), spec in zip(measured, self.points):
            image, filters = spec[5], spec[6]
            if label not in self._expected:
                self._expected[label] = ref_conv_layer(image, filters)
            if np.array_equal(output, self._expected[label]):
                ok += 1
            else:
                mismatched += 1
            for key in REPLAY_KEYS:
                replay[key] = replay.get(key, 0) + report.replay.get(key, 0)
            sim.append((label, _report_stats(report), point.scalar_cycles, point.pulp_cycles))
            points[label] = point
        counts = _layer_counts([report for _, _, report, _ in measured], replay)
        counts.update({
            f"model.{label}.kcyc": point.arcane_cycles / 1e3
            for label, point in points.items()
        })
        return Verdict(
            ops=len(measured), ok=ok, mismatched=mismatched, digest=_digest(sim),
            counts=counts, anchors=anchor_values(points),
        )


def anchor_values(points: Dict[str, ConvLayerPoint]) -> Dict[str, float]:
    """The 8 measured anchors, in the paper's units."""
    small, large = points["i32_small"].breakdown, points["i32_large"].breakdown
    return {
        "speedup_int8_3x3_8lane": points["i8_3x3"].speedup_vs_scalar,
        "speedup_int8_7x7_8lane": points["i8_7x7"].speedup_vs_scalar,
        "speedup_multi_instance": points["i8_3x3_multi"].speedup_vs_scalar,
        "speedup_pulp_int8_3x3": points["i8_3x3"].pulp_speedup_vs_scalar,
        "speedup_vs_pulp_7x7": points["i8_7x7"].speedup_vs_pulp,
        "preamble_small_input": 100 * small.fraction("preamble"),
        "preamble_large_input": 100 * large.fraction("preamble"),
        "overhead_saturation": 100 * large.overhead_fraction(),
    }


def anchor_error(anchors: Dict[str, float]) -> float:
    """RMS of ln(measured / paper) over the paper anchors."""
    logs = [math.log(anchors[name] / value) for name, (value, _, _) in PAPER_ANCHORS.items()]
    return math.sqrt(sum(x * x for x in logs) / len(logs))


def make(name: str, seed: int, smoke: bool = False):
    """The named workload with its inputs generated from ``seed``."""
    if name == "fresh_mix":
        n, size = (20, 8) if smoke else (200, 12)
        return ServingWorkload(
            fresh_mix_requests(n, size, seed), traffic="poisson:92",
            traffic_seed=seed, engine_kwargs={"processes": 1, "integrity": "off"},
            serve_kwargs={},
        )
    if name == "template_repeat":
        n = 2 * TEMPLATES if smoke else 80 * TEMPLATES
        # processes=1: on a 2-vCPU host the shard pipe round trips made the
        # fastest-repetition throughput spread 12% across seeds (2.4% in
        # process), and the dispatch core never overlaps shard work anyway
        return ServingWorkload(
            template_requests(n, seed), traffic="poisson:120", traffic_seed=seed,
            engine_kwargs={"processes": 1, "share_replay": True, "integrity": "abft"},
            serve_kwargs={"faults": FAULT_PLAN, "fault_seed": FAULT_SEED},
            expected_key=lambda request: request.request_id % TEMPLATES,
        )
    if name == "paper_cnn":
        return PaperCnnWorkload(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
