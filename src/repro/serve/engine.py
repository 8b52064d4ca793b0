"""The request-level serving engine: many requests, a pool of ARCANE systems.

The :class:`ServingEngine` multiplexes independent inference requests
over a pool of long-lived, reusable
:class:`~repro.serve.worker.SystemWorker` instances — the throughput
layer the ROADMAP's "serve heavy traffic" north-star asks for, built on
the lifecycle guarantees of ``ArcaneSystem.reset_heap()``.  Both serving
modes are thin frontends over one driver that runs the
:class:`~repro.serve.dispatch.DispatchCore` in simulated cycles, and
they differ only in how arrivals are stamped:

* **offline** (:meth:`ServingEngine.serve`) stamps every request at
  arrival cycle 0 — the whole batch is waiting when the simulation
  starts;
* **online** (:meth:`ServingEngine.serve_online`) replays seeded request
  arrivals in simulated time;
* in both, the core applies admission-policy ordering (FIFO / priority
  / EDF / SJF), least-backlog dispatch, simulated retry backoff,
  deadlines and load shedding, and every result carries its simulated
  timeline (queue delay + service);
* **fault tolerance** works in every mode: the core draws each seeded
  fault itself (hashing ``(fault_seed, request_id, attempt)``) and
  applies the decision to the chosen worker, so retry/failover/quarantine
  behave — and report — deterministically;
* **fleet replay sharing** — ``share_replay=True`` connects every
  worker's replay cache through one
  :class:`~repro.serve.fleet.FleetReplayCache`, so one worker's first
  launch warms the whole pool; results are bit-exact with the cache off;
* **result memo** — each engine owns a bounded LRU of clean request
  results (:class:`~repro.serve.memo.ResultMemo`), keyed by request
  content and the worker's recipe swaps: the pool serves a repeated
  payload from it instead of re-simulating, and re-runs the integrity
  check on what it serves.  Corrupting fault plans, escalation retries
  and integrity ``dmr`` bypass it;
* **aggregation** — per-request :class:`RunReport`s fold into a
  :class:`~repro.eval.serving.ServingReport` with throughput, latency
  percentiles and per-worker replay-cache deltas; the availability and
  integrity tallies, span trees and timeline are folds over the core's
  event log.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.library import NAME_BY_FUNC5
from repro.compiler.tune import ScheduleCache, Tuner, geometry_key
from repro.core.config import ArcaneConfig
from repro.eval.serving import ServingReport, build_serving_report
from repro.integrity.check import coerce_policy
from repro.integrity.check import covered as abft_covered
from repro.integrity.inject import CORRUPTION_KINDS
from repro.obs.metrics import build_timeline
from repro.obs.spans import build_spans
from repro.serve.dispatch import (
    AdmissionPolicy,
    DispatchCore,
    SerialPool,
    fold_tallies,
)
from repro.serve.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.serve.fleet import FleetReplayCache
from repro.serve.golden import expected_output
from repro.serve.memo import ResultMemo
from repro.serve.request import InferenceRequest, RequestResult
from repro.serve.traffic import TrafficSpec, stamp_arrivals
from repro.serve.worker import SystemWorker


@dataclass(frozen=True)
class AutotunePolicy:
    """When and how the engine retunes hot ``(kernel, geometry)`` keys.

    A library-kernel request key becomes *hot* once it has been seen
    ``threshold`` times (cumulative across serve calls); the engine then
    runs one :class:`~repro.compiler.tune.Tuner` search (``budget``
    simulator runs, ``beam_width`` survivors per level) and, when the
    winner beats the stock recipe, swaps the tuned variant into every
    pool worker via library re-registration — the generation bump
    invalidates stale replay recordings, so outputs stay bit-exact.
    """

    threshold: int = 3
    budget: int = 16
    beam_width: int = 3

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"autotune threshold must be >= 1, got {self.threshold}")

    @classmethod
    def coerce(cls, spec) -> Optional["AutotunePolicy"]:
        """None/False | True | hit-threshold int | policy -> policy or None."""
        if spec is None or spec is False:
            return None
        if spec is True:
            return cls()
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, int):
            return cls(threshold=spec)
        raise ValueError(
            f"autotune must be None, a bool, a hit threshold, or an "
            f"AutotunePolicy; got {spec!r}"
        )


class ServingEngine:
    """Schedules independent requests over a pool of reusable systems.

    The pool is :attr:`workers`, one in-process
    :class:`~repro.serve.worker.SystemWorker` per slot, built here and
    kept warm across ``serve`` calls.  ``processes`` accepts only 1 (the
    pool has one layout; the argument remains for callers that name it).
    """

    def __init__(
        self,
        pool_size: int = 2,
        config: Optional[ArcaneConfig] = None,
        processes: int = 1,
        admission: Union[str, AdmissionPolicy, None] = "fifo",
        share_replay: bool = False,
        autotune: Union[bool, int, AutotunePolicy, None] = None,
        integrity: Union[str, None] = "off",
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool needs at least one system")
        if processes != 1:
            raise ValueError(
                f"processes must be 1 (the pool runs in-process), got {processes}"
            )
        self.pool_size = pool_size
        self.admission = AdmissionPolicy.coerce(admission)
        self.share_replay = share_replay
        self.integrity = coerce_policy(integrity)
        self.autotune = AutotunePolicy.coerce(autotune)
        self._tuner: Optional[Tuner] = None
        #: cumulative (kernel, geometry) request counts across serve calls
        self._hot_counts: Dict[Tuple[str, str], int] = {}
        #: keys already tuned: (kernel, geometry) -> swap record
        self._tuned: Dict[Tuple[str, str], Dict] = {}
        if self.autotune is not None:
            self._tuner = Tuner(
                config or ArcaneConfig(), budget=self.autotune.budget,
                beam_width=self.autotune.beam_width,
            )
            # measured tuned cycles feed sjf ranking through the cache
            self.admission = dataclasses.replace(
                self.admission, schedule_cache=self._tuner.cache,
                config=self._tuner.config,
            )
        #: request-level result memo (:mod:`repro.serve.memo`); none under
        #: ``dmr``, whose point is re-execution
        self.memo: Optional[ResultMemo] = (
            ResultMemo() if self.integrity != "dmr" else None
        )
        fleet = FleetReplayCache() if share_replay else None
        self.workers: List[SystemWorker] = [
            SystemWorker(i, config, fleet=fleet, integrity=self.integrity)
            for i in range(pool_size)
        ]

    @property
    def schedule_cache(self) -> Optional[ScheduleCache]:
        """The autotuner's schedule cache (None when autotuning is off)."""
        return self._tuner.cache if self._tuner is not None else None

    # -- online autotuning ----------------------------------------------------

    def _autotune_requests(self, requests: Sequence[InferenceRequest]) -> None:
        """Count library-kernel keys; retune and swap the ones that go hot.

        Runs before dispatch: every request that is a single compiled
        library-kernel node bumps its ``(kernel, geometry)`` hit count,
        and a key crossing the policy threshold gets one tuner search on
        the request's actual operands.  A winner that beats the stock
        recipe is re-registered into every pool worker (tuned outputs
        were checked bit-exact against the default during the search,
        and the library generation bump drops stale replay recordings).
        """
        if self._tuner is None:
            return
        for request in requests:
            nodes = request.payload["nodes"]
            if len(nodes) != 1:
                continue
            (node,) = nodes
            name = NAME_BY_FUNC5.get(node.func5)
            if name is None or not node.inputs:
                continue
            inputs = [np.asarray(request.payload["inputs"][t]) for t in node.inputs]
            geometry = geometry_key(
                [m.shape for m in inputs], inputs[0].dtype, node.params
            )
            key = (name, geometry)
            self._hot_counts[key] = self._hot_counts.get(key, 0) + 1
            if key in self._tuned or self._hot_counts[key] < self.autotune.threshold:
                continue
            result = self._tuner.tune(name, inputs, params=node.params)
            record = result.as_dict()
            record["swapped"] = result.best_recipe != result.default_recipe
            if record["swapped"]:
                for worker in self.workers:
                    worker.register_recipe(name, result.best_recipe.to_json())
            self._tuned[key] = record

    def _autotune_report(self) -> Optional[Dict]:
        """Autotuning section for the serving report (None when off)."""
        if self._tuner is None:
            return None
        return {
            "policy": {
                "threshold": self.autotune.threshold,
                "budget": self.autotune.budget,
                "beam_width": self.autotune.beam_width,
            },
            "cache": self._tuner.cache.stats(),
            "hot_keys": {
                f"{kernel}|{geometry}": count
                for (kernel, geometry), count in sorted(self._hot_counts.items())
            },
            "tuned": [record for _, record in sorted(self._tuned.items())],
        }

    def close(self) -> None:
        """Release the engine: a no-op, since the pool holds no OS
        resources; kept for callers that close engines they are done with."""

    # -- serving --------------------------------------------------------------

    @staticmethod
    def _check_unique_ids(requests: Sequence[InferenceRequest]) -> None:
        seen_ids = set()
        for request in requests:
            if request.request_id in seen_ids:
                raise ValueError(f"duplicate request_id {request.request_id}")
            seen_ids.add(request.request_id)

    @staticmethod
    def _verify_outputs(
        requests: Sequence[InferenceRequest],
        results: Sequence[RequestResult],
        validate: str = "strict",
    ) -> bool:
        """Check every completed output against the golden model.

        Collects *all* mismatching requests (not just the first) and
        reports, per mismatch, how many elements differ and the max
        absolute difference.  Non-completed results (failed/shed) carry
        no output and are skipped.

        ``validate="strict"`` (the default) raises ``AssertionError`` on
        any mismatch.  ``validate="report"`` instead downgrades each
        mismatching result in place — ``status="corrupted"``,
        ``fault_class="corrupted"``, the mismatch detail on ``error`` —
        keeping the suspect output and the rest of the batch intact,
        and returns ``False``.  This is how undetected silent corruption
        is measured without aborting a serving run.
        """
        if validate not in ("strict", "report"):
            raise ValueError(
                f"validate must be 'strict' or 'report', got {validate!r}"
            )
        mismatches: List[str] = []
        for request, result in zip(requests, results):
            if not result.completed:
                continue
            expected = expected_output(request)
            actual = result.output
            if np.array_equal(actual, expected):
                continue
            if actual is None or actual.shape != expected.shape:
                got = "None" if actual is None else f"shape {actual.shape}"
                detail = (
                    f"request {request.request_id} ({request.kind}): expected "
                    f"shape {expected.shape}, got {got}"
                )
            else:
                diff = np.abs(
                    np.asarray(actual, dtype=np.int64)
                    - np.asarray(expected, dtype=np.int64)
                )
                detail = (
                    f"request {request.request_id} ({request.kind}): "
                    f"{int(np.count_nonzero(diff))}/{diff.size} elements differ, "
                    f"max |diff| = {int(diff.max())}"
                )
            mismatches.append(detail)
            if validate == "report":
                result.status = "corrupted"
                result.fault_class = "corrupted"
                result.error = (
                    f"{result.error}; {detail}" if result.error else detail
                )
        if mismatches:
            if validate == "report":
                return False
            raise AssertionError(
                f"{len(mismatches)} request(s) mismatch the golden model: "
                + "; ".join(mismatches)
            )
        return True

    def _replay_stats(self) -> Dict[int, Optional[Dict[str, int]]]:
        """Each worker's replay-cache counters (None with the cache off)."""
        stats: Dict[int, Optional[Dict[str, int]]] = {}
        for worker in self.workers:
            cache = worker.system.llc.runtime.replay_cache
            stats[worker.index] = dict(cache.stats) if cache is not None else None
        return stats

    def _replay_delta(
        self, before: Dict[int, Optional[Dict[str, int]]]
    ) -> Optional[Dict]:
        """Per-worker replay-cache stat deltas over one serving run."""
        per_worker = {}
        for worker, now in sorted(self._replay_stats().items()):
            if now is None:
                continue
            base = before.get(worker) or {}
            per_worker[str(worker)] = {
                key: value - base.get(key, 0) for key, value in now.items()
            }
        if not per_worker:
            return None
        return {"shared": bool(self.share_replay), "per_worker": per_worker}

    def serve(
        self,
        requests: Sequence[InferenceRequest],
        verify: Union[bool, str] = False,
        faults: Optional[Union[str, FaultPlan]] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        observe: bool = False,
    ) -> ServingReport:
        """Run every request as an offline batch, return the aggregate report.

        The batch is the online loop with every request stamped at arrival
        cycle 0: the report splits latency into ``queue_delay + service``
        cycles, and admission policies, per-request ``deadline_cycle``
        stamps and ``observe`` (span trees, Perfetto export, timeline)
        behave as in :meth:`serve_online`.

        Per-request results (with outputs) are kept on ``report.results``;
        with ``verify=True`` (or ``verify="strict"``) every completed
        output is checked against the numpy golden model and any mismatch
        raises with full detail.  ``verify="report"`` performs the same
        check but marks mismatching results ``status="corrupted"`` in
        place instead of raising — the batch survives, and the report's
        ``integrity`` section counts the misses as *undetected*
        corruption.

        A request that fails does **not** abort the batch: retryable
        failures are retried (after a simulated backoff, failing over to a
        different worker) up to ``retry.max_attempts``, and exhausted or
        non-retryable failures become ``status="failed"`` results.  A
        ``faults`` spec (e.g. ``"kill:0.1"``, see
        :meth:`~repro.serve.faults.FaultPlan.parse`) injects seeded
        faults deterministically: fault decisions are drawn in the
        dispatch core, in dispatch order.
        """
        batch = [dataclasses.replace(request, arrival_cycle=0) for request in requests]
        return self._serve(
            batch, "offline", None, verify, faults, fault_seed, retry,
            queue_capacity=None, observe=observe, metrics_interval=None,
        )

    @staticmethod
    def _validate_mode(verify: Union[bool, str]) -> Optional[str]:
        """Map the ``verify`` argument onto a ``_verify_outputs`` mode."""
        if verify is False or verify is None:
            return None
        if verify is True:
            return "strict"
        if verify in ("strict", "report"):
            return verify
        raise ValueError(
            f"verify must be a bool, 'strict' or 'report', got {verify!r}"
        )

    def _collect_integrity(
        self,
        injector: Optional[FaultInjector],
        escalations: Dict[str, int],
        corrupted_ids: Sequence[int],
        requests: Sequence[InferenceRequest],
        results: Sequence[RequestResult],
        validated: Optional[str],
    ) -> Optional[Dict]:
        """The report's ``integrity`` section (None when nothing to say).

        Emitted when an integrity policy is armed or the fault plan
        injects data corruption.  ``detected`` counts requests the
        running checks flagged (and escalated); ``corrected`` counts
        outputs ABFT repaired in place without a retry; ``undetected``
        (and detection ``recall``) need golden validation and are only
        present when ``verify="report"`` ran.  ``covered`` narrows the
        same accounting to ABFT-covered (gemm-family) requests — the
        kernels the acceptance gate holds to recall 1.0.
        """
        corrupts = injector is not None and injector.corrupts
        if self.integrity == "off" and not corrupts:
            return None
        injected = {}
        if injector is not None:
            injected = {
                kind: injector.injected[kind]
                for kind in CORRUPTION_KINDS
                if kind in injector.injected
            }
        corrupted = set(corrupted_ids)
        positions = [
            p for p, request in enumerate(requests) if request.request_id in corrupted
        ]
        detected = len(positions)
        recovered = sum(1 for p in positions if results[p].status == "ok")
        corrected = sum(
            1
            for r in results
            if r.integrity is not None and r.integrity.get("corrected")
        )
        section: Dict = {
            "policy": self.integrity,
            "injected": injected,
            "detected": detected,
            "corrected": corrected,
            "recovered": recovered,
            "escalations": escalations,
        }
        if validated == "report":
            undetected = sum(1 for r in results if r.status == "corrupted")
            caught = detected + corrected
            total = caught + undetected
            section["undetected"] = undetected
            section["recall"] = (caught / total) if total else 1.0
            flags = [abft_covered(request) for request in requests]
            covered_caught = sum(1 for p in positions if flags[p]) + sum(
                1
                for i, r in enumerate(results)
                if flags[i]
                and r.integrity is not None
                and r.integrity.get("corrected")
            )
            covered_undetected = sum(
                1
                for i, r in enumerate(results)
                if flags[i] and r.status == "corrupted"
            )
            covered_total = covered_caught + covered_undetected
            section["covered"] = {
                "requests": sum(flags),
                "undetected": covered_undetected,
                "recall": (
                    covered_caught / covered_total if covered_total else 1.0
                ),
            }
        return section

    def serve_online(
        self,
        requests: Sequence[InferenceRequest],
        traffic: Optional[Union[str, TrafficSpec]] = None,
        seed: int = 0,
        verify: Union[bool, str] = False,
        faults: Optional[Union[str, FaultPlan]] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        queue_capacity: Optional[int] = None,
        observe: bool = False,
        metrics_interval: Optional[int] = None,
    ) -> ServingReport:
        """Serve requests as arrival-driven traffic in simulated time.

        With ``traffic`` (a spec string like ``"poisson:25"`` or a
        :class:`~repro.serve.traffic.TrafficSpec`), requests are stamped
        with seeded arrival cycles first; without it, each request's own
        ``arrival_cycle`` is replayed as-is.  The pool then runs the
        dispatch core — admission-policy ordering (the engine's
        ``admission``: FIFO by default), least-backlog dispatch — and
        the report splits each request's end-to-end
        latency into ``queue_delay + service`` cycles, with per-worker
        utilization over the simulated makespan.

        Failure machinery rides the same loop: ``faults`` injects a
        seeded fault plan, retryable failures back off in simulated
        cycles and re-enter the admission queue (failing over to another
        worker), ``queue_capacity`` bounds the admission queue (excess
        arrivals are shed), per-request ``deadline_cycle`` stamps cause
        deadline-aware shedding and ``timed_out`` statuses, and workers
        that fail repeatedly are quarantined then reinstated after
        probation.  Results are deterministic for a fixed ``(traffic,
        seed, fault_seed)``: the event loop runs in one simulated-time
        domain, and every per-request result is order- and
        worker-independent by the reset-to-cold contract.

        ``observe=True`` turns on the observability layer
        (:mod:`repro.obs`): workers attach per-launch replay tags to each
        result, and the report gains per-request span trees
        (``report.spans``, exportable to Perfetto via
        :func:`repro.obs.export.write_chrome_trace`) and a rolling-metrics
        ``timeline`` (window width ``metrics_interval`` cycles, auto
        when ``None``), both folded after the run from the dispatch
        event log every report carries
        (:meth:`~repro.eval.serving.ServingReport.events`).  All of it is
        host-side bookkeeping: outputs and cycle counts are bit-identical
        with ``observe=False``.
        """
        described = "replay"
        if traffic is not None:
            spec = traffic if isinstance(traffic, TrafficSpec) else TrafficSpec.parse(traffic)
            requests = stamp_arrivals(requests, spec, seed)
            described = spec.describe()
        return self._serve(
            requests, "online", described, verify, faults, fault_seed, retry,
            queue_capacity, observe, metrics_interval,
        )

    def _serve(
        self,
        requests: Sequence[InferenceRequest],
        mode: str,
        traffic: Optional[str],
        verify: Union[bool, str],
        faults: Optional[Union[str, FaultPlan]],
        fault_seed: int,
        retry: Optional[RetryPolicy],
        queue_capacity: Optional[int],
        observe: bool,
        metrics_interval: Optional[int],
    ) -> ServingReport:
        """The one serving driver: run the dispatch core over requests
        whose arrivals are already stamped and fold its results and
        event log into the report."""
        requests = list(requests)
        self._check_unique_ids(requests)
        self._autotune_requests(requests)
        plan = FaultPlan.coerce(faults)
        injector = FaultInjector(plan, fault_seed) if plan else None
        replay_before = self._replay_stats()
        # a corrupting plan's attempts must run: no memo for the call
        memo = None if injector is not None and injector.corrupts else self.memo
        core = DispatchCore(
            SerialPool(self.workers, memo=memo), admission=self.admission,
            injector=injector, retry=retry,
            queue_capacity=queue_capacity, observe=observe,
        )
        # wall time covers serving on a ready pool (built in __init__)
        start = time.perf_counter()
        results = core.run(requests)
        wall = time.perf_counter() - start
        # spans carry the loop's statuses: fold before validation re-labels
        spans = None
        if observe:
            spans = build_spans(core.events, results)

        verified: Optional[bool] = None
        validated = self._validate_mode(verify)
        if validated is not None:
            verified = self._verify_outputs(requests, results, validate=validated)

        tally, escalations, corrupted_ids = fold_tallies(core.events)
        health = dict(tally, injected=dict(injector.injected) if injector else {})
        report = build_serving_report(
            results, self.pool_size, wall, verified,
            mode=mode, traffic=traffic, faults=plan.describe() if plan else None, health=health,
            admission=self.admission.kind,
        )
        report.results = results  # per-request detail rides along (not in JSON)
        report.dispatch_events = list(core.events)
        report.replay = self._replay_delta(replay_before)
        report.autotune = self._autotune_report()
        report.integrity = self._collect_integrity(
            injector, escalations, corrupted_ids, requests, results, validated
        )
        if observe:
            report.spans = spans
            report.timeline = build_timeline(
                results, core.events, self.pool_size,
                interval_cycles=metrics_interval,
            )
        return report
