"""Aggregate serving metrics: throughput, latency, queueing, availability.

A :class:`ServingReport` condenses one served batch into the numbers a
capacity planner reads: requests per second of harness wall-clock,
simulated cycles per request, latency percentiles, the pool's simulated
makespan and the derived requests per simulated megacycle.  Both serving
modes compute them the same way, from the simulated timeline the
dispatch core stamps on every result: latency is end-to-end
(``completion - arrival``) and splits into ``queue_delay + service``
(reported as separate percentile blocks), and the makespan is the cycle
the last request completes.  An offline batch (``ServingEngine.serve``)
is every request arriving at cycle 0; online
(``ServingEngine.serve_online``) requests arrive over simulated time,
so ``requests_per_megacycle`` over the makespan is the pool's
*sustained* throughput under the offered load.

Latency percentiles cover **completed** requests (``ok`` +
``timed_out`` + ``corrupted`` — the last ran to completion with a
suspect output); failed and shed requests are excluded (they have no
service timeline) but show up in the **availability** section: success
rate, per-status counts, retry/failover totals, per-class failed-attempt
counts, injected-fault tallies and the chronological worker health
events (quarantine/probation/reinstatement).  The tallies and health
events are folds of the dispatch core's event log, which the report
carries for :meth:`ServingReport.events`.  When an integrity policy
or data-corruption injection ran, the engine attaches an **integrity**
section (injected flip counts, detected/corrected/undetected, detection
recall, escalation tallies).

``per_worker`` carries each worker's served count, busy cycles,
utilization (busy / makespan — idle gaps between arrivals count against
it) and how many of its failures it recovered by reset or by rebuild.
``as_dict`` is JSON-clean; ``bench_serving.py`` persists both modes as
the repo's serving-perf trajectory record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.runtime.phases import PhaseBreakdown

#: Serving modes a report can describe.
MODES = ("offline", "online")

#: :meth:`ServingReport.events` source of each non-lifecycle event kind.
EVENT_SOURCES = {
    "fail": "fault", "retry": "fault", "shed": "fault",
    "quarantined": "health", "probation": "health", "reinstated": "health",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def latency_stats(values: Sequence[float]) -> Dict[str, float]:
    """The standard min/mean/p50/p90/p99/max block over a sample list."""
    ordered = sorted(float(v) for v in values)
    return {
        "min": ordered[0] if ordered else 0.0,
        "mean": (sum(ordered) / len(ordered)) if ordered else 0.0,
        "p50": percentile(ordered, 50),
        "p90": percentile(ordered, 90),
        "p99": percentile(ordered, 99),
        "max": ordered[-1] if ordered else 0.0,
    }


@dataclass
class ServingReport:
    """What one served batch measured."""

    n_requests: int
    pool_size: int
    wall_seconds: float
    total_sim_cycles: int
    makespan_cycles: int
    latency_cycles: Dict[str, float]
    per_kind: Dict[str, int]
    per_worker: Dict[int, Dict[str, float]]
    breakdown: PhaseBreakdown = field(default_factory=PhaseBreakdown)
    verified: Optional[bool] = None
    mode: str = "offline"
    #: admission policy the dispatch core ran (fifo/priority/edf/sjf)
    admission: Optional[str] = None
    #: replay-cache activity for the run (per-worker stat deltas,
    #: including cross-worker ``fleet_hits``); attached by the engine
    replay: Optional[Dict] = None
    #: online autotuning activity (policy, schedule-cache stats, per-key
    #: tuned-vs-default cycle deltas and swaps); attached by the engine
    autotune: Optional[Dict] = None
    #: data-integrity accounting (policy, injected corruption counts,
    #: detected/corrected/undetected, recall, escalations); attached by
    #: the engine when a policy or corruption injection was active
    integrity: Optional[Dict] = None
    #: canonical traffic spec string (online mode only)
    traffic: Optional[str] = None
    #: canonical fault spec string (None = no injection)
    faults: Optional[str] = None
    #: queueing split: latency == queue_delay + service
    queue_delay_cycles: Optional[Dict[str, float]] = None
    service_cycles: Optional[Dict[str, float]] = None
    #: availability block: success rate, status counts, retries/failovers,
    #: per-class failure counts, injected faults, worker health events
    availability: Optional[Dict] = None
    #: per-request detail (with outputs); rides along, excluded from as_dict
    results: List = field(default_factory=list, repr=False)
    #: rolling-metrics window samples (``observe=True`` online runs);
    #: schema documented on :func:`repro.obs.metrics.build_timeline`
    timeline: Optional[List[Dict]] = None
    #: the run's SpanRecorder (``observe=True``); rides along for trace
    #: export (:func:`repro.obs.export.chrome_trace`), excluded from JSON
    spans: Optional[object] = field(default=None, repr=False)
    #: the dispatch core's event log; feeds :meth:`events`
    dispatch_events: List = field(default_factory=list, repr=False)

    @property
    def requests_per_second(self) -> float:
        """Harness throughput — wall-clock of serving on a *ready* pool
        (pool construction is excluded)."""
        return self.n_requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def cycles_per_request(self) -> float:
        return self.total_sim_cycles / self.n_requests if self.n_requests else 0.0

    @property
    def requests_per_megacycle(self) -> float:
        """Modelled-silicon throughput over the simulated makespan — in
        online mode the *sustained* rate under the offered load."""
        if not self.makespan_cycles:
            return 0.0
        return self.n_requests / self.makespan_cycles * 1e6

    @property
    def success_rate(self) -> float:
        """Fraction of requests that completed ``ok`` (1.0 when n == 0)."""
        if self.availability is None:
            return 1.0
        return self.availability.get("success_rate", 1.0)

    def as_dict(self) -> dict:
        record = {
            "mode": self.mode,
            "n_requests": self.n_requests,
            "pool_size": self.pool_size,
            "admission": self.admission,
            "wall_seconds": round(self.wall_seconds, 6),
            "requests_per_second": round(self.requests_per_second, 3),
            "total_sim_cycles": self.total_sim_cycles,
            "makespan_cycles": self.makespan_cycles,
            "cycles_per_request": round(self.cycles_per_request, 1),
            "requests_per_megacycle": round(self.requests_per_megacycle, 4),
            "latency_cycles": {k: round(v, 1) for k, v in self.latency_cycles.items()},
            "per_kind": dict(self.per_kind),
            "per_worker": {
                str(k): {
                    m: (round(v, 4) if m == "utilization" else v)
                    for m, v in stats.items()
                }
                for k, stats in sorted(self.per_worker.items())
            },
            "phase_cycles": self.breakdown.as_dict(),
            "verified": self.verified,
            "faults": self.faults,
            "availability": self.availability,
        }
        if self.mode == "online":
            record["traffic"] = self.traffic
        record["queue_delay_cycles"] = {
            k: round(v, 1) for k, v in (self.queue_delay_cycles or {}).items()
        }
        record["service_cycles"] = {
            k: round(v, 1) for k, v in (self.service_cycles or {}).items()
        }
        if self.replay is not None:
            record["replay"] = self.replay
        if self.autotune is not None:
            record["autotune"] = self.autotune
        if self.integrity is not None:
            record["integrity"] = self.integrity
        if self.timeline is not None:
            record["timeline"] = self.timeline
        return record

    def events(self) -> List[Dict]:
        """The run's chronological event stream: the dispatch core's log,
        already in cycle order, as JSON-clean dicts labelled by source.

        Lifecycle events are ``source="dispatch"``
        (arrival/dispatch/completion), fault events ``source="fault"``
        (fail/retry/shed), and worker health transitions
        ``source="health"`` (quarantined/probation/reinstated; these
        carry a worker but no request).
        """
        stream: List[Dict] = []
        for event in self.dispatch_events:
            entry: Dict = {
                "cycle": event.cycle,
                "source": EVENT_SOURCES.get(event.kind, "dispatch"),
                "kind": event.kind,
            }
            if event.request_id is not None:
                entry["request"] = event.request_id
            if event.worker is not None:
                entry["worker"] = event.worker
            stream.append(entry)
        return stream

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def summary(self) -> str:
        lat = self.latency_cycles
        lines = [
            f"served {self.n_requests} requests over {self.pool_size} ARCANE "
            "instance(s), "
            + (f"traffic={self.traffic}" if self.mode == "online"
               else f"admission={self.admission}")
            + (f", faults={self.faults}" if self.faults else ""),
            f"  wall-clock      : {self.wall_seconds:.2f} s "
            f"({self.requests_per_second:.1f} req/s)",
            f"  simulated       : {self.total_sim_cycles:,} cycles total, "
            f"{self.cycles_per_request:,.0f} cycles/request",
            f"  pool makespan   : {self.makespan_cycles:,} cycles "
            f"({self.requests_per_megacycle:.2f} req/Mcycle"
            + (" sustained)" if self.mode == "online" else ")"),
            f"  latency (cycles): p50={lat.get('p50', 0):,.0f} "
            f"p90={lat.get('p90', 0):,.0f} p99={lat.get('p99', 0):,.0f} "
            f"max={lat.get('max', 0):,.0f}",
        ]
        if self.queue_delay_cycles is not None:
            q = self.queue_delay_cycles
            lines.append(
                f"  queue delay     : p50={q.get('p50', 0):,.0f} "
                f"p90={q.get('p90', 0):,.0f} p99={q.get('p99', 0):,.0f} "
                f"max={q.get('max', 0):,.0f}"
            )
        if self.availability is not None:
            avail = self.availability
            statuses = avail.get("statuses", {})
            corrupted = statuses.get("corrupted", 0)
            lines.append(
                f"  availability    : {avail.get('success_rate', 1.0):.1%} ok "
                f"({statuses.get('failed', 0)} failed, "
                f"{statuses.get('timed_out', 0)} timed out, "
                f"{statuses.get('shed', 0)} shed"
                + (f", {corrupted} corrupted" if corrupted else "")
                + f"; {avail.get('retries', 0)} retries, "
                f"{avail.get('failovers', 0)} failovers)"
            )
            if avail.get("worker_events"):
                events = avail["worker_events"]
                counts: Dict[str, int] = {}
                for event in events:
                    counts[event["event"]] = counts.get(event["event"], 0) + 1
                lines.append(
                    "  worker health   : "
                    + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                )
        if self.timeline:
            peak_queue = max((s.get("queue_depth", 0) for s in self.timeline), default=0)
            peak_flight = max((s.get("in_flight", 0) for s in self.timeline), default=0)
            interval = self.timeline[0]["end_cycle"] - self.timeline[0]["start_cycle"]
            lines.append(
                f"  timeline        : {len(self.timeline)} windows x "
                f"{interval:,} cycles; peak queue={peak_queue}, "
                f"peak in-flight={peak_flight}"
            )
        if self.per_worker:
            util = ", ".join(
                f"w{worker}={stats.get('utilization', 0.0):.0%}"
                for worker, stats in sorted(self.per_worker.items())
            )
            lines.append(f"  utilization     : {util}")
        lines.append(
            "  per kind        : "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.per_kind.items()))
        )
        if self.integrity is not None:
            integ = self.integrity
            injected = sum(integ.get("injected", {}).values())
            parts = [
                f"policy={integ.get('policy', 'off')}",
                f"injected={injected}",
                f"detected={integ.get('detected', 0)}",
                f"corrected={integ.get('corrected', 0)}",
                f"recovered={integ.get('recovered', 0)}",
            ]
            if "recall" in integ:
                parts.append(f"undetected={integ.get('undetected', 0)}")
                parts.append(f"recall={integ['recall']:.2f}")
            lines.append("  integrity       : " + " ".join(parts))
        if self.verified is not None:
            lines.append(f"  verified        : {'all outputs match golden' if self.verified else 'MISMATCH'}")
        return "\n".join(lines)


def build_serving_report(
    results: Sequence,  # Sequence[RequestResult]
    pool_size: int,
    wall_seconds: float,
    verified: Optional[bool] = None,
    mode: str = "offline",
    traffic: Optional[str] = None,
    faults: Optional[str] = None,
    health: Optional[Dict] = None,
    admission: Optional[str] = None,
) -> ServingReport:
    """Fold per-request results into one :class:`ServingReport`.

    Latency is end-to-end (``completion - arrival``), with the
    queue-delay and service splits reported alongside, and the makespan
    is the last completion cycle, in every mode.
    Latency/throughput stats cover completed requests only; failed and
    shed requests are folded into the availability block.  ``health``
    carries the engine's fold of the dispatch log (see
    :func:`~repro.serve.dispatch.fold_tallies`) plus the injected-fault
    tally.
    """
    if mode not in MODES:
        raise ValueError(f"unknown serving mode {mode!r}; expected one of {MODES}")
    statuses = {"ok": 0, "failed": 0, "timed_out": 0, "shed": 0}
    for result in results:
        statuses[result.status] = statuses.get(result.status, 0) + 1
    completed = [r for r in results if r.status in ("ok", "timed_out", "corrupted")]
    services = [r.sim_cycles for r in completed]
    per_kind: Dict[str, int] = {}
    # seed every pool slot so idle workers report served=0 / 0% utilization
    # instead of silently vanishing from the record
    per_worker: Dict[int, Dict[str, float]] = {
        w: {"served": 0, "busy_cycles": 0, "recoveries": 0, "rebuilds": 0}
        for w in range(pool_size)
    }
    if health is not None:
        for worker, counters in health.get("workers", {}).items():
            stats = per_worker.setdefault(
                worker, {"served": 0, "busy_cycles": 0, "recoveries": 0, "rebuilds": 0}
            )
            stats["recoveries"] = counters.get("recoveries", 0)
            stats["rebuilds"] = counters.get("rebuilds", 0)
    breakdown = PhaseBreakdown()
    for result in results:
        per_kind[result.kind] = per_kind.get(result.kind, 0) + 1
        if result.worker < 0 or result.status not in (
            "ok", "timed_out", "corrupted"
        ):
            continue  # shed/failed results consumed no worker cycles
        worker = per_worker.setdefault(
            result.worker,
            {"served": 0, "busy_cycles": 0, "recoveries": 0, "rebuilds": 0},
        )
        worker["served"] += 1
        worker["busy_cycles"] += result.sim_cycles
        breakdown.merge(result.breakdown)

    missing = [
        r.request_id for r in completed
        if r.latency_cycles is None or r.queue_delay_cycles is None
    ]
    if missing:
        raise ValueError(
            f"serving report needs simulated timelines; requests {missing} "
            "have none (did they bypass the dispatch core?)"
        )
    makespan = max((r.completion_cycle for r in completed), default=0)
    for stats in per_worker.values():
        stats["utilization"] = (
            stats["busy_cycles"] / makespan if makespan else 0.0
        )

    n = len(results)
    health = health or {}
    availability = {
        "success_rate": round(statuses["ok"] / n, 6) if n else 1.0,
        "statuses": statuses,
        "attempts": health.get("attempts", sum(r.attempts for r in results)),
        "retries": health.get("retries", sum(r.attempts - 1 for r in results)),
        "failovers": health.get("failovers", 0),
        "failed_attempts_by_class": health.get("failed_attempts_by_class", {}),
        "injected_faults": health.get("injected", {}),
        "worker_events": health.get("worker_events", []),
    }
    return ServingReport(
        n_requests=n,
        pool_size=pool_size,
        wall_seconds=wall_seconds,
        total_sim_cycles=sum(r.sim_cycles for r in results),
        makespan_cycles=makespan,
        latency_cycles=latency_stats([r.latency_cycles for r in completed]),
        per_kind=per_kind,
        per_worker=per_worker,
        breakdown=breakdown,
        verified=verified,
        mode=mode,
        traffic=traffic,
        faults=faults,
        queue_delay_cycles=latency_stats([r.queue_delay_cycles for r in completed]),
        service_cycles=latency_stats(services),
        availability=availability,
        admission=admission,
    )
