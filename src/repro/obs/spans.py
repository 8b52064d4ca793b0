"""Request spans: hierarchical observability in the simulated-cycle timebase.

A serving run that misbehaves — a p99 spike, a shed storm, a streak of
replay-cache misses — cannot be explained by end-of-run aggregates.  This
module records *why* as a span tree per request, in the same simulated
cycle domain the dispatcher runs in::

    request 7                      [arrival .......... completion]
      attempt 1  (failed, kill)    [ready .. fault]
      attempt 2  (retry, failover) [ready ............ completion]
        queue_wait                 [ready ... start]
        dispatch  (worker 1)       [start ........... completion]
          launch gemm (replay=hit) [start .. start+cycles]

Spans are pure host-side bookkeeping: :func:`build_spans` folds them
after the run from the dispatch core's event log
(:attr:`~repro.serve.dispatch.DispatchCore.events`), which also holds
the worker health transitions, and the per-request results.  The loop
itself records nothing else, so an observed run is bit-identical
(outputs, cycle counts, stats) to an unobserved one.

Span categories (:data:`CATEGORIES`):

* ``request`` — arrival to terminal outcome (ok/timed_out/failed/shed);
* ``attempt`` — one dispatch try, from the cycle it became ready (the
  request's arrival, or its retry's re-entry after backoff); failed
  attempts end at the cycle a worker took them (injected faults fire
  before execution) and carry ``fault_class``/``injected``; retry
  attempts carry ``cause="retry"`` and ``failover=True`` when routed
  away from the worker that just failed;
* ``queue_wait`` — admission-ready to service start;
* ``dispatch`` — service on the chosen worker (``worker`` attribute);
* ``launch`` — one kernel launch inside the service window, tagged with
  its replay-cache outcome (``replay`` = ``hit``/``miss``/``bypassed``/
  ``off``).

Instant events (worker quarantine/probation/reinstatement/rebuild),
folded from the same log, ride alongside on :attr:`SpanRecorder.instants`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: Span categories in parent-before-child order.
CATEGORIES = ("request", "attempt", "queue_wait", "dispatch", "launch")


@dataclass
class Span:
    """One node of a request's span tree (cycles are simulated cycles)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_cycle: int
    end_cycle: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_cycles(self) -> int:
        """Span duration; 0 while open (and for instant-like spans)."""
        if self.end_cycle is None:
            return 0
        return self.end_cycle - self.start_cycle

    def as_dict(self) -> Dict[str, Any]:
        """JSON-clean rendering (attrs carry only scalars by contract)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class InstantEvent:
    """A point-in-time observability event (e.g. a worker quarantine)."""

    cycle: int
    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)


class SpanRecorder:
    """Collects spans and instant events for one serving run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.instants: List[InstantEvent] = []
        self._open = 0

    def begin(
        self,
        name: str,
        category: str,
        cycle: int,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Open a span; returns its id (stable: index into :attr:`spans`)."""
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown span category {category!r}; expected one of {CATEGORIES}"
            )
        span = Span(
            span_id=len(self.spans),
            parent_id=parent,
            name=name,
            category=category,
            start_cycle=int(cycle),
            attrs={k: v for k, v in attrs.items() if v is not None},
        )
        self.spans.append(span)
        self._open += 1
        return span.span_id

    def end(self, span_id: int, cycle: int, **attrs: Any) -> None:
        span = self.spans[span_id]
        if span.end_cycle is not None:
            raise ValueError(f"span {span_id} ({span.name!r}) ended twice")
        if cycle < span.start_cycle:
            raise ValueError(
                f"span {span_id} ({span.name!r}) ends at cycle {cycle} before "
                f"its start {span.start_cycle}"
            )
        span.end_cycle = int(cycle)
        for key, value in attrs.items():
            if value is not None:
                span.attrs[key] = value
        self._open -= 1

    def instant(self, name: str, cycle: int, **attrs: Any) -> None:
        self.instants.append(
            InstantEvent(int(cycle), name, {k: v for k, v in attrs.items()
                                            if v is not None})
        )

    # -- queries (tests and the text renderer) -----------------------------

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended (0 after a clean run)."""
        return self._open

    def children(self, span_id: Optional[int]) -> List[Span]:
        """Direct children of ``span_id`` in creation order."""
        return [s for s in self.spans if s.parent_id == span_id]

    def tree(self, span_id: int) -> List[Span]:
        """The subtree rooted at ``span_id`` in depth-first order."""
        root = self.spans[span_id]
        out = [root]
        for child in self.children(span_id):
            out.extend(self.tree(child.span_id))
        return out

    def find(
        self, category: Optional[str] = None, **attrs: Any
    ) -> List[Span]:
        """Spans matching a category and/or exact attribute values."""
        selected = self.spans
        if category is not None:
            selected = [s for s in selected if s.category == category]
        for key, value in attrs.items():
            selected = [s for s in selected if s.attrs.get(key) == value]
        return selected


def build_spans(events: Sequence, results: Sequence) -> SpanRecorder:
    """Fold one observed run (``OnlineEvent`` log and its results) into a
    :class:`SpanRecorder`.

    Walking the log in emission order gives span ids in decision order.
    Fold before output validation re-labels results.  Each health
    transition becomes an instant; a quarantine that made the core
    rebuild the worker is followed by a ``rebuilt`` instant.
    """
    by_id = {result.request_id: result for result in results}
    recorder = SpanRecorder()
    request_span: Dict[int, int] = {}
    ready: Dict[int, int] = {}
    for event in events:
        kind, rid, cycle = event.kind, event.request_id, event.cycle
        if kind == "arrival":
            request_span[rid] = recorder.begin(
                f"request {rid}", "request", cycle, request=rid, kind=by_id[rid].kind
            )
            ready[rid] = cycle
        elif kind == "retry":
            ready[rid] = cycle
        elif kind == "shed":
            recorder.end(request_span[rid], cycle, status="shed", cause=event.cause)
        elif kind in ("fail", "dispatch"):
            result = by_id[rid]
            attempt = recorder.begin(
                f"attempt {event.attempt}", "attempt", ready[rid],
                parent=request_span[rid],
                request=rid, attempt=event.attempt, worker=event.worker,
                cause="retry" if event.attempt > 1 else None,
                failover=event.failover or None,
            )
            if kind == "fail":
                # a fault fires when a worker takes the attempt
                recorder.end(attempt, cycle, status="failed",
                             fault_class=event.fault_class,
                             injected=event.injected or None)
                if result.status == "failed" and result.attempts == event.attempt:
                    recorder.end(request_span[rid], cycle, status="failed",
                                 fault_class=event.fault_class)
                continue
            start, end = result.start_cycle, result.completion_cycle
            recorder.end(recorder.begin("queue_wait", "queue_wait", ready[rid],
                                        parent=attempt, request=rid), start)
            service = recorder.begin(f"serve {rid}", "dispatch", start,
                                     parent=attempt, request=rid, worker=event.worker)
            for launch in result.launches:
                recorder.end(recorder.begin(
                    launch["name"], "launch", launch["start_cycle"], parent=service,
                    request=rid, worker=event.worker, kernel_id=launch["kernel_id"],
                    replay=launch["replay"],
                ), launch["end_cycle"])
            recorder.end(service, end)
            recorder.end(attempt, end, status=result.status)
            recorder.end(request_span[rid], end, status=result.status,
                         worker=event.worker)
        elif kind in ("quarantined", "probation", "reinstated"):
            recorder.instant(kind, cycle, worker=event.worker)
            if event.rebuilt:
                recorder.instant("rebuilt", cycle, worker=event.worker)
    return recorder
