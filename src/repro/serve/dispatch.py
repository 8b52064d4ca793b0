"""The dispatch core: one scheduling loop for every serving mode.

:class:`DispatchCore` is the only way a batch of requests runs — offline
or online.  One event loop, timed in simulated cycles, owns admission,
least-backlog worker selection, retry/failover with simulated backoff,
quarantine and deadlines.  An offline batch is the special case where
every request arrives at cycle 0.  The loop is parameterized by an
**admission policy** (:class:`AdmissionPolicy`), as data (the Exo/SYS_ATL
scheduling-as-data idiom: one fixed algorithm, policies as values):
``fifo`` keeps strict arrival order; ``priority`` serves lower priority
classes first; ``edf`` (earliest deadline first) and ``sjf`` (shortest
job first, by the compiled-kernel trip-count estimate of
:func:`estimate_service_cycles`) re-order the backlog whenever requests
are queued.  The pending heap is keyed ``(ready, *rank, seq)``; FIFO is
the empty rank.  Every policy binds late: a request is bound to a worker
only at the cycle the worker takes it, so the policy decides who gets
each freed worker.

The core executes attempts on a :class:`SerialPool` of in-process
:class:`~repro.serve.worker.SystemWorker` instances.  Fault decisions
live in the **core**, not the worker: the core calls
:meth:`FaultInjector.before_attempt` itself, in deterministic dispatch
order, and mirrors the decision's worker-side effects to the pool.
Per-request results are bit-exact with single-shot cold runs
(``reset_heap()``) and injected faults fire when a worker takes the
attempt, *before* execution, so a report is a pure function of
``(requests, traffic, faults, fault_seed)``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.compiler import FUNC5_CGEMM, NAME_BY_FUNC5, geometry_key
from repro.serve.faults import (
    PROBATION,
    QUARANTINED,
    FaultInjector,
    RetryPolicy,
    ServingError,
    WorkerCrashError,
    WorkerSupervisor,
)
from repro.serve.memo import ResultMemo
from repro.serve.request import InferenceRequest, RequestResult
from repro.serve.worker import SystemWorker

#: Event kinds recorded on the dispatch timeline.
ARRIVAL = "arrival"
DISPATCH = "dispatch"
COMPLETION = "completion"
FAIL = "fail"
RETRY = "retry"
SHED = "shed"
#: Worker health transitions in the same log: the
#: :class:`~repro.serve.faults.WorkerSupervisor` state a worker enters, or
#: its reinstatement.
REINSTATED = "reinstated"
HEALTH_KINDS = (QUARANTINED, PROBATION, REINSTATED)


class OnlineEvent(NamedTuple):
    """One entry in the dispatch event log, the serving run's only record.

    ``cycle`` is a simulated cycle, and the log is in cycle order.
    ``dispatch`` and ``fail`` are logged at the cycle a worker takes the
    attempt, ``retry`` when the retry re-enters the queue after its
    backoff (with the worker whose attempt failed).  Health
    transitions (:data:`HEALTH_KINDS`) carry a worker but no request id:
    ``quarantined`` at the failing attempt's cycle, ``probation`` at the
    cycle its quarantine ends, ``reinstated`` at the clean attempt's.
    The fields after ``worker`` carry what the folds over the log need:
    ``attempt`` and ``failover`` on dispatch and fail events;
    ``fault_class``, ``injected`` and ``recovery`` on fail events
    (``recovery`` is how the worker recovered: ``reset``, ``rebuild``,
    or None when the fault fired before execution); ``rebuilt`` on
    quarantined events (whether the core rebuilt the worker's system);
    ``cause`` on shed events (``queue_full`` or ``deadline``).
    """

    cycle: int
    kind: str
    request_id: Optional[int]
    worker: Optional[int] = None
    attempt: Optional[int] = None
    failover: Optional[bool] = None
    fault_class: Optional[str] = None
    injected: Optional[bool] = None
    recovery: Optional[str] = None
    rebuilt: Optional[bool] = None
    cause: Optional[str] = None


def fold_tallies(
    events: Sequence[OnlineEvent],
) -> Tuple[Dict, Dict[str, int], List[int]]:
    """Fold an event log into (availability tally, corruption-escalation
    tally, ids of requests with a ``corrupted`` failure).

    The availability tally counts attempts (one ``dispatch`` or ``fail``
    entry each, so shed requests count none), retries, failovers and
    failed attempts by fault class (in first-failure order); ``worker_events`` lists the
    health transitions as ``{"cycle", "worker", "event"}`` dicts, and
    ``workers`` maps each worker that recovered to its ``recoveries``
    (fails recovered by ``reset``) and ``rebuilds`` (fails recovered by
    ``rebuild``, plus quarantines the core rebuilt).  Attempts after a
    request's first ``corrupted`` failure bypass the replay fast path;
    its later ones escalate to failover."""
    by_class: Dict[str, int] = {}
    worker_events: List[Dict] = []
    workers: Dict[int, Dict[str, int]] = {}
    tally: Dict = {
        "attempts": 0, "retries": 0, "failovers": 0,
        "failed_attempts_by_class": by_class,
        "worker_events": worker_events, "workers": workers,
    }
    corruption = {"escalations": 0, "bypass_retries": 0, "failover_escalations": 0}
    corrupted: Dict[int, None] = {}

    def count(worker: int, key: str) -> None:
        counters = workers.setdefault(worker, {"recoveries": 0, "rebuilds": 0})
        counters[key] += 1

    for event in events:
        kind = event.kind
        if kind == RETRY:
            tally["retries"] += 1
        elif kind in (DISPATCH, FAIL):
            tally["attempts"] += 1
            tally["failovers"] += event.failover
            seen = event.request_id in corrupted
            corruption["bypass_retries"] += seen
            if kind == FAIL:
                by_class[event.fault_class] = by_class.get(event.fault_class, 0) + 1
                if event.fault_class == "corrupted":
                    corruption["escalations"] += 1
                    corruption["failover_escalations"] += seen
                    corrupted[event.request_id] = None
                if event.recovery is not None:
                    count(event.worker,
                          "recoveries" if event.recovery == "reset" else "rebuilds")
        elif kind in HEALTH_KINDS:
            worker_events.append(
                {"cycle": event.cycle, "worker": event.worker, "event": kind}
            )
            if event.rebuilt:
                count(event.worker, "rebuilds")
    return tally, corruption, list(corrupted)


# -- admission policies -------------------------------------------------------

#: Admission policies understood by :meth:`AdmissionPolicy.coerce`.
ADMISSION_POLICIES = ("fifo", "priority", "edf", "sjf")


def estimate_service_cycles(
    request: InferenceRequest,
    schedule_cache=None,
    config=None,
) -> int:
    """Deterministic service-cost estimate for shortest-job-first ranking.

    The estimate is the sum over the request's nodes:

    * a gemm-family node (slot 0 or ``cgemm``) counts ``m * n * (k + 2)``,
      the compiled kernel's multiply-accumulate trip count;
    * a conv-layer node (slot 4) counts image volume times filter volume
      (every output pixel visits every filter tap);
    * any other node counts its input plus output volume;
    * a node whose ``(kernel, geometry, config)`` has tuned cycles in
      the :class:`~repro.compiler.tune.ScheduleCache` (given the cache
      and the pool's :class:`~repro.core.config.ArcaneConfig`) counts
      those **measured** simulated cycles instead.

    The unit is arbitrary — only the *ordering* matters, and it is a
    pure function of the request (and the cache contents), so every run
    ranks identically.
    """
    payload = request.payload
    # tensor name -> (shape, dtype), for inputs and every node's output
    tensors = {
        name: (array.shape, array.dtype) for name, array in payload["inputs"].items()
    }
    total = 0
    for node in payload["nodes"]:
        shapes = [tensors[name][0] for name in node.inputs]
        dtype = tensors[node.inputs[0]][1] if node.inputs else None
        tensors[node.name] = (node.out_shape, dtype if node.dtype is None else node.dtype)
        name = NAME_BY_FUNC5.get(node.func5)
        if schedule_cache is not None and config is not None and name and shapes:
            measured = schedule_cache.measured_cycles(
                name, geometry_key(shapes, dtype, node.params), config
            )
            if measured is not None:
                total += int(measured)
                continue
        if node.func5 in (0, FUNC5_CGEMM):
            m, n = node.out_shape
            total += m * n * (shapes[0][1] + 2)
        elif node.func5 == 4:
            total += math.prod(shapes[0]) * math.prod(shapes[1])
        else:
            total += sum(map(math.prod, shapes)) + math.prod(node.out_shape)
    return total


@dataclass(frozen=True)
class AdmissionPolicy:
    """How queued requests are ordered when the pool is backlogged.

    The policy contributes a *rank tuple* to the pending-heap key
    ``(ready, *rank, seq)``.  FIFO's rank is empty, so it orders by
    ``(ready, seq)``; the other policies rank same-cycle requests by
    priority class, deadline, or estimated service cost.  Dispatch binds
    late under every policy: a request that would have to wait for a
    busy worker re-enters the heap at the cycle the earliest candidate
    frees, where the rank re-orders it against everything else queued
    by then — so the policy decides who gets the freed worker, not
    merely who is examined first.
    """

    kind: str = "fifo"
    #: optional :class:`~repro.compiler.tune.ScheduleCache` + pool config:
    #: when set, ``sjf`` ranks autotuned library-kernel requests by their
    #: *measured* cycles instead of the trip-count heuristic
    schedule_cache: Any = None
    config: Any = None

    def __post_init__(self) -> None:
        if self.kind not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.kind!r}; expected one of "
                f"{ADMISSION_POLICIES}"
            )

    @classmethod
    def coerce(cls, spec) -> "AdmissionPolicy":
        """None | kind-string | AdmissionPolicy -> AdmissionPolicy."""
        if spec is None:
            return cls()
        if isinstance(spec, cls):
            return spec
        return cls(str(spec))

    def rank(self, request: InferenceRequest) -> Tuple[int, ...]:
        """The policy's heap-rank tuple for one request (lower = first)."""
        if self.kind == "fifo":
            return ()
        if self.kind == "priority":
            return (int(request.priority),)
        if self.kind == "edf":
            if request.deadline_cycle is None:
                return (1, 0)  # no deadline: after every deadlined request
            return (0, int(request.deadline_cycle))
        return (  # sjf
            estimate_service_cycles(request, self.schedule_cache, self.config),
        )


# -- the pool -----------------------------------------------------------------


class SerialPool:
    """The pool the core executes on: in-process :class:`SystemWorker`
    instances, addressed by :attr:`SystemWorker.index`.

    With a :class:`~repro.serve.memo.ResultMemo` the pool looks every
    attempt up before running it: a hit is served from the stored clean
    result (:meth:`SystemWorker.recall`), a miss runs and is stored.
    Attempts with corruption directives and escalation retries
    (``bypass_fastpath``) neither read nor write the memo.
    """

    def __init__(
        self, workers: Sequence[SystemWorker], memo: Optional[ResultMemo] = None
    ) -> None:
        if not workers:
            raise ValueError("pool needs at least one worker")
        self.workers = {worker.index: worker for worker in workers}
        self.memo = memo

    @property
    def indices(self) -> List[int]:
        return sorted(self.workers)

    def execute(
        self,
        worker: int,
        request: InferenceRequest,
        attempt: int = 1,
        observe: bool = False,
        slow_factor: float = 1.0,
        directives: Sequence = (),
        bypass_fastpath: bool = False,
    ) -> RequestResult:
        runner = self.workers[worker]
        memo = self.memo
        if memo is None or directives or bypass_fastpath:
            return runner.run(
                request, attempt=attempt, observe=observe, slow_factor=slow_factor,
                directives=directives, bypass_fastpath=bypass_fastpath,
            )
        key = runner.memo_key(request)
        digest = key[0]  # a memo key leads with the request digest
        stored = memo.lookup(key)
        if stored is not None:
            return runner.recall(
                request, stored, attempt=attempt, observe=observe,
                slow_factor=slow_factor, digest=digest,
            )
        # collect the launch records either way: a later observed hit
        # serves copies of them
        result = runner.run(
            request, attempt=attempt, observe=True, slow_factor=slow_factor,
            digest=digest,
        )
        memo.remember(key, result)
        if not observe:
            result.launches = []
        return result

    def apply_injected(self, worker: int, error: ServingError) -> None:
        self.workers[worker].apply_injected(error)

    def rebuild(self, worker: int) -> None:
        self.workers[worker].rebuild()

    def last_recovery(self, worker: int) -> Optional[Dict[str, Optional[str]]]:
        return self.workers[worker].last_recovery


# -- the core -----------------------------------------------------------------


class DispatchCore:
    """One event loop for offline and online serving.

    The loop pops ``(ready, *rank, seq, attempt, position)`` entries off
    a pending heap.  ``ready`` is the request's arrival (or
    retry-backoff) cycle — 0 for every request of an offline batch — or
    the cycle a waiting request's worker frees.  Dispatch goes to the
    candidate with the smallest cycle backlog; if it is busy, the
    request waits in the admission queue until it frees, and
    ``queue_capacity`` bounds how many wait.  ``seq`` is the admission
    order, kept through waits and retries.  Faults, retry, failover,
    quarantine, bounded admission and deadlines behave the same in
    every mode, and every result carries its simulated timeline.

    The core draws every fault itself and mirrors worker-side effects
    through the pool, in dispatch order.  It owns the pool's
    :class:`~repro.serve.faults.WorkerSupervisor`: a quarantined worker
    is skipped until its release cycle, and a request that finds every
    worker quarantined waits for the earliest release.  Every decision
    and health transition lands in one record, :attr:`events`; the
    report's tallies
    (:func:`fold_tallies`), span trees
    (:func:`~repro.obs.spans.build_spans`) and timeline
    (:func:`~repro.obs.metrics.build_timeline`) are folds over it.
    ``observe=True`` makes the workers collect per-launch records on
    each result, stamped with their absolute cycle windows.

    The core addresses workers ``0..n-1`` by position, so the pool's
    worker indices must be exactly that range.
    """

    def __init__(
        self,
        pool: SerialPool,
        admission=None,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        queue_capacity: Optional[int] = None,
        observe: bool = False,
    ) -> None:
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None for unbounded)")
        indices = list(pool.indices)
        if not indices or indices != list(range(len(indices))):
            raise ValueError(
                f"dispatch needs workers indexed 0..n-1; the pool has "
                f"worker indices {indices}"
            )
        self.pool = pool
        self.admission = AdmissionPolicy.coerce(admission)
        self.injector = injector
        self.retry = retry or RetryPolicy()
        self.supervisor = WorkerSupervisor(len(indices))
        self.queue_capacity = queue_capacity
        self.observe = observe
        #: cycle at which each worker drains all dispatched work
        self.free_at = [0] * len(indices)
        #: chronological event log (arrival/dispatch/completion/fail/retry/
        #: shed and the health transitions)
        self.events: List[OnlineEvent] = []

    def backlog(self, worker: int, now: int) -> int:
        """Cycles of pending work on ``worker`` as seen at cycle ``now``."""
        return max(0, self.free_at[worker] - now)

    def _release(self, now: int) -> None:
        """Log the quarantines that end at or before ``now``."""
        for cycle, worker in self.supervisor.release(now):
            self.events.append(OnlineEvent(cycle, PROBATION, None, worker))

    def _advance(self, completions: List[tuple], now: int) -> None:
        """Log the completions and quarantine releases at or before
        ``now`` in cycle order, a release before a same-cycle completion."""
        while completions and completions[0][0] <= now:
            cycle, _, rid, worker = heapq.heappop(completions)
            self._release(cycle)
            self.events.append(OnlineEvent(cycle, COMPLETION, rid, worker))
        self._release(now)

    def _candidates(self, now: int, avoid: Optional[int]) -> List[int]:
        """Dispatchable workers at ``now``, preferring not-``avoid``;
        empty while every worker is quarantined."""
        ready = self.supervisor.available()
        if avoid is not None and self.retry.failover:
            others = [w for w in ready if w != avoid]
            if others:
                return others
        return ready

    def _least_backlog(self, now: int, candidates: List[int]) -> int:
        return min(candidates, key=lambda w: (self.backlog(w, now), w))

    def _attempt(
        self,
        worker: int,
        request: InferenceRequest,
        attempt: int,
        observe: bool,
        bypass_fastpath: bool = False,
    ) -> Tuple[Optional[RequestResult], Optional[ServingError]]:
        """One attempt: draw the fault in the core, execute on the pool.

        The injector decides the attempt's fate *here* — before any
        execution, in deterministic dispatch order — and the decision's
        worker-side effects (failure counters, crash rebuilds) are
        applied to the worker.  Corruption directives are drawn here too
        (same reason) and handed to the worker for application
        mid-execution.
        """
        slow_factor = 1.0
        directives: Sequence = ()
        if self.injector is not None:
            try:
                slow_factor = self.injector.before_attempt(request, attempt, worker)
            except ServingError as error:
                self.pool.apply_injected(worker, error)
                return None, error
            directives = self.injector.corruption_for(request, attempt, worker)
        try:
            result = self.pool.execute(
                worker, request, attempt=attempt, observe=observe,
                slow_factor=slow_factor, directives=directives,
                bypass_fastpath=bypass_fastpath,
            )
        except ServingError as error:
            return None, error
        return result, None

    def run(self, requests: Sequence[InferenceRequest]) -> List[RequestResult]:
        """Serve every request; results in input order."""
        requests = list(requests)
        admission = sorted(
            (request.arrival_cycle, position)
            for position, request in enumerate(requests)
        )
        rank_of = [self.admission.rank(request) for request in requests]
        # the pending heap orders (ready, *rank, seq); seq is the admission
        # order, which waits and retries keep, so ties stay deterministic
        pending: List[tuple] = [
            (ready, *rank_of[position], seq, 1, position)
            for seq, (ready, position) in enumerate(admission)
        ]
        heapq.heapify(pending)
        completions: List[Tuple[int, int, int, int]] = []  # (cycle, pos, rid, w)
        results: List[Optional[RequestResult]] = [None] * len(requests)
        attempt_errors: Dict[int, List[str]] = {}
        last_failed: Dict[int, int] = {}
        #: corruption-escalation state: positions that took a ``corrupted``
        #: failure, and (after the first one only) the worker to re-run on
        corrupted: set = set()
        sticky_retry: Dict[int, int] = {}
        #: the admission queue: positions re-pushed to wait for a worker
        waiting: set = set()
        events = self.events

        while pending:
            entry = heapq.heappop(pending)
            ready, seq, attempt, position = entry[0], entry[-3], entry[-2], entry[-1]
            request = requests[position]
            rid = request.request_id
            # log what happened up to this instant, so the event log
            # interleaves chronologically
            self._advance(completions, ready)
            if position in waiting:
                waiting.remove(position)  # admitted when it started waiting
            else:
                # a new arrival, or a retry after its backoff: bounded
                # admission sheds it while the queue is full
                if attempt == 1:
                    events.append(OnlineEvent(ready, ARRIVAL, rid))
                else:
                    events.append(OnlineEvent(ready, RETRY, rid, last_failed[position]))
                depth = len(waiting)
                if self.queue_capacity is not None and depth >= self.queue_capacity:
                    events.append(OnlineEvent(ready, SHED, rid, cause="queue_full"))
                    results[position] = RequestResult.failure(
                        request, "shed",
                        f"admission queue full ({depth} waiting, capacity "
                        f"{self.queue_capacity}) at cycle {ready}",
                        attempts=attempt, arrival_cycle=request.arrival_cycle,
                        fault_class="queue_full",
                    )
                    continue
            # corruption escalation, level 1: re-run on the *same* worker
            # with the replay fast path bypassed — the prime suspect is a
            # poisoned recording, not the silicon — unless the supervisor
            # pulled that worker meanwhile
            sticky = sticky_retry.get(position)
            candidates = self._candidates(
                ready, last_failed.get(position) if sticky is None else None
            )
            if not candidates:
                # every worker is quarantined: wait for the earliest
                # release, which is always after ``ready``
                start = self.supervisor.releases[0][0]
            else:
                if sticky in candidates:
                    worker = sticky
                else:
                    worker = self._least_backlog(ready, candidates)
                start = max(ready, self.free_at[worker])
            # deadline-aware load shedding: don't burn cycles on a request
            # whose queue delay already blew its deadline
            if request.deadline_cycle is not None and start > request.deadline_cycle:
                events.append(OnlineEvent(ready, SHED, rid, cause="deadline"))
                results[position] = RequestResult.failure(
                    request, "shed",
                    f"projected start cycle {start} past deadline "
                    f"{request.deadline_cycle} (queue delay would blow it)",
                    attempts=attempt, arrival_cycle=request.arrival_cycle,
                    fault_class="deadline",
                )
                continue
            if start > ready:
                # late binding: wait until the chosen worker frees (or is
                # released); by then the rank re-orders everything queued
                waiting.add(position)
                heapq.heappush(
                    pending, (start, *rank_of[position], seq, attempt, position)
                )
                continue
            sticky_retry.pop(position, None)
            failover = attempt > 1 and worker != last_failed.get(position)
            result, error = self._attempt(
                worker, request, attempt, self.observe,
                bypass_fastpath=position in corrupted,
            )
            if error is not None:
                self._record_failure(
                    request, worker, ready, attempt, failover, error,
                    attempt_errors.setdefault(position, []),
                )
                last_failed[position] = worker
                if error.fault_class == "corrupted" and position not in corrupted:
                    corrupted.add(position)
                    sticky_retry[position] = worker
                if error.retryable and attempt < self.retry.max_attempts:
                    heapq.heappush(pending, (
                        ready + self.retry.backoff(attempt), *rank_of[position],
                        seq, attempt + 1, position,
                    ))
                else:
                    results[position] = RequestResult.failure(
                        request, "failed",
                        "; ".join(attempt_errors.get(position, [])),
                        worker=worker, attempts=attempt,
                        arrival_cycle=request.arrival_cycle,
                        fault_class=error.fault_class,
                    )
                continue
            result.attempts = attempt
            if attempt_errors.get(position):
                # succeeded after retries: keep the failure history around
                result.error = "; ".join(attempt_errors[position])
            completion = start + result.sim_cycles
            result.arrival_cycle = request.arrival_cycle
            result.start_cycle = start
            result.completion_cycle = completion
            if request.deadline_cycle is not None and completion > request.deadline_cycle:
                result.status = "timed_out"
            # launches lie back-to-back from the service start (the worker
            # executes them serially); stamp the absolute window on each
            # record for the launch spans and the rolling metrics
            cursor = start
            for launch in result.launches:
                launch["start_cycle"] = cursor
                cursor = launch["end_cycle"] = cursor + launch["cycles"]
            self.free_at[worker] = completion
            events.append(OnlineEvent(ready, DISPATCH, rid, worker, attempt, failover))
            if self.supervisor.record_success(worker):
                events.append(OnlineEvent(ready, REINSTATED, None, worker))
            heapq.heappush(completions, (completion, position, rid, worker))
            results[position] = result
        self._advance(completions, self.makespan_cycles)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _record_failure(
        self,
        request: InferenceRequest,
        worker: int,
        cycle: int,
        attempt: int,
        failover: bool,
        error: ServingError,
        history: List[str],
    ) -> None:
        """Log one failed attempt (with how its worker recovered) and, if
        it quarantines the worker, the quarantine (which rebuilds the
        worker's system); keep the recovery diagnostic in ``history``."""
        history.append(f"attempt {attempt} on worker {worker}: {error}")
        recovery = self.pool.last_recovery(worker)
        if recovery and recovery.get("error"):
            history.append(
                f"worker {worker} rebuilt after reset failure: {recovery['error']}"
            )
        self.events.append(OnlineEvent(
            cycle, FAIL, request.request_id, worker, attempt, failover,
            error.fault_class, error.injected, recovery and recovery["via"],
        ))
        if self.supervisor.record_failure(worker, cycle):
            # a crash already rebuilt the worker at injection time
            rebuilt = not isinstance(error, WorkerCrashError)
            if rebuilt:
                self.pool.rebuild(worker)
            self.events.append(
                OnlineEvent(cycle, QUARANTINED, None, worker, rebuilt=rebuilt)
            )

    @property
    def makespan_cycles(self) -> int:
        """Simulated cycle at which the last dispatched request completes."""
        return max(self.free_at, default=0)
