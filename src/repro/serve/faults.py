"""Seeded fault injection and the serving failure taxonomy.

A production-shaped serving stack needs the *failure* half of the story:
requests that die mid-offload, workers that crash, latency spikes — and
a deterministic way to rehearse all of it.  This module provides:

* a **failure taxonomy** rooted at :class:`ServingError`, replacing the
  bare raises that used to abort a whole batch (each error knows whether
  a retry can help and which availability class it counts against);
* a **fault plan** grammar parsed like a traffic spec
  (:meth:`FaultPlan.parse`), e.g. ``"kill:0.05"``,
  ``"transient:0.1"``, ``"slow:0.02:4x"``, ``"crash_worker:2@50"``,
  with clauses combined by commas: ``"kill:0.05,slow:0.02:4x"``.
  Data-corruption clauses (``"flip:0.01"``, ``"dma_corrupt:0.01"``,
  ``"vrf_flip:0.01"``, ``"stuck_line:1@5"``) inject *silent* wrong
  answers instead of loud failures; detection is the integrity layer's
  job (:mod:`repro.integrity`) and their seeded draws live on salted
  streams so they never perturb the legacy clauses' decisions;
* a **seeded injector** (:class:`FaultInjector`) that the dispatch core
  asks, before each attempt runs, whether a given
  ``(request, attempt)`` is killed, transiently failed, slowed, or lands
  on a crashing worker.  Decisions hash ``(fault seed, request id,
  attempt)`` so they are order-independent and bit-reproducible: two
  runs with the same ``(traffic seed, fault seed)`` inject identical
  faults;
* a **retry policy** (:class:`RetryPolicy`) — bounded attempts, failover
  to a different worker, exponential backoff in simulated cycles on the
  online path;
* a **worker supervisor** (:class:`WorkerSupervisor`) — consecutive
  failures quarantine a worker for a span of simulated cycles (the
  dispatcher skips it and its system is rebuilt), after which it enters
  *probation*, and one clean request reinstates it.

Injected availability faults fire *before* the kernel executes, so a
failed attempt never perturbs the simulated machine: the retry that
succeeds produces output and cycle counts bit-exact with a fault-free
run.  Data-corruption faults are the deliberate exception — they flip
bits *during* execution and let the attempt "succeed" with a wrong
answer; catching that is the job of :mod:`repro.integrity` and the
``corrupted`` recovery path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.integrity.inject import CORRUPTION_KINDS, SITE_SALTS, CorruptionDirective

#: Availability fault kinds (the original grammar).  The data-corruption
#: kinds (``flip``/``dma_corrupt``/``vrf_flip``/``stuck_line``) come from
#: :mod:`repro.integrity.inject`; a plan may mix both families freely.
FAULT_KINDS = ("kill", "transient", "slow", "crash_worker")

#: Every kind :meth:`FaultPlan.parse` accepts.
ALL_FAULT_KINDS = FAULT_KINDS + CORRUPTION_KINDS

#: mask applied to rng stream key components (SeedSequence entropy words)
_SEED_MASK = 0xFFFFFFFF

#: Worker health states tracked by :class:`WorkerSupervisor`.
HEALTHY, QUARANTINED, PROBATION = "healthy", "quarantined", "probation"


# -- failure taxonomy ---------------------------------------------------------


class ServingError(RuntimeError):
    """Base of every structured serving failure.

    ``retryable`` says whether another attempt (possibly on another
    worker) can succeed; ``fault_class`` is the availability-report
    bucket the failure counts against; ``injected`` distinguishes
    rehearsed faults from organic ones.
    """

    retryable = True
    fault_class = "error"

    def __init__(
        self,
        message: str,
        request_id: Optional[int] = None,
        worker: Optional[int] = None,
        injected: bool = False,
    ) -> None:
        super().__init__(message)
        self.request_id = request_id
        self.worker = worker
        self.injected = injected


class KernelKilledError(ServingError):
    """The kernel launch was killed in flight (injected ``kill`` fault)."""

    fault_class = "kill"


class TransientOffloadError(ServingError):
    """A transient offload failure — expected to clear on retry."""

    fault_class = "transient"


class WorkerCrashError(ServingError):
    """The worker's simulated hardware died; its system must be rebuilt.

    Retryable — but only via failover, since the crashed worker loses
    all state and comes back cold.
    """

    fault_class = "crash_worker"


class RequestRejected(ServingError):
    """The request itself is bad (e.g. offload killed by the decoder for
    an unknown slot) — no retry can help."""

    retryable = False
    fault_class = "rejected"


class SilentCorruptionError(ServingError):
    """An integrity check caught a corrupted result before it shipped.

    Raised when ABFT residues are nonzero and unrepairable, an output
    digest diverges from a prior run of the same payload, a DMR shadow
    execution disagrees, or a replay recording turns out poisoned
    (:class:`~repro.runtime.replay.ReplayDivergence`).  Retryable: the
    dispatch core escalates — first a re-execution with the replay fast
    path bypassed, then failover to a different worker — and repeat
    offenders are quarantined by the supervisor.
    """

    fault_class = "corrupted"


# -- fault plan grammar -------------------------------------------------------


@dataclass(frozen=True)
class FaultClause:
    """One parsed fault clause.

    ``probability``/``factor`` apply to the stochastic kinds
    (``kill``/``transient``/``slow`` and the corruption kinds
    ``flip``/``dma_corrupt``/``vrf_flip``); ``worker``/``at_request`` to
    the deterministic kinds (``crash_worker``/``stuck_line``: fault
    worker ``worker`` the ``at_request``-th time it executes an attempt,
    1-based).
    """

    kind: str
    probability: float = 0.0
    factor: float = 1.0
    worker: int = -1
    at_request: int = -1

    def __post_init__(self) -> None:
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {ALL_FAULT_KINDS}"
            )
        if self.kind in ("kill", "transient", "slow", "flip", "dma_corrupt", "vrf_flip"):
            if not (0.0 < self.probability <= 1.0):
                raise ValueError(
                    f"{self.kind} needs a probability in (0, 1], got {self.probability}"
                )
        if self.kind == "slow" and self.factor <= 1.0:
            raise ValueError(f"slow needs a factor > 1, got {self.factor}")
        if self.kind in ("crash_worker", "stuck_line"):
            if self.worker < 0 or self.at_request < 1:
                raise ValueError(
                    f"{self.kind} needs <worker>@<nth-request> with worker >= 0 "
                    f"and nth >= 1, got {self.worker}@{self.at_request}"
                )

    def describe(self) -> str:
        def num(x: float) -> str:
            return str(int(x)) if float(x).is_integer() else str(x)

        if self.kind in ("crash_worker", "stuck_line"):
            return f"{self.kind}:{self.worker}@{self.at_request}"
        if self.kind == "slow":
            return f"slow:{num(self.probability)}:{num(self.factor)}x"
        return f"{self.kind}:{num(self.probability)}"


@dataclass(frozen=True)
class FaultPlan:
    """A parsed fault spec: one or more clauses applied to every attempt."""

    clauses: Tuple[FaultClause, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("fault plan needs at least one clause")

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a comma-joined fault spec, e.g. ``"kill:0.05,slow:0.02:4x"``.

        Grammar per clause::

            kill:<p>                  # kernel launch killed with prob. p
            transient:<p>             # transient offload failure, prob. p
            slow:<p>:<factor>x        # latency spike: service * factor
            crash_worker:<w>@<n>      # worker w crashes on its n-th attempt
            flip:<p>                  # one LLC operand bit flips, prob. p
            dma_corrupt:<p>           # one DMA row payload bit flips, prob. p
            vrf_flip:<p>              # one VPU register-file write bit flips
            stuck_line:<w>@<n>        # a cache line of worker w sticks on
                                      # its n-th attempt (persists until
                                      # the worker is rebuilt)
        """
        clauses: List[FaultClause] = []
        for chunk in str(text).split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, _, rest = chunk.partition(":")
            kind = kind.strip()
            try:
                if kind in ("crash_worker", "stuck_line"):
                    worker_s, sep, nth_s = rest.partition("@")
                    if not sep:
                        raise ValueError("expected <worker>@<nth-request>")
                    clauses.append(
                        FaultClause(kind, worker=int(worker_s), at_request=int(nth_s))
                    )
                elif kind == "slow":
                    prob_s, _, factor_s = rest.partition(":")
                    if not factor_s:
                        raise ValueError("expected slow:<p>:<factor>x")
                    clauses.append(
                        FaultClause(
                            kind,
                            probability=float(prob_s),
                            factor=float(factor_s.strip().rstrip("xX")),
                        )
                    )
                else:
                    clauses.append(FaultClause(kind, probability=float(rest)))
            except ValueError as error:
                raise ValueError(f"bad fault spec {chunk!r}: {error}") from None
        if not clauses:
            raise ValueError(f"empty fault spec {text!r}")
        return cls(tuple(clauses))

    @classmethod
    def coerce(cls, spec) -> Optional["FaultPlan"]:
        """None | spec-string | FaultPlan -> Optional[FaultPlan]."""
        if spec is None or isinstance(spec, cls):
            return spec
        return cls.parse(spec)

    def describe(self) -> str:
        """The canonical spec string (round-trips through :meth:`parse`)."""
        return ",".join(clause.describe() for clause in self.clauses)


# -- the injector -------------------------------------------------------------


class FaultInjector:
    """Deterministically injects a :class:`FaultPlan` before each attempt.

    Stochastic clauses draw from an RNG seeded with ``(seed, request_id,
    attempt)`` — the draw depends only on the request and attempt number,
    never on execution order, so offline and online serving inject the
    same faults and reruns are bit-reproducible.  ``crash_worker``
    clauses count executed attempts per worker (deterministic under the
    deterministic dispatch order) and fire exactly once.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = int(seed)
        #: attempts each worker has begun executing (crash-clause clock)
        self.worker_runs: Dict[int, int] = {}
        #: injected-fault tally by kind, surfaced in the availability report.
        #: The legacy kinds are always present (report-schema stability);
        #: corruption kinds appear only when the plan mentions them.
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        for kind in CORRUPTION_KINDS:
            if any(clause.kind == kind for clause in plan.clauses):
                self.injected[kind] = 0

    def before_attempt(self, request, attempt: int, worker: int) -> float:
        """Decide the fate of one attempt; called before the kernel runs.

        Raises the injected :class:`ServingError` subclass, or returns
        the latency-spike factor to apply to the attempt's service
        cycles (``1.0`` = no spike).
        """
        runs = self.worker_runs.get(worker, 0) + 1
        self.worker_runs[worker] = runs
        for clause in self.plan.clauses:
            if (
                clause.kind == "crash_worker"
                and clause.worker == worker
                and clause.at_request == runs
            ):
                self.injected["crash_worker"] += 1
                raise WorkerCrashError(
                    f"injected fault: worker {worker} crashed executing its "
                    f"attempt #{runs} (request {request.request_id})",
                    request_id=request.request_id, worker=worker, injected=True,
                )
        rng = np.random.default_rng(
            [self.seed & _SEED_MASK, request.request_id & _SEED_MASK, attempt]
        )
        slow = 1.0
        for clause in self.plan.clauses:
            if clause.kind == "crash_worker" or clause.kind in CORRUPTION_KINDS:
                # Corruption clauses draw from their own salted streams in
                # corruption_for(); consuming a draw here would perturb the
                # legacy kill/transient/slow decisions of any plan that
                # adds a corruption clause under the same seed.
                continue
            draw = float(rng.random())
            if draw >= clause.probability:
                continue
            if clause.kind == "kill":
                self.injected["kill"] += 1
                raise KernelKilledError(
                    f"injected fault: kernel launch for request "
                    f"{request.request_id} killed on worker {worker} "
                    f"(attempt {attempt})",
                    request_id=request.request_id, worker=worker, injected=True,
                )
            if clause.kind == "transient":
                self.injected["transient"] += 1
                raise TransientOffloadError(
                    f"injected fault: transient offload failure for request "
                    f"{request.request_id} on worker {worker} "
                    f"(attempt {attempt})",
                    request_id=request.request_id, worker=worker, injected=True,
                )
            self.injected["slow"] += 1
            slow = max(slow, clause.factor)
        return slow

    def corruption_for(
        self, request, attempt: int, worker: int
    ) -> List[CorruptionDirective]:
        """Draw the data-corruption directives for one attempt.

        Called after :meth:`before_attempt` (which advances the
        per-worker run clock the ``stuck_line`` clauses key on).  Each
        stochastic corruption kind draws from its own rng stream hashed
        over ``(seed, request_id, attempt, kind salt)``: order- and
        pool-independent like the legacy draws, and — because the
        streams are salted — adding a corruption clause never perturbs
        the legacy kill/transient/slow decisions under the same seed.
        ``stuck_line`` picks its line from ``(seed, worker, nth, salt)``
        so the stuck cell doesn't depend on which request happened to
        land on the worker.
        """
        directives: List[CorruptionDirective] = []
        runs = self.worker_runs.get(worker, 0)
        for clause in self.plan.clauses:
            if clause.kind not in CORRUPTION_KINDS:
                continue
            if clause.kind == "stuck_line":
                if clause.worker == worker and clause.at_request == runs:
                    rng = np.random.default_rng(
                        [
                            self.seed & _SEED_MASK,
                            clause.worker,
                            clause.at_request,
                            SITE_SALTS["stuck_line"],
                        ]
                    )
                    site, value = (int(x) for x in rng.integers(0, 2**63, size=2))
                    directives.append(CorruptionDirective("stuck_line", site, value))
                    self.injected["stuck_line"] += 1
                continue
            rng = np.random.default_rng(
                [
                    self.seed & _SEED_MASK,
                    request.request_id & _SEED_MASK,
                    attempt,
                    SITE_SALTS[clause.kind],
                ]
            )
            if float(rng.random()) >= clause.probability:
                continue
            site, value = (int(x) for x in rng.integers(0, 2**63, size=2))
            directives.append(CorruptionDirective(clause.kind, site, value))
            self.injected[clause.kind] += 1
        return directives

    @property
    def corrupts(self) -> bool:
        """True when the plan contains any data-corruption clause."""
        return any(c.kind in CORRUPTION_KINDS for c in self.plan.clauses)


# -- retry policy -------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with failover and exponential simulated backoff.

    ``max_attempts`` counts the first try; ``backoff_cycles`` is the
    simulated-cycle delay before attempt 2, doubling per further attempt
    (offline and online alike).  With ``failover``
    a retry prefers a different worker than the one that just failed.
    """

    max_attempts: int = 3
    backoff_cycles: int = 1024
    failover: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_cycles < 0:
            raise ValueError("backoff_cycles must be >= 0")

    def backoff(self, attempt: int) -> int:
        """Simulated cycles to wait after failed attempt ``attempt``."""
        return self.backoff_cycles << (attempt - 1)


# -- worker supervision -------------------------------------------------------


@dataclass
class WorkerHealth:
    """One worker's supervision state."""

    state: str = HEALTHY
    consecutive_failures: int = 0


class WorkerSupervisor:
    """Quarantines workers that fail repeatedly; reinstates via probation.

    ``threshold`` consecutive failures quarantine a worker at the failing
    attempt's simulated cycle: the dispatcher skips it (its system is
    rebuilt by the core) until ``cycle + quarantine_cycles``, when
    :meth:`release` moves it to *probation* — dispatchable again,
    reinstated as healthy by its first success, re-quarantined
    immediately by a failure.  The default, 4,096 cycles, is four
    first-retry backoffs (:attr:`RetryPolicy.backoff_cycles`), so the
    worker sits out the whole default retry ladder (1,024 + 2,048
    cycles) of the request that quarantined it.

    The supervisor is a state machine only: the dispatch core logs each
    transition it reports to
    :attr:`~repro.serve.dispatch.DispatchCore.events`.
    """

    def __init__(
        self, n_workers: int, threshold: int = 3, quarantine_cycles: int = 4096
    ) -> None:
        if n_workers < 1:
            raise ValueError("supervisor needs at least one worker")
        if threshold < 1 or quarantine_cycles < 1:
            raise ValueError("threshold and quarantine_cycles must be >= 1")
        self.threshold = threshold
        self.quarantine_cycles = quarantine_cycles
        self.health = [WorkerHealth() for _ in range(n_workers)]
        #: min-heap of (release cycle, worker), one per quarantined worker
        self.releases: List[Tuple[int, int]] = []

    def release(self, now: int) -> List[Tuple[int, int]]:
        """Move every worker whose quarantine ends at or before ``now`` to
        probation; returns their ``(release cycle, worker)`` in cycle order."""
        released = []
        while self.releases and self.releases[0][0] <= now:
            entry = heapq.heappop(self.releases)
            self.health[entry[1]].state = PROBATION
            released.append(entry)
        return released

    def available(self) -> List[int]:
        """Dispatchable workers (healthy + probation), lowest index first;
        empty while every worker is quarantined (see :attr:`releases`)."""
        return [w for w, h in enumerate(self.health) if h.state != QUARANTINED]

    def record_success(self, worker: int) -> bool:
        """Record a clean attempt; True if it reinstated a worker on probation."""
        health = self.health[worker]
        health.consecutive_failures = 0
        if health.state == PROBATION:
            health.state = HEALTHY
            return True
        return False

    def record_failure(self, worker: int, cycle: int) -> bool:
        """Record a failed attempt at ``cycle``; True if the worker was just
        quarantined (the caller should rebuild its system)."""
        health = self.health[worker]
        health.consecutive_failures += 1
        if health.state == PROBATION or health.consecutive_failures >= self.threshold:
            health.state = QUARANTINED
            health.consecutive_failures = 0
            heapq.heappush(self.releases, (cycle + self.quarantine_cycles, worker))
            return True
        return False

    def state_of(self, worker: int) -> str:
        return self.health[worker].state
