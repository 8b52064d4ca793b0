"""One reusable ARCANE instance serving requests back-to-back.

A :class:`SystemWorker` owns a long-lived
:class:`~repro.core.system.ArcaneSystem` and runs one request at a time:
place operands, offload, read the result, then ``reset_heap()`` so the
next request starts from the same cold state a fresh system would see.
That reset is what makes per-request results (and cycle counts) on a
long-lived worker bit-exact with single-shot runs — and what keeps the
bump allocator from exhausting the matrix heap after a handful of
requests, the lifecycle bug this engine exists to exercise.

The worker is also the **fault boundary**: the dispatch core decides
each attempt's fate *before* the kernel executes and mirrors injected
failures here through :meth:`apply_injected` (so they never perturb the
simulated machine — a later retry is bit-exact with a fault-free run),
and every failure path funnels through :meth:`_recover`, which records
on :attr:`SystemWorker.last_recovery` whether ``reset_heap`` sufficed or
the system had to be rebuilt, keeping the swallowed reset diagnostic
for the failure record instead of silently discarding it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler import install_compiled, offload_compiled
from repro.core.api import Matrix
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem, RunReport
from repro.integrity.check import (
    DigestLedger,
    check_output,
    coerce_policy,
    request_digest,
)
from repro.integrity.inject import CorruptionDirective
from repro.runtime.phases import PhaseBreakdown
from repro.runtime.replay import ReplayDivergence
from repro.serve.faults import (
    RequestRejected,
    ServingError,
    SilentCorruptionError,
    WorkerCrashError,
)
from repro.serve.memo import StoredResult
from repro.serve.request import InferenceRequest, RequestResult
from repro.xbridge.bridge import OffloadOutcome


class SystemWorker:
    """Wraps one reusable ArcaneSystem; executes requests serially."""

    def __init__(
        self,
        index: int = 0,
        config: Optional[ArcaneConfig] = None,
        fleet=None,
        integrity: str = "off",
    ) -> None:
        self.index = index
        self.config = config or ArcaneConfig()
        #: shared fleet replay cache (:class:`repro.serve.fleet.FleetReplayCache`)
        #: the worker's replay cache publishes to / adopts from; ``None``
        #: keeps replay strictly per-system
        self.fleet = fleet
        #: integrity policy applied to every output this worker produces
        #: (``off | digest | abft | dmr`` — :mod:`repro.integrity.check`)
        self.integrity = coerce_policy(integrity)
        #: request-digest -> output-digest memory; survives rebuilds on
        #: purpose (the ledger describes *payloads*, not this silicon)
        self.ledger = DigestLedger() if self.integrity != "off" else None
        self.system = ArcaneSystem(self.config)
        install_compiled(self.system.llc.runtime.library)
        self._attach_fleet()
        #: how the most recent failure was recovered:
        #: ``{"via": "reset"|"rebuild", "error": <swallowed reset diag>}``
        self.last_recovery: Optional[Dict[str, Optional[str]]] = None
        #: autotuned schedule swaps: kernel name -> (recipe JSON, slot);
        #: reapplied on every rebuild so fault recovery keeps tuned variants
        self._recipe_overrides: Dict[str, Tuple[str, int]] = {}

    # -- request execution ----------------------------------------------------

    def run(
        self,
        request: InferenceRequest,
        attempt: int = 1,
        observe: bool = False,
        slow_factor: float = 1.0,
        directives: Sequence[CorruptionDirective] = (),
        bypass_fastpath: bool = False,
        digest: Optional[bytes] = None,
    ) -> RequestResult:
        """Execute one attempt on the long-lived system and reset it.

        Raises a :class:`~repro.serve.faults.ServingError` subclass on
        failure (injected or organic); the system is always left
        serviceable — via ``reset_heap()`` when possible, a full rebuild
        when not (a worker crash always rebuilds).

        ``observe=True`` additionally fills ``result.launches`` with one
        record per kernel launch (name, cycles, replay-cache outcome) —
        pure host-side reads of scheduler/replay state, so the simulated
        machine and its cycle counts are untouched.

        ``slow_factor`` applies an injected latency spike the dispatch
        core already drew; ``directives`` are the core's corruption draws
        for this attempt; ``bypass_fastpath`` suspends the replay fast
        path for the attempt (corruption-escalation retries distrust
        cached recordings).  ``digest`` is the request's
        :func:`~repro.integrity.check.request_digest` when the caller
        already computed it (the memo key); the integrity check reuses it.
        """
        start = time.perf_counter()
        self.last_recovery = None
        cache = self.system.llc.runtime.replay_cache if observe else None
        launch_log: Optional[List[Tuple[int, str]]] = None
        if cache is not None:
            launch_log = cache.launch_log = []
        replay_cache = self.system.llc.runtime.replay_cache
        if replay_cache is not None:
            if bypass_fastpath:
                replay_cache.suspended = True
            if self.integrity != "off":
                # log every recording stored or replayed this attempt so a
                # detection can retract whatever the attempt poisoned
                replay_cache.touched = []
        surface = self.system.corruption
        # arm() resets the event log, but an unarmed run must too — stale
        # events from a previous armed run on this system would otherwise
        # attach to the wrong result
        surface.events = []
        if directives:
            surface.arm(directives)
        try:
            output, reports = self._execute(request)
            for report in reports:
                killed = [o for o in report.outcomes if o is OffloadOutcome.KILLED]
                if killed:
                    raise RequestRejected(
                        f"request {request.request_id} ({request.kind}): "
                        f"{len(killed)} offload(s) killed by the decoder",
                        request_id=request.request_id, worker=self.index,
                    )
        except ReplayDivergence as error:
            # A recording stopped matching the machine mid-replay: on a
            # healthy system this is unreachable, so treat it as a
            # poisoned recording.  The scheduler already invalidated and
            # retracted the diverged key; drop everything else this
            # attempt touched and surface a retryable corruption failure.
            self._retract_touched()
            self._recover()
            raise SilentCorruptionError(
                f"request {request.request_id}: replay recording diverged "
                f"mid-run on worker {self.index} (poisoned recording "
                f"invalidated and retracted)",
                request_id=request.request_id, worker=self.index,
            ) from error
        except BaseException:
            # Keep the original diagnostic: a failed request may leave
            # kernels pending, in which case reset_heap() itself raises —
            # recover the pool slot with a fresh system instead of letting
            # that error mask the real one.
            self._recover()
            raise
        finally:
            if cache is not None:
                cache.launch_log = None
            if surface.armed:
                surface.disarm()
        integrity_info: Optional[Dict[str, Any]] = None
        if self.integrity != "off":
            try:
                output, reports, integrity_info = self._check_integrity(
                    request, output, reports, digest
                )
            except SilentCorruptionError:
                self._retract_touched()
                self._recover()
                raise
            except BaseException:
                self._recover()
                raise
        launches: List[Dict[str, Any]] = []
        if observe:
            # collect per-launch records before reset_heap() clears the
            # scheduler's completed/breakdowns state
            scheduler = self.system.llc.runtime.scheduler
            outcomes = dict(launch_log or ())
            for kernel in scheduler.completed:
                phases = scheduler.breakdowns.get(kernel.kernel_id)
                launches.append({
                    "kernel_id": kernel.kernel_id,
                    "name": kernel.name,
                    "cycles": phases.total if phases is not None else 0,
                    "replay": outcomes.get(kernel.kernel_id, "off"),
                })
        self._restore_replay_flags()
        self.system.reset_heap()
        if surface.events:
            # what actually fired on the machine (diagnostics): attached
            # even under policy "off", where nothing would catch it
            integrity_info = dict(integrity_info or {})
            integrity_info["events"] = list(surface.events)
        return self._result(
            request, output, reports, attempt, launches, integrity_info,
            slow_factor, start,
        )

    def memo_key(self, request: InferenceRequest) -> tuple:
        """What this worker's result for ``request`` is a pure function of.

        The request's content digest paired with the worker's tuned-recipe
        swaps, compared by content: a rebuilt worker with the same swaps
        keys the same, and an autotune swap keys differently.  (The
        library generation counter is no key: a rebuilt worker's counter
        can differ while its library is the same.)
        """
        return request_digest(request), tuple(sorted(self._recipe_overrides.items()))

    def recall(
        self,
        request: InferenceRequest,
        stored: StoredResult,
        attempt: int = 1,
        observe: bool = False,
        slow_factor: float = 1.0,
        digest: Optional[bytes] = None,
    ) -> RequestResult:
        """Serve one attempt from a stored clean result, without running.

        The result gets a copy of its output and a new list of its (shared)
        run reports; the worker's integrity policy re-checks the output
        as after a run, so the digest ledger and ABFT see every served
        request.  With ``observe=True`` its launches are copies of the
        stored run's records, tagged ``replay: "memo"``.  ``digest`` is
        as for :meth:`run`.
        """
        start = time.perf_counter()
        self.last_recovery = None
        output, reports = stored.output.copy(), list(stored.reports)
        integrity_info: Optional[Dict[str, Any]] = None
        if self.integrity != "off":
            try:
                output, reports, integrity_info = self._check_integrity(
                    request, output, reports, digest
                )
            except SilentCorruptionError:
                self._recover()
                raise
        launches = (
            [dict(launch, replay="memo") for launch in stored.launches]
            if observe else []
        )
        return self._result(
            request, output, reports, attempt, launches, integrity_info,
            slow_factor, start,
        )

    def _result(
        self,
        request: InferenceRequest,
        output: np.ndarray,
        reports: List[RunReport],
        attempt: int,
        launches: List[Dict[str, Any]],
        integrity_info: Optional[Dict[str, Any]],
        slow_factor: float,
        start: float,
    ) -> RequestResult:
        """The attempt's result; ``start`` is its host start time."""
        sim_cycles = sum(r.total_cycles for r in reports)
        if slow_factor > 1.0:
            # injected latency spike: stretches the serving timeline only
            # (the RunReports keep the machine's true cycle counts)
            sim_cycles = int(round(sim_cycles * slow_factor))
        breakdown = PhaseBreakdown()
        for report in reports:
            breakdown.merge(report.breakdown)
        return RequestResult(
            request_id=request.request_id,
            kind=request.kind,
            worker=self.index,
            output=output,
            sim_cycles=sim_cycles,
            breakdown=breakdown,
            wall_seconds=time.perf_counter() - start,
            reports=reports,
            attempts=attempt,
            launches=launches,
            integrity=integrity_info,
        )

    def apply_injected(self, error: ServingError) -> None:
        """Mirror an injected fault's worker-side effects.

        The dispatch core draws fault decisions centrally (so every run
        makes identical decisions in identical order) and calls this on
        the chosen worker: the attempt never executes, so the system
        stays clean, but a crash loses all state.
        """
        self.last_recovery = None
        if isinstance(error, WorkerCrashError):
            # the simulated hardware died: all state is lost
            self.rebuild()
            self.last_recovery = {"via": "rebuild", "error": None}

    def rebuild(self) -> None:
        """Replace the simulation universe with a fresh one."""
        self.system = ArcaneSystem(self.config)
        install_compiled(self.system.llc.runtime.library)
        self._attach_fleet()
        for name, (recipe_json, slot) in self._recipe_overrides.items():
            self._register_recipe(name, recipe_json, slot)

    def register_recipe(
        self, name: str, recipe_json: str, func5: Optional[int] = None
    ) -> None:
        """Swap one library kernel for a tuned-recipe variant.

        Re-registers the recompiled spec (``replace=True`` bumps the
        library generation, invalidating stale replay recordings) and
        remembers the override so :meth:`rebuild` reapplies it after
        fault recovery.  ``func5=None`` targets the kernel's stock slot.
        """
        from repro.compiler.library import DEFAULT_FUNC5

        slot = DEFAULT_FUNC5[name] if func5 is None else func5
        self._register_recipe(name, recipe_json, slot)
        self._recipe_overrides[name] = (recipe_json, slot)

    def _register_recipe(self, name: str, recipe_json: str, slot: int) -> None:
        from repro.compiler.library import recompile

        spec = recompile(name, recipe_json, func5=slot)
        self.system.llc.runtime.library.register(spec, replace=True)

    def _attach_fleet(self) -> None:
        """Point the system's replay cache at the shared fleet store."""
        if self.fleet is None:
            return
        cache = self.system.llc.runtime.replay_cache
        if cache is not None:
            cache.fleet = self.fleet

    def _check_integrity(
        self, request: InferenceRequest, output: np.ndarray, reports: List[RunReport],
        digest: Optional[bytes] = None,
    ) -> Tuple[np.ndarray, List[RunReport], Dict[str, Any]]:
        """Apply this worker's integrity policy to a finished attempt.

        Raises :class:`SilentCorruptionError` on unrepairable corruption;
        returns the (possibly ABFT-corrected) output, the report list
        (extended with the DMR shadow's reports — redundancy costs real
        cycles) and a JSON-clean info dict for the result.
        """
        info: Dict[str, Any] = {"policy": self.integrity}
        verdict = check_output(request, output, self.integrity, self.ledger, digest)
        if verdict.status == "corrupt":
            raise SilentCorruptionError(
                f"request {request.request_id}: {verdict.detail} "
                f"(worker {self.index}, via {verdict.method})",
                request_id=request.request_id, worker=self.index,
            )
        if verdict.status == "corrected":
            info["corrected"] = True
            info["method"] = verdict.method
            output = verdict.output
        elif verdict.method is not None:
            info["method"] = verdict.method
        if self.integrity == "dmr":
            shadow, shadow_reports = self._shadow_run(request)
            reports = list(reports) + shadow_reports
            if (
                shadow.shape != output.shape
                or shadow.dtype != output.dtype
                or not np.array_equal(shadow, output)
            ):
                raise SilentCorruptionError(
                    f"request {request.request_id}: DMR shadow execution "
                    f"disagrees with the primary on worker {self.index}",
                    request_id=request.request_id, worker=self.index,
                )
            info["method"] = "dmr"
        return output, reports, info

    def _shadow_run(
        self, request: InferenceRequest
    ) -> Tuple[np.ndarray, List[RunReport]]:
        """DMR shadow: re-execute once more on the reset machine with the
        replay fast path suspended (a poisoned recording must not vote)."""
        self.system.reset_heap()
        cache = self.system.llc.runtime.replay_cache
        restore = cache.suspended if cache is not None else False
        if cache is not None:
            cache.suspended = True
        try:
            return self._execute(request)
        finally:
            if cache is not None:
                cache.suspended = restore

    def _retract_touched(self) -> None:
        """Invalidate (and fleet-retract) every recording this attempt
        stored or replayed — a detected corruption taints all of them."""
        cache = self.system.llc.runtime.replay_cache
        if cache is not None and cache.touched:
            for key in dict.fromkeys(cache.touched):
                cache.invalidate(key)

    def _restore_replay_flags(self) -> None:
        cache = self.system.llc.runtime.replay_cache
        if cache is not None:
            cache.touched = None
            cache.suspended = False

    def _recover(self) -> None:
        """Restore a serviceable system after a failed request.

        Records on ``last_recovery`` whether ``reset_heap()`` sufficed or
        the universe had to be rebuilt, with the swallowed reset-failure
        diagnostic, so the dispatch core can log the recovery and attach
        the diagnostic to the request's failure record.
        """
        self._restore_replay_flags()
        try:
            self.system.reset_heap()
        except Exception as reset_error:
            # kernels stuck mid-flight: rebuild the simulation universe
            self.rebuild()
            self.last_recovery = {"via": "rebuild", "error": repr(reset_error)}
        else:
            self.last_recovery = {"via": "reset", "error": None}

    def _execute(self, request: InferenceRequest) -> Tuple[np.ndarray, List[RunReport]]:
        """Run the request's node chain; intermediates stay resident.

        Each node is one host program (its own offload batch): ``xmr``
        binds its operands to registers 0.. and its output to the next,
        then one ``xmk`` by func5.  A consumer reads its producer's
        output through the LLC, so warm results are served from cache
        lines the producer's write-back just filled.
        """
        system = self.system
        payload = request.payload
        env: Dict[str, Matrix] = {
            name: system.place_matrix(array, name)
            for name, array in payload["inputs"].items()
        }
        reports: List[RunReport] = []
        for node in payload["nodes"]:
            handles = [env[name] for name in node.inputs]
            dtype = np.dtype(node.dtype) if node.dtype is not None else handles[0].dtype
            out = system.alloc_matrix(node.out_shape, dtype, node.name)
            with system.program() as prog:
                for register, handle in enumerate(handles):
                    prog.xmr(register, handle)
                prog.xmr(len(handles), out)
                offload_compiled(
                    prog, node.func5, out.etype.suffix, dest=len(handles),
                    sources=list(range(len(handles))), params=list(node.params),
                )
            reports.append(system.last_report)
            env[node.name] = out
        return system.read_matrix(env[payload["output"]]), reports
