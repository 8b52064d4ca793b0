"""Autotuning: budgeted search over legal-recipe space + schedule cache.

Because schedules are data (:class:`~repro.compiler.schedule.Recipe`),
finding a good one is a search problem, not an authoring problem.  The
:class:`Tuner` runs a budgeted beam search over the legal-move space of
one library algorithm for one concrete operand geometry: every candidate
recipe is compiled into the tuning slot of a pooled
:class:`~repro.core.system.ArcaneSystem`, run on the actual operands,
checked bit-exact against the default schedule's output, and costed by
**simulated cycle count** — the same number every benchmark reports, so
tuned wins are real wins.  The default recipe is always in the candidate
set, so the winner can never be worse than stock.

Winners are memoized in a :class:`ScheduleCache` keyed like the replay
cache — kernel name + operand geometry + an
:class:`~repro.core.config.ArcaneConfig` fingerprint — and the cache is
JSON-persistable so tuning survives across processes.  Serving
(:class:`~repro.serve.engine.ServingEngine`) retunes hot keys online and
swaps winners in via library re-registration; admission control
(:func:`~repro.serve.dispatch.estimate_service_cycles`) consults the
cache's measured cycles before falling back to its trip-count heuristic.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.ir import CompilerError, infer_out_shape
from repro.compiler.library import algorithm, default_recipe, offload_compiled, recompile
from repro.compiler.schedule import Recipe, Step
from repro.core.config import ArcaneConfig

#: User slot the tuner's pooled system measures candidates in (top of the
#: 5..15 user range, far from the stock library slots).
TUNE_SLOT = 15


def config_fingerprint(config: ArcaneConfig) -> str:
    """Short stable digest of every architectural parameter.

    Mirrors the replay-cache keying idiom: two configs agree on the
    fingerprint iff they agree on every field, so cached schedules never
    leak across machine shapes.
    """
    fields = sorted(dataclasses.asdict(config).items())
    blob = ";".join(f"{name}={value!r}" for name, value in fields)
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


def geometry_key(
    source_shapes: Sequence[Tuple[int, int]],
    dtype,
    params: Sequence[int] = (),
) -> str:
    """Canonical string for one operand geometry (shapes + dtype + params)."""
    shapes = "+".join(f"{int(r)}x{int(c)}" for r, c in source_shapes)
    suffix = np.dtype(dtype).name
    extra = ",".join(str(int(p)) for p in params)
    return f"{shapes}:{suffix}" + (f"|{extra}" if extra else "")


@dataclass(frozen=True)
class TunedSchedule:
    """One schedule-cache entry: the winning recipe and its evidence."""

    recipe: Recipe
    cycles: int
    default_cycles: int
    evaluated: int

    @property
    def speedup(self) -> float:
        return self.default_cycles / self.cycles if self.cycles else 1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "recipe": self.recipe.as_steps(),
            "cycles": self.cycles,
            "default_cycles": self.default_cycles,
            "evaluated": self.evaluated,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "TunedSchedule":
        return cls(
            recipe=Recipe.coerce(record["recipe"]),
            cycles=int(record["cycles"]),
            default_cycles=int(record["default_cycles"]),
            evaluated=int(record["evaluated"]),
        )


class ScheduleCache:
    """Memo of tuned schedules, keyed kernel | geometry | config fingerprint.

    The same keying discipline as the replay cache: a hit is only valid
    for the exact kernel, operand geometry, and architecture it was
    measured on.  JSON round-trips via :meth:`save` / :meth:`load` so a
    tuning session's winners outlive the process.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, TunedSchedule] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(kernel: str, geometry: str, config: ArcaneConfig) -> str:
        return f"{kernel}|{geometry}|{config_fingerprint(config)}"

    def get(
        self, kernel: str, geometry: str, config: ArcaneConfig
    ) -> Optional[TunedSchedule]:
        entry = self._entries.get(self.key_for(kernel, geometry, config))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(
        self, kernel: str, geometry: str, config: ArcaneConfig, entry: TunedSchedule
    ) -> None:
        self._entries[self.key_for(kernel, geometry, config)] = entry

    def measured_cycles(
        self, kernel: str, geometry: str, config: ArcaneConfig
    ) -> Optional[int]:
        """Measured cycles of the tuned winner, or None when untuned."""
        entry = self._entries.get(self.key_for(kernel, geometry, config))
        return None if entry is None else entry.cycles

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses}

    def as_dict(self) -> Dict[str, object]:
        return {key: entry.as_dict() for key, entry in sorted(self._entries.items())}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleCache":
        cache = cls()
        for key, record in json.loads(text).items():
            cache._entries[str(key)] = TunedSchedule.from_dict(record)
        return cache

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "ScheduleCache":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


@dataclass
class TuneResult:
    """Outcome of one tuning run (or cache hit) for one (kernel, geometry)."""

    kernel: str
    geometry: str
    config_fingerprint: str
    default_recipe: Recipe
    default_cycles: int
    best_recipe: Recipe
    best_cycles: int
    evaluated: int
    budget: int
    from_cache: bool = False

    @property
    def speedup(self) -> float:
        return self.default_cycles / self.best_cycles if self.best_cycles else 1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "geometry": self.geometry,
            "config_fingerprint": self.config_fingerprint,
            "default_recipe": self.default_recipe.as_steps(),
            "default_cycles": self.default_cycles,
            "best_recipe": self.best_recipe.as_steps(),
            "best_cycles": self.best_cycles,
            "speedup": round(self.speedup, 4),
            "evaluated": self.evaluated,
            "budget": self.budget,
            "from_cache": self.from_cache,
        }


class Tuner:
    """Budgeted beam search over the legal-recipe space of library kernels.

    One pooled :class:`ArcaneSystem` (built lazily from ``config``)
    measures every candidate: the recipe is compiled into
    :data:`TUNE_SLOT`, re-registered with ``replace=True``, run on the
    concrete operands, and scored by simulated total cycles.  Outputs
    must match the default schedule's output bit-exactly or the
    candidate is discarded.  ``budget`` caps total simulator runs per
    :meth:`tune` call; ``beam_width`` recipes survive each search level.
    """

    def __init__(
        self,
        config: ArcaneConfig,
        budget: int = 24,
        beam_width: int = 3,
        cache: Optional[ScheduleCache] = None,
    ) -> None:
        if budget < 1:
            raise ValueError(f"search budget must be >= 1, got {budget}")
        if beam_width < 1:
            raise ValueError(f"beam width must be >= 1, got {beam_width}")
        self.config = config
        self.budget = budget
        self.beam_width = beam_width
        self.cache = cache if cache is not None else ScheduleCache()
        self._system = None

    # -- measurement -------------------------------------------------------

    def _get_system(self):
        if self._system is None:
            from repro.core.system import ArcaneSystem

            self._system = ArcaneSystem(self.config)
        return self._system

    def _measure(
        self,
        name: str,
        steps: Tuple[Step, ...],
        sources: Sequence[np.ndarray],
        out_shape: Tuple[int, int],
        params: Sequence[int],
        dtype,
    ) -> Tuple[np.ndarray, int]:
        """Run one candidate recipe on the pooled system; (output, cycles)."""
        spec = recompile(name, Recipe(steps), func5=TUNE_SLOT)
        system = self._get_system()
        system.reset_heap()
        system.llc.runtime.library.register(spec, replace=True)
        handles = [system.place_matrix(np.ascontiguousarray(s)) for s in sources]
        out = system.alloc_matrix(out_shape, dtype)
        with system.program() as prog:
            for register, handle in enumerate(handles):
                prog.xmr(register, handle)
            prog.xmr(len(handles), out)
            offload_compiled(
                prog, TUNE_SLOT, out.etype.suffix, dest=len(handles),
                sources=list(range(len(handles))), params=list(params),
            )
        return system.read_matrix(out), system.last_report.total_cycles

    # -- search ------------------------------------------------------------

    def tune(
        self,
        name: str,
        sources: Sequence[np.ndarray],
        params: Sequence[int] = (),
        force: bool = False,
    ) -> TuneResult:
        """Find the cheapest legal recipe for one kernel on one geometry.

        Returns the cached winner when one exists (``force=True``
        re-searches and overwrites).  The search seeds its frontier with
        the empty recipe and the default recipe, then greedily extends
        the ``beam_width`` cheapest frontiers with their legal moves
        until the budget runs out or no extension helps.
        """
        dtype = np.asarray(sources[0]).dtype
        geometry = geometry_key([np.asarray(s).shape for s in sources], dtype, params)
        program = algorithm(name)
        out_shape = infer_out_shape(program, [np.asarray(s).shape for s in sources])
        default = default_recipe(name)
        fingerprint = config_fingerprint(self.config)

        if not force:
            cached = self.cache.get(name, geometry, self.config)
            if cached is not None:
                return TuneResult(
                    kernel=name, geometry=geometry,
                    config_fingerprint=fingerprint,
                    default_recipe=default,
                    default_cycles=cached.default_cycles,
                    best_recipe=cached.recipe, best_cycles=cached.cycles,
                    evaluated=cached.evaluated, budget=self.budget,
                    from_cache=True,
                )

        etype_bytes = np.dtype(dtype).itemsize
        measured: Dict[Tuple[Step, ...], Optional[int]] = {}
        golden: Dict[str, np.ndarray] = {}
        evaluated = 0

        def evaluate(steps: Tuple[Step, ...]) -> Optional[int]:
            """Cycles for one recipe, or None (illegal / wrong / over budget)."""
            nonlocal evaluated
            if steps in measured:
                return measured[steps]
            if evaluated >= self.budget:
                return None
            try:
                output, cycles = self._measure(
                    name, steps, sources, out_shape, params, dtype
                )
            except CompilerError:
                measured[steps] = None
                return None
            except RuntimeError:
                # infeasible at runtime (e.g. unstripped reduction blows the
                # VRF); the pooled system may be wedged mid-run — rebuild it
                self._system = None
                measured[steps] = None
                return None
            evaluated += 1
            if "ref" not in golden:
                # first successful run (the default recipe) is the oracle
                golden["ref"] = output
            elif not np.array_equal(output, golden["ref"]):
                measured[steps] = None
                return None
            measured[steps] = cycles
            return cycles

        default_steps = tuple(default)
        default_cycles = evaluate(default_steps)
        if default_cycles is None:
            raise CompilerError(
                f"default recipe for {name!r} failed to compile or run: "
                f"{default.describe()}"
            )

        best_steps, best_cycles = default_steps, default_cycles
        seen = {default_steps, ()}
        frontier: List[Tuple[Step, ...]] = [()]
        empty_cycles = evaluate(())
        if empty_cycles is not None and empty_cycles < best_cycles:
            best_steps, best_cycles = (), empty_cycles

        while frontier and evaluated < self.budget:
            scored: List[Tuple[int, int, Tuple[Step, ...]]] = []
            unscored: List[Tuple[Step, ...]] = []
            for steps in frontier:
                base = self._schedule_for(program, steps)
                if base is None:
                    continue
                for move in base.legal_moves(
                    config=self.config, etype_bytes=etype_bytes
                ):
                    extended = steps + (move,)
                    if extended in seen:
                        continue
                    seen.add(extended)
                    cycles = evaluate(extended)
                    if cycles is None:
                        # legal schedule state that doesn't lower (yet) —
                        # e.g. unvectorized; keep it expandable
                        unscored.append(extended)
                    else:
                        scored.append((cycles, len(extended), extended))
                    if evaluated >= self.budget:
                        break
                if evaluated >= self.budget:
                    break
            if not scored and not unscored:
                break
            scored.sort(key=lambda item: (item[0], item[1], repr(item[2])))
            if scored and scored[0][0] < best_cycles:
                best_cycles, best_steps = scored[0][0], scored[0][2]
            frontier = [steps for _, _, steps in scored[: self.beam_width]]
            frontier += unscored[: self.beam_width]

        entry = TunedSchedule(
            recipe=Recipe(best_steps), cycles=best_cycles,
            default_cycles=default_cycles, evaluated=evaluated,
        )
        self.cache.put(name, geometry, self.config, entry)
        return TuneResult(
            kernel=name, geometry=geometry, config_fingerprint=fingerprint,
            default_recipe=default, default_cycles=default_cycles,
            best_recipe=entry.recipe, best_cycles=best_cycles,
            evaluated=evaluated, budget=self.budget,
        )

    @staticmethod
    def _schedule_for(program, steps: Tuple[Step, ...]):
        """A Schedule with ``steps`` applied (Schedule copies the program)."""
        from repro.compiler.schedule import Schedule

        trial = Schedule(program)
        try:
            trial.apply(steps)
        except CompilerError:
            return None
        return trial
