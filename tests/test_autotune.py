"""Schedules-as-data: recipes, fuzzed equivalence, the tuner, serving swaps.

The tentpole invariant under test: a schedule is a value.  Recipes
round-trip through JSON, apply onto any library algorithm, enumerate
their legal continuations soundly, and — the semantic core — **every
legal recipe computes exactly what the unscheduled algorithm computes**,
checked bit-for-bit against the :func:`reference_output` interpreter on
seeded random operands.  On top of that sit the tuner (budgeted beam
search whose winner can never lose to the stock recipe), the
JSON-persistable schedule cache, and the serving integration (hot-key
retuning, pool-wide recipe swaps, measured-cycle SJF estimates).
"""

import json

import numpy as np
import pytest

from repro.compiler import (
    ALGORITHMS,
    DEFAULT_FUNC5,
    DEFAULT_RECIPES,
    FUNC5_CGEMM,
    NAME_BY_FUNC5,
    Recipe,
    Schedule,
    ScheduleCache,
    ScheduleError,
    TunedSchedule,
    Tuner,
    algorithm,
    config_fingerprint,
    default_recipe,
    geometry_key,
    infer_out_shape,
    offload_compiled,
    recompile,
    reference_output,
)
from repro.compiler.ir import CompilerError
from repro.compiler.tune import TUNE_SLOT
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem
from repro.serve.dispatch import AdmissionPolicy, estimate_service_cycles
from repro.serve.engine import AutotunePolicy, ServingEngine
from repro.serve.request import kernel_request

SMALL = ArcaneConfig(n_vpus=4, lanes=4, line_bytes=256, vpu_kib=8,
                     main_memory_kib=512)


# ---------------------------------------------------------------------------
# operand generators (one per library algorithm)
# ---------------------------------------------------------------------------


def _sources_for(name: str, rng: np.random.Generator):
    """Random small sources + params for one library kernel."""
    lo, hi = -6, 6
    if name == "cgemm":
        m, k, n = rng.integers(1, 5), rng.integers(2, 25), rng.integers(4, 17)
        return (
            [rng.integers(lo, hi, (m, k)).astype(np.int16),
             rng.integers(lo, hi, (k, n)).astype(np.int16),
             rng.integers(lo, hi, (m, n)).astype(np.int16)],
            [int(rng.integers(-3, 4)), int(rng.integers(-3, 4))],
        )
    if name == "dwconv2d":
        c, kk = int(rng.integers(1, 3)), 3
        h, w = int(rng.integers(kk + 1, 9)), int(rng.integers(kk + 2, 13))
        return (
            [rng.integers(lo, hi, (c * h, w)).astype(np.int16),
             rng.integers(-3, 3, (c * kk, kk)).astype(np.int16)],
            [],
        )
    if name == "fc":
        k, n = int(rng.integers(2, 33)), int(rng.integers(4, 17))
        return (
            [rng.integers(lo, hi, (1, k)).astype(np.int16),
             rng.integers(lo, hi, (k, n)).astype(np.int16),
             rng.integers(lo, hi, (1, n)).astype(np.int16)],
            [],
        )
    if name in ("ewise_add", "ewise_mul"):
        m, n = int(rng.integers(1, 7)), int(rng.integers(4, 33))
        return (
            [rng.integers(lo, hi, (m, n)).astype(np.int16),
             rng.integers(lo, hi, (m, n)).astype(np.int16)],
            [],
        )
    assert name == "rowsum"
    m, n = int(rng.integers(1, 7)), int(rng.integers(4, 33))
    return [rng.integers(lo, hi, (m, n)).astype(np.int16)], []


def _reference(name: str, sources, params):
    program = algorithm(name)
    out_shape = infer_out_shape(program, [s.shape for s in sources])
    operands = {program.dest.name: np.zeros(out_shape, dtype=sources[0].dtype)}
    for op, src in zip(program.sources, sources):
        operands[op.name] = src
    env = dict(zip(program.params, (int(p) for p in params)))
    return reference_output(program, operands, params=env)


def _run_recipe(system, name, recipe, sources, params):
    """Compile ``name`` under ``recipe`` into the tune slot and run it."""
    spec = recompile(name, recipe, func5=TUNE_SLOT)
    system.reset_heap()
    system.llc.runtime.library.register(spec, replace=True)
    handles = [system.place_matrix(s) for s in sources]
    out_shape = infer_out_shape(algorithm(name), [s.shape for s in sources])
    out = system.alloc_matrix(out_shape, sources[0].dtype)
    with system.program() as prog:
        for register, handle in enumerate(handles):
            prog.xmr(register, handle)
        prog.xmr(len(handles), out)
        offload_compiled(prog, TUNE_SLOT, out.etype.suffix, dest=len(handles),
                         sources=list(range(len(handles))), params=list(params))
    return system.read_matrix(out), system.last_report.total_cycles


def _random_walk(name: str, rng: np.random.Generator, config=SMALL):
    """A seeded random legal recipe: walk legal_moves, ensure vectorized."""
    schedule = Schedule(algorithm(name))
    while True:
        moves = schedule.legal_moves(config=config)
        if not moves or rng.random() < 0.25:
            break
        schedule.apply([moves[int(rng.integers(len(moves)))]])
    if schedule.program.vector_var is None:
        vec = [m for m in schedule.legal_moves(config=config) if m[0] == "vectorize"]
        if not vec:
            return None  # cannot lower; resample
        schedule.apply([vec[0]])
    return schedule.recipe


# ---------------------------------------------------------------------------
# recipe IR
# ---------------------------------------------------------------------------


class TestRecipe:
    def test_json_round_trip(self):
        recipe = Recipe([("shard", "i"), ("strip_mine", "k", 4), ("vectorize", "j")])
        again = Recipe.from_json(recipe.to_json())
        assert again == recipe
        assert list(again) == [("shard", "i"), ("strip_mine", "k", 4),
                               ("vectorize", "j")]

    def test_defaults_round_trip(self):
        for name, recipe in DEFAULT_RECIPES.items():
            assert Recipe.from_json(recipe.to_json()) == recipe, name

    def test_coerce_forms(self):
        steps = [("shard", "i"), ("vectorize", "j")]
        recipe = Recipe(steps)
        assert Recipe.coerce(None) == Recipe()
        assert Recipe.coerce(recipe) is recipe
        assert Recipe.coerce(steps) == recipe
        assert Recipe.coerce(recipe.to_json()) == recipe

    def test_describe(self):
        assert Recipe().describe() == "(unscheduled)"
        text = Recipe([("strip_mine", "k", 4)]).describe()
        assert text == "strip_mine(k, 4)"

    def test_bad_steps_rejected(self):
        with pytest.raises(ScheduleError, match="unknown recipe op"):
            Recipe([("fuse", "i")])
        with pytest.raises(ScheduleError):
            Recipe([("shard",)])
        with pytest.raises(ScheduleError):
            Recipe([("shard", "i", 2)])  # shard takes no argument
        with pytest.raises(ScheduleError):
            Recipe([("strip_mine", "k", 0)])  # size must be positive
        with pytest.raises(ScheduleError, match="does not parse"):
            Recipe.from_json("{nope")

    def test_immutable(self):
        recipe = Recipe([("shard", "i")])
        with pytest.raises(AttributeError):
            recipe.steps = ()

    def test_apply_matches_fluent_chain(self):
        fluent = (Schedule(algorithm("cgemm"))
                  .shard("i").strip_mine("k").vectorize("j"))
        applied = Schedule(algorithm("cgemm")).apply(default_recipe("cgemm"))
        assert applied.recipe == fluent.recipe == default_recipe("cgemm")

    def test_schedule_records_applied_steps(self):
        schedule = Schedule(algorithm("cgemm")).shard("i").strip_mine("k", 4)
        assert schedule.recipe == Recipe([("shard", "i"), ("strip_mine", "k", 4)])


# ---------------------------------------------------------------------------
# ScheduleError names the variable and the alternatives (satellite 1)
# ---------------------------------------------------------------------------


class TestScheduleErrors:
    @pytest.mark.parametrize("transform", ["shard", "strip_mine", "unroll",
                                           "vectorize"])
    def test_unknown_var_names_available_vars(self, transform):
        schedule = Schedule(algorithm("cgemm"))
        with pytest.raises(ScheduleError) as excinfo:
            getattr(schedule, transform)("zz")
        message = str(excinfo.value)
        assert "'zz'" in message
        for var in ("'i'", "'j'", "'k'"):
            assert var in message, message

    def test_every_algorithm_reports_its_own_vars(self):
        for name in ALGORITHMS:
            program = algorithm(name)
            with pytest.raises(ScheduleError) as excinfo:
                Schedule(program).shard("nosuchvar")
            message = str(excinfo.value)
            for var in program.loop_vars():
                assert f"'{var}'" in message, (name, message)


# ---------------------------------------------------------------------------
# legal_moves soundness + recipe fuzz equivalence (satellite 3)
# ---------------------------------------------------------------------------


class TestLegalMoves:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_move_applies(self, name):
        rng = np.random.default_rng(11)
        for _ in range(4):
            schedule = Schedule(algorithm(name))
            # wander to a random schedule state, checking soundness there too
            for _ in range(int(rng.integers(0, 3))):
                moves = schedule.legal_moves(config=SMALL)
                if not moves:
                    break
                schedule.apply([moves[int(rng.integers(len(moves)))]])
            for move in schedule.legal_moves(config=SMALL):
                trial = Schedule(algorithm(name)).apply(schedule.recipe)
                trial.apply([move])  # must not raise

    def test_no_double_shard_or_vectorize(self):
        schedule = Schedule(algorithm("cgemm")).shard("i").vectorize("j")
        moves = schedule.legal_moves(config=SMALL)
        assert not any(op == "shard" for op, *_ in moves)
        assert not any(op == "vectorize" for op, *_ in moves)

    def test_strip_caps_respect_config(self):
        moves = Schedule(algorithm("cgemm")).legal_moves(config=SMALL)
        caps = [step[2] for step in moves if step[0] == "strip_mine" and len(step) == 3]
        assert caps and all(1 <= cap < SMALL.vregs_per_vpu for cap in caps)


class TestRecipeFuzz:
    """Seeded random legal recipes are bit-exact vs the unscheduled reference."""

    @pytest.fixture(scope="class")
    def shared(self):
        # mutable holder: a RuntimeError mid-run can leave the simulated
        # system wedged, so tests swap in a fresh one on that path
        return {"system": ArcaneSystem(SMALL)}

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_fuzzed_recipes_match_reference(self, name, shared):
        # hash() is randomized per process; seed from the kernel's index
        rng = np.random.default_rng(101 + sorted(ALGORITHMS).index(name))
        executed = 0
        for round_index in range(6):
            recipe = _random_walk(name, rng)
            if recipe is None:
                continue
            sources, params = _sources_for(name, rng)
            expected = _reference(name, sources, params)
            try:
                got, _ = _run_recipe(
                    shared["system"], name, recipe, sources, params
                )
            except CompilerError:
                continue  # unlowerable for this geometry: legal to reject
            except RuntimeError:
                # over-VRF at claim time: legal to reject, but the system
                # may be mid-run — replace it
                shared["system"] = ArcaneSystem(SMALL)
                continue
            assert np.array_equal(got, expected), (
                f"{name} under {recipe.describe()} diverged from the "
                f"unscheduled reference (round {round_index})"
            )
            executed += 1
        assert executed >= 2, f"fuzz executed only {executed} {name} recipes"

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_default_recipe_matches_reference(self, name, shared):
        rng = np.random.default_rng(5)
        sources, params = _sources_for(name, rng)
        expected = _reference(name, sources, params)
        got, _ = _run_recipe(
            shared["system"], name, default_recipe(name), sources, params
        )
        assert np.array_equal(got, expected)

    def test_fuzzed_recipes_round_trip_json(self):
        rng = np.random.default_rng(23)
        for name in sorted(ALGORITHMS):
            for _ in range(3):
                recipe = _random_walk(name, rng)
                if recipe is None:
                    continue
                assert Recipe.from_json(recipe.to_json()) == recipe


# ---------------------------------------------------------------------------
# recompile into user slots
# ---------------------------------------------------------------------------


class TestRecompile:
    def test_variant_into_user_slot_runs(self):
        rng = np.random.default_rng(2)
        sources, params = _sources_for("cgemm", rng)
        system = ArcaneSystem(SMALL)
        spec = recompile("cgemm", [("strip_mine", "k"), ("vectorize", "j")],
                         func5=9)
        assert spec.func5 == 9
        system.llc.runtime.library.register(spec)
        handles = [system.place_matrix(s) for s in sources]
        out = system.alloc_matrix(
            (sources[0].shape[0], sources[1].shape[1]), np.int16
        )
        with system.program() as prog:
            for register, handle in enumerate(handles):
                prog.xmr(register, handle)
            prog.xmr(len(handles), out)
            offload_compiled(prog, 9, out.etype.suffix, dest=len(handles),
                             sources=[0, 1, 2], params=params)
        assert np.array_equal(
            system.read_matrix(out), _reference("cgemm", sources, params)
        )

    def test_default_recipe_is_stock_spec(self):
        for name, slot in DEFAULT_FUNC5.items():
            spec = recompile(name)
            assert spec.func5 == slot and spec.name == name

    def test_unknown_kernel_named(self):
        with pytest.raises(ValueError, match="nope"):
            recompile("nope")


# ---------------------------------------------------------------------------
# tuner + schedule cache
# ---------------------------------------------------------------------------


class TestTuner:
    def test_tuned_never_loses_to_default(self):
        rng = np.random.default_rng(7)
        tuner = Tuner(SMALL, budget=10, beam_width=2)
        for name in ("cgemm", "rowsum"):
            sources, params = _sources_for(name, rng)
            result = tuner.tune(name, sources, params=params)
            assert result.best_cycles <= result.default_cycles
            assert result.evaluated <= tuner.budget

    def test_budget_respected(self):
        rng = np.random.default_rng(7)
        sources, params = _sources_for("cgemm", rng)
        tuner = Tuner(SMALL, budget=2)
        result = tuner.tune("cgemm", sources, params=params)
        assert result.evaluated <= 2

    def test_cache_hit_on_second_call(self):
        rng = np.random.default_rng(7)
        sources, params = _sources_for("cgemm", rng)
        tuner = Tuner(SMALL, budget=6)
        first = tuner.tune("cgemm", sources, params=params)
        assert not first.from_cache
        second = tuner.tune("cgemm", sources, params=params)
        assert second.from_cache
        assert second.best_cycles == first.best_cycles
        assert second.best_recipe == first.best_recipe

    def test_cache_json_round_trip(self, tmp_path):
        cache = ScheduleCache()
        entry = TunedSchedule(
            recipe=Recipe([("vectorize", "j")]), cycles=100,
            default_cycles=120, evaluated=4,
        )
        cache.put("cgemm", "1x2+2x3+1x3:int16", SMALL, entry)
        path = tmp_path / "schedules.json"
        cache.save(path)
        loaded = ScheduleCache.load(path)
        assert loaded.measured_cycles("cgemm", "1x2+2x3+1x3:int16", SMALL) == 100
        again = loaded.get("cgemm", "1x2+2x3+1x3:int16", SMALL)
        assert again.recipe == entry.recipe
        assert again.speedup == pytest.approx(1.2)

    def test_config_fingerprint_separates_machines(self):
        other = ArcaneConfig(n_vpus=8, lanes=4, line_bytes=256, vpu_kib=8,
                             main_memory_kib=512)
        assert config_fingerprint(SMALL) != config_fingerprint(other)
        cache = ScheduleCache()
        entry = TunedSchedule(Recipe([("vectorize", "j")]), 1, 1, 1)
        cache.put("cgemm", "g", SMALL, entry)
        assert cache.get("cgemm", "g", other) is None
        assert cache.stats()["misses"] == 1

    def test_geometry_key_is_canonical(self):
        key = geometry_key([(8, 16), (16, 24)], np.int16, [2, -1])
        assert key == "8x16+16x24:int16|2,-1"
        assert geometry_key([(8, 16)], np.int8) == "8x16:int8"


# ---------------------------------------------------------------------------
# serving integration: estimates, swaps, hot-key retuning
# ---------------------------------------------------------------------------


def _gemm_kernel_request(request_id, rng, m=4, k=12, n=8):
    a = rng.integers(-6, 6, (m, k)).astype(np.int16)
    b = rng.integers(-6, 6, (k, n)).astype(np.int16)
    c = rng.integers(-6, 6, (m, n)).astype(np.int16)
    return kernel_request(request_id, FUNC5_CGEMM, [a, b, c], (m, n),
                          params=[2, -1], dtype=np.int16)


class TestServingEstimates:
    def test_estimate_prefers_measured_cycles(self):
        rng = np.random.default_rng(1)
        request = _gemm_kernel_request(0, rng)
        heuristic = estimate_service_cycles(request)
        cache = ScheduleCache()
        geometry = geometry_key(
            [m.shape for m in request.payload["inputs"].values()], np.int16, [2, -1]
        )
        cache.put(
            NAME_BY_FUNC5[FUNC5_CGEMM], geometry, SMALL,
            TunedSchedule(Recipe([("vectorize", "j")]), 777, 900, 3),
        )
        assert estimate_service_cycles(request, cache, SMALL) == 777
        assert estimate_service_cycles(request, cache, SMALL) != heuristic

    def test_estimate_falls_back_without_entry(self):
        rng = np.random.default_rng(1)
        request = _gemm_kernel_request(0, rng)
        cache = ScheduleCache()
        assert estimate_service_cycles(request, cache, SMALL) == \
            estimate_service_cycles(request)

    def test_sjf_rank_uses_cache(self):
        rng = np.random.default_rng(1)
        request = _gemm_kernel_request(0, rng)
        cache = ScheduleCache()
        geometry = geometry_key(
            [m.shape for m in request.payload["inputs"].values()], np.int16, [2, -1]
        )
        cache.put("cgemm", geometry, SMALL,
                  TunedSchedule(Recipe([("vectorize", "j")]), 555, 900, 3))
        policy = AdmissionPolicy("sjf", schedule_cache=cache, config=SMALL)
        assert policy.rank(request) == (555,)


class TestServingSwap:
    def test_register_recipe_swaps_pool_and_stays_bit_exact(self):
        rng = np.random.default_rng(4)
        engine = ServingEngine(pool_size=2, config=SMALL)
        requests = [_gemm_kernel_request(i, rng) for i in range(3)]
        baseline = engine.serve(requests, verify=True)
        outputs = [r.output.copy() for r in baseline.results]
        library = engine.workers[0].system.llc.runtime.library
        generation = library.generation
        variant = Recipe([("strip_mine", "k"), ("vectorize", "j")])
        for worker in engine.workers:
            worker.register_recipe("cgemm", variant.to_json())
        assert library.generation > generation  # stale replay invalidated
        spec = library.lookup(FUNC5_CGEMM)
        assert "strip_mine(k)" in spec.description
        swapped = engine.serve(requests, verify=True)
        for before, after in zip(outputs, swapped.results):
            assert np.array_equal(before, after.output)
        engine.close()

    def test_override_survives_rebuild(self):
        engine = ServingEngine(pool_size=1, config=SMALL)
        worker = engine.workers[0]
        variant = Recipe([("strip_mine", "k"), ("vectorize", "j")])
        worker.register_recipe("cgemm", variant.to_json())
        worker.rebuild()
        spec = worker.system.llc.runtime.library.lookup(FUNC5_CGEMM)
        assert "strip_mine(k)" in spec.description
        engine.close()


class TestServingAutotune:
    def test_threshold_gates_retuning(self):
        rng = np.random.default_rng(9)
        engine = ServingEngine(
            pool_size=1, config=SMALL,
            autotune=AutotunePolicy(threshold=4, budget=4),
        )
        below = [_gemm_kernel_request(i, rng) for i in range(3)]
        report = engine.serve(below, verify=True)
        section = report.as_dict()["autotune"]
        assert section["tuned"] == []
        assert sum(section["hot_keys"].values()) == 3
        one_more = [_gemm_kernel_request(3, rng)]
        report = engine.serve(one_more, verify=True)
        section = report.as_dict()["autotune"]
        assert len(section["tuned"]) == 1
        record = section["tuned"][0]
        assert record["kernel"] == "cgemm"
        assert record["best_cycles"] <= record["default_cycles"]
        assert "swapped" in record
        engine.close()

    def test_coerce_forms(self):
        assert AutotunePolicy.coerce(None) is None
        assert AutotunePolicy.coerce(False) is None
        assert AutotunePolicy.coerce(True) == AutotunePolicy()
        assert AutotunePolicy.coerce(5).threshold == 5
        with pytest.raises(ValueError):
            AutotunePolicy.coerce("always")

    def test_preseeded_winner_swaps_and_verifies(self):
        """A cached winner that differs from stock triggers the full swap
        path — re-register in every worker — and outputs stay bit-exact."""
        rng = np.random.default_rng(9)
        engine = ServingEngine(
            pool_size=2, config=SMALL,
            autotune=AutotunePolicy(threshold=1, budget=4),
        )
        probe = _gemm_kernel_request(0, rng)
        geometry = geometry_key(
            [m.shape for m in probe.payload["inputs"].values()], np.int16, [2, -1]
        )
        variant = Recipe([("strip_mine", "k"), ("vectorize", "j")])
        engine.schedule_cache.put(
            "cgemm", geometry, SMALL,
            TunedSchedule(variant, cycles=100, default_cycles=120, evaluated=4),
        )
        report = engine.serve([probe], verify=True)
        section = report.as_dict()["autotune"]
        assert section["tuned"][0]["swapped"] is True
        spec = engine.workers[0].system.llc.runtime.library.lookup(FUNC5_CGEMM)
        assert "strip_mine(k)" in spec.description
        engine.close()

    def test_autotune_section_absent_when_off(self):
        rng = np.random.default_rng(9)
        engine = ServingEngine(pool_size=1, config=SMALL)
        report = engine.serve([_gemm_kernel_request(0, rng)])
        assert "autotune" not in report.as_dict()
        engine.close()
