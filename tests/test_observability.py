"""Observability tests: spans, rolling metrics, trace export, determinism.

The two load-bearing guarantees:

* **zero perturbation** — an ``observe=True`` run produces bit-identical
  outputs, cycle counts and timelines to an ``observe=False`` run (the
  layer is host-side bookkeeping only);
* **determinism** — same seeds export byte-identical trace JSON.
"""

import json

import numpy as np
import pytest

from repro.core.config import ArcaneConfig
from repro.obs import (
    RollingMetrics,
    SpanRecorder,
    auto_interval,
    build_spans,
    build_timeline,
    chrome_trace,
    render_timeline,
    validate_trace,
    write_chrome_trace,
)
from repro.serve.dispatch import OnlineEvent, fold_tallies
from repro.serve.engine import ServingEngine
from repro.serve.request import gemm_request

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)

#: a faulted online scenario known (fixed seeds) to produce retries and
#: failovers while every request still completes
FAULTED = dict(traffic="poisson:25", seed=7, faults="kill:0.3", fault_seed=3)


def small_requests(count=12):
    # a few distinct payloads cycled, so the replay cache sees repeats
    # (first launch of each payload is a miss, later ones are hits)
    rng = np.random.default_rng(42)
    payloads = [
        (
            rng.integers(-8, 8, (8, 8)).astype(np.int8),
            rng.integers(-8, 8, (8, 8)).astype(np.int8),
        )
        for _ in range(3)
    ]
    return [
        gemm_request(rid, *payloads[rid % len(payloads)]) for rid in range(count)
    ]


def faulted_report(observe=True, **overrides):
    engine = ServingEngine(pool_size=2, config=CFG)
    kwargs = dict(FAULTED, observe=observe)
    kwargs.update(overrides)
    return engine.serve_online(small_requests(), **kwargs)


# -- span recorder unit behavior ---------------------------------------------


class TestSpanRecorder:
    def test_begin_end_tree(self):
        rec = SpanRecorder()
        root = rec.begin("request 0", "request", 10, request=0)
        child = rec.begin("attempt 1", "attempt", 10, parent=root)
        rec.end(child, 50, status="ok")
        rec.end(root, 50, status="ok")
        assert rec.open_spans == 0
        assert [s.span_id for s in rec.tree(root)] == [root, child]
        assert rec.spans[child].duration_cycles == 40

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            SpanRecorder().begin("x", "nonsense", 0)

    def test_rejects_double_end_and_time_travel(self):
        rec = SpanRecorder()
        span = rec.begin("x", "request", 10)
        with pytest.raises(ValueError):
            rec.end(span, 5)
        rec.end(span, 10)
        with pytest.raises(ValueError):
            rec.end(span, 20)

    def test_none_attrs_dropped(self):
        rec = SpanRecorder()
        span = rec.begin("x", "request", 0, worker=None, kind="gemm")
        assert rec.spans[span].attrs == {"kind": "gemm"}

    def test_find_by_category_and_attrs(self):
        rec = SpanRecorder()
        rec.begin("a", "attempt", 0, worker=0)
        rec.begin("b", "attempt", 0, worker=1)
        rec.begin("c", "launch", 0, worker=1)
        assert len(rec.find("attempt")) == 2
        assert len(rec.find(worker=1)) == 2
        assert len(rec.find("launch", worker=1)) == 1


# -- rolling metrics unit behavior -------------------------------------------


class TestRollingMetrics:
    def test_counts_land_in_windows(self):
        metrics = RollingMetrics(100)
        metrics.count(10, "arrivals")
        metrics.count(99, "arrivals")
        metrics.count(100, "arrivals")
        samples = metrics.samples()
        assert [s["arrivals"] for s in samples] == [2, 1]
        assert samples[0]["start_cycle"] == 0
        assert samples[1]["end_cycle"] == 200

    def test_level_is_running_sum_at_window_edge(self):
        metrics = RollingMetrics(100)
        metrics.level(10, "queue", +1)
        metrics.level(20, "queue", +1)
        metrics.level(150, "queue", -1)
        metrics.level(350, "queue", -1)
        assert [s["queue"] for s in metrics.samples()] == [2, 1, 1, 0]

    def test_busy_fraction_overlap(self):
        metrics = RollingMetrics(100)
        metrics.busy("busy", "0", 50, 250)
        samples = metrics.samples()
        assert [s["busy"]["0"] for s in samples] == [0.5, 1.0, 0.5]

    def test_point_percentiles_per_window(self):
        metrics = RollingMetrics(100)
        for value in (10, 20, 30):
            metrics.point(50, "lat", value)
        metrics.point(150, "lat", 5)
        samples = metrics.samples()
        assert samples[0]["lat"]["n"] == 3
        assert samples[0]["lat"]["max"] == 30
        assert samples[1]["lat"] == {"n": 1, "p50": 5.0, "p99": 5.0, "max": 5}

    def test_auto_interval_is_power_of_two(self):
        for makespan in (1, 100, 12345, 1 << 20):
            interval = auto_interval(makespan)
            assert interval & (interval - 1) == 0
        assert auto_interval(0) == 1024

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            RollingMetrics(0)
        metrics = RollingMetrics(10)
        with pytest.raises(ValueError):
            metrics.count(-1, "x")
        with pytest.raises(ValueError):
            metrics.busy("b", "0", 10, 5)


# -- supervisor health instants ----------------------------------------------


class TestHealthInstants:
    def test_health_transitions_become_instants(self):
        log = [
            OnlineEvent(20, "quarantined", None, 0, rebuilt=True),
            OnlineEvent(30, "probation", None, 0),
            OnlineEvent(40, "reinstated", None, 0),
        ]
        recorder = build_spans(log, [])
        names = [i.name for i in recorder.instants]
        # a quarantine the core rebuilt is followed by a rebuilt instant
        assert names == ["quarantined", "rebuilt", "probation", "reinstated"]
        assert [i.cycle for i in recorder.instants] == [20, 20, 30, 40]
        assert all(i.attrs["worker"] == 0 for i in recorder.instants)
        # the report's worker_events fold the same transitions
        assert fold_tallies(log)[0]["worker_events"] == [
            {"cycle": 20, "worker": 0, "event": "quarantined"},
            {"cycle": 30, "worker": 0, "event": "probation"},
            {"cycle": 40, "worker": 0, "event": "reinstated"},
        ]


# -- the faulted end-to-end run ----------------------------------------------


class TestFaultedRunSpans:
    @pytest.fixture(scope="class")
    def report(self):
        return faulted_report()

    def test_every_span_closed(self, report):
        assert report.spans.open_spans == 0

    def test_retried_request_tree_shows_failed_attempt_and_failover(self, report):
        retried = [r for r in report.results if r.attempts > 1 and r.completed]
        assert retried, "seeds must produce at least one retried completion"
        result = retried[0]
        root = report.spans.find("request", request=result.request_id)[0]
        attempts = report.spans.children(root.span_id)
        assert [s.category for s in attempts] == ["attempt"] * result.attempts
        failed, final = attempts[0], attempts[-1]
        # the failed attempt: zero duration at its dispatch instant,
        # annotated with the injected fault class
        assert failed.attrs["status"] == "failed"
        assert failed.attrs["fault_class"] == "kill"
        assert failed.attrs["injected"] is True
        assert failed.duration_cycles == 0
        # the retry failed over to a different worker
        assert final.attrs["cause"] == "retry"
        assert final.attrs["failover"] is True
        assert final.attrs["worker"] != failed.attrs["worker"]
        assert final.attrs["status"] == "ok"
        # service child nests inside the attempt, launches inside service
        service = [
            s for s in report.spans.children(final.span_id)
            if s.category == "dispatch"
        ]
        assert len(service) == 1
        launches = report.spans.children(service[0].span_id)
        assert launches and all(s.category == "launch" for s in launches)
        assert all(s.attrs["replay"] in ("hit", "miss", "bypassed", "off", "memo")
                   for s in launches)

    def test_launch_replay_tags_match_results(self, report):
        for result in report.results:
            if not result.completed:
                continue
            spans = [
                s for s in report.spans.find("launch", request=result.request_id)
            ]
            assert [s.attrs["replay"] for s in spans] == [
                launch["replay"] for launch in result.launches
            ]

    def test_replay_hits_appear_after_warmup(self, report):
        """A payload's first run misses the replay cache; after that warm-up
        its repeats are served from the engine's result memo."""
        by_id = {result.request_id: result for result in report.results}
        served = [e.request_id for e in report.dispatch_events if e.kind == "dispatch"]
        seen = set()
        tags = []
        for rid in served:  # execution order
            payload = rid % 3  # small_requests cycles three payloads
            launches = {launch["replay"] for launch in by_id[rid].launches}
            assert launches == {"memo" if payload in seen else "miss"}
            seen.add(payload)
            tags.extend(launches)
        assert "memo" in tags and "miss" in tags

    def test_spans_nest_within_parents(self, report):
        for span in report.spans.spans:
            if span.parent_id is None:
                continue
            parent = report.spans.spans[span.parent_id]
            assert parent.start_cycle <= span.start_cycle
            assert span.end_cycle <= parent.end_cycle


class TestTimeline:
    @pytest.fixture(scope="class")
    def report(self):
        return faulted_report()

    def test_totals_match_report(self, report):
        timeline = report.timeline
        n = len(report.results)
        completed = sum(1 for r in report.results if r.completed)
        assert sum(s["arrivals"] for s in timeline) == n
        assert sum(s["completions"] for s in timeline) == completed
        retries = report.availability["retries"]
        assert sum(s["retries"] for s in timeline) == retries
        assert sum(s["failed_attempts"] for s in timeline) == sum(
            report.availability["failed_attempts_by_class"].values()
        )

    def test_gauges_return_to_zero(self, report):
        assert report.timeline[-1]["queue_depth"] == 0
        assert report.timeline[-1]["in_flight"] == 0

    def test_every_window_has_full_schema(self, report):
        for sample in report.timeline:
            for key in ("window", "start_cycle", "end_cycle", "arrivals",
                        "completions", "sheds", "retries", "queue_depth",
                        "in_flight", "worker_busy", "latency",
                        "replay_hits", "replay_misses"):
                assert key in sample, key
            assert set(sample["worker_busy"]) == {"0", "1"}

    def test_metrics_interval_override(self):
        report = faulted_report(metrics_interval=1 << 20)
        interval = report.timeline[0]["end_cycle"] - report.timeline[0]["start_cycle"]
        assert interval == 1 << 20

    def test_timeline_in_as_dict_and_summary(self, report):
        record = report.as_dict()
        assert record["timeline"] == report.timeline
        json.dumps(record)  # JSON-clean
        assert "timeline" in report.summary()

    def test_no_timeline_when_not_observed(self):
        report = faulted_report(observe=False)
        assert report.timeline is None
        assert report.spans is None
        assert "timeline" not in report.as_dict()


class TestMergedEvents:
    def test_cycle_sorted_and_sourced(self):
        report = faulted_report()
        events = report.events()
        assert events, "online run must produce events"
        cycles = [e["cycle"] for e in events]
        assert cycles == sorted(cycles)
        sources = {e["source"] for e in events}
        assert "dispatch" in sources and "fault" in sources
        kinds_by_source = {"dispatch": {"arrival", "dispatch", "completion"},
                           "fault": {"fail", "retry", "shed"},
                           "health": {"quarantined", "probation", "reinstated"}}
        for event in events:
            assert event["kind"] in kinds_by_source[event["source"]]

    def test_available_without_observe(self):
        # the merged accessor rides on the dispatch log, not on spans
        report = faulted_report(observe=False)
        assert report.events()


# -- equivalence: observe on/off is bit-identical -----------------------------


class TestObservabilityEquivalence:
    def test_observed_run_bit_identical(self):
        plain = faulted_report(observe=False)
        observed = faulted_report(observe=True)
        assert plain.makespan_cycles == observed.makespan_cycles
        assert plain.latency_cycles == observed.latency_cycles
        assert plain.availability == observed.availability
        for a, b in zip(plain.results, observed.results):
            assert a.request_id == b.request_id
            assert a.status == b.status
            assert a.sim_cycles == b.sim_cycles
            assert a.attempts == b.attempts
            assert a.arrival_cycle == b.arrival_cycle
            assert a.start_cycle == b.start_cycle
            assert a.completion_cycle == b.completion_cycle
            assert a.breakdown.as_dict() == b.breakdown.as_dict()
            if a.output is None:
                assert b.output is None
            else:
                assert np.array_equal(a.output, b.output)


# -- trace export -------------------------------------------------------------


class TestTraceExport:
    @pytest.fixture(scope="class")
    def report(self):
        return faulted_report()

    def test_chrome_shape(self, report):
        trace = chrome_trace(report)
        assert validate_trace(trace) == []
        for event in trace["traceEvents"]:
            assert "ph" in event and "ts" in event and "pid" in event

    def test_worker_processes_and_dispatcher(self, report):
        trace = chrome_trace(report)
        names = {
            event["pid"]: event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M"
        }
        assert names == {0: "worker 0", 1: "worker 1", 2: "dispatcher"}

    def test_counter_track_present(self, report):
        counters = [
            e for e in chrome_trace(report)["traceEvents"] if e["ph"] == "C"
        ]
        assert counters
        assert all("queue_depth" in e["args"] for e in counters)

    def test_same_seed_byte_identical(self, tmp_path):
        first = write_chrome_trace(faulted_report(), tmp_path / "a.json")
        second = write_chrome_trace(faulted_report(), tmp_path / "b.json")
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()

    def test_export_requires_observed_report(self):
        with pytest.raises(ValueError):
            chrome_trace(faulted_report(observe=False))

    def test_written_file_parses_and_validates(self, report, tmp_path):
        path = write_chrome_trace(report, tmp_path / "run.trace.json")
        with open(path, "r", encoding="utf-8") as handle:
            assert validate_trace(json.load(handle)) == []

    def test_validate_rejects_malformed(self):
        assert validate_trace({}) == ["missing or non-list 'traceEvents'"]
        problems = validate_trace({"traceEvents": [{"ph": "X"}]})
        assert any("pid" in p for p in problems)
        assert any("ts" in p for p in problems)

    def test_render_timeline_text(self, report):
        text = render_timeline(report, width=40)
        assert "queue_depth" in text
        assert "worker 0 busy" in text
        assert "windows" in text.splitlines()[0]

    def test_render_timeline_without_observe(self):
        assert "observe=True" in render_timeline(faulted_report(observe=False))
