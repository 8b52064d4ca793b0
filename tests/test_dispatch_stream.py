"""Pinned dispatch-stream reference: every output derived from one run.

Each run below serves the same 48 gemm requests and records what the
serving stack reports about it: the report JSON (wall-clock fields
stripped), the span tree, the instant events, the merged event stream,
the Perfetto trace and the integrity section.  The reference file pins
all of it, so any change to how the dispatch loop records its decisions
must reproduce these outputs exactly.

Regenerate the file (only when an output is *meant* to change) with::

    PYTHONPATH=src python tests/test_dispatch_stream.py
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core.config import ArcaneConfig
from repro.obs import chrome_trace
from repro.serve import (
    ServingEngine,
    TrafficSpec,
    gemm_request,
    stamp_arrivals,
    stamp_deadlines,
)

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)

REFERENCE = pathlib.Path(__file__).parent / "data" / "dispatch_stream_reference.json"

TRAFFIC_SEED = 3
FAULT_SEED = 9

#: name -> run settings; what each run exercises is in its comment
STREAM_RUNS = {
    # 10 quarantines on a single worker, each followed by a rebuild; while
    # the one worker is quarantined, requests wait for its release
    "pool1_kill": dict(pool_size=1, traffic="poisson:120", faults="kill:0.5"),
    # crash quarantines: the crash already rebuilt the worker, no instant;
    # released at cycle 4,096, the worker takes requests still waiting
    "crash_quarantine": dict(
        pool_size=2, traffic="bursty:12:0",
        faults="crash_worker:1@1,crash_worker:1@2,crash_worker:1@3",
    ),
    # corruption escalation: bypass retries and failover escalations
    "abft_flip": dict(
        pool_size=2, traffic="poisson:120", faults="flip:0.3", integrity="abft",
    ),
    # bounded admission: queue_full sheds alongside retries
    "queue_full": dict(
        pool_size=2, traffic="bursty:4:12000", queue_capacity=2,
        faults="kill:0.15,transient:0.15",
    ),
    # deadline sheds and timed_out completions
    "deadline": dict(
        pool_size=2, traffic="poisson:120", budget=10000, faults="kill:0.1",
    ),
    # edf admission defers requests until a worker frees
    "edf_deferral": dict(
        pool_size=2, traffic="bursty:4:15000", budget=25000,
        faults="transient:0.1", admission="edf",
    ),
    # offline batch: every arrival at cycle 0 (no spans)
    "offline_kill": dict(pool_size=2, faults="kill:0.2", offline=True),
}


def stream_requests():
    rng = np.random.default_rng(21)
    return [
        gemm_request(
            rid,
            rng.integers(-5, 5, (4 + rid % 5, 6)).astype(np.int16),
            rng.integers(-5, 5, (6, 5)).astype(np.int16),
        )
        for rid in range(48)
    ]


def serve_stream(name: str):
    """Serve one named run; returns its report."""
    settings = dict(STREAM_RUNS[name])
    engine = ServingEngine(
        pool_size=settings["pool_size"], config=CFG,
        admission=settings.get("admission", "fifo"),
        integrity=settings.get("integrity", "off"),
    )
    requests = stream_requests()
    if settings.get("offline"):
        report = engine.serve(
            requests, faults=settings["faults"], fault_seed=FAULT_SEED
        )
    else:
        traffic = settings["traffic"]
        if "budget" in settings:
            requests = stamp_deadlines(
                stamp_arrivals(requests, TrafficSpec.parse(traffic), TRAFFIC_SEED),
                settings["budget"],
            )
            traffic = None
        report = engine.serve_online(
            requests, traffic=traffic, seed=TRAFFIC_SEED,
            faults=settings["faults"], fault_seed=FAULT_SEED,
            queue_capacity=settings.get("queue_capacity"), observe=True,
        )
    return report


def stream_record(report) -> dict:
    """Everything a run reports, as the reference file stores it."""
    record = report.as_dict()
    for volatile in ("wall_seconds", "requests_per_second"):
        record.pop(volatile)
    spans = report.spans
    observed = {
        "report": record,
        "spans": None if spans is None else [s.as_dict() for s in spans.spans],
        "instants": None if spans is None else [
            [instant.cycle, instant.name, instant.attrs]
            for instant in spans.instants
        ],
        "events": report.events(),
        "trace": None if spans is None else chrome_trace(report),
        "integrity": report.integrity,
    }
    # the JSON round trip turns tuples into lists and int keys into strings
    return json.loads(json.dumps(observed))


def assert_folds_of_the_log(report):
    """The health record, the instants, the attempt count and the
    recovery counters are folds of the one dispatch log, and the log is
    in cycle order."""
    log = report.dispatch_events
    # an attempt is a dispatch or a fail entry; a shed request made none
    assert report.availability["attempts"] == sum(
        e.kind in ("dispatch", "fail") for e in log
    )
    health = [e for e in log if e.kind in ("quarantined", "probation", "reinstated")]
    assert report.availability["worker_events"] == [
        {"cycle": e.cycle, "worker": e.worker, "event": e.kind} for e in health
    ]
    if report.spans is not None:
        instants = []
        for e in health:
            instants.append((e.cycle, e.kind, e.worker))
            if e.rebuilt:
                instants.append((e.cycle, "rebuilt", e.worker))
        assert [
            (i.cycle, i.name, i.attrs["worker"]) for i in report.spans.instants
        ] == instants
    for worker, stats in report.per_worker.items():
        fails = [e for e in log if e.kind == "fail" and e.worker == worker]
        rebuilt = [e for e in health if e.worker == worker and e.rebuilt]
        assert stats["recoveries"] == sum(e.recovery == "reset" for e in fails)
        assert stats["rebuilds"] == (
            sum(e.recovery == "rebuild" for e in fails) + len(rebuilt)
        )
    cycles = [e["cycle"] for e in report.events()]
    assert cycles == sorted(cycles)


@pytest.mark.parametrize("name", sorted(STREAM_RUNS))
def test_stream_matches_reference(name):
    expected = json.loads(REFERENCE.read_text())[name]
    report = serve_stream(name)
    observed = stream_record(report)
    assert list(observed) == list(expected)
    for section in expected:
        # compared as serialized text, so key order is pinned too
        assert json.dumps(observed[section]) == json.dumps(expected[section]), section
    assert_folds_of_the_log(report)


def test_reference_exercises_the_named_paths():
    runs = json.loads(REFERENCE.read_text())
    instants = [name for _, name, _ in runs["pool1_kill"]["instants"]]
    assert instants.count("quarantined") == 10 and instants.count("rebuilt") == 10
    for before, after in zip(instants, instants[1:]):
        if after == "rebuilt":
            assert before == "quarantined"
    crash = [name for _, name, _ in runs["crash_quarantine"]["instants"]]
    assert "quarantined" in crash and "rebuilt" not in crash
    served = runs["crash_quarantine"]["report"]["per_worker"]
    assert all(stats["served"] for stats in served.values())
    assert runs["crash_quarantine"]["report"]["makespan_cycles"] <= 250_000
    assert runs["abft_flip"]["integrity"]["escalations"] == {
        "escalations": 7, "bypass_retries": 7, "failover_escalations": 2,
    }
    statuses = {
        name: runs[name]["report"]["availability"]["statuses"]
        for name in ("queue_full", "deadline", "edf_deferral")
    }
    assert statuses["queue_full"]["shed"] == 22
    assert statuses["deadline"]["shed"] and statuses["deadline"]["timed_out"]
    arrived, deferred = {}, 0
    for event in runs["edf_deferral"]["events"]:
        if event["kind"] == "arrival":
            arrived[event["request"]] = event["cycle"]
        elif event["kind"] == "dispatch":
            deferred += event["cycle"] > arrived[event["request"]]
    assert deferred and statuses["edf_deferral"]["shed"]
    assert runs["offline_kill"]["spans"] is None
    assert runs["offline_kill"]["report"]["availability"]["retries"]


if __name__ == "__main__":
    lines = [
        f"{json.dumps(name)}:"
        f"{json.dumps(stream_record(serve_stream(name)), separators=(',', ':'))}"
        for name in sorted(STREAM_RUNS)
    ]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {REFERENCE}")
