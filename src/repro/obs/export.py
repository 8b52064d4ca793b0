"""Trace export: Chrome trace-event JSON (Perfetto-loadable) + text timeline.

The span trees recorded by :class:`~repro.obs.spans.SpanRecorder` become
a Chrome trace-event file (the JSON format Perfetto and ``chrome://
tracing`` load natively — see the "Trace Event Format" spec).  Layout:

* one trace **process** per worker (``pid = worker index``) carrying its
  ``dispatch``/``launch`` spans on a single track — worker service is
  serial, so they never overlap — plus instant markers for the worker
  health transitions of the dispatch log (quarantine / probation /
  reinstatement / rebuild);
* one extra "dispatcher" process (``pid = pool size``) carrying the
  ``request``/``attempt``/``queue_wait`` spans, one track (``tid``) per
  request id so concurrent requests stack visually;
* a ``queue_depth`` counter track (``"ph": "C"``) on the dispatcher
  process, sampled from the report's rolling-metrics timeline.

One simulated cycle maps to one trace microsecond (the format's time
unit); absolute magnitudes are meaningless but relative durations are
exact.  Export is pure serialization — same run, same seeds ⇒
byte-identical JSON (keys are emitted in a fixed order and events in a
deterministic sort).

:func:`render_timeline` is the terminal-sized counterpart: a fixed-width
per-window strip chart of queue depth / in-flight / worker busy
fractions for tests and example scripts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

#: Chrome trace-event keys every event must carry (CI smoke contract).
REQUIRED_EVENT_KEYS = ("ph", "ts", "pid")


def _event(
    ph: str,
    name: str,
    ts: int,
    pid: int,
    tid: int,
    cat: str,
    **extra: Any,
) -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "ph": ph,
        "name": name,
        "ts": ts,
        "pid": pid,
        "tid": tid,
        "cat": cat,
    }
    event.update(extra)
    return event


def chrome_trace(report) -> Dict[str, Any]:
    """Serialize a ServingReport's spans/instants/timeline to trace JSON.

    Requires the run to have been observed (``report.spans`` not None);
    raises ``ValueError`` otherwise, so a missing ``observe=True`` fails
    loudly instead of exporting an empty file.
    """
    recorder = getattr(report, "spans", None)
    if recorder is None:
        raise ValueError(
            "report has no spans; run serve(..., observe=True) or "
            "serve_online(..., observe=True) to record a trace"
        )
    pool_size = report.pool_size
    dispatcher_pid = pool_size
    events: List[Dict[str, Any]] = []

    for worker in range(pool_size):
        events.append(
            _event("M", "process_name", 0, worker, 0, "__metadata",
                   args={"name": f"worker {worker}"})
        )
    events.append(
        _event("M", "process_name", 0, dispatcher_pid, 0, "__metadata",
               args={"name": "dispatcher"})
    )

    for span in recorder.spans:
        duration = span.duration_cycles
        if span.category in ("dispatch", "launch"):
            # worker-side: service is serial per worker → one track
            pid = int(span.attrs.get("worker", dispatcher_pid))
            tid = 0
        else:
            # dispatcher-side: one track per request
            pid = dispatcher_pid
            tid = int(span.attrs.get("request", 0))
        if duration == 0:
            # zero-duration span (an attempt that failed the cycle it
            # became ready): an instant marker reads better than a 0-wide slice
            events.append(
                _event("i", span.name, span.start_cycle, pid, tid,
                       span.category, s="t", args=dict(span.attrs))
            )
        else:
            events.append(
                _event("X", span.name, span.start_cycle, pid, tid,
                       span.category, dur=duration, args=dict(span.attrs))
            )

    for instant in recorder.instants:
        pid = int(instant.attrs.get("worker", dispatcher_pid))
        events.append(
            _event("i", instant.name, instant.cycle, pid, 0, "health",
                   s="p", args=dict(instant.attrs))
        )

    for sample in getattr(report, "timeline", None) or []:
        events.append(
            _event("C", "queue", sample["start_cycle"], dispatcher_pid, 0,
                   "metrics",
                   args={"queue_depth": sample.get("queue_depth", 0),
                         "in_flight": sample.get("in_flight", 0)})
        )

    # deterministic order: time, then pid/tid, then phase/name
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["ph"], e["name"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "timebase": "simulated cycles (1 cycle = 1 trace microsecond)",
            "pool_size": pool_size,
        },
    }


def write_chrome_trace(report, path) -> str:
    """Write the trace JSON to ``path``; returns the path written.

    ``sort_keys`` + fixed separators keep same-seed exports
    byte-identical (a test asserts this).
    """
    trace = chrome_trace(report)
    text = json.dumps(trace, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return str(path)


def validate_trace(trace: Dict[str, Any]) -> List[str]:
    """Check a trace object against the Chrome trace-event shape.

    Returns a list of problems (empty = valid).  Used by the CI smoke
    test, so it validates structure, not semantics: a ``traceEvents``
    list whose entries all carry :data:`REQUIRED_EVENT_KEYS`.
    """
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    if not events:
        problems.append("'traceEvents' is empty")
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {position} is not an object")
            continue
        for key in REQUIRED_EVENT_KEYS:
            if key not in event:
                problems.append(f"event {position} missing required key {key!r}")
        if "ts" in event and not isinstance(event["ts"], int):
            problems.append(f"event {position} has non-integer ts")
    return problems


# -- plain-text timeline ------------------------------------------------------

_BLOCKS = " .:-=+*#%@"


def _strip(values: Sequence[float], peak: float) -> str:
    """Render values in [0, peak] as a character strip."""
    if peak <= 0:
        return " " * len(values)
    out = []
    for value in values:
        level = min(1.0, max(0.0, value / peak))
        out.append(_BLOCKS[round(level * (len(_BLOCKS) - 1))])
    return "".join(out)


def render_timeline(report, width: int = 64) -> str:
    """Fixed-width strip chart of a serving run's rolling metrics.

    One row per metric, one character per (resampled) window — enough to
    spot a shed storm or an idle worker from a terminal::

        cycles 0..786432 (16384/window, 48 windows)
        queue_depth  peak 7 |  .:-=++**##%%@@%#+=-:.  |
        in_flight    peak 2 | :==========+==========: |
        worker 0 busy       | ######################  |
    """
    timeline = getattr(report, "timeline", None)
    if not timeline:
        return "(no timeline: run serve or serve_online with observe=True)"
    # resample to at most `width` columns by taking the max over spans
    n = len(timeline)
    columns = min(width, n)
    grouped: List[List[Dict]] = [[] for _ in range(columns)]
    for position, sample in enumerate(timeline):
        grouped[position * columns // n].append(sample)

    def column_max(name: str) -> List[float]:
        return [max((s.get(name, 0) for s in group), default=0)
                for group in grouped]

    interval = timeline[0]["end_cycle"] - timeline[0]["start_cycle"]
    end = timeline[-1]["end_cycle"]
    lines = [f"cycles 0..{end} ({interval}/window, {n} windows)"]
    for name in ("queue_depth", "in_flight", "arrivals", "completions",
                 "sheds", "failed_attempts"):
        values = column_max(name)
        peak = max(values, default=0)
        if peak == 0 and name not in ("queue_depth", "in_flight"):
            continue  # nothing happened; skip the empty strip
        lines.append(
            f"{name:<16} peak {int(peak):>4} |{_strip(values, peak)}|"
        )
    workers = sorted(
        (timeline[0].get("worker_busy") or {}).keys(), key=int
    )
    for worker in workers:
        values = [
            max((s.get("worker_busy", {}).get(worker, 0.0) for s in group),
                default=0.0)
            for group in grouped
        ]
        label = f"worker {worker} busy"
        lines.append(f"{label:<16} peak {max(values, default=0.0):>4.0%} "
                     f"|{_strip(values, 1.0)}|")
    return "\n".join(lines)
