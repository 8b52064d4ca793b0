"""Rolling fleet metrics: a windowed time-series engine over simulated cycles.

End-of-run aggregates answer "how bad was it?"; this module answers
"*when* was it bad?".  :class:`RollingMetrics` buckets observations into
fixed-width cycle windows and supports the four shapes serving telemetry
needs:

* **rates** (:meth:`count`) — events per window (arrivals, completions,
  sheds, retries, replay hits/misses);
* **gauges** (:meth:`level`) — a running level sampled at each window
  edge from +/- delta events (queue depth, in-flight count);
* **busy fractions** (:meth:`busy`) — per-key interval overlap with each
  window (per-worker busy fraction);
* **percentiles-over-window** (:meth:`point`) — per-window
  :class:`~repro.sim.stats.Histogram` distributions reporting
  p50/p99/max without storing samples (latency within a window).

:func:`build_timeline` derives one sample list for a whole serving
run (offline or online) from the dispatcher's event log and the per-request results
— post-hoc, so the serving hot loop is untouched and the instrumented
run stays bit-identical to an un-instrumented one.  The sample schema is
documented on :func:`build_timeline` and in the README; samples land in
``ServingReport.timeline`` / ``BENCH_serving.json`` so dashboards can
plot behavior over simulated time instead of one scalar per run.

Everything is deterministic: windows are pure functions of the event
cycles, and the auto-chosen interval depends only on the makespan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.stats import Histogram

#: Auto-interval target: about this many windows per run.
TARGET_WINDOWS = 48


def auto_interval(makespan_cycles: int, target_windows: int = TARGET_WINDOWS) -> int:
    """Pick a power-of-two window width giving ~``target_windows`` windows."""
    if target_windows < 1:
        raise ValueError("target_windows must be >= 1")
    if makespan_cycles <= 0:
        return 1024
    raw = max(1, makespan_cycles // target_windows)
    return 1 << (raw - 1).bit_length()


class RollingMetrics:
    """Accumulates observations into fixed-width simulated-cycle windows."""

    def __init__(self, interval_cycles: int) -> None:
        if interval_cycles < 1:
            raise ValueError("interval_cycles must be >= 1")
        self.interval = int(interval_cycles)
        #: rate metrics: name -> {window_index: count}
        self._counts: Dict[str, Dict[int, int]] = {}
        #: gauge metrics: name -> [(cycle, delta)]
        self._levels: Dict[str, List[Tuple[int, int]]] = {}
        #: busy metrics: name -> key -> [(start, end)]
        self._spans: Dict[str, Dict[str, List[Tuple[int, int]]]] = {}
        #: distribution metrics: name -> {window_index: Histogram}
        self._points: Dict[str, Dict[int, Histogram]] = {}
        self._max_cycle = 0

    def _window(self, cycle: int) -> int:
        if cycle < 0:
            raise ValueError(f"cycle must be >= 0, got {cycle}")
        if cycle > self._max_cycle:
            self._max_cycle = cycle
        return cycle // self.interval

    # -- observation ---------------------------------------------------------

    def count(self, cycle: int, name: str, amount: int = 1) -> None:
        """Count ``amount`` events of ``name`` at ``cycle`` (a rate)."""
        window = self._window(cycle)
        per_window = self._counts.setdefault(name, {})
        per_window[window] = per_window.get(window, 0) + amount

    def level(self, cycle: int, name: str, delta: int) -> None:
        """Shift the running level of gauge ``name`` by ``delta`` at ``cycle``."""
        self._window(cycle)  # track extent
        self._levels.setdefault(name, []).append((int(cycle), int(delta)))

    def busy(self, name: str, key: str, start: int, end: int) -> None:
        """Mark ``key`` (e.g. a worker) busy over ``[start, end)`` cycles."""
        if end < start:
            raise ValueError(f"busy interval ends ({end}) before it starts ({start})")
        self._window(max(start, end))
        self._spans.setdefault(name, {}).setdefault(str(key), []).append(
            (int(start), int(end))
        )

    def point(self, cycle: int, name: str, value: int) -> None:
        """Record one sample of distribution ``name`` at ``cycle``."""
        window = self._window(cycle)
        per_window = self._points.setdefault(name, {})
        histogram = per_window.get(window)
        if histogram is None:
            histogram = per_window[window] = Histogram(f"{name}[{window}]")
        histogram.record(int(value))

    # -- materialization -----------------------------------------------------

    @property
    def n_windows(self) -> int:
        return self._max_cycle // self.interval + 1

    def samples(self) -> List[Dict]:
        """Materialize one JSON-clean sample dict per window.

        Every registered metric appears in every window (0 / last level /
        0.0 busy / empty distribution), so consumers can plot columns
        without null-handling.
        """
        n = self.n_windows
        interval = self.interval
        rows: List[Dict] = [
            {
                "window": w,
                "start_cycle": w * interval,
                "end_cycle": (w + 1) * interval,
            }
            for w in range(n)
        ]
        for name, per_window in sorted(self._counts.items()):
            for w, row in enumerate(rows):
                row[name] = per_window.get(w, 0)
        for name, deltas in sorted(self._levels.items()):
            ordered = sorted(deltas)
            value = 0
            position = 0
            for w, row in enumerate(rows):
                edge = (w + 1) * interval
                while position < len(ordered) and ordered[position][0] < edge:
                    value += ordered[position][1]
                    position += 1
                row[name] = value
        for name, per_key in sorted(self._spans.items()):
            for key, intervals in sorted(per_key.items()):
                for w, row in enumerate(rows):
                    lo, hi = w * interval, (w + 1) * interval
                    overlap = sum(
                        max(0, min(end, hi) - max(start, lo))
                        for start, end in intervals
                    )
                    row.setdefault(name, {})[key] = round(overlap / interval, 4)
        for name, per_window in sorted(self._points.items()):
            for w, row in enumerate(rows):
                histogram = per_window.get(w)
                if histogram is None or histogram.count == 0:
                    row[name] = {"n": 0, "p50": 0.0, "p99": 0.0, "max": 0}
                else:
                    row[name] = {
                        "n": histogram.count,
                        "p50": round(histogram.percentile(50), 1),
                        "p99": round(histogram.percentile(99), 1),
                        "max": histogram.maximum,
                    }
        return rows


def build_timeline(
    results: Sequence,  # Sequence[RequestResult]
    events: Sequence,  # Sequence[OnlineEvent]
    pool_size: int,
    interval_cycles: Optional[int] = None,
) -> List[Dict]:
    """Fold a serving run into a list of window samples.

    Per window the sample carries (beyond ``window``/``start_cycle``/
    ``end_cycle``):

    * rates — ``arrivals``, ``completions``, ``sheds``, ``failed_attempts``,
      ``retries``, ``replay_hits``, ``replay_misses``, ``replay_bypassed``;
    * gauges at window end — ``queue_depth`` (admitted, not yet started;
      retries waiting for backoff count as queued), ``in_flight``
      (started, not yet completed);
    * ``worker_busy`` — per-worker busy fraction of the window;
    * ``latency`` — ``{n, p50, p99, max}`` over the end-to-end latencies
      of requests *completing* in the window (log2-bucketed estimate).

    Built from the dispatcher's chronological event log plus per-request
    timelines, entirely post-hoc — the serving loop never sees it.
    """
    last_cycle = 0
    for event in events:
        if event.cycle > last_cycle:
            last_cycle = event.cycle
    for result in results:
        if result.completion_cycle is not None:
            last_cycle = max(last_cycle, result.completion_cycle)
    interval = interval_cycles or auto_interval(last_cycle)
    metrics = RollingMetrics(interval)

    # seed every gauge/rate so empty runs still materialize the schema
    for name in (
        "arrivals", "completions", "sheds", "failed_attempts", "retries",
        "replay_hits", "replay_misses", "replay_bypassed",
    ):
        metrics._counts.setdefault(name, {})
    metrics._levels.setdefault("queue_depth", [])
    metrics._levels.setdefault("in_flight", [])
    for worker in range(pool_size):
        metrics._spans.setdefault("worker_busy", {}).setdefault(str(worker), [])
    metrics._points.setdefault("latency", {})

    last_fail: Dict[int, int] = {}
    for event in events:
        kind = event.kind
        if kind == "arrival":
            metrics.count(event.cycle, "arrivals")
            metrics.level(event.cycle, "queue_depth", +1)
        elif kind == "shed":
            metrics.count(event.cycle, "sheds")
            metrics.level(event.cycle, "queue_depth", -1)
        elif kind == "fail":
            metrics.count(event.cycle, "failed_attempts")
            last_fail[event.request_id] = event.cycle
        elif kind == "retry":
            metrics.count(event.cycle, "retries")

    for result in results:
        if result.completed:
            metrics.level(result.start_cycle, "queue_depth", -1)
            metrics.level(result.start_cycle, "in_flight", +1)
            metrics.level(result.completion_cycle, "in_flight", -1)
            metrics.count(result.completion_cycle, "completions")
            metrics.point(result.completion_cycle, "latency", result.latency_cycles)
            metrics.busy(
                "worker_busy", str(result.worker),
                result.start_cycle, result.completion_cycle,
            )
        elif result.status == "failed":
            # exhausted/non-retryable: leaves the queue at its last failure
            cycle = last_fail.get(result.request_id, result.arrival_cycle or 0)
            metrics.level(cycle, "queue_depth", -1)
        for launch in getattr(result, "launches", ()):
            start = launch.get("start_cycle")
            if start is None:
                continue
            outcome = launch.get("replay", "off")
            if outcome == "hit":
                metrics.count(start, "replay_hits")
            elif outcome == "miss":
                metrics.count(start, "replay_misses")
            elif outcome == "bypassed":
                metrics.count(start, "replay_bypassed")

    return metrics.samples()


def timeline_peaks(timeline: Sequence[Dict]) -> Dict[str, int]:
    """Headline extrema of a timeline (for ``ServingReport.summary()``)."""
    peaks = {"queue_depth": 0, "in_flight": 0}
    for sample in timeline:
        for name in peaks:
            value = sample.get(name, 0)
            if value > peaks[name]:
                peaks[name] = value
    return peaks
