"""Serving observability: request spans, rolling metrics, trace export.

Host-side only — nothing here is visible to the simulated machine, so an
observed run is bit-identical to an unobserved one.  See
:mod:`repro.obs.spans` for the span model, :mod:`repro.obs.metrics` for
the windowed time-series engine, and :mod:`repro.obs.export` for
Perfetto-loadable Chrome trace JSON plus the terminal timeline renderer.
"""

from repro.obs.export import (
    REQUIRED_EVENT_KEYS,
    chrome_trace,
    render_timeline,
    validate_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    RollingMetrics,
    auto_interval,
    build_timeline,
    timeline_peaks,
)
from repro.obs.spans import (
    CATEGORIES,
    InstantEvent,
    Span,
    SpanRecorder,
    build_spans,
)

__all__ = [
    "CATEGORIES",
    "REQUIRED_EVENT_KEYS",
    "InstantEvent",
    "RollingMetrics",
    "Span",
    "SpanRecorder",
    "auto_interval",
    "build_spans",
    "build_timeline",
    "chrome_trace",
    "render_timeline",
    "timeline_peaks",
    "validate_trace",
    "write_chrome_trace",
]
