"""Seeded arrival processes — the load side of online serving.

Offline serving hands the engine a batch that exists all at once; online
serving needs *traffic*: each :class:`~repro.serve.request.InferenceRequest`
carries an ``arrival_cycle`` in the same simulated-cycle domain the
ARCANE systems are timed in, and the
:class:`~repro.serve.dispatch.DispatchCore` replays
those arrivals against the pool.  This module generates the arrival
stamps:

* ``poisson:<rate>`` — memoryless arrivals at ``rate`` requests per
  simulated megacycle (exponential inter-arrival gaps), the standard
  open-loop load model;
* ``uniform:<low>:<high>`` — integer inter-arrival gaps drawn uniformly
  from ``[low, high]`` cycles;
* ``bursty:<burst>:<gap>`` — ``burst`` simultaneous arrivals every
  ``gap`` cycles (worst case for a FIFO admission queue);
* ``trace:<c0,c1,...>`` — an explicit, replayable list of arrival
  cycles (e.g. recorded from production and replayed in CI).

Every process is seeded: the same :class:`TrafficSpec` and seed always
produce the same arrival cycles, so online serving runs — and their
queue-delay percentiles — are reproducible end to end.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.serve.request import InferenceRequest

#: Arrival-process kinds understood by :meth:`TrafficSpec.parse`.
TRAFFIC_KINDS = ("poisson", "uniform", "bursty", "trace")


@dataclass(frozen=True)
class TrafficSpec:
    """One parsed arrival process (``kind`` plus numeric parameters)."""

    kind: str
    params: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in TRAFFIC_KINDS:
            raise ValueError(
                f"unknown traffic kind {self.kind!r}; expected one of {TRAFFIC_KINDS}"
            )
        if self.kind == "poisson":
            if len(self.params) != 1 or self.params[0] <= 0:
                raise ValueError("poisson needs one positive rate (req/Mcycle)")
        elif self.kind == "uniform":
            if len(self.params) != 2:
                raise ValueError("uniform needs low and high gap bounds")
            low, high = self.params
            if not (float(low).is_integer() and float(high).is_integer()):
                raise ValueError(
                    f"uniform bounds are whole cycles, got {low}:{high}"
                )
            if low < 0 or high < low:
                raise ValueError(f"uniform needs 0 <= low <= high, got {low}:{high}")
        elif self.kind == "bursty":
            if len(self.params) != 2:
                raise ValueError("bursty needs burst size and gap")
            burst, gap = self.params
            if not (float(burst).is_integer() and float(gap).is_integer()):
                raise ValueError(
                    f"bursty burst/gap are whole counts/cycles, got {burst}:{gap}"
                )
            if burst < 1 or gap < 0:
                raise ValueError(f"bursty needs burst >= 1 and gap >= 0, got {burst}:{gap}")
        elif self.kind == "trace":
            cycles = list(self.params)
            if any(c < 0 for c in cycles):
                raise ValueError("trace arrival cycles must be non-negative")
            if any(b < a for a, b in zip(cycles, cycles[1:])):
                raise ValueError("trace arrival cycles must be non-decreasing")

    @classmethod
    def parse(cls, text: str) -> "TrafficSpec":
        """Parse a ``kind:params`` spec string, e.g. ``poisson:25`` or
        ``trace:0,500,500,9000``."""
        kind, _, rest = str(text).partition(":")
        kind = kind.strip()
        try:
            if kind == "trace":
                raw = [p for p in rest.split(",") if p.strip()]
                if not raw:
                    raise ValueError("trace spec needs at least one arrival cycle")
                return cls("trace", tuple(int(p) for p in raw))
            params = tuple(float(p) for p in rest.split(":") if p.strip())
        except ValueError as error:
            raise ValueError(f"bad traffic spec {text!r}: {error}") from None
        return cls(kind, params)

    def describe(self) -> str:
        """The canonical spec string (round-trips through :meth:`parse`)."""
        if self.kind == "trace":
            return "trace:" + ",".join(str(int(c)) for c in self.params)
        parts = []
        for p in self.params:
            parts.append(str(int(p)) if float(p).is_integer() else str(p))
        return ":".join([self.kind] + parts)


def arrival_cycles(spec: TrafficSpec, n: int, seed: int = 0) -> List[int]:
    """``n`` non-decreasing arrival cycles for the given process and seed."""
    if n < 0:
        raise ValueError("request count must be non-negative")
    if n == 0:
        return []
    if spec.kind == "trace":
        cycles = [int(c) for c in spec.params]
        if len(cycles) < n:
            raise ValueError(
                f"trace has {len(cycles)} arrivals but {n} requests were submitted"
            )
        return cycles[:n]
    if spec.kind == "bursty":
        burst, gap = int(spec.params[0]), int(spec.params[1])
        return [(i // burst) * gap for i in range(n)]
    rng = np.random.default_rng(seed)
    if spec.kind == "poisson":
        # rate is requests per megacycle -> mean gap of 1e6/rate cycles
        gaps = rng.exponential(1e6 / spec.params[0], size=n)
    else:  # uniform
        low, high = spec.params
        gaps = rng.integers(int(low), int(high) + 1, size=n)
    cycles: List[int] = []
    clock = 0
    for gap in gaps:
        clock += int(gap)
        cycles.append(clock)
    return cycles


def stamp_arrivals(
    requests: Sequence[InferenceRequest],
    spec: TrafficSpec,
    seed: int = 0,
) -> List[InferenceRequest]:
    """Return copies of ``requests`` stamped with the process's arrivals.

    The i-th request receives the i-th arrival cycle, so submission order
    is arrival order — what a FIFO admission queue observes.
    """
    cycles = arrival_cycles(spec, len(requests), seed)
    return [
        dataclasses.replace(request, arrival_cycle=cycle)
        for request, cycle in zip(requests, cycles)
    ]


def stamp_deadlines(
    requests: Sequence[InferenceRequest], budget_cycles: int
) -> List[InferenceRequest]:
    """Return copies with ``deadline_cycle = arrival_cycle + budget``.

    Deadlines are absolute simulated cycles, so a relative latency
    budget must be stamped *after* arrivals (``stamp_arrivals``).  The
    online dispatcher sheds a request whose projected start would miss
    its deadline and marks late completions ``timed_out``.
    """
    if budget_cycles < 0:
        raise ValueError(f"deadline budget must be >= 0, got {budget_cycles}")
    return [
        dataclasses.replace(
            request, deadline_cycle=request.arrival_cycle + int(budget_cycles)
        )
        for request in requests
    ]
