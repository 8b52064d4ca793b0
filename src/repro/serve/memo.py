"""The request-level result memo: a repeated payload is served, not re-run.

A worker resets to a cold heap between requests, so for a fixed config
and library a request's result is a pure function of its kernel graph
and operand bytes — the reset-to-cold contract the serving tests pin.
:class:`ResultMemo` uses that once per request (the prediction-cache
idiom of Clipper, Crankshaw et al., NSDI 2017): the pool looks an
attempt up before running it, and stores what a clean run produced.

The key is the executing worker's
:meth:`~repro.serve.worker.SystemWorker.memo_key`: the request's content
digest paired with the worker's tuned-recipe swaps, so an autotune swap
misses instead of serving stale cycles.  The
memo belongs to one :class:`~repro.serve.engine.ServingEngine` (whose
config and integrity policy are fixed) and lives and dies with it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.system import RunReport
from repro.serve.request import RequestResult

#: stored results per engine, least recently used evicted first
MEMO_CAPACITY = 256


class StoredResult(NamedTuple):
    """What one clean run left behind: a private copy of its output, its
    run reports and copies of its per-launch records (without the
    timeline stamps the dispatch core adds)."""

    output: np.ndarray
    reports: Tuple[RunReport, ...]
    launches: Tuple[Dict[str, Any], ...]


class ResultMemo:
    """Bounded LRU of clean request results, keyed by worker memo keys."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, StoredResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> Optional[StoredResult]:
        """The stored result for ``key`` (refreshing its recency), or None."""
        stored = self._entries.get(key)
        if stored is not None:
            self._entries.move_to_end(key)
        return stored

    def remember(self, key: Hashable, result: RequestResult) -> None:
        """Store ``result`` unless corruption touched it.

        A result whose run fired corruption events, or whose output ABFT
        corrected in place, is not stored: a hit must equal a clean run.
        """
        info = result.integrity or {}
        if info.get("events") or info.get("corrected"):
            return
        self._entries[key] = StoredResult(
            result.output.copy(), tuple(result.reports),
            tuple(dict(launch) for launch in result.launches),
        )
        self._entries.move_to_end(key)
        while len(self._entries) > MEMO_CAPACITY:
            self._entries.popitem(last=False)
