"""The frozen handwritten ``xmk0`` results the GeMM gates compare against.

GeMM slot 0 runs the compiled GeMM; the handwritten body it replaced is
kept only as data.  ``tests/data/xmk0_reference.json`` holds that body's
outputs (:func:`repro.integrity.check.output_digest`, hex), cycles and
stats, and its ``benchmarks`` section covers the benchmark inputs (same
seeds, same draws), keyed ``<benchmark>/<M>x<K>x<N>``.
"""

from __future__ import annotations

import json
import pathlib

REFERENCE = (
    pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "xmk0_reference.json"
)


def frozen_xmk0(case: str) -> dict:
    """The frozen record (``output`` digest, ``total_cycles``, ...) of one case."""
    return json.loads(REFERENCE.read_text())["benchmarks"][case]
