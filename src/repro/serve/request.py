"""Request/response types for the multi-request serving engine.

An :class:`InferenceRequest` is one independent unit of work a client
submits to the :class:`~repro.serve.engine.ServingEngine`.  It has one
shape: a small *graph* of library kernels (:class:`GraphNode`) chained
through named tensors, over plain numpy inputs — the host's one
instruction form, ``xmr`` operand bindings plus an ``xmk`` by func5.  A
GeMM, an ``xmk4`` convolutional layer and any single library kernel
(handwritten or compiled) are one-node graphs built by
:func:`gemm_request`, :func:`conv_layer_request` and
:func:`kernel_request`; :func:`graph_request` builds longer chains.

A :class:`RequestResult` is the matching response: the output matrix,
the per-request :class:`~repro.core.system.RunReport`(s), and the
latency observed in simulated cycles and harness wall-clock seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.system import RunReport
from repro.runtime.kernels.conv_layer import conv_layer_shapes
from repro.runtime.phases import PhaseBreakdown

#: Request labels: which constructor built the request.  They name the
#: request in reports, spans and error messages; execution never reads them.
KINDS = ("gemm", "conv_layer", "kernel", "graph")

#: Lifecycle states a :class:`RequestResult` can end in.
STATUSES = ("ok", "failed", "timed_out", "shed", "corrupted")


@dataclass
class GraphNode:
    """One kernel invocation inside a request's graph.

    ``inputs`` name either request-level input tensors or the outputs of
    earlier nodes; ``name`` is the tensor this node produces.
    """

    name: str
    func5: int
    inputs: Tuple[str, ...]
    out_shape: Tuple[int, int]
    params: Tuple[int, ...] = ()
    dtype: Optional[Any] = None  # defaults to the first input's dtype

    def __post_init__(self) -> None:
        # the worker allocates a (rows, cols) matrix: reject anything else
        # here, at the API boundary, instead of deep inside a run
        where = f"graph node {self.name!r}"
        try:
            shape = tuple(int(d) for d in self.out_shape)
        except (TypeError, ValueError):
            raise ValueError(
                f"{where}: out_shape must be a (rows, cols) pair of ints, "
                f"got {self.out_shape!r}"
            ) from None
        if len(shape) != 2 or any(d <= 0 for d in shape):
            raise ValueError(
                f"{where}: out_shape must be a (rows, cols) pair of positive "
                f"dims, got {self.out_shape!r}"
            )
        self.out_shape = shape  # type: ignore[assignment]


@dataclass
class InferenceRequest:
    """One independent inference job for the serving engine.

    ``payload`` is always a kernel graph: ``inputs`` (tensor name ->
    numpy array), ``nodes`` (:class:`GraphNode` list in execution order)
    and ``output`` (the node tensor returned).  Every constructor below
    builds that one shape — a GeMM is a one-node graph on slot 0 — so
    execution, golden models, integrity checks and cost estimates read
    nodes.  ``kind`` is only a label (one of :data:`KINDS`) naming the
    constructor, for reports and error messages.

    ``arrival_cycle`` places the request in the pool's simulated-cycle
    domain for online serving (:meth:`ServingEngine.serve_online`);
    offline serving (:meth:`ServingEngine.serve`) stamps every request
    at 0.  Traffic processes in
    :mod:`repro.serve.traffic` stamp it; the default of 0 means "already
    waiting when the simulation starts".

    ``deadline_cycle`` is an *absolute* simulated cycle by which the
    request must complete (``None`` = no deadline).  The dispatch core
    sheds the request if its projected start would already miss the
    deadline, and marks it ``timed_out`` if it completes late, in every
    serving mode.  Stamp relative budgets after
    arrivals with :func:`repro.serve.traffic.stamp_deadlines`.

    ``priority`` is the request's admission class for the dispatch
    core's ``priority`` policy — lower values are served first (0 is the
    default/highest class).  FIFO, EDF and SJF admission ignore it.
    """

    request_id: int
    kind: str
    payload: Dict[str, Any]
    arrival_cycle: int = 0
    deadline_cycle: Optional[int] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}; expected {KINDS}")
        if self.arrival_cycle < 0:
            raise ValueError(f"arrival_cycle must be >= 0, got {self.arrival_cycle}")
        if self.deadline_cycle is not None and self.deadline_cycle < 0:
            raise ValueError(
                f"deadline_cycle must be >= 0, got {self.deadline_cycle}"
            )


def gemm_request(
    request_id: int,
    a: np.ndarray,
    b: np.ndarray,
    c: Optional[np.ndarray] = None,
    alpha: int = 1,
    beta: int = 0,
) -> InferenceRequest:
    """D = alpha * (A @ B) + beta * C on the handwritten ``xmk0`` kernel."""
    if c is None:
        c = np.zeros((a.shape[0], b.shape[1]), dtype=a.dtype)
    return _single_kernel(
        request_id, "gemm", 0, {"a": a, "b": b, "c": c},
        (a.shape[0], b.shape[1]), (alpha, beta),
    )


def conv_layer_request(
    request_id: int, image: np.ndarray, filters: np.ndarray
) -> InferenceRequest:
    """The paper's Listing-1 workload: conv + ReLU + 2x2 max pool (xmk4)."""
    _, _, _, pooled = conv_layer_shapes(
        image.shape[0], image.shape[1], filters.shape[0], filters.shape[1]
    )
    return _single_kernel(
        request_id, "conv_layer", 4, {"image": image, "filters": filters}, pooled
    )


def kernel_request(
    request_id: int,
    func5: int,
    inputs: Sequence[np.ndarray],
    out_shape: Tuple[int, int],
    params: Sequence[int] = (),
    dtype: Optional[Any] = None,
) -> InferenceRequest:
    """Any single library kernel by slot — handwritten or compiled."""
    return _single_kernel(
        request_id, "kernel", func5,
        {f"x{i}": array for i, array in enumerate(inputs)},
        out_shape, params, dtype,
    )


def graph_request(
    request_id: int,
    inputs: Dict[str, np.ndarray],
    nodes: Sequence[GraphNode],
    output: Optional[str] = None,
) -> InferenceRequest:
    """A chain/DAG of kernels over named tensors; ``output`` defaults to
    the last node's tensor."""
    return _graph(request_id, "graph", inputs, nodes, output)


def _single_kernel(
    request_id: int,
    kind: str,
    func5: int,
    inputs: Dict[str, np.ndarray],
    out_shape: Tuple[int, int],
    params: Sequence[int] = (),
    dtype: Optional[Any] = None,
) -> InferenceRequest:
    """A one-node graph: ``func5`` over every input, in order."""
    node = GraphNode(
        "out", int(func5), tuple(inputs), out_shape,
        tuple(int(p) for p in params), dtype,
    )
    return _graph(request_id, kind, inputs, [node])


def _graph(
    request_id: int,
    kind: str,
    inputs: Dict[str, np.ndarray],
    nodes: Sequence[GraphNode],
    output: Optional[str] = None,
) -> InferenceRequest:
    nodes = list(nodes)
    if not nodes:
        raise ValueError("graph request needs at least one node")
    names = set(inputs)
    for node in nodes:
        missing = [t for t in node.inputs if t not in names]
        if missing:
            raise ValueError(
                f"graph node {node.name!r} consumes undefined tensors {missing}"
            )
        if node.name in names:
            raise ValueError(f"graph tensor {node.name!r} defined twice")
        names.add(node.name)
    output = output or nodes[-1].name
    if output not in {n.name for n in nodes}:
        raise ValueError(f"graph output {output!r} is not produced by any node")
    return InferenceRequest(
        request_id, kind, {"inputs": dict(inputs), "nodes": nodes, "output": output}
    )


@dataclass
class RequestResult:
    """The serving engine's answer for one request.

    ``sim_cycles`` is always the *service* time (cycles the assigned
    system spent executing the request).  The dispatch core also fills
    the simulated timeline — ``arrival_cycle``, ``start_cycle``,
    ``completion_cycle`` — from which the queueing split derives:
    ``queue_delay_cycles + sim_cycles == latency_cycles`` per request.
    A result straight from :meth:`SystemWorker.run` leaves the timeline
    ``None``.

    ``status`` is the request's lifecycle outcome (one of
    :data:`STATUSES`): ``ok``, ``failed`` (all attempts exhausted or a
    non-retryable error — ``output`` is ``None``), ``timed_out``
    (completed past its ``deadline_cycle``; output kept), ``shed``
    (dropped by admission control before running) or ``corrupted``
    (the output is known or suspected wrong — flagged by
    ``validate="report"`` or by an exhausted corruption-recovery
    escalation; the suspect output is kept for forensics).  ``error``
    carries the per-attempt failure history, ``attempts`` how many
    tries the request consumed (1 = first try succeeded), and
    ``fault_class`` the taxonomy bucket of the final failure.
    """

    request_id: int
    kind: str
    worker: int
    output: Optional[np.ndarray]
    sim_cycles: int
    breakdown: PhaseBreakdown
    wall_seconds: float
    reports: List[RunReport] = field(default_factory=list, repr=False)
    arrival_cycle: Optional[int] = None
    start_cycle: Optional[int] = None
    completion_cycle: Optional[int] = None
    status: str = "ok"
    error: Optional[str] = None
    attempts: int = 1
    fault_class: Optional[str] = None
    #: per-kernel-launch observability records (observe=True only): dicts
    #: with ``kernel_id``/``name``/``cycles``/``replay`` — the replay tag
    #: is hit/miss/bypassed, "off" when the fast path is disabled, or
    #: "memo" when the engine's result memo served the request.
    #: The dispatch core stamps absolute ``start_cycle``/``end_cycle``
    #: once the request's place on the timeline is known.
    launches: List[Dict[str, Any]] = field(default_factory=list, repr=False)
    #: integrity verdict details when a policy other than ``off`` ran (or
    #: an injected corruption fired): ``policy``, ``corrected``/``method``
    #: when ABFT repaired the output in place, ``events`` with what the
    #: fault injector actually flipped.  JSON-clean.
    integrity: Optional[Dict[str, Any]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(
                f"unknown result status {self.status!r}; expected {STATUSES}"
            )

    @classmethod
    def failure(
        cls,
        request: InferenceRequest,
        status: str,
        error: str,
        worker: int = -1,
        attempts: int = 1,
        arrival_cycle: Optional[int] = None,
        fault_class: Optional[str] = None,
    ) -> "RequestResult":
        """A terminal non-ok result (no output, zero service cycles)."""
        return cls(
            request_id=request.request_id,
            kind=request.kind,
            worker=worker,
            output=None,
            sim_cycles=0,
            breakdown=PhaseBreakdown(),
            wall_seconds=0.0,
            arrival_cycle=arrival_cycle,
            status=status,
            error=error,
            attempts=attempts,
            fault_class=fault_class,
        )

    @property
    def completed(self) -> bool:
        """True when the request actually ran to completion (possibly late,
        possibly with an output flagged ``corrupted``)."""
        return self.status in ("ok", "timed_out", "corrupted")

    @property
    def offload_count(self) -> int:
        return sum(r.offload_count for r in self.reports)

    @property
    def queue_delay_cycles(self) -> Optional[int]:
        """Cycles spent waiting in queue before service began."""
        if self.start_cycle is None or self.arrival_cycle is None:
            return None
        return self.start_cycle - self.arrival_cycle

    @property
    def latency_cycles(self) -> Optional[int]:
        """End-to-end simulated latency: arrival to completion."""
        if self.completion_cycle is None or self.arrival_cycle is None:
            return None
        return self.completion_cycle - self.arrival_cycle
