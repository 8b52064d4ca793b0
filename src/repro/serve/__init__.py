"""Request-level serving over pools of reusable ARCANE systems.

Quickstart::

    from repro.serve import ServingEngine, gemm_request, conv_layer_request

    engine = ServingEngine(pool_size=2)
    report = engine.serve(          # offline: the whole batch at cycle 0
        [gemm_request(0, a, b), conv_layer_request(1, image, filters)],
        verify=True,
    )
    online = engine.serve_online(   # online: arrival-driven, simulated time
        requests, traffic="poisson:25", seed=7, verify=True,
    )
    faulty = engine.serve_online(   # rehearse failures, deterministically
        requests, traffic="poisson:25", seed=7, faults="kill:0.1", fault_seed=3,
    )
    print(report.summary())
    print(online.summary())         # queue delay + service split, utilization
    print(faulty.availability)      # success rate, retries, failovers, sheds

See ``examples/serving.py`` for the full tour and
``benchmarks/bench_serving.py`` for the throughput benchmark.
"""

from repro.eval.serving import (
    MODES,
    ServingReport,
    build_serving_report,
    latency_stats,
    percentile,
)
from repro.serve.dispatch import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    DispatchCore,
    OnlineEvent,
    SerialPool,
    estimate_service_cycles,
    fold_tallies,
)
from repro.integrity.check import INTEGRITY_POLICIES
from repro.integrity.inject import CORRUPTION_KINDS
from repro.serve.engine import ServingEngine
from repro.serve.faults import (
    ALL_FAULT_KINDS,
    FAULT_KINDS,
    FaultClause,
    FaultInjector,
    FaultPlan,
    KernelKilledError,
    RequestRejected,
    RetryPolicy,
    ServingError,
    SilentCorruptionError,
    TransientOffloadError,
    WorkerCrashError,
    WorkerSupervisor,
)
from repro.serve.fleet import FleetReplayCache
from repro.serve.golden import expected_output, kernel_golden
from repro.serve.memo import ResultMemo
from repro.serve.request import (
    KINDS,
    STATUSES,
    GraphNode,
    InferenceRequest,
    RequestResult,
    conv_layer_request,
    gemm_request,
    graph_request,
    kernel_request,
)
from repro.serve.traffic import (
    TRAFFIC_KINDS,
    TrafficSpec,
    arrival_cycles,
    stamp_arrivals,
    stamp_deadlines,
)
from repro.serve.worker import SystemWorker

__all__ = [
    "ADMISSION_POLICIES",
    "ALL_FAULT_KINDS",
    "CORRUPTION_KINDS",
    "FAULT_KINDS",
    "INTEGRITY_POLICIES",
    "KINDS",
    "MODES",
    "STATUSES",
    "TRAFFIC_KINDS",
    "AdmissionPolicy",
    "DispatchCore",
    "FaultClause",
    "FaultInjector",
    "FaultPlan",
    "FleetReplayCache",
    "GraphNode",
    "InferenceRequest",
    "KernelKilledError",
    "OnlineEvent",
    "RequestRejected",
    "RequestResult",
    "ResultMemo",
    "RetryPolicy",
    "SerialPool",
    "ServingEngine",
    "ServingError",
    "ServingReport",
    "SilentCorruptionError",
    "SystemWorker",
    "TrafficSpec",
    "TransientOffloadError",
    "WorkerCrashError",
    "WorkerSupervisor",
    "arrival_cycles",
    "build_serving_report",
    "conv_layer_request",
    "estimate_service_cycles",
    "expected_output",
    "fold_tallies",
    "gemm_request",
    "graph_request",
    "kernel_golden",
    "kernel_request",
    "latency_stats",
    "percentile",
    "stamp_arrivals",
    "stamp_deadlines",
]
