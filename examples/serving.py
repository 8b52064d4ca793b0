#!/usr/bin/env python3
"""Serving demo — many inference requests over a pool of ARCANE systems.

Builds a :class:`~repro.serve.engine.ServingEngine` with two reusable
ARCANE instances, submits a mixed batch (Listing-1 conv layers, GeMMs,
a compiled fully-connected kernel and a three-node kernel graph), and
prints the aggregate throughput/latency report plus a per-request trace.

The same batch is then replayed *online*: a seeded Poisson process
stamps each request with an arrival cycle, and the dispatcher admits
them through a FIFO queue in simulated time, routing each to the worker
with the smallest cycle backlog — the same loop the offline batch ran,
with every arrival at cycle 0.  Both reports split end-to-end latency
into queue delay + service and show per-worker utilization; online,
the queue delay measures the offered load instead of the batch's own
backlog.

Finally the batch is replayed once more under a seeded *fault plan*
(kernel kills, latency spikes and a worker crash): failed attempts back
off in simulated cycles, re-enter the admission queue and fail over to
another worker, the crashed instance is rebuilt, and the availability
section of the report accounts for every retry — while every request
that completes still verifies bit-exactly against the golden model.

Every output is verified against the numpy golden models, and every
request runs on a long-lived system whose heap is recycled between
requests — the lifecycle that used to exhaust the bump allocator after
a handful of programs.

A final drill arms the ABFT integrity policy and flips single bits in
LLC-resident operand bytes mid-kernel: the checksum trips, the request
escalates (fast-path-bypassed retry, then failover) and recovers, and
the report's integrity section shows detection recall.

The faulted replay runs observed (``observe=True``): the script prints
the recorded span tree for one retried request, renders the rolling
fleet-metrics timeline as a text strip chart, and exports the full run
as a Chrome trace-event JSON you can open in Perfetto
(https://ui.perfetto.dev).

Usage:  python examples/serving.py
"""

import os
import tempfile

import numpy as np

from repro.obs import render_timeline, write_chrome_trace

from repro.compiler import FUNC5_CGEMM, FUNC5_EWISE_ADD, FUNC5_FC, FUNC5_ROWSUM
from repro.core.config import ArcaneConfig
from repro.serve import (
    GraphNode,
    ServingEngine,
    conv_layer_request,
    gemm_request,
    graph_request,
    kernel_request,
)


def build_requests(rng) -> list:
    requests = []
    rid = 0
    for _ in range(4):
        # the paper's Listing-1 workload: 3-channel conv + ReLU + max pool
        image = rng.integers(-8, 8, (3 * 16, 16)).astype(np.int8)
        filters = rng.integers(-2, 3, (9, 3)).astype(np.int8)
        requests.append(conv_layer_request(rid, image, filters))
        rid += 1

        # a GeMM on the handwritten xmk0 kernel
        a = rng.integers(-6, 6, (8, 12)).astype(np.int16)
        b = rng.integers(-6, 6, (12, 10)).astype(np.int16)
        requests.append(gemm_request(rid, a, b, alpha=2, beta=0))
        rid += 1

        # a compiled fully-connected layer (kernel slot 18)
        x = rng.integers(-8, 8, (1, 48)).astype(np.int16)
        w = rng.integers(-8, 8, (48, 16)).astype(np.int16)
        bias = rng.integers(-8, 8, (1, 16)).astype(np.int16)
        requests.append(kernel_request(rid, FUNC5_FC, [x, w, bias], (1, 16)))
        rid += 1

    # one kernel graph: cgemm -> ewise_add -> rowsum, chained through memory
    ga = rng.integers(-4, 4, (6, 6)).astype(np.int16)
    gb = rng.integers(-4, 4, (6, 6)).astype(np.int16)
    gc = np.zeros((6, 6), dtype=np.int16)
    gd = rng.integers(-4, 4, (6, 6)).astype(np.int16)
    nodes = [
        GraphNode("prod", FUNC5_CGEMM, ("a", "b", "c"), (6, 6), params=(1, 0)),
        GraphNode("sum", FUNC5_EWISE_ADD, ("prod", "d"), (6, 6)),
        GraphNode("row", FUNC5_ROWSUM, ("sum",), (6, 1)),
    ]
    requests.append(graph_request(rid, {"a": ga, "b": gb, "c": gc, "d": gd}, nodes))
    return requests


def main() -> None:
    rng = np.random.default_rng(42)
    config = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8,
                          main_memory_kib=512)
    engine = ServingEngine(pool_size=2, config=config)
    print(f"pool: 2 x [{config.describe()}]\n")

    requests = build_requests(rng)
    report = engine.serve(requests, verify=True)

    print("== offline: whole batch at cycle 0 ==")
    print(report.summary())
    print("\nper-request trace (simulated cycles):")
    for result in report.results:
        print(f"  request {result.request_id:>2} {result.kind:<10} "
              f"-> worker {result.worker}  {result.sim_cycles:>7,} cycles  "
              f"out {result.output.shape[0]}x{result.output.shape[1]}")

    online = engine.serve_online(requests, traffic="poisson:120", seed=7,
                                 verify=True)
    print("\n== online: Poisson arrivals, FIFO admission, "
          "least-backlog dispatch ==")
    print(online.summary())
    print("\nper-request timeline (simulated cycles):")
    for result in online.results:
        print(f"  request {result.request_id:>2} {result.kind:<10} "
              f"-> worker {result.worker}  "
              f"arrive {result.arrival_cycle:>9,}  "
              f"wait {result.queue_delay_cycles:>7,}  "
              f"serve {result.sim_cycles:>7,}  "
              f"done {result.completion_cycle:>9,}")

    faults = "kill:0.2,slow:0.1:4x,crash_worker:0@3"
    faulty = engine.serve_online(requests, traffic="poisson:120", seed=7,
                                 faults=faults, fault_seed=11, verify=True,
                                 observe=True)
    print(f"\n== online under injected faults ({faults}) ==")
    print(faulty.summary())
    avail = faulty.availability
    print("\navailability:")
    print(f"  success rate : {avail['success_rate']:.1%} "
          f"(statuses: {avail['statuses']})")
    print(f"  retries      : {avail['retries']} "
          f"({avail['failovers']} failed over to another worker)")
    print(f"  injected     : {avail['injected_faults']}")
    for event in avail["worker_events"]:
        print(f"  worker {event['worker']} {event['event']} "
              f"at cycle {event['cycle']:,}")
    for result in faulty.results:
        if result.attempts > 1 or result.status != "ok":
            print(f"  request {result.request_id:>2} [{result.status}] "
                  f"{result.attempts} attempt(s): {result.error}")

    # the run was observed: show one retried request's span tree ...
    recorder = faulty.spans
    retried = [r for r in faulty.results if r.attempts > 1 and r.status == "ok"]
    if retried:
        root = recorder.find(category="request",
                             request=retried[0].request_id)[0]
        print(f"\nspan tree for retried request {retried[0].request_id}:")
        depth = {root.span_id: 0}
        for span in recorder.tree(root.span_id):
            if span.span_id not in depth:
                depth[span.span_id] = depth[span.parent_id] + 1
            notes = {k: v for k, v in span.attrs.items()
                     if k not in ("request", "kind")}
            print(f"  {'  ' * depth[span.span_id]}{span.name:<24} "
                  f"[{span.start_cycle:,}..{span.end_cycle:,}] {notes}")

    # ... the rolling fleet-metrics timeline as a strip chart ...
    print("\nfleet timeline (faulted run):")
    print(render_timeline(faulty))

    # ... and the whole run as a Perfetto-loadable Chrome trace
    trace_path = os.path.join(tempfile.gettempdir(),
                              "arcane_serving.trace.json")
    write_chrome_trace(faulty, trace_path)
    print(f"\nPerfetto trace written to {trace_path} "
          f"(open at https://ui.perfetto.dev)")

    # -- data integrity: flipped bits, ABFT detection, recovery ---------------
    # A fresh pool with the ABFT policy armed: every gemm-family output is
    # checked against Huang-Abraham row/column checksums.  The fault plan
    # flips one bit in an operand's LLC-resident bytes mid-kernel on ~40%
    # of attempts; a flip that manifests trips the checksum, the request
    # escalates (retry with the replay fast path bypassed, then failover),
    # and the recovered answer still verifies against the golden model.
    gemms = [r for r in requests if r.kind == "gemm"]
    guarded = ServingEngine(pool_size=2, config=config, integrity="abft")
    flipped = guarded.serve(gemms, verify="report", faults="flip:0.4",
                            fault_seed=5)
    print("\n== silent-data-corruption drill (flip:0.4, policy=abft) ==")
    print(flipped.summary())
    integ = flipped.integrity
    print("\nintegrity:")
    print(f"  injected     : {integ['injected']}")
    print(f"  detected     : {integ['detected']} "
          f"(corrected in place: {integ['corrected']})")
    print(f"  recovered    : {integ['recovered']} of {integ['detected']} "
          f"escalated back to status=ok")
    print(f"  undetected   : {integ['undetected']} "
          f"-> detection recall {integ['recall']:.2f} "
          f"(ABFT-covered recall {integ['covered']['recall']:.2f})")
    print(f"  escalations  : {integ['escalations']}")
    for result in flipped.results:
        if result.attempts > 1 or result.status != "ok":
            print(f"  request {result.request_id:>2} [{result.status}] "
                  f"{result.attempts} attempt(s): {result.error}")


if __name__ == "__main__":
    main()
