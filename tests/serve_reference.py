"""Discrete-event reference model of the serve engine (a test oracle).

:class:`repro.serve.engine.ServeEngine` replays a workload with a heap
of completion times and one queue-free time per server.  This module
replays the same semantics the slow, literal way, so the suite can
assert the engine's reports byte for byte:

* one :class:`~repro.distributed.simulator.Simulator` event per arrival
  (scheduled with ``schedule_at``) and per completion;
* an explicit FIFO deque plus a busy flag per server, so a policy's
  ``queue_depth`` is read off real queues;
* one ``choose()`` call per arrival, failover loop included, for every
  policy — no per-pair resolution tables.

Requests come from flattening :meth:`Workload.stream_batches`, the
only stream the package exposes.  The model inherits the engine's
set-up (candidate lists, failure coin, DCF service times, selector
binding) and its report builder; the replay itself shares no code with
the engine's hot path.  It records no telemetry.

:func:`shadow_check` is what ``tests/conftest.py`` runs after every
small engine replay while ``REPRO_SANITIZE`` is on.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Deque, Dict, Hashable, Iterator, NamedTuple, Sequence, Tuple

from repro.distributed.simulator import Simulator
from repro.obs import NullRecorder, NullTracer, use_recorder, use_tracer
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.stats import ServeReport
from repro.serve.workloads import Workload

Node = Hashable

#: Engine replays of at most this many requests get a shadow replay on
#: the reference model under the sanitizer; above it the check would
#: dominate the suite's run time.
SHADOW_MAX_REQUESTS = 2048


class Request(NamedTuple):
    """One client request: ``client`` wants ``chunk`` at time ``time``."""

    index: int
    time: float
    client: Node
    chunk: int


def request_stream(
    workload: Workload,
    clients: Sequence[Node],
    num_chunks: int,
    batch_size: int = 1,
) -> Iterator[Request]:
    """``workload.stream_batches`` flattened to one request per arrival.

    The flattened sequence is the same at every batch size; the default
    of 1 generates no request past the last one consumed.
    """
    index = 0
    for times, batch_clients, batch_chunks in workload.stream_batches(
        clients, num_chunks, batch_size
    ):
        for time, client, chunk in zip(times, batch_clients, batch_chunks):
            yield Request(index, time, client, chunk)
            index += 1


class ReferenceServeEngine(ServeEngine):
    """The serve engine with its replay swapped for the event loop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Per-server FIFO of waiting (request, penalty) pairs, plus a
        # busy flag for the request in service.
        self._queues: Dict[Node, Deque[Tuple[Request, float]]] = {}
        self._busy: Dict[Node, bool] = {}

    def queue_depth(self, server: Node) -> int:
        queue = self._queues.get(server)
        return (len(queue) if queue else 0) + int(self._busy.get(server, False))

    def _replay_batched(self, obs, trace) -> None:
        # Overrides the engine's only replay hook; obs/trace are unused.
        sim = Simulator()
        config = self.config
        stream = request_stream(
            self.workload, self.problem.clients, self.problem.num_chunks
        )
        # Epoch hook: burn the skipped prefix without scheduling it.
        for _ in range(config.skip_requests):
            if next(stream, None) is None:
                break
        remaining = self.num_requests

        def schedule_next() -> None:
            nonlocal remaining
            if remaining <= 0:
                return
            request = next(stream, None)
            if request is None:  # finite (zero-rate) stream
                return
            remaining -= 1
            sim.schedule_at(request.time, lambda: arrive(request))

        def arrive(request: Request) -> None:
            schedule_next()  # keep exactly one pending arrival queued
            if config.record_demand:
                key = (request.client, request.chunk)
                self._demand[key] = self._demand.get(key, 0) + 1
            candidates = list(self._candidates[request.chunk])
            attempts = 0
            while True:
                server = self.selector.choose(
                    request.client, request.chunk, candidates
                )
                if server not in self._dead:
                    break
                attempts += 1
                candidates.remove(server)
            self._failovers += attempts
            if attempts:
                self._retried_requests += 1
            penalty = attempts * config.retry_penalty
            if self._busy.get(server):
                self._queues.setdefault(server, deque()).append(
                    (request, penalty)
                )
            else:
                self._busy[server] = True
                start_service(server, request, penalty)

        def start_service(server: Node, request: Request, penalty: float) -> None:
            service = self._service_time(server, request.client)
            sim.schedule(
                service, lambda: complete(server, request, penalty, service)
            )

        def complete(
            server: Node, request: Request, penalty: float, service: float
        ) -> None:
            latency = (sim.now - request.time) + penalty
            self._latencies.append(latency)
            self._queue_delays.append(latency - service - penalty)
            self._served[server] += 1
            if server == request.client:
                self._self_served += 1
            if latency > config.timeout:
                self._timeouts += 1
            self._makespan = sim.now
            queue = self._queues.get(server)
            if queue:
                start_service(server, *queue.popleft())
            else:
                self._busy[server] = False

        schedule_next()
        sim.run(max_events=max(10_000_000, 4 * self.num_requests))


def reference_serve(
    placement,
    workload: Workload,
    num_requests: int,
    policy="cheapest",
    config: ServeConfig = ServeConfig(),
) -> ServeReport:
    """:func:`repro.serve.serve_placement`, on the reference model."""
    return ReferenceServeEngine(
        placement, workload, num_requests, policy=policy, config=config
    ).run()


def assert_same_report(
    engine_json: str, reference_json: str, context: str
) -> None:
    """Byte-compare two report documents; name the first differing line."""
    if engine_json == reference_json:
        return
    for index, (left, right) in enumerate(
        zip(engine_json.splitlines(), reference_json.splitlines())
    ):
        if left != right:
            raise AssertionError(
                f"serve-equivalence: {context}: engine report diverges "
                f"from the reference model at JSON line {index + 1}: "
                f"engine={left.strip()!r} reference={right.strip()!r}"
            )
    raise AssertionError(
        f"serve-equivalence: {context}: engine report length "
        f"{len(engine_json)} != reference length {len(reference_json)}"
    )


def shadow_check(engine: ServeEngine, report: ServeReport) -> None:
    """Replay ``engine``'s inputs on the reference model and compare.

    The shadow runs under null sinks, so counters and traces record one
    serve, not two.  It gets its own copy of the selector: binding is
    per replay.  Demand exports are compared too.
    """
    shadow = ReferenceServeEngine(
        engine.placement,
        engine.workload,
        engine.num_requests,
        policy=copy.copy(engine.selector),
        config=engine.config,
    )
    with use_recorder(NullRecorder()), use_tracer(NullTracer()):
        reference = shadow.run()
    context = (
        f"ServeEngine(requests={engine.num_requests}, "
        f"policy={engine.selector.name!r}, seed={engine.config.seed}, "
        f"skip_requests={engine.config.skip_requests})"
    )
    assert_same_report(report.to_json(), reference.to_json(), context)
    if engine.demand_counts() != shadow.demand_counts():
        raise AssertionError(
            f"serve-equivalence: {context}: demand export differs from "
            f"the reference model"
        )
