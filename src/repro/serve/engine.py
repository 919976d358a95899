"""The request-plane event loop: replay a workload against a placement.

This is the accessing phase of the paper (Sec. III, Eq. 2) promoted from
a static cost summation to a served system.  A
:class:`~repro.serve.workloads.Workload` stream is replayed against the
*final* storage state of any
:class:`~repro.core.placement.CachePlacement`:

* **Per-cache FIFO service queues.**  Each serving node transmits one
  chunk at a time; a request arriving at a busy server waits in its
  queue, so queueing delay emerges from load instead of being assumed.
* **Service times from the DCF model.**  A request served by ``s`` for
  client ``j`` occupies ``s`` for the full Yang et al. path delay
  ``Σ d(k, c)`` along ``PATH(s, j)`` (:func:`repro.delay.dcf.path_delay`)
  on the final storage loads — the same model
  :func:`repro.delay.latency_report` prices single fetches with.
* **Replica selection is pluggable** (:mod:`repro.serve.selection`):
  the paper's cheapest-cost semantics, least-loaded, or power-of-two
  choices, all with producer fallback.
* **Failure injection.**  With ``failure_rate > 0`` a seeded coin
  marks cache nodes dead before the replay; a request routed to a dead
  replica fails over to the policy's next choice (and ultimately the
  producer, which never dies), paying ``retry_penalty`` detection delay
  per failed attempt.  Failovers, retried requests, and requests whose
  total latency exceeded ``timeout`` are all accounted in the
  :class:`~repro.serve.stats.ServeReport`.

The replay is built for throughput: requests arrive in struct-of-arrays
batches (:meth:`~repro.serve.workloads.Workload.stream_batches`), each
``(client, chunk)`` pair is resolved to its server once per replay when
the policy is load-independent, and per-cache FIFO queues collapse to a
dict of queue-free times drained through a single heap of completion
times.  One process sustains well over a million requests;
``docs/SCALING.md`` documents the design and the measured throughput.
The test suite keeps a discrete-event reference model of the same
semantics (one simulator event per arrival and per completion, explicit
FIFO deques) and asserts byte-identical reports against it.

Determinism: the workload stream, the failure coin, and any randomized
policy all draw from seeded RNGs, and completions are accounted in
simulated-time order — two replays of one configuration produce
byte-identical report JSON.

Observability: counters ``serve.requests`` / ``serve.failovers`` /
``serve.timeouts`` (bulk-incremented once per replay),
``serve.batch.batches`` / ``serve.batch.requests`` /
``serve.batch.table_entries`` and gauge ``serve.batch.heap_peak``, and
trace events ``serve.session`` (span) / ``serve.batch`` (one instant
per batch) / ``serve.request`` (one instant per completed request) on
the ``serve`` track — all zero-cost when no recorder or tracer is
installed.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple, Union

from repro.core.costs import CostModel
from repro.core.placement import CachePlacement
from repro.delay.dcf import DcfParameters, path_delay
from repro.errors import ProblemError
from repro.obs import get_recorder, get_tracer
from repro.serve.selection import ReplicaSelector, ServeView, make_selector
from repro.serve.stats import ServeReport, build_report
from repro.serve.workloads import DEFAULT_BATCH_SIZE, Workload

Node = Hashable

DEFAULT_ENGINE_SEED = 2017


@dataclass(frozen=True)
class ServeConfig:
    """Engine knobs (all deterministic given ``seed``).

    Parameters
    ----------
    failure_rate:
        Probability that each cache node is dead for the whole replay
        (seeded coin per node; the producer never dies).
    timeout:
        A completed request whose end-to-end latency exceeds this many
        simulated seconds counts as a timeout (accounting only — the
        transfer still completes, as a TCP tail would).
    retry_penalty:
        Detection delay added to a request's latency for every dead
        replica it tried before landing (RTT + timer, in sim seconds).
    dcf:
        Timing constants for the DCF service-time model.
    seed:
        Seed for the engine RNG (failure coin, randomized policies).
    batch_size:
        Requests per struct-of-arrays batch (never changes the report).
    skip_requests:
        Discard this many requests from the front of the workload stream
        before serving begins.  This is the epoch hook for the adaptive
        control loop (``docs/ADAPTIVE.md``): epoch ``k`` replays
        requests ``[k*R, (k+1)*R)`` of one continuous stream by skipping
        ``k*R``.  Skipped requests consume workload RNG draws but touch
        no queues, tallies, or engine RNG.
    record_demand:
        Tally per-``(client, chunk)`` request counts during the replay
        (exported via :meth:`ServeEngine.demand_counts`).  Off by
        default — the hot path pays nothing.
    """

    failure_rate: float = 0.0
    timeout: float = 60.0
    retry_penalty: float = 0.05
    dcf: DcfParameters = DcfParameters()
    seed: int = DEFAULT_ENGINE_SEED
    batch_size: int = DEFAULT_BATCH_SIZE
    skip_requests: int = 0
    record_demand: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ProblemError(
                f"failure_rate must be in [0, 1], got {self.failure_rate}"
            )
        if self.skip_requests < 0:
            raise ProblemError(
                f"skip_requests must be >= 0, got {self.skip_requests}"
            )
        if self.timeout < 0:
            raise ProblemError(f"timeout must be >= 0, got {self.timeout}")
        if self.retry_penalty < 0:
            raise ProblemError(
                f"retry_penalty must be >= 0, got {self.retry_penalty}"
            )
        if self.batch_size < 1:
            raise ProblemError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )


class ServeEngine(ServeView):
    """One replay of a request stream against one placement.

    Build it, call :meth:`run`, read the :class:`ServeReport`.  The
    engine is also the :class:`~repro.serve.selection.ServeView` its
    policy observes the network through.
    """

    def __init__(
        self,
        placement: CachePlacement,
        workload: Workload,
        num_requests: int,
        policy: Union[str, ReplicaSelector] = "cheapest",
        config: ServeConfig = ServeConfig(),
    ) -> None:
        if num_requests < 0:
            raise ProblemError(
                f"num_requests must be >= 0, got {num_requests}"
            )
        self.placement = placement
        self.problem = placement.problem
        self.workload = workload
        self.num_requests = num_requests
        self.config = config
        self.selector = make_selector(policy)
        self.rng = random.Random(config.seed)
        self.selector.bind(self)

        graph = self.problem.graph
        self._storage = placement.final_storage()
        self._costs = CostModel(graph, self._storage, self.problem.path_policy)
        # Chunk → candidate servers: caches in deterministic order, the
        # producer appended last (the universal fallback).
        producer = self.problem.producer
        self._candidates: List[List[Node]] = []
        for chunk in placement.chunks:
            servers = sorted(
                (node for node in chunk.caches if node != producer), key=str
            )
            servers.append(producer)
            self._candidates.append(servers)
        # Seeded failure injection over the union of cache nodes.
        self._dead = frozenset(
            node
            for node in sorted(
                {n for c in placement.chunks for n in c.caches if n != producer},
                key=str,
            )
            if self.rng.random() < config.failure_rate
        )
        # server → requests queued or in service; maintained during the
        # replay only for load-dependent policies (the ones that read it).
        self._depth: Dict[Node, int] = {}
        # (server, client) → DCF service seconds; the storage state is
        # frozen during a replay, so this cache is exact.
        self._service_cache: Dict[Tuple[Node, Node], float] = {}
        self._cost_rows: Dict[Node, Dict[Node, float]] = {}

        # Per-(client, chunk) request counts (record_demand only) — the
        # demand signal the adaptive control plane estimates from.
        self._demand: Dict[Tuple[Node, int], int] = {}

        # Tallies.
        self._latencies: List[float] = []
        self._queue_delays: List[float] = []
        self._served: Dict[Node, int] = {
            node: 0 for node in graph.nodes()
        }
        self._timeouts = 0
        self._failovers = 0
        self._retried_requests = 0
        self._self_served = 0
        self._makespan = 0.0

    # -- ServeView -----------------------------------------------------
    def cost(self, server: Node, client: Node) -> float:
        row = self._cost_rows.get(server)
        if row is None:
            row = self._costs.all_contention_costs(server)
            self._cost_rows[server] = row
        return row[client]

    def queue_depth(self, server: Node) -> int:
        return self._depth.get(server, 0)

    def demand_counts(self) -> Dict[Tuple[Node, int], int]:
        """Per-``(client, chunk)`` served-request counts from the replay.

        Empty unless :attr:`ServeConfig.record_demand` was set.  The
        counts are a pure function of the workload stream window, which
        is the determinism contract the adaptive signal layer builds on.
        """
        return dict(self._demand)

    # -- the replay ----------------------------------------------------
    def run(self) -> ServeReport:
        """Replay the stream; returns the summary report."""
        obs = get_recorder()
        trace = get_tracer()
        with trace.span(
            "serve.session",
            track="serve",
            args=(
                {
                    "workload": self.workload.name,
                    "policy": self.selector.name,
                    "algorithm": self.placement.algorithm,
                    "requests": self.num_requests,
                    "dead_caches": len(self._dead),
                }
                if trace.enabled
                else None
            ),
        ), obs.timer("serve.replay"):
            # Explicit zero-work guard: no requests, or no clients to
            # issue them (single-node topologies, where the producer is
            # the whole network).  The report is the canonical
            # zero-request document either way.
            if self.num_requests > 0 and self.problem.clients:
                self._replay_batched(obs, trace)
        return build_report(
            workload=self.workload.name,
            policy=self.selector.name,
            algorithm=self.placement.algorithm,
            requests=self.num_requests,
            latencies=self._latencies,
            queue_delays=self._queue_delays,
            served_loads=self._served,
            producer=self.problem.producer,
            timeouts=self._timeouts,
            failovers=self._failovers,
            retried_requests=self._retried_requests,
            self_served=self._self_served,
            makespan=self._makespan,
        )

    # -- hot path: struct-of-arrays batches + a heap of completions ----
    def _replay_batched(self, obs, trace) -> None:
        """Array-form replay of per-server FIFO queues.

        Three structural choices buy the throughput (details and
        measurements in ``docs/SCALING.md``):

        1. *SoA event batches* — requests arrive as parallel
           time/client/chunk list columns, never as one object per
           request.
        2. *Resolved candidate tables* — for a load-independent policy
           (``cheapest``), the ``(server, failovers, penalty)`` outcome
           of the failover loop is a pure function of ``(chunk,
           client)`` and is computed once per pair, not once per
           request.
        3. *Heap drain* — per-server FIFO queues reduce to one
           queue-free time per server; completions sit in a single heap
           and are popped in simulated-time order, exactly the order a
           discrete-event simulator would fire them in.

        Float parity notes: arrival times follow a discrete-event
        clock's ``now + (t - now)`` rounding chain over the previous
        arrival's time (``effective``), not the raw stream time, and
        latency / queue delay use fixed expressions.  The test suite's
        event-loop reference model (``tests/serve_reference.py``)
        schedules the same way, so every float in the report is
        bit-identical to it.
        """
        config = self.config
        selector = self.selector
        choose = selector.choose
        load_independent = selector.load_independent
        dead = self._dead
        candidates_by_chunk = self._candidates
        retry_penalty = config.retry_penalty
        timeout = config.timeout
        record_demand = config.record_demand
        demand = self._demand
        latencies = self._latencies
        queue_delays = self._queue_delays
        served = self._served
        service_time = self._service_time
        traced = trace.enabled

        # (chunk, client) → (server, attempts, penalty, service) for
        # load-independent policies; filled lazily so only pairs that
        # actually occur pay the resolution cost.
        resolved: Dict[Tuple[int, Node], Tuple[Node, int, float, float]] = {}
        free: Dict[Node, float] = {}  # server → queue-free sim time
        depth = self._depth
        # Completion heap entries:
        # (done, seq, server, raw_arrival, service, penalty, attempts,
        #  client, chunk) — seq breaks exact-time ties deterministically.
        heap: List[Tuple] = []
        push = heapq.heappush
        pop = heapq.heappop
        seq = 0
        heap_peak = 0
        batches = 0
        generated = 0
        timeouts = 0
        failovers = 0
        retried = 0
        self_served = 0
        track_depth = not load_independent
        # Streaming telemetry: the batched engine samples once per
        # batch (its natural cadence) from the live local tallies —
        # the recorder counters are only bulk-incremented at the end
        # of the replay, so ``series_mark`` snapshots would read zeros
        # here.
        series_on = obs.series_enabled

        def drain(limit: Optional[float]) -> None:
            """Account completions before ``limit`` (all when None).

            Pops run in (time, seq) order and the limit only ever
            grows, so the accounting sequence — and with it every
            order-sensitive float sum in the report — is the
            completion-event order of a FIFO event loop.
            """
            nonlocal timeouts, self_served
            while heap and (limit is None or heap[0][0] < limit):
                (done, _, server, raw, service, penalty, attempts,
                 client, chunk) = pop(heap)
                if track_depth:
                    depth[server] -= 1
                latency = (done - raw) + penalty
                queue_delay = latency - service - penalty
                latencies.append(latency)
                queue_delays.append(queue_delay)
                served[server] += 1
                if server == client:
                    self_served += 1
                if latency > timeout:
                    timeouts += 1
                self._makespan = done
                if series_on:
                    obs.observe("serve.latency_s", latency)
                    obs.observe("serve.queue_delay_s", queue_delay)
                if traced:
                    trace.instant(
                        "serve.request",
                        track="serve",
                        args={
                            "client": str(client),
                            "chunk": chunk,
                            "server": str(server),
                            "latency_s": latency,
                            "queue_delay_s": queue_delay,
                            "attempts": attempts + 1,
                            "sim_time": done,
                        },
                    )

        def sample_series() -> None:
            """One telemetry sample per batch: cumulative completion /
            failover / timeout counters (windowed rates fall out) plus
            the in-flight census.  Reads only — never mutates replay
            state."""
            t = effective
            obs.series_point("serve.requests", t, len(latencies),
                             kind="counter")
            obs.series_point("serve.failovers", t, failovers,
                             kind="counter")
            obs.series_point("serve.timeouts", t, timeouts, kind="counter")
            obs.series_point("serve.inflight", t, len(heap))

        stream = self.workload.stream_batches(
            self.problem.clients, self.problem.num_chunks,
            config.batch_size,
        )
        remaining = self.num_requests
        # Epoch hook: drop the skipped stream prefix batch by batch.
        # Skipped requests never enter the tallies or the float chain.
        to_skip = config.skip_requests
        # Arrival-event times round through now + (t - now).
        effective = 0.0
        while remaining > 0:
            batch = next(stream, None)
            if batch is None:
                break
            times, clients, chunks = batch
            if to_skip:
                if to_skip >= len(times):
                    to_skip -= len(times)
                    continue
                times = times[to_skip:]
                clients = clients[to_skip:]
                chunks = chunks[to_skip:]
                to_skip = 0
            if len(times) > remaining:
                times = times[:remaining]
            remaining -= len(times)
            batches += 1
            generated += len(times)
            if traced:
                trace.instant(
                    "serve.batch",
                    track="serve",
                    args={"index": batches - 1, "requests": len(times)},
                )
            if load_independent:
                # Selection reads no queue state, so completions only
                # need draining once per batch: every completion due
                # before this batch's first arrival is already in the
                # heap (a completion's arrival precedes it).  Within
                # the batch, pops still happen in global time order at
                # the next drain, so accounting order is unchanged.
                drain(times[0])
                for i in range(len(times)):
                    raw = times[i]
                    effective = effective + (raw - effective)
                    if record_demand:
                        dkey = (clients[i], chunks[i])
                        demand[dkey] = demand.get(dkey, 0) + 1
                    key = (chunks[i], clients[i])
                    hit = resolved.get(key)
                    if hit is None:
                        hit = resolved[key] = self._resolve_static(
                            clients[i], chunks[i]
                        )
                    server, attempts, penalty, service = hit
                    if attempts:
                        failovers += attempts
                        retried += 1
                    start = free.get(server, 0.0)
                    if start < effective:
                        start = effective
                    done = start + service
                    free[server] = done
                    push(heap, (done, seq, server, raw, service, penalty,
                                attempts, clients[i], chunks[i]))
                    seq += 1
                if len(heap) > heap_peak:
                    heap_peak = len(heap)
                if series_on:
                    sample_series()
                continue
            for i in range(len(times)):
                raw = times[i]
                effective = effective + (raw - effective)
                # Load-dependent policies read live queue depths, so
                # completions drain before every single arrival.
                drain(effective)
                client = clients[i]
                chunk = chunks[i]
                if record_demand:
                    dkey = (client, chunk)
                    demand[dkey] = demand.get(dkey, 0) + 1
                candidates = list(candidates_by_chunk[chunk])
                attempts = 0
                while True:
                    server = choose(client, chunk, candidates)
                    if server not in dead:
                        break
                    attempts += 1
                    candidates.remove(server)
                penalty = attempts * retry_penalty
                if attempts:
                    failovers += attempts
                    retried += 1
                service = service_time(server, client)
                start = free.get(server, 0.0)
                if start < effective:
                    start = effective
                done = start + service
                free[server] = done
                depth[server] = depth.get(server, 0) + 1
                push(heap, (done, seq, server, raw, service, penalty,
                            attempts, client, chunk))
                seq += 1
                if len(heap) > heap_peak:
                    heap_peak = len(heap)
            if series_on:
                sample_series()
        drain(None)
        if series_on:
            sample_series()

        self._timeouts += timeouts
        self._failovers += failovers
        self._retried_requests += retried
        self._self_served += self_served
        # Bulk counter increments, once per replay.
        if generated:
            obs.count("serve.requests", generated)
        if failovers:
            obs.count("serve.failovers", failovers)
        if timeouts:
            obs.count("serve.timeouts", timeouts)
        obs.count("serve.batch.batches", batches)
        obs.count("serve.batch.requests", generated)
        if load_independent:
            obs.count("serve.batch.table_entries", len(resolved))
        obs.gauge("serve.batch.heap_peak", heap_peak)

    def _resolve_static(
        self, client: Node, chunk: int
    ) -> Tuple[Node, int, float, float]:
        """Run the failover loop once for a load-independent policy.

        Returns ``(server, attempts, penalty, service)`` — the same
        outcome every request for this ``(chunk, client)`` pair would
        compute, since costs, service times, and the dead set are all
        frozen for the whole replay.
        """
        candidates = list(self._candidates[chunk])
        attempts = 0
        while True:
            server = self.selector.choose(client, chunk, candidates)
            if server not in self._dead:
                break
            attempts += 1
            candidates.remove(server)
        return (
            server,
            attempts,
            attempts * self.config.retry_penalty,
            self._service_time(server, client),
        )

    def _service_time(self, server: Node, client: Node) -> float:
        if server == client:
            return 0.0
        key = (server, client)
        cached = self._service_cache.get(key)
        if cached is None:
            path = self._costs.path(server, client)
            cached = path_delay(
                self.problem.graph, path, self._storage, self.config.dcf
            )
            self._service_cache[key] = cached
        return cached


def serve_placement(
    placement: CachePlacement,
    workload: Workload,
    num_requests: int,
    policy: Union[str, ReplicaSelector] = "cheapest",
    config: Optional[ServeConfig] = None,
) -> ServeReport:
    """Replay ``num_requests`` of ``workload`` against ``placement``.

    The one-call entry point: builds a :class:`ServeEngine`, runs it,
    returns the :class:`~repro.serve.stats.ServeReport`.
    """
    resolved = config if config is not None else ServeConfig()
    engine = ServeEngine(
        placement,
        workload,
        num_requests,
        policy=policy,
        config=resolved,
    )
    return engine.run()
