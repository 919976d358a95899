"""Online fair caching: place chunks as they arrive, release them as they
expire (the paper's Sec. VI future work, built on its own machinery).

Each PUBLISH event runs exactly one iteration of Algorithm 1's inner loop
— build the ConFL instance from the *live* storage state, run the dual
ascent, commit — so the offline and online solutions coincide when
nothing ever expires (verified in the tests).  Each EXPIRE event evicts
the chunk's copies everywhere, restoring storage (not battery: spent
energy stays spent).  When the network is storage-saturated, a pluggable
:mod:`replacement <repro.online.replacement>` policy frees slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Set

from repro.errors import InvariantError, ProblemError
from repro.analysis import contracts
from repro.core.approximation import ApproximationConfig
from repro.core.commit import commit_chunk
from repro.core.confl import build_confl_instance
from repro.core.dual_ascent import dual_ascent
from repro.core.placement import ChunkPlacement
from repro.core.problem import CachingProblem, ProblemState
from repro.metrics.fairness import gini_coefficient
from repro.online.events import EXPIRE, PUBLISH, OnlineEvent
from repro.online.replacement import OldestFirst, ReplacementPolicy

Node = Hashable


@dataclass(frozen=True)
class ReoptimizeResult:
    """Outcome of one :func:`reoptimize_chunk` call."""

    placement: ChunkPlacement
    evictions: int


def replica_counts(state: ProblemState) -> Dict[int, int]:
    """Chunk → network-wide copy count, from the live storage state."""
    counts: Dict[int, int] = {}
    for node in state.storage.nodes():
        for chunk in state.storage.chunks_at(node):
            counts[chunk] = counts.get(chunk, 0) + 1
    return counts


def make_room(
    state: ProblemState,
    policy: ReplacementPolicy,
    publish_order: Mapping[int, int],
    replicas: Optional[Dict[int, int]] = None,
) -> int:
    """Ask the policy to free one slot per full node (best effort).

    Returns the number of evictions performed.  Module-level so any
    re-optimization caller (the online controller, the adaptive control
    plane) can share the exact same room-making semantics.  ``replicas``
    overrides the census (tests inject drifted counts through it); by
    default it is computed fresh from the live storage.
    """
    if replicas is None:
        replicas = replica_counts(state)
    sanitize = contracts.sanitize_enabled()
    freed = 0
    for node in state.problem.clients:
        if state.storage.available(node) > 0:
            continue
        victim = policy.choose_victim(state, node, dict(publish_order), replicas)
        if victim is not None:
            state.evict(node, victim)
            freed += 1
            # The victim came off ``node``'s shelf, so it must have a
            # positive replica count; defaulting a missing entry (the
            # old ``.get(victim, 1)``) would mask a policy returning
            # a chunk the node never held and let counts go negative
            # when the same victim is evicted from several full nodes.
            replicas[victim] = replicas.get(victim, 0) - 1
            if sanitize and replicas[victim] < 0:
                raise InvariantError(
                    "online.replicas",
                    f"replica count of chunk {victim} went negative "
                    f"after eviction from node {node!r} — the "
                    "replacement policy returned a chunk the node "
                    "did not hold",
                )
    return freed


def reoptimize_chunk(
    state: ProblemState,
    chunk: int,
    config: Optional[ApproximationConfig] = None,
    policy: Optional[ReplacementPolicy] = None,
    publish_order: Optional[Mapping[int, int]] = None,
) -> ReoptimizeResult:
    """One Algorithm-1 iteration for ``chunk`` against the live state.

    The re-optimization entry point shared by the online controller's
    PUBLISH path and the adaptive control plane's scoped re-solves:
    build the ConFL instance from the current storage, run the dual
    ascent, and commit.  When nobody volunteers and a replacement
    ``policy`` is given, one :func:`make_room` round frees a slot per
    full node and the ascent retries once.  The caller must ensure
    ``chunk`` currently has no copies (evict them first when re-solving
    an already-placed chunk).
    """
    resolved = config or ApproximationConfig()
    instance = build_confl_instance(state)
    result = dual_ascent(instance, resolved.dual)
    evictions = 0
    if not result.admins and policy is not None:
        # Nobody volunteered — often because the well-placed nodes are
        # full and no longer facilities.  This is where replacement
        # earns its keep: free one slot per full node and retry once.
        evictions = make_room(state, policy, publish_order or {})
        if evictions > 0:
            instance = build_confl_instance(state)
            result = dual_ascent(instance, resolved.dual)
    placement = commit_chunk(state, chunk, result.admins)
    return ReoptimizeResult(placement=placement, evictions=evictions)


@dataclass(frozen=True)
class Snapshot:
    """Network state right after one event was processed."""

    time: float
    event_kind: str
    chunk: int
    live_chunks: int
    total_copies: int
    gini: float
    stage_access: float
    stage_dissemination: float


@dataclass
class OnlineTrace:
    """Full history of an online run."""

    snapshots: List[Snapshot] = field(default_factory=list)
    placements: Dict[int, ChunkPlacement] = field(default_factory=dict)
    uncached_chunks: List[int] = field(default_factory=list)
    evictions: int = 0

    @property
    def peak_copies(self) -> int:
        return max((s.total_copies for s in self.snapshots), default=0)

    def gini_series(self) -> List[float]:
        return [s.gini for s in self.snapshots]


class OnlineFairCache:
    """Processes an event stream with fair per-chunk placement.

    Parameters
    ----------
    problem:
        Network/capacity description; ``num_chunks`` is ignored (the event
        stream decides what arrives).
    config:
        Algorithm 1 configuration for each placement.
    policy:
        Replacement policy used when no node can host a fresh chunk
        (default: evict the oldest published chunk).
    """

    def __init__(
        self,
        problem: CachingProblem,
        config: Optional[ApproximationConfig] = None,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        self.problem = problem
        self.config = config or ApproximationConfig()
        self.policy = policy or OldestFirst()
        self.state: ProblemState = problem.new_state()
        self.trace = OnlineTrace()
        self._publish_seq: Dict[int, int] = {}
        self._live: Set[int] = set()
        self._next_seq = 0
        self._last_time = 0.0

    # ------------------------------------------------------------------
    def run(self, events) -> OnlineTrace:
        """Process a time-ordered event iterable; returns the trace."""
        for event in events:
            self.process(event)
        return self.trace

    def process(self, event: OnlineEvent) -> None:
        """Apply a single event (must not move time backwards)."""
        if event.time < self._last_time - 1e-12:
            raise ProblemError(
                f"events out of order: {event.time} after {self._last_time}"
            )
        self._last_time = event.time
        if event.kind == PUBLISH:
            self._handle_publish(event)
        elif event.kind == EXPIRE:
            self._handle_expire(event)
        else:  # pragma: no cover - OnlineEvent validates kinds
            raise ProblemError(f"unknown event kind {event.kind!r}")
        self._record(event)

    # ------------------------------------------------------------------
    def _handle_publish(self, event: OnlineEvent) -> None:
        chunk = event.chunk
        if chunk in self._publish_seq:
            raise ProblemError(f"chunk {chunk} published twice")
        self._publish_seq[chunk] = self._next_seq
        self._next_seq += 1
        self._live.add(chunk)

        result = reoptimize_chunk(
            self.state,
            chunk,
            self.config,
            policy=self.policy,
            publish_order=self._publish_seq,
        )
        self.trace.evictions += result.evictions
        placement = result.placement
        self.trace.placements[chunk] = placement
        if not placement.caches:
            self.trace.uncached_chunks.append(chunk)

    def _handle_expire(self, event: OnlineEvent) -> None:
        chunk = event.chunk
        if chunk not in self._live:
            raise ProblemError(f"chunk {chunk} expired but is not live")
        self._live.discard(chunk)
        for node in self.state.storage.holders(chunk):
            self.state.evict(node, chunk)

    def _record(self, event: OnlineEvent) -> None:
        loads = [
            self.state.storage.used(n) for n in self.problem.clients
        ]
        placement = self.trace.placements.get(event.chunk)
        stage = placement.stage_cost if (
            placement is not None and event.kind == PUBLISH
        ) else None
        self.trace.snapshots.append(
            Snapshot(
                time=event.time,
                event_kind=event.kind,
                chunk=event.chunk,
                live_chunks=len(self._live),
                total_copies=sum(loads),
                gini=gini_coefficient(loads),
                stage_access=stage.access if stage else 0.0,
                stage_dissemination=stage.dissemination if stage else 0.0,
            )
        )


def solve_online(
    problem: CachingProblem,
    workload,
    config: Optional[ApproximationConfig] = None,
    policy: Optional[ReplacementPolicy] = None,
) -> OnlineTrace:
    """Convenience wrapper: run a workload through :class:`OnlineFairCache`."""
    controller = OnlineFairCache(problem, config=config, policy=policy)
    return controller.run(workload)
