"""Pluggable replica-selection policies for the serving engine.

When a request for chunk ``n`` arrives, the engine offers the policy an
ordered candidate list — the chunk's cache nodes (deterministic order)
with the producer appended last, so every policy inherits the
producer-fallback guarantee: the candidate list is never empty and the
producer is never dead.

Policies see the network only through a :class:`ServeView`:

* ``cost(server, client)`` — the paper's Eq. 2 contention cost ``c_ij``
  served by the placement's :class:`~repro.core.costs.CostModel`;
* ``queue_depth(server)`` — requests currently queued or in service at
  ``server``;
* ``rng`` — the engine's seeded RNG (randomized policies must draw from
  it, and only from it, to keep replays bit-identical).

Three policies, bracketing the classic latency/load trade-off:

* :class:`CheapestCost` — the paper's accessing-phase semantics: fetch
  from the replica with the minimum Eq. 2 cost (ties → earlier
  candidate, producer last).
* :class:`LeastLoaded` — ignore path cost, go to the emptiest queue
  (ties → cheaper, then earlier).
* :class:`PowerOfTwoChoices` — sample two distinct candidates, keep the
  less loaded (Mitzenmacher's "power of two choices"; near-LeastLoaded
  balance at O(1) state probes).

The :data:`SELECTION_POLICIES` registry maps CLI names to classes;
``repro list`` enumerates it.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Sequence, Type

Node = Hashable


class ServeView:
    """What a policy may observe; implemented by the engine."""

    rng: random.Random

    def cost(self, server: Node, client: Node) -> float:
        """Eq. 2 contention cost ``c_ij`` of serving ``client`` from
        ``server`` on the final storage state."""
        raise NotImplementedError

    def queue_depth(self, server: Node) -> int:
        """Requests queued or in service at ``server`` right now."""
        raise NotImplementedError


class ReplicaSelector:
    """Base replica-selection policy.

    :meth:`bind` is called once per replay with the engine's view;
    :meth:`choose` once per request attempt with the still-alive
    candidates (never empty — the producer is always last).

    ``load_independent`` declares that :meth:`choose` is a pure function
    of ``(client, chunk, candidates)`` — it reads neither queue depths
    nor the RNG.  The engine exploits this to resolve each
    ``(client, chunk)`` pair to its ``(server, failover count)`` exactly
    once per replay instead of once per request; load-dependent policies
    keep one call per request (see ``docs/SCALING.md``).
    """

    name = "base"

    #: True only when choose() ignores queue depths and the RNG.
    load_independent = False

    def bind(self, view: ServeView) -> None:
        self._view = view

    def choose(self, client: Node, chunk: int, candidates: Sequence[Node]) -> Node:
        raise NotImplementedError


class CheapestCost(ReplicaSelector):
    """Paper semantics: the replica with the minimum Eq. 2 cost wins.

    A client that caches the chunk itself serves itself (``c_ii = 0``);
    the producer, listed last, wins only when strictly cheaper than
    every cache — exactly :func:`repro.core.placement.assignment_from_nearest`.
    """

    name = "cheapest"

    # Costs are frozen for a whole replay (final storage state), so the
    # choice per (client, chunk) never changes.
    load_independent = True

    def choose(self, client: Node, chunk: int, candidates: Sequence[Node]) -> Node:
        view = self._view
        best = candidates[0]
        best_cost = view.cost(best, client)
        for server in candidates[1:]:
            cost = view.cost(server, client)
            if cost < best_cost:
                best = server
                best_cost = cost
        return best


class LeastLoaded(ReplicaSelector):
    """Go wherever the queue is shortest; ties break toward the cheaper
    path, then the earlier candidate."""

    name = "least-loaded"

    def choose(self, client: Node, chunk: int, candidates: Sequence[Node]) -> Node:
        view = self._view
        best = candidates[0]
        best_key = (view.queue_depth(best), view.cost(best, client))
        for server in candidates[1:]:
            key = (view.queue_depth(server), view.cost(server, client))
            if key < best_key:
                best = server
                best_key = key
        return best


class PowerOfTwoChoices(ReplicaSelector):
    """Sample two distinct candidates with the engine RNG, keep the less
    loaded (ties → cheaper, then the earlier sample)."""

    name = "p2c"

    def choose(self, client: Node, chunk: int, candidates: Sequence[Node]) -> Node:
        view = self._view
        if len(candidates) == 1:
            return candidates[0]
        first, second = view.rng.sample(range(len(candidates)), 2)
        a, b = candidates[first], candidates[second]
        key_a = (view.queue_depth(a), view.cost(a, client))
        key_b = (view.queue_depth(b), view.cost(b, client))
        return b if key_b < key_a else a


#: CLI name → policy class (``repro serve --policy`` / ``repro list``).
SELECTION_POLICIES: Dict[str, Type[ReplicaSelector]] = {
    CheapestCost.name: CheapestCost,
    LeastLoaded.name: LeastLoaded,
    PowerOfTwoChoices.name: PowerOfTwoChoices,
}


def make_selector(policy: "str | ReplicaSelector") -> ReplicaSelector:
    """Resolve a policy name (or pass through an instance)."""
    if isinstance(policy, ReplicaSelector):
        return policy
    cls = SELECTION_POLICIES.get(policy)
    if cls is None:
        raise KeyError(
            f"unknown selection policy {policy!r}; "
            f"choose from {sorted(SELECTION_POLICIES)}"
        )
    return cls()
