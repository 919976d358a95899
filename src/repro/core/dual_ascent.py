"""Primal-dual dual ascent for one ConFL chunk (Algorithm 1, phase 1).

This is the centralized core of the paper's approximation algorithm.  It
follows the structure of Algorithm 1 lines 17–46, which re-states the
deterministic 6.55-approximation of Jung et al. [20] in primal-dual form:

* Every unserved (not FROZEN) client ``j`` raises its bid ``α_j`` by a
  unit step ``U_α`` per round — the price it is willing to pay to reach a
  cache (line 18).
* When ``α_j ≥ c_ij`` for an *already selected* cache ``i`` (the ADMIN set
  ``A``) or the producer, ``j`` connects there and freezes (lines 21–26,
  conditions 1–2).
* Otherwise ``j`` goes **tight** with still-closed facilities it can
  afford; the surplus ``β_ij = α_j − c_ij`` pays toward the opening cost
  ``f_i`` (line 19) and the client's relay bid ``γ`` turns into a SPAN
  request (line 20).
* A facility whose opening cost is fully paid **and** that has gathered at
  least ``M`` SPAN-tight clients becomes ADMIN: it is added to ``A``, and
  every client tight with it freezes onto it (lines 27–45, conditions
  3(a)–3(c)).  The ``M`` threshold is what couples facility opening to the
  connectivity (Steiner) part of ConFL — a cache must be worth wiring into
  the dissemination tree.

Frozen clients stop bidding but their accumulated payments stay on the
books (the FREEZE handler of Algorithm 2 only *stops increasing* α, β, γ),
which matches the dual feasibility argument of Theorem 1.

Determinism: clients and facilities are processed in their instance order
(graph insertion order), so runs are exactly reproducible.

Cost per event loop: O(active clients + new tight edges + tight sets of
supported facilities), not O(clients × facilities).  It rests on one
fact: every unfrozen client starts at 0 and gets the same ``step · jump``
added on every loop, so all of them bid one shared ``level``, as the
same float.  Hence

* each client's facilities are sorted once by ``(c_ij, facility
  order)``, and a cursor marks the first one it is not yet tight with;
  the tight refresh advances cursors instead of rescanning, and adds
  clients to each ``T[i]`` in client order, so set iteration order (and
  with it every float sum) is the same as a full rescan's;
* each client keeps its cheapest open server, updated with a strict
  ``<`` on every opening, so the first of ``[producer] + admins`` wins
  ties.  It costs no more than any ADMIN, so cursors need not skip
  ADMINs: a client that can afford one freezes before its refresh;
* the next client event is ``min_j min(open, next facility) − level``:
  subtracting one float preserves order and ``ceil`` is monotone, so it
  equals the per-client minimum;
* a freeze touches only the facilities the client is tight with, and
  facility payments are the same set-order sum over ``T[i]``, evaluated
  only for facilities with at least ``M`` unfrozen tight clients.

``tests/dual_ascent_reference.py`` keeps the per-pair loop as the oracle
the suite compares against byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set

from repro.errors import SolverError
from repro.analysis import contracts
from repro.core.confl import ConFLInstance
from repro.obs import get_recorder, get_tracer

Node = Hashable


@dataclass(frozen=True)
class DualAscentConfig:
    """Tuning knobs of the dual ascent.

    Attributes
    ----------
    step:
        The bid increment ``U_α`` per round.  Smaller steps track the dual
        trajectory more precisely but take more rounds (the paper bounds
        rounds by ``max{c_ij} / U_α``, Sec. IV-B).
    span_threshold:
        ``M`` — SPAN-tight clients required before a paid facility becomes
        ADMIN; at least 1.  ``None`` defers to the instance's
        dissemination scale (minimum 1).
    max_rounds:
        Safety valve, at least 1; the ascent provably ends within
        ``max c_ij / step + 1`` rounds, so hitting this raises.

    Bad values raise :class:`~repro.errors.SolverError` here, at
    construction, not deep inside a solve.
    """

    step: float = 1.0
    span_threshold: Optional[int] = 3
    max_rounds: int = 1_000_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and self.step > 0):
            raise SolverError(
                f"dual-ascent step must be finite and positive, got {self.step}"
            )
        if self.span_threshold is not None and self.span_threshold < 1:
            raise SolverError(
                "dual-ascent span_threshold must be None or at least 1, "
                f"got {self.span_threshold}"
            )
        if self.max_rounds < 1:
            raise SolverError(
                f"dual-ascent max_rounds must be at least 1, got {self.max_rounds}"
            )

    def resolved_threshold(self, instance: ConFLInstance) -> int:
        if self.span_threshold is not None:
            return int(self.span_threshold)
        return max(1, int(round(instance.dissemination_scale)))


@dataclass
class DualAscentResult:
    """Outcome of phase 1 for one chunk."""

    admins: List[Node]
    assignment: Dict[Node, Node]
    alpha: Dict[Node, float]
    rounds: int
    # Diagnostics useful for tests / the distributed twin:
    payments: Dict[Node, float] = field(default_factory=dict)
    span_counts: Dict[Node, int] = field(default_factory=dict)


def dual_ascent(
    instance: ConFLInstance, config: DualAscentConfig = DualAscentConfig()
) -> DualAscentResult:
    """Run the dual ascent; returns the ADMIN set and client assignment.

    Every client ends FROZEN: connected to an ADMIN facility or to the
    producer.  Facilities with infinite opening cost never open, so
    capacity is respected by construction.
    """
    producer = instance.producer
    clients: List[Node] = list(instance.clients)
    facilities: List[Node] = [
        node
        for node in instance.facilities
        if math.isfinite(instance.open_cost[node])
    ]
    connect = instance.connect_cost
    open_cost = instance.open_cost
    threshold = config.resolved_threshold(instance)
    step = config.step

    alpha: Dict[Node, float] = {j: 0.0 for j in clients}
    # The shared bid of every unfrozen client (see the module docstring).
    level = 0.0
    # Unfrozen clients, in client order.
    active: List[Node] = list(clients)
    frozen: Set[Node] = set()
    target: Dict[Node, Node] = {}
    admins: List[Node] = []
    # T[i]: clients that went tight with facility i while still bidding.
    tight: Dict[Node, Set[Node]] = {i: set() for i in facilities}
    # Payments toward f_i, locked in place when a contributor freezes.
    locked_payment: Dict[Node, float] = {i: 0.0 for i in facilities}
    # Unfrozen members of T[i], and the facilities each client is tight
    # with, so a freeze touches only its own tight edges.
    active_count: Dict[Node, int] = {i: 0 for i in facilities}
    tight_with: Dict[Node, List[Node]] = {j: [] for j in clients}
    # Non-ADMIN facilities with at least M unfrozen tight clients (a
    # dict, for a deterministic iteration order).
    supported: Dict[Node, None] = {}
    facility_rank = {i: rank for rank, i in enumerate(facilities)}
    # Each client's facilities by (c_ij, facility order), their costs
    # (closed by an infinite sentinel), and cursor[j]: the first one j
    # is not yet tight with.
    by_cost: Dict[Node, List[Node]] = {}
    cost_order: Dict[Node, List[float]] = {}
    cursor: Dict[Node, int] = {j: 0 for j in clients}
    # Cheapest open server (ADMIN or producer) of each client; ties go
    # to the first server in [producer] + admins order.
    best_cost: Dict[Node, float] = {}
    best_server: Dict[Node, Node] = {}
    rows = [connect[i] for i in facilities]
    for j in clients:
        row = [costs[j] for costs in rows]
        order = sorted(range(len(facilities)), key=row.__getitem__)
        by_cost[j] = [facilities[k] for k in order]
        cost_order[j] = [row[k] for k in order] + [math.inf]
        best_cost[j] = connect[producer][j]
        best_server[j] = producer
    tight_edges = 0

    def facility_payment(i: Node) -> float:
        """Σ β_ij: live bids of unfrozen tight clients + locked payments."""
        live = sum(
            alpha[j] - connect[i][j] for j in tight[i] if j not in frozen
        )
        return locked_payment[i] + live

    def freeze(j: Node, server: Node) -> None:
        """FROZEN: stop j's bids, lock its β contributions, record target."""
        frozen.add(j)
        target[j] = server
        aj = alpha[j]
        for i in tight_with[j]:
            locked_payment[i] += max(0.0, aj - connect[i][j])
            active_count[i] -= 1
            if active_count[i] < threshold:
                supported.pop(i, None)

    def rounds_to_next_event() -> int:
        """Idle rounds that can be skipped in one jump.

        Between events (a client affording an open server, a client going
        tight with a new facility, a facility's payment reaching ``f_i``)
        every round just adds ``step`` to all active bids — so the
        trajectory is identical if those rounds are applied at once.
        This event-driven jump is what keeps Algorithm 1 fast in practice
        (cf. Fig. 5) without changing any outcome.

        All active clients bid ``level``, and ``x - level`` and the
        round count are monotone in ``x``, so the nearest client event
        is one subtraction from the cheapest cost any of them faces.
        The facility at a cursor may be an ADMIN; that is harmless, as
        the client's cheapest open server costs no more than it.
        """
        nearest = math.inf
        for j in active:
            cost = best_cost[j]
            if cost < nearest:
                nearest = cost
            cost = cost_order[j][cursor[j]]
            if cost < nearest:
                nearest = cost
        best = max(1, math.ceil((nearest - level) / step - 1e-12))
        if best == 1:
            return 1
        for i in supported:
            deficit = open_cost[i] - facility_payment(i)
            if deficit <= 0:
                return 1
            rounds_needed = max(
                1, math.ceil(deficit / (active_count[i] * step) - 1e-12)
            )
            if rounds_needed < best:
                best = rounds_needed
        return best

    rounds = 0
    event_loops = 0
    direct_freezes = 0
    trace = get_tracer()
    obs = get_recorder()
    series_on = obs.series_enabled
    # The cumulative counters (bumped at the end of every earlier run)
    # offset this run's round numbers and freeze/opening tallies, so
    # the convergence series stay monotone across per-chunk solves.
    series_base = frozen_base = admins_base = 0.0
    if series_on:
        series_base = float(obs.counter("dual_ascent.rounds"))
        frozen_base = float(
            obs.counter("dual_ascent.freezes.direct")
            + obs.counter("dual_ascent.freezes.via_opening")
        )
        admins_base = float(obs.counter("dual_ascent.admins_opened"))
    traced_edges = 0
    while active:
        jump = rounds_to_next_event()
        rounds += jump
        event_loops += 1
        frozen_before = len(frozen)
        admins_before = len(admins)
        if rounds > config.max_rounds:
            raise SolverError(
                f"dual ascent did not converge in {config.max_rounds} rounds"
            )
        # Line 18: raise bids of every active client (jumped in one step).
        level += step * jump
        for j in active:
            alpha[j] = level

        # Conditions 1-2 (lines 21-26): connect to ADMIN / producer.
        for j in active:
            if best_cost[j] <= level:
                freeze(j, best_server[j])
                direct_freezes += 1
        if len(frozen) > frozen_before:
            active = [j for j in active if j not in frozen]

        # Lines 19-20: refresh tight sets (β, γ bids) of active clients.
        # No ADMIN is affordable here: a client that could afford one
        # froze onto its cheapest open server just above.
        for j in active:
            k = cursor[j]
            costs = cost_order[j]
            facs = by_cost[j]
            while costs[k] <= level:
                i = facs[k]
                k += 1
                tight[i].add(j)
                tight_with[j].append(i)
                tight_edges += 1
                active_count[i] += 1
                if active_count[i] >= threshold:
                    supported[i] = None
            cursor[j] = k

        # Condition 3 (lines 27-45): open fully paid, well-supported
        # facilities.  Deterministic facility order; openings within a
        # round see the freezes caused by earlier openings.
        for i in sorted(supported, key=facility_rank.__getitem__):
            if active_count[i] < threshold:
                continue
            if facility_payment(i) + 1e-12 < open_cost[i]:
                continue
            admins.append(i)
            del supported[i]
            active_tight = [j for j in tight[i] if j not in frozen]
            if trace.enabled:
                trace.instant(
                    "dual_ascent.admin_open",
                    track="dual_ascent",
                    args={
                        "facility": str(i),
                        "round": rounds,
                        "payment": facility_payment(i),
                        "open_cost": open_cost[i],
                        "tight_clients": len(active_tight),
                    },
                )
            for j in active_tight:
                freeze(j, i)
            for j, cost in connect[i].items():
                if cost < best_cost[j]:
                    best_cost[j] = cost
                    best_server[j] = i
        if len(admins) > admins_before:
            active = [j for j in active if j not in frozen]

        # Per-iteration trace: the dual trajectory (bid levels, tight
        # edges, freezes, openings) as one instant event per event-loop
        # round.  Payload construction is gated so the default
        # NullTracer costs one attribute read per iteration.
        if trace.enabled:
            trace.instant(
                "dual_ascent.round",
                track="dual_ascent",
                args={
                    "round": rounds,
                    "jump": jump,
                    "frozen": len(frozen),
                    "new_freezes": len(frozen) - frozen_before,
                    "admins": len(admins),
                    "new_admins": len(admins) - admins_before,
                    "tight_edges": tight_edges,
                    "new_tight_edges": tight_edges - traced_edges,
                    "alpha_active_max": level if active else 0.0,
                },
            )
            traced_edges = tight_edges

        # Per-round convergence series (virtual time = round number):
        # the dual objective Σα, the freeze/opening census, and the
        # residual infeasibility (clients still bidding).  One
        # attribute read per iteration when telemetry is off.
        if series_on:
            t = series_base + rounds
            obs.series_point(
                "dual_ascent.objective", t, sum(alpha.values())
            )
            obs.series_point(
                "dual_ascent.frozen",
                t,
                frozen_base + len(frozen),
                kind="counter",
            )
            obs.series_point(
                "dual_ascent.admins",
                t,
                admins_base + len(admins),
                kind="counter",
            )
            obs.series_point(
                "dual_ascent.unserved", t, len(clients) - len(frozen)
            )

    payments = {i: facility_payment(i) for i in facilities}
    span_counts = {i: len(tight[i]) for i in facilities}
    if contracts.sanitize_enabled():
        contracts.check_dual_solution(
            producer=producer,
            clients=clients,
            facilities=facilities,
            open_cost=open_cost,
            connect_cost=connect,
            admins=admins,
            assignment=target,
            alpha=alpha,
            payments=payments,
            span_counts=span_counts,
            step=config.step,
            threshold=threshold,
        )
    obs.count("dual_ascent.runs")
    obs.count("dual_ascent.rounds", rounds)
    obs.count("dual_ascent.event_loops", event_loops)
    obs.count("dual_ascent.tight_events", sum(span_counts.values()))
    obs.count("dual_ascent.span_supported_facilities",
              sum(1 for c in span_counts.values() if c >= threshold))
    obs.count("dual_ascent.freezes.direct", direct_freezes)
    obs.count("dual_ascent.freezes.via_opening", len(frozen) - direct_freezes)
    obs.count("dual_ascent.admins_opened", len(admins))
    return DualAscentResult(
        admins=admins,
        assignment=dict(target),
        alpha=alpha,
        rounds=rounds,
        payments=payments,
        span_counts=span_counts,
    )
