"""Per-pair dual ascent (a test oracle for Algorithm 1, phase 1).

:func:`repro.core.dual_ascent.dual_ascent` runs the ascent on a shared
bid level with per-client facility cursors.  This module keeps the
literal loop it replaced: every event loop rescans every (client,
facility) pair to find the next event, refresh the tight sets and lock
payments on freeze.  Its telemetry (counters, ``dual_ascent.round`` /
``dual_ascent.admin_open`` instants, ``dual_ascent.*`` series) is the
same, so the suite can compare results and telemetry byte for byte.

:func:`shadow_check` is what ``tests/conftest.py`` runs after every
small dual ascent while ``REPRO_SANITIZE`` is on.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Set

from repro.analysis import contracts
from repro.core.confl import ConFLInstance
from repro.core.dual_ascent import DualAscentConfig, DualAscentResult
from repro.errors import SolverError
from repro.obs import (
    NullRecorder,
    NullTracer,
    get_recorder,
    get_tracer,
    use_recorder,
    use_tracer,
)

Node = Hashable

#: Ascents over at most this many clients get a shadow run on the
#: reference loop under the sanitizer; above it the O(clients ×
#: facilities) rescans would dominate the suite's run time.
SHADOW_MAX_CLIENTS = 64


def result_fingerprint(result: DualAscentResult) -> str:
    """Every field of ``result`` as one string, in iteration order.

    ``repr`` round-trips floats exactly, so equal fingerprints mean
    bit-identical bids and payments, and equal dict orders.
    """
    return repr(
        (
            result.admins,
            list(result.assignment.items()),
            list(result.alpha.items()),
            result.rounds,
            list(result.payments.items()),
            list(result.span_counts.items()),
        )
    )


def shadow_check(
    instance: ConFLInstance,
    config: DualAscentConfig,
    result: DualAscentResult,
) -> None:
    """Re-run ``instance`` on the reference loop and compare.

    The shadow runs under null sinks, so counters and traces record one
    ascent, not two.
    """
    with use_recorder(NullRecorder()), use_tracer(NullTracer()):
        reference = reference_dual_ascent(instance, config)
    got, want = result_fingerprint(result), result_fingerprint(reference)
    if got != want:
        raise AssertionError(
            f"dual-ascent-equivalence: {len(instance.clients)} clients, "
            f"{len(instance.facilities)} facilities, {config!r}: result "
            f"differs from the reference loop\n  got:  {got}\n  want: {want}"
        )


def reference_dual_ascent(
    instance: ConFLInstance, config: DualAscentConfig = DualAscentConfig()
) -> DualAscentResult:
    """Run the dual ascent; returns the ADMIN set and client assignment.

    Every client ends FROZEN: connected to an ADMIN facility or to the
    producer.  Facilities with infinite opening cost never open, so
    capacity is respected by construction.
    """
    if config.step <= 0:
        raise SolverError(f"dual-ascent step must be positive, got {config.step}")
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

    alpha: Dict[Node, float] = {j: 0.0 for j in clients}
    frozen: Set[Node] = set()
    target: Dict[Node, Node] = {}
    admins: List[Node] = []
    admin_set: Set[Node] = set()
    # T[i]: clients that went tight with facility i while still bidding.
    tight: Dict[Node, Set[Node]] = {i: set() for i in facilities}
    # Payments toward f_i, locked in place when a contributor freezes.
    locked_payment: Dict[Node, float] = {i: 0.0 for i in facilities}

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
        for i in facilities:
            if j in tight[i]:
                locked_payment[i] += max(0.0, alpha[j] - connect[i][j])

    def cheapest_open_server(j: Node) -> Optional[Node]:
        """Best already-open server j can afford (ADMIN or producer)."""
        best: Optional[Node] = None
        best_cost = math.inf
        candidates = [producer] + admins
        for i in candidates:
            cost = connect[i][j]
            if alpha[j] >= cost and cost < best_cost:
                best = i
                best_cost = cost
        return best

    def rounds_to_next_event() -> int:
        """Idle rounds that can be skipped in one jump.

        Between events (a client affording an open server, a client going
        tight with a new facility, a facility's payment reaching ``f_i``)
        every round just adds ``step`` to all active bids — so the
        trajectory is identical if those rounds are applied at once.
        This event-driven jump is what keeps Algorithm 1 fast in practice
        (cf. Fig. 5) without changing any outcome.
        """
        step = config.step
        best = math.inf
        open_servers = [producer] + admins
        for j in clients:
            if j in frozen:
                continue
            aj = alpha[j]
            nearest = math.inf
            for i in open_servers:
                gap = connect[i][j] - aj
                if gap < nearest:
                    nearest = gap
            for i in facilities:
                if i in admin_set or j in tight[i]:
                    continue
                gap = connect[i][j] - aj
                if gap < nearest:
                    nearest = gap
            if nearest <= 0:
                return 1
            rounds_needed = max(1, math.ceil(nearest / step - 1e-12))
            if rounds_needed < best:
                best = rounds_needed
        for i in facilities:
            if i in admin_set:
                continue
            active_count = sum(1 for j in tight[i] if j not in frozen)
            if active_count < threshold:
                continue
            deficit = open_cost[i] - facility_payment(i)
            if deficit <= 0:
                return 1
            rounds_needed = max(
                1, math.ceil(deficit / (active_count * step) - 1e-12)
            )
            if rounds_needed < best:
                best = rounds_needed
        if not math.isfinite(best):
            return 1
        return int(best)

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
    tight_edges = 0
    while len(frozen) < len(clients):
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
        for j in clients:
            if j not in frozen:
                alpha[j] += config.step * jump

        # Conditions 1-2 (lines 21-26): connect to ADMIN / producer.
        for j in clients:
            if j in frozen:
                continue
            server = cheapest_open_server(j)
            if server is not None:
                freeze(j, server)
                direct_freezes += 1

        # Lines 19-20: refresh tight sets (β, γ bids) of active clients.
        for j in clients:
            if j in frozen:
                continue
            aj = alpha[j]
            for i in facilities:
                if i not in admin_set and aj >= connect[i][j]:
                    tight[i].add(j)

        # Condition 3 (lines 27-45): open fully paid, well-supported
        # facilities.  Deterministic facility order; openings within a
        # round see the freezes caused by earlier openings.
        for i in facilities:
            if i in admin_set:
                continue
            active_tight = [j for j in tight[i] if j not in frozen]
            if len(active_tight) < threshold:
                continue
            if facility_payment(i) + 1e-12 < open_cost[i]:
                continue
            admin_set.add(i)
            admins.append(i)
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

        # Per-iteration trace: the dual trajectory (bid levels, tight
        # edges, freezes, openings) as one instant event per event-loop
        # round.  Payload construction is gated so the default
        # NullTracer costs one attribute read per iteration.
        if trace.enabled:
            total_tight = sum(len(t) for t in tight.values())
            active_alpha = [alpha[j] for j in clients if j not in frozen]
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
                    "tight_edges": total_tight,
                    "new_tight_edges": total_tight - tight_edges,
                    "alpha_active_max": max(active_alpha, default=0.0),
                },
            )
            tight_edges = total_tight

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
