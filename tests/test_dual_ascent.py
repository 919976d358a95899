"""Unit tests for the ConFL instance builder and the dual ascent."""

import math

import pytest

from repro.core import (
    CachingProblem,
    DualAscentConfig,
    build_confl_instance,
    dual_ascent,
)
from repro.errors import SolverError
from repro.graphs import grid_graph, path_graph, star_graph
from repro.workloads import grid_problem


class TestConFLInstance:
    def test_clients_and_facilities(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        assert small_problem.producer not in instance.clients
        assert small_problem.producer not in instance.facilities
        assert len(instance.clients) == 15
        assert len(instance.facilities) == 15

    def test_full_nodes_not_facilities(self):
        problem = grid_problem(3, num_chunks=1, capacity=1)
        state = problem.new_state()
        state.cache(0, 0)
        instance = build_confl_instance(state)
        assert 0 not in instance.facilities

    def test_open_costs_track_storage(self, small_problem):
        state = small_problem.new_state()
        state.cache(1, 0)
        instance = build_confl_instance(state)
        assert instance.open_cost[1] == pytest.approx(0.25)
        assert instance.raw_open_cost[2] == 0.0

    def test_weights_applied(self):
        problem = grid_problem(
            4, num_chunks=1, fairness_weight=2.0, contention_weight=3.0
        )
        state = problem.new_state()
        state.cache(1, 0)
        instance = build_confl_instance(state)
        assert instance.open_cost[1] == pytest.approx(0.5)
        raw = instance.raw_connect_cost[problem.producer][0]
        assert instance.connect_cost[problem.producer][0] == pytest.approx(3 * raw)

    def test_connect_cost_self_zero(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        assert instance.connect_cost[1][1] == 0.0

    def test_steiner_graph_weights(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        g = small_problem.graph
        assert instance.steiner_graph.weight(0, 1) == g.degree(0) + g.degree(1)

    def test_max_connect_cost_positive(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        assert instance.max_connect_cost() > 0


class TestDualAscent:
    def test_every_client_served(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        assert set(result.assignment) == set(instance.clients)

    def test_assignment_targets_valid(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        valid = set(result.admins) | {instance.producer}
        assert set(result.assignment.values()) <= valid

    def test_admins_unique(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        assert len(result.admins) == len(set(result.admins))

    def test_deterministic(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        a = dual_ascent(instance)
        b = dual_ascent(instance)
        assert a.admins == b.admins
        assert a.assignment == b.assignment
        assert a.rounds == b.rounds

    def test_rounds_bounded_by_max_cost(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        config = DualAscentConfig(step=1.0)
        result = dual_ascent(instance, config)
        assert result.rounds <= instance.max_connect_cost() + 1

    def test_larger_step_fewer_rounds(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        slow = dual_ascent(instance, DualAscentConfig(step=0.5))
        fast = dual_ascent(instance, DualAscentConfig(step=4.0))
        assert fast.rounds < slow.rounds

    def test_bad_step_rejected(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        with pytest.raises(SolverError):
            dual_ascent(instance, DualAscentConfig(step=0.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step": math.nan},
            {"step": math.inf},
            {"step": -1.0},
            {"span_threshold": 0},
            {"span_threshold": -3},
            {"max_rounds": 0},
            {"max_rounds": -1},
        ],
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_bad_config_rejected_at_construction(self, kwargs):
        # Each of these used to fail late (nan: an untyped ValueError
        # from math.ceil) or not at all (inf: everyone frozen onto the
        # producer; span_threshold=-3: clamped to 1; max_rounds=0:
        # "did not converge in 0 rounds").
        with pytest.raises(SolverError):
            DualAscentConfig(**kwargs)

    def test_edge_config_accepted(self):
        instance = build_confl_instance(grid_problem(3).new_state())
        config = DualAscentConfig(step=1e-3, span_threshold=1, max_rounds=10**6)
        assert set(dual_ascent(instance, config).assignment) == set(
            instance.clients
        )

    def test_high_threshold_opens_nothing_on_star(self):
        # Star: producer at hub; all leaves 1 hop from producer; with a
        # threshold above the leaf count no facility can open.
        problem = CachingProblem(graph=star_graph(4), producer=0, num_chunks=1)
        instance = build_confl_instance(problem.new_state())
        result = dual_ascent(instance, DualAscentConfig(span_threshold=50))
        assert result.admins == []
        assert all(t == 0 for t in result.assignment.values())

    def test_threshold_one_opens_quickly(self):
        problem = CachingProblem(
            graph=path_graph(7), producer=0, num_chunks=1
        )
        instance = build_confl_instance(problem.new_state())
        result = dual_ascent(instance, DualAscentConfig(span_threshold=1))
        assert len(result.admins) >= 1

    def test_alpha_nonnegative_monotone(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        assert all(a >= 0 for a in result.alpha.values())

    def test_full_storage_never_admin(self):
        problem = grid_problem(3, num_chunks=1, capacity=1)
        state = problem.new_state()
        for node in problem.clients:
            state.cache(node, 0)
        instance = build_confl_instance(state)
        result = dual_ascent(instance)
        assert result.admins == []

    def test_resolved_threshold_fallbacks(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        assert DualAscentConfig(span_threshold=None).resolved_threshold(
            instance
        ) == max(1, int(round(instance.dissemination_scale)))
        assert DualAscentConfig(span_threshold=7).resolved_threshold(instance) == 7


class TestDualInvariants:
    """Invariants the primal-dual argument of Theorem 1 relies on."""

    def test_frozen_clients_afford_their_server(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        for client, server in result.assignment.items():
            assert result.alpha[client] >= (
                instance.connect_cost[server][client] - 1e-9
            )

    def test_open_facilities_fully_paid(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        result = dual_ascent(instance)
        for admin in result.admins:
            assert result.payments[admin] >= instance.open_cost[admin] - 1e-9

    def test_admins_had_enough_spans(self, small_problem):
        instance = build_confl_instance(small_problem.new_state())
        config = DualAscentConfig()
        result = dual_ascent(instance, config)
        threshold = config.resolved_threshold(instance)
        for admin in result.admins:
            assert result.span_counts[admin] >= threshold

    def test_jump_optimization_preserves_trajectory(self, small_problem):
        """Event-jumping must give the same result as tiny uniform steps
        (it only skips rounds in which nothing can happen)."""
        instance = build_confl_instance(small_problem.new_state())
        coarse = dual_ascent(instance, DualAscentConfig(step=1.0))
        fine = dual_ascent(instance, DualAscentConfig(step=1.0))
        assert coarse.admins == fine.admins
        assert coarse.assignment == fine.assignment


class TestWorkedExample:
    """Pin the 5-node path trace documented in docs/ALGORITHMS.md."""

    def _instance(self):
        from repro.graphs import Graph

        g = Graph()
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            g.add_edge(a, b)
        problem = CachingProblem(graph=g, producer=0, num_chunks=1)
        return build_confl_instance(problem.new_state())

    def test_documented_outcome(self):
        result = dual_ascent(self._instance())
        assert result.admins == [3]
        assert result.rounds == 4
        assert result.assignment == {1: 0, 2: 3, 3: 3, 4: 3}
        assert result.alpha == {1: 3.0, 2: 4.0, 3: 4.0, 4: 4.0}
        assert result.payments[3] == pytest.approx(5.0)
        assert result.span_counts[3] == 3

    def test_documented_counters(self):
        from repro.obs import Recorder, use_recorder

        rec = Recorder()
        with use_recorder(rec):
            dual_ascent(self._instance())
        assert rec.counter("dual_ascent.rounds") == 4
        assert rec.counter("dual_ascent.freezes.direct") == 1
        assert rec.counter("dual_ascent.freezes.via_opening") == 3
        assert rec.counter("dual_ascent.admins_opened") == 1
