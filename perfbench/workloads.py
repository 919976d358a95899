"""The benchmark's seeded workloads.

Each workload builds ``instances`` independent inputs from the run's
``--seed`` (one random-geometric topology each, from
``repro.workloads.random_problem``), then times one call into a public
entry point of ``repro`` per instance.  Sizes keep one call at roughly
0.2-0.6 s, so a run repeats every instance several times: the fastest
repeat of a short call dodges the host's bursts of contention, and the
mean over a dozen topologies evens out the differences between them.
Inputs (fault shape, churn victims, workload parameters) are fixed here
rather than imported from ``repro.experiments``, so a change to the
program cannot move them.

A workload is three functions:

* ``setup(seed, size)`` builds one instance's inputs (timed as set-up);
* ``call(instance)`` is the timed operation and returns its raw result;
* ``outcome(instance, raw)`` checks the result and condenses it into an
  :class:`Outcome` (untimed).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro import (
    DistributedConfig,
    ZipfWorkload,
    random_problem,
    serve_placement,
    solve_approximation,
    solve_distributed,
)
from repro.adaptive import AdaptiveConfig, AdaptiveController
from repro.errors import ReproError
from repro.experiments.runner import summarize
from repro.io import placement_to_dict
from repro.serve.workloads import ShiftWorkload


@dataclass(frozen=True)
class Size:
    """Instance shape of a workload (``Workload.toy`` is the self-test's)."""

    nodes: int
    chunks: int
    instances: int
    requests: int = 0
    epochs: int = 0
    epoch_requests: int = 0


@dataclass
class Outcome:
    """What one operation produced, condensed for checks and metrics."""

    digest: str
    attempted: int
    failed: int
    cost: float
    gini: float
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    size: Size
    toy: Size
    setup: Callable[[int, Size], Any]
    call: Callable[[Any], Any]
    outcome: Callable[[Any, Any], Outcome]


def instance_seeds(seed: int, count: int) -> List[int]:
    """``count`` topology seeds derived from the run's ``--seed``."""
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _digest(*parts: str) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode())
        sha.update(b"\0")
    return sha.hexdigest()


def _placement_json(placement) -> str:
    return json.dumps(placement_to_dict(placement), sort_keys=True)


def _placement_outcome(placement, unserved_chunks=(), digest_extra="",
                       extras=None) -> Outcome:
    """A Q-chunk placement: one attempted operation per chunk.

    A chunk fails when it leaves unserved nodes; every chunk fails when
    the placement as a whole does not ``validate()``.
    """
    chunks = placement.problem.num_chunks
    failed = len(set(unserved_chunks))
    try:
        placement.validate()
    except ReproError as exc:
        print(f"perfbench: placement failed validate(): {exc}",
              file=sys.stderr)
        failed = chunks
    summary = summarize(placement.algorithm, placement)
    return Outcome(
        digest=_digest(_placement_json(placement), digest_extra),
        attempted=chunks,
        failed=failed,
        cost=summary.total_cost,
        gini=summary.gini,
        extras=dict(extras or {}),
    )


# -- appx: Alg. 1 ------------------------------------------------------
def _appx_setup(seed: int, size: Size):
    problem, _ = random_problem(
        size.nodes, seed=seed, num_chunks=size.chunks, capacity=5
    )
    return problem


def _appx_outcome(problem, placement) -> Outcome:
    return _placement_outcome(placement)


APPX = Workload(
    name="appx-rgg100",
    size=Size(nodes=100, chunks=5, instances=12),
    toy=Size(nodes=16, chunks=2, instances=2),
    setup=_appx_setup,
    call=solve_approximation,
    outcome=_appx_outcome,
)


# -- dist: Alg. 2 under the full fault plane ----------------------------
LOSS_RATE = 0.1
JITTER = 0.005
RETX_TIMEOUT = 0.2
MAX_RETRIES = 3
CHURN_LEAVE, CHURN_JOIN = 5.0, 15.0


def _mid_ranked_node(problem):
    """The median node by (degree, label), never the producer."""
    graph = problem.graph
    ranked = sorted(
        (node for node in graph.nodes() if node != problem.producer),
        key=lambda node: (graph.degree(node), str(node)),
    )
    return ranked[len(ranked) // 2]


def _dist_setup(seed: int, size: Size):
    problem, _ = random_problem(size.nodes, seed=seed, num_chunks=size.chunks)
    churner = _mid_ranked_node(problem)
    config = DistributedConfig(
        loss_rate=LOSS_RATE,
        jitter=JITTER,
        retx_timeout=RETX_TIMEOUT,
        max_retries=MAX_RETRIES,
        churn_schedule=(
            (CHURN_LEAVE, churner, "leave"),
            (CHURN_JOIN, churner, "join"),
        ),
        fault_seed=seed,
    )
    return problem, config


def _dist_call(instance):
    problem, config = instance
    return solve_distributed(problem, config)


def _dist_outcome(instance, outcome) -> Outcome:
    faults = outcome.faults
    unserved = faults.unserved if faults is not None else {}
    stats = json.dumps(
        {"messages": outcome.stats.messages,
         "transmissions": outcome.stats.transmissions},
        sort_keys=True,
    )
    return _placement_outcome(
        outcome.placement,
        unserved_chunks=[chunk for chunk, nodes in unserved.items() if nodes],
        digest_extra=stats,
        extras={"messages": float(outcome.stats.total_messages())},
    )


DIST = Workload(
    name="dist-faults-rgg60",
    size=Size(nodes=60, chunks=5, instances=24),
    toy=Size(nodes=14, chunks=2, instances=2),
    setup=_dist_setup,
    call=_dist_call,
    outcome=_dist_outcome,
)


# -- serve: Zipf replay of an Appx placement -----------------------------
def _serve_setup(seed: int, size: Size):
    problem, _ = random_problem(size.nodes, seed=seed, num_chunks=size.chunks)
    placement = solve_approximation(problem)
    return placement, ZipfWorkload(seed=seed), size.requests


def _serve_call(instance):
    placement, workload, requests = instance
    return serve_placement(placement, workload, requests, policy="cheapest")


def _serve_outcome(instance, report) -> Outcome:
    placement, _, requests = instance
    base = _placement_outcome(placement)
    return Outcome(
        digest=_digest(base.digest, report.to_json()),
        attempted=requests,
        failed=requests - report.completed,
        cost=base.cost,
        gini=base.gini,
        extras={"latency_p99_sim_s": report.latency_p99},
    )


SERVE = Workload(
    name="serve-zipf-rgg60",
    size=Size(nodes=60, chunks=5, instances=12, requests=50_000),
    toy=Size(nodes=12, chunks=2, instances=2, requests=2_000),
    setup=_serve_setup,
    call=_serve_call,
    outcome=_serve_outcome,
)


# -- adapt: the closed loop under drift and churn ------------------------
ADAPT_RATE = 4.0
ADAPT_EXPONENT = 1.2


def _busiest_caches(placement, count: int) -> list:
    storage = placement.final_storage()
    loads = sorted(
        ((len(storage.chunks_at(node)), node)
         for node in placement.problem.clients),
        key=lambda item: (-item[0], str(item[1])),
    )
    return [node for _, node in loads[:count]]


def _adapt_setup(seed: int, size: Size):
    problem, _ = random_problem(size.nodes, seed=seed, num_chunks=size.chunks)
    first, second = _busiest_caches(solve_approximation(problem), 2)
    workload = ShiftWorkload(
        seed=seed,
        rate=ADAPT_RATE,
        exponent=ADAPT_EXPONENT,
        # One popularity reshuffle per epoch (the `repro adapt` default).
        shift_period=size.epoch_requests / ADAPT_RATE,
    )
    config = AdaptiveConfig(
        epochs=size.epochs,
        epoch_requests=size.epoch_requests,
        policy="hybrid",
        churn_schedule=((2, first), (4, second)),
    )
    return problem, workload, config


def _adapt_call(instance):
    problem, workload, config = instance
    controller = AdaptiveController(problem, workload, config)
    try:
        return controller, controller.run()
    except ReproError:
        traceback.print_exc(file=sys.stderr)
        return controller, None


def _adapt_outcome(instance, raw) -> Outcome:
    _, _, config = instance
    controller, report = raw
    if report is None:
        return Outcome(digest="", attempted=config.epochs,
                       failed=config.epochs, cost=0.0, gini=0.0)
    base = _placement_outcome(controller.final_placement)
    last = controller.last_serve_report
    return Outcome(
        digest=_digest(base.digest, report.to_json()),
        attempted=config.epochs,
        failed=(
            config.epochs if base.failed
            else config.epochs - len(report.epoch_records)
        ),
        cost=base.cost,
        gini=base.gini,
        extras={
            "savings": report.savings,
            "latency_p99_sim_s": last.latency_p99,
        },
    )


ADAPT = Workload(
    name="adapt-churn-rgg60",
    size=Size(nodes=60, chunks=5, instances=10, epochs=6,
              epoch_requests=2_000),
    toy=Size(nodes=12, chunks=3, instances=2, epochs=6, epoch_requests=200),
    setup=_adapt_setup,
    call=_adapt_call,
    outcome=_adapt_outcome,
)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (APPX, DIST, SERVE, ADAPT)
}
