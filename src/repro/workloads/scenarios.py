"""Workload generators reproducing the paper's simulation scenarios.

Sec. V-A's defaults, bundled as ready-made :class:`CachingProblem`
factories with seeded randomness for the sweeps:

* capacity 5 chunks per node,
* 5 distinct chunks (unless the experiment sweeps chunk counts),
* producer node 9 ("Unless specified, node 9 is the data producer"),
* grid networks (4-neighbor) and connected random geometric networks,
* every node requests every chunk.

:func:`topology_problem` is the one place that turns a topology kind
(``grid`` or ``random``) and a size into a problem; the CLI and the
sweep runner both build through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.errors import ProblemError
from repro.graphs.generators import connected_random_network, grid_graph
from repro.graphs.graph import Graph
from repro.core.problem import DEFAULT_CAPACITY, CachingProblem

Node = Hashable

PAPER_PRODUCER = 9
PAPER_NUM_CHUNKS = 5

#: Topology kinds a ``kind:size`` spec may name.
TOPOLOGY_KINDS = ("grid", "random")


def grid_problem(
    side: int,
    num_chunks: int = PAPER_NUM_CHUNKS,
    capacity: int = DEFAULT_CAPACITY,
    producer: Optional[Node] = None,
    **kwargs,
) -> CachingProblem:
    """The paper's grid scenario: ``side × side`` grid, producer node 9.

    For grids too small to contain node 9 (side < 4) the producer defaults
    to the center node instead.
    """
    graph = grid_graph(side)
    if producer is None:
        producer = PAPER_PRODUCER if PAPER_PRODUCER in graph else _center(side)
    return CachingProblem(
        graph=graph,
        producer=producer,
        num_chunks=num_chunks,
        capacity=capacity,
        **kwargs,
    )


def random_problem(
    num_nodes: int,
    seed: int,
    num_chunks: int = PAPER_NUM_CHUNKS,
    capacity: int = DEFAULT_CAPACITY,
    producer: Optional[Node] = None,
    **kwargs,
) -> Tuple[CachingProblem, Dict[Node, Tuple[float, float]]]:
    """The paper's random scenario: connected random geometric network.

    Returns the problem and the node positions (for visualization).
    """
    graph, positions = connected_random_network(num_nodes, seed=seed)
    if producer is None:
        producer = PAPER_PRODUCER if PAPER_PRODUCER in graph else next(iter(graph.nodes()))
    problem = CachingProblem(
        graph=graph,
        producer=producer,
        num_chunks=num_chunks,
        capacity=capacity,
        **kwargs,
    )
    return problem, positions


def parse_topology(spec: str) -> Tuple[str, int]:
    """Parse a ``kind:size`` topology spec (``grid:6``, ``random:30``).

    ``grid:SIDE`` is the paper's SIDE × SIDE grid; ``random:NODES`` is a
    connected random geometric network, built from the caller's seed.
    """
    kind, _, size_text = spec.partition(":")
    if kind not in TOPOLOGY_KINDS:
        raise ProblemError(
            f"unknown topology kind {kind!r} in {spec!r}; "
            f"choose from {list(TOPOLOGY_KINDS)} (e.g. grid:6, random:30)"
        )
    try:
        size = int(size_text)
    except ValueError:
        raise ProblemError(
            f"topology {spec!r} needs an integer size (e.g. {kind}:6)"
        ) from None
    if size < 1:
        raise ProblemError(f"topology size must be >= 1, got {spec!r}")
    return kind, size


def topology_problem(
    kind: str,
    size: int,
    seed: int,
    num_chunks: int = PAPER_NUM_CHUNKS,
    capacity: int = DEFAULT_CAPACITY,
) -> CachingProblem:
    """The problem on one topology of :data:`TOPOLOGY_KINDS`.

    ``grid`` builds a ``size × size`` grid and ignores ``seed``;
    ``random`` builds a connected random network of ``size`` nodes
    from ``seed``.
    """
    if kind == "grid":
        return grid_problem(size, num_chunks=num_chunks, capacity=capacity)
    if kind == "random":
        problem, _ = random_problem(
            size, seed=seed, num_chunks=num_chunks, capacity=capacity
        )
        return problem
    raise ProblemError(
        f"unknown topology kind {kind!r}; choose from {list(TOPOLOGY_KINDS)}"
    )


def grid_sweep(
    sides: List[int], num_chunks: int = PAPER_NUM_CHUNKS, **kwargs
) -> Iterator[Tuple[int, CachingProblem]]:
    """Yield ``(side, problem)`` for each grid size (Figs. 2, 5, 7a)."""
    for side in sides:
        yield side, grid_problem(side, num_chunks=num_chunks, **kwargs)


def random_sweep(
    sizes: List[int],
    runs: int = 5,
    base_seed: int = 2017,
    num_chunks: int = PAPER_NUM_CHUNKS,
    **kwargs,
) -> Iterator[Tuple[int, int, CachingProblem]]:
    """Yield ``(num_nodes, run, problem)`` — the paper averages each random
    network size over 5 runs (Fig. 4)."""
    if runs < 1:
        raise ProblemError("runs must be >= 1")
    for size in sizes:
        for run in range(runs):
            problem, _ = random_problem(
                size, seed=base_seed + 7919 * run + size, num_chunks=num_chunks,
                **kwargs,
            )
            yield size, run, problem


def chunk_sweep(
    side: int, chunk_counts: List[int], **kwargs
) -> Iterator[Tuple[int, CachingProblem]]:
    """Yield ``(num_chunks, problem)`` on a fixed grid (Fig. 8's 1..10)."""
    for count in chunk_counts:
        yield count, grid_problem(side, num_chunks=count, **kwargs)


def _center(side: int) -> int:
    return (side // 2) * side + side // 2
