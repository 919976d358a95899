"""Scenario and sweep generators matching the paper's evaluation setup."""

from repro.workloads.scenarios import (
    PAPER_NUM_CHUNKS,
    PAPER_PRODUCER,
    TOPOLOGY_KINDS,
    chunk_sweep,
    grid_problem,
    grid_sweep,
    parse_topology,
    random_problem,
    random_sweep,
    topology_problem,
)

__all__ = [
    "PAPER_NUM_CHUNKS",
    "PAPER_PRODUCER",
    "TOPOLOGY_KINDS",
    "chunk_sweep",
    "grid_problem",
    "grid_sweep",
    "parse_topology",
    "random_problem",
    "random_sweep",
    "topology_problem",
]
