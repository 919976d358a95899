"""Shared fixtures: canonical graphs and caching problems.

The whole suite runs with the :mod:`repro.analysis.contracts` sanitizer
enabled (unless the caller already set ``REPRO_SANITIZE``), so every
dual ascent, chunk commit, and protocol session is invariant-checked,
every small serve replay is byte-compared with the event-loop reference
model (:mod:`tests.serve_reference`), and every small dual ascent with
the per-pair reference loop (:mod:`tests.dual_ascent_reference`).
"""

from __future__ import annotations

import importlib
import os
import types

os.environ.setdefault("REPRO_SANITIZE", "1")

import pytest

from repro.analysis import contracts
from repro.core.dual_ascent import DualAscentConfig
from repro.graphs import Graph, grid_graph, path_graph
from repro.serve.engine import ServeEngine
from repro.workloads import grid_problem
from tests import dual_ascent_reference, serve_reference

#: Every module that calls ``dual_ascent`` through a module attribute.
#: ``repro.exact.solver`` imports it from ``repro.core.dual_ascent`` at
#: call time, so patching that module covers it.  (``import_module``:
#: ``repro.core.dual_ascent`` as an attribute is the re-exported function.)
DUAL_ASCENT_MODULE = importlib.import_module("repro.core.dual_ascent")
DUAL_ASCENT_CALL_SITES = (
    importlib.import_module("repro.core.approximation"),
    importlib.import_module("repro.online.controller"),
    DUAL_ASCENT_MODULE,
)


@pytest.fixture(autouse=True)
def serve_reference_shadow(monkeypatch):
    """Shadow every engine replay of at most ``SHADOW_MAX_REQUESTS``
    requests on the reference model while the sanitizer is on.

    Wrapping :meth:`ServeEngine.run` covers every ``serve_placement``
    call, every adaptive epoch and every in-process sweep cell.  The
    reference model subclasses the engine, so its own ``run`` is left
    alone.  Module attributes are read per call so tests can spy on the
    check or lower the cap.
    """
    if not contracts.sanitize_enabled():
        return
    real_run = ServeEngine.run

    def checked_run(self):
        report = real_run(self)
        if (
            type(self) is ServeEngine
            and self.num_requests <= serve_reference.SHADOW_MAX_REQUESTS
        ):
            serve_reference.shadow_check(self, report)
        return report

    monkeypatch.setattr(ServeEngine, "run", checked_run)


@pytest.fixture(autouse=True)
def dual_ascent_reference_shadow(monkeypatch):
    """Shadow every dual ascent over at most ``SHADOW_MAX_CLIENTS``
    clients on the reference loop while the sanitizer is on.

    Wraps the ``dual_ascent`` binding of every call site in
    ``DUAL_ASCENT_CALL_SITES`` (Alg. 1, the online controller and the
    exact solver's warm start).  Module attributes are read per call so
    tests can spy on the check or lower the cap.  The fixture's value
    holds the wrapped implementation as ``solve``; a test may swap in a
    perturbed ascent there to show the check catches it.
    """
    shadow = types.SimpleNamespace(solve=DUAL_ASCENT_MODULE.dual_ascent)
    if not contracts.sanitize_enabled():
        return shadow

    def checked(instance, config=DualAscentConfig()):
        result = shadow.solve(instance, config)
        if len(instance.clients) <= dual_ascent_reference.SHADOW_MAX_CLIENTS:
            dual_ascent_reference.shadow_check(instance, config, result)
        return result

    for module in DUAL_ASCENT_CALL_SITES:
        monkeypatch.setattr(module, "dual_ascent", checked)
    return shadow


@pytest.fixture
def triangle() -> Graph:
    """A 3-cycle with distinct weights."""
    return Graph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])


@pytest.fixture
def grid4() -> Graph:
    return grid_graph(4)


@pytest.fixture
def grid6() -> Graph:
    return grid_graph(6)


@pytest.fixture
def path5() -> Graph:
    return path_graph(5)


@pytest.fixture
def paper_problem():
    """The paper's default scenario: 6x6 grid, producer 9, 5 chunks."""
    return grid_problem(6)


@pytest.fixture
def small_problem():
    """A quick 4x4 scenario for algorithm tests."""
    return grid_problem(4, num_chunks=3)
