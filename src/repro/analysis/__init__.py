"""Static analysis and runtime contracts for the :mod:`repro` codebase.

Three coordinated passes keep the architecture documented in
``docs/ARCHITECTURE.md`` mechanically true (see ``docs/LINTING.md``):

* :mod:`repro.analysis.imports` — an AST import walker checked against
  the machine-readable layering spec ``docs/layering.toml``: no upward
  imports, no cycles, ``obs/recorder.py`` stays stdlib-only, ``core/``
  never touches ``experiments/`` or the CLI.
* :mod:`repro.analysis.hygiene` — repo-tuned code-hygiene rules:
  unseeded RNG use in the deterministic layers, mutable default
  arguments, float ``==`` in cost/dual-ascent code, bare ``except``,
  wall-clock reads outside ``obs/``.
* :mod:`repro.analysis.determinism`, :mod:`repro.analysis.rngflow`, and
  :mod:`repro.analysis.parallel` — determinism & parallel-safety rules
  checked against the contracts in ``docs/determinism.toml``: unordered
  iteration feeding ordered output, ``hash()``/``id()`` ordering, env/
  clock reads outside allowlists, process-global RNG, RNG instances
  crossing worker boundaries, and mutable-global writes reachable from
  ``Pool`` workers.
* :mod:`repro.analysis.contracts` — toggleable runtime assertions
  (``REPRO_SANITIZE=1``) wired into the dual ascent, the shared commit
  path, the incremental cost rows, the distributed protocol, and the
  adaptive control plane's local moves.

The static passes run via ``repro lint`` (a blocking CI gate); the
runtime contracts are enabled for the whole test suite by
``tests/conftest.py``, which also byte-compares every small serve
replay against the event-loop reference model in
``tests/serve_reference.py``.

This package sits at the bottom of the layering (stdlib +
:mod:`repro.errors` only) so :mod:`repro.core` can import the contracts
without cycles.
"""

from repro.analysis.linter import (
    FAMILIES,
    LintReport,
    lint_package,
    run_lint,
)
from repro.analysis.report import Violation
from repro.analysis.spec import (
    DeterminismSpec,
    LayeringSpec,
    load_determinism_spec,
    load_spec,
)

__all__ = [
    "DeterminismSpec",
    "FAMILIES",
    "LayeringSpec",
    "LintReport",
    "Violation",
    "lint_package",
    "load_determinism_spec",
    "load_spec",
    "run_lint",
]
