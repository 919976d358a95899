"""The ``repro lint`` orchestrator.

Walks a package tree, parses every source file once, runs the
architecture pass (:mod:`repro.analysis.imports`) and the hygiene pass
(:mod:`repro.analysis.hygiene`), filters ``# repro: noqa=<rule>``
suppressions, and renders one per-rule report.

It also checks the spec files themselves: ``stale-spec-entry`` flags an
entry of ``docs/layering.toml`` or ``docs/determinism.toml`` that names
no module or package of the linted tree (a deleted or renamed module
whose allowlist or layer row would otherwise pass silently).

Defaults resolve against the installed package: the lint target is the
``repro`` package directory itself and the spec is ``docs/layering.toml``
found by walking up from the package to the repository root, so plain
``repro lint`` works from any working directory in a checkout.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.determinism import check_determinism
from repro.analysis.hygiene import check_hygiene
from repro.analysis.imports import SourceModule, check_architecture
from repro.analysis.parallel import check_parallel
from repro.analysis.report import (
    Violation,
    filter_suppressed,
    render_json,
    render_report,
    render_sarif,
)
from repro.analysis.rngflow import check_rngflow
from repro.analysis.spec import (
    DEFAULT_DETERMINISM_RELPATH,
    DEFAULT_SPEC_RELPATH,
    DeterminismSpec,
    LayeringSpec,
    load_determinism_spec,
    load_spec,
    strip_comment,
)
from repro.errors import ProblemError

#: Static rule families, in the order they run.  ``architecture`` and
#: ``hygiene`` need only the layering spec; the other three also need
#: the determinism contracts (``docs/determinism.toml``).
FAMILIES = ("architecture", "hygiene", "determinism", "rngflow", "parallel")

#: Families that require a :class:`DeterminismSpec`.
DET_FAMILIES = ("determinism", "rngflow", "parallel")


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    violations: Tuple[Violation, ...]
    files_checked: int
    suppressed: int = 0
    notes: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self, fmt: str = "text") -> str:
        if fmt == "json":
            return render_json(
                list(self.violations),
                self.files_checked,
                self.suppressed,
                notes=list(self.notes),
            )
        if fmt == "sarif":
            return render_sarif(
                list(self.violations),
                self.files_checked,
                self.suppressed,
                notes=list(self.notes),
            )
        if fmt != "text":
            raise ProblemError(
                f"unknown lint format {fmt!r}; expected text, json, or sarif"
            )
        body = render_report(
            list(self.violations), self.files_checked, self.suppressed
        )
        if self.notes:
            body = "\n".join([*self.notes, body])
        return body


def load_modules(
    package_dir: Union[str, Path], package_name: Optional[str] = None
) -> List[SourceModule]:
    """Parse every ``*.py`` under ``package_dir`` into SourceModules.

    Module names are rooted at ``package_name`` (default: the directory
    name), with ``__init__.py`` files named after their package.
    """
    root = Path(package_dir).resolve()
    if not root.is_dir():
        raise ProblemError(f"lint target {root} is not a directory")
    name = package_name or root.name
    modules: List[SourceModule] = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        relative = path.relative_to(root)
        parts = [name, *relative.with_suffix("").parts]
        is_package = parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            raise ProblemError(
                f"cannot lint {path}: syntax error on line {exc.lineno}"
            ) from exc
        modules.append(
            SourceModule(
                name=".".join(parts),
                path=str(path),
                tree=tree,
                lines=tuple(text.splitlines()),
                is_package=is_package,
            )
        )
    return modules


def lint_modules(
    modules: Sequence[SourceModule],
    spec: LayeringSpec,
    families: Sequence[str] = FAMILIES,
    det_spec: Optional[DeterminismSpec] = None,
    notes: Sequence[str] = (),
) -> LintReport:
    """Run the selected rule families over already-parsed modules.

    Families needing the determinism contracts are skipped (with a
    note) when ``det_spec`` is ``None`` — a checkout without
    ``docs/determinism.toml`` still lints architecture and hygiene.
    """
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise ProblemError(
            f"unknown lint families {unknown!r}; expected a subset of "
            f"{list(FAMILIES)!r}"
        )
    run_notes = list(notes)
    violations: List[Violation] = []
    if "architecture" in families:
        violations.extend(check_architecture(list(modules), spec))
        violations.extend(
            check_spec_entries(modules, spec.source, spec.entries())
        )
    if "hygiene" in families:
        violations.extend(check_hygiene(list(modules), spec))
    det_requested = [f for f in families if f in DET_FAMILIES]
    if det_requested and det_spec is None:
        run_notes.append(
            "note: determinism contracts not found "
            f"({DEFAULT_DETERMINISM_RELPATH}); skipped families: "
            + ", ".join(det_requested)
        )
    elif det_spec is not None:
        if det_requested:
            violations.extend(
                check_spec_entries(
                    modules, det_spec.source, det_spec.entries()
                )
            )
        if "determinism" in families:
            violations.extend(check_determinism(list(modules), det_spec))
        if "rngflow" in families:
            violations.extend(check_rngflow(list(modules), det_spec))
        if "parallel" in families:
            violations.extend(check_parallel(list(modules), det_spec))
    lines_by_path: Dict[str, Sequence[str]] = {
        module.path: module.lines for module in modules
    }
    kept, suppressed = filter_suppressed(violations, lines_by_path)
    kept.sort(key=lambda v: (v.rule, v.path, v.line))
    return LintReport(
        violations=tuple(kept),
        files_checked=len(modules),
        suppressed=suppressed,
        notes=tuple(run_notes),
    )


def check_spec_entries(
    modules: Sequence[SourceModule], source: str, names: Sequence[str]
) -> List[Violation]:
    """``stale-spec-entry``: each of ``names`` (the entries of the spec
    file ``source``) that is neither a linted module nor a package
    prefix of one.  A spec built in memory (no ``source``) has no file
    entries to go stale and is skipped."""
    if not source:
        return []
    known = set()
    for module in modules:
        parts = module.name.split(".")
        known.update(".".join(parts[:cut]) for cut in range(1, len(parts) + 1))
    try:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    except OSError:
        lines = []
    return [
        Violation(
            "stale-spec-entry",
            source,
            _entry_line(lines, name),
            f"{name} names no module or package in the linted tree; "
            "remove or rename the entry",
        )
        for name in names
        if name not in known
    ]


def _entry_line(lines: Sequence[str], name: str) -> int:
    """1-based line of the first non-comment mention of ``name``, as a
    quoted string or a bare key; 1 when not found."""
    quoted = f'"{name}"'
    for lineno, line in enumerate(lines, start=1):
        code = strip_comment(line).strip()
        if quoted in code or code.split("=", 1)[0].strip() == name:
            return lineno
    return 1


def lint_package(
    package_dir: Union[str, Path],
    spec: LayeringSpec,
    package_name: Optional[str] = None,
    families: Sequence[str] = FAMILIES,
    det_spec: Optional[DeterminismSpec] = None,
) -> LintReport:
    """Lint one package directory against ``spec``."""
    return lint_modules(
        load_modules(package_dir, package_name),
        spec,
        families=families,
        det_spec=det_spec,
    )


def find_spec_path(start: Union[str, Path]) -> Optional[Path]:
    """Walk up from ``start`` looking for ``docs/layering.toml``."""
    current = Path(start).resolve()
    for candidate in [current, *current.parents]:
        spec_path = candidate / DEFAULT_SPEC_RELPATH
        if spec_path.is_file():
            return spec_path
    return None


def find_determinism_path(start: Union[str, Path]) -> Optional[Path]:
    """Walk up from ``start`` looking for ``docs/determinism.toml``."""
    current = Path(start).resolve()
    for candidate in [current, *current.parents]:
        det_path = candidate / DEFAULT_DETERMINISM_RELPATH
        if det_path.is_file():
            return det_path
    return None


def run_lint(
    package_dir: Optional[Union[str, Path]] = None,
    spec_path: Optional[Union[str, Path]] = None,
    families: Sequence[str] = FAMILIES,
    det_spec_path: Optional[Union[str, Path]] = None,
) -> LintReport:
    """Lint with installed-package defaults (what ``repro lint`` runs)."""
    if package_dir is None:
        package_dir = Path(__file__).resolve().parent.parent
    package_dir = Path(package_dir)
    if spec_path is None:
        spec_path = find_spec_path(package_dir)
        if spec_path is None:
            raise ProblemError(
                f"no {DEFAULT_SPEC_RELPATH} found above {package_dir}; "
                "pass --spec explicitly"
            )
    spec = load_spec(spec_path)
    if det_spec_path is None:
        det_spec_path = find_determinism_path(package_dir)
    det_spec = (
        load_determinism_spec(det_spec_path)
        if det_spec_path is not None
        else None
    )
    return lint_package(
        package_dir, spec, families=families, det_spec=det_spec
    )
