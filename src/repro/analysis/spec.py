"""The machine-readable layering spec (``docs/layering.toml``).

The spec is the single source of truth the architecture linter checks
against; it is generated from (and cross-referenced with) the module map
in ``docs/ARCHITECTURE.md``.  Schema ``repro-layering/1``:

* ``[layers]`` — dotted module prefix → integer layer.  A module may
  import only modules whose layer is **less than or equal to** its own
  (same-layer imports are allowed; cycles are caught separately).
  Prefixes match on dotted-name boundaries, longest prefix wins.
* ``[rules] stdlib_only`` — modules restricted to the standard library
  (all imports, including lazy function-level ones).
* ``[rules] layering_exempt`` — modules exempt from the layering pass
  (e.g. ``repro.obs.bench``, the documented exception that drives the
  solver layers from inside ``obs/``).
* ``[rules.forbidden]`` — explicit import bans (checked on *every*
  import, lazy ones included), e.g. ``core/`` → ``experiments/``.
* ``[hygiene]`` — scopes for the code-hygiene rules (which subtrees the
  unseeded-RNG and float-equality rules apply to, which are exempt from
  the wall-clock rule).

Parsing uses :mod:`tomllib` when available (Python ≥ 3.11) and falls
back to a small TOML-subset parser otherwise — the spec file
deliberately stays within that subset (string/int/bool scalars and
string arrays, which may span lines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ProblemError

SPEC_SCHEMA = "repro-layering/1"
DETERMINISM_SCHEMA = "repro-determinism/1"

#: Where the specs live, relative to the repository root.
DEFAULT_SPEC_RELPATH = Path("docs") / "layering.toml"
DEFAULT_DETERMINISM_RELPATH = Path("docs") / "determinism.toml"

#: Contract labels a module prefix may declare in ``[modules]``.
_CONTRACTS = ("deterministic", "fork-safe", "exempt")


@dataclass(frozen=True)
class LayeringSpec:
    """Parsed layering spec; see the module docstring for semantics."""

    layers: Dict[str, int]
    stdlib_only: Tuple[str, ...] = ()
    layering_exempt: Tuple[str, ...] = ()
    forbidden: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    unseeded_random_scope: Tuple[str, ...] = ()
    float_equality_scope: Tuple[str, ...] = ()
    wallclock_exempt: Tuple[str, ...] = ()
    #: File the spec was loaded from ("" for a spec built in memory).
    source: str = ""

    def entries(self) -> Tuple[str, ...]:
        """Every module or package name the spec mentions, deduplicated
        in first-mention order."""
        names = [*self.layers, *self.stdlib_only, *self.layering_exempt]
        for source, targets in self.forbidden.items():
            names.append(source)
            names.extend(targets)
        names.extend(self.unseeded_random_scope)
        names.extend(self.float_equality_scope)
        names.extend(self.wallclock_exempt)
        return tuple(dict.fromkeys(names))

    def layer_of(self, module: str) -> Optional[int]:
        """Layer of ``module`` by longest dotted-prefix match."""
        best: Optional[int] = None
        best_len = -1
        for prefix, layer in self.layers.items():
            if _is_prefix(prefix, module) and len(prefix) > best_len:
                best = layer
                best_len = len(prefix)
        return best

    def in_scope(self, module: str, prefixes: Sequence[str]) -> bool:
        """True when ``module`` falls under any of ``prefixes``."""
        return any(_is_prefix(prefix, module) for prefix in prefixes)


def _is_prefix(prefix: str, module: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def load_spec(path: Union[str, Path]) -> LayeringSpec:
    """Load and validate a ``repro-layering/1`` spec file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemError(f"layering spec {path}: {exc}") from exc
    data = _parse_toml(text)
    schema = data.get("schema")
    if schema != SPEC_SCHEMA:
        raise ProblemError(
            f"layering spec {path}: schema {schema!r}, expected {SPEC_SCHEMA!r}"
        )
    raw_layers = data.get("layers")
    if not isinstance(raw_layers, Mapping) or not raw_layers:
        raise ProblemError(f"layering spec {path}: missing [layers] table")
    layers: Dict[str, int] = {}
    for module, layer in raw_layers.items():
        if not isinstance(layer, int) or isinstance(layer, bool):
            raise ProblemError(
                f"layering spec {path}: layer of {module!r} must be an "
                f"integer, got {layer!r}"
            )
        layers[str(module)] = layer
    rules = data.get("rules", {})
    if not isinstance(rules, Mapping):
        raise ProblemError(f"layering spec {path}: [rules] must be a table")
    forbidden_raw = rules.get("forbidden", {})
    if not isinstance(forbidden_raw, Mapping):
        raise ProblemError(
            f"layering spec {path}: [rules.forbidden] must be a table"
        )
    forbidden = {
        str(source): _str_tuple(targets)
        for source, targets in forbidden_raw.items()
    }
    hygiene = data.get("hygiene", {})
    if not isinstance(hygiene, Mapping):
        raise ProblemError(f"layering spec {path}: [hygiene] must be a table")
    return LayeringSpec(
        layers=layers,
        stdlib_only=_str_tuple(rules.get("stdlib_only", [])),
        layering_exempt=_str_tuple(rules.get("layering_exempt", [])),
        forbidden=forbidden,
        unseeded_random_scope=_str_tuple(hygiene.get("unseeded_random", [])),
        float_equality_scope=_str_tuple(hygiene.get("float_equality", [])),
        wallclock_exempt=_str_tuple(hygiene.get("wallclock_exempt", [])),
        source=str(path),
    )


def _str_tuple(value: Any) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise ProblemError(f"expected a list of strings, got {value!r}")
    return tuple(str(item) for item in value)


# ----------------------------------------------------------------------
# Determinism contracts (docs/determinism.toml, repro-determinism/1).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeterminismSpec:
    """Parsed determinism contracts; see ``docs/determinism.toml``.

    ``modules`` maps dotted module prefixes to contract-label tuples
    (``deterministic`` / ``fork-safe`` / ``exempt``); a module inherits
    the contracts of its longest matching prefix.  ``wallclock_allow``
    and ``env_allow`` scope the clock/env rules; ``blessed_seed_calls``
    names the helpers a ``random.Random`` seed expression may call.
    """

    modules: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    wallclock_allow: Tuple[str, ...] = ()
    env_allow: Tuple[str, ...] = ()
    blessed_seed_calls: Tuple[str, ...] = ()
    #: File the contracts were loaded from ("" for an in-memory spec).
    source: str = ""

    def entries(self) -> Tuple[str, ...]:
        """Every module or package name the contracts mention (the
        ``[rng]`` helpers are callables, not modules), deduplicated in
        first-mention order."""
        names = [*self.modules, *self.wallclock_allow, *self.env_allow]
        return tuple(dict.fromkeys(names))

    def contracts_of(self, module: str) -> Tuple[str, ...]:
        """Contracts of ``module`` by longest dotted-prefix match."""
        best: Tuple[str, ...] = ()
        best_len = -1
        for prefix, contracts in self.modules.items():
            if _is_prefix(prefix, module) and len(prefix) > best_len:
                best = contracts
                best_len = len(prefix)
        return best

    def is_exempt(self, module: str) -> bool:
        return "exempt" in self.contracts_of(module)

    def is_deterministic(self, module: str) -> bool:
        contracts = self.contracts_of(module)
        return "deterministic" in contracts and "exempt" not in contracts

    def is_fork_safe(self, module: str) -> bool:
        contracts = self.contracts_of(module)
        return "fork-safe" in contracts and "exempt" not in contracts

    def allows_wallclock(self, module: str) -> bool:
        return any(_is_prefix(p, module) for p in self.wallclock_allow)

    def allows_env(self, module: str) -> bool:
        return any(_is_prefix(p, module) for p in self.env_allow)


def load_determinism_spec(path: Union[str, Path]) -> DeterminismSpec:
    """Load and validate a ``repro-determinism/1`` contracts file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemError(f"determinism spec {path}: {exc}") from exc
    data = _parse_toml(text)
    schema = data.get("schema")
    if schema != DETERMINISM_SCHEMA:
        raise ProblemError(
            f"determinism spec {path}: schema {schema!r}, "
            f"expected {DETERMINISM_SCHEMA!r}"
        )
    raw_modules = data.get("modules")
    if not isinstance(raw_modules, Mapping) or not raw_modules:
        raise ProblemError(
            f"determinism spec {path}: missing [modules] table"
        )
    modules: Dict[str, Tuple[str, ...]] = {}
    for module, contracts in raw_modules.items():
        labels = _str_tuple(contracts)
        for label in labels:
            if label not in _CONTRACTS:
                raise ProblemError(
                    f"determinism spec {path}: unknown contract {label!r} "
                    f"on {module!r} (expected one of {_CONTRACTS})"
                )
        modules[str(module)] = labels
    allowlist = data.get("allowlist", {})
    if not isinstance(allowlist, Mapping):
        raise ProblemError(
            f"determinism spec {path}: [allowlist] must be a table"
        )
    rng = data.get("rng", {})
    if not isinstance(rng, Mapping):
        raise ProblemError(f"determinism spec {path}: [rng] must be a table")
    return DeterminismSpec(
        modules=modules,
        wallclock_allow=_str_tuple(allowlist.get("wallclock", [])),
        env_allow=_str_tuple(allowlist.get("env", [])),
        blessed_seed_calls=_str_tuple(rng.get("blessed", [])),
        source=str(path),
    )


# ----------------------------------------------------------------------
# TOML loading: tomllib when available, a strict subset parser otherwise.
# ----------------------------------------------------------------------
def _parse_toml(text: str) -> Dict[str, Any]:
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        return _parse_toml_subset(text)
    return tomllib.loads(text)


def _parse_toml_subset(text: str) -> Dict[str, Any]:
    """Parse the TOML subset the layering spec restricts itself to.

    Supported: ``[dotted.tables]``, bare/quoted keys, string / integer /
    boolean scalars, and arrays of strings (single- or multi-line).
    Anything else raises, which keeps the spec honest on Python 3.9/3.10.
    """
    root: Dict[str, Any] = {}
    table = root
    for lineno, line in _logical_lines(text):
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            table = root
            for part in _split_table_name(line[1:-1], lineno):
                table = table.setdefault(part, {})
                if not isinstance(table, dict):
                    raise ProblemError(
                        f"layering spec line {lineno}: {part!r} is not a table"
                    )
            continue
        if "=" not in line:
            raise ProblemError(
                f"layering spec line {lineno}: expected 'key = value'"
            )
        key_text, value_text = line.split("=", 1)
        table[_parse_key(key_text.strip(), lineno)] = _parse_value(
            value_text.strip(), lineno
        )
    return root


def _logical_lines(text: str) -> List[Tuple[int, str]]:
    """Comment-stripped lines, with multi-line arrays joined into one.

    A line whose value opens a ``[`` array without closing it absorbs
    subsequent lines until the bracket balance returns to zero, so the
    spec can format long arrays one item per line.
    """
    lines: List[Tuple[int, str]] = []
    pending: Optional[Tuple[int, str]] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw_line).strip()
        if pending is not None:
            start, joined = pending
            joined = joined + " " + line
            if _bracket_balance(joined) <= 0:
                lines.append((start, joined))
                pending = None
            else:
                pending = (start, joined)
            continue
        if "=" in line and _bracket_balance(line) > 0:
            pending = (lineno, line)
            continue
        lines.append((lineno, line))
    if pending is not None:
        raise ProblemError(
            f"layering spec line {pending[0]}: unterminated array"
        )
    return lines


def _bracket_balance(line: str) -> int:
    balance = 0
    in_string = False
    for char in line:
        if char == '"':
            in_string = not in_string
        elif not in_string:
            if char == "[":
                balance += 1
            elif char == "]":
                balance -= 1
    return balance


def strip_comment(line: str) -> str:
    """``line`` without its ``#`` comment (a ``#`` inside a string stays)."""
    in_string = False
    for index, char in enumerate(line):
        if char == '"':
            in_string = not in_string
        elif char == "#" and not in_string:
            return line[:index]
    return line


def _split_table_name(name: str, lineno: int) -> List[str]:
    parts = [_parse_key(part.strip(), lineno) for part in name.split(".")]
    if not all(parts):
        raise ProblemError(f"layering spec line {lineno}: empty table name")
    return parts


def _parse_key(key: str, lineno: int) -> str:
    if len(key) >= 2 and key[0] == '"' and key[-1] == '"':
        return key[1:-1]
    if key and all(c.isalnum() or c in "-_" for c in key):
        return key
    raise ProblemError(f"layering spec line {lineno}: bad key {key!r}")


def _parse_value(value: str, lineno: int) -> Any:
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        items = [item.strip() for item in inner.split(",")]
        return [
            _parse_scalar(item, lineno) for item in items if item
        ]
    return _parse_scalar(value, lineno)


def _parse_scalar(value: str, lineno: int) -> Any:
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value)
    except ValueError:
        raise ProblemError(
            f"layering spec line {lineno}: unsupported value {value!r} "
            "(the spec restricts itself to strings, ints, booleans, and "
            "string arrays)"
        ) from None
