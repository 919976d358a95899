"""Benchmark-side span tracing around the program's layer boundaries.

Nothing under ``src/`` knows about these spans.  :func:`installed`
replaces the names callers bind with thin timing wrappers for the
duration of one ``with`` block and restores the originals afterwards:

* a module-level function is wrapped in *every* loaded ``repro`` module
  that binds it (``dual_ascent`` is bound in ``core.dual_ascent``,
  ``core.approximation``, ``core`` and ``online.controller``), so no
  call site escapes the span;
* a method is wrapped on the class that defines it;
* an iterator-returning method (``Workload.stream_batches``) gets one
  span per ``next()``, so lazily generated work is charged where it
  actually runs.

Spans are kept in memory as ``[name, start, end, parent]`` rows and are
aggregated (self time = duration minus the time covered by child spans)
or written out once, after the timed work is over.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple

_clock = time.perf_counter


class SpanLog:
    """In-memory span rows plus per-name item counts from iterator spans."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]``; parent ``-1`` = top level.
        self.spans: List[list] = []
        #: Items yielded through iterator spans, by span name.
        self.items: Dict[str, int] = {}
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        self.spans[index][1] = _clock()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as one ``name`` span."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """``fn`` returning an iterator; each ``next()`` is one span.

        Items are assumed to be column batches: the length of the first
        column is added to :attr:`items` under ``name``.
        """

        def timed(iterator: Iterator) -> Iterator:
            while True:
                index = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.items[name] = self.items.get(name, 0) + len(item[0])
                yield item

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator:
            return timed(fn(*args, **kwargs))

        return traced

    def mark(self) -> int:
        """Index of the next span (delimits the spans of one operation)."""
        return len(self.spans)

    def top_level_seconds(self, start: int, stop: int) -> float:
        """Summed duration of top-level spans with index in ``[start, stop)``."""
        return sum(
            row[2] - row[1] for row in self.spans[start:stop] if row[3] == -1
        )


@dataclass
class LayerTime:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


def aggregate(spans: List[list]) -> Dict[str, LayerTime]:
    """Per-name call count, inclusive and self seconds."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    layers: Dict[str, LayerTime] = {}
    for index, (name, start, end, _) in enumerate(spans):
        layer = layers.setdefault(name, LayerTime())
        layer.calls += 1
        layer.total += end - start
        layer.self_time += (end - start) - covered[index]
    return layers


#: ``(module, function, span)``: wrapped wherever the function is bound.
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.confl", "build_confl_instance", "core.build_confl_instance"),
    ("repro.core.dual_ascent", "dual_ascent", "core.dual_ascent"),
    ("repro.core.commit", "commit_chunk", "core.commit_chunk"),
    ("repro.graphs.steiner", "steiner_tree", "graphs.steiner_tree"),
    ("repro.online.controller", "reoptimize_chunk", "online.reoptimize_chunk"),
)

#: ``(module, class, method, span)``: wrapped on the defining class.
METHOD_SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.distributed.protocol", "ChunkSession", "run",
     "distributed.chunk_session"),
    ("repro.serve.engine", "ServeEngine", "run", "serve.engine"),
    ("repro.adaptive.controller", "AdaptiveController", "run", "adaptive.run"),
    ("repro.adaptive.controller", "AdaptiveController", "_serve_epoch",
     "adaptive.serve_epoch"),
)

#: The adaptive loop's bootstrap solve: only the binding the controller
#: calls, so Alg. 1 elsewhere stays charged to its own layers.
BOOTSTRAP_SPAN = (
    "repro.adaptive.controller", "solve_approximation",
    "adaptive.bootstrap_solve",
)

STREAM_SPAN = "serve.stream_batches"


@contextmanager
def installed(log: SpanLog) -> Iterator[SpanLog]:
    """Route the layer entry points through ``log`` inside the block."""
    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for module_name, attr, span in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = log.wrap(span, original)
            for name, module in sorted(sys.modules.items()):
                if module is None or not (
                    name == "repro" or name.startswith("repro.")
                ):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        patch(module, binding, wrapped)
        for module_name, cls_name, attr, span in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            patch(cls, attr, log.wrap(span, cls.__dict__[attr]))
        module_name, attr, span = BOOTSTRAP_SPAN
        module = importlib.import_module(module_name)
        patch(module, attr, log.wrap(span, getattr(module, attr)))
        # Every workload class that defines its own stream_batches.
        workloads = importlib.import_module("repro.serve.workloads")
        for value in list(vars(workloads).values()):
            if isinstance(value, type) and "stream_batches" in value.__dict__:
                patch(value, "stream_batches",
                      log.wrap_iter(STREAM_SPAN, value.__dict__["stream_batches"]))
        yield log
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
