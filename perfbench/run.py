"""Same-host benchmark of Alg. 1, Alg. 2 under faults, serving and the
adaptive loop.

Run from the root of a checkout::

    python3 perfbench/run.py --workload appx-rgg100 --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one untraced and one traced round over the same
instances, checks that their outputs are byte-identical,
reports the per-layer metrics, the tracing overhead and a scaling ladder,
and writes the spans to ``.perfbench/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Exit
code 0 when every output check passed, 1 when one failed, 2 when the
program cannot be imported from ``src/`` or the arguments are bad.

Single process, no threads.  ``perfbench/README.md`` explains the
workloads and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

#: Scaling-ladder sizes (Alg. 1, 5 chunks, capacity 5) and the layers
#: whose self time gets a fitted exponent.
LADDER_NODES = (100, 200, 300)
TOY_LADDER_NODES = (8, 12, 16)
LADDER_LAYERS = (
    "core.dual_ascent", "core.build_confl_instance", "core.commit_chunk",
)

#: Roughly the reference loop's fastest time on the 2-vCPU host the
#: benchmark was tuned on.  Untraced timings are scaled to the speed at
#: which the loop takes this long (see ``measure``).
REFERENCE_S = 0.02

_clock = time.perf_counter


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true",
        help="tiny instances (the self-test's shape; not a measurement)",
    )
    return parser.parse_args(argv)


def import_program() -> bool:
    """Put the checkout's ``src`` and the benchmark package on the path."""
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return False
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return False
    return True


def timed_round(workload, instances) -> Tuple[List[float], List]:
    """One call per instance: op seconds and checked outcomes."""
    times, outcomes = [], []
    for instance in instances:
        gc.collect()
        start = _clock()
        raw = workload.call(instance)
        times.append(_clock() - start)
        outcomes.append(workload.outcome(instance, raw))
        del raw
    return times, outcomes


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fit_exponent(sizes: Sequence[int], seconds: Sequence[float]) -> float:
    """Least-squares slope of log(seconds) on log(size)."""
    points = [(math.log(n), math.log(t)) for n, t in zip(sizes, seconds)
              if t > 0]
    if len(points) < 2:
        return 0.0
    mx = mean([x for x, _ in points])
    my = mean([y for _, y in points])
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return ratio(sxy, sxx)


class Checks:
    """Attempted / failed operations and the output checks' verdict."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, outcomes) -> None:
        for outcome in outcomes:
            self.attempted += outcome.attempted
            self.failed += outcome.failed

    def same(self, label: str, expected, actual) -> None:
        """Outputs of two calls on one instance must be byte-identical."""
        for index, (a, b) in enumerate(zip(expected, actual)):
            if a.digest != b.digest:
                self.problems.append(f"{label}: instance {index} differs")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def reference_loop() -> None:
    """Fixed pure-Python work (heap, dict, tuples); no ``repro`` code."""
    rng = random.Random(7)
    heap: List[Tuple[float, int, int]] = []
    counts: Dict[int, int] = {}
    for i in range(15_000):
        key = rng.randrange(5_000)
        heapq.heappush(heap, (rng.random(), key, i))
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 2_000:
            counts[heapq.heappop(heap)[1]] -= 1


@dataclass
class Measurement:
    """Samples of one untraced run."""

    setup: List[float]
    setup_reference: List[float]  # the loop before each set-up's round
    ops: List[List[float]]  # per instance, one per round
    reference: List[List[float]]  # the loop just before each op
    outcomes: List  # the first round's

    def op_seconds(self) -> float:
        """Mean over instances of the median over rounds of each op's
        seconds, scaled by ``REFERENCE_S`` over the reference loop timed
        just before it."""
        return mean([
            statistics.median(op * REFERENCE_S / ref
                              for op, ref in zip(ops, refs))
            for ops, refs in zip(self.ops, self.reference)
        ])

    def setup_seconds(self) -> float:
        """Median over every set-up of its seconds, scaled by
        ``REFERENCE_S`` over the reference loop timed before its round."""
        return statistics.median(
            setup * REFERENCE_S / ref
            for setup, ref in zip(self.setup, self.setup_reference))


def measure(workload, seeds, size, seconds: float,
            checks: Checks) -> Measurement:
    """Rounds until ``seconds`` is used up: the first round is always
    whole, a later one stops at the deadline.

    A round times the reference loop, sets every instance up afresh
    (timed as set-up), then calls each once, with the reference loop
    timed just before every call.

    On a shared host a call can run up to 2x slower, in spells from
    milliseconds to minutes, and the reference loop slows with it.  The
    ratio of a short call to the loop timed next to it cancels most of
    a spell; the median over rounds drops the rest.  On one noisy
    stretch, over six seeds of the serve workload, the median seconds
    per call spread 0.35 (quartile distance / median) unscaled and 0.04
    scaled this way.
    """
    run = Measurement([], [], [[] for _ in seeds], [[] for _ in seeds], [])
    start = _clock()
    while True:
        gc.collect()
        begin = _clock()
        reference_loop()
        reference = _clock() - begin
        instances = []
        for seed in seeds:
            gc.collect()
            begin = _clock()
            instances.append(workload.setup(seed, size))
            run.setup.append(_clock() - begin)
            run.setup_reference.append(reference)
        outcomes = []
        for ops, refs, instance in zip(run.ops, run.reference, instances):
            if run.outcomes and _clock() - start >= seconds:
                break
            gc.collect()
            begin = _clock()
            reference_loop()
            refs.append(_clock() - begin)
            begin = _clock()
            raw = workload.call(instance)
            ops.append(_clock() - begin)
            outcomes.append(workload.outcome(instance, raw))
            del raw
        checks.add(outcomes)
        if run.outcomes:
            checks.same("repeat round", run.outcomes, outcomes)
        else:
            run.outcomes = outcomes
        if _clock() - start >= seconds:
            return run


def percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def traced(workload, instances, checks: Checks):
    """One untraced and one traced round; spans, counters, outcomes."""
    from perfbench.spans import SpanLog, installed
    from repro.obs import Recorder, use_recorder

    base_times, base = timed_round(workload, instances)
    checks.add(base)
    log, recorder = SpanLog(), Recorder()
    times, raws, ops = [], [], []
    with installed(log), use_recorder(recorder):
        for instance in instances:
            gc.collect()
            mark = log.mark()
            start = _clock()
            raws.append(workload.call(instance))
            elapsed = _clock() - start
            times.append(elapsed)
            ops.append((mark, log.mark(), elapsed))
    outcomes = [workload.outcome(i, raw) for i, raw in zip(instances, raws)]
    del raws
    checks.add(outcomes)
    checks.same("traced vs untraced", base, outcomes)
    return base_times, times, outcomes, log, recorder, ops


def ladder(seed: int, toy: bool, checks: Checks):
    """Traced Alg. 1 at increasing sizes: per-layer self seconds per n."""
    from perfbench.spans import SpanLog, aggregate, installed
    from perfbench.workloads import APPX, instance_seeds

    sizes = TOY_LADDER_NODES if toy else LADDER_NODES
    base = APPX.toy if toy else APPX.size
    per_layer: Dict[str, List[float]] = {name: [] for name in LADDER_LAYERS}
    logs = []
    for nodes, ladder_seed in zip(sizes, instance_seeds(seed + 1, len(sizes))):
        problem = APPX.setup(ladder_seed, replace(base, nodes=nodes))
        log = SpanLog()
        gc.collect()
        with installed(log):
            placement = APPX.call(problem)
        checks.add([APPX.outcome(problem, placement)])
        layers = aggregate(log.spans)
        for name in LADDER_LAYERS:
            layer = layers.get(name)
            per_layer[name].append(layer.self_time if layer else 0.0)
        logs.append({"nodes": nodes, "spans": log.spans})
    exponents = {
        f"{name}.exp": fit_exponent(sizes, seconds)
        for name, seconds in per_layer.items()
    }
    return exponents, per_layer, logs


def layer_metrics(log, recorder, ops, outcomes, base_times, times,
                  exponents) -> Dict[str, float]:
    from perfbench.spans import STREAM_SPAN, aggregate

    k = len(ops)
    layers = aggregate(log.spans)
    counter = recorder.counter

    def self_s(name: str) -> float:
        layer = layers.get(name)
        return layer.self_time / k if layer else 0.0

    def total_s(name: str) -> float:
        layer = layers.get(name)
        return layer.total / k if layer else 0.0

    def calls(name: str) -> float:
        layer = layers.get(name)
        return layer.calls / k if layer else 0.0

    def per_op(name: str) -> float:
        return counter(name) / k

    def extra(name: str) -> float:
        return mean([o.extras.get(name, 0.0) for o in outcomes])

    heap = recorder.dump()["gauges"].get("serve.batch.heap_peak")
    generated = log.items.get(STREAM_SPAN, 0)
    session = layers.get("distributed.chunk_session")
    return {
        "core.dual_ascent.s": self_s("core.dual_ascent"),
        "core.dual_ascent.calls": calls("core.dual_ascent"),
        "dual_ascent.rounds": per_op("dual_ascent.rounds"),
        "dual_ascent.tight_events": per_op("dual_ascent.tight_events"),
        "dual_ascent.event_loops": per_op("dual_ascent.event_loops"),
        "core.build_confl_instance.s": self_s("core.build_confl_instance"),
        "costs.row_builds": per_op("costs.row_builds"),
        "costs.row_cache_hits": per_op("costs.row_cache_hits"),
        "costs.incremental_patches": per_op("costs.incremental_patches"),
        "costs.full_rebuilds": per_op("costs.full_rebuilds"),
        "core.commit_chunk.s": self_s("core.commit_chunk"),
        "graphs.steiner_tree.s": self_s("graphs.steiner_tree"),
        "graphs.steiner_tree.calls": calls("graphs.steiner_tree"),
        "distributed.chunk_session.s": self_s("distributed.chunk_session"),
        "distributed.sim_events": per_op("sim.events"),
        "distributed.s_per_event": ratio(
            session.total if session else 0.0, counter("sim.events")),
        "protocol.messages": per_op("dist.messages.total"),
        "protocol.drops": per_op("protocol.drops"),
        "protocol.retx.attempts": per_op("protocol.retx.attempts"),
        "protocol.dups": per_op("protocol.dups"),
        "protocol.retx_ratio": ratio(
            counter("protocol.retx.attempts"),
            counter("dist.messages.total")),
        "serve.stream_batches.s": self_s(STREAM_SPAN),
        "serve.generated": generated / k,
        "serve.engine.s": self_s("serve.engine"),
        "serve.req_per_s": ratio(
            counter("serve.requests"), total_s("serve.engine") * k),
        "serve.batch.batches": per_op("serve.batch.batches"),
        "serve.batch.heap_peak": float(heap["max"]) if heap else 0.0,
        "serve.table_entries_per_req": ratio(
            counter("serve.batch.table_entries"),
            counter("serve.batch.requests")),
        "serve.served_per_generated": ratio(
            counter("serve.requests"), generated),
        "serve.timeouts_sim": per_op("serve.timeouts"),
        "serve.latency_p99_sim_s": extra("latency_p99_sim_s"),
        "online.reoptimize_chunk.s": self_s("online.reoptimize_chunk"),
        "online.reoptimize_chunk.calls": calls("online.reoptimize_chunk"),
        "adaptive.bootstrap_solve.s": total_s("adaptive.bootstrap_solve"),
        "adaptive.serve_epoch.s": total_s("adaptive.serve_epoch"),
        "adaptive.self.s": self_s("adaptive.run"),
        "adaptive.moves_accept_ratio": ratio(
            counter("adaptive.moves_accepted"),
            counter("adaptive.moves_considered")),
        "adaptive.resolves": per_op("adaptive.resolves"),
        "adaptive.resolves_reverted": per_op("adaptive.resolves_reverted"),
        "adaptive.savings": extra("savings"),
        "unattributed.s": mean([
            elapsed - log.top_level_seconds(start, stop)
            for start, stop, elapsed in ops
        ]),
        "trace.overhead": ratio(
            statistics.median(times), statistics.median(base_times)),
        **exponents,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(checks: Checks, values: Dict[str, float], catalog) -> None:
    units = {entry[0]: entry[1] for entry in catalog}
    if set(values) != set(units):
        raise RuntimeError(
            f"metric set differs from the catalog: "
            f"{sorted(set(values) ^ set(units))}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name, *_ in catalog
        },
    }))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not import_program():
        return 2
    from perfbench.catalog import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS, instance_seeds

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    size = workload.toy if args.toy else workload.size

    seeds = instance_seeds(args.seed, size.instances)
    checks = Checks()
    if not args.trace:
        run = measure(workload, seeds, size, args.seconds, checks)
        times = [t for samples in run.ops for t in samples]
        refs = [t for samples in run.reference for t in samples]
        print(f"perfbench: {workload.name} seed {args.seed}: "
              f"{len(seeds)} instances, {len(times)} ops "
              f"({len(run.ops[-1])}-{len(run.ops[0])} per instance); "
              f"unscaled s/op median "
              f"{statistics.median(times):.4f}, p90 "
              f"{percentile(times, 0.9):.4f}; unscaled set-up median "
              f"{statistics.median(run.setup):.4f} s over "
              f"{len(run.setup)}; reference loop median "
              f"{statistics.median(refs):.4f} s")
        outcomes = run.outcomes
        values = {
            "setup_s": run.setup_seconds(),
            "op_s": run.op_seconds(),
            "placement_cost": mean([o.cost for o in outcomes]),
            "placement_gini": mean([o.gini for o in outcomes]),
            "peak_rss_mb": peak_rss_mb(),
        }
        catalog = END_TO_END
    else:
        instances = [workload.setup(seed, size) for seed in seeds]
        base_times, times, outcomes, log, recorder, ops = traced(
            workload, instances, checks)
        exponents, ladder_seconds, ladder_logs = ladder(
            args.seed, args.toy, checks)
        values = layer_metrics(log, recorder, ops, outcomes, base_times,
                               times, exponents)
        print(f"perfbench: {workload.name} seed {args.seed}: tracing "
              f"overhead: untraced median {statistics.median(base_times):.4f}"
              f" s/op, traced median {statistics.median(times):.4f} s/op "
              f"over {len(times)} ops; unattributed "
              f"{values['unattributed.s']:.4f} s/op")
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "columns": ["name", "start", "end", "parent"],
            "ops": [list(op) for op in ops],
            "spans": log.spans,
            "ladder": ladder_logs,
            "ladder_self_seconds": ladder_seconds,
        }))
        catalog = PER_LAYER
    for problem in checks.problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    emit(checks, values, catalog)
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
