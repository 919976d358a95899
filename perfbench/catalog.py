"""Every metric the benchmark emits: name, unit, direction, and for the
per-layer ones which end-to-end metric they should move, on which
workload.  ``BENCHMARK.json`` lists the same names and units; the
self-test (``perfbench/selftest.py``) checks that the two agree and that
a run emits exactly these.
"""

from __future__ import annotations

from typing import Tuple

#: ``(name, unit, better)`` — measured with tracing off.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("placement_cost", "cost", "lower"),
    ("placement_gini", "gini", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``(name, unit, better, moves, on)`` — measured in the traced run.
#: Times and counts are per operation (mean over the traced round).
PER_LAYER: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("core.dual_ascent.s", "s", "lower", "op_s",
     "appx; adapt lightly; no change on dist/serve"),
    ("core.dual_ascent.calls", "count", "lower", "op_s", "appx, adapt"),
    ("dual_ascent.rounds", "count", "lower", "op_s", "appx, adapt"),
    ("dual_ascent.tight_events", "count", "lower", "op_s", "appx, adapt"),
    ("dual_ascent.event_loops", "count", "lower", "op_s", "appx, adapt"),
    ("core.build_confl_instance.s", "s", "lower", "op_s",
     "appx; adapt (write path)"),
    ("costs.row_builds", "count", "lower", "op_s", "appx, adapt"),
    ("costs.row_cache_hits", "count", "higher", "op_s", "appx, adapt"),
    ("costs.incremental_patches", "count", "lower", "op_s", "appx, adapt"),
    ("costs.full_rebuilds", "count", "lower", "op_s", "appx, adapt"),
    ("core.commit_chunk.s", "s", "lower", "op_s", "appx, dist"),
    ("graphs.steiner_tree.s", "s", "lower", "op_s", "appx, dist"),
    ("graphs.steiner_tree.calls", "count", "lower", "op_s", "appx, dist"),
    ("distributed.chunk_session.s", "s", "lower", "op_s", "dist only"),
    ("distributed.sim_events", "count", "lower", "op_s", "dist only"),
    ("distributed.s_per_event", "s", "lower", "op_s", "dist only"),
    ("protocol.messages", "count", "lower", "op_s", "dist"),
    ("protocol.drops", "count", "lower", "op_s", "dist"),
    ("protocol.retx.attempts", "count", "lower", "op_s", "dist"),
    ("protocol.dups", "count", "lower", "op_s", "dist"),
    ("protocol.retx_ratio", "ratio", "lower", "op_s", "dist"),
    ("serve.stream_batches.s", "s", "lower", "op_best_s, peak_rss_mb",
     "serve, adapt"),
    ("serve.generated", "count", "lower", "op_s", "serve, adapt"),
    ("serve.engine.s", "s", "lower", "op_best_s, peak_rss_mb", "serve, adapt"),
    ("serve.req_per_s", "1/s", "higher", "op_s", "serve, adapt"),
    ("serve.batch.batches", "count", "lower", "op_s", "serve, adapt"),
    ("serve.batch.heap_peak", "count", "lower", "peak_rss_mb",
     "serve, adapt"),
    ("serve.table_entries_per_req", "ratio", "lower", "op_s",
     "serve, adapt"),
    ("serve.served_per_generated", "ratio", "higher", "op_s", "adapt"),
    ("serve.timeouts_sim", "count", "lower", "none (modelled)", "serve"),
    ("serve.latency_p99_sim_s", "s", "lower", "none (modelled)", "serve"),
    ("online.reoptimize_chunk.s", "s", "lower", "op_s", "adapt"),
    ("online.reoptimize_chunk.calls", "count", "lower", "op_s", "adapt"),
    ("adaptive.bootstrap_solve.s", "s", "lower", "op_s", "adapt"),
    ("adaptive.serve_epoch.s", "s", "lower", "op_s", "adapt"),
    ("adaptive.self.s", "s", "lower", "op_s", "adapt"),
    ("adaptive.moves_accept_ratio", "ratio", "higher", "op_s", "adapt"),
    ("adaptive.resolves", "count", "lower", "op_s", "adapt"),
    ("adaptive.resolves_reverted", "count", "lower", "op_s", "adapt"),
    ("adaptive.savings", "cost", "higher", "none (outcome)", "adapt"),
    ("unattributed.s", "s", "lower", "n/a (coverage check)", "all"),
    ("trace.overhead", "ratio", "lower", "n/a (traced/untraced median)",
     "all"),
    ("core.dual_ascent.exp", "exponent", "lower", "op_s",
     "scaling ladder (appx n=100,200,300)"),
    ("core.build_confl_instance.exp", "exponent", "lower", "op_s",
     "scaling ladder (appx n=100,200,300)"),
    ("core.commit_chunk.exp", "exponent", "lower", "op_s",
     "scaling ladder (appx n=100,200,300)"),
)
