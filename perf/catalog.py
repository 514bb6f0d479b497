"""The benchmark's metric catalog: the single source ``BENCHMARK.json`` mirrors.

``END_TO_END`` rows are ``(name, unit, better, bound)``; ``bound`` is the
share of the parent commit's median by which the metric may get worse before
a change counts as a regression (measured spreads are in ``perf/README.md``).

``PER_LAYER`` rows are ``(name, unit, better, moves)``: ``moves`` names the
end-to-end metric and workload the layer metric is predicted to move — on
every other workload the prediction is *no change*.  A traced run reports
every per-layer metric; one the workload never exercises reads 0.
"""

from __future__ import annotations

WORKLOADS = (
    "select_mix",
    "join_mix",
    "algebra_dash",
    "shard_rw",
    "stream_ticks",
    "durable_ingest",
)

#: Layers are the packages under ``src/repro``; ``share.<layer>`` is the part
#: of sampled op wall time the traced run attributes to each.
LAYERS = (
    "storage",
    "index",
    "kernels",
    "locality",
    "operators",
    "core",
    "planner",
    "query",
    "algebra",
    "engine",
    "shard",
    "stream",
    "durable",
    "obs",
)

END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.20),
)

_P50 = "latency_p50_ms"
_P95 = "latency_p95_ms"
_TPS = "throughput_ops_s"
_SETUP = "setup_s"

PER_LAYER = (
    # storage
    ("storage.apply_update_ms", "ms", "lower", f"{_P50} on stream_ticks, durable_ingest"),
    ("storage.rows_per_update", "rows", "lower", "context for storage.apply_update_ms"),
    # index
    ("index.build_ms", "ms", "lower", f"{_SETUP} everywhere"),
    ("index.stats_ms", "ms", "lower", f"{_SETUP} everywhere"),
    ("index.repair_ms", "ms", "lower", f"{_P95} on stream_ticks, shard_rw"),
    ("index.repair_fallback_ratio", "ratio", "lower", f"{_P95} on stream_ticks, shard_rw"),
    # kernels
    ("kernels.knn_head_us", "us", "lower", f"{_TPS} on join_mix"),
    ("kernels.block_matrices_us", "us", "lower", f"{_TPS} on join_mix"),
    ("kernels.point_block_mindists_us", "us", "lower", f"{_TPS} on join_mix"),
    ("kernels.point_block_maxdists_us", "us", "lower", f"{_P50} on select_mix"),
    ("kernels.merge_topk_us", "us", "lower", f"{_P50} on shard_rw"),
    ("kernels.window_mask_us", "us", "lower", f"{_P50} on stream_ticks"),
    ("kernels.ball_mask_us", "us", "lower", f"{_P50} on stream_ticks"),
    ("kernels.dispatches_per_op", "count", "lower", f"{_TPS} on the workload it is reported for"),
    # locality
    ("locality.get_knn_us", "us", "lower", f"{_P50} on select_mix"),
    ("locality.blocks_per_knn", "count", "lower", f"{_P50} on select_mix"),
    ("locality.get_knn_batch_ms", "ms", "lower", f"{_TPS} on join_mix"),
    # operators
    ("operators.knn_join_ms", "ms", "lower", f"{_TPS} on join_mix"),
    ("operators.range_select_us", "us", "lower", f"{_TPS} on join_mix, algebra_dash"),
    ("operators.intersect_us", "us", "lower", f"{_P50} on select_mix"),
    ("operators.merge_pairs_ms", "ms", "lower", f"{_P50} on shard_rw"),
    # core (direct calls, no engine)
    ("core.two_selects_us", "us", "lower", f"{_P50} on select_mix"),
    ("core.counting_ms", "ms", "lower", f"{_TPS} on join_mix"),
    ("core.block_marking_ms", "ms", "lower", f"{_TPS} on join_mix"),
    ("core.outer_pushdown_ms", "ms", "lower", f"{_TPS} on join_mix"),
    ("core.range_inner_bm_ms", "ms", "lower", f"{_TPS} on join_mix"),
    ("core.chained_nested_ms", "ms", "lower", f"{_TPS} on join_mix"),
    ("core.unchained_bm_ms", "ms", "lower", f"{_TPS} on join_mix"),
    # planner
    ("planner.plan_cold_ms", "ms", "lower", f"{_SETUP} on read workloads; {_P95} on shard_rw"),
    ("planner.plan_warm_us", "us", "lower", f"{_P50} on select_mix"),
    ("planner.plan_cache_hit_ratio", "ratio", "higher", f"{_P95} on shard_rw"),
    ("planner.demotions_per_1k_ops", "count", "lower", f"{_P95} on shard_rw"),
    ("planner.mispredictions_per_1k_ops", "count", "lower", f"{_P95} on shard_rw"),
    # query: per-class split of select_mix / join_mix op timings
    ("query.two-selects.p50_ms", "ms", "lower", f"{_P50} on select_mix"),
    ("query.range-and-knn-select.p50_ms", "ms", "lower", f"{_P50} on select_mix"),
    ("query.select-inner-of-join.p50_ms", "ms", "lower", f"{_TPS} on join_mix"),
    ("query.select-outer-of-join.p50_ms", "ms", "lower", f"{_TPS} on join_mix"),
    ("query.range-inner-of-join.p50_ms", "ms", "lower", f"{_TPS} on join_mix"),
    ("query.chained-joins.p50_ms", "ms", "lower", f"{_TPS} on join_mix"),
    ("query.unchained-joins.p50_ms", "ms", "lower", f"{_TPS} on join_mix"),
    ("query.signature_us", "us", "lower", f"{_P50} on select_mix"),
    ("query.result_rows_per_op", "rows", "lower", "context for the per-class timings"),
    # algebra
    ("algebra.rewrite_us", "us", "lower", f"{_P50} on algebra_dash"),
    ("algebra.compile_us", "us", "lower", f"{_SETUP} on algebra_dash"),
    ("algebra.evaluate_ms", "ms", "lower", f"{_P50}, {_TPS} on algebra_dash"),
    ("algebra.rows_scanned_per_row_out", "ratio", "lower", f"{_TPS} on algebra_dash"),
    ("algebra.hotspot-topk.p50_ms", "ms", "lower", f"{_P50} on algebra_dash"),
    ("algebra.density-grid.p50_ms", "ms", "lower", f"{_P50} on algebra_dash"),
    ("algebra.region-rollup.p50_ms", "ms", "lower", f"{_P50} on algebra_dash"),
    ("algebra.join-aggregate.p50_ms", "ms", "lower", f"{_P95} on algebra_dash"),
    ("algebra.filter-chain.p50_ms", "ms", "lower", f"{_P50} on algebra_dash"),
    # engine
    ("engine.fixed_overhead_us", "us", "lower", f"{_P50} on select_mix; invisible on join_mix"),
    ("engine.run_minus_core_ms", "ms", "lower", f"{_P50} on select_mix; invisible on join_mix"),
    ("engine.register_ms", "ms", "lower", f"{_SETUP} everywhere"),
    ("engine.rows_scanned_per_op", "rows", "lower", f"{_TPS} on join_mix"),
    ("engine.candidates_pruned_per_op", "rows", "higher", f"{_TPS} on join_mix"),
    # shard
    ("shard.register_ms", "ms", "lower", f"{_SETUP} on shard_rw"),
    ("shard.publish_segment_ms", "ms", "lower", f"{_P50} of writes on shard_rw"),
    ("shard.attach_segment_ms", "ms", "lower", f"{_P95} on shard_rw (read after write)"),
    ("shard.segment_bytes", "bytes", "lower", "context for publish/attach"),
    ("shard.pool_roundtrip_ms", "ms", "lower", f"{_P50} on shard_rw"),
    ("shard.sharded_knn_us", "us", "lower", f"{_P50} on shard_rw"),
    ("shard.sharded_knn_batch_ms", "ms", "lower", f"{_P95} on shard_rw"),
    ("shard.tasks_per_query", "count", "lower", f"{_P50}, cpu_ms_per_op on shard_rw"),
    ("shard.stale_retries", "count", "lower", f"{_P95} on shard_rw"),
    ("shard.pool_respawns", "count", "lower", f"{_P95} on shard_rw"),
    ("shard.fanout_span_ms", "ms", "lower", f"{_P50} on shard_rw"),
    ("shard.task_span_sum_ms", "ms", "lower", "cpu_ms_per_op on shard_rw"),
    ("shard.straggler_ratio", "ratio", "lower", f"{_P95} on shard_rw"),
    ("shard.read_after_write_ms", "ms", "lower", f"{_P95} on shard_rw"),
    ("shard.read_steady_ms", "ms", "lower", f"{_P50} on shard_rw"),
    ("shard.process_vs_serial_ratio", "ratio", "lower", f"{_TPS} on shard_rw"),
    # stream
    ("stream.subscribe_ms", "ms", "lower", f"{_SETUP} on stream_ticks"),
    ("stream.skip_ratio", "ratio", "higher", f"{_P50} on stream_ticks"),
    ("stream.local_repair_ratio", "ratio", "higher", f"{_P50} on stream_ticks"),
    ("stream.refresh_ratio", "ratio", "lower", f"{_P95} on stream_ticks"),
    ("stream.guard_violations_per_push", "count", "lower", f"{_P95} on stream_ticks"),
    ("stream.delta_rows_per_push", "rows", "lower", "context for the maintenance cost"),
    ("stream.apply_span_ms", "ms", "lower", f"{_P50} on stream_ticks"),
    ("stream.maintain_span_ms", "ms", "lower", f"{_P50}, {_P95} on stream_ticks"),
    # durable
    ("durable.encode_us", "us", "lower", f"{_P50} on durable_ingest"),
    ("durable.decode_us", "us", "lower", f"{_SETUP} on durable_ingest"),
    ("durable.wal_append_ms", "ms", "lower", f"{_P50} on durable_ingest"),
    ("durable.push_minus_apply_ms", "ms", "lower", f"{_P50} on durable_ingest"),
    ("durable.checkpoint_ms", "ms", "lower", f"{_P95} on durable_ingest"),
    ("durable.write_segment_ms", "ms", "lower", f"{_P95} on durable_ingest"),
    ("durable.load_segment_ms", "ms", "lower", f"{_SETUP} on durable_ingest"),
    ("durable.replay_ms_per_batch", "ms", "lower", f"{_SETUP} on durable_ingest"),
    ("durable.wal_bytes_per_update", "bytes", "lower", f"{_P50} on durable_ingest"),
    ("durable.write_amp", "ratio", "lower", f"{_TPS} on durable_ingest"),
    # obs
    ("obs.enabled_vs_disabled_ratio", "ratio", "lower", f"{_P50} on select_mix"),
    ("obs.snapshot_ms", "ms", "lower", "none (monitoring path only)"),
    ("obs.probe_overhead_ratio", "ratio", "lower", "none (cost of the benchmark's own tracing)"),
    # the benchmark's own input cost, kept out of setup_s
    ("datagen.generate_s", "s", "lower", "none (benchmark input cost)"),
) + tuple(
    (f"share.{layer}", "ratio", "lower", "share of sampled op wall time in this layer")
    for layer in LAYERS
) + (("unattributed_share", "ratio", "lower", "op wall time no span accounts for"),)


def benchmark_json(whys: dict[str, str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document this catalog stands for."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": whys[name]} for name in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in PER_LAYER
        ],
    }
