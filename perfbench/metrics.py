"""Metric catalogue: names, units and directions.

``BENCHMARK.json`` lists the same metrics; a test keeps the two equal.
Every workload reports every metric.  Span metrics (``*_s`` taken from
the traced run) are self times: a span's duration minus what its
child spans cover, so with ``unattributed_s`` (the self time of each
operation's root span) they add up to the wall.
"""

from __future__ import annotations

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cfg_kinsn_per_s", "kinsn/s", "higher", 0.25),
    ("kinsn_per_s", "kinsn/s", "higher", 0.25),
    ("cpu_ms_per_kinsn", "ms/kinsn", "lower", 0.25),
    ("binary_ms_per_kinsn_p50", "ms/kinsn", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

#: (name, unit, better)
PER_LAYER = (
    ("binary.load_s", "s", "lower"),
    ("core.parse_s", "s", "lower"),
    ("core.finalize_s", "s", "lower"),
    ("core.noreturn.wave_s", "s", "lower"),
    ("core.insns", "count", "higher"),
    ("core.functions", "count", "higher"),
    ("core.blocks", "count", "higher"),
    ("runtime.shm.publish_s", "s", "lower"),
    ("runtime.shm.bytes", "bytes", "lower"),
    ("runtime.shm.fallback", "count", "lower"),
    ("runtime.procs.fanout_s", "s", "lower"),
    ("runtime.procs.coord_cpu_s", "s", "lower"),
    ("runtime.procs.worker_cpu_s", "s", "lower"),
    ("runtime.procs.idle_core_s", "s", "lower"),
    ("runtime.procs.admission_wait_s", "s", "lower"),
    ("runtime.procs.pool_fallback", "count", "lower"),
    ("runtime.procs.degraded", "count", "lower"),
    ("core.shard_merge.install_s", "s", "lower"),
    ("core.shard_merge.frontier_s", "s", "lower"),
    ("core.shard_merge.frontier_records", "count", "lower"),
    ("core.shard_merge.delta_bytes", "bytes", "lower"),
    ("core.shard_merge.useful_ratio", "ratio", "higher"),
    ("analyses.callgraph.build_s", "s", "lower"),
    ("analyses.interproc.snapshot_s", "s", "lower"),
    ("analyses.interproc.waves_s", "s", "lower"),
    ("analyses.interproc.sccs", "count", "higher"),
    ("analyses.interproc.waves", "count", "lower"),
    ("analyses.interproc.rounds", "count", "lower"),
    ("analyses.interproc.pool_units", "count", "higher"),
    ("analyses.interproc.pool_fallback", "count", "lower"),
    ("analyses.findings.write_s", "s", "lower"),
    ("analyses.findings.bytes", "bytes", "lower"),
    ("corpus.driver_s", "s", "lower"),
    ("corpus.synth_s", "s", "lower"),
    ("corpus.verify_parse_s", "s", "lower"),
    ("corpus.procs_parse_s", "s", "lower"),
    ("corpus.journal.flush_s", "s", "lower"),
    ("corpus.attempts", "count", "lower"),
    ("corpus.window_shrinks", "count", "lower"),
    ("corpus.quarantined", "count", "lower"),
    ("runtime.metrics.overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("unattributed_s", "s", "lower"),
)
