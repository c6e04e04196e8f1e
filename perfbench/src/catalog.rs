//! Every metric the benchmark prints, with its unit and, for the per-layer
//! metrics, the end-to-end metric and workload it should move. This table
//! and `BENCHMARK.json` must agree name for name and unit for unit; the
//! `contract` test checks it.

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// What the metric is, or for a layer: which end-to-end metric on which
    /// workload it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m(
        "inv_per_s",
        "inv/s",
        "higher",
        "simulated invocations replayed (eventlog: carried through the log pipeline) per host second",
    ),
    m(
        "setup_s",
        "s",
        "lower",
        "trace generation, workload resolution, policy construction, event capture",
    ),
    m("peak_rss_mb", "MB", "lower", "process VmHWM"),
];

const STREAM_SERVE: &str = "inv_per_s on stream, serve";
const POOL: &str = "inv_per_s on stream (large), sweep (slight); never eventlog";
const POLICY: &str = "inv_per_s on sweep; near zero on stream, serve";
const SRE: &str = "inv_per_s on sweep (capped: codecrunch ~11% of sweep wall)";
const LOG: &str = "log_mb_per_s and inv_per_s on eventlog only";
const SERVE: &str = "inv_per_s on serve only";

/// Per-layer metrics, printed by every traced run (0 where the workload
/// does not exercise the layer).
pub const PER_LAYER: &[MetricDef] = &[
    m("cc-trace.next_ns", "ns", "lower", STREAM_SERVE),
    m("cc-trace.build_ms", "ms", "lower", "setup_s on sweep"),
    m("cc-workload.resolve_ms", "ms", "lower", "setup_s on stream"),
    m(
        "cc-sim.engine_ns_per_inv",
        "ns",
        "lower",
        "inv_per_s on stream, serve (most), sweep (less); never eventlog",
    ),
    m("cc-sim.events", "count", "lower", STREAM_SERVE),
    m("cc-sim.ns_per_event", "ns", "lower", STREAM_SERVE),
    m("cc-sim.pool_insert", "count", "lower", POOL),
    m("cc-sim.pool_remove", "count", "lower", POOL),
    m("cc-sim.evictions_ranked", "count", "lower", POOL),
    m(
        "cc-sim.evictions_ranked_per_eviction",
        "rank/evict",
        "lower",
        POOL,
    ),
    m("cc-sim.candidate_probes", "count", "lower", POOL),
    m(
        "cc-sim.candidate_probes_per_arrival",
        "probe/arrival",
        "lower",
        POOL,
    ),
    m(
        "cc-sim.node_scan_probes_per_cold",
        "probe/cold",
        "lower",
        POOL,
    ),
    m("cc-sim.pool_admit_ms", "ms", "lower", POOL),
    m("cc-sim.pool_evict_ms", "ms", "lower", POOL),
    m("cc-sim.expiry_drain_ms", "ms", "lower", POOL),
    m(
        "cc-sim.parallel.send_block_ms",
        "ms",
        "lower",
        "inv_per_s on stream",
    ),
    m(
        "cc-sim.parallel.recv_block_ms",
        "ms",
        "lower",
        "inv_per_s on stream",
    ),
    m(
        "cc-sim.parallel.batches",
        "count",
        "lower",
        "inv_per_s on stream",
    ),
    m("cc-sim.fixed_keepalive.callback_ms", "ms", "lower", POLICY),
    m("cc-sim.fixed_keepalive.interval_ms", "ms", "lower", POLICY),
    m(
        "cc-sim.fixed_keepalive.calls_per_inv",
        "call/inv",
        "lower",
        POLICY,
    ),
    m("cc-policies.sitw.callback_ms", "ms", "lower", POLICY),
    m("cc-policies.sitw.interval_ms", "ms", "lower", POLICY),
    m(
        "cc-policies.sitw.calls_per_inv",
        "call/inv",
        "lower",
        POLICY,
    ),
    m("cc-policies.faascache.callback_ms", "ms", "lower", POLICY),
    m("cc-policies.faascache.interval_ms", "ms", "lower", POLICY),
    m(
        "cc-policies.faascache.calls_per_inv",
        "call/inv",
        "lower",
        POLICY,
    ),
    m("cc-policies.icebreaker.callback_ms", "ms", "lower", POLICY),
    m(
        "cc-policies.icebreaker.interval_ms",
        "ms",
        "lower",
        "inv_per_s on sweep (includes cc-fft)",
    ),
    m(
        "cc-policies.icebreaker.calls_per_inv",
        "call/inv",
        "lower",
        POLICY,
    ),
    m("cc-policies.oracle.callback_ms", "ms", "lower", POLICY),
    m("cc-policies.oracle.interval_ms", "ms", "lower", POLICY),
    m(
        "cc-policies.oracle.calls_per_inv",
        "call/inv",
        "lower",
        POLICY,
    ),
    m("core.codecrunch.callback_ms", "ms", "lower", POLICY),
    m("core.codecrunch.interval_ms", "ms", "lower", POLICY),
    m("core.codecrunch.calls_per_inv", "call/inv", "lower", POLICY),
    m("cc-opt.sre_rounds", "count", "lower", SRE),
    m("cc-opt.evaluations", "count", "lower", SRE),
    m("cc-opt.accepted_moves", "count", "higher", SRE),
    m("cc-opt.accepts_per_eval", "move/eval", "higher", SRE),
    m("cc-obs.encode_mb_per_s", "MB/s", "higher", LOG),
    m("cc-obs.bytes", "B", "lower", LOG),
    m("cc-replay.decode_mb_per_s", "MB/s", "higher", LOG),
    m("cc-replay.audit_mb_per_s", "MB/s", "higher", LOG),
    m("cc-replay.reconstruct_ms", "ms", "lower", LOG),
    m("cc-replay.events", "count", "lower", LOG),
    m("cc-bound.input_ms", "ms", "lower", LOG),
    m("cc-bound.dp_us_per_fn", "us/fn", "lower", LOG),
    m("cc-bound.dp_functions", "count", "lower", LOG),
    m(
        "cc-bound.gap_pct",
        "%",
        "lower",
        "simulated and deterministic: moves with policy changes only",
    ),
    m(
        "log_mb_per_s",
        "MB/s",
        "higher",
        "the eventlog pipeline end to end",
    ),
    m(
        "sim_service_s",
        "s",
        "lower",
        "simulated mean service time, deterministic per seed: moves with policy or model \
         changes only; unvalidated against the paper's testbed, no error figure",
    ),
    m("cc-serve.overhead_x", "x", "lower", SERVE),
    m("cc-serve.push_ns", "ns", "lower", SERVE),
    m("cc-serve.peak_depth", "count", "lower", SERVE),
    m("cc-serve.pushed", "count", "higher", SERVE),
    m("cc-serve.delivered", "count", "higher", SERVE),
    m(
        "trace_overhead_frac",
        "ratio",
        "lower",
        "traced against untraced throughput on the same workload",
    ),
    m(
        "work_count_mismatches",
        "count",
        "lower",
        "exact work counts that differed between two traced runs",
    ),
];

/// Looks a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
