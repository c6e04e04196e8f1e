//! Engine-layer metrics of traced replays, read from the cc-prof phase
//! table and counters, the report, and the probes' own timings.

use cc_prof::{PerfCounter, Phase, SelfProfile};
use cc_sim::SimReport;
use cc_types::StartKind;

use crate::probe::{PolicyStats, PullStats};
use crate::{ms, ratio, Values, WorkCounts};

/// Engine work and host time of one or more traced replays, summed.
#[derive(Debug, Default)]
pub(crate) struct EngineTally {
    wall_ns: u64,
    policy_ns: u64,
    /// Source pulls made on the decision thread (subtracted from its wall).
    decision_pull_ns: u64,
    pulls: PullStats,
    invocations: u64,
    colds: u64,
    evictions: u64,
    counters: [u64; PerfCounter::COUNT],
    phase_counts: [u64; Phase::COUNT],
    phase_self_ns: [u64; Phase::COUNT],
}

impl EngineTally {
    /// Adds one replay. `pulls_on_decision_thread` is false where a
    /// prefetch thread pulls the source (`run_parallel`), so the pulls
    /// overlap the decision thread instead of blocking it.
    pub(crate) fn add(
        &mut self,
        profile: &SelfProfile,
        report: &SimReport,
        wall_ns: u64,
        policy: &PolicyStats,
        pulls: &PullStats,
        pulls_on_decision_thread: bool,
    ) {
        self.wall_ns += wall_ns;
        self.policy_ns += policy.callback_ns + policy.interval_ns;
        if pulls_on_decision_thread {
            self.decision_pull_ns += pulls.pull_ns;
        }
        self.pulls.pulls += pulls.pulls;
        self.pulls.pull_ns += pulls.pull_ns;
        self.invocations += report.stats.invocations();
        self.colds += report.stats.breakdown(StartKind::Cold).count;
        self.evictions += report.evictions;
        for (counter, value) in &profile.counters {
            self.counters[counter.index()] += value;
        }
        for row in &profile.phases {
            self.phase_counts[row.phase.index()] += row.count;
            self.phase_self_ns[row.phase.index()] += row.self_ns;
        }
    }

    fn counter(&self, c: PerfCounter) -> u64 {
        self.counters[c.index()]
    }

    /// Engine events: arrivals, completions and ticks (phase counts) plus
    /// keep-alive expirations (drained one by one from the pool calendar).
    fn events(&self) -> u64 {
        self.phase_counts[Phase::Arrival.index()]
            + self.phase_counts[Phase::Completion.index()]
            + self.phase_counts[Phase::Tick.index()]
            + self.counter(PerfCounter::ExpiryDrained)
    }

    /// Writes the engine, pool, pipeline and source layers into `values`.
    pub(crate) fn layers(&self, values: &mut Values) {
        let engine_ns = self
            .wall_ns
            .saturating_sub(self.policy_ns + self.decision_pull_ns) as f64;
        let events = self.events();
        let self_ms = |p: Phase| ms(self.phase_self_ns[p.index()]);
        let c = |p: PerfCounter| self.counter(p) as f64;
        let arrivals = self.phase_counts[Phase::Arrival.index()] as f64;
        values.extend([
            (
                "cc-trace.next_ns",
                ratio(self.pulls.pull_ns as f64, self.pulls.pulls as f64),
            ),
            (
                "cc-sim.engine_ns_per_inv",
                ratio(engine_ns, self.invocations as f64),
            ),
            ("cc-sim.events", events as f64),
            ("cc-sim.ns_per_event", ratio(engine_ns, events as f64)),
            ("cc-sim.pool_insert", c(PerfCounter::PoolInsert)),
            ("cc-sim.pool_remove", c(PerfCounter::PoolRemove)),
            ("cc-sim.evictions_ranked", c(PerfCounter::EvictionsRanked)),
            (
                "cc-sim.evictions_ranked_per_eviction",
                ratio(c(PerfCounter::EvictionsRanked), self.evictions as f64),
            ),
            ("cc-sim.candidate_probes", c(PerfCounter::CandidateProbes)),
            (
                "cc-sim.candidate_probes_per_arrival",
                ratio(c(PerfCounter::CandidateProbes), arrivals),
            ),
            (
                "cc-sim.node_scan_probes_per_cold",
                ratio(c(PerfCounter::NodeScanProbes), self.colds as f64),
            ),
            ("cc-sim.pool_admit_ms", self_ms(Phase::PoolAdmit)),
            ("cc-sim.pool_evict_ms", self_ms(Phase::PoolEvict)),
            ("cc-sim.expiry_drain_ms", self_ms(Phase::ExpiryDrain)),
            (
                "cc-sim.parallel.send_block_ms",
                ms(self.counter(PerfCounter::ChannelSendBlockNs)),
            ),
            (
                "cc-sim.parallel.recv_block_ms",
                ms(self.counter(PerfCounter::ChannelRecvBlockNs)),
            ),
        ]);
    }

    /// The engine's exact work counts.
    pub(crate) fn counts(&self) -> WorkCounts {
        vec![
            ("events", self.events()),
            ("pool_insert", self.counter(PerfCounter::PoolInsert)),
            ("pool_remove", self.counter(PerfCounter::PoolRemove)),
            (
                "evictions_ranked",
                self.counter(PerfCounter::EvictionsRanked),
            ),
            (
                "candidate_probes",
                self.counter(PerfCounter::CandidateProbes),
            ),
            (
                "node_scan_probes",
                self.counter(PerfCounter::NodeScanProbes),
            ),
            ("source_pulls", self.pulls.pulls),
        ]
    }
}

/// Policy-layer metric names, in sweep order: (callback_ms, interval_ms,
/// calls_per_inv).
const POLICY_METRICS: [[&str; 3]; 6] = [
    [
        "cc-sim.fixed_keepalive.callback_ms",
        "cc-sim.fixed_keepalive.interval_ms",
        "cc-sim.fixed_keepalive.calls_per_inv",
    ],
    [
        "cc-policies.sitw.callback_ms",
        "cc-policies.sitw.interval_ms",
        "cc-policies.sitw.calls_per_inv",
    ],
    [
        "cc-policies.faascache.callback_ms",
        "cc-policies.faascache.interval_ms",
        "cc-policies.faascache.calls_per_inv",
    ],
    [
        "cc-policies.icebreaker.callback_ms",
        "cc-policies.icebreaker.interval_ms",
        "cc-policies.icebreaker.calls_per_inv",
    ],
    [
        "cc-policies.oracle.callback_ms",
        "cc-policies.oracle.interval_ms",
        "cc-policies.oracle.calls_per_inv",
    ],
    [
        "core.codecrunch.callback_ms",
        "core.codecrunch.interval_ms",
        "core.codecrunch.calls_per_inv",
    ],
];

/// Index of fixed_keepalive in [`POLICY_METRICS`].
pub(crate) const FIXED_KEEPALIVE: usize = 0;

/// Writes one policy's callback metrics into `values`.
pub(crate) fn policy_layers(
    values: &mut Values,
    policy: usize,
    stats: &PolicyStats,
    invocations: u64,
) {
    let [callback, interval, calls] = POLICY_METRICS[policy];
    values.insert(callback, ms(stats.callback_ns));
    values.insert(interval, ms(stats.interval_ns));
    values.insert(calls, ratio(stats.calls as f64, invocations as f64));
}

/// Writes the SRE optimizer metrics into `values`.
pub(crate) fn sre_layers(values: &mut Values, stats: &PolicyStats) {
    values.insert("cc-opt.sre_rounds", stats.sre_rounds as f64);
    values.insert("cc-opt.evaluations", stats.evaluations as f64);
    values.insert("cc-opt.accepted_moves", stats.accepted_moves as f64);
    values.insert(
        "cc-opt.accepts_per_eval",
        ratio(stats.accepted_moves as f64, stats.evaluations as f64),
    );
}
