//! Output of one simulation run.

use cc_metrics::ServiceStats;
use cc_types::{Arch, Cost, Fnv1a, ServiceRecord, StartKind};

// The canonical byte digest now lives in `cc_types::hash` so the replay
// layer (which must not depend on cc-sim) can share it; re-exported here
// because this crate's API established the name.
pub use cc_types::fnv1a;

/// Everything measured during one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Name of the policy that produced this run.
    pub policy: String,
    /// Aggregated service-time statistics.
    pub stats: ServiceStats,
    /// Raw per-invocation records (for CDFs and custom analyses).
    pub records: Vec<ServiceRecord>,
    /// Total keep-alive expenditure (reservations minus refunds).
    pub keep_alive_spend: Cost,
    /// Keep-alive spend per interval, in dollars (can dip negative when an
    /// interval's refunds exceed its reservations).
    pub spend_per_interval: Vec<f64>,
    /// Warm instances alive at each interval tick.
    pub warm_pool_series: Vec<f64>,
    /// Compressed warm instances alive at each interval tick.
    pub compressed_series: Vec<f64>,
    /// Times an instance was stored compressed on entering the pool.
    pub compression_events: u64,
    /// Compression events per interval (where in time compression happens —
    /// the paper's Fig. 11 signal).
    pub compression_events_per_interval: Vec<f64>,
    /// Fraction of execution cores busy at each interval tick.
    pub utilization_series: Vec<f64>,
    /// Warm instances dropped to make room for others.
    pub evictions: u64,
    /// Pre-warm commands dropped for lack of capacity.
    pub dropped_prewarms: u64,
}

impl SimReport {
    /// FNV-1a digest over a canonical byte encoding of everything the
    /// simulator measures.
    ///
    /// This is the workspace's equality oracle: the golden-determinism
    /// tests pin per-policy constants to it, and `simbench --shards N`
    /// compares sharded digests against serial ones to prove the parallel
    /// driver is behavior-preserving. The encoding is load-bearing — any
    /// change invalidates every recorded golden constant, so change it
    /// only together with the constants and an explanation.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(self.policy.as_bytes());
        h.u64(self.records.len() as u64);
        for r in &self.records {
            h.u64(r.function.index() as u64);
            h.u64(r.arrival.as_micros());
            h.u64(r.wait.as_micros());
            h.u64(r.start_penalty.as_micros());
            h.u64(r.execution.as_micros());
            h.u64(match r.kind {
                StartKind::WarmUncompressed => 0,
                StartKind::WarmCompressed => 1,
                StartKind::Cold => 2,
            });
            h.u64(match r.arch {
                Arch::X86 => 0,
                Arch::Arm => 1,
            });
        }
        h.u64(self.keep_alive_spend.as_picodollars());
        h.u64(self.evictions);
        h.u64(self.dropped_prewarms);
        h.u64(self.compression_events);
        for series in [
            &self.spend_per_interval,
            &self.warm_pool_series,
            &self.compressed_series,
            &self.compression_events_per_interval,
            &self.utilization_series,
        ] {
            h.u64(series.len() as u64);
            for &v in series {
                h.f64(v);
            }
        }
        h.f64(self.stats.mean_service_time_secs());
        h.f64(self.stats.warm_fraction());
        h.finish()
    }

    /// Mean service time in seconds — the paper's headline number.
    /// `0.0` (never NaN) for a zero-invocation run.
    pub fn mean_service_time_secs(&self) -> f64 {
        if self.stats.invocations() == 0 {
            return 0.0;
        }
        self.stats.mean_service_time_secs()
    }

    /// Warm-start fraction over the whole run.
    /// `0.0` (never NaN) for a zero-invocation run.
    pub fn warm_fraction(&self) -> f64 {
        if self.stats.invocations() == 0 {
            return 0.0;
        }
        self.stats.warm_fraction()
    }
}
