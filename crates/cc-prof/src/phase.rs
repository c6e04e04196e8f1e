//! The closed vocabulary of profiled phases and hot-path counters.
//!
//! Phases are a fixed enum rather than interned strings so the per-thread
//! aggregation tables are flat arrays indexed by discriminant — no hashing
//! on the probe path — and so the JSON export has one canonical order.

/// A profiled phase of the simulator's own execution (wall-clock, not
/// simulated time). Spans nest: a phase entered while another is open
/// becomes its child, and the parent's *self* time excludes the child.
///
/// The discriminant order is the canonical export order; add new phases at
/// the end to keep recorded baselines comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// One whole engine run (`Simulation::run*` / `run_streaming`): the
    /// root span every engine-loop phase nests under.
    EngineRun = 0,
    /// Handling one trace arrival: source chaining, the reuse/cold
    /// placement walk, and queueing.
    Arrival,
    /// Time inside policy callbacks (`on_arrival`, `place`,
    /// `on_completion`, `eviction_rank`, `on_interval`).
    PolicyDecision,
    /// Admitting a finished or pre-warmed instance into the warm pool
    /// (cap enforcement, budget reservation, slab insert).
    PoolAdmit,
    /// Evicting warm instances to make room (`make_room`): victim
    /// ranking and removal.
    PoolEvict,
    /// Draining due keep-alive expirations from the pool's calendar.
    ExpiryDrain,
    /// Handling one execution completion (node bookkeeping, the
    /// keep-alive decision, admission, pending retry).
    Completion,
    /// One optimization-interval tick: sampling, `on_interval`, and
    /// command execution.
    Tick,
    /// Retrying queued invocations after capacity was freed.
    PendingDrain,
    /// One SRE optimizer round (sub-problem sampling, inner descent,
    /// splice) inside a policy's interval callback.
    SreRound,
    /// The parallel pipeline's arrival-prefetch thread (includes time
    /// blocked on channel backpressure).
    Feeder,
    /// An encoder worker formatting one event batch into JSONL bytes.
    Encode,
    /// The ordered chunk writer (mux) thread of the parallel pipeline or
    /// the sharded driver.
    MuxWrite,
    /// The telemetry-folding thread of the parallel pipeline.
    TelemetryFold,
    /// A `BatchSink` flush on the decision thread: batch materialization
    /// and fan-out sends (includes send blocking).
    BatchFlush,
    /// One sharded-driver worker executing one shard job end to end.
    ShardWorker,
}

impl Phase {
    /// Every phase, in canonical (discriminant) order.
    pub const ALL: [Phase; 16] = [
        Phase::EngineRun,
        Phase::Arrival,
        Phase::PolicyDecision,
        Phase::PoolAdmit,
        Phase::PoolEvict,
        Phase::ExpiryDrain,
        Phase::Completion,
        Phase::Tick,
        Phase::PendingDrain,
        Phase::SreRound,
        Phase::Feeder,
        Phase::Encode,
        Phase::MuxWrite,
        Phase::TelemetryFold,
        Phase::BatchFlush,
        Phase::ShardWorker,
    ];

    /// Number of phases (array table size).
    pub const COUNT: usize = Phase::ALL.len();

    /// Stable snake_case label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            Phase::EngineRun => "engine_run",
            Phase::Arrival => "arrival",
            Phase::PolicyDecision => "policy_decision",
            Phase::PoolAdmit => "pool_admit",
            Phase::PoolEvict => "pool_evict",
            Phase::ExpiryDrain => "expiry_drain",
            Phase::Completion => "completion",
            Phase::Tick => "tick",
            Phase::PendingDrain => "pending_drain",
            Phase::SreRound => "sre_round",
            Phase::Feeder => "feeder",
            Phase::Encode => "encode",
            Phase::MuxWrite => "mux_write",
            Phase::TelemetryFold => "telemetry_fold",
            Phase::BatchFlush => "batch_flush",
            Phase::ShardWorker => "shard_worker",
        }
    }

    /// The phase with this label, if any (exporter inverse).
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.label() == label)
    }

    /// The phase with this discriminant, if in range.
    pub fn from_index(index: usize) -> Option<Phase> {
        Phase::ALL.get(index).copied()
    }

    /// The discriminant, as a table index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A monotonically accumulated hot-path counter. Counters are plain sums
/// with no span semantics; the `*_ns` ones accumulate nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum PerfCounter {
    /// Warm-pool slab insertions.
    PoolInsert = 0,
    /// Warm-pool slab removals (reuse, eviction, expiry).
    PoolRemove,
    /// Candidate-index entries examined during warm-reuse walks.
    CandidateProbes,
    /// Nodes examined during cold-placement walks (slow path only).
    NodeScanProbes,
    /// Instances ranked by `eviction_rank` inside `make_room`, or evicted
    /// on its admission-order path.
    EvictionsRanked,
    /// Expirations drained from the calendar.
    ExpiryDrained,
    /// Batches flushed by `BatchSink`.
    BatchFlushes,
    /// Nanoseconds spent blocked in pipeline channel sends.
    ChannelSendBlockNs,
    /// Nanoseconds spent blocked in pipeline channel receives.
    ChannelRecvBlockNs,
    /// JSONL chunks written by the ordered mux.
    ChunksWritten,
}

impl PerfCounter {
    /// Every counter, in canonical (discriminant) order.
    pub const ALL: [PerfCounter; 10] = [
        PerfCounter::PoolInsert,
        PerfCounter::PoolRemove,
        PerfCounter::CandidateProbes,
        PerfCounter::NodeScanProbes,
        PerfCounter::EvictionsRanked,
        PerfCounter::ExpiryDrained,
        PerfCounter::BatchFlushes,
        PerfCounter::ChannelSendBlockNs,
        PerfCounter::ChannelRecvBlockNs,
        PerfCounter::ChunksWritten,
    ];

    /// Number of counters (array table size).
    pub const COUNT: usize = PerfCounter::ALL.len();

    /// Stable snake_case label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            PerfCounter::PoolInsert => "pool_insert",
            PerfCounter::PoolRemove => "pool_remove",
            PerfCounter::CandidateProbes => "candidate_probes",
            PerfCounter::NodeScanProbes => "node_scan_probes",
            PerfCounter::EvictionsRanked => "evictions_ranked",
            PerfCounter::ExpiryDrained => "expiry_drained",
            PerfCounter::BatchFlushes => "batch_flushes",
            PerfCounter::ChannelSendBlockNs => "channel_send_block_ns",
            PerfCounter::ChannelRecvBlockNs => "channel_recv_block_ns",
            PerfCounter::ChunksWritten => "chunks_written",
        }
    }

    /// The counter with this label, if any (exporter inverse).
    pub fn from_label(label: &str) -> Option<PerfCounter> {
        PerfCounter::ALL
            .iter()
            .copied()
            .find(|c| c.label() == label)
    }

    /// The discriminant, as a table index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_and_are_unique() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
            assert_eq!(Phase::from_label(phase.label()), Some(*phase));
            assert_eq!(Phase::from_index(i), Some(*phase));
        }
        for (i, counter) in PerfCounter::ALL.iter().enumerate() {
            assert_eq!(counter.index(), i);
            assert_eq!(PerfCounter::from_label(counter.label()), Some(*counter));
        }
        let mut labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.extend(PerfCounter::ALL.iter().map(|c| c.label()));
        let unique: std::collections::BTreeSet<&str> = labels.iter().copied().collect();
        assert_eq!(unique.len(), labels.len(), "labels must be unique");
    }

    #[test]
    fn out_of_range_lookups_fail() {
        assert_eq!(Phase::from_label("nope"), None);
        assert_eq!(Phase::from_index(Phase::COUNT), None);
        assert_eq!(PerfCounter::from_label("nope"), None);
    }
}
