//! The policy interface every keep-alive scheme implements.

use cc_types::{Arch, FunctionId, SimDuration, SimTime};

use cc_types::WarmId;

use crate::node::WarmInstance;
use crate::ClusterView;

/// The decision a policy makes when an execution completes: how long to
/// keep the instance alive on its node, and whether to store it compressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeepDecision {
    /// Keep-alive time (zero drops the instance immediately). Clamped to
    /// the 60-minute platform bound by the simulator.
    pub keep_alive: SimDuration,
    /// Store the instance lz4-compressed during the keep-alive period.
    pub compress: bool,
}

impl KeepDecision {
    /// Drop the instance immediately.
    pub const DROP: KeepDecision = KeepDecision {
        keep_alive: SimDuration::ZERO,
        compress: false,
    };

    /// Keep uncompressed for `keep_alive`.
    pub fn uncompressed(keep_alive: SimDuration) -> KeepDecision {
        KeepDecision {
            keep_alive,
            compress: false,
        }
    }

    /// Keep compressed for `keep_alive`.
    pub fn compressed(keep_alive: SimDuration) -> KeepDecision {
        KeepDecision {
            keep_alive,
            compress: true,
        }
    }
}

/// A command a policy may issue at an interval tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Start an instance ahead of its next predicted invocation (pays the
    /// cold start off the user's critical path, then joins the warm pool).
    Prewarm {
        /// Which function to warm up.
        function: FunctionId,
        /// On which architecture.
        arch: Arch,
        /// Keep-alive after the instance is ready.
        keep_alive: SimDuration,
        /// Store compressed once warm.
        compress: bool,
    },
    /// Drop a warm instance early (refunding its reserved keep-alive cost).
    Evict {
        /// Which instance to drop.
        id: WarmId,
    },
}

/// A keep-alive scheduling policy.
///
/// The simulator calls back into the policy at four points: every arrival
/// (history building), every cold-start placement, every completion
/// (keep-alive decision), and once per optimization interval (pre-warming
/// and proactive eviction). [`Scheduler::eviction_rank`] additionally
/// orders victims under memory pressure, unless the policy declares
/// through [`Scheduler::evicts_in_admission_order`] that its order is the
/// admission order.
///
/// All callbacks receive a read-only [`ClusterView`].
pub trait Scheduler {
    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Observes an invocation arrival (before placement).
    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        let _ = (function, now);
    }

    /// Observes a completed placement's measured service record (the
    /// simulator knows all timing components as soon as execution starts).
    /// This is how adaptive policies learn actual per-architecture
    /// execution times, including unannounced input changes.
    fn on_record(&mut self, record: &cc_types::ServiceRecord) {
        let _ = record;
    }

    /// Chooses the architecture for a cold-start placement.
    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch;

    /// Decides keep-alive and compression when an execution of `function`
    /// completes on a node of architecture `arch`.
    fn on_completion(
        &mut self,
        function: FunctionId,
        arch: Arch,
        view: &ClusterView<'_>,
    ) -> KeepDecision;

    /// Per-interval tick; may emit pre-warm and eviction commands.
    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        let _ = view;
        Vec::new()
    }

    /// Ranks a warm instance for eviction under memory pressure: the
    /// instance with the **lowest** rank is evicted first. The default is
    /// LRU (oldest pool entry first).
    fn eviction_rank(&mut self, instance: &WarmInstance, view: &ClusterView<'_>) -> f64 {
        let _ = view;
        instance.since.as_micros() as f64
    }

    /// Declares that this policy's eviction order is admission order, so
    /// the engine may evict straight off a node's admission FIFO without
    /// calling [`Scheduler::eviction_rank`] at all.
    ///
    /// **Contract: rank must equal admission order.** Return `true` only
    /// if `eviction_rank` never orders a later admission strictly before
    /// an earlier one and has no side effects. The default LRU rank
    /// qualifies: an instance's `since` is its admission instant, which
    /// never decreases with `seq`, and ties are broken by `seq` either way,
    /// so both paths evict the same victims. A policy that overrides
    /// `eviction_rank` (or a wrapper that observes the calls) must keep
    /// the default `false`; a wrapper around an opted-in policy may
    /// forward this declaration only if it forwards `eviction_rank`
    /// unchanged.
    fn evicts_in_admission_order(&self) -> bool {
        false
    }

    /// Asks the policy to record per-round optimizer progress for
    /// [`Scheduler::drain_optimizer_rounds`]. The engine enables this only
    /// when a real event sink is attached; recording MUST NOT change any
    /// decision the policy makes (determinism is golden-tested).
    fn enable_introspection(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Returns (and clears) the optimizer rounds recorded since the last
    /// drain. Called by the engine after each `on_interval` when a sink is
    /// attached. Policies without an iterative optimizer keep the default.
    fn drain_optimizer_rounds(&mut self) -> Vec<cc_obs::OptimizerRound> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn keep_decision_constructors() {
        assert_eq!(KeepDecision::DROP.keep_alive, SimDuration::ZERO);
        assert!(!KeepDecision::DROP.compress);
        let k = KeepDecision::compressed(SimDuration::from_mins(5));
        assert!(k.compress);
        assert_eq!(k.keep_alive, SimDuration::from_mins(5));
        assert!(!KeepDecision::uncompressed(SimDuration::from_mins(1)).compress);
    }
}
