//! The SitW hybrid histogram baseline (Shahrad et al., ATC '20).

use cc_types::FxHashMap;

use cc_sim::{ClusterView, Command, KeepDecision, Scheduler};
use cc_types::{Arch, FunctionId, SimDuration, SimTime};

use crate::{faster_arch, GapHistogram};

/// The *Serverless in the Wild* policy, made heterogeneity-aware as in the
/// paper's baseline setup.
///
/// Per function, SitW maintains an idle-time histogram:
///
/// - **Patterned** functions (concentrated histogram) release their
///   instance right away when the predicted idle gap is long, pre-warm it
///   again just before the head percentile (5th) of the gap distribution,
///   and keep it until the tail percentile (99th).
/// - **Patternless** functions fall back to the fixed 10-minute window.
///
/// Placement picks the faster architecture for each function (the paper
/// modified SitW "to make it heterogeneity-aware").
#[derive(Debug, Clone)]
pub struct SitW {
    histograms: FxHashMap<FunctionId, GapHistogram>,
    /// Pre-warms scheduled for the future: `(due, function, window)`.
    scheduled: Vec<(SimTime, FunctionId, SimDuration)>,
    head_percentile: f64,
    tail_percentile: f64,
    fallback: SimDuration,
}

impl SitW {
    /// Creates the policy with the paper's parameters (5th/99th
    /// percentiles, 10-minute fallback).
    pub fn new() -> SitW {
        SitW::with_percentiles(5.0, 99.0)
    }

    /// Creates the policy with custom head/tail percentiles (each clamped
    /// to `[0, 100]`). The pre-warm schedule normalizes the resulting gap
    /// estimates, so an inverted pair degrades gracefully instead of
    /// collapsing the keep window (see [`prewarm_schedule`]).
    pub fn with_percentiles(head: f64, tail: f64) -> SitW {
        SitW {
            histograms: FxHashMap::default(),
            scheduled: Vec::new(),
            head_percentile: head.clamp(0.0, 100.0),
            tail_percentile: tail.clamp(0.0, 100.0),
            fallback: SimDuration::from_mins(10),
        }
    }

    fn histogram(&mut self, function: FunctionId) -> &mut GapHistogram {
        self.histograms.entry(function).or_default()
    }
}

/// The pre-warm schedule for a patterned long-idle function, from its
/// head/tail percentile gap estimates in minutes: `(delay after the last
/// arrival, keep-alive window)`. The instance is re-warmed one minute
/// before the earlier estimate and kept until one minute past the later
/// one.
///
/// The estimates are normalized (`min`/`max`) before use: with an
/// inverted pair — reachable through [`SitW::with_percentiles`], or any
/// future data-driven percentile source — the former
/// `tail.saturating_sub(head) + 2` silently collapsed every window to
/// 2 minutes, expiring the pre-warmed instance *before* the
/// distribution's actual tail it was meant to cover.
fn prewarm_schedule(head: u64, tail: u64) -> (SimDuration, SimDuration) {
    let (lo, hi) = (head.min(tail), head.max(tail));
    let delay = SimDuration::from_mins(lo.saturating_sub(1).max(1));
    let window = SimDuration::from_mins(hi - lo + 2);
    (delay, window)
}

impl Default for SitW {
    fn default() -> Self {
        SitW::new()
    }
}

impl Scheduler for SitW {
    fn name(&self) -> &str {
        "sitw"
    }

    fn evicts_in_admission_order(&self) -> bool {
        // Default LRU `eviction_rank`.
        true
    }

    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        self.histogram(function).record(now);
        // An arrival consumes any pending pre-warm for the function.
        self.scheduled.retain(|&(_, f, _)| f != function);
    }

    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        faster_arch(function, view)
    }

    fn on_completion(
        &mut self,
        function: FunctionId,
        _arch: Arch,
        _view: &ClusterView<'_>,
    ) -> KeepDecision {
        let (head_p, tail_p, fallback) =
            (self.head_percentile, self.tail_percentile, self.fallback);
        let hist = self.histogram(function);
        let now = hist.last_arrival();
        if !hist.is_patterned() {
            return KeepDecision::uncompressed(fallback);
        }
        let head = hist.percentile_minutes(head_p).unwrap_or(0);
        let tail = hist.percentile_minutes(tail_p).unwrap_or(10);
        if head.min(tail) >= 3 {
            // Long predicted idle: drop now, pre-warm shortly before the
            // head of the distribution, keep until the tail.
            if let Some(last) = now {
                let (delay, window) = prewarm_schedule(head, tail);
                self.scheduled.push((last + delay, function, window));
            }
            KeepDecision::DROP
        } else {
            KeepDecision::uncompressed(SimDuration::from_mins(head.max(tail)))
        }
    }

    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        let now = view.now;
        let horizon = now + view.config.interval;
        let mut commands = Vec::new();
        self.scheduled.retain(|&(due, function, window)| {
            if due <= horizon {
                if !view.is_warm(function) {
                    commands.push(Command::Prewarm {
                        function,
                        arch: faster_arch(function, view),
                        keep_alive: window,
                        compress: false,
                    });
                }
                false
            } else {
                true
            }
        });
        commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_compress::CompressionModel;
    use cc_sim::{ClusterConfig, FixedKeepAlive, Simulation};
    use cc_trace::SyntheticTrace;
    use cc_workload::{Catalog, Workload};

    fn run_sitw(seed: u64) -> (cc_sim::SimReport, cc_sim::SimReport) {
        let trace = SyntheticTrace::builder()
            .functions(40)
            .duration(SimDuration::from_mins(240))
            .seed(seed)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        let config = ClusterConfig::small(3, 3);
        let mut sitw = SitW::new();
        let mut fixed = FixedKeepAlive::ten_minutes();
        let r_sitw = Simulation::new(config.clone(), &trace, &workload).run(&mut sitw);
        let r_fixed = Simulation::new(config, &trace, &workload).run(&mut fixed);
        (r_sitw, r_fixed)
    }

    #[test]
    fn completes_and_produces_warm_starts() {
        let (sitw, _) = run_sitw(11);
        assert!(sitw.warm_fraction() > 0.3, "warm {}", sitw.warm_fraction());
    }

    #[test]
    fn beats_or_matches_fixed_keepalive_cost_for_similar_service() {
        // SitW's selling point: comparable warm starts at lower keep-alive
        // cost (it sizes windows to the observed gaps instead of a blanket
        // 10 minutes). Accept either a cost win or a service-time win.
        let (sitw, fixed) = run_sitw(12);
        let cost_win = sitw.keep_alive_spend <= fixed.keep_alive_spend;
        let service_win = sitw.mean_service_time_secs() <= fixed.mean_service_time_secs();
        assert!(
            cost_win || service_win,
            "sitw ${} / {}s vs fixed ${} / {}s",
            sitw.keep_alive_spend.as_dollars(),
            sitw.mean_service_time_secs(),
            fixed.keep_alive_spend.as_dollars(),
            fixed.mean_service_time_secs()
        );
    }

    #[test]
    fn prewarm_schedule_survives_inverted_estimates() {
        // Ordered estimates: pre-warm at head−1, keep through tail+1.
        assert_eq!(
            prewarm_schedule(5, 30),
            (SimDuration::from_mins(4), SimDuration::from_mins(27))
        );
        // Inverted estimates must produce the same honest window, not a
        // 2-minute stub that expires before the distribution's tail.
        assert_eq!(prewarm_schedule(30, 5), prewarm_schedule(5, 30));
        // Degenerate pair: minimal slack window around the single estimate.
        assert_eq!(
            prewarm_schedule(3, 3),
            (SimDuration::from_mins(2), SimDuration::from_mins(2))
        );
    }

    #[test]
    fn inverted_percentile_pair_matches_ordered_schedule() {
        // Drive two policies over the same strongly-patterned arrivals:
        // one with the paper's (5th, 99th) pair, one deliberately
        // inverted (99th, 5th). The pre-warm schedules they emit must be
        // identical — the inverted pair used to collapse every window to
        // 2 minutes via `tail.saturating_sub(head) + 2`.
        let mut ordered = SitW::new();
        let mut inverted = SitW::with_percentiles(99.0, 5.0);
        let f = cc_types::FunctionId::new(0);
        let mut t = SimTime::ZERO;
        for _ in 0..12 {
            ordered.on_arrival(f, t);
            inverted.on_arrival(f, t);
            t += SimDuration::from_mins(20);
        }
        // Both histograms are patterned with every gap in the 20-minute
        // bin, so head and tail percentiles agree pairwise (just swapped).
        let hist = ordered.histogram(f).clone();
        assert!(hist.is_patterned());
        let head = hist.percentile_minutes(5.0).unwrap();
        let tail = hist.percentile_minutes(99.0).unwrap();
        assert!(head >= 3);
        assert_eq!(prewarm_schedule(tail, head), prewarm_schedule(head, tail));
    }

    #[test]
    fn patternless_functions_get_fallback() {
        let mut sitw = SitW::new();
        // No history at all: the histogram is unpatterned.
        let trace = SyntheticTrace::builder()
            .functions(1)
            .duration(SimDuration::from_mins(10))
            .seed(1)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        let config = ClusterConfig::small(1, 1);
        let report = Simulation::new(config, &trace, &workload).run(&mut sitw);
        assert_eq!(report.records.len(), trace.invocations().len());
    }
}
