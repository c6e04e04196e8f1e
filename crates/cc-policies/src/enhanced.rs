//! The Fig. 8 enhancement wrapper: compression + x86/ARM selection for any
//! baseline policy.

use cc_sim::{ClusterView, Command, KeepDecision, Scheduler, WarmInstance};
use cc_types::{Arch, FunctionId, SimTime};

use crate::faster_arch;

/// Wraps any baseline with CodeCrunch's two mechanical ideas while leaving
/// the baseline's keep-alive decision logic intact (the paper's "enhanced
/// SitW/FaasCache/IceBreaker" treatment):
///
/// 1. **Heterogeneity**: cold starts are placed on the architecture that
///    runs the function faster, overriding the baseline's placement.
/// 2. **Compression**: when the baseline keeps an instance alive and the
///    function is compression-favorable on its node's architecture, the
///    instance is stored compressed whenever the warm pool is under
///    memory pressure (≥ the pressure threshold of the per-node cap).
///
/// # Example
///
/// ```
/// use cc_policies::{Enhanced, FaasCache};
/// use cc_sim::Scheduler;
///
/// let enhanced = Enhanced::new(FaasCache::new());
/// assert_eq!(enhanced.name(), "enhanced-faascache");
/// ```
#[derive(Debug, Clone)]
pub struct Enhanced<P> {
    inner: P,
    name: String,
    pressure_threshold: f64,
}

impl<P: Scheduler> Enhanced<P> {
    /// Wraps `inner` with the default pressure threshold (50% of the warm
    /// cap in use).
    pub fn new(inner: P) -> Enhanced<P> {
        let name = format!("enhanced-{}", inner.name());
        Enhanced {
            inner,
            name,
            pressure_threshold: 0.5,
        }
    }

    /// Adjusts the warm-memory pressure threshold above which favorable
    /// functions are compressed.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `[0, 1]`.
    pub fn with_pressure_threshold(mut self, threshold: f64) -> Enhanced<P> {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1]"
        );
        self.pressure_threshold = threshold;
        self
    }

    /// Access to the wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn under_pressure(&self, view: &ClusterView<'_>) -> bool {
        let cap = view.config.warm_memory_cap().as_mb() as f64 * view.config.total_nodes() as f64;
        if cap <= 0.0 {
            return false;
        }
        view.total_warm_memory().as_mb() as f64 / cap >= self.pressure_threshold
    }
}

impl<P: Scheduler> Scheduler for Enhanced<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        self.inner.on_arrival(function, now);
    }

    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        // Let the baseline observe the placement for its own bookkeeping,
        // then override with the function's faster architecture.
        let _ = self.inner.place(function, view);
        faster_arch(function, view)
    }

    fn on_completion(
        &mut self,
        function: FunctionId,
        arch: Arch,
        view: &ClusterView<'_>,
    ) -> KeepDecision {
        let base = self.inner.on_completion(function, arch, view);
        if base.keep_alive.is_zero() || base.compress {
            return base;
        }
        let spec = view.spec(function);
        if spec.compression_favorable(arch) && self.under_pressure(view) {
            KeepDecision::compressed(base.keep_alive)
        } else {
            base
        }
    }

    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        self.inner.on_interval(view)
    }

    fn eviction_rank(&mut self, instance: &WarmInstance, view: &ClusterView<'_>) -> f64 {
        self.inner.eviction_rank(instance, view)
    }

    fn evicts_in_admission_order(&self) -> bool {
        // `eviction_rank` forwards unchanged, so the declaration does too.
        self.inner.evicts_in_admission_order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SitW;
    use cc_compress::CompressionModel;
    use cc_sim::{ClusterConfig, FixedKeepAlive, Simulation};
    use cc_trace::SyntheticTrace;
    use cc_types::SimDuration;
    use cc_workload::{Catalog, Workload};

    fn setup() -> (cc_trace::Trace, Workload) {
        let trace = SyntheticTrace::builder()
            .functions(50)
            .duration(SimDuration::from_mins(240))
            .seed(51)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        (trace, workload)
    }

    #[test]
    fn enhancement_compresses_under_pressure() {
        let (trace, workload) = setup();
        // Tight warm cap creates sustained pressure.
        let config = ClusterConfig::small(2, 2).with_warm_memory_fraction(0.25);
        let mut enhanced = Enhanced::new(FixedKeepAlive::ten_minutes());
        let report = Simulation::new(config, &trace, &workload).run(&mut enhanced);
        assert!(
            report.compression_events > 0,
            "pressure should trigger compression"
        );
    }

    #[test]
    fn enhancement_does_not_regress_service_time_much() {
        let (trace, workload) = setup();
        let config = ClusterConfig::small(2, 2).with_warm_memory_fraction(0.25);
        let mut base = SitW::new();
        let mut enhanced = Enhanced::new(SitW::new());
        let r_base = Simulation::new(config.clone(), &trace, &workload).run(&mut base);
        let r_enh = Simulation::new(config, &trace, &workload).run(&mut enhanced);
        // The paper reports >10% improvement; at small scale we only insist
        // the enhancement does not hurt.
        assert!(
            r_enh.mean_service_time_secs() <= r_base.mean_service_time_secs() * 1.05,
            "enhanced {}s vs base {}s",
            r_enh.mean_service_time_secs(),
            r_base.mean_service_time_secs()
        );
    }

    #[test]
    fn name_reflects_wrapping() {
        assert_eq!(Enhanced::new(SitW::new()).name(), "enhanced-sitw");
    }

    #[test]
    #[should_panic(expected = "threshold must be in [0, 1]")]
    fn rejects_bad_threshold() {
        let _ = Enhanced::new(SitW::new()).with_pressure_threshold(2.0);
    }
}
