//! Fixtures shared by the root integration tests.

// Each test binary compiles this module and uses a different subset.
#![allow(dead_code)]

use codecrunch_suite::prelude::*;

/// The golden mid-size scenario: large enough to exercise eviction,
/// make-room, compression transitions, budget caps, and pending queues on
/// both architectures; small enough to run in seconds in debug builds.
/// The golden, parallel, serve and replay digests are all pinned on it.
pub fn scenario() -> (Trace, Workload, ClusterConfig) {
    let trace = SyntheticTrace::builder()
        .functions(60)
        .duration(SimDuration::from_mins(90))
        .seed(4242)
        .build();
    let workload = Workload::from_trace(
        &trace,
        &Catalog::paper_catalog(),
        &CompressionModel::paper_default(),
    );
    let config = ClusterConfig::small(2, 2).with_warm_memory_fraction(0.35);
    (trace, workload, config)
}

/// The registered policy `name`, built against `trace`.
pub fn policy_for(name: &str, trace: &Trace) -> Box<dyn Scheduler> {
    build_policy(name, Some(trace)).expect("registered policy")
}

/// The registered policy `name`, built against the golden scenario's trace.
pub fn policy_under_test(name: &str) -> Box<dyn Scheduler> {
    policy_for(name, &scenario().0)
}
