//! The gap conservation invariant: no policy's measured cost ever lands
//! below the hindsight lower bound — serial or sharded — and the bound
//! chain itself stays ordered (segment ≤ DP ≤ local-search upper bound).
//!
//! This is the yardstick's load-bearing guarantee: a "lower bound" a real
//! run can beat is a bug in the estimator (a missed hindsight action, a
//! pricing mismatch with the engine's ledger), and an upper bound below
//! the DP is a broken search. The scenario deliberately includes memory
//! pressure, both architectures, and a budget so all engine mechanisms
//! (eviction, compression, pro-rata budget truncation) are in play.

mod common;

use codecrunch_suite::prelude::*;

use common::policy_for;

fn scenario() -> (Trace, Workload, ClusterConfig) {
    let trace = SyntheticTrace::builder()
        .functions(40)
        .duration(SimDuration::from_mins(45))
        .seed(90)
        .build();
    let workload = Workload::from_trace(
        &trace,
        &Catalog::paper_catalog(),
        &CompressionModel::paper_default(),
    );
    let config = ClusterConfig::small(2, 2).with_warm_memory_fraction(0.35);
    (trace, workload, config)
}

#[test]
fn no_policy_beats_the_lower_bound_serial() {
    let (trace, workload, config) = scenario();
    let input = HindsightInput::from_trace(&trace, &workload, &config).unwrap();
    let bound = GapReport::for_input(&input);
    for name in POLICY_NAMES {
        let mut policy = policy_for(name, &trace);
        let report = Simulation::new(config.clone(), &trace, &workload).run(policy.as_mut());
        let gap = bound.policy(name, measured_cost_of_report(&report, input.lambda_nanos));
        assert!(
            gap.holds(),
            "{name}: measured {} < lower bound {} (gap {})",
            gap.measured,
            gap.lower_bound,
            gap.gap
        );
    }
}

#[test]
fn no_policy_beats_the_lower_bound_sharded() {
    let (trace, workload, config) = scenario();
    let input = HindsightInput::from_trace(&trace, &workload, &config).unwrap();
    let bound = GapReport::for_input(&input);
    let jobs: Vec<_> = POLICY_NAMES
        .iter()
        .map(|&name| {
            let (trace, workload, config) = (trace.clone(), workload.clone(), config.clone());
            move |_sink: &mut NullSink| {
                let mut policy = policy_for(name, &trace);
                Simulation::new(config, &trace, &workload).run(policy.as_mut())
            }
        })
        .collect();
    for result in run_sharded(jobs, 2, &NullSinkFactory) {
        let report = result.outcome.expect("policy shard panicked");
        let gap = bound.policy(
            &report.policy.clone(),
            measured_cost_of_report(&report, input.lambda_nanos),
        );
        assert!(
            gap.holds(),
            "{} (sharded): measured {} < lower bound {} (gap {})",
            gap.policy,
            gap.measured,
            gap.lower_bound,
            gap.gap
        );
    }
}

#[test]
fn bound_chain_is_ordered_on_the_scenario() {
    let (trace, workload, config) = scenario();
    let input = HindsightInput::from_trace(&trace, &workload, &config).unwrap();
    let dp = dp_lower_bound(&input);
    for segments in [2, 5, 16] {
        assert!(segment_lower_bound(&input, segments) <= dp);
    }
    // Seed the upper bound from a real recorded schedule and check it
    // brackets from above while staying under that run's measured cost.
    let mut policy = policy_for("codecrunch", &trace);
    let report = Simulation::new(config, &trace, &workload).run(policy.as_mut());
    let upper = local_search_upper_bound(&input, &report.records);
    assert!(dp <= upper);
    let measured = measured_cost_of_report(&report, input.lambda_nanos);
    assert!(upper <= measured, "upper {upper} > measured {measured}");
}
