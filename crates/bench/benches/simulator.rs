//! Simulator throughput benchmarks: one full trace replay per policy —
//! the end-to-end cost of regenerating a paper figure.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use bench::BenchScenario;
use cc_experiments::{build_policy, POLICY_NAMES};
use cc_sim::{FixedKeepAlive, Simulation};
use codecrunch::CodeCrunch;

fn bench_policies(c: &mut Criterion) {
    let scenario = BenchScenario::new();
    let mut group = c.benchmark_group("simulate_trace");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    for name in POLICY_NAMES {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut policy =
                    build_policy(name, Some(&scenario.trace)).expect("registered policy");
                Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
                    .run(policy.as_mut())
            })
        });
    }
    group.finish();
}

/// The 10 000-function stress replay: the scenario the hot-path indexing
/// work is measured against. One sample is one full trace replay, so use
/// few samples and throughput in invocations.
///
/// The group pairs the cheapest policy (fixed keep-alive — pure engine
/// cost, where the indexing shows up undiluted) with the most expensive
/// one (CodeCrunch, whose per-interval optimizer is policy compute shared
/// by any engine and bounds its end-to-end ratio); `simbench` records all
/// six policies at this scale in `BENCH_sim.json`.
fn bench_large(c: &mut Criterion) {
    let scenario = BenchScenario::large();
    let invocations = scenario.trace.invocations().len() as u64;
    let mut group = c.benchmark_group("simulate_10k");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(10));
    group.throughput(criterion::Throughput::Elements(invocations));

    group.bench_function("fixed_keepalive", |b| {
        b.iter(|| {
            let mut policy = FixedKeepAlive::ten_minutes();
            Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
                .run(&mut policy)
        })
    });
    group.bench_function("codecrunch", |b| {
        b.iter(|| {
            let mut policy = CodeCrunch::new();
            Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
                .run(&mut policy)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_policies, bench_large);
criterion_main!(benches);
