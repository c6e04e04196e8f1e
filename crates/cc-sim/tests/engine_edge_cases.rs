//! Engine edge-case and failure-injection tests, built on hand-crafted
//! traces and adversarial policies rather than the synthetic generator.

use cc_compress::CompressionModel;
use cc_sim::{
    ClusterConfig, ClusterView, Command, FixedKeepAlive, KeepDecision, Scheduler, Simulation,
};
use cc_trace::{Trace, TraceFunction};
use cc_types::{Arch, Cost, FunctionId, Invocation, MemoryMb, SimDuration, SimTime, StartKind};
use cc_workload::{Catalog, Workload};

/// A trace of explicit invocations over explicit functions.
fn hand_trace(functions: &[(u64, u32)], invocations: &[(u32, u64)]) -> Trace {
    let functions: Vec<TraceFunction> = functions
        .iter()
        .enumerate()
        .map(|(i, &(exec_ms, mem))| {
            TraceFunction::new(
                FunctionId::new(i as u32),
                SimDuration::from_millis(exec_ms),
                MemoryMb::new(mem),
            )
        })
        .collect();
    let invocations: Vec<Invocation> = invocations
        .iter()
        .map(|&(f, at_ms)| {
            Invocation::new(
                FunctionId::new(f),
                SimTime::ZERO + SimDuration::from_millis(at_ms),
            )
        })
        .collect();
    Trace::new(functions, invocations).expect("valid hand trace")
}

fn workload(trace: &Trace) -> Workload {
    Workload::from_trace(
        trace,
        &Catalog::paper_catalog(),
        &CompressionModel::paper_default(),
    )
}

#[test]
fn back_to_back_invocations_hit_the_warm_instance() {
    // One function invoked twice, 30 seconds apart, 10-minute keep-alive:
    // the second invocation must be a warm start with zero penalty.
    let trace = hand_trace(&[(1_000, 128)], &[(0, 0), (0, 30_000)]);
    let w = workload(&trace);
    let mut policy = FixedKeepAlive::ten_minutes();
    let report = Simulation::new(ClusterConfig::small(1, 1), &trace, &w).run(&mut policy);
    assert_eq!(report.records.len(), 2);
    assert_eq!(report.records[0].kind, StartKind::Cold);
    assert_eq!(report.records[1].kind, StartKind::WarmUncompressed);
    assert!(report.records[1].start_penalty.is_zero());
}

#[test]
fn expired_instances_are_cold_again() {
    // Second invocation arrives after the keep-alive window: cold start.
    let trace = hand_trace(&[(1_000, 128)], &[(0, 0), (0, 3 * 60_000)]);
    let w = workload(&trace);
    let mut policy = FixedKeepAlive::new(SimDuration::from_mins(1), false);
    let report = Simulation::new(ClusterConfig::small(1, 1), &trace, &w).run(&mut policy);
    assert_eq!(report.records[1].kind, StartKind::Cold);
    // Expired windows cost their full reservation: spend equals
    // rate × footprint × window for the two keep-alives (the second one
    // also runs to expiry because the trace ends).
    assert!(report.keep_alive_spend > Cost::ZERO);
}

#[test]
fn concurrent_invocations_need_concurrent_instances() {
    // Two overlapping invocations of the same function: the second cannot
    // reuse the busy instance and must cold-start.
    let trace = hand_trace(&[(10_000, 128)], &[(0, 0), (0, 1_000)]);
    let w = workload(&trace);
    let mut policy = FixedKeepAlive::ten_minutes();
    let report = Simulation::new(ClusterConfig::small(1, 1), &trace, &w).run(&mut policy);
    assert_eq!(report.records[0].kind, StartKind::Cold);
    assert_eq!(report.records[1].kind, StartKind::Cold);
}

/// A policy that issues a pre-warm for function 1 at every tick.
struct AlwaysPrewarm;

impl Scheduler for AlwaysPrewarm {
    fn name(&self) -> &str {
        "always-prewarm"
    }
    fn place(&mut self, _f: FunctionId, _v: &ClusterView<'_>) -> Arch {
        Arch::X86
    }
    fn on_completion(&mut self, _f: FunctionId, _a: Arch, _v: &ClusterView<'_>) -> KeepDecision {
        KeepDecision::DROP
    }
    fn on_interval(&mut self, _v: &ClusterView<'_>) -> Vec<Command> {
        vec![Command::Prewarm {
            function: FunctionId::new(1),
            arch: Arch::X86,
            keep_alive: SimDuration::from_mins(5),
            compress: false,
        }]
    }
}

#[test]
fn prewarm_makes_the_first_invocation_warm() {
    // Function 1 is pre-warmed from tick 0; its only invocation at t=5min
    // finds a warm instance. Function 0 keeps the trace alive.
    let trace = hand_trace(
        &[(1_000, 128), (1_000, 128)],
        &[(0, 0), (1, 5 * 60_000), (0, 7 * 60_000)],
    );
    let w = workload(&trace);
    let mut policy = AlwaysPrewarm;
    let report = Simulation::new(ClusterConfig::small(1, 1), &trace, &w).run(&mut policy);
    let f1: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.function == FunctionId::new(1))
        .collect();
    assert_eq!(f1.len(), 1);
    assert_eq!(f1[0].kind, StartKind::WarmUncompressed);
}

/// A policy that demands an absurd keep-alive footprint to provoke the
/// warm-cap and eviction machinery.
struct KeepEverythingForever;

impl Scheduler for KeepEverythingForever {
    fn name(&self) -> &str {
        "keep-everything"
    }
    fn place(&mut self, _f: FunctionId, _v: &ClusterView<'_>) -> Arch {
        Arch::X86
    }
    fn on_completion(&mut self, _f: FunctionId, _a: Arch, _v: &ClusterView<'_>) -> KeepDecision {
        KeepDecision::uncompressed(SimDuration::from_mins(60))
    }
}

#[test]
fn warm_cap_forces_evictions_not_crashes() {
    // 20 distinct 2-second functions under a 5% warm cap: the pool churns.
    let mut functions = Vec::new();
    let mut invocations = Vec::new();
    for i in 0..20u32 {
        functions.push((2_000u64, 1_500u32));
        invocations.push((i, i as u64 * 10_000));
        invocations.push((i, 300_000 + i as u64 * 10_000));
    }
    let trace = hand_trace(&functions, &invocations);
    let w = workload(&trace);
    let config = ClusterConfig::small(1, 1).with_warm_memory_fraction(0.05);
    let mut policy = KeepEverythingForever;
    let report = Simulation::new(config, &trace, &w).run(&mut policy);
    assert_eq!(report.records.len(), 40);
    assert!(report.evictions > 0, "cap must force evictions");
}

#[test]
fn spillover_uses_the_other_architecture() {
    // A 1-core x86 + 1-core ARM cluster, everything placed on x86: the
    // second concurrent invocation spills to ARM rather than queueing.
    let trace = hand_trace(&[(30_000, 128), (30_000, 128)], &[(0, 0), (1, 100)]);
    let w = workload(&trace);
    let mut config = ClusterConfig::small(1, 1);
    config.cores_per_node = 1;
    let mut policy = FixedKeepAlive::ten_minutes().pinned_to(Arch::X86);
    let report = Simulation::new(config, &trace, &w).run(&mut policy);
    let archs: Vec<Arch> = report.records.iter().map(|r| r.arch).collect();
    assert!(archs.contains(&Arch::X86));
    assert!(archs.contains(&Arch::Arm), "expected spillover to ARM");
    assert!(report.records.iter().all(|r| r.wait.is_zero()));
}

#[test]
fn utilization_series_reflects_busy_cores() {
    // A single long-running invocation keeps one core busy across several
    // ticks.
    let trace = hand_trace(
        &[(10 * 60_000, 128), (1_000, 128)],
        &[(0, 1_000), (1, 6 * 60_000)],
    );
    let w = workload(&trace);
    let mut config = ClusterConfig::small(1, 0);
    config.cores_per_node = 2;
    let mut policy = FixedKeepAlive::new(SimDuration::ZERO, false);
    let report = Simulation::new(config, &trace, &w).run(&mut policy);
    assert!(!report.utilization_series.is_empty());
    // Some mid-trace tick must show the long function occupying half the
    // cores.
    assert!(
        report.utilization_series.iter().any(|&u| u >= 0.5),
        "utilization never reflected the running function: {:?}",
        report.utilization_series
    );
    assert!(report
        .utilization_series
        .iter()
        .all(|&u| (0.0..=1.0).contains(&u)));
}

#[test]
fn empty_trace_runs_cleanly() {
    let trace = hand_trace(&[], &[]);
    let w = workload(&trace);
    let mut policy = FixedKeepAlive::ten_minutes();
    let report = Simulation::new(ClusterConfig::small(1, 1), &trace, &w).run(&mut policy);
    assert_eq!(report.records.len(), 0);
    assert_eq!(report.keep_alive_spend, Cost::ZERO);
}

#[test]
fn eviction_refunds_reduce_spend() {
    // Keeping one giant function warm, then invoking many others to evict
    // it early: the refund must leave total spend below the full window
    // cost.
    let mut functions = vec![(1_000u64, 3_000u32)];
    let mut invocations = vec![(0u32, 0u64)];
    for i in 1..12u32 {
        functions.push((1_000, 3_000));
        invocations.push((i, 60_000 + i as u64 * 5_000));
    }
    let trace = hand_trace(&functions, &invocations);
    let w = workload(&trace);
    let config = ClusterConfig::small(1, 0).with_warm_memory_fraction(0.30);
    let mut policy = KeepEverythingForever;
    let report = Simulation::new(config.clone(), &trace, &w).run(&mut policy);
    assert!(report.evictions > 0);
    // Upper bound if every one of the 12 windows ran its full 60 minutes on
    // x86 — evictions must keep us strictly below it.
    let full_cost = config.rate(Arch::X86).keep_alive_cost(
        w.spec(FunctionId::new(0)).memory,
        SimDuration::from_mins(60),
    );
    assert!(
        report.keep_alive_spend < full_cost * 12,
        "refunds missing: spend {} vs bound {}",
        report.keep_alive_spend,
        full_cost * 12
    );
}

#[test]
fn zero_invocation_run_reports_zero_ratios_not_nan() {
    // A trace with functions but no invocations: every report ratio must
    // come back as a finite 0.0, not NaN from a 0/0.
    let trace = hand_trace(&[(1_000, 128)], &[]);
    let w = workload(&trace);
    let mut policy = FixedKeepAlive::ten_minutes();
    let report = Simulation::new(ClusterConfig::small(1, 1), &trace, &w).run(&mut policy);
    assert!(report.records.is_empty());
    assert_eq!(report.mean_service_time_secs(), 0.0);
    assert_eq!(report.warm_fraction(), 0.0);
    assert!(report.keep_alive_spend.is_zero());
}
