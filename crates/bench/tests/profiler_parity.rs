//! Profiling must never change behavior: for every policy, a replay under
//! [`WallProfiler`] produces bit-identical results — report digest,
//! telemetry digest, and serialized JSONL bytes — to the same replay under
//! [`NullProfiler`], both on the serial engine and on the intra-run
//! parallel pipeline. Plus the coverage acceptance check: the recorded
//! phase self-times of a profiled replay must account for at least 90% of
//! its measured wall clock.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use bench::BenchScenario;
use cc_experiments::{build_policy, POLICY_NAMES};
use cc_sim::{
    run_parallel_profiled, JsonlSink, NullProfiler, ParallelOptions, Profiler, Simulation,
    SliceSource, WallProfiler,
};

/// The wall profiler aggregates into process-global state; serialize every
/// test that records or harvests it.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One serial replay under profiler `P`: `(report digest, jsonl bytes)`.
fn serial_run<P: Profiler>(scenario: &BenchScenario, name: &str) -> (u64, Vec<u8>) {
    let mut policy = build_policy(name, Some(&scenario.trace)).expect("registered policy");
    let mut sink = JsonlSink::new(Vec::new());
    let report = Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
        .run_with_sink_profiled::<_, P>(policy.as_mut(), &mut sink);
    let bytes = sink.finish().expect("writing to memory cannot fail");
    (report.digest(), bytes)
}

/// One pipelined replay under profiler `P` with `workers` encoder threads:
/// `(report digest, telemetry digest, jsonl bytes)`.
fn parallel_run<P: Profiler>(
    scenario: &BenchScenario,
    name: &str,
    workers: usize,
) -> (u64, u64, Vec<u8>) {
    let mut policy = build_policy(name, Some(&scenario.trace)).expect("registered policy");
    let options = ParallelOptions::default().with_workers(workers);
    let (outcome, bytes) = run_parallel_profiled::<_, _, P>(
        &scenario.config,
        SliceSource::from_trace(&scenario.trace),
        &scenario.workload,
        policy.as_mut(),
        Some(Vec::new()),
        &options,
    )
    .expect("writing to memory cannot fail");
    (
        outcome.report.digest(),
        outcome.telemetry.digest(),
        bytes.expect("jsonl output requested"),
    )
}

#[test]
fn serial_replays_are_bit_identical_under_the_wall_profiler() {
    let _guard = lock();
    let scenario = BenchScenario::new();
    for name in POLICY_NAMES {
        let (null_digest, null_bytes) = serial_run::<NullProfiler>(&scenario, name);
        let (wall_digest, wall_bytes) = serial_run::<WallProfiler>(&scenario, name);
        assert_eq!(
            null_digest, wall_digest,
            "policy {name}: report digest changed under WallProfiler"
        );
        assert_eq!(
            null_bytes, wall_bytes,
            "policy {name}: serialized event stream changed under WallProfiler"
        );
    }
    cc_prof::reset();
}

#[test]
fn parallel_replays_are_bit_identical_under_the_wall_profiler() {
    let _guard = lock();
    let scenario = BenchScenario::new();
    for name in POLICY_NAMES {
        let (null_digest, null_tel, null_bytes) = parallel_run::<NullProfiler>(&scenario, name, 4);
        let (wall_digest, wall_tel, wall_bytes) = parallel_run::<WallProfiler>(&scenario, name, 4);
        assert_eq!(
            null_digest, wall_digest,
            "policy {name}: report digest changed under WallProfiler (--workers 4)"
        );
        assert_eq!(
            null_tel, wall_tel,
            "policy {name}: telemetry digest changed under WallProfiler (--workers 4)"
        );
        assert_eq!(
            null_bytes, wall_bytes,
            "policy {name}: merged jsonl stream changed under WallProfiler (--workers 4)"
        );
    }
    cc_prof::reset();
}

#[test]
fn profiled_replay_self_times_cover_ninety_percent_of_wall() {
    let _guard = lock();
    cc_prof::reset();
    cc_prof::set_wall_enabled(true);
    let scenario = BenchScenario::new();
    let started = Instant::now();
    let (_, _) = serial_run::<WallProfiler>(&scenario, "codecrunch");
    let wall_ns = started.elapsed().as_nanos() as u64;
    cc_prof::set_wall_enabled(false);
    let profile = cc_prof::take_profile("parity-coverage", wall_ns);
    let coverage = profile.total_self_ns() as f64 / wall_ns as f64;
    assert!(
        coverage >= 0.90,
        "phase self-times cover only {:.1}% of the measured wall clock",
        coverage * 100.0
    );
}
