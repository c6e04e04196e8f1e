//! The allocation-discipline gates:
//!
//! - after one warmup replay, a steady-state replay's `sre_round` phase
//!   must perform **zero** heap allocations;
//! - warm-pool admission and eviction (`pool_admit` + `pool_evict`) must
//!   stay allocation-free per admission on the streaming path.
//!
//! The first is the CI teeth behind the scratch-reuse contract (DESIGN.md §14):
//! every buffer the SRE round loop touches — sampling weights, the flat
//! group index list, the descent working vectors, splice/touched lists,
//! and the round snapshots — lives in scratch storage owned by the
//! scheduler and is recycled across interval ticks. The first replay grows
//! those buffers to their high-water capacities; the second replay then
//! runs the optimizer without a single trip to the allocator.
//!
//! Compiled only under `--features alloc-profile` (the counting global
//! allocator costs a few percent, so it is off by default):
//!
//! ```text
//! cargo test -p bench --release --features alloc-profile --test alloc_gate
//! ```

#![cfg(feature = "alloc-profile")]

use std::sync::{Mutex, MutexGuard};

use bench::{BenchScenario, StreamScenario};
use cc_prof::{PerfCounter, Phase};
use cc_sim::{run_streaming_profiled, FixedKeepAlive, NullSink, Simulation, WallProfiler};
use codecrunch::CodeCrunch;

/// Every allocation in this test binary is counted and attributed to the
/// active profiling phase (test binaries are separate crates, so this does
/// not conflict with simbench's allocator).
#[global_allocator]
static ALLOC: cc_prof::CountingAllocator = cc_prof::CountingAllocator::new();

/// The profiler aggregates into process-global state, so the tests in this
/// binary take turns.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn steady_state_sre_rounds_allocate_nothing() {
    let _guard = serialized();
    cc_prof::reset();
    let scenario = BenchScenario::new();
    let sim = Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload);

    // Warmup replay: the same policy instance keeps its scratch buffers,
    // so this run pays every capacity growth the optimizer will ever need
    // for this scenario. NullSink keeps optimizer introspection off — the
    // production stress configuration.
    let mut policy = CodeCrunch::new();
    let warm = sim.run_with_sink_profiled::<NullSink, WallProfiler>(&mut policy, &mut NullSink);

    // Measured replay: identical workload, warm scratch.
    cc_prof::reset();
    cc_prof::set_wall_enabled(true);
    let measured = sim.run_with_sink_profiled::<NullSink, WallProfiler>(&mut policy, &mut NullSink);
    cc_prof::set_wall_enabled(false);
    let profile = cc_prof::take_profile("alloc-gate", 1);

    let row = profile
        .row(Phase::SreRound)
        .expect("the codecrunch policy must have run SRE rounds");
    assert!(row.count > 0, "no sre_round spans were recorded");
    assert_eq!(
        row.alloc_count, 0,
        "steady-state sre_round performed {} heap allocations ({} bytes) across {} rounds",
        row.alloc_count, row.alloc_bytes, row.count
    );
    // Sanity: the measured replay really exercised the optimizer (the
    // second run of a warm policy still re-plans every interval).
    assert!(!warm.records.is_empty());
    assert!(!measured.records.is_empty());
    cc_prof::reset();
}

#[test]
fn pool_admission_and_eviction_are_allocation_free() {
    let _guard = serialized();
    cc_prof::reset();
    // The streaming smoke scenario under a warm cap: nearly every arrival
    // is a cold start whose completion admits an instance, usually after
    // evicting one, so both pool phases run hundreds of thousands of times.
    let scenario = StreamScenario::smoke();
    let mut policy = FixedKeepAlive::ten_minutes();
    cc_prof::set_wall_enabled(true);
    let report = run_streaming_profiled::<_, _, WallProfiler>(
        &scenario.config,
        scenario.source(),
        &scenario.workload,
        &mut policy,
        &mut NullSink,
        false,
    );
    cc_prof::set_wall_enabled(false);
    let profile = cc_prof::take_profile("alloc-gate-pool", 1);
    cc_prof::reset();

    let admissions = profile.counter(PerfCounter::PoolInsert);
    assert!(admissions > 0, "the scenario admitted no warm instances");
    assert!(report.evictions > 0, "the scenario evicted nothing");
    let allocs: u64 = [Phase::PoolAdmit, Phase::PoolEvict]
        .into_iter()
        .filter_map(|phase| profile.row(phase))
        .map(|row| row.alloc_count)
        .sum();
    let per_admission = allocs as f64 / admissions as f64;
    eprintln!("pool_admit + pool_evict: {allocs} allocations / {admissions} admissions = {per_admission:.5}");
    // Only the slab's amortized growth and the ordered expiry/transition
    // calendars may allocate; the per-function and per-node indexes are
    // intrusive lists through the slab.
    assert!(
        per_admission <= 0.01,
        "pool_admit + pool_evict made {allocs} allocations over {admissions} admissions \
         ({per_admission:.4} per admission, gate 0.01)"
    );
}
