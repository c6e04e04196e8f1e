//! cc-prof: wall-clock self-profiling of the simulator itself.
//!
//! Everything in the rest of the workspace measures the *modeled* cluster
//! (simulated seconds, modeled cold starts). This crate measures the
//! *simulator process*: where its wall-clock time goes, where its
//! allocations come from, and how both change between revisions.
//!
//! Pieces, mirroring `cc-obs`'s free-when-disabled sink design:
//!
//! * [`Profiler`] / [`NullProfiler`] / [`WallProfiler`] — monomorphized
//!   probes; the null instantiation compiles away entirely, keeping
//!   golden digests and throughput floors bit-identical.
//! * [`DynScope`] — runtime-flagged probes for type-erased call sites
//!   (policies behind `dyn Scheduler`, shard jobs).
//! * [`CountingAllocator`] — a feature-gated `#[global_allocator]`
//!   wrapper attributing allocations to the active phase.
//! * [`take_profile`] → [`SelfProfile`] — collection, with exporters:
//!   stable-key-order JSON ([`to_json`]/[`from_json`]), a Chrome/Perfetto
//!   wall trace ([`to_chrome_trace`]), and a human table.
//! * [`diff_profiles`] and the `ccprof` binary — per-phase wall/alloc
//!   deltas with thresholds, for CI regression attribution.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
mod alloc;
mod diff;
mod json;
mod phase;
mod profile;
mod trace;
mod wall;

pub use alloc::{alloc_totals, peak_live_bytes, peak_rss_bytes, CountingAllocator};
pub use diff::{diff_profiles, DiffOptions, DiffReport, DiffRow, Verdict};
pub use json::{from_json, to_json, SCHEMA_VERSION};
pub use phase::{PerfCounter, Phase};
pub use profile::{fmt_bytes, fmt_ns, AllocSummary, PhaseRow, SelfProfile, ThreadInfo, TraceSpan};
pub use trace::to_chrome_trace;
pub use wall::{
    dyn_add, dyn_thread_label, flush_thread, reset, set_trace_capture, set_wall_enabled,
    take_profile, wall_enabled, DynScope, NullProfiler, Profiler, Scope, WallProfiler,
};

/// Serializes tests that touch the process-global profiling state.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
