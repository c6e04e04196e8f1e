//! # CodeCrunch reproduction suite
//!
//! A full reproduction of *CodeCrunch: Improving Serverless Performance
//! via Function Compression and Cost-Aware Warmup Location Optimization*
//! (Roy, Patel, Garg, Tiwari — ASPLOS 2024), built as a Rust workspace.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`codecrunch`] — the paper's scheduler (SRE optimization, `P_est`
//!   estimation, compression + x86/ARM selection under a budget).
//! - [`sim`] — the discrete-event cluster simulator standing in for the
//!   paper's 31-node EC2 testbed.
//! - [`policies`] — the baselines: SitW, FaasCache, IceBreaker, Oracle,
//!   and the Fig. 8 enhancement wrapper.
//! - [`trace`] — synthetic Azure-like traces, CSV I/O, perturbations.
//! - [`workload`] — the SeBS/ServerlessBench-calibrated profile catalog.
//! - [`compress`] — from-scratch LZ77/Huffman codecs, synthetic images,
//!   and the compression latency model.
//! - [`opt`] — discrete optimizers including Sequential Random Embedding.
//! - [`replay`] — offline event-log replay: JSONL decoding, stream
//!   invariant auditing, and exact telemetry reconstruction.
//! - [`serve`] — always-on streaming service mode: clock-paced ingestion
//!   with backpressure and graceful drain, proven batch-equivalent.
//! - [`fft`] — the FFT substrate behind the IceBreaker baseline.
//! - [`metrics`] / [`types`] — measurement and vocabulary types.
//!
//! # Quickstart
//!
//! ```
//! use codecrunch_suite::prelude::*;
//!
//! let trace = SyntheticTrace::builder()
//!     .functions(25)
//!     .duration(SimDuration::from_mins(90))
//!     .seed(7)
//!     .build();
//! let workload = Workload::from_trace(
//!     &trace,
//!     &Catalog::paper_catalog(),
//!     &CompressionModel::paper_default(),
//! );
//! let mut policy = CodeCrunch::new();
//! let report = Simulation::new(ClusterConfig::paper_cluster(), &trace, &workload)
//!     .run(&mut policy);
//! println!(
//!     "mean service {:.2}s, warm {:.0}%",
//!     report.mean_service_time_secs(),
//!     report.warm_fraction() * 100.0
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cc_compress as compress;
pub use cc_fft as fft;
pub use cc_metrics as metrics;
pub use cc_obs as obs;
pub use cc_opt as opt;
pub use cc_policies as policies;
pub use cc_replay as replay;
pub use cc_serve as serve;
pub use cc_shard as shard;
pub use cc_sim as sim;
pub use cc_trace as trace;
pub use cc_types as types;
pub use cc_workload as workload;
pub use codecrunch;

/// The most common imports for driving experiments.
pub mod prelude {
    pub use cc_bound::{
        dp_lower_bound, exhaustive_reference, local_search_upper_bound, measured_cost_of_records,
        measured_cost_of_report, segment_lower_bound, GapReport, HindsightInput, PolicyGap,
    };
    pub use cc_compress::{Codec, CompressionModel, CrunchFast, EntropyClass, FsImage};
    pub use cc_experiments::{build_policy, PolicyError, POLICY_NAMES};
    pub use cc_policies::{Enhanced, FaasCache, IceBreaker, Oracle, SitW};
    pub use cc_replay::{
        audit_log, audit_shard, decode_line, decode_stream, reconstruct, reconstruct_with_interval,
        AuditReport, ReplayLog, ShardStream,
    };
    pub use cc_serve::{
        Clock, IngestQueue, PacedSource, RealClock, ServeHandle, ServeOptions, ServeOutcome,
        Server, VirtualClock,
    };
    pub use cc_shard::{
        mux_jsonl, run_sharded, run_sharded_jsonl, ChannelSinkFactory, MuxReport, NullSinkFactory,
        ShardResult, ShardedRunConfig, SinkFactory,
    };
    pub use cc_sim::{
        fnv1a, run_parallel, run_streaming, ArrivalSource, BufferSink, ChannelSink,
        ChromeTraceSink, ClusterConfig, Event, EventSink, Fetch, FixedKeepAlive, JsonlSink,
        NullSink, ParallelOptions, ParallelOutcome, RuntimeKind, SamplingSink, Scheduler,
        SharedTelemetry, SimReport, Simulation, SliceSource, Tee, Telemetry,
    };
    pub use cc_trace::{Perturbation, StreamingTrace, SyntheticTrace, Trace};
    pub use cc_types::{
        Arch, Cost, FunctionId, Invocation, MemoryMb, SimDuration, SimTime, StartKind,
    };
    pub use cc_workload::{Catalog, Workload};
    pub use codecrunch::{ArchPolicy, CodeCrunch, CodeCrunchConfig};
}
