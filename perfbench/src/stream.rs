//! `stream`: the million-function `StreamingTrace` population through
//! `run_parallel` with fixed_keepalive, no JSONL and no records.

use std::io;
use std::time::Instant;

use cc_compress::CompressionModel;
use cc_sim::{
    run_parallel, run_parallel_profiled, ClusterConfig, FixedKeepAlive, ParallelOptions,
    WallProfiler,
};
use cc_trace::{StreamingTrace, StreamingTraceBuilder};
use cc_types::SimDuration;
use cc_workload::{Catalog, Workload};

use crate::engine::{policy_layers, EngineTally, FIXED_KEEPALIVE};
use crate::probe::{PullStats, TimedPolicy, TimedSource};
use crate::{
    check, for_seconds, repeated_setup, Measured, Outcome, SetupTimes, Size, Tally, Values,
    WorkCounts,
};

/// A generated `StreamingTrace` population and the workload resolved
/// from its function table. Shared by `stream` and `serve`.
pub(crate) struct StreamInputs {
    builder: StreamingTraceBuilder,
    pub workload: Workload,
    pub config: ClusterConfig,
    /// The next replay's stream, generated before its replay is timed.
    next: Option<StreamingTrace>,
    pub setup: SetupTimes,
}

impl StreamInputs {
    /// `StreamScenario::sized`'s generator with `seed`: `functions`
    /// functions, a `horizon_mins` horizon and a median per-function mean
    /// gap of `gap_mins`, on the 124-node stress cluster at warm cap 40%.
    pub(crate) fn new(seed: u64, functions: usize, horizon_mins: u64, gap_mins: u64) -> Self {
        let mut builder = StreamingTrace::builder();
        builder
            .functions(functions)
            .duration(SimDuration::from_mins(horizon_mins))
            .seed(seed)
            .mean_gap_median(SimDuration::from_mins(gap_mins));
        let start = Instant::now();
        let stream = builder.build();
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let workload = Workload::from_functions(
            stream.functions(),
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        let resolve_ms = start.elapsed().as_secs_f64() * 1e3;
        StreamInputs {
            builder,
            workload,
            config: ClusterConfig::small(52, 72).with_warm_memory_fraction(0.4),
            next: Some(stream),
            setup: SetupTimes {
                build_ms,
                resolve_ms,
            },
        }
    }

    /// The stream for the coming replay (identical for every replay).
    pub(crate) fn take_stream(&mut self) -> StreamingTrace {
        self.next.take().unwrap_or_else(|| self.builder.build())
    }

    /// Generates the next replay's stream now, outside any timed span.
    pub(crate) fn prepare_stream(&mut self) {
        if self.next.is_none() {
            self.next = Some(self.builder.build());
        }
    }
}

fn inputs(seed: u64, size: Size) -> StreamInputs {
    match size {
        // StreamScenario::million()'s generator (1M functions, 8 h median
        // gap), cut from 48 h to a horizon that replays in seconds.
        Size::Bench => StreamInputs::new(seed, 1_000_000, 150, 8 * 60),
        Size::Tiny => StreamInputs::new(seed, 2_000, 60, 30),
    }
}

struct Stream {
    inputs: StreamInputs,
    digest: Option<u64>,
}

impl Stream {
    fn options() -> ParallelOptions {
        ParallelOptions::default().without_records()
    }

    fn check_report(&mut self, report: &cc_sim::SimReport, problems: &mut Vec<String>) {
        let digest = report.digest();
        let first = *self.digest.get_or_insert(digest);
        check(problems, digest == first, || {
            format!("stream: digest {digest:#x} differs from the first replay's {first:#x}")
        });
        check(problems, report.stats.invocations() > 0, || {
            "stream: replay served no invocations".to_string()
        });
    }

    /// One untraced replay: (invocations per host second, simulated mean
    /// service time).
    fn op(&mut self, tally: &mut Tally) -> (f64, f64) {
        let mut problems = Vec::new();
        let source = self.inputs.take_stream();
        let mut policy = FixedKeepAlive::ten_minutes();
        let start = Instant::now();
        let result = run_parallel(
            &self.inputs.config,
            source,
            &self.inputs.workload,
            &mut policy,
            None::<io::Sink>,
            &Self::options(),
        );
        let wall = start.elapsed().as_secs_f64();
        self.inputs.prepare_stream();
        let result = match result {
            Ok((outcome, _)) => {
                self.check_report(&outcome.report, &mut problems);
                (
                    outcome.report.stats.invocations() as f64 / wall,
                    outcome.report.mean_service_time_secs(),
                )
            }
            Err(e) => {
                problems.push(format!("stream: run_parallel failed: {e}"));
                (0.0, 0.0)
            }
        };
        tally.record(problems);
        result
    }

    /// One traced replay through the probes and the profiled entry point.
    fn traced_op(&mut self, tally: &mut Tally) -> (f64, Values, WorkCounts) {
        let mut problems = Vec::new();
        let mut values = Values::new();
        let mut engine = EngineTally::default();
        let source = self.inputs.take_stream();
        let mut policy = FixedKeepAlive::ten_minutes();
        let mut timed = TimedPolicy::new(&mut policy);
        let mut pulls = PullStats::default();
        cc_prof::reset();
        cc_prof::set_wall_enabled(true);
        let start = Instant::now();
        let result = run_parallel_profiled::<_, io::Sink, WallProfiler>(
            &self.inputs.config,
            TimedSource::new(source, &mut pulls),
            &self.inputs.workload,
            &mut timed,
            None,
            &Self::options(),
        );
        let wall = start.elapsed().as_nanos() as u64;
        cc_prof::set_wall_enabled(false);
        let profile = cc_prof::take_profile("stream", wall);
        self.inputs.prepare_stream();
        let mut throughput = 0.0;
        let mut batches = 0;
        match result {
            Ok((outcome, _)) => {
                let report = &outcome.report;
                self.check_report(report, &mut problems);
                check(
                    &mut problems,
                    pulls.pulls == report.stats.invocations(),
                    || {
                        format!(
                            "stream: the feeder pulled {} arrivals but the engine served {}",
                            pulls.pulls,
                            report.stats.invocations()
                        )
                    },
                );
                // Arrivals are pulled on the feeder thread, concurrently
                // with the decision thread, so they are not subtracted.
                engine.add(&profile, report, wall, &timed.stats, &pulls, false);
                policy_layers(
                    &mut values,
                    FIXED_KEEPALIVE,
                    &timed.stats,
                    report.stats.invocations(),
                );
                values.insert("cc-sim.parallel.batches", outcome.batches as f64);
                batches = outcome.batches;
                throughput = report.stats.invocations() as f64 / (wall as f64 / 1e9);
            }
            Err(e) => problems.push(format!("stream: run_parallel failed: {e}")),
        }
        tally.record(problems);
        engine.layers(&mut values);
        self.inputs.setup.layers(&mut values);
        let mut counts = engine.counts();
        counts.push(("batches", batches));
        (throughput, values, counts)
    }
}

pub(crate) fn run(seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    let (inputs, setup) = repeated_setup(|| inputs(seed, size));
    let mut stream = Stream {
        inputs,
        digest: None,
    };
    let mut m = Measured::new(setup);
    let mut tally = Tally::default();
    if traced {
        for_seconds(seconds, 2, || {
            let (throughput, service) = stream.op(&mut tally);
            m.throughput.push(throughput);
            m.sim_service_s = service;
            let (throughput, values, counts) = stream.traced_op(&mut tally);
            m.traced_throughput.push(throughput);
            m.layer_runs.push(values);
            m.counts.push(counts);
        });
    } else {
        for_seconds(seconds, 1, || {
            let (throughput, service) = stream.op(&mut tally);
            m.throughput.push(throughput);
            m.sim_service_s = service;
        });
    }
    m.finish(tally, traced)
}
