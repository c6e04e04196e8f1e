//! `serve`: `cc_serve::Server` on a `VirtualClock` over the 20k-function
//! `StreamingTrace` population, fixed_keepalive, `NullSink` and the
//! default queue capacity.

use std::sync::Arc;
use std::time::Instant;

use cc_serve::{ServeOptions, Server, VirtualClock};
use cc_sim::{run_streaming, run_streaming_profiled, FixedKeepAlive, NullSink, WallProfiler};

use crate::engine::{policy_layers, EngineTally, FIXED_KEEPALIVE};
use crate::probe::{PullStats, TimedPolicy, TimedSource};
use crate::stream::StreamInputs;
use crate::{
    check, for_seconds, median, ratio, repeated_setup, Measured, Outcome, Size, Tally, Values,
    WorkCounts,
};

fn inputs(seed: u64, size: Size) -> StreamInputs {
    match size {
        // StreamScenario::smoke()'s generator: 20k functions, 12 h, 2 h
        // median gap.
        Size::Bench => StreamInputs::new(seed, 20_000, 12 * 60, 2 * 60),
        Size::Tiny => StreamInputs::new(seed, 500, 60, 30),
    }
}

struct Serve {
    inputs: StreamInputs,
    /// Digest of a batch `run_streaming` of the same stream.
    batch_digest: u64,
}

impl Serve {
    fn new(inputs: StreamInputs) -> Serve {
        let mut serve = Serve {
            inputs,
            batch_digest: 0,
        };
        serve.batch_digest = serve.batch().0.digest();
        serve
    }

    /// One untraced batch `run_streaming` of the same stream, and its host
    /// seconds.
    fn batch(&mut self) -> (cc_sim::SimReport, f64) {
        let source = self.inputs.take_stream();
        let mut policy = FixedKeepAlive::ten_minutes();
        let start = Instant::now();
        let report = run_streaming(
            &self.inputs.config,
            source,
            &self.inputs.workload,
            &mut policy,
            &mut NullSink,
            ServeOptions::default().collect_records,
        );
        let wall = start.elapsed().as_secs_f64();
        self.inputs.prepare_stream();
        (report, wall)
    }

    /// One untraced service run: (invocations per host second, simulated
    /// mean service time, host seconds).
    fn op(&mut self, tally: &mut Tally) -> (f64, f64, f64) {
        let mut problems = Vec::new();
        let source = self.inputs.take_stream();
        let server = Server::new(Arc::new(VirtualClock::new()), ServeOptions::default());
        let mut policy = FixedKeepAlive::ten_minutes();
        let start = Instant::now();
        let outcome = server.serve(
            &self.inputs.config,
            source,
            &self.inputs.workload,
            &mut policy,
            &mut NullSink,
        );
        let wall = start.elapsed().as_secs_f64();
        self.inputs.prepare_stream();
        self.check(&outcome, &mut problems);
        tally.record(problems);
        (
            outcome.report.stats.invocations() as f64 / wall,
            outcome.report.mean_service_time_secs(),
            wall,
        )
    }

    fn check(&self, outcome: &cc_serve::ServeOutcome, problems: &mut Vec<String>) {
        let q = &outcome.queue;
        check(
            problems,
            q.pushed == q.delivered && q.dropped_at_drain == 0,
            || {
                format!(
                    "serve: pushed {} delivered {} dropped {}",
                    q.pushed, q.delivered, q.dropped_at_drain
                )
            },
        );
        check(
            problems,
            outcome.report.stats.invocations() == q.delivered,
            || {
                format!(
                    "serve: served {} of {} delivered arrivals",
                    outcome.report.stats.invocations(),
                    q.delivered
                )
            },
        );
        let digest = outcome.report.digest();
        check(problems, digest == self.batch_digest, || {
            format!(
                "serve: digest {digest:#x} differs from the batch run's {:#x}",
                self.batch_digest
            )
        });
    }

    /// One untraced batch replay, checked against the first: host seconds.
    fn batch_wall(&mut self, tally: &mut Tally) -> f64 {
        let (report, wall) = self.batch();
        let mut problems = Vec::new();
        check(&mut problems, report.digest() == self.batch_digest, || {
            "serve: batch replays disagree".to_string()
        });
        tally.record(problems);
        wall
    }

    /// One traced service run (producer-side source probe, policy probe,
    /// queue counters) and one traced, profiled batch replay of the same
    /// stream for the engine layers, which `Server` does not profile.
    fn traced_op(&mut self, tally: &mut Tally) -> (f64, Values, WorkCounts) {
        let mut values = Values::new();
        let mut problems = Vec::new();
        let source = self.inputs.take_stream();
        let server = Server::new(Arc::new(VirtualClock::new()), ServeOptions::default());
        let mut policy = FixedKeepAlive::ten_minutes();
        let mut timed = TimedPolicy::new(&mut policy);
        let mut pulls = PullStats::default();
        let start = Instant::now();
        let outcome = server.serve(
            &self.inputs.config,
            TimedSource::new(source, &mut pulls),
            &self.inputs.workload,
            &mut timed,
            &mut NullSink,
        );
        let wall = start.elapsed().as_secs_f64();
        self.inputs.prepare_stream();
        self.check(&outcome, &mut problems);
        let invocations = outcome.report.stats.invocations();
        policy_layers(&mut values, FIXED_KEEPALIVE, &timed.stats, invocations);
        values.extend([
            (
                "cc-serve.push_ns",
                ratio(pulls.between_ns as f64, pulls.pulls as f64),
            ),
            ("cc-serve.peak_depth", outcome.queue.peak_depth as f64),
            ("cc-serve.pushed", outcome.queue.pushed as f64),
            ("cc-serve.delivered", outcome.queue.delivered as f64),
        ]);
        let throughput = invocations as f64 / wall;

        let source = self.inputs.take_stream();
        let mut policy = FixedKeepAlive::ten_minutes();
        let mut timed = TimedPolicy::new(&mut policy);
        let mut pulls = PullStats::default();
        cc_prof::reset();
        cc_prof::set_wall_enabled(true);
        let start = Instant::now();
        let report = run_streaming_profiled::<_, _, WallProfiler>(
            &self.inputs.config,
            TimedSource::new(source, &mut pulls),
            &self.inputs.workload,
            &mut timed,
            &mut NullSink,
            ServeOptions::default().collect_records,
        );
        let batch_wall = start.elapsed().as_nanos() as u64;
        cc_prof::set_wall_enabled(false);
        let profile = cc_prof::take_profile("serve-batch", batch_wall);
        self.inputs.prepare_stream();
        check(&mut problems, report.digest() == self.batch_digest, || {
            "serve: traced batch replay disagrees with the batch digest".to_string()
        });
        tally.record(problems);
        let mut engine = EngineTally::default();
        engine.add(&profile, &report, batch_wall, &timed.stats, &pulls, true);
        engine.layers(&mut values);
        self.inputs.setup.layers(&mut values);
        let mut counts = engine.counts();
        counts.push(("pushed", outcome.queue.pushed));
        (throughput, values, counts)
    }
}

pub(crate) fn run(seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    let (inputs, setup) = repeated_setup(|| inputs(seed, size));
    let mut serve = Serve::new(inputs);
    let mut m = Measured::new(setup);
    let mut tally = Tally::default();
    if traced {
        let (mut serve_walls, mut batch_walls) = (Vec::new(), Vec::new());
        for_seconds(seconds, 2, || {
            let (throughput, service, wall) = serve.op(&mut tally);
            m.throughput.push(throughput);
            m.sim_service_s = service;
            serve_walls.push(wall);
            batch_walls.push(serve.batch_wall(&mut tally));
            let (throughput, values, counts) = serve.traced_op(&mut tally);
            m.traced_throughput.push(throughput);
            m.layer_runs.push(values);
            m.counts.push(counts);
        });
        let overhead = ratio(median(&serve_walls), median(&batch_walls));
        for values in &mut m.layer_runs {
            values.insert("cc-serve.overhead_x", overhead);
        }
    } else {
        for_seconds(seconds, 1, || {
            let (throughput, service, _) = serve.op(&mut tally);
            m.throughput.push(throughput);
            m.sim_service_s = service;
        });
    }
    m.finish(tally, traced)
}
