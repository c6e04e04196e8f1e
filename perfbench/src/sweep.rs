//! `sweep`: the paper regime `expr` runs — all six policies replayed
//! serially over the standard scale with `NullSink`.

use std::time::Instant;

use cc_experiments::Scale;
use cc_policies::{FaasCache, IceBreaker, Oracle, SitW};
use cc_sim::{
    run_streaming_profiled, ClusterConfig, FixedKeepAlive, NullSink, Scheduler, Simulation,
    SliceSource, WallProfiler,
};
use cc_trace::Trace;
use cc_workload::Workload;
use codecrunch::CodeCrunch;

use crate::engine::{policy_layers, sre_layers, EngineTally};
use crate::probe::{PolicyStats, PullStats, TimedPolicy, TimedSource};
use crate::{
    check, for_seconds, repeated_setup, Measured, Outcome, SetupTimes, Size, Tally, Values,
};

/// Policies in sweep order; index 5 is codecrunch.
pub(crate) const POLICIES: usize = 6;
const CODECRUNCH: usize = 5;

/// The generated inputs of the sweep scale.
pub(crate) struct SweepInputs {
    pub trace: Trace,
    pub workload: Workload,
    pub config: ClusterConfig,
    oracle: Oracle,
    pub setup: SetupTimes,
}

impl SweepInputs {
    /// Generates the trace from `seed`, resolves the workload and builds
    /// the Oracle (the one policy whose construction reads the trace).
    pub(crate) fn new(seed: u64, size: Size) -> SweepInputs {
        let scale = match size {
            Size::Bench => Scale {
                seed,
                ..Scale::standard()
            },
            Size::Tiny => Scale {
                seed,
                ..Scale::smoke()
            },
        };
        let start = Instant::now();
        let trace = scale.trace();
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let workload = scale.workload(&trace);
        let resolve_ms = start.elapsed().as_secs_f64() * 1e3;
        let oracle = Oracle::new(&trace);
        SweepInputs {
            config: scale.cluster(),
            trace,
            workload,
            oracle,
            setup: SetupTimes {
                build_ms,
                resolve_ms,
            },
        }
    }

    /// A fresh policy, by sweep index.
    pub(crate) fn policy(&self, index: usize) -> Box<dyn Scheduler> {
        match index {
            0 => Box::new(FixedKeepAlive::ten_minutes()),
            1 => Box::new(SitW::new()),
            2 => Box::new(FaasCache::new()),
            3 => Box::new(IceBreaker::new()),
            4 => Box::new(self.oracle.clone()),
            CODECRUNCH => Box::new(CodeCrunch::new()),
            _ => unreachable!("six policies"),
        }
    }
}

struct Sweep {
    inputs: SweepInputs,
    /// Report digests of the first sweep, by policy.
    digests: Vec<u64>,
}

impl Sweep {
    /// Checks a replay's report against the first sweep's.
    fn check_report(
        &mut self,
        index: usize,
        report: &cc_sim::SimReport,
        problems: &mut Vec<String>,
    ) {
        let digest = report.digest();
        if self.digests.len() == index {
            self.digests.push(digest);
        }
        check(problems, digest == self.digests[index], || {
            format!(
                "sweep: {} digest {digest:#x} differs from the first replay's {:#x}",
                report.policy, self.digests[index]
            )
        });
        let expected = self.inputs.trace.invocations().len() as u64;
        check(problems, report.stats.invocations() == expected, || {
            format!(
                "sweep: {} served {} of {expected} invocations",
                report.policy,
                report.stats.invocations()
            )
        });
    }

    /// One untraced sweep: (invocations per host second, codecrunch's
    /// simulated mean service time).
    fn op(&mut self, tally: &mut Tally) -> (f64, f64) {
        let mut problems = Vec::new();
        let (mut invocations, mut wall, mut service) = (0u64, 0f64, 0f64);
        for index in 0..POLICIES {
            let mut policy = self.inputs.policy(index);
            let sim = Simulation::new(
                self.inputs.config.clone(),
                &self.inputs.trace,
                &self.inputs.workload,
            );
            let start = Instant::now();
            let report = sim.run(policy.as_mut());
            wall += start.elapsed().as_secs_f64();
            invocations += report.stats.invocations();
            if index == CODECRUNCH {
                service = report.mean_service_time_secs();
            }
            self.check_report(index, &report, &mut problems);
        }
        tally.record(problems);
        (invocations as f64 / wall, service)
    }

    /// One traced sweep: the same six replays through the probes and the
    /// profiled engine entry point.
    fn traced_op(&mut self, tally: &mut Tally) -> (f64, Values, crate::WorkCounts) {
        let mut problems = Vec::new();
        let mut values = Values::new();
        let mut engine = EngineTally::default();
        let mut sre = PolicyStats::default();
        let (mut invocations, mut wall_ns) = (0u64, 0u64);
        for index in 0..POLICIES {
            let mut policy = self.inputs.policy(index);
            let mut timed = TimedPolicy::new(policy.as_mut());
            let mut pulls = PullStats::default();
            cc_prof::reset();
            cc_prof::set_wall_enabled(true);
            let start = Instant::now();
            let report = run_streaming_profiled::<_, _, WallProfiler>(
                &self.inputs.config,
                TimedSource::new(SliceSource::from_trace(&self.inputs.trace), &mut pulls),
                &self.inputs.workload,
                &mut timed,
                &mut NullSink,
                true,
            );
            let wall = start.elapsed().as_nanos() as u64;
            cc_prof::set_wall_enabled(false);
            let profile = cc_prof::take_profile("sweep", wall);
            let stats = timed.stats;
            engine.add(&profile, &report, wall, &stats, &pulls, true);
            policy_layers(&mut values, index, &stats, report.stats.invocations());
            if index == CODECRUNCH {
                sre = stats;
            }
            invocations += report.stats.invocations();
            wall_ns += wall;
            self.check_report(index, &report, &mut problems);
        }
        tally.record(problems);
        engine.layers(&mut values);
        sre_layers(&mut values, &sre);
        self.inputs.setup.layers(&mut values);
        let mut counts = engine.counts();
        counts.push(("sre_evaluations", sre.evaluations));
        (invocations as f64 / (wall_ns as f64 / 1e9), values, counts)
    }
}

pub(crate) fn run(seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    let (inputs, setup) = repeated_setup(|| SweepInputs::new(seed, size));
    let mut sweep = Sweep {
        inputs,
        digests: Vec::new(),
    };
    let mut m = Measured::new(setup);
    let mut tally = Tally::default();
    if traced {
        for_seconds(seconds, 2, || {
            let (throughput, service) = sweep.op(&mut tally);
            m.throughput.push(throughput);
            m.sim_service_s = service;
            let (throughput, values, counts) = sweep.traced_op(&mut tally);
            m.traced_throughput.push(throughput);
            m.layer_runs.push(values);
            m.counts.push(counts);
        });
    } else {
        for_seconds(seconds, 1, || {
            let (throughput, service) = sweep.op(&mut tally);
            m.throughput.push(throughput);
            m.sim_service_s = service;
        });
    }
    m.finish(tally, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_digest_mismatch_is_a_failed_operation() {
        let mut sweep = Sweep {
            inputs: SweepInputs::new(5, Size::Tiny),
            digests: Vec::new(),
        };
        let mut tally = Tally::default();
        sweep.op(&mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        sweep.digests[2] ^= 1;
        sweep.op(&mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }
}
