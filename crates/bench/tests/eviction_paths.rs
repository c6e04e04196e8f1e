//! Differential test for `make_room`'s admission-order eviction path.
//!
//! Policies that declare `Scheduler::evicts_in_admission_order` evict
//! straight off a node's admission FIFO; every other policy ranks all of
//! the node's residents through `eviction_rank` and sorts. The declaration
//! promises that both paths pick the same victims. This test holds every
//! opted-in policy to it: each runs once as itself (FIFO path) and once
//! behind [`Ranked`], a forwarding wrapper that forwards everything except
//! the declaration and so forces the ranked path. The two report digests
//! must be equal. A policy that opts in while overriding `eviction_rank`
//! with a different order fails here.
//!
//! The small scenario evicts nothing at its default warm cap (it checks
//! that the wrapper is inert), so it also runs under a 5% cap, where every
//! policy evicts hundreds of instances. The 20k-function stream smoke
//! scenario evicts over 100k instances per policy; IceBreaker sits it out
//! because its per-interval FFT over 20k functions takes minutes per
//! replay even in release builds.

use bench::{BenchScenario, StreamScenario};
use cc_policies::{Enhanced, IceBreaker, SitW};
use cc_sim::{
    run_streaming, ClusterView, Command, FixedKeepAlive, KeepDecision, NullSink, OptimizerRound,
    Scheduler, SimReport, Simulation, WarmInstance,
};
use cc_types::{Arch, FunctionId, ServiceRecord, SimTime};
use codecrunch::CodeCrunch;

/// Forwards every callback to the wrapped policy except
/// `evicts_in_admission_order`, which keeps the default `false`, and
/// counts the `eviction_rank` calls the ranked path makes.
struct Ranked<'a> {
    inner: &'a mut dyn Scheduler,
    rank_calls: u64,
}

impl Scheduler for Ranked<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        self.inner.on_arrival(function, now);
    }

    fn on_record(&mut self, record: &ServiceRecord) {
        self.inner.on_record(record);
    }

    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        self.inner.place(function, view)
    }

    fn on_completion(
        &mut self,
        function: FunctionId,
        arch: Arch,
        view: &ClusterView<'_>,
    ) -> KeepDecision {
        self.inner.on_completion(function, arch, view)
    }

    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        self.inner.on_interval(view)
    }

    fn eviction_rank(&mut self, instance: &WarmInstance, view: &ClusterView<'_>) -> f64 {
        self.rank_calls += 1;
        self.inner.eviction_rank(instance, view)
    }

    fn enable_introspection(&mut self, enabled: bool) {
        self.inner.enable_introspection(enabled);
    }

    fn drain_optimizer_rounds(&mut self) -> Vec<OptimizerRound> {
        self.inner.drain_optimizer_rounds()
    }
}

/// The opted-in policies, freshly constructed; `with_icebreaker` adds
/// IceBreaker.
fn opted_in(with_icebreaker: bool) -> Vec<Box<dyn Scheduler>> {
    let mut policies: Vec<Box<dyn Scheduler>> = vec![
        Box::new(FixedKeepAlive::ten_minutes()),
        Box::new(SitW::new()),
        Box::new(CodeCrunch::new()),
        Box::new(Enhanced::new(SitW::new())),
    ];
    if with_icebreaker {
        policies.push(Box::new(IceBreaker::new()));
    }
    policies
}

/// Runs every opted-in policy through `run` directly and behind
/// [`Ranked`], asserting equal digests. Returns the total evictions and
/// rank calls of the ranked runs.
fn assert_paths_agree(
    scenario: &str,
    with_icebreaker: bool,
    run: impl Fn(&mut dyn Scheduler) -> SimReport,
) -> (u64, u64) {
    let (mut evictions, mut rank_calls) = (0, 0);
    let pairs = opted_in(with_icebreaker)
        .into_iter()
        .zip(opted_in(with_icebreaker));
    for (mut fifo, mut ranked) in pairs {
        assert!(
            fifo.evicts_in_admission_order(),
            "{} must declare admission-order eviction",
            fifo.name()
        );
        let direct = run(fifo.as_mut());
        let mut wrapper = Ranked {
            inner: ranked.as_mut(),
            rank_calls: 0,
        };
        let forced = run(&mut wrapper);
        assert_eq!(
            direct.digest(),
            forced.digest(),
            "{scenario}: {} evicts differently on the admission-order path",
            direct.policy
        );
        assert_eq!(direct.evictions, forced.evictions);
        evictions += forced.evictions;
        rank_calls += wrapper.rank_calls;
    }
    (evictions, rank_calls)
}

#[test]
fn admission_order_eviction_matches_ranked_on_the_small_scenario() {
    let scenario = BenchScenario::new();
    let sim = Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload);
    assert_paths_agree("small", true, |policy| sim.run(policy));

    let tight = scenario.config.clone().with_warm_memory_fraction(0.05);
    let sim = Simulation::new(tight, &scenario.trace, &scenario.workload);
    let (evictions, rank_calls) =
        assert_paths_agree("small at a 5% warm cap", true, |policy| sim.run(policy));
    assert!(evictions > 0, "the tight warm cap evicted nothing");
    assert!(rank_calls >= evictions, "the ranked path was not exercised");
}

#[test]
fn admission_order_eviction_matches_ranked_on_the_stream_smoke_scenario() {
    let scenario = StreamScenario::smoke();
    let (evictions, rank_calls) = assert_paths_agree("stream smoke", false, |policy| {
        run_streaming(
            &scenario.config,
            scenario.source(),
            &scenario.workload,
            policy,
            &mut NullSink,
            false,
        )
    });
    // The comparison is only meaningful if eviction actually ran.
    assert!(evictions > 0, "the stream smoke scenario evicted nothing");
    assert!(rank_calls >= evictions, "the ranked path was not exercised");
}
