//! Probes that time the program from outside, through its public traits:
//! a [`Scheduler`] wrapper, an [`ArrivalSource`] wrapper and an
//! [`io::Write`] wrapper. None of them changes what the program decides;
//! the report digest checks in the workloads confirm it on every traced run.

use std::io::{self, Write};
use std::time::Instant;

use cc_obs::OptimizerRound;
use cc_sim::{ArrivalSource, ClusterView, Command, KeepDecision, Scheduler, WarmInstance};
use cc_types::{Arch, FunctionId, Invocation, ServiceRecord, SimDuration, SimTime};

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// What a [`TimedPolicy`] saw over one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Host ns inside every callback except `on_interval`.
    pub callback_ns: u64,
    /// Host ns inside `on_interval` (where IceBreaker's FFT and
    /// CodeCrunch's SRE optimizer run).
    pub interval_ns: u64,
    /// Callbacks of any kind.
    pub calls: u64,
    /// SRE optimizer rounds drained from the policy.
    pub sre_rounds: u64,
    /// Objective evaluations those rounds consumed.
    pub evaluations: u64,
    /// Coordinates those rounds changed.
    pub accepted_moves: u64,
}

/// A [`Scheduler`] that forwards every callback and times it.
///
/// It turns the policy's optimizer introspection on and drains the
/// recorded rounds after each `on_interval`; the engine itself only does
/// that when a real event sink is attached, and the traced runs use
/// `NullSink`.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn Scheduler,
    /// Accumulated timings and counts.
    pub stats: PolicyStats,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner` and turns its optimizer introspection on.
    pub fn new(inner: &'a mut dyn Scheduler) -> TimedPolicy<'a> {
        inner.enable_introspection(true);
        TimedPolicy {
            inner,
            stats: PolicyStats::default(),
        }
    }

    fn callback(&mut self, start: Instant) {
        self.stats.callback_ns += ns_since(start);
        self.stats.calls += 1;
    }
}

impl Scheduler for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, function: FunctionId, now: SimTime) {
        let start = Instant::now();
        self.inner.on_arrival(function, now);
        self.callback(start);
    }

    fn on_record(&mut self, record: &ServiceRecord) {
        let start = Instant::now();
        self.inner.on_record(record);
        self.callback(start);
    }

    fn place(&mut self, function: FunctionId, view: &ClusterView<'_>) -> Arch {
        let start = Instant::now();
        let arch = self.inner.place(function, view);
        self.callback(start);
        arch
    }

    fn on_completion(
        &mut self,
        function: FunctionId,
        arch: Arch,
        view: &ClusterView<'_>,
    ) -> KeepDecision {
        let start = Instant::now();
        let decision = self.inner.on_completion(function, arch, view);
        self.callback(start);
        decision
    }

    fn on_interval(&mut self, view: &ClusterView<'_>) -> Vec<Command> {
        let start = Instant::now();
        let commands = self.inner.on_interval(view);
        self.stats.interval_ns += ns_since(start);
        self.stats.calls += 1;
        for round in self.inner.drain_optimizer_rounds() {
            self.stats.sre_rounds += 1;
            self.stats.evaluations += round.evaluations;
            self.stats.accepted_moves += round.accepted_moves;
        }
        commands
    }

    fn eviction_rank(&mut self, instance: &WarmInstance, view: &ClusterView<'_>) -> f64 {
        let start = Instant::now();
        let rank = self.inner.eviction_rank(instance, view);
        self.callback(start);
        rank
    }

    fn enable_introspection(&mut self, _enabled: bool) {
        // Introspection stays on: the rounds are counted in `on_interval`.
        self.inner.enable_introspection(true);
    }

    fn drain_optimizer_rounds(&mut self) -> Vec<OptimizerRound> {
        // Rounds were drained (and counted) in `on_interval`.
        Vec::new()
    }
}

/// What a [`TimedSource`] saw over one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PullStats {
    /// Invocations handed out.
    pub pulls: u64,
    /// Host ns inside `next_invocation`.
    pub pull_ns: u64,
    /// Host ns the caller spent between one pull's return and the next
    /// call: in `cc-serve`'s producer that is the queue push, including
    /// any backpressure wait.
    pub between_ns: u64,
}

/// An [`ArrivalSource`] that forwards to `inner` and times every pull.
pub struct TimedSource<'a, S> {
    inner: S,
    last_return: Option<Instant>,
    stats: &'a mut PullStats,
}

impl<'a, S: ArrivalSource> TimedSource<'a, S> {
    /// Wraps `inner`, accumulating into `stats` (which outlives the
    /// replay that consumes the source).
    pub fn new(inner: S, stats: &'a mut PullStats) -> TimedSource<'a, S> {
        TimedSource {
            inner,
            last_return: None,
            stats,
        }
    }
}

impl<S: ArrivalSource> ArrivalSource for TimedSource<'_, S> {
    fn next_invocation(&mut self) -> Option<Invocation> {
        let start = Instant::now();
        if let Some(last) = self.last_return {
            self.stats.between_ns += start.duration_since(last).as_nanos() as u64;
        }
        let inv = self.inner.next_invocation();
        let end = Instant::now();
        self.stats.pull_ns += end.duration_since(start).as_nanos() as u64;
        self.last_return = Some(end);
        if inv.is_some() {
            self.stats.pulls += 1;
        }
        inv
    }

    fn horizon(&self) -> SimDuration {
        self.inner.horizon()
    }

    fn len_hint(&self) -> usize {
        self.inner.len_hint()
    }
}

/// An [`io::Write`] that counts the bytes it forwards.
pub struct CountingWriter<W> {
    /// The wrapped writer.
    pub inner: W,
    /// Bytes written so far.
    pub bytes: u64,
}

impl<W: Write> CountingWriter<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> CountingWriter<W> {
        CountingWriter { inner, bytes: 0 }
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}
