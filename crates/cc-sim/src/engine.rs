//! The discrete-event simulation engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use cc_metrics::ServiceStats;
use cc_obs::{Event as ObsEvent, EventSink, IntervalSample, NullSink, ReleaseReason};
use cc_prof::{NullProfiler, PerfCounter, Phase, Profiler, Scope};
use cc_trace::{Perturbation, Trace};
use cc_types::{
    Arch, Cost, FunctionId, Invocation, MemoryMb, NodeId, ServiceRecord, SimDuration, SimTime,
    StartKind, WarmId, KEEP_ALIVE_MAX,
};
use cc_workload::Workload;

use crate::node::{NodeState, WarmInstance};
use crate::pool::WarmPool;
use crate::source::{ArrivalSource, Fetch, SliceSource};
use crate::{BudgetLedger, ClusterConfig, ClusterView, Command, Scheduler, SimReport};

/// Placement-order key for one node: least busy first, most free memory
/// next (`Reverse`), node id as the deterministic tie-break. Because every
/// node of a cluster has the same core count, fully-busy nodes sort after
/// every node with a free core, so a placement scan can stop at the first
/// key whose node has no free core.
type NodeOrderKey = (u32, Reverse<MemoryMb>, NodeId);

fn node_order_key(node: &NodeState) -> NodeOrderKey {
    (node.busy_cores, Reverse(node.free_memory()), node.id)
}

/// A configured simulation, ready to run a policy over a trace.
///
/// Running is deterministic: the same `(config, trace, workload, policy)`
/// always produces the same report.
pub struct Simulation<'a> {
    config: ClusterConfig,
    trace: &'a Trace,
    workload: &'a Workload,
    perturbations: Vec<Perturbation>,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or the workload does not cover the
    /// trace's functions.
    pub fn new(config: ClusterConfig, trace: &'a Trace, workload: &'a Workload) -> Self {
        config.validate();
        assert_eq!(
            workload.len(),
            trace.functions().len(),
            "workload must resolve every trace function"
        );
        Simulation {
            config,
            trace,
            workload,
            perturbations: Vec::new(),
        }
    }

    /// Adds unannounced perturbations (input changes); burst perturbations
    /// should instead be applied to the trace via
    /// [`Perturbation::apply_to_trace`].
    pub fn with_perturbations(mut self, perturbations: Vec<Perturbation>) -> Self {
        self.perturbations = perturbations;
        self
    }

    /// Runs the policy over the whole trace and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (an invocation can never be
    /// placed), which indicates an impossible configuration such as a
    /// function larger than any node.
    pub fn run(&self, policy: &mut dyn Scheduler) -> SimReport {
        self.run_with_sink(policy, &mut NullSink)
    }

    /// Runs the policy with an [`EventSink`] observing the full typed event
    /// stream (arrivals, starts, warm-pool churn, budget flow, optimizer
    /// progress).
    ///
    /// The engine is monomorphized over `S` and every emission site is
    /// guarded by `S::ENABLED`, so `run` (which passes [`NullSink`])
    /// compiles to exactly the uninstrumented hot path. A sink never
    /// changes simulation behavior: the report is identical with or
    /// without one.
    ///
    /// # Panics
    ///
    /// As for [`Simulation::run`].
    pub fn run_with_sink<S: EventSink>(
        &self,
        policy: &mut dyn Scheduler,
        sink: &mut S,
    ) -> SimReport {
        self.run_with_sink_profiled::<S, NullProfiler>(policy, sink)
    }

    /// Runs the policy with both an [`EventSink`] and a
    /// [`cc_prof::Profiler`] observing the engine's own wall-clock phases.
    ///
    /// Mirrors the sink contract: the engine is monomorphized over `P` and
    /// every probe is guarded by `P::ENABLED`, so the
    /// [`NullProfiler`] instantiation (what [`Simulation::run_with_sink`]
    /// uses) is the exact uninstrumented hot path, and profiling never
    /// changes simulation behavior or its report.
    ///
    /// # Panics
    ///
    /// As for [`Simulation::run`].
    pub fn run_with_sink_profiled<S: EventSink, P: Profiler>(
        &self,
        policy: &mut dyn Scheduler,
        sink: &mut S,
    ) -> SimReport {
        let mut engine = Engine::<_, _, P>::new(
            &self.config,
            SliceSource::from_trace(self.trace),
            self.workload,
            &self.perturbations,
            sink,
            true,
        );
        engine.run(policy)
    }
}

/// Runs a policy over an arbitrary [`ArrivalSource`] — e.g. a
/// constant-memory streaming trace — without materializing the invocation
/// stream. Behaviorally identical to [`Simulation::run_with_sink`] fed the
/// same invocations in the same order.
///
/// `collect_records` controls whether per-invocation [`ServiceRecord`]s
/// are kept in the report: a multi-day million-function replay would
/// otherwise hold every record in RAM. With `false` the report's `records`
/// vector stays empty (aggregated stats, series, and counters are
/// unaffected, but [`SimReport::digest`] covers records, so compare
/// digests only between runs using the same setting).
///
/// # Panics
///
/// As for [`Simulation::run`].
pub fn run_streaming<Src: ArrivalSource, S: EventSink>(
    config: &ClusterConfig,
    source: Src,
    workload: &Workload,
    policy: &mut dyn Scheduler,
    sink: &mut S,
    collect_records: bool,
) -> SimReport {
    run_streaming_profiled::<Src, S, NullProfiler>(
        config,
        source,
        workload,
        policy,
        sink,
        collect_records,
    )
}

/// [`run_streaming`] with a [`cc_prof::Profiler`] observing the engine's
/// own wall-clock phases (see [`Simulation::run_with_sink_profiled`]).
///
/// # Panics
///
/// As for [`Simulation::run`].
pub fn run_streaming_profiled<Src: ArrivalSource, S: EventSink, P: Profiler>(
    config: &ClusterConfig,
    source: Src,
    workload: &Workload,
    policy: &mut dyn Scheduler,
    sink: &mut S,
    collect_records: bool,
) -> SimReport {
    config.validate();
    let mut engine = Engine::<_, _, P>::new(config, source, workload, &[], sink, collect_records);
    engine.run(policy)
}

/// Event classes, in processing-priority order at equal timestamps:
/// capacity-freeing events run before capacity-consuming ones.
///
/// Class 1 (keep-alive expiry) has no heap variant: expirations are served
/// straight from the warm pool's expiry calendar ([`WarmPool::next_expiry`]),
/// which the main loop merges into the event order at exactly the position
/// the per-admission `Expiry` heap events used to occupy — see
/// [`EXPIRY_CLASS`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    /// Optimization-interval tick.
    Tick,
    /// An execution completes.
    Completion {
        function: FunctionId,
        node: NodeId,
        memory: MemoryMb,
    },
    /// A pre-warm finishes its cold start and joins the pool.
    PrewarmReady {
        function: FunctionId,
        node: NodeId,
        keep_alive: SimDuration,
        compress: bool,
    },
    /// A trace invocation arrives (index into the invocation stream).
    Arrival(usize),
}

/// The event class of a keep-alive expiry. Expirations live in the pool's
/// calendar rather than the heap, so the class constant is what slots them
/// between ticks (class 0) and completions (class 2) at equal timestamps.
const EXPIRY_CLASS: u8 = 1;

/// The event class of an arrival — the highest, so it doubles as the
/// ceiling for paced internal processing: when a live source concedes
/// time up to `t` (`Fetch::NotBefore`), internal events at exactly `t`
/// still order before any arrival that may land at `t`.
const ARRIVAL_CLASS: u8 = 4;

impl EventKind {
    fn class(&self) -> u8 {
        match self {
            EventKind::Tick => 0,
            EventKind::Completion { .. } => 2,
            EventKind::PrewarmReady { .. } => 3,
            EventKind::Arrival(_) => ARRIVAL_CLASS,
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.at, other.kind.class(), other.seq).cmp(&(self.at, self.kind.class(), self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Engine<'a, Src: ArrivalSource, S: EventSink, P: Profiler> {
    /// Wall-clock profiler; every probe is guarded by `P::ENABLED`, so the
    /// [`NullProfiler`] instantiation contains no profiling code at all.
    _profiler: std::marker::PhantomData<P>,
    config: &'a ClusterConfig,
    source: Src,
    /// The invocation behind the next `Arrival` heap event, pulled from
    /// the source at the top of the main loop. The engine never needs
    /// more lookahead than this one slot.
    upcoming: Option<Invocation>,
    /// Whether the source reported [`Fetch::Exhausted`].
    exhausted: bool,
    /// Arrival timestamp of the last pulled invocation (source-order
    /// monotonicity debug check).
    last_pulled: SimTime,
    /// Invocations pulled from the source so far.
    arrived: usize,
    workload: &'a Workload,
    perturbations: &'a [Perturbation],
    /// Event sink; every `sink.record` call is guarded by `S::ENABLED`, so
    /// the [`NullSink`] instantiation contains no telemetry code at all.
    sink: &'a mut S,

    now: SimTime,
    nodes: Vec<NodeState>,
    pool: WarmPool,
    /// Per architecture: all nodes' keys as a sorted vector in
    /// [`NodeOrderKey`] order, kept in sync with every node-state mutation
    /// through [`Engine::mutate_node`]. A cluster has tens to hundreds of
    /// nodes, so re-sorting one key is a short in-place shift that never
    /// allocates.
    node_order: [Vec<NodeOrderKey>; 2],
    ledger: BudgetLedger,
    /// Queued invocations as `(arrival index, invocation)`: the invocation
    /// rides along so retries never need to re-address the source.
    pending: VecDeque<(usize, Invocation)>,
    /// Bumped whenever placement capacity is freed or the evictable set
    /// grows (execution finish, instance removal, warm admission). Lets
    /// [`Engine::drain_pending`] skip re-running a placement attempt that
    /// already failed against identical capacity.
    capacity_epoch: u64,
    /// The head-of-line pending entry that last failed, and the capacity
    /// epoch it failed at.
    last_retry_failure: Option<(usize, u64)>,
    events: BinaryHeap<Event>,
    seq: u64,

    // Reusable scratch buffers: the hot path (try_start/make_room) borrows
    // these instead of allocating per arrival.
    scratch_candidates: Vec<WarmId>,
    scratch_nodes: Vec<NodeId>,
    scratch_ranked: Vec<(f64, u64, WarmId)>,

    stats: ServiceStats,
    /// Whether per-invocation records are retained (see [`run_streaming`]).
    collect_records: bool,
    records: Vec<ServiceRecord>,
    spend_per_interval: Vec<f64>,
    last_spent: Cost,
    warm_pool_series: Vec<f64>,
    compressed_series: Vec<f64>,
    compression_events: u64,
    compression_events_per_interval: Vec<f64>,
    last_compression_events: u64,
    utilization_series: Vec<f64>,
    evictions: u64,
    dropped_prewarms: u64,
    completed: usize,
}

impl<'a, Src: ArrivalSource, S: EventSink, P: Profiler> Engine<'a, Src, S, P> {
    fn new(
        config: &'a ClusterConfig,
        source: Src,
        workload: &'a Workload,
        perturbations: &'a [Perturbation],
        sink: &'a mut S,
        collect_records: bool,
    ) -> Self {
        let mut nodes = Vec::with_capacity(config.total_nodes() as usize);
        for arch in Arch::ALL {
            for _ in 0..config.nodes_of(arch) {
                let id = NodeId::new(nodes.len() as u32);
                nodes.push(NodeState::new(
                    id,
                    arch,
                    config.cores_per_node,
                    config.memory_per_node,
                ));
            }
        }
        let ledger = match config.budget_per_interval {
            Some(rate) => BudgetLedger::budgeted(rate, config.interval),
            None => BudgetLedger::unlimited(config.interval),
        };
        let mut node_order: [Vec<NodeOrderKey>; 2] = [Vec::new(), Vec::new()];
        for node in &nodes {
            node_order[node.arch.index()].push(node_order_key(node));
        }
        for order in &mut node_order {
            order.sort_unstable();
        }
        let pool = WarmPool::new(workload.len(), nodes.len());
        let len_hint = if collect_records {
            source.len_hint()
        } else {
            0
        };
        Engine {
            _profiler: std::marker::PhantomData,
            config,
            source,
            upcoming: None,
            exhausted: false,
            last_pulled: SimTime::ZERO,
            arrived: 0,
            workload,
            perturbations,
            sink,
            now: SimTime::ZERO,
            nodes,
            pool,
            node_order,
            ledger,
            pending: VecDeque::new(),
            capacity_epoch: 0,
            last_retry_failure: None,
            events: BinaryHeap::new(),
            seq: 0,
            scratch_candidates: Vec::new(),
            scratch_nodes: Vec::new(),
            scratch_ranked: Vec::new(),
            stats: ServiceStats::new(config.interval),
            collect_records,
            records: Vec::with_capacity(len_hint),
            spend_per_interval: Vec::new(),
            last_spent: Cost::ZERO,
            warm_pool_series: Vec::new(),
            compressed_series: Vec::new(),
            compression_events: 0,
            compression_events_per_interval: Vec::new(),
            last_compression_events: 0,
            utilization_series: Vec::new(),
            evictions: 0,
            dropped_prewarms: 0,
            completed: 0,
        }
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        self.events.push(Event {
            at,
            seq: self.seq,
            kind,
        });
    }

    /// Refunds `amount` to the ledger, emitting a budget-credit event for
    /// non-zero refunds. The emitted amount is what the ledger actually
    /// credited back (the ledger clamps refunds to its outstanding
    /// reservations; engine refunds are always pro-rata tails of real
    /// reservations, so the clamp never bites here).
    fn credit(&mut self, amount: Cost) {
        let refunded = self.ledger.refund(amount);
        debug_assert_eq!(refunded, amount, "engine refund exceeded outstanding");
        if S::ENABLED && !refunded.is_zero() {
            self.sink.record(&ObsEvent::BudgetCredit {
                at: self.now,
                amount: refunded,
            });
        }
    }

    fn view(&self) -> ClusterView<'_> {
        ClusterView::new(
            self.now,
            self.config,
            &self.nodes,
            &self.pool,
            &self.ledger,
            self.workload,
            self.pending.len(),
        )
    }

    /// Mutates one node's state while keeping the per-arch placement index
    /// in sync: the node's order key is located before the mutation, and
    /// after it the keys between the old and the new position shift by
    /// one to make room for the new key.
    fn mutate_node<R>(&mut self, node: NodeId, f: impl FnOnce(&mut NodeState) -> R) -> R {
        let state = &self.nodes[node.index()];
        let arch = state.arch.index();
        let old = self.node_order[arch]
            .binary_search(&node_order_key(state))
            .expect("placement index out of sync with node state");
        let result = f(&mut self.nodes[node.index()]);
        let key = node_order_key(&self.nodes[node.index()]);
        let order = &mut self.node_order[arch];
        // Keys are unique (the node id breaks ties), so `target` counts the
        // other keys below the new one, plus the old key if it was below.
        let target = order.partition_point(|k| *k < key);
        if target > old {
            order[old..target].rotate_left(1);
            order[target - 1] = key;
        } else {
            order[target..=old].rotate_right(1);
            order[target] = key;
        }
        result
    }

    /// The instant of the engine's next internal event (heap head or
    /// expiry-calendar head), used as the deadline for a live source pull.
    fn next_internal_at(&self) -> Option<SimTime> {
        let heap = self.events.peek().map(|e| e.at);
        let expiry = self.pool.next_expiry().map(|(at, _, _)| at);
        match (heap, expiry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn run(&mut self, policy: &mut dyn Scheduler) -> SimReport {
        // Root span: everything below (arrivals, completions, ticks,
        // expiry drains) nests under it, so a profile's self-time sum
        // covers the whole run by construction.
        let _run_span = P::scope(Phase::EngineRun);
        if S::ENABLED {
            // Introspection recording must not change policy decisions
            // (golden-tested), only make round telemetry available.
            policy.enable_introspection(true);
        }
        self.push(SimTime::ZERO, EventKind::Tick);

        loop {
            // Keep the next arrival (if any) represented in the heap. For
            // batch sources the fetch is always ready, so this is the old
            // one-slot lookahead; a live source may instead answer
            // `NotBefore` (process internal events up to the deadline and
            // ask again) once time-paces the stream.
            let mut paced_limit: Option<SimTime> = None;
            if self.upcoming.is_none() && !self.exhausted {
                match self.source.fetch(self.next_internal_at()) {
                    Fetch::Ready(inv) => {
                        debug_assert!(
                            inv.arrival >= self.last_pulled,
                            "source must be time-sorted"
                        );
                        self.last_pulled = inv.arrival;
                        // A live source can deliver an arrival late (burst
                        // catch-up); schedule it for immediate processing
                        // without letting heap time run backwards.
                        let at = if inv.arrival > self.now {
                            inv.arrival
                        } else {
                            self.now
                        };
                        self.push(at, EventKind::Arrival(self.arrived));
                        self.upcoming = Some(inv);
                    }
                    Fetch::NotBefore(t) => paced_limit = Some(t),
                    Fetch::Exhausted => self.exhausted = true,
                }
            }
            // The expiry calendar is the heap's class-1 lane: drain every
            // expiration strictly ordered before the next heap event (by
            // the usual `(at, class)` key) in one pass, then pop the heap.
            //
            // `NotBefore(limit)` only licenses internal processing up to
            // `limit` — an arrival may land anywhere after it, so both the
            // expiry drain and the heap pop are capped there and the loop
            // re-fetches before touching anything later. Events exactly AT
            // the limit are safe: arrivals carry the highest class, so
            // every internal event at `limit` orders before an arrival
            // that shows up at the same instant.
            let next_heap = self.events.peek().map(|e| (e.at, e.kind.class()));
            let expiry_barrier = match paced_limit {
                Some(limit) => {
                    let cap = (limit, ARRIVAL_CLASS);
                    Some(next_heap.map_or(cap, |next| next.min(cap)))
                }
                None => next_heap,
            };
            self.drain_due_expiries(expiry_barrier);
            let poppable = match (paced_limit, self.events.peek()) {
                (Some(limit), Some(event)) => event.at <= limit,
                (None, Some(_)) => true,
                (_, None) => false,
            };
            if !poppable {
                if self.events.peek().is_none() && self.exhausted {
                    break;
                }
                // Either a live source with nothing scheduled (block in
                // the next fetch — deadline-free fetch never returns
                // `NotBefore`), or everything left lies beyond the paced
                // limit: ask the source again with a fresh deadline.
                continue;
            }
            let event = self.events.pop().expect("poppable event");
            debug_assert!(event.at >= self.now, "time must not run backwards");
            self.now = event.at;
            match event.kind {
                EventKind::Tick => self.handle_tick(policy),
                EventKind::Completion {
                    function,
                    node,
                    memory,
                } => self.handle_completion(function, node, memory, policy),
                EventKind::PrewarmReady {
                    function,
                    node,
                    keep_alive,
                    compress,
                } => self.handle_prewarm_ready(function, node, keep_alive, compress, policy),
                EventKind::Arrival(index) => self.handle_arrival(index, policy),
            }
        }

        assert!(
            self.pending.is_empty(),
            "simulation deadlocked with {} invocations unplaceable",
            self.pending.len()
        );
        assert_eq!(
            self.completed, self.arrived,
            "every invocation must complete exactly once"
        );

        SimReport {
            policy: policy.name().to_owned(),
            stats: std::mem::replace(&mut self.stats, ServiceStats::new(self.config.interval)),
            records: std::mem::take(&mut self.records),
            keep_alive_spend: self.ledger.spent(),
            spend_per_interval: std::mem::take(&mut self.spend_per_interval),
            warm_pool_series: std::mem::take(&mut self.warm_pool_series),
            compressed_series: std::mem::take(&mut self.compressed_series),
            compression_events: self.compression_events,
            compression_events_per_interval: std::mem::take(
                &mut self.compression_events_per_interval,
            ),
            utilization_series: std::mem::take(&mut self.utilization_series),
            evictions: self.evictions,
            dropped_prewarms: self.dropped_prewarms,
        }
    }

    fn handle_arrival(&mut self, index: usize, policy: &mut dyn Scheduler) {
        let _span = P::scope(Phase::Arrival);
        let inv = self
            .upcoming
            .take()
            .expect("arrival event without a pulled invocation");
        // Equality in batch mode; a live source delivering late (burst
        // catch-up) processes the arrival at delivery time while `wait`
        // still measures from the recorded arrival instant.
        debug_assert!(inv.arrival <= self.now, "arrival event out of step");
        self.arrived += 1;
        let function = inv.function;
        if S::ENABLED {
            self.sink.record(&ObsEvent::Arrival {
                at: self.now,
                function,
            });
        }
        {
            let _decision = P::scope(Phase::PolicyDecision);
            policy.on_arrival(function, self.now);
        }

        if self.pending.is_empty() && self.try_start(inv, policy) {
            return;
        }
        self.pending.push_back((index, inv));
        if S::ENABLED {
            self.sink.record(&ObsEvent::Queued {
                at: self.now,
                function,
                depth: self.pending.len() as u64,
            });
        }
    }

    /// Attempts to start `inv` right now. Returns false if no capacity
    /// exists anywhere.
    fn try_start(&mut self, inv: Invocation, policy: &mut dyn Scheduler) -> bool {
        let memory = self.workload.spec(inv.function).memory;
        self.try_reuse(inv.function, inv.arrival, memory, policy)
            || self.try_cold(inv.function, inv.arrival, memory, policy)
    }

    /// Tries to reuse a warm instance: cheapest start penalty first, then
    /// the instance closest to expiry (save the freshest ones). The pool's
    /// candidate index holds the instances in exactly this order; snapshot
    /// the ids into a scratch buffer because an eviction inside
    /// `make_room` mutates the index mid-walk.
    fn try_reuse(
        &mut self,
        function: FunctionId,
        arrival: SimTime,
        memory: MemoryMb,
        policy: &mut dyn Scheduler,
    ) -> bool {
        self.pool.migrate_due(self.now);
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        candidates.extend(self.pool.candidates_of(function));
        if P::ENABLED {
            P::add(PerfCounter::CandidateProbes, candidates.len() as u64);
        }

        let mut started = false;
        for &id in &candidates {
            let inst = self
                .pool
                .get(id)
                .expect("candidate index must only hold live instances");
            let node = inst.node;
            let extra = memory.saturating_sub(inst.memory);
            let kind = if inst.pays_decompression(self.now) {
                StartKind::WarmCompressed
            } else {
                StartKind::WarmUncompressed
            };
            let refund = inst.refundable_at(self.now);
            if self.nodes[node.index()].free_cores() == 0 {
                continue;
            }
            if self.nodes[node.index()].free_memory() < extra
                && !self.make_room(node, extra, Some(id), policy)
            {
                continue;
            }
            // Reuse this instance. A failed make_room evicts nothing, so
            // every snapshot id after a failure is still live; a successful
            // one leads straight here.
            self.credit(refund);
            self.remove_instance(id, ReleaseReason::Reused);
            self.start_execution(function, arrival, node, kind, policy);
            started = true;
            break;
        }
        candidates.clear();
        self.scratch_candidates = candidates;
        started
    }

    /// Cold start: the policy chooses the architecture; spill over to the
    /// other one if the preferred side is saturated. Nodes are taken in
    /// placement order (least busy, then most free memory) straight from
    /// the incrementally maintained per-arch index.
    fn try_cold(
        &mut self,
        function: FunctionId,
        arrival: SimTime,
        memory: MemoryMb,
        policy: &mut dyn Scheduler,
    ) -> bool {
        let preferred = {
            let _decision = P::scope(Phase::PolicyDecision);
            policy.place(function, &self.view())
        };

        for arch in [preferred, preferred.other()] {
            let Some(&(_, _, first)) = self.node_order[arch.index()].first() else {
                continue;
            };
            if self.nodes[first.index()].free_cores() == 0 {
                // Uniform core counts: the best-ordered node being full
                // means every node of this arch is full.
                continue;
            }
            // Fast path: the best-ordered node fits without eviction.
            if self.nodes[first.index()].free_memory() >= memory {
                self.start_execution(function, arrival, first, StartKind::Cold, policy);
                return true;
            }
            // Slow path: walk nodes in placement order, evicting to make
            // room. Snapshot the ids (evictions re-key the order index).
            let mut node_ids = std::mem::take(&mut self.scratch_nodes);
            node_ids.clear();
            node_ids.extend(
                self.node_order[arch.index()]
                    .iter()
                    .take_while(|&&(busy, _, _)| busy < self.config.cores_per_node)
                    .map(|&(_, _, id)| id),
            );
            if P::ENABLED {
                P::add(PerfCounter::NodeScanProbes, node_ids.len() as u64);
            }
            let mut placed = false;
            for &node_id in &node_ids {
                let free = self.nodes[node_id.index()].free_memory();
                if free < memory {
                    let deficit = memory - free;
                    if !self.make_room(node_id, deficit, None, policy) {
                        continue;
                    }
                }
                self.start_execution(function, arrival, node_id, StartKind::Cold, policy);
                placed = true;
                break;
            }
            node_ids.clear();
            self.scratch_nodes = node_ids;
            if placed {
                return true;
            }
        }
        false
    }

    /// Frees at least `deficit` of memory on `node` by evicting warm
    /// instances in policy-rank order. Returns false (evicting nothing) if
    /// even evicting everything would not suffice.
    ///
    /// Only `node`'s own residents are examined — the node-state
    /// `warm_memory` counter answers the "would evicting everything
    /// suffice?" question in O(1), and the pool's residency list supplies
    /// the victims without a cluster-wide scan. A policy whose rank is the
    /// admission order ([`Scheduler::evicts_in_admission_order`]) evicts
    /// straight off the node's FIFO, stopping once the deficit is freed;
    /// any other policy ranks every resident, in admission order because
    /// stateful policies (e.g. FaasCache's greedy-dual clock) observe the
    /// ranking call order, and evicts in `(rank, seq)` order.
    fn make_room(
        &mut self,
        node: NodeId,
        deficit: MemoryMb,
        exclude: Option<WarmId>,
        policy: &mut dyn Scheduler,
    ) -> bool {
        let excluded_memory = match exclude {
            Some(id) => {
                let inst = self.pool.get(id).expect("excluded instance must be live");
                debug_assert_eq!(inst.node, node, "exclusion only applies to residents");
                inst.memory
            }
            None => MemoryMb::ZERO,
        };
        let evictable = self.nodes[node.index()]
            .warm_memory
            .saturating_sub(excluded_memory);
        #[cfg(debug_assertions)]
        assert_eq!(
            self.nodes[node.index()].warm_memory,
            self.pool.resident_memory(node),
            "warm-memory counter out of sync with residency index"
        );
        if evictable < deficit {
            return false;
        }
        let _span = P::scope(Phase::PoolEvict);
        if policy.evicts_in_admission_order() {
            self.evict_oldest(node, deficit, exclude);
            return true;
        }
        let mut ranked = std::mem::take(&mut self.scratch_ranked);
        ranked.clear();
        {
            let _decision = P::scope(Phase::PolicyDecision);
            let view = self.view();
            for id in self.pool.residents_of(node) {
                if Some(id) == exclude {
                    continue;
                }
                let inst = self
                    .pool
                    .get(id)
                    .expect("residency index must only hold live instances");
                ranked.push((policy.eviction_rank(inst, &view), inst.seq, id));
            }
        }
        if P::ENABLED {
            P::add(PerfCounter::EvictionsRanked, ranked.len() as u64);
        }
        ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut freed = MemoryMb::ZERO;
        for &(_, _, id) in &ranked {
            if freed >= deficit {
                break;
            }
            freed += self.evict(id);
        }
        ranked.clear();
        self.scratch_ranked = ranked;
        true
    }

    /// [`Engine::make_room`]'s admission-order path: evicts `node`'s
    /// residents oldest first (skipping `exclude`) until `deficit` is
    /// freed. The caller has checked that the evictable memory suffices.
    fn evict_oldest(&mut self, node: NodeId, deficit: MemoryMb, exclude: Option<WarmId>) {
        let mut freed = MemoryMb::ZERO;
        let mut evicted = 0u64;
        while freed < deficit {
            // The oldest resident, or the one after it if it is excluded.
            let id = self
                .pool
                .residents_of(node)
                .find(|&id| Some(id) != exclude)
                .expect("evictable memory covers the deficit");
            freed += self.evict(id);
            evicted += 1;
        }
        if P::ENABLED {
            P::add(PerfCounter::EvictionsRanked, evicted);
        }
    }

    /// Evicts the live instance `id`, refunding its unused reservation.
    /// Returns the memory it freed.
    fn evict(&mut self, id: WarmId) -> MemoryMb {
        let inst = self.pool.get(id).expect("eviction victim must be live");
        let memory = inst.memory;
        let refund = inst.refundable_at(self.now);
        self.credit(refund);
        self.remove_instance(id, ReleaseReason::Evicted);
        self.evictions += 1;
        memory
    }

    /// Starts an execution of `function` on `node` and emits its service
    /// record immediately (all components are known up front).
    fn start_execution(
        &mut self,
        function: FunctionId,
        arrival: SimTime,
        node: NodeId,
        kind: StartKind,
        policy: &mut dyn Scheduler,
    ) {
        let spec = self.workload.spec(function);
        let arch = self.nodes[node.index()].arch;
        let factor: f64 = self
            .perturbations
            .iter()
            .map(|p| p.exec_factor_at(arrival))
            .product();
        let execution = spec.exec_time(arch).scale(factor);
        let start_penalty = match kind {
            StartKind::Cold => spec
                .cold_start(arch)
                .scale(self.config.runtime.cold_start_scale()),
            StartKind::WarmCompressed => spec.decompress_time(arch),
            StartKind::WarmUncompressed => SimDuration::ZERO,
        };
        let record = ServiceRecord {
            function,
            arrival,
            wait: self.now.saturating_since(arrival),
            start_penalty,
            execution,
            kind,
            arch,
        };
        self.stats.observe(&record);
        if S::ENABLED {
            self.sink.record(&ObsEvent::ExecutionStarted {
                at: self.now,
                function,
                node,
                arch,
                kind,
                wait: record.wait,
                start_penalty,
                execution,
            });
        }
        {
            let _decision = P::scope(Phase::PolicyDecision);
            policy.on_record(&record);
        }
        if self.collect_records {
            self.records.push(record);
        }

        let memory = spec.memory;
        self.mutate_node(node, |n| n.start_execution(memory));
        let finish = self.now + start_penalty + execution;
        self.push(
            finish,
            EventKind::Completion {
                function,
                node,
                memory,
            },
        );
    }

    fn handle_completion(
        &mut self,
        function: FunctionId,
        node: NodeId,
        memory: MemoryMb,
        policy: &mut dyn Scheduler,
    ) {
        let _span = P::scope(Phase::Completion);
        self.mutate_node(node, |n| n.finish_execution(memory));
        self.capacity_epoch += 1;
        self.completed += 1;

        let arch = self.nodes[node.index()].arch;
        let decision = {
            let _decision = P::scope(Phase::PolicyDecision);
            policy.on_completion(function, arch, &self.view())
        };
        self.admit_warm(
            function,
            node,
            decision.keep_alive,
            decision.compress,
            policy,
        );
        self.drain_pending(policy);
    }

    /// Admits a freshly-finished (or pre-warmed) instance into the warm
    /// pool, enforcing the warm-memory cap and the budget.
    fn admit_warm(
        &mut self,
        function: FunctionId,
        node: NodeId,
        keep_alive: SimDuration,
        compress: bool,
        policy: &mut dyn Scheduler,
    ) {
        let keep_alive = keep_alive.min(KEEP_ALIVE_MAX);
        if keep_alive.is_zero() {
            return;
        }
        let _span = P::scope(Phase::PoolAdmit);
        let spec = self.workload.spec(function);
        let footprint = if compress {
            spec.compressed_memory
        } else {
            spec.memory
        };
        // Enforce the warm-pool cap on this node.
        let cap = self.config.warm_memory_cap();
        if footprint > cap {
            return;
        }
        let warm_used = self.nodes[node.index()].warm_memory;
        if warm_used + footprint > cap {
            let deficit = warm_used + footprint - cap;
            if !self.make_room(node, deficit, None, policy) {
                return;
            }
        }
        if self.nodes[node.index()].free_memory() < footprint {
            let deficit = footprint - self.nodes[node.index()].free_memory();
            if !self.make_room(node, deficit, None, policy) {
                return;
            }
        }

        // Reserve the keep-alive cost; truncate the window to what the
        // budget affords.
        let arch = self.nodes[node.index()].arch;
        let rate = self.config.rate(arch);
        let projected = rate.keep_alive_cost(footprint, keep_alive);
        let granted = self.ledger.reserve(self.now, projected);
        if S::ENABLED {
            self.sink.record(&ObsEvent::BudgetDebit {
                at: self.now,
                requested: projected,
                granted,
            });
        }
        let (keep_alive, reserved) = if granted < projected {
            let ratio = granted.as_picodollars() as f64 / projected.as_picodollars().max(1) as f64;
            let truncated = keep_alive.scale(ratio);
            let actual = rate.keep_alive_cost(footprint, truncated);
            self.credit(granted.saturating_sub(actual));
            (truncated, actual)
        } else {
            (keep_alive, granted)
        };
        // Windows under a second are not worth the bookkeeping.
        if keep_alive < SimDuration::from_secs(1) {
            self.credit(reserved);
            return;
        }

        let expiry = self.now + keep_alive;
        self.mutate_node(node, |n| n.add_warm(footprint));
        let id = self.pool.insert(WarmInstance {
            id: WarmId::INVALID, // assigned by the pool
            seq: 0,              // assigned by the pool
            function,
            node,
            arch,
            compressed: compress,
            memory: footprint,
            since: self.now,
            expiry,
            reserved,
            compressed_ready_at: if compress {
                self.now + spec.compress
            } else {
                self.now
            },
            decompress_penalty: if compress {
                spec.decompress_time(arch)
            } else {
                SimDuration::ZERO
            },
        });
        if P::ENABLED {
            P::add(PerfCounter::PoolInsert, 1);
        }
        if compress {
            self.compression_events += 1;
        }
        if S::ENABLED {
            self.sink.record(&ObsEvent::InstanceAdmitted {
                at: self.now,
                id,
                function,
                node,
                arch,
                compressed: compress,
                memory: footprint,
                expiry,
                reserved,
            });
            if compress {
                // The pool re-keys compressed instances lazily, so both
                // compression endpoints are emitted here; `ready_at` is the
                // completion instant (see the Event docs).
                let ready_at = self.now + spec.compress;
                self.sink.record(&ObsEvent::CompressionStarted {
                    at: self.now,
                    id,
                    function,
                    node,
                    ready_at,
                });
                self.sink.record(&ObsEvent::CompressionFinished {
                    at: ready_at,
                    id,
                    function,
                    node,
                });
            }
        }
        // A new warm instance enlarges the evictable set, which can turn a
        // previously impossible cold placement possible. Its expiration is
        // tracked by the pool's expiry calendar, not a heap event.
        self.capacity_epoch += 1;
    }

    fn remove_instance(&mut self, id: WarmId, reason: ReleaseReason) {
        if P::ENABLED {
            P::add(PerfCounter::PoolRemove, 1);
        }
        let inst = self.pool.remove(id);
        if S::ENABLED {
            self.sink.record(&ObsEvent::InstanceReleased {
                at: self.now,
                id,
                function: inst.function,
                node: inst.node,
                memory: inst.memory,
                compressed: inst.compressed,
                since: inst.since,
                reason,
            });
        }
        self.mutate_node(inst.node, |n| n.remove_warm(inst.memory));
        self.capacity_epoch += 1;
    }

    /// Drains every due keep-alive expiration that sorts strictly before
    /// `limit` (the next heap event's `(at, class)` key; `None` means the
    /// heap is empty and the calendar drains completely).
    ///
    /// The calendar orders entries by `(expiry, admission seq)`, which is
    /// exactly how the retired per-admission `Expiry` heap events sorted:
    /// at equal timestamps the expiry class (1) runs after ticks (0) and
    /// before completions (2), and two expirations at the same instant
    /// fire in admission order — engine event seqs were assigned in
    /// admission order too. Unlike the heap events, the calendar only ever
    /// holds *live* instances (reuse and eviction remove the entry), so a
    /// boundary drains its whole batch in one pass with no stale
    /// generation-check pops in between.
    fn drain_due_expiries(&mut self, limit: Option<(SimTime, u8)>) {
        // Lazy span: the common case drains nothing, and opening a span
        // per main-loop iteration would swamp the phase table.
        let mut span: Option<Scope<P>> = None;
        while let Some((at, _seq, id)) = self.pool.next_expiry() {
            if let Some(next) = limit {
                if (at, EXPIRY_CLASS) >= next {
                    break;
                }
            }
            if P::ENABLED && span.is_none() {
                span = Some(P::scope(Phase::ExpiryDrain));
            }
            debug_assert!(at >= self.now, "time must not run backwards");
            self.now = at;
            self.remove_instance(id, ReleaseReason::Expired);
            if P::ENABLED {
                P::add(PerfCounter::ExpiryDrained, 1);
            }
        }
    }

    fn handle_prewarm_ready(
        &mut self,
        function: FunctionId,
        node: NodeId,
        keep_alive: SimDuration,
        compress: bool,
        policy: &mut dyn Scheduler,
    ) {
        let memory = self.workload.spec(function).memory;
        self.mutate_node(node, |n| n.finish_execution(memory));
        self.capacity_epoch += 1;
        self.admit_warm(function, node, keep_alive, compress, policy);
        self.drain_pending(policy);
    }

    fn handle_tick(&mut self, policy: &mut dyn Scheduler) {
        // Re-read the horizon every tick: live sources report an open
        // horizon until they close (end of stream or drain), at which
        // point ticks already scheduled beyond it must be dropped — batch
        // never schedules one past its (constant) horizon, so for batch
        // sources neither the re-read nor the guard changes anything.
        let horizon = self.source.horizon();
        if self.now > SimTime::ZERO + horizon {
            return;
        }
        let _span = P::scope(Phase::Tick);
        self.ledger.accrue(self.now);

        // Sample per-interval metrics.
        let spent = self.ledger.spent();
        let delta = spent.as_dollars() - self.last_spent.as_dollars();
        self.spend_per_interval.push(delta);
        self.last_spent = spent;
        self.warm_pool_series.push(self.pool.len() as f64);
        self.compressed_series
            .push(self.pool.compressed_count() as f64);
        let compression_delta = self.compression_events - self.last_compression_events;
        self.compression_events_per_interval
            .push(compression_delta as f64);
        self.last_compression_events = self.compression_events;
        let total_cores: u32 = self.nodes.iter().map(|n| n.cores).sum();
        let busy_cores: u32 = self.nodes.iter().map(|n| n.busy_cores).sum();
        let utilization = busy_cores as f64 / total_cores.max(1) as f64;
        self.utilization_series.push(utilization);
        if S::ENABLED {
            self.sink.record(&ObsEvent::IntervalSampled {
                at: self.now,
                sample: IntervalSample {
                    index: self.spend_per_interval.len() as u64 - 1,
                    spend_delta_dollars: delta,
                    warm_pool: self.pool.len() as u64,
                    compressed: self.pool.compressed_count() as u64,
                    utilization,
                    compression_events_delta: compression_delta,
                    pending: self.pending.len() as u64,
                },
            });
        }

        let commands = {
            let _decision = P::scope(Phase::PolicyDecision);
            policy.on_interval(&self.view())
        };
        if S::ENABLED {
            for round in policy.drain_optimizer_rounds() {
                self.sink.record(&ObsEvent::OptimizerRound {
                    at: self.now,
                    round,
                });
            }
        }
        for command in commands {
            self.execute_command(command, policy);
        }

        let next = self.now + self.config.interval;
        if next <= SimTime::ZERO + horizon {
            self.push(next, EventKind::Tick);
        }
    }

    fn execute_command(&mut self, command: Command, policy: &mut dyn Scheduler) {
        match command {
            Command::Prewarm {
                function,
                arch,
                keep_alive,
                compress,
            } => {
                if self.pool.is_warm(function) {
                    return; // already warm
                }
                let spec = self.workload.spec(function);
                let memory = spec.memory;
                let candidate = self
                    .nodes
                    .iter()
                    .filter(|n| n.arch == arch && n.free_cores() > 0 && n.free_memory() >= memory)
                    .min_by_key(|n| (n.busy_cores, n.id))
                    .map(|n| n.id);
                let Some(node) = candidate else {
                    self.dropped_prewarms += 1;
                    if S::ENABLED {
                        self.sink.record(&ObsEvent::PrewarmDropped {
                            at: self.now,
                            function,
                            arch,
                        });
                    }
                    return;
                };
                self.mutate_node(node, |n| n.start_execution(memory));
                let cold = spec
                    .cold_start(arch)
                    .scale(self.config.runtime.cold_start_scale());
                self.push(
                    self.now + cold,
                    EventKind::PrewarmReady {
                        function,
                        node,
                        keep_alive,
                        compress,
                    },
                );
            }
            Command::Evict { id } => {
                if let Some(inst) = self.pool.get(id) {
                    let refund = inst.refundable_at(self.now);
                    self.credit(refund);
                    self.remove_instance(id, ReleaseReason::Evicted);
                    self.evictions += 1;
                }
                let _ = policy;
            }
        }
    }

    fn drain_pending(&mut self, policy: &mut dyn Scheduler) {
        // Lazy span: most completions find nothing queued.
        let _span = if P::ENABLED && !self.pending.is_empty() {
            Some(P::scope(Phase::PendingDrain))
        } else {
            None
        };
        while let Some(&(index, inv)) = self.pending.front() {
            // The placement attempt is a pure function of cluster capacity
            // (for a fixed head-of-line invocation): if this exact entry
            // already failed at the current capacity epoch, retrying would
            // burn the same candidate/placement walk to the same answer.
            if self.last_retry_failure == Some((index, self.capacity_epoch)) {
                break;
            }
            if self.try_start(inv, policy) {
                self.pending.pop_front();
                self.last_retry_failure = None;
            } else {
                self.last_retry_failure = Some((index, self.capacity_epoch));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedKeepAlive;
    use cc_compress::CompressionModel;
    use cc_trace::SyntheticTrace;
    use cc_workload::Catalog;

    fn setup(functions: usize, minutes: u64, seed: u64) -> (Trace, Workload) {
        let trace = SyntheticTrace::builder()
            .functions(functions)
            .duration(SimDuration::from_mins(minutes))
            .seed(seed)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        (trace, workload)
    }

    #[test]
    fn every_invocation_completes() {
        let (trace, workload) = setup(30, 120, 1);
        let mut policy = FixedKeepAlive::ten_minutes();
        let report =
            Simulation::new(ClusterConfig::small(2, 2), &trace, &workload).run(&mut policy);
        assert_eq!(report.records.len(), trace.invocations().len());
        assert_eq!(
            report.stats.invocations() as usize,
            trace.invocations().len()
        );
    }

    #[test]
    fn interval_series_cover_the_horizon_inclusively() {
        // Ticks are scheduled while `next <= ZERO + horizon`, so a run over
        // H = k·interval samples k + 1 intervals (indices 0..=k) — the
        // final tick fires at the horizon itself. Downstream bucketing
        // (`TimeSeries`) stamps a horizon-aligned record into bucket k,
        // the same index, so the report's interval count and a series
        // built from its events can never disagree by a phantom bucket.
        let minutes = 45u64;
        let (trace, workload) = setup(15, minutes, 9);
        let config = ClusterConfig::small(2, 2);
        let intervals = trace.duration().as_micros() / config.interval.as_micros() + 1;
        let mut policy = FixedKeepAlive::ten_minutes();
        let report = Simulation::new(config, &trace, &workload).run(&mut policy);
        assert_eq!(report.spend_per_interval.len() as u64, intervals);
        assert_eq!(report.warm_pool_series.len() as u64, intervals);
        assert_eq!(report.utilization_series.len() as u64, intervals);
        assert_eq!(
            report.compression_events_per_interval.len() as u64,
            intervals
        );
    }

    #[test]
    fn determinism() {
        let (trace, workload) = setup(20, 60, 2);
        let run = || {
            let mut policy = FixedKeepAlive::ten_minutes();
            Simulation::new(ClusterConfig::small(2, 2), &trace, &workload).run(&mut policy)
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.keep_alive_spend, b.keep_alive_spend);
    }

    #[test]
    fn keep_alive_produces_warm_starts() {
        let (trace, workload) = setup(10, 120, 3);
        let mut with_ka = FixedKeepAlive::new(SimDuration::from_mins(30), false);
        let mut without_ka = FixedKeepAlive::new(SimDuration::ZERO, false);
        let config = ClusterConfig::small(2, 2);
        let warm = Simulation::new(config.clone(), &trace, &workload).run(&mut with_ka);
        let cold = Simulation::new(config, &trace, &workload).run(&mut without_ka);
        assert!(
            warm.warm_fraction() > 0.3,
            "warm fraction {}",
            warm.warm_fraction()
        );
        assert_eq!(cold.warm_fraction(), 0.0);
        assert!(warm.mean_service_time_secs() < cold.mean_service_time_secs());
        assert_eq!(cold.keep_alive_spend, Cost::ZERO);
        assert!(warm.keep_alive_spend > Cost::ZERO);
    }

    #[test]
    fn compression_shrinks_warm_memory_per_instance() {
        let (trace, workload) = setup(10, 60, 4);
        let config = ClusterConfig::small(2, 2);
        let mut raw = FixedKeepAlive::new(SimDuration::from_mins(10), false);
        let mut compressed = FixedKeepAlive::new(SimDuration::from_mins(10), true);
        let r1 = Simulation::new(config.clone(), &trace, &workload).run(&mut raw);
        let r2 = Simulation::new(config, &trace, &workload).run(&mut compressed);
        assert_eq!(r1.compression_events, 0);
        assert!(r2.compression_events > 0);
        // Same keep-alive windows but smaller footprints ⇒ cheaper.
        assert!(r2.keep_alive_spend < r1.keep_alive_spend);
    }

    #[test]
    fn budget_caps_spend() {
        let (trace, workload) = setup(20, 60, 5);
        let budget = Cost::from_dollars(1e-6);
        let config = ClusterConfig::small(2, 2).with_budget(budget);
        let mut policy = FixedKeepAlive::new(SimDuration::from_mins(60), false);
        let report = Simulation::new(config, &trace, &workload).run(&mut policy);
        // Total spend cannot exceed accrued credit through the last ledger
        // touch (completions drain past the final arrival).
        let last_touch = report
            .records
            .iter()
            .map(|r| r.completion().as_micros())
            .max()
            .unwrap_or(0)
            .max(trace.duration().as_micros());
        let intervals = last_touch / SimDuration::from_mins(1).as_micros() + 1;
        assert!(report.keep_alive_spend <= budget * intervals);
    }

    #[test]
    fn zero_budget_means_no_warm_starts() {
        let (trace, workload) = setup(15, 60, 6);
        let config = ClusterConfig::small(2, 2).with_budget(Cost::ZERO);
        let mut policy = FixedKeepAlive::ten_minutes();
        let report = Simulation::new(config, &trace, &workload).run(&mut policy);
        assert_eq!(report.warm_fraction(), 0.0);
        assert_eq!(report.keep_alive_spend, Cost::ZERO);
    }

    #[test]
    fn service_time_includes_execution_at_least() {
        let (trace, workload) = setup(15, 60, 7);
        let mut policy = FixedKeepAlive::ten_minutes();
        let report =
            Simulation::new(ClusterConfig::small(2, 2), &trace, &workload).run(&mut policy);
        for rec in &report.records {
            let spec = workload.spec(rec.function);
            assert!(rec.execution >= spec.exec_time(rec.arch).scale(0.99));
            assert!(rec.service_time() >= rec.execution);
        }
    }

    #[test]
    fn tiny_cluster_queues_but_finishes() {
        // One single-core node forces queueing.
        let (trace, workload) = setup(20, 30, 8);
        let mut config = ClusterConfig::small(1, 0);
        config.cores_per_node = 1;
        let mut policy = FixedKeepAlive::ten_minutes();
        let report = Simulation::new(config, &trace, &workload).run(&mut policy);
        assert_eq!(report.records.len(), trace.invocations().len());
        let waited = report.records.iter().filter(|r| !r.wait.is_zero()).count();
        assert!(waited > 0, "expected queueing on a 1-core cluster");
    }

    #[test]
    fn input_change_perturbation_scales_execution() {
        let (trace, workload) = setup(10, 60, 9);
        let config = ClusterConfig::small(2, 2);
        let mut p1 = FixedKeepAlive::ten_minutes();
        let mut p2 = FixedKeepAlive::ten_minutes();
        let base = Simulation::new(config.clone(), &trace, &workload).run(&mut p1);
        let shifted = Simulation::new(config, &trace, &workload)
            .with_perturbations(vec![Perturbation::InputChange {
                at: SimTime::ZERO,
                factor: 2.0,
            }])
            .run(&mut p2);
        let base_exec: f64 = base.records.iter().map(|r| r.execution.as_secs_f64()).sum();
        let shifted_exec: f64 = shifted
            .records
            .iter()
            .map(|r| r.execution.as_secs_f64())
            .sum();
        assert!(
            (shifted_exec / base_exec - 2.0).abs() < 0.2,
            "execution should roughly double, ratio {}",
            shifted_exec / base_exec
        );
    }

    #[test]
    fn warm_memory_cap_limits_pool() {
        let (trace, workload) = setup(40, 60, 10);
        let capped = ClusterConfig::small(2, 2).with_warm_memory_fraction(0.1);
        let uncapped = ClusterConfig::small(2, 2);
        let mut p1 = FixedKeepAlive::ten_minutes();
        let mut p2 = FixedKeepAlive::ten_minutes();
        let r_capped = Simulation::new(capped.clone(), &trace, &workload).run(&mut p1);
        let r_uncapped = Simulation::new(uncapped, &trace, &workload).run(&mut p2);
        assert!(r_capped.warm_fraction() <= r_uncapped.warm_fraction() + 1e-9);
        // The cap itself is respected at every sampled tick: warm memory
        // cannot exceed cap × nodes.
        let cap_total = capped.warm_memory_cap().as_mb() as f64 * 4.0;
        let max_warm_mem: f64 = r_capped
            .warm_pool_series
            .iter()
            .copied()
            .fold(0.0, f64::max);
        // Series counts instances, so translate via the smallest footprint.
        assert!(max_warm_mem * 64.0 <= cap_total * 10.0, "sanity bound");
    }
}
