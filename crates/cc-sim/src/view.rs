//! Read-only view of cluster state handed to policies.

use cc_types::{Arch, FunctionId, MemoryMb, SimTime, WarmId};
use cc_workload::{FunctionSpec, Workload};

use crate::node::{NodeState, WarmInstance};
use crate::pool::WarmPool;
use crate::{BudgetLedger, ClusterConfig};

/// A read-only snapshot of the cluster offered to policy callbacks.
///
/// Everything a policy may legitimately observe is here: the clock, node
/// states, warm-pool contents, the budget ledger, the resolved function
/// specs, and the current queueing pressure. Policies must not (and cannot)
/// see the future of the trace — except [`Oracle`](https://docs.rs/cc-policies),
/// which captures the trace at construction instead.
///
/// Warm-pool contents are exposed through methods
/// ([`ClusterView::warm_instances_of`], [`ClusterView::instance`],
/// [`ClusterView::warm_count`], …) rather than raw maps: the engine stores
/// instances in a slab arena with ordered indexes, and the accessors read
/// those directly — `warm_count`/`compressed_count` are O(1) counters, not
/// scans.
pub struct ClusterView<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Static cluster configuration.
    pub config: &'a ClusterConfig,
    /// All node states.
    pub nodes: &'a [NodeState],
    /// The budget ledger.
    pub ledger: &'a BudgetLedger,
    /// Resolved per-function specs.
    pub workload: &'a Workload,
    /// Number of invocations waiting for capacity.
    pub pending: usize,
    pool: &'a WarmPool,
}

impl<'a> ClusterView<'a> {
    pub(crate) fn new(
        now: SimTime,
        config: &'a ClusterConfig,
        nodes: &'a [NodeState],
        pool: &'a WarmPool,
        ledger: &'a BudgetLedger,
        workload: &'a Workload,
        pending: usize,
    ) -> ClusterView<'a> {
        ClusterView {
            now,
            config,
            nodes,
            ledger,
            workload,
            pending,
            pool,
        }
    }

    /// The spec of one function.
    pub fn spec(&self, function: FunctionId) -> &FunctionSpec {
        self.workload.spec(function)
    }

    /// Warm instances currently alive for `function`, in admission order.
    pub fn warm_instances_of(&self, function: FunctionId) -> Vec<&'a WarmInstance> {
        let pool = self.pool;
        let mut instances: Vec<&'a WarmInstance> = pool
            .candidates_of(function)
            .map(|id| pool.get(id).expect("candidate lists hold live instances"))
            .collect();
        // The pool keeps a function's instances in reuse-preference order;
        // `seq` is the admission number.
        instances.sort_unstable_by_key(|inst| inst.seq);
        instances
    }

    /// The live warm instance behind `id`, or `None` if the handle is
    /// stale (the instance has been reused, evicted, or expired since the
    /// id was observed).
    pub fn instance(&self, id: WarmId) -> Option<&'a WarmInstance> {
        self.pool.get(id)
    }

    /// Whether `function` has any warm instance.
    pub fn is_warm(&self, function: FunctionId) -> bool {
        self.pool.is_warm(function)
    }

    /// Total free cores on nodes of `arch`.
    pub fn free_cores(&self, arch: Arch) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.arch == arch)
            .map(NodeState::free_cores)
            .sum()
    }

    /// Total free memory on nodes of `arch`.
    pub fn free_memory(&self, arch: Arch) -> MemoryMb {
        self.nodes
            .iter()
            .filter(|n| n.arch == arch)
            .map(NodeState::free_memory)
            .sum()
    }

    /// Total memory held by warm instances across the cluster.
    pub fn total_warm_memory(&self) -> MemoryMb {
        self.nodes.iter().map(|n| n.warm_memory).sum()
    }

    /// Number of warm instances across the cluster. O(1).
    pub fn warm_count(&self) -> usize {
        self.pool.len()
    }

    /// Number of warm instances stored compressed. O(1).
    pub fn compressed_count(&self) -> usize {
        self.pool.compressed_count()
    }

    /// Fraction of all execution cores currently busy, in `[0, 1]` — the
    /// load signal policies use to detect peaks.
    pub fn busy_core_fraction(&self) -> f64 {
        let total: u32 = self.nodes.iter().map(|n| n.cores).sum();
        let busy: u32 = self.nodes.iter().map(|n| n.busy_cores).sum();
        if total == 0 {
            0.0
        } else {
            busy as f64 / total as f64
        }
    }
}
