//! The fixed keep-alive baseline.

use cc_types::{Arch, FunctionId, SimDuration};

use crate::{ClusterView, KeepDecision, Scheduler};

/// The production-default policy Amazon Lambda and Azure Functions use:
/// keep every instance alive for a fixed window (10 minutes) after
/// execution, never compress, and place cold starts on the least-loaded
/// architecture.
///
/// Used directly in the paper's motivation experiments (Fig. 1) and as the
/// "fixed 10-minute keep-alive" ablation in Fig. 12.
///
/// # Example
///
/// ```
/// use cc_sim::FixedKeepAlive;
/// use cc_types::SimDuration;
///
/// let p = FixedKeepAlive::ten_minutes();
/// let custom = FixedKeepAlive::new(SimDuration::from_mins(30), true);
/// # let _ = (p, custom);
/// ```
#[derive(Debug, Clone)]
pub struct FixedKeepAlive {
    keep_alive: SimDuration,
    compress: bool,
    prefer_arch: Option<Arch>,
}

impl FixedKeepAlive {
    /// Creates a fixed policy with the given window; `compress` stores
    /// every kept instance compressed (the Fig. 1 "with compression"
    /// variant).
    pub fn new(keep_alive: SimDuration, compress: bool) -> FixedKeepAlive {
        FixedKeepAlive {
            keep_alive,
            compress,
            prefer_arch: None,
        }
    }

    /// The production default: 10 minutes, uncompressed.
    pub fn ten_minutes() -> FixedKeepAlive {
        FixedKeepAlive::new(SimDuration::from_mins(10), false)
    }

    /// Restricts cold-start placement to one architecture (for
    /// homogeneous-cluster ablations).
    pub fn pinned_to(mut self, arch: Arch) -> FixedKeepAlive {
        self.prefer_arch = Some(arch);
        self
    }
}

impl Scheduler for FixedKeepAlive {
    fn name(&self) -> &str {
        if self.compress {
            "fixed-keepalive+compression"
        } else {
            "fixed-keepalive"
        }
    }

    fn evicts_in_admission_order(&self) -> bool {
        // Default LRU `eviction_rank`.
        true
    }

    fn place(&mut self, _function: FunctionId, view: &ClusterView<'_>) -> Arch {
        if let Some(arch) = self.prefer_arch {
            return arch;
        }
        // Least-loaded architecture by free cores.
        if view.free_cores(Arch::X86) >= view.free_cores(Arch::Arm) {
            Arch::X86
        } else {
            Arch::Arm
        }
    }

    fn on_completion(
        &mut self,
        _function: FunctionId,
        _arch: Arch,
        _view: &ClusterView<'_>,
    ) -> KeepDecision {
        KeepDecision {
            keep_alive: self.keep_alive,
            compress: self.compress,
        }
    }
}
