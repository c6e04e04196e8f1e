//! The experiment harness: one module per table and figure of the
//! CodeCrunch paper's evaluation, each regenerating the corresponding
//! rows/series on the simulated substrate.
//!
//! Run everything with:
//!
//! ```sh
//! cargo run -p cc-experiments --release --bin expr -- all
//! ```
//!
//! or a single experiment by id (`fig7`, `tab_overhead`, …). Every
//! experiment is deterministic for a given [`Scale`]; the default scale is
//! chosen so the full suite finishes in minutes on a laptop while keeping
//! the memory-pressure regime that drives the paper's findings. Absolute
//! numbers therefore differ from the paper's testbed; EXPERIMENTS.md
//! records the shape comparison (who wins, by roughly what factor).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
mod fig1;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig2;
mod fig3;
mod fig7;
mod fig8;
mod fig9;
mod gap;
mod policies;
mod tab_codec_choice;
mod tab_microvm;
mod tab_overhead;
mod tab_pest_window;
mod tab_pricing;
mod tab_short_fns;
mod tab_startkinds;

pub use common::{enable_telemetry, ExperimentOutput, Scale};
pub use policies::{build_policy, PolicyError, POLICY_NAMES};

/// A runnable paper experiment.
pub trait Experiment {
    /// Short identifier (`fig7`, `tab_overhead`, …).
    fn id(&self) -> &'static str;
    /// One-line description of what the paper artifact shows.
    fn title(&self) -> &'static str;
    /// Runs the experiment at the given scale.
    fn run(&self, scale: &Scale) -> ExperimentOutput;
}

/// Every experiment, in paper order.
pub fn all_experiments() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(fig1::Fig1),
        Box::new(fig2::Fig2),
        Box::new(fig3::Fig3),
        Box::new(fig7::Fig7),
        Box::new(fig8::Fig8),
        Box::new(fig9::Fig9),
        Box::new(fig10::Fig10),
        Box::new(fig11::Fig11),
        Box::new(fig12::Fig12),
        Box::new(fig13::Fig13),
        Box::new(fig14::Fig14),
        Box::new(fig15::Fig15),
        Box::new(tab_overhead::TabOverhead),
        Box::new(tab_startkinds::TabStartKinds),
        Box::new(tab_microvm::TabMicroVm),
        Box::new(tab_pricing::TabPricing),
        Box::new(tab_short_fns::TabShortFns),
        Box::new(tab_pest_window::TabPestWindow),
        Box::new(tab_codec_choice::TabCodecChoice),
        Box::new(gap::GapAnalysis),
    ]
}

/// Looks up one experiment by id.
pub fn experiment_by_id(id: &str) -> Option<Box<dyn Experiment>> {
    all_experiments().into_iter().find(|e| e.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let experiments = all_experiments();
        let mut ids: Vec<&str> = experiments.iter().map(|e| e.id()).collect();
        assert_eq!(ids.len(), 20);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20, "duplicate experiment ids");
        for id in ids {
            assert!(experiment_by_id(id).is_some());
            assert!(!experiment_by_id(id).unwrap().title().is_empty());
        }
        assert!(experiment_by_id("nope").is_none());
    }
}
