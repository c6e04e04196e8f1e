//! Optimality-gap analysis: every policy priced against the
//! hindsight-optimal lower bound from `cc-bound`.
//!
//! Not a paper artifact — the paper reports the Oracle as its empirical
//! ceiling; this experiment adds the complementary *floor*: a clairvoyant
//! DP over the recorded arrivals that relaxes cluster capacity and
//! pricing-tick granularity, so every real schedule (the Oracle included)
//! must cost at least this much. The per-policy gap column is the
//! distance each policy still has to the relaxation, and a negative gap
//! anywhere means the bound or the engine's cost accounting has a bug.

use serde_json::json;

use cc_bound::{local_search_upper_bound, segment_lower_bound, GapReport, HindsightInput};

use crate::common::{run_policy, ExperimentOutput, Scale};
use crate::{build_policy, Experiment, POLICY_NAMES};

/// The gap-analysis experiment.
pub struct GapAnalysis;

impl Experiment for GapAnalysis {
    fn id(&self) -> &'static str {
        "gap"
    }

    fn title(&self) -> &'static str {
        "optimality gap of every policy against the hindsight-optimal lower bound (cc-bound)"
    }

    fn run(&self, scale: &Scale) -> ExperimentOutput {
        let trace = scale.trace();
        let workload = scale.workload(&trace);
        let config = scale.cluster();

        let input = HindsightInput::from_trace(&trace, &workload, &config)
            .expect("scale traces resolve against their own workload");
        let reference = GapReport::for_input(&input);
        let segment = segment_lower_bound(&input, 8);

        let mut lines = vec![
            format!(
                "lower bound: DP {} nano-units (segment relaxation {}, λ = {} n/p$)",
                reference.lower_bound, segment, reference.lambda_nanos
            ),
            format!(
                "{:<16} {:>20} {:>20} {:>10}  {}",
                "policy", "measured (nano)", "lower (nano)", "gap %", "bound holds"
            ),
        ];
        let mut rows = Vec::new();
        let mut min_gap_pct = f64::INFINITY;
        let mut ub_of_best: Option<u128> = None;
        for name in POLICY_NAMES {
            let mut policy = build_policy(name, Some(&trace)).expect("registered policy");
            let report = run_policy(policy.as_mut(), &config, &trace, &workload);
            let measured = cc_bound::measured_cost_of_report(&report, reference.lambda_nanos);
            let row = reference.policy(&report.policy, measured);
            // Tighten the ceiling too: a local search seeded from the best
            // recorded schedule gives the narrowest certified bracket.
            let ub = local_search_upper_bound(&input, &report.records);
            if ub_of_best.is_none_or(|best| ub < best) {
                ub_of_best = Some(ub);
            }
            min_gap_pct = min_gap_pct.min(row.gap_pct);
            lines.push(format!(
                "{:<16} {:>20} {:>20} {:>9.1}%  {}",
                row.policy,
                row.measured,
                row.lower_bound,
                row.gap_pct,
                if row.holds() { "yes" } else { "VIOLATED" }
            ));
            rows.push(json!({
                "policy": row.policy,
                "measured_nano": row.measured.to_string(),
                "lower_bound_nano": row.lower_bound.to_string(),
                "gap_nano": row.gap.to_string(),
                "gap_pct": row.gap_pct,
                "holds": row.holds(),
            }));
        }
        let ub = ub_of_best.expect("at least one policy ran");
        lines.push(format!(
            "certified bracket: optimum in [{}, {}] nano-units (best policy within {:.1}% of \
             the lower bound)",
            reference.lower_bound, ub, min_gap_pct
        ));

        let data = json!({
            "lambda_nanos": reference.lambda_nanos,
            "dp_lower_bound_nano": reference.lower_bound.to_string(),
            "segment_lower_bound_nano": segment.to_string(),
            "local_search_upper_bound_nano": ub.to_string(),
            "rows": rows,
        });
        ExperimentOutput::new(self.id(), lines, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_row_respects_the_bound() {
        let out = GapAnalysis.run(&Scale::smoke());
        let rows = out.data["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 6, "all six policies report a gap row");
        for row in rows {
            assert_eq!(
                row["holds"].as_bool(),
                Some(true),
                "{} beat the lower bound",
                row["policy"]
            );
            assert!(row["gap_pct"].as_f64().unwrap() >= 0.0);
        }
        // The certified bracket is ordered: segment ≤ DP ≤ local-search UB.
        let seg: u128 = out.data["segment_lower_bound_nano"]
            .as_str()
            .unwrap()
            .parse()
            .unwrap();
        let dp: u128 = out.data["dp_lower_bound_nano"]
            .as_str()
            .unwrap()
            .parse()
            .unwrap();
        let ub: u128 = out.data["local_search_upper_bound_nano"]
            .as_str()
            .unwrap()
            .parse()
            .unwrap();
        assert!(seg <= dp && dp <= ub, "bracket disordered: {seg} {dp} {ub}");
    }
}
