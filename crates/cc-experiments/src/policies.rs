//! The policy registry: the one place a policy name becomes a scheduler.
//!
//! Every comparison in the paper is CodeCrunch against the same five
//! rivals, so every binary, test and experiment builds them here, by name,
//! with exactly one constructor call each. Callers never see which crate a
//! policy lives in.

use std::fmt;

use cc_policies::{FaasCache, IceBreaker, Oracle, SitW};
use cc_sim::{FixedKeepAlive, Scheduler};
use cc_trace::Trace;
use codecrunch::CodeCrunch;

/// Every policy name [`build_policy`] accepts, in canonical order: the
/// baselines, the clairvoyant Oracle, then CodeCrunch.
pub const POLICY_NAMES: [&str; 6] = [
    "fixed_keepalive",
    "sitw",
    "faascache",
    "icebreaker",
    "oracle",
    "codecrunch",
];

/// Why [`build_policy`] could not build a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The name is not one of [`POLICY_NAMES`].
    Unknown(String),
    /// The clairvoyant Oracle reads the whole trace up front, and none was
    /// given (streaming scenarios never materialize one).
    NeedsTrace,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Unknown(name) => write!(f, "unknown policy {name:?}")?,
            PolicyError::NeedsTrace => f.write_str("oracle needs a materialized trace")?,
        }
        write!(f, " (known: {})", POLICY_NAMES.join(", "))
    }
}

impl std::error::Error for PolicyError {}

/// Builds the policy called `name`. `trace` is only read by the Oracle;
/// pass `None` where no materialized trace exists.
pub fn build_policy(name: &str, trace: Option<&Trace>) -> Result<Box<dyn Scheduler>, PolicyError> {
    Ok(match name {
        "fixed_keepalive" => Box::new(FixedKeepAlive::ten_minutes()),
        "sitw" => Box::new(SitW::new()),
        "faascache" => Box::new(FaasCache::new()),
        "icebreaker" => Box::new(IceBreaker::new()),
        "oracle" => Box::new(Oracle::new(trace.ok_or(PolicyError::NeedsTrace)?)),
        "codecrunch" => Box::new(CodeCrunch::new()),
        other => return Err(PolicyError::Unknown(other.to_string())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_with_a_trace() {
        let trace = cc_trace::SyntheticTrace::builder()
            .functions(5)
            .duration(cc_types::SimDuration::from_mins(10))
            .seed(1)
            .build();
        for name in POLICY_NAMES {
            let policy = build_policy(name, Some(&trace)).expect("registered name");
            // `FixedKeepAlive` reports itself as "fixed-keepalive"; the
            // rest use their registry name.
            assert_eq!(policy.name().replace('-', "_"), name);
        }
    }

    #[test]
    fn oracle_without_a_trace_needs_one() {
        assert_eq!(
            build_policy("oracle", None).err(),
            Some(PolicyError::NeedsTrace)
        );
        for name in POLICY_NAMES.iter().filter(|&&n| n != "oracle") {
            assert!(build_policy(name, None).is_ok(), "{name} needs no trace");
        }
    }

    #[test]
    fn unknown_names_are_rejected_with_the_known_list() {
        let err = build_policy("nosuch", None).err();
        assert_eq!(err, Some(PolicyError::Unknown("nosuch".to_string())));
        let message = err.unwrap().to_string();
        for name in POLICY_NAMES {
            assert!(message.contains(name), "{message:?} omits {name}");
        }
    }
}
