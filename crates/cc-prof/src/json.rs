//! Self-profile JSON: a stable-key-order writer and its reader.
//!
//! The writer emits keys in one fixed order with one phase/counter object
//! per line, so profiles diff cleanly under `git diff` and line tools.
//! The reader parses with the workspace's `serde_json` and maps the known
//! keys, ignoring unknown ones so older readers accept newer profiles.
//!
//! Wall-trace spans are deliberately *not* part of this document — they go
//! to the Perfetto export — so baseline profiles stay small enough to
//! commit.

use std::fmt::Write as _;

use serde_json::Value;

use crate::phase::{PerfCounter, Phase};
use crate::profile::{AllocSummary, PhaseRow, SelfProfile, ThreadInfo};

/// Schema version stamped into every document.
pub const SCHEMA_VERSION: u64 = 1;

/// Serializes a profile to the stable-key-order JSON document.
pub fn to_json(profile: &SelfProfile) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"cc_prof\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"label\": {},", quote(&profile.label));
    let _ = writeln!(out, "  \"wall_ns\": {},", profile.wall_ns);
    out.push_str("  \"phases\": [");
    for (i, row) in profile.phases.iter().enumerate() {
        let sep = if i + 1 < profile.phases.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            out,
            "\n    {{\"phase\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \
             \"max_ns\": {}, \"alloc_count\": {}, \"alloc_bytes\": {}}}{sep}",
            quote(row.phase.label()),
            row.count,
            row.total_ns,
            row.self_ns,
            row.max_ns,
            row.alloc_count,
            row.alloc_bytes,
        );
    }
    out.push_str(if profile.phases.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"counters\": [");
    for (i, &(counter, value)) in profile.counters.iter().enumerate() {
        let sep = if i + 1 < profile.counters.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            out,
            "\n    {{\"counter\": {}, \"value\": {value}}}{sep}",
            quote(counter.label()),
        );
    }
    out.push_str(if profile.counters.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    let _ = writeln!(
        out,
        "  \"alloc\": {{\"installed\": {}, \"total_count\": {}, \"total_bytes\": {}, \
         \"unattributed_count\": {}, \"unattributed_bytes\": {}, \"peak_live_bytes\": {}}},",
        profile.alloc.installed,
        profile.alloc.total_count,
        profile.alloc.total_bytes,
        profile.alloc.unattributed_count,
        profile.alloc.unattributed_bytes,
        profile.alloc.peak_live_bytes,
    );
    out.push_str("  \"threads\": [");
    for (i, thread) in profile.threads.iter().enumerate() {
        let sep = if i + 1 < profile.threads.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            out,
            "\n    {{\"tid\": {}, \"label\": {}}}{sep}",
            thread.tid,
            quote(&thread.label),
        );
    }
    out.push_str(if profile.threads.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    let _ = writeln!(
        out,
        "  \"trace_events_dropped\": {},",
        profile.trace_events_dropped
    );
    let _ = writeln!(out, "  \"unbalanced_exits\": {}", profile.unbalanced_exits);
    out.push_str("}\n");
    out
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses a self-profile JSON document produced by [`to_json`].
pub fn from_json(text: &str) -> Result<SelfProfile, String> {
    let root = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let version = root
        .get("cc_prof")
        .and_then(Value::as_u64)
        .ok_or("missing cc_prof version key")?;
    if version > SCHEMA_VERSION {
        return Err(format!("unsupported cc_prof schema version {version}"));
    }
    let u64_field = |key: &str| root.get(key).and_then(Value::as_u64).unwrap_or(0);

    let mut phases = Vec::new();
    for item in root
        .get("phases")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        let label = item
            .get("phase")
            .and_then(Value::as_str)
            .ok_or("phase row missing label")?;
        // Unknown phases (from a newer writer) are skipped, not fatal.
        let Some(phase) = Phase::from_label(label) else {
            continue;
        };
        let field = |key: &str| item.get(key).and_then(Value::as_u64).unwrap_or(0);
        phases.push(PhaseRow {
            phase,
            count: field("count"),
            total_ns: field("total_ns"),
            self_ns: field("self_ns"),
            max_ns: field("max_ns"),
            alloc_count: field("alloc_count"),
            alloc_bytes: field("alloc_bytes"),
        });
    }
    let mut counters = Vec::new();
    for item in root
        .get("counters")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        let label = item
            .get("counter")
            .and_then(Value::as_str)
            .ok_or("counter row missing label")?;
        let Some(counter) = PerfCounter::from_label(label) else {
            continue;
        };
        counters.push((
            counter,
            item.get("value").and_then(Value::as_u64).unwrap_or(0),
        ));
    }
    let alloc = root.get("alloc").map_or_else(AllocSummary::default, |a| {
        let field = |key: &str| a.get(key).and_then(Value::as_u64).unwrap_or(0);
        AllocSummary {
            installed: a.get("installed").and_then(Value::as_bool).unwrap_or(false),
            total_count: field("total_count"),
            total_bytes: field("total_bytes"),
            unattributed_count: field("unattributed_count"),
            unattributed_bytes: field("unattributed_bytes"),
            peak_live_bytes: field("peak_live_bytes"),
        }
    });
    let mut threads = Vec::new();
    for item in root
        .get("threads")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        threads.push(ThreadInfo {
            tid: item.get("tid").and_then(Value::as_u64).unwrap_or(0) as u32,
            label: item
                .get("label")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        });
    }
    Ok(SelfProfile {
        label: root
            .get("label")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        wall_ns: u64_field("wall_ns"),
        phases,
        counters,
        alloc,
        threads,
        trace: Vec::new(),
        trace_events_dropped: u64_field("trace_events_dropped"),
        unbalanced_exits: u64_field("unbalanced_exits"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SelfProfile {
        SelfProfile {
            label: "ten-k \"stress\"".to_string(),
            wall_ns: 123_456_789,
            phases: vec![
                PhaseRow {
                    phase: Phase::EngineRun,
                    count: 1,
                    total_ns: 123_000_000,
                    self_ns: 23_000_000,
                    max_ns: 123_000_000,
                    alloc_count: 7,
                    alloc_bytes: 4096,
                },
                PhaseRow {
                    phase: Phase::Arrival,
                    count: 10_000,
                    total_ns: 60_000_000,
                    self_ns: 40_000_000,
                    max_ns: 90_000,
                    alloc_count: 0,
                    alloc_bytes: 0,
                },
            ],
            counters: vec![
                (PerfCounter::PoolInsert, 9000),
                (PerfCounter::CandidateProbes, 31_337),
            ],
            alloc: AllocSummary {
                installed: true,
                total_count: 1234,
                total_bytes: 1 << 20,
                unattributed_count: 3,
                unattributed_bytes: 96,
                peak_live_bytes: 2 << 20,
            },
            threads: vec![
                ThreadInfo {
                    tid: 1,
                    label: "main".to_string(),
                },
                ThreadInfo {
                    tid: 2,
                    label: "feeder".to_string(),
                },
            ],
            trace: Vec::new(),
            trace_events_dropped: 5,
            unbalanced_exits: 0,
        }
    }

    #[test]
    fn json_round_trips_and_is_byte_stable() {
        let profile = sample();
        let json = to_json(&profile);
        let parsed = from_json(&json).expect("parses");
        assert_eq!(parsed, profile);
        // Stable ordering: serializing the parse reproduces bytes exactly.
        assert_eq!(to_json(&parsed), json);
        // Canonical key order is fixed, not insertion-dependent.
        let label_at = json.find("\"label\"").unwrap();
        let wall_at = json.find("\"wall_ns\"").unwrap();
        let phases_at = json.find("\"phases\"").unwrap();
        assert!(label_at < wall_at && wall_at < phases_at);
    }

    #[test]
    fn empty_profile_round_trips() {
        let profile = SelfProfile::default();
        let parsed = from_json(&to_json(&profile)).expect("parses");
        assert_eq!(parsed, profile);
    }

    #[test]
    fn unknown_keys_and_labels_are_tolerated() {
        let json = r#"{
            "cc_prof": 1,
            "label": "fwd-compat",
            "wall_ns": 10,
            "future_key": {"nested": [1, 2, 3]},
            "phases": [
                {"phase": "arrival", "count": 1, "total_ns": 5, "self_ns": 5, "max_ns": 5,
                 "alloc_count": 0, "alloc_bytes": 0},
                {"phase": "not_a_phase_yet", "count": 9, "total_ns": 9, "self_ns": 9,
                 "max_ns": 9, "alloc_count": 0, "alloc_bytes": 0}
            ],
            "counters": [{"counter": "unknown_counter", "value": 1}]
        }"#;
        let parsed = from_json(json).expect("parses");
        assert_eq!(parsed.label, "fwd-compat");
        assert_eq!(parsed.phases.len(), 1, "unknown phase skipped");
        assert!(parsed.counters.is_empty(), "unknown counter skipped");
    }

    #[test]
    fn malformed_documents_error() {
        assert!(from_json("{").is_err());
        assert!(from_json("[]").is_err(), "missing version key");
        assert!(from_json("{\"cc_prof\": 99}").is_err(), "future schema");
        assert!(from_json("{\"cc_prof\": 1} trailing").is_err());
    }
}
