//! Golden determinism tests for the simulation engine.
//!
//! Two guarantees, both load-bearing for the hot-path refactor:
//!
//! 1. **Determinism**: running any baseline policy twice on the same
//!    scenario yields byte-identical `SimReport`s (digest equality over a
//!    canonical encoding).
//! 2. **Golden equivalence**: the digests match constants captured from
//!    the engine *before* the indexing refactor, proving the refactor is
//!    behavior-preserving — same records, spend, evictions, and series,
//!    not merely "similar" aggregates.
//!
//! If an intentional behavior change ever lands, regenerate the constants
//! with `cargo test -q golden -- --nocapture` and update them in the same
//! commit that changes behavior, explaining why.

mod common;

use codecrunch_suite::prelude::*;

use common::{policy_under_test, scenario};

/// Canonical report digest, now provided by [`SimReport::digest`] so the
/// bench binaries and the sharded driver share the exact encoding this
/// test pins. Kept as a local alias so the assertions below read the same
/// as when the encoding lived here.
fn report_digest(report: &SimReport) -> u64 {
    report.digest()
}

fn run(policy: &mut dyn Scheduler) -> SimReport {
    let (trace, workload, config) = scenario();
    Simulation::new(config, &trace, &workload).run(policy)
}

/// Golden digests captured from the pre-refactor engine (hash-map pool +
/// per-arrival sorts). The indexing refactor must reproduce them exactly.
const GOLDEN: [(&str, u64); 6] = [
    ("fixed_keepalive", 0x46b0492b8fbd77a0),
    ("sitw", 0x80287e151a53c7d8),
    ("faascache", 0x8e254dc622b61fec),
    ("icebreaker", 0x57edf4152245b8ff),
    ("oracle", 0x8db8e8f26fccd766),
    ("codecrunch", 0xd248939b20b3c7b6),
];

#[test]
fn every_policy_is_deterministic_and_matches_golden() {
    let mut diverged = Vec::new();
    for (name, golden) in GOLDEN {
        let first = run(policy_under_test(name).as_mut());
        let second = run(policy_under_test(name).as_mut());
        let d1 = report_digest(&first);
        let d2 = report_digest(&second);
        println!("policy {name}: digest {d1:#018x}");
        assert_eq!(d1, d2, "policy {name} is not run-to-run deterministic");
        if d1 != golden {
            diverged.push(format!(
                "policy {name}: got {d1:#018x}, expected {golden:#018x}"
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "engine behavior diverged from the golden digests:\n{}",
        diverged.join("\n")
    );
}

/// FNV-1a over raw bytes (for digesting exported event streams).
fn bytes_digest(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

fn run_with_jsonl(policy: &mut dyn Scheduler) -> (SimReport, Vec<u8>) {
    let (trace, workload, config) = scenario();
    let mut sink = JsonlSink::new(Vec::new());
    let report = Simulation::new(config, &trace, &workload).run_with_sink(policy, &mut sink);
    let stream = sink.finish().expect("in-memory writer cannot fail");
    (report, stream)
}

/// The instrumented run must (a) produce a byte-identical JSONL event
/// stream run-to-run, and (b) leave the simulation itself untouched: the
/// report digest with a sink attached still matches the golden constant
/// captured from the uninstrumented engine.
#[test]
fn jsonl_event_stream_is_deterministic_and_sink_is_inert() {
    let golden = GOLDEN
        .iter()
        .find(|(name, _)| *name == "codecrunch")
        .expect("codecrunch golden digest")
        .1;
    let (first, stream_a) = run_with_jsonl(policy_under_test("codecrunch").as_mut());
    let (second, stream_b) = run_with_jsonl(policy_under_test("codecrunch").as_mut());
    assert!(!stream_a.is_empty(), "instrumented run emitted no events");
    println!(
        "codecrunch jsonl: {} bytes, digest {:#018x}",
        stream_a.len(),
        bytes_digest(&stream_a)
    );
    assert_eq!(
        bytes_digest(&stream_a),
        bytes_digest(&stream_b),
        "JSONL event stream is not run-to-run deterministic"
    );
    assert_eq!(stream_a, stream_b);
    for report in [&first, &second] {
        assert_eq!(
            report_digest(report),
            golden,
            "attaching an event sink perturbed the simulation"
        );
    }
}

/// The sharded driver is behavior-preserving: running every policy as a
/// parallel shard (uninstrumented, like a `--shards N` sweep) reproduces
/// the exact golden digests, and the results come back ordered by shard id.
#[test]
fn sharded_sweep_reproduces_golden_digests() {
    let jobs: Vec<_> = GOLDEN
        .iter()
        .map(|&(name, _)| {
            move |_sink: &mut NullSink| {
                let (trace, workload, config) = scenario();
                let mut policy = policy_under_test(name);
                Simulation::new(config, &trace, &workload).run(policy.as_mut())
            }
        })
        .collect();
    let results = run_sharded(jobs, 3, &NullSinkFactory);
    assert_eq!(results.len(), GOLDEN.len());
    for (shard, (result, (name, golden))) in results.iter().zip(GOLDEN).enumerate() {
        let report = result.outcome.as_ref().expect("shard panicked");
        assert_eq!(result.shard as usize, shard, "results not in shard order");
        assert_eq!(
            report.digest(),
            golden,
            "sharded run of {name} diverged from the serial golden digest"
        );
    }
}

/// A `--shards 1` instrumented run must produce byte-identical JSONL to
/// the serial `JsonlSink` path: same events, same encoding, no shard
/// markers.
#[test]
fn single_shard_jsonl_is_byte_identical_to_serial() {
    let (_, serial_stream) = run_with_jsonl(policy_under_test("codecrunch").as_mut());

    let job = |sink: &mut SamplingSink<ChannelSink>| {
        let (trace, workload, config) = scenario();
        let mut policy = policy_under_test("codecrunch");
        Simulation::new(config, &trace, &workload).run_with_sink(policy.as_mut(), sink)
    };
    let config = ShardedRunConfig {
        workers: 1,
        channel_capacity: 1024,
        lossy: false,
        sample_every: 1,
    };
    let (results, sharded_stream, mux) =
        run_sharded_jsonl(vec![job], &config, Vec::new()).expect("in-memory mux cannot fail");
    let report = results[0].outcome.as_ref().expect("shard panicked");

    assert_eq!(
        bytes_digest(&sharded_stream),
        bytes_digest(&serial_stream),
        "single-shard mux bytes diverge from the serial JSONL stream"
    );
    assert_eq!(sharded_stream, serial_stream);
    assert_eq!(mux.dropped_total, 0, "blocking channel must be lossless");
    assert_eq!(mux.events_written, results[0].sink.sent);
    let golden = GOLDEN
        .iter()
        .find(|(name, _)| *name == "codecrunch")
        .unwrap()
        .1;
    assert_eq!(
        report.digest(),
        golden,
        "channel-sink instrumentation perturbed the simulation"
    );
}

#[test]
fn digest_is_sensitive_to_report_contents() {
    let mut report = run(policy_under_test("sitw").as_mut());
    let base = report_digest(&report);
    report.evictions += 1;
    assert_ne!(base, report_digest(&report), "digest ignores evictions");
    report.evictions -= 1;
    assert_eq!(base, report_digest(&report));
    if let Some(v) = report.utilization_series.first_mut() {
        *v += 1.0;
        assert_ne!(base, report_digest(&report), "digest ignores series");
    }
}
