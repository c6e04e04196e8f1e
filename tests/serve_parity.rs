//! Service-mode batch-equivalence tests.
//!
//! cc-serve runs the decision core as an always-on service: arrivals are
//! released on a clock through a bounded ingestion queue, and shutdown is
//! a graceful drain instead of trace exhaustion. These tests pin the
//! headline contract: driving the service on a deterministic
//! [`VirtualClock`] over a recorded trace produces **bit-identical**
//! report digests, telemetry digests, and JSONL bytes to the batch
//! engine — for every policy, through bursts deeper than the queue, and
//! across mid-interval drains (compared against a batch run truncated at
//! the same virtual instant).

use std::sync::Arc;

mod common;

use codecrunch_suite::prelude::*;
use codecrunch_suite::serve::QueueStats;

// The golden scenario, so service-mode digests are pinned against the
// same constants as tests/golden_determinism.rs.
use common::{policy_for, scenario};

/// Serial batch reference: report + JSONL bytes + telemetry digest.
fn batch_reference(policy: &mut dyn Scheduler) -> (SimReport, Vec<u8>, u64) {
    let (trace, workload, config) = scenario();
    let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
    let report = Simulation::new(config, &trace, &workload).run_with_sink(policy, &mut tee);
    let bytes = tee.0.finish().expect("in-memory writer cannot fail");
    (report, bytes, tee.1.digest())
}

/// Serves `source` on a fresh virtual clock; returns the outcome plus
/// JSONL bytes and telemetry digest. `capacity` exercises backpressure;
/// `drain_at` pre-arms a timeline cut.
fn serve_virtual<Src: ArrivalSource + Send>(
    source: Src,
    config: &ClusterConfig,
    workload: &Workload,
    policy: &mut dyn Scheduler,
    capacity: usize,
    drain_at: Option<SimTime>,
) -> (ServeOutcome, Vec<u8>, u64) {
    let server = Server::new(
        Arc::new(VirtualClock::new()),
        ServeOptions {
            queue_capacity: capacity,
            collect_records: true,
        },
    );
    if let Some(at) = drain_at {
        server.handle().drain_at(at);
    }
    let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
    let outcome = server.serve(config, source, workload, policy, &mut tee);
    let bytes = tee.0.finish().expect("in-memory writer cannot fail");
    let telemetry = tee.1.digest();
    (outcome, bytes, telemetry)
}

fn assert_lossless(stats: &QueueStats) {
    assert_eq!(
        stats.pushed, stats.delivered,
        "every accepted arrival served"
    );
    assert_eq!(stats.dropped_at_drain, 0, "no drain, no drops");
    assert_eq!(stats.depth, 0, "queue empty at shutdown");
}

/// THE headline contract: all six policies, served on the virtual clock,
/// produce bit-identical report digests, telemetry digests, and JSONL
/// bytes to the batch engine.
#[test]
fn every_policy_serves_bit_identical_to_batch() {
    for name in POLICY_NAMES {
        let (trace, workload, config) = scenario();
        let (batch_report, batch_bytes, batch_tel) =
            batch_reference(policy_for(name, &trace).as_mut());
        let (outcome, bytes, telemetry) = serve_virtual(
            SliceSource::from_trace(&trace),
            &config,
            &workload,
            policy_for(name, &trace).as_mut(),
            1024,
            None,
        );
        assert_eq!(
            outcome.report.digest(),
            batch_report.digest(),
            "policy {name}: served report digest diverged from batch"
        );
        assert_eq!(
            telemetry, batch_tel,
            "policy {name}: served telemetry digest diverged from batch"
        );
        assert_eq!(
            bytes, batch_bytes,
            "policy {name}: served JSONL bytes diverged from batch"
        );
        assert_lossless(&outcome.queue);
        assert_eq!(outcome.horizon, trace.duration());
    }
}

/// A tiny queue doesn't change the answer, only the producer's schedule:
/// with capacity 2 the producer is backpressured thousands of times, yet
/// the served bytes stay bit-identical to batch.
#[test]
fn backpressure_at_capacity_two_is_invisible_in_the_output() {
    let (trace, workload, config) = scenario();
    let (batch_report, batch_bytes, batch_tel) =
        batch_reference(policy_for("codecrunch", &trace).as_mut());
    let (outcome, bytes, telemetry) = serve_virtual(
        SliceSource::from_trace(&trace),
        &config,
        &workload,
        policy_for("codecrunch", &trace).as_mut(),
        2,
        None,
    );
    assert_eq!(outcome.report.digest(), batch_report.digest());
    assert_eq!(telemetry, batch_tel);
    assert_eq!(bytes, batch_bytes);
    assert_lossless(&outcome.queue);
    assert_eq!(outcome.queue.peak_depth, 2, "capacity was actually hit");
}

/// Burst catch-up: a flood 100x deeper than the queue arrives in one
/// instant. Nothing is lost (backpressure stalls the producer), the queue
/// returns to empty, telemetry interval samples stay contiguous, and the
/// output is still bit-identical to the batch run over the same arrivals.
#[test]
fn burst_100x_queue_depth_catches_up_losslessly() {
    let (trace, _, config) = scenario();
    let workload = Workload::from_trace(
        &trace,
        &Catalog::paper_catalog(),
        &CompressionModel::paper_default(),
    );
    // Hand-built arrival schedule over the scenario's function table:
    // a light steady trickle, then 1600 arrivals in one instant (100x the
    // queue capacity of 16), then the trickle resumes.
    let mut arrivals = Vec::new();
    let fns = trace.functions().len() as u32;
    for i in 0..120u64 {
        arrivals.push(Invocation::new(
            FunctionId::new((i % fns as u64) as u32),
            SimTime::from_micros(i * 500_000),
        ));
    }
    let burst_at = SimTime::from_micros(60_000_000);
    for i in 0..1600u32 {
        arrivals.push(Invocation::new(FunctionId::new(i % fns), burst_at));
    }
    arrivals.sort_by_key(|inv| inv.arrival);
    let horizon = SimDuration::from_mins(30);

    let mut batch_policy = policy_for("codecrunch", &trace);
    let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
    let batch_report = run_streaming(
        &config,
        SliceSource::new(&arrivals, horizon),
        &workload,
        batch_policy.as_mut(),
        &mut tee,
        true,
    );
    let batch_bytes = tee.0.finish().expect("in-memory writer cannot fail");
    let batch_tel = tee.1.digest();

    let server = Server::new(
        Arc::new(VirtualClock::new()),
        ServeOptions {
            queue_capacity: 16,
            collect_records: true,
        },
    );
    let mut serve_policy = policy_for("codecrunch", &trace);
    let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
    let outcome = server.serve(
        &config,
        SliceSource::new(&arrivals, horizon),
        &workload,
        serve_policy.as_mut(),
        &mut tee,
    );
    let bytes = tee.0.finish().expect("in-memory writer cannot fail");

    assert_lossless(&outcome.queue);
    assert_eq!(outcome.queue.pushed, arrivals.len() as u64);
    assert_eq!(outcome.queue.peak_depth, 16, "the burst filled the queue");
    assert_eq!(outcome.report.digest(), batch_report.digest());
    assert_eq!(tee.1.digest(), batch_tel);
    assert_eq!(bytes, batch_bytes);
    // Interval samples survived the burst contiguously: indices 0..n with
    // no gap where the queue was saturated.
    let indices: Vec<u64> = tee.1.samples().iter().map(|(_, s)| s.index).collect();
    let expected: Vec<u64> = (0..indices.len() as u64).collect();
    assert_eq!(
        indices, expected,
        "interval sample indices must be contiguous"
    );
    assert!(!indices.is_empty());
}

/// Shutdown flush: a drain pre-armed at a mid-interval instant must
/// produce exactly the batch run over the truncated trace — same report
/// digest, same telemetry digest (the partial final interval is flushed
/// identically), same JSONL bytes.
#[test]
fn drain_mid_interval_matches_batch_truncated_at_the_same_instant() {
    let (trace, workload, config) = scenario();
    // 37.5 minutes: deliberately *not* on an interval boundary.
    let cut = SimTime::ZERO + SimDuration::from_secs(37 * 60 + 30);
    assert!(
        !SimDuration::from_secs(37 * 60 + 30)
            .as_micros()
            .is_multiple_of(config.interval.as_micros()),
        "the cut must land mid-interval for this test to mean anything"
    );

    for name in POLICY_NAMES {
        // Batch comparator: arrivals strictly before the cut, horizon at
        // the cut.
        let kept: Vec<Invocation> = trace
            .invocations()
            .iter()
            .copied()
            .filter(|inv| inv.arrival < cut)
            .collect();
        assert!(kept.len() < trace.invocations().len());
        let truncated_horizon = SimDuration::from_micros(cut.as_micros());
        let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
        let batch_report = run_streaming(
            &config,
            SliceSource::new(&kept, truncated_horizon),
            &workload,
            policy_for(name, &trace).as_mut(),
            &mut tee,
            true,
        );
        let batch_bytes = tee.0.finish().expect("in-memory writer cannot fail");
        let batch_tel = tee.1.digest();

        let (outcome, bytes, telemetry) = serve_virtual(
            SliceSource::from_trace(&trace),
            &config,
            &workload,
            policy_for(name, &trace).as_mut(),
            256,
            Some(cut),
        );
        assert_eq!(outcome.horizon, truncated_horizon, "policy {name}");
        assert_eq!(
            outcome.report.digest(),
            batch_report.digest(),
            "policy {name}: drained report digest != batch truncated at the cut"
        );
        assert_eq!(
            telemetry, batch_tel,
            "policy {name}: drained telemetry digest != batch truncated at the cut"
        );
        assert_eq!(
            bytes, batch_bytes,
            "policy {name}: drained JSONL bytes != batch truncated at the cut"
        );
        assert_eq!(
            outcome.report.stats.invocations() as usize,
            kept.len(),
            "policy {name}: exactly the pre-cut arrivals were served"
        );
    }
}

/// A *live* drain — requested from another thread while the service runs —
/// is racy in which instant it lands on, but whatever effective instant it
/// returns, the outcome must equal the batch run truncated there.
#[test]
fn live_drain_matches_batch_truncated_at_the_returned_instant() {
    let (trace, workload, config) = scenario();
    let server = Server::new(
        Arc::new(VirtualClock::new()),
        ServeOptions {
            queue_capacity: 64,
            collect_records: true,
        },
    );
    let handle = server.handle();
    let (eff_tx, eff_rx) = std::sync::mpsc::channel();
    let requested = SimTime::ZERO + SimDuration::from_mins(45);
    let drainer = std::thread::spawn(move || {
        // Wait until virtual time crosses ~45 minutes, then pull the plug.
        loop {
            if handle.clock().now() >= requested {
                eff_tx.send(handle.drain_now()).expect("test channel");
                return;
            }
            std::thread::yield_now();
        }
    });
    let mut policy = policy_for("codecrunch", &trace);
    let mut telemetry = Telemetry::new(config.interval);
    let outcome = server.serve(
        &config,
        SliceSource::from_trace(&trace),
        &workload,
        policy.as_mut(),
        &mut telemetry,
    );
    drainer.join().expect("drainer thread");
    let eff = eff_rx.recv().expect("drain happened");
    assert!(eff >= requested);
    assert_eq!(outcome.horizon, SimDuration::from_micros(eff.as_micros()));

    let kept: Vec<Invocation> = trace
        .invocations()
        .iter()
        .copied()
        .filter(|inv| inv.arrival < eff)
        .collect();
    let mut batch_policy = policy_for("codecrunch", &trace);
    let mut batch_tel = Telemetry::new(config.interval);
    let batch_report = run_streaming(
        &config,
        SliceSource::new(&kept, SimDuration::from_micros(eff.as_micros())),
        &workload,
        batch_policy.as_mut(),
        &mut batch_tel,
        true,
    );
    assert_eq!(outcome.report.digest(), batch_report.digest());
    assert_eq!(telemetry.digest(), batch_tel.digest());
}

/// 48-virtual-hour soak: a streaming generator feeds the service through
/// the bounded queue for two simulated days; the run completes in seconds
/// on the virtual clock, matches the direct batch run of the identical
/// stream bit-for-bit, and its event stream passes the cc-replay
/// invariant auditor with zero violations.
#[test]
fn soak_48_virtual_hours_is_audited_and_batch_identical() {
    let stream = || {
        StreamingTrace::builder()
            .functions(60)
            .duration(SimDuration::from_mins(48 * 60))
            .seed(2026)
            .mean_gap_median(SimDuration::from_mins(30))
            .build()
    };
    let probe = stream();
    let workload = Workload::from_functions(
        probe.functions(),
        &Catalog::paper_catalog(),
        &CompressionModel::paper_default(),
    );
    let config = ClusterConfig::small(2, 2).with_warm_memory_fraction(0.35);

    let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
    let mut batch_policy = CodeCrunch::new();
    let batch_report = run_streaming(
        &config,
        stream(),
        &workload,
        &mut batch_policy,
        &mut tee,
        false,
    );
    let batch_bytes = tee.0.finish().expect("in-memory writer cannot fail");
    let batch_tel = tee.1.digest();

    let server = Server::new(
        Arc::new(VirtualClock::new()),
        ServeOptions {
            queue_capacity: 256,
            collect_records: false,
        },
    );
    let mut tee = Tee(JsonlSink::new(Vec::new()), Telemetry::new(config.interval));
    let mut policy = CodeCrunch::new();
    let outcome = server.serve(&config, stream(), &workload, &mut policy, &mut tee);
    let bytes = tee.0.finish().expect("in-memory writer cannot fail");

    assert!(
        outcome.report.stats.invocations() > 2_000,
        "the soak should be non-trivial, got {}",
        outcome.report.stats.invocations()
    );
    assert_lossless(&outcome.queue);
    assert_eq!(outcome.report.digest(), batch_report.digest());
    assert_eq!(tee.1.digest(), batch_tel);
    assert_eq!(bytes, batch_bytes);

    // Replay audit: zero violations across both simulated days.
    let text = std::str::from_utf8(&bytes).expect("jsonl is utf-8");
    let log = decode_stream(text).expect("served stream decodes");
    let audit = audit_log(&log, false);
    assert!(
        audit.is_clean(),
        "served 48h stream violates invariants:\n{}",
        audit.summary()
    );
}

/// Differential: a [`StreamingTrace`] consumed live through the service
/// queue and its own materialization replayed via [`SliceSource`] are the
/// same stream — identical ids, timestamps, and order — across function
/// counts and horizons.
mod streaming_differential {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn streaming_trace_equals_its_materialization(
            seed in 0u64..500,
            functions in 1usize..80,
            minutes in 10u64..600,
        ) {
            let build = || {
                StreamingTrace::builder()
                    .functions(functions)
                    .duration(SimDuration::from_mins(minutes))
                    .seed(seed)
                    .mean_gap_median(SimDuration::from_mins(20))
                    .build()
            };
            // Materialize one pull of the stream...
            let mut materialized = Vec::new();
            let mut probe = build();
            while let Some(inv) = ArrivalSource::next_invocation(&mut probe) {
                materialized.push(inv);
            }
            // ...and pull a fresh identically-built stream through the
            // service ingestion path (virtual clock, bounded queue).
            let queue = Arc::new(IngestQueue::new(8));
            let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
            let horizon = build().horizon();
            let served: Vec<Invocation> = std::thread::scope(|scope| {
                let feed_queue = Arc::clone(&queue);
                scope.spawn(move || {
                    let mut stream = build();
                    while let Some(inv) = ArrivalSource::next_invocation(&mut stream) {
                        if feed_queue.push(inv).is_err() {
                            break;
                        }
                    }
                    feed_queue.close(ArrivalSource::horizon(&stream));
                });
                let mut paced = PacedSource::new(queue, clock);
                let mut out = Vec::new();
                while let Some(inv) = paced.next_invocation() {
                    out.push(inv);
                }
                out
            });
            prop_assert_eq!(&served, &materialized,
                "paced stream and materialization must be identical");
            prop_assert!(served.windows(2).all(|w| w[0].arrival <= w[1].arrival));
            prop_assert!(served
                .last()
                .is_none_or(|inv| inv.arrival.saturating_since(SimTime::ZERO) < horizon));
        }
    }
}
