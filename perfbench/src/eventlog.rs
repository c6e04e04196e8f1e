//! `eventlog`: the offline analysis path (`ccstat replay --audit --gap`)
//! with no engine in the timed part. Set-up captures the events of the
//! sweep-scale codecrunch run; each operation encodes them to JSONL in
//! memory, decodes and audits the bytes, reconstructs telemetry and
//! records, and prices the run against the hindsight lower bound.

use std::time::Instant;

use cc_bound::{dp_lower_bound, measured_cost_of_records, measured_cost_of_report};
use cc_bound::{GapReport, HindsightInput};
use cc_obs::{BufferSink, Event, EventSink, JsonlSink, Tee, Telemetry};
use cc_sim::{SimReport, Simulation};
use codecrunch::CodeCrunch;

use crate::probe::CountingWriter;
use crate::sweep::SweepInputs;
use crate::{check, for_seconds, ms, ratio, repeated_setup, Measured, Outcome, Size, Tally};
use crate::{Values, WorkCounts};

/// The captured run the eventlog operations carry.
pub struct Eventlog {
    inputs: SweepInputs,
    events: Vec<Event>,
    report: SimReport,
    telemetry_digest: u64,
}

/// Host time and work of each stage of one operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    /// JSONL bytes analysed.
    pub bytes: u64,
    /// Events decoded.
    pub events: u64,
    /// Records reconstructed.
    pub records: u64,
    /// Functions the DP priced.
    pub dp_functions: u64,
    decode_ns: u64,
    audit_ns: u64,
    reconstruct_ns: u64,
    input_ns: u64,
    dp_ns: u64,
    gap_pct: f64,
    /// Simulated mean service time of the reconstructed records.
    pub service_s: f64,
}

/// Encodes `events` as JSONL in memory through `JsonlSink`, counting the
/// bytes at the `io::Write` boundary.
pub fn encode_log(events: &[Event]) -> (Vec<u8>, u64) {
    let mut sink = JsonlSink::new(CountingWriter::new(Vec::new()));
    for event in events {
        sink.record(event);
    }
    let out = sink.finish().expect("writing to memory cannot fail");
    (out.inner, out.bytes)
}

impl Eventlog {
    /// Generates the sweep-scale inputs from `seed` and captures the
    /// codecrunch run's events and live telemetry.
    pub fn new(seed: u64, size: Size) -> Eventlog {
        let inputs = SweepInputs::new(seed, size);
        let mut policy = CodeCrunch::new();
        let mut sink = Tee(Telemetry::new(inputs.config.interval), BufferSink::new());
        let report = Simulation::new(inputs.config.clone(), &inputs.trace, &inputs.workload)
            .run_with_sink(&mut policy, &mut sink);
        let Tee(telemetry, buffer) = sink;
        Eventlog {
            inputs,
            events: buffer.events,
            report,
            telemetry_digest: telemetry.digest(),
        }
    }

    /// Decodes, audits, reconstructs and prices `bytes`, pushing every
    /// failed check onto `problems`.
    pub fn analyse(&self, bytes: &[u8], problems: &mut Vec<String>) -> Stages {
        let mut stages = Stages {
            bytes: bytes.len() as u64,
            ..Stages::default()
        };
        let start = Instant::now();
        let log = match std::str::from_utf8(bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| cc_replay::decode_stream(text).map_err(|e| e.to_string()))
        {
            Ok(log) => log,
            Err(e) => {
                problems.push(format!("eventlog: decode failed: {e}"));
                return stages;
            }
        };
        stages.decode_ns = start.elapsed().as_nanos() as u64;
        stages.events = log.events();
        check(problems, stages.events == self.events.len() as u64, || {
            format!(
                "eventlog: decoded {} events, encoded {}",
                stages.events,
                self.events.len()
            )
        });
        let decoded = log
            .shards
            .iter()
            .flat_map(|s| s.events.iter().map(|(_, e)| e));
        if let Some(at) = decoded.zip(&self.events).position(|(d, e)| d != e) {
            problems.push(format!(
                "eventlog: decoded event #{at} differs from the encoded one"
            ));
        }

        let start = Instant::now();
        let audit = cc_replay::audit_log(&log, false);
        stages.audit_ns = start.elapsed().as_nanos() as u64;
        check(problems, audit.is_clean(), || {
            format!(
                "eventlog: audit found {} violations",
                audit.total_violations()
            )
        });
        let [shard] = log.shards.as_slice() else {
            problems.push(format!(
                "eventlog: expected one shard, decoded {}",
                log.shards.len()
            ));
            return stages;
        };

        let start = Instant::now();
        let telemetry = cc_replay::reconstruct(shard);
        let (records, spend) = cc_replay::reconstruct_records(shard);
        stages.reconstruct_ns = start.elapsed().as_nanos() as u64;
        stages.records = records.len() as u64;
        check(
            problems,
            telemetry.digest() == self.telemetry_digest,
            || {
                format!(
                    "eventlog: reconstructed telemetry digest {:#x} differs from the live {:#x}",
                    telemetry.digest(),
                    self.telemetry_digest
                )
            },
        );
        check(problems, records.len() == self.report.records.len(), || {
            format!(
                "eventlog: reconstructed {} records, the run served {}",
                records.len(),
                self.report.records.len()
            )
        });
        stages.service_s = ratio(
            records.iter().map(|r| r.service_time().as_secs_f64()).sum(),
            records.len() as f64,
        );

        let start = Instant::now();
        let input = match HindsightInput::from_records(
            &records,
            &self.inputs.workload,
            &self.inputs.config,
        ) {
            Ok(input) => input,
            Err(e) => {
                problems.push(format!("eventlog: bound input rejected: {e}"));
                return stages;
            }
        };
        stages.input_ns = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let lower_bound = dp_lower_bound(&input);
        stages.dp_ns = start.elapsed().as_nanos() as u64;
        stages.dp_functions = input.functions.len() as u64;

        let measured = measured_cost_of_records(&records, spend, input.lambda_nanos);
        let live = measured_cost_of_report(&self.report, input.lambda_nanos);
        check(problems, measured == live, || {
            format!("eventlog: reconstructed cost {measured} differs from the live run's {live}")
        });
        let gap = GapReport {
            lower_bound,
            lambda_nanos: input.lambda_nanos,
        }
        .policy("codecrunch", measured);
        check(problems, gap.holds(), || {
            format!("eventlog: measured cost {measured} is below the lower bound {lower_bound}")
        });
        stages.gap_pct = gap.gap_pct;
        stages
    }

    /// One operation: encode, then analyse. Returns the stages and the
    /// encode time.
    fn op(&self, tally: &mut Tally) -> (Stages, u64, f64) {
        let mut problems = Vec::new();
        let start = Instant::now();
        let (bytes, counted) = encode_log(&self.events);
        let encode_ns = start.elapsed().as_nanos() as u64;
        let stages = self.analyse(&bytes, &mut problems);
        let wall = start.elapsed().as_secs_f64();
        check(&mut problems, counted == bytes.len() as u64, || {
            format!(
                "eventlog: the writer counted {counted} bytes, the buffer holds {}",
                bytes.len()
            )
        });
        tally.record(problems);
        (stages, encode_ns, wall)
    }
}

fn layers(stages: &Stages, encode_ns: u64, wall: f64) -> (Values, WorkCounts) {
    let mb = stages.bytes as f64 / 1e6;
    let per_s = |ns: u64| ratio(mb, ns as f64 / 1e9);
    let values = Values::from([
        ("cc-obs.encode_mb_per_s", per_s(encode_ns)),
        ("cc-obs.bytes", stages.bytes as f64),
        ("cc-replay.decode_mb_per_s", per_s(stages.decode_ns)),
        ("cc-replay.audit_mb_per_s", per_s(stages.audit_ns)),
        ("cc-replay.reconstruct_ms", ms(stages.reconstruct_ns)),
        ("cc-replay.events", stages.events as f64),
        ("cc-bound.input_ms", ms(stages.input_ns)),
        (
            "cc-bound.dp_us_per_fn",
            ratio(stages.dp_ns as f64 / 1e3, stages.dp_functions as f64),
        ),
        ("cc-bound.dp_functions", stages.dp_functions as f64),
        ("cc-bound.gap_pct", stages.gap_pct),
        ("log_mb_per_s", ratio(mb, wall)),
    ]);
    let counts = vec![
        ("jsonl_bytes", stages.bytes),
        ("events", stages.events),
        ("records", stages.records),
        ("dp_functions", stages.dp_functions),
    ];
    (values, counts)
}

pub(crate) fn run(seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    let (log, setup) = repeated_setup(|| Eventlog::new(seed, size));
    let mut m = Measured::new(setup);
    let mut tally = Tally::default();
    let mut mb_per_s = Vec::new();
    // Every operation times its stages, so a traced run keeps the
    // breakdown of the same operations it measures untraced.
    for_seconds(seconds, if traced { 2 } else { 1 }, || {
        let (stages, encode_ns, wall) = log.op(&mut tally);
        let throughput = stages.records as f64 / wall;
        m.throughput.push(throughput);
        m.sim_service_s = stages.service_s;
        mb_per_s.push(stages.bytes as f64 / 1e6 / wall);
        if traced {
            m.traced_throughput.push(throughput);
            let (mut values, counts) = layers(&stages, encode_ns, wall);
            log.inputs.setup.layers(&mut values);
            m.layer_runs.push(values);
            m.counts.push(counts);
        }
    });
    m.notes
        .push(crate::describe("log_mb_per_s", "MB/s", &mb_per_s));
    m.finish(tally, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysed(log: &Eventlog, bytes: &[u8]) -> Tally {
        let mut problems = Vec::new();
        log.analyse(bytes, &mut problems);
        let mut tally = Tally::default();
        tally.record(problems);
        tally
    }

    #[test]
    fn a_flipped_byte_in_the_log_is_a_failed_operation() {
        let log = Eventlog::new(5, Size::Tiny);
        let (bytes, counted) = encode_log(&log.events);
        assert_eq!(counted, bytes.len() as u64);
        assert_eq!(analysed(&log, &bytes).failed, 0);
        for at in (0..16).map(|i| i * (bytes.len() - 1) / 15) {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            let tally = analysed(&log, &flipped);
            assert_eq!(tally.failed, 1, "a flip at byte {at} went unnoticed");
        }
    }

    #[test]
    fn a_telemetry_digest_mismatch_is_a_failed_operation() {
        let mut log = Eventlog::new(5, Size::Tiny);
        let (bytes, _) = encode_log(&log.events);
        log.telemetry_digest ^= 1;
        assert_eq!(analysed(&log, &bytes).failed, 1);
    }
}
