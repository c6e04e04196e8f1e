//! perfbench: the end-to-end and per-layer benchmark of the CodeCrunch
//! reproduction.
//!
//! Each workload is a closed batch replay of inputs generated from the
//! seed. An untraced run prints the end-to-end metrics; a traced run
//! prints the per-layer table. Layers are timed from outside the program
//! only: through wrappers of its public traits ([`probe`]), around direct
//! calls to its public functions, and from counters it already exposes
//! (the cc-prof `PerfCounter`s and phase table, `ParallelOutcome`,
//! `QueueStats`, `SimReport`). Every operation is checked, and a failed
//! check counts the operation as failed.

#![forbid(unsafe_code)]

pub mod catalog;
mod engine;
mod eventlog;
mod probe;
mod serve;
mod stream;
mod sweep;

use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sweep", "stream", "eventlog", "serve"];

/// How large the generated inputs are. The command line always uses
/// [`Size::Bench`]; the benchmark's own tests use [`Size::Tiny`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The inputs the benchmark measures.
    Bench,
    /// Small inputs for tests.
    Tiny,
}

/// Set-up runs at least this many times per run, and `setup_s` is the
/// median; short set-ups repeat until [`SETUP_TOTAL_S`] has passed (at most
/// [`SETUP_MAX_REPS`] times) so their median rests on enough samples.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 41;
const SETUP_TOTAL_S: f64 = 2.0;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Operations attempted and failed, with the first failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Failure messages (the first few).
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation and the problems its checks found.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.failures.len() < 8 {
                    self.failures.push(p);
                }
            }
        }
    }
}

/// Pushes `message()` onto `problems` unless `ok`.
pub(crate) fn check(problems: &mut Vec<String>, ok: bool, message: impl FnOnce() -> String) {
    if !ok {
        problems.push(message());
    }
}

/// Everything one run prints.
#[derive(Debug)]
pub struct Outcome {
    /// Checks tally.
    pub tally: Tally,
    /// Declared metrics: end-to-end untraced, per-layer traced.
    pub metrics: Values,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`, each metric with its declared unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = catalog::find(name).map_or("?", |d| d.unit);
                format!(
                    r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                    json_number(*value)
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Runs one workload and returns what to print.
///
/// # Panics
///
/// Panics on an unknown workload name (the command line validates it).
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    let mut outcome = match workload {
        "sweep" => sweep::run(seed, seconds, traced, size),
        "stream" => stream::run(seed, seconds, traced, size),
        "eventlog" => eventlog::run(seed, seconds, traced, size),
        "serve" => serve::run(seed, seconds, traced, size),
        other => panic!("unknown workload {other:?}"),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    outcome.notes.insert(
        0,
        format!(
            "perfbench {workload} seed={seed} seconds={seconds} trace={} | one process, one \
             benchmark thread, workloads one per process; nproc={cores}",
            u8::from(traced)
        ),
    );
    outcome
}

/// Median of `values` (0 for none).
pub(crate) fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`; a single value is all
/// three.
pub(crate) fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Describes a sample set the way the guide asks: median with its count,
/// and a tail percentile only where at least ten samples lie beyond it.
pub(crate) fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let (q1, med, q3) = quartiles(values);
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let tail = [0.99, 0.9, 0.75]
        .into_iter()
        .find(|p| (v.len() as f64 * (1.0 - p)).floor() >= 10.0)
        .map_or(
            String::from("no tail percentile (<10 samples beyond p75)"),
            |p| {
                let idx = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len()) - 1;
                format!("p{:.0} {:.6}", p * 100.0, v[idx])
            },
        );
    format!(
        "{name:<28} {med:>16.6} {unit:<8} median of {} samples, quartiles [{q1:.6}, {q3:.6}], {tail}",
        values.len()
    )
}

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]), timing each run, and
/// keeps the last result, so set-up work cannot hide in a cache filled by
/// the first.
pub(crate) fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_TOTAL_S)
    {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("set-up ran at least once"), times)
}

/// Calls `round` until `seconds` have passed and it ran at least
/// `min_rounds` times.
pub(crate) fn for_seconds(seconds: f64, min_rounds: usize, mut round: impl FnMut()) {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        round();
        rounds += 1;
    }
}

/// Peak resident set of this process in MB (10^6 bytes).
pub(crate) fn peak_rss_mb() -> f64 {
    cc_prof::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6)
}

/// Host time of the set-up layers of one set-up: trace generation and
/// workload resolution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetupTimes {
    pub build_ms: f64,
    pub resolve_ms: f64,
}

impl SetupTimes {
    /// Writes the set-up layers into `values`.
    pub(crate) fn layers(&self, values: &mut Values) {
        values.insert("cc-trace.build_ms", self.build_ms);
        values.insert("cc-workload.resolve_ms", self.resolve_ms);
    }
}

/// Exact work counts of one traced operation, by name.
pub(crate) type WorkCounts = Vec<(&'static str, u64)>;

/// The pieces every workload's run hands back for printing.
pub(crate) struct Measured {
    /// Per-operation `inv_per_s` (untraced operations).
    pub throughput: Vec<f64>,
    /// Per-operation `inv_per_s` of traced operations (traced runs only).
    pub traced_throughput: Vec<f64>,
    /// Set-up times.
    pub setup: Vec<f64>,
    /// Simulated mean service time (deterministic per seed).
    pub sim_service_s: f64,
    /// Per-layer values of each traced operation; the run reports each
    /// metric's median over them.
    pub layer_runs: Vec<Values>,
    /// Exact work counts per traced operation.
    pub counts: Vec<WorkCounts>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Measured {
    pub(crate) fn new(setup: Vec<f64>) -> Measured {
        Measured {
            throughput: Vec::new(),
            traced_throughput: Vec::new(),
            setup,
            sim_service_s: 0.0,
            layer_runs: Vec::new(),
            counts: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Turns the measurements into the printed outcome.
    pub(crate) fn finish(mut self, mut tally: Tally, traced: bool) -> Outcome {
        let mut notes = vec![describe("inv_per_s", "inv/s", &self.throughput)];
        notes.push(describe("setup_s", "s", &self.setup));
        notes.append(&mut self.notes);
        let mut metrics = Values::new();
        if traced {
            let mut layers = Values::new();
            for def in catalog::PER_LAYER {
                let samples: Vec<f64> = self
                    .layer_runs
                    .iter()
                    .filter_map(|run| run.get(def.name).copied())
                    .collect();
                if !samples.is_empty() {
                    layers.insert(def.name, median(&samples));
                }
            }
            notes.push(describe(
                "inv_per_s (traced)",
                "inv/s",
                &self.traced_throughput,
            ));
            let untraced = median(&self.throughput);
            let traced = median(&self.traced_throughput);
            layers.insert("trace_overhead_frac", ratio(untraced - traced, untraced));
            layers.insert("sim_service_s", self.sim_service_s);
            let mismatches = count_mismatches(&self.counts);
            if mismatches > 0 {
                tally.record(vec![format!(
                    "{mismatches} exact work counts differed between traced runs of the same code"
                )]);
            }
            layers.insert("work_count_mismatches", mismatches as f64);
            notes.push(format!(
                "exact work counts over {} traced runs: {}",
                self.counts.len(),
                self.counts.first().map_or(String::new(), |c| c
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" "))
            ));
            notes.push(format!(
                "{:<44} {:>16} {:<14} should move",
                "per-layer metric", "value", "unit"
            ));
            // Every declared layer is printed; one the workload does not
            // exercise reads 0.
            for def in catalog::PER_LAYER {
                let value = layers.get(def.name).copied().unwrap_or(0.0);
                notes.push(format!(
                    "{:<44} {:>16.4} {:<14} {}",
                    def.name, value, def.unit, def.moves
                ));
                metrics.insert(def.name, value);
            }
        } else {
            metrics.insert("inv_per_s", median(&self.throughput));
            metrics.insert("setup_s", median(&self.setup));
            metrics.insert("peak_rss_mb", peak_rss_mb());
            notes.push(format!(
                "peak_rss_mb {:.3} MB; sim_service_s {:.6} s (simulated, deterministic per seed; \
                 the model is unvalidated against the paper's testbed)",
                metrics["peak_rss_mb"], self.sim_service_s
            ));
        }
        notes.push(format!(
            "fail_frac {} ({} of {} operations failed)",
            ratio(tally.failed as f64, tally.attempted as f64),
            tally.failed,
            tally.attempted
        ));
        for f in &tally.failures {
            notes.push(format!("FAILED: {f}"));
        }
        Outcome {
            tally,
            metrics,
            notes,
        }
    }
}

/// Counts, over every traced run after the first, the work counts that
/// differ from the first run's.
pub(crate) fn count_mismatches(runs: &[WorkCounts]) -> u64 {
    let Some(first) = runs.first() else {
        return 0;
    };
    runs[1..]
        .iter()
        .map(|run| {
            run.iter().zip(first).filter(|(a, b)| a != b).count() as u64
                + run.len().abs_diff(first.len()) as u64
        })
        .sum()
}

/// Host ms from ns.
pub(crate) fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, or 0 when `den` is 0.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
