//! `ccstat`: replay a synthetic trace under any policy with live telemetry.
//!
//! Prints one table row per completed optimization interval while the
//! replay runs (warm fraction, budget debit/credit, compression hits, pool
//! size, utilization, optimizer objective), then the final telemetry
//! report. Optionally exports the full event stream:
//!
//! ```text
//! cargo run --release -p bench --bin ccstat -- --policy codecrunch
//! cargo run --release -p bench --bin ccstat -- --policy all --chrome trace.json
//! cargo run --release -p bench --bin ccstat -- --policy sitw --jsonl events.jsonl
//! ```
//!
//! `--chrome` writes a Chrome `trace_event` file loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `about://tracing`: executions per node,
//! warm-instance lifetimes per node, and cluster counter tracks. `--jsonl`
//! writes one JSON object per event plus a final `snapshot` line. When
//! `--policy all` runs several policies, export paths get a `-<policy>`
//! suffix before the extension.
//!
//! `--shards N` replays the selected policies in parallel across `N`
//! worker threads (one policy per shard). `--jsonl` then produces one
//! merged, shard-tagged file: each policy's events stream over a bounded
//! channel to a mux thread, which writes the blocks in shard order with
//! `shard_begin`/`shard_end` markers, so the output is deterministic
//! regardless of scheduling. `--sample N` keeps one event in N
//! (deterministic, counter-based), `--lossy` drops instead of blocking
//! when the channel backs up; both report their drop counts at the end.
//! The live interval table is disabled in sharded mode (tables print per
//! policy after the sweep); `--chrome` stays serial-only.
//!
//! `ccstat replay <file.jsonl>` works entirely offline: it decodes a
//! previously exported event stream (serial or shard-tagged), rebuilds the
//! per-interval table and final telemetry report from the events alone,
//! and cross-checks the reconstruction against the recorded `snapshot`
//! lines. `--audit` additionally runs the stream invariant auditor and
//! exits non-zero on any violation; pass `--assume-sampled` for captures
//! taken with `--sample N` (counter sampling leaves no marker in the
//! file, so the auditor must be told to suppress pairing checks).
//!
//! `ccstat replay <file.jsonl> --gap` computes each shard's optimality gap
//! post-hoc, without re-simulating: service records and net keep-alive
//! spend are reconstructed from the recorded events, priced with
//! `cc-bound`'s cost model, and compared against the hindsight-optimal DP
//! lower bound over the *recorded* arrivals. The capture's scenario is not
//! stored in the stream, so pass the same `--functions/--minutes/--seed/`
//! `--x86/--arm` (and `--warm-fraction/--budget` if used) flags the
//! capture was taken with; they default to the live mode's defaults. A
//! negative gap means the recorded run beat the bound — a conservation
//! violation — and exits non-zero. Sampled or lossy captures cannot be
//! priced faithfully and are rejected.

//! `--profile` (serial mode only) replays each policy under `cc-prof`'s
//! wall-clock profiler and prints the per-phase self-time table after the
//! telemetry report. `--stress` prints a resource line — wall clock,
//! throughput, peak RSS, and total allocations; the allocation figures
//! need the `alloc-profile` feature (which installs the counting global
//! allocator) and print as "n/a" otherwise.

use std::fs::File;
use std::io::BufWriter;
use std::time::Instant;

use bench::BenchScenario;
use cc_bound::{measured_cost_of_records, GapReport, HindsightInput};
use cc_compress::CompressionModel;
use cc_experiments::{build_policy, PolicyError, POLICY_NAMES};
use cc_shard::{run_sharded, run_sharded_jsonl, NullSinkFactory, ShardedRunConfig};
use cc_sim::{
    ChannelSink, ChromeTraceSink, ClusterConfig, Event, EventSink, JsonlSink, NullSink,
    SamplingSink, SimReport, Simulation, Tee, Telemetry, WallProfiler,
};
use cc_trace::{SyntheticTrace, Trace};
use cc_types::{Cost, SimDuration};
use cc_workload::{Catalog, Workload};

/// With the `alloc-profile` feature, every allocation in this binary is
/// counted and attributed to the active profiling phase.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: cc_prof::CountingAllocator = cc_prof::CountingAllocator::new();

const USAGE: &str = "usage: ccstat [--policy NAME|all] [--functions N] [--minutes N] [--seed N] \
                     [--x86 N] [--arm N] [--warm-fraction F] [--budget DOLLARS] \
                     [--jsonl PATH] [--chrome PATH] [--no-table] [--stress] [--profile] \
                     [--shards N] [--sample N] [--lossy]\n\
                     \x20      ccstat replay FILE.jsonl [--audit] [--assume-sampled] [--no-table] \
                     [--gap] [--functions N] [--minutes N] [--seed N] [--x86 N] [--arm N] \
                     [--warm-fraction F] [--budget DOLLARS]";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Telemetry plus optional exporters, with live interval-table printing.
/// One concrete sink type keeps `run_with_sink` monomorphization simple
/// while the exporters stay optional at runtime.
struct CcstatSink {
    telemetry: Telemetry,
    live: bool,
    jsonl: Option<JsonlSink<BufWriter<File>>>,
    chrome: Option<ChromeTraceSink<BufWriter<File>>>,
}

impl EventSink for CcstatSink {
    fn record(&mut self, event: &Event) {
        self.telemetry.record(event);
        if let Some(sink) = &mut self.jsonl {
            sink.record(event);
        }
        if let Some(sink) = &mut self.chrome {
            sink.record(event);
        }
        if self.live {
            if let Event::IntervalSampled { .. } = event {
                if let Some(row) = self.telemetry.latest_row() {
                    println!("{row}");
                }
            }
        }
    }
}

fn main() {
    let mut policy_arg = String::from("codecrunch");
    let mut functions: usize = 200;
    let mut minutes: u64 = 20;
    let mut seed: u64 = 7;
    let mut x86: u32 = 2;
    let mut arm: u32 = 2;
    let mut warm_fraction: Option<f64> = None;
    let mut budget: Option<f64> = None;
    let mut jsonl_path: Option<String> = None;
    let mut chrome_path: Option<String> = None;
    let mut live = true;
    let mut stress = false;
    let mut profile = false;
    let mut shards: Option<usize> = None;
    let mut sample_every: u64 = 1;
    let mut lossy = false;

    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("replay") {
        args.next();
        run_replay(args);
    }
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} takes a value")))
        };
        match arg.as_str() {
            "--policy" => policy_arg = next("--policy"),
            "--functions" => {
                functions = next("--functions")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--functions takes an integer"));
            }
            "--minutes" => {
                minutes = next("--minutes")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--minutes takes an integer"));
            }
            "--seed" => {
                seed = next("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed takes an integer"));
            }
            "--x86" => {
                x86 = next("--x86")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--x86 takes an integer"));
            }
            "--arm" => {
                arm = next("--arm")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--arm takes an integer"));
            }
            "--warm-fraction" => {
                warm_fraction = Some(
                    next("--warm-fraction")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--warm-fraction takes a fraction")),
                );
            }
            "--budget" => {
                budget = Some(
                    next("--budget")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--budget takes dollars per interval")),
                );
            }
            "--jsonl" => jsonl_path = Some(next("--jsonl")),
            "--chrome" => chrome_path = Some(next("--chrome")),
            "--no-table" => live = false,
            "--stress" => stress = true,
            "--profile" => profile = true,
            "--shards" => {
                shards = match next("--shards").parse() {
                    Ok(n) if n > 0 => Some(n),
                    _ => usage_error("--shards takes a positive worker count"),
                };
            }
            "--sample" => {
                sample_every = match next("--sample").parse() {
                    Ok(n) if n > 0 => n,
                    _ => usage_error("--sample takes a positive interval (1 keeps everything)"),
                };
            }
            "--lossy" => lossy = true,
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if shards.is_some() && chrome_path.is_some() {
        usage_error("--chrome is serial-only; use --jsonl with --shards");
    }
    if shards.is_none() && (sample_every != 1 || lossy) {
        usage_error("--sample and --lossy apply to the sharded channel; add --shards N");
    }
    if profile && shards.is_some() {
        usage_error("--profile prints one per-policy phase table; use it without --shards");
    }

    let names: Vec<&str> = if policy_arg == "all" {
        POLICY_NAMES.to_vec()
    } else if let Some(&name) = POLICY_NAMES.iter().find(|&&n| n == policy_arg) {
        vec![name]
    } else {
        usage_error(&format!("{}, or all", PolicyError::Unknown(policy_arg)));
    };

    let (trace, workload, config) = if stress {
        let scenario = BenchScenario::large();
        (scenario.trace, scenario.workload, scenario.config)
    } else {
        let trace = SyntheticTrace::builder()
            .functions(functions)
            .duration(SimDuration::from_mins(minutes))
            .seed(seed)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        let mut config = ClusterConfig::small(x86, arm);
        if let Some(fraction) = warm_fraction {
            config = config.with_warm_memory_fraction(fraction);
        }
        if let Some(dollars) = budget {
            config = config.with_budget(Cost::from_dollars(dollars));
        }
        (trace, workload, config)
    };
    eprintln!(
        "trace: {} functions, {} invocations over {} nodes",
        trace.functions().len(),
        trace.invocations().len(),
        config.total_nodes(),
    );

    if let Some(workers) = shards {
        run_sharded_mode(
            &names,
            &trace,
            &workload,
            &config,
            workers,
            jsonl_path.as_deref(),
            sample_every,
            lossy,
        );
        return;
    }

    let multi = names.len() > 1;
    for name in names {
        let mut policy =
            build_policy(name, Some(&trace)).expect("policy names are validated at startup");
        println!("=== {name} ===");
        if live {
            println!("{}", Telemetry::interval_header());
        }
        let mut sink = CcstatSink {
            telemetry: Telemetry::new(config.interval),
            live,
            jsonl: jsonl_path
                .as_deref()
                .map(|p| JsonlSink::new(open(&policy_path(p, name, multi)))),
            chrome: chrome_path
                .as_deref()
                .map(|p| ChromeTraceSink::new(open(&policy_path(p, name, multi)))),
        };
        if profile {
            cc_prof::reset();
            cc_prof::set_wall_enabled(true);
        }
        let started = Instant::now();
        let sim = Simulation::new(config.clone(), &trace, &workload);
        let report = if profile {
            sim.run_with_sink_profiled::<_, WallProfiler>(policy.as_mut(), &mut sink)
        } else {
            sim.run_with_sink(policy.as_mut(), &mut sink)
        };
        let elapsed = started.elapsed();
        if !live {
            // Batch mode: print the whole table at the end instead.
            println!("{}", Telemetry::interval_header());
            for row in sink.telemetry.interval_rows() {
                println!("{row}");
            }
        }
        println!("{}", sink.telemetry.report());
        print_report_summary(&report);
        if stress {
            print_stress_line(&report, elapsed);
        }
        if profile {
            let self_profile = cc_prof::take_profile(name, elapsed.as_nanos() as u64);
            cc_prof::set_wall_enabled(false);
            println!("{}", self_profile.render_table());
        }
        if let Some(mut jsonl) = sink.jsonl {
            jsonl.write_line(&sink.telemetry.snapshot_line());
            let events = jsonl.events_written();
            finish(jsonl.finish(), "jsonl");
            eprintln!("jsonl: {events} events");
        }
        if let Some(chrome) = sink.chrome {
            finish(chrome.finish(), "chrome trace");
        }
    }
}

/// `ccstat replay`: offline reconstruction (and optional audit) of an
/// exported JSONL event stream. Exits 0 when the reconstruction is
/// consistent (and, with `--audit`, the stream is violation-free), 1
/// otherwise, 2 on usage errors.
fn run_replay(args: impl Iterator<Item = String>) -> ! {
    let mut file: Option<String> = None;
    let mut audit = false;
    let mut assume_sampled = false;
    let mut table = true;
    let mut gap = false;
    // Scenario flags for `--gap`: must match the capture (defaults mirror
    // the live mode's defaults).
    let mut functions: usize = 200;
    let mut minutes: u64 = 20;
    let mut seed: u64 = 7;
    let mut x86: u32 = 2;
    let mut arm: u32 = 2;
    let mut warm_fraction: Option<f64> = None;
    let mut budget: Option<f64> = None;
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} takes a value")))
        };
        match arg.as_str() {
            "--audit" => audit = true,
            "--assume-sampled" => assume_sampled = true,
            "--no-table" => table = false,
            "--gap" => gap = true,
            "--functions" => {
                functions = next("--functions")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--functions takes an integer"));
            }
            "--minutes" => {
                minutes = next("--minutes")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--minutes takes an integer"));
            }
            "--seed" => {
                seed = next("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed takes an integer"));
            }
            "--x86" => {
                x86 = next("--x86")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--x86 takes an integer"));
            }
            "--arm" => {
                arm = next("--arm")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--arm takes an integer"));
            }
            "--warm-fraction" => {
                warm_fraction = Some(
                    next("--warm-fraction")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--warm-fraction takes a fraction")),
                );
            }
            "--budget" => {
                budget = Some(
                    next("--budget")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--budget takes dollars per interval")),
                );
            }
            other if !other.starts_with("--") && file.is_none() => file = Some(other.to_string()),
            other => usage_error(&format!("unknown replay argument {other:?}")),
        }
    }
    let path = file.unwrap_or_else(|| usage_error("replay takes a jsonl file"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read {path:?}: {e}")));
    let log = cc_replay::decode_stream(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "replay: {} lines, {} events, {} shard{} ({})",
        log.lines,
        log.events(),
        log.shards.len(),
        if log.shards.len() == 1 { "" } else { "s" },
        if log.tagged {
            "sharded stream"
        } else {
            "serial stream"
        },
    );

    // Rebuild the capture's workload and cluster once; the gap pricing of
    // every shard shares them. Arrivals come from the recorded events, so
    // the trace itself is only needed to resolve the workload catalog.
    let gap_ctx = gap.then(|| {
        let trace = SyntheticTrace::builder()
            .functions(functions)
            .duration(SimDuration::from_mins(minutes))
            .seed(seed)
            .build();
        let workload = Workload::from_trace(
            &trace,
            &Catalog::paper_catalog(),
            &CompressionModel::paper_default(),
        );
        let mut config = ClusterConfig::small(x86, arm);
        if let Some(fraction) = warm_fraction {
            config = config.with_warm_memory_fraction(fraction);
        }
        if let Some(dollars) = budget {
            config = config.with_budget(Cost::from_dollars(dollars));
        }
        (workload, config)
    });

    let mut failed = false;
    for (i, shard) in log.shards.iter().enumerate() {
        if log.tagged {
            println!("=== shard {} ===", shard.shard);
        }
        let telemetry = cc_replay::reconstruct(shard);
        if table {
            println!("{}", Telemetry::interval_header());
            for row in telemetry.interval_rows() {
                println!("{row}");
            }
        }
        println!("{}", telemetry.report());
        println!("telemetry digest: {:#018x}", telemetry.digest());
        // The exporters append one snapshot line per shard, in shard
        // order; when the counts line up, cross-check the reconstruction
        // against the recorded totals. A sampled or lossy capture can
        // never reproduce the live totals, so the check is informational
        // only there.
        let lossless = !assume_sampled && shard.end.is_none_or(|e| e.dropped == 0);
        if let Some((workload, config)) = &gap_ctx {
            if !lossless {
                println!("gap: cannot price a sampled or lossy stream (records are incomplete)");
                failed = true;
            } else {
                let (records, spend) = cc_replay::reconstruct_records(shard);
                match HindsightInput::from_records(&records, workload, config) {
                    Ok(input) => {
                        let reference = GapReport::for_input(&input);
                        let measured =
                            measured_cost_of_records(&records, spend, input.lambda_nanos);
                        let row = reference.policy(&format!("shard{}", shard.shard), measured);
                        let verdict = if row.holds() { "ok" } else { "VIOLATED" };
                        println!(
                            "gap: measured {} lower {} gap {:+.2}% ({} invocations priced) \
                             {verdict}",
                            row.measured,
                            row.lower_bound,
                            row.gap_pct,
                            records.len(),
                        );
                        failed |= !row.holds();
                    }
                    Err(e) => {
                        println!(
                            "gap: {e} (do the --functions/--minutes/--seed flags match the \
                             capture?)"
                        );
                        failed = true;
                    }
                }
            }
        }
        if !lossless {
            println!("snapshot: cross-check skipped (sampled or lossy stream)");
        } else if log.snapshots.len() == log.shards.len() {
            let (line_no, recorded) = &log.snapshots[i];
            let rebuilt = telemetry.snapshot_line();
            if recorded == &rebuilt {
                println!("snapshot: matches the recorded line {line_no}");
            } else {
                println!(
                    "snapshot MISMATCH against line {line_no}:\n  recorded: {recorded}\n  replayed: {rebuilt}"
                );
                failed = true;
            }
        }
        println!();
    }
    if audit {
        let report = cc_replay::audit_log(&log, assume_sampled);
        print!("{}", report.summary());
        if !report.is_clean() {
            failed = true;
        }
    }
    std::process::exit(i32::from(failed));
}

/// One policy replayed inside a shard: telemetry folds locally in the
/// worker, events tee into the shard's sink (the channel toward the mux, or
/// nothing), and both travel back to the main thread for printing in shard
/// order.
fn replay_shard<S: EventSink>(
    name: &str,
    trace: &Trace,
    workload: &Workload,
    config: &ClusterConfig,
    sink: &mut S,
) -> (Telemetry, SimReport) {
    let mut policy =
        build_policy(name, Some(trace)).expect("policy names are validated at startup");
    let mut telemetry = Telemetry::new(config.interval);
    let mut tee = Tee(&mut telemetry, sink);
    let report =
        Simulation::new(config.clone(), trace, workload).run_with_sink(policy.as_mut(), &mut tee);
    (telemetry, report)
}

#[allow(clippy::too_many_arguments)]
fn run_sharded_mode(
    names: &[&str],
    trace: &Trace,
    workload: &Workload,
    config: &ClusterConfig,
    workers: usize,
    jsonl_path: Option<&str>,
    sample_every: u64,
    lossy: bool,
) {
    let (results, mux) = if let Some(path) = jsonl_path {
        let shard_config = ShardedRunConfig {
            workers,
            channel_capacity: 8192,
            lossy,
            sample_every,
        };
        let jobs: Vec<_> = names
            .iter()
            .map(|&name| {
                move |sink: &mut SamplingSink<ChannelSink>| {
                    replay_shard(name, trace, workload, config, sink)
                }
            })
            .collect();
        let (results, mut out, mux) = run_sharded_jsonl(jobs, &shard_config, open(path))
            .unwrap_or_else(|e| {
                eprintln!("error: writing jsonl: {e}");
                std::process::exit(1);
            });
        // Append each policy's final snapshot line after the event blocks,
        // in shard order, mirroring the serial per-policy files.
        {
            use std::io::Write;
            let mut append = |line: &str| {
                writeln!(out, "{line}").unwrap_or_else(|e| {
                    eprintln!("error: writing jsonl: {e}");
                    std::process::exit(1);
                });
            };
            for result in &results {
                if let Ok((telemetry, _)) = &result.outcome {
                    append(&telemetry.snapshot_line());
                }
            }
        }
        finish(Ok(out), "jsonl");
        (results, Some(mux))
    } else {
        let jobs: Vec<_> = names
            .iter()
            .map(|&name| {
                move |sink: &mut NullSink| replay_shard(name, trace, workload, config, sink)
            })
            .collect();
        (run_sharded(jobs, workers, &NullSinkFactory), None)
    };

    for (result, &name) in results.iter().zip(names) {
        println!("=== {name} (shard {}) ===", result.shard);
        match &result.outcome {
            Ok((telemetry, report)) => {
                println!("{}", Telemetry::interval_header());
                for row in telemetry.interval_rows() {
                    println!("{row}");
                }
                println!("{}", telemetry.report());
                print_report_summary(report);
            }
            Err(panic) => println!("shard panicked: {panic}\n"),
        }
        if result.sink.sent + result.sink.channel_dropped + result.sink.sampled_out > 0 {
            eprintln!(
                "shard {}: {} events sent, {} dropped by channel, {} sampled out",
                result.shard,
                result.sink.sent,
                result.sink.channel_dropped,
                result.sink.sampled_out
            );
        }
    }
    if let Some(mux) = mux {
        eprintln!(
            "jsonl: {} events merged, {} dropped",
            mux.events_written, mux.dropped_total
        );
    }
}

/// The `--stress` resource line: wall clock, throughput, peak RSS (from
/// `/proc/self/status`), and total allocations. The allocation figures are
/// only measured when the counting global allocator is compiled in
/// (`--features alloc-profile`); otherwise they print as "n/a".
fn print_stress_line(report: &SimReport, elapsed: std::time::Duration) {
    let secs = elapsed.as_secs_f64();
    let throughput = if secs > 0.0 {
        report.stats.invocations() as f64 / secs
    } else {
        0.0
    };
    let rss = match cc_prof::peak_rss_bytes() {
        Some(bytes) => cc_prof::fmt_bytes(bytes),
        None => "n/a".to_string(),
    };
    let allocs = match cc_prof::alloc_totals() {
        Some((count, bytes)) => {
            let per_inv = if report.stats.invocations() > 0 {
                format!(
                    ", {:.2} allocs/invocation",
                    count as f64 / report.stats.invocations() as f64
                )
            } else {
                String::new()
            };
            format!(
                "{count} allocations / {}{per_inv}",
                cc_prof::fmt_bytes(bytes)
            )
        }
        None => "allocations n/a (build with --features alloc-profile)".to_string(),
    };
    println!("stress: {secs:.3}s wall ({throughput:.0} inv/s), peak RSS {rss}, {allocs}");
    println!();
}

fn print_report_summary(report: &SimReport) {
    println!(
        "simulator: mean service {:.4}s  warm fraction {:.3}  spend ${:.6}  \
         evictions {}",
        report.mean_service_time_secs(),
        report.warm_fraction(),
        report.keep_alive_spend.as_dollars(),
        report.evictions,
    );
    println!();
}

/// `base` with `-<policy>` spliced in before the extension, when several
/// policies share one `--jsonl`/`--chrome` destination.
fn policy_path(base: &str, policy: &str, multi: bool) -> String {
    if !multi {
        return base.to_string();
    }
    let dir_end = base.rfind('/').map_or(0, |s| s + 1);
    match base.rfind('.') {
        Some(dot) if dot > dir_end => format!("{}-{policy}{}", &base[..dot], &base[dot..]),
        _ => format!("{base}-{policy}"),
    }
}

fn open(path: &str) -> BufWriter<File> {
    BufWriter::new(
        File::create(path).unwrap_or_else(|e| usage_error(&format!("cannot create {path:?}: {e}"))),
    )
}

fn finish(result: std::io::Result<BufWriter<File>>, what: &str) {
    use std::io::Write;
    match result {
        Ok(mut writer) => {
            if let Err(e) = writer.flush() {
                eprintln!("error: flushing {what}: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: writing {what}: {e}");
            std::process::exit(1);
        }
    }
}
