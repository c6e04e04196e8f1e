//! Emits `BENCH_sim.json`: simulator throughput (invocations/second) per
//! policy on the 10 000-function stress scenario.
//!
//! Usage (from the repo root):
//!
//! ```text
//! cargo run --release -p bench --bin simbench            # writes BENCH_sim.json
//! cargo run --release -p bench --bin simbench -- --runs 5 --out BENCH_sim.json
//! cargo run --release -p bench --bin simbench -- --scenario small --sink jsonl
//! cargo run --release -p bench --bin simbench -- --baseline BENCH_sim.json --tolerance 0.03
//! ```
//!
//! Each policy is replayed `--runs` times (default 3) after one warm-up
//! replay; the reported figure is the best run, which is the least noisy
//! estimator on a shared machine.
//!
//! `--sink` selects the event sink the replay runs under: `null` (the
//! default, PR 1's uninstrumented fast path), `jsonl`, or `chrome` — the
//! exporters serialize the full event stream into `std::io::sink()`, so
//! the measured delta is pure observability overhead with no disk noise.
//!
//! `--baseline` compares the measured throughput against a previously
//! recorded `BENCH_sim.json` (either this binary's output or the annotated
//! before/after variant) and exits non-zero if any measured policy falls
//! below `baseline * (1 - tolerance)`; `--tolerance` defaults to 0.03.
//!
//! `--shards N` switches to the sharded parallel driver: every selected
//! policy becomes one shard, dispatched across `N` worker threads. The
//! headline figure is then the *aggregate* sweep throughput (all policies'
//! invocations over the sweep wall-clock). Every mode records each
//! policy's canonical report digest, and `--digests-match PATH` asserts
//! they equal the digests in a previously written file — the CI proof that
//! `--shards N` is behavior-preserving with respect to a serial run.
//!
//! `--audit` (jsonl sink only) captures the serialized stream in memory
//! instead of discarding it, then runs the `cc-replay` invariant auditor
//! over every replay and exits non-zero on any violation — a cheap CI
//! smoke test that the live event stream obeys the engine's conservation
//! laws. Throughput measured under `--audit` includes the capture cost, so
//! don't compare those figures against `--baseline` numbers.
//!
//! `--profile` runs the *measured* replays (never the warm-ups) under
//! `cc-prof`'s wall-clock profiler and prints the per-phase self-time
//! table after the results. `--profile-out PATH` writes the self-profile
//! JSON (the input to `ccprof diff`), `--profile-trace PATH` writes a
//! Chrome/Perfetto trace of the simulator's own threads, and
//! `--profile-baseline PATH` names a previously recorded self-profile:
//! when the `--baseline` throughput gate fails, the failure output then
//! attributes the regression to the phase whose share of wall clock grew
//! the most. Build with `--features alloc-profile` to also attribute
//! allocations per phase.
//!
//! `--gap` prices every selected policy's run against the hindsight-optimal
//! lower bound from `cc-bound` and prints one gap row per policy (batch
//! scenarios only — the estimators need the materialized trace). Any
//! policy landing *below* the bound is a conservation violation and exits
//! non-zero; `--gap-ceiling POLICY=PCT` additionally bounds a policy's gap
//! from above (e.g. `--gap-ceiling oracle=50` asserts the clairvoyant
//! oracle stays within 50% of optimal). Under `--shards` the pricing
//! replays run on the sharded driver, so CI checks the invariant against
//! sharded execution itself.
//!
//! `--workers N` switches to the *intra-run* parallel engine
//! (`cc_sim::run_parallel`): ONE simulation per policy, with the
//! instrumentation pipeline (arrival prefetch, JSONL encoding, ordered
//! write-out, telemetry folding) spread across N encoder workers plus the
//! feeder/writer/telemetry threads. Results are worker-count-independent;
//! CI compares `--workers 1` against `--workers 2` digests via
//! `--digests-match`. The streaming scenarios (`--scenario stream|1m`)
//! require this mode: their invocation streams are generated on the fly
//! and never materialize, so `simulate_1m` (one million functions, two
//! simulated days, ~12M invocations) runs in O(#functions) memory.

use std::time::Instant;

use bench::{BenchScenario, StreamScenario};
use cc_bound::{measured_cost_of_report, GapReport, HindsightInput, NanoCost};
use cc_experiments::{build_policy, PolicyError, POLICY_NAMES};
use cc_shard::{run_sharded, run_sharded_jsonl, NullSinkFactory, ShardedRunConfig};
use cc_sim::{
    ChannelSink, ChromeTraceSink, JsonlSink, NullProfiler, NullSink, ParallelOptions, Profiler,
    SamplingSink, Scheduler, SimReport, Simulation, SliceSource, WallProfiler,
};
use serde_json::Value;

/// With the `alloc-profile` feature, every allocation in this binary is
/// counted and attributed to the active profiling phase.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static ALLOC: cc_prof::CountingAllocator = cc_prof::CountingAllocator::new();

const USAGE: &str = "usage: simbench [--runs N] [--out PATH] [--scenario large|small|stream|1m] \
                     [--sink null|jsonl|chrome] [--policies a,b,..] \
                     [--baseline PATH] [--tolerance FRAC] \
                     [--shards N] [--workers N] [--digests-match PATH] [--audit] \
                     [--gap] [--gap-ceiling POLICY=PCT] \
                     [--profile] [--profile-out PATH] [--profile-trace PATH] \
                     [--profile-baseline PATH]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum SinkMode {
    Null,
    Jsonl,
    Chrome,
}

impl SinkMode {
    fn label(self) -> &'static str {
        match self {
            SinkMode::Null => "null",
            SinkMode::Jsonl => "jsonl",
            SinkMode::Chrome => "chrome",
        }
    }
}

/// Every policy name is checked before any scenario is built.
const VALIDATED: &str = "policy names are validated at startup";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Which scenario family the bench drives.
enum Bench {
    /// Materialized trace (the classic path).
    Batch(BenchScenario),
    /// On-the-fly invocation stream (requires `--workers`).
    Stream(StreamScenario),
}

fn main() {
    let mut runs: u32 = 3;
    let mut out = String::from("BENCH_sim.json");
    let mut scenario_name = String::from("large");
    let mut sink = SinkMode::Null;
    let mut policy_filter: Option<Vec<String>> = None;
    let mut baseline: Option<String> = None;
    let mut tolerance: f64 = 0.03;
    let mut shards: Option<usize> = None;
    let mut workers_opt: Option<usize> = None;
    let mut digests_match: Option<String> = None;
    let mut gap = false;
    let mut gap_ceilings: Vec<(String, f64)> = Vec::new();
    let mut audit = false;
    let mut profile = false;
    let mut profile_out: Option<String> = None;
    let mut profile_trace: Option<String> = None;
    let mut profile_baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => {
                runs = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => usage_error("--runs takes a positive integer"),
                };
            }
            "--out" => {
                out = match args.next() {
                    Some(path) => path,
                    None => usage_error("--out takes a path"),
                };
            }
            "--scenario" => match args.next().as_deref() {
                Some(name @ ("large" | "small" | "stream" | "1m")) => {
                    scenario_name = name.into();
                }
                _ => usage_error("--scenario takes large, small, stream, or 1m"),
            },
            "--sink" => {
                sink = match args.next().as_deref() {
                    Some("null") => SinkMode::Null,
                    Some("jsonl") => SinkMode::Jsonl,
                    Some("chrome") => SinkMode::Chrome,
                    _ => usage_error("--sink takes null, jsonl, or chrome"),
                };
            }
            "--policies" => {
                policy_filter = match args.next() {
                    Some(list) => Some(list.split(',').map(|s| s.trim().to_string()).collect()),
                    None => usage_error("--policies takes a comma-separated list"),
                };
            }
            "--baseline" => {
                baseline = match args.next() {
                    Some(path) => Some(path),
                    None => usage_error("--baseline takes a path"),
                };
            }
            "--tolerance" => {
                tolerance = match args.next().and_then(|v| v.parse().ok()) {
                    Some(f) if (0.0..1.0).contains(&f) => f,
                    _ => usage_error("--tolerance takes a fraction in [0, 1)"),
                };
            }
            "--shards" => {
                shards = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => Some(n),
                    _ => usage_error("--shards takes a positive worker count"),
                };
            }
            "--workers" => {
                workers_opt = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => Some(n),
                    _ => usage_error("--workers takes a positive worker count"),
                };
            }
            "--digests-match" => {
                digests_match = match args.next() {
                    Some(path) => Some(path),
                    None => usage_error("--digests-match takes a path"),
                };
            }
            "--gap" => gap = true,
            "--gap-ceiling" => match args.next() {
                Some(spec) => match spec.split_once('=') {
                    Some((name, pct)) => match pct.trim().parse::<f64>() {
                        Ok(pct) if pct >= 0.0 && pct.is_finite() => {
                            gap_ceilings.push((name.trim().to_string(), pct));
                        }
                        _ => usage_error("--gap-ceiling percent must be a non-negative number"),
                    },
                    None => usage_error("--gap-ceiling takes POLICY=PCT (e.g. oracle=25)"),
                },
                None => usage_error("--gap-ceiling takes POLICY=PCT (e.g. oracle=25)"),
            },
            "--audit" => audit = true,
            "--profile" => profile = true,
            "--profile-out" => {
                profile_out = match args.next() {
                    Some(path) => Some(path),
                    None => usage_error("--profile-out takes a path"),
                };
            }
            "--profile-trace" => {
                profile_trace = match args.next() {
                    Some(path) => Some(path),
                    None => usage_error("--profile-trace takes a path"),
                };
            }
            "--profile-baseline" => {
                profile_baseline = match args.next() {
                    Some(path) => Some(path),
                    None => usage_error("--profile-baseline takes a path"),
                };
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if shards.is_some() && sink == SinkMode::Chrome {
        usage_error("--shards supports null and jsonl sinks (chrome is serial-only)");
    }
    if shards.is_some() && baseline.is_some() {
        usage_error("--baseline compares per-policy serial throughput; use it without --shards");
    }
    if audit && sink != SinkMode::Jsonl {
        usage_error("--audit checks the serialized event stream; add --sink jsonl");
    }
    if workers_opt.is_some() && shards.is_some() {
        usage_error(
            "--workers (intra-run pipeline) and --shards (run-level sharding) are exclusive",
        );
    }
    if workers_opt.is_some() && sink == SinkMode::Chrome {
        usage_error("--workers supports null and jsonl sinks (chrome is serial-only)");
    }
    if workers_opt.is_some() && baseline.is_some() {
        usage_error("--baseline compares per-policy serial throughput; use it without --workers");
    }
    if !gap_ceilings.is_empty() && !gap {
        usage_error("--gap-ceiling needs --gap");
    }
    // Every named policy is checked before any scenario is built: the 1M
    // build alone takes seconds. Streaming scenarios never materialize a
    // trace, so the Oracle cannot run there.
    let streaming = matches!(scenario_name.as_str(), "stream" | "1m");
    let ceiling_names = gap_ceilings.iter().map(|(name, _)| name);
    for name in policy_filter.iter().flatten().chain(ceiling_names) {
        match build_policy(name, None) {
            Err(PolicyError::NeedsTrace) if !streaming => {}
            Err(e) => usage_error(&e.to_string()),
            Ok(_) => {}
        }
    }
    if streaming && workers_opt.is_none() {
        usage_error("streaming scenarios run on the intra-run pipeline; add --workers N");
    }
    if gap && streaming {
        usage_error("--gap prices a materialized trace; streaming scenarios never build one");
    }

    // Profiling session: discard any residue, arm the DynScope probe sites,
    // and (when a Perfetto trace was requested) retain raw spans. Warm-up
    // replays run with profiling force-disabled, so only measured replays
    // land in the profile and `measured_wall_ns` is exactly the wall clock
    // the recorded spans must cover.
    let profiling =
        profile || profile_out.is_some() || profile_trace.is_some() || profile_baseline.is_some();
    if profiling {
        cc_prof::reset();
        cc_prof::set_wall_enabled(true);
        if profile_trace.is_some() {
            cc_prof::set_trace_capture(true);
        }
    }
    let mut measured_wall_ns: u64 = 0;

    let bench = match scenario_name.as_str() {
        "small" => Bench::Batch(BenchScenario::new()),
        "large" => Bench::Batch(BenchScenario::large()),
        "stream" => Bench::Stream(StreamScenario::smoke()),
        "1m" => Bench::Stream(StreamScenario::million()),
        _ => unreachable!("scenario name validated at parse time"),
    };
    match &bench {
        Bench::Batch(scenario) => eprintln!(
            "scenario: {scenario_name} ({} functions, {} invocations, {} nodes), sink: {}",
            scenario.trace.functions().len(),
            scenario.trace.invocations().len(),
            scenario.config.total_nodes(),
            sink.label(),
        ),
        Bench::Stream(scenario) => eprintln!(
            "scenario: {scenario_name} ({} functions, ~{} invocations expected, {} nodes, \
             streaming), sink: {}",
            scenario.functions,
            scenario.expected_invocations,
            scenario.config.total_nodes(),
            sink.label(),
        ),
    }

    let selected: Vec<&str> = POLICY_NAMES
        .iter()
        .copied()
        .filter(|name| match &policy_filter {
            Some(filter) => filter.iter().any(|f| f == name),
            // Streaming scale defaults to the cheapest policy: the point
            // is the engine pipeline, not a policy sweep, and the oracle
            // cannot run without a materialized trace anyway.
            None if streaming => *name == "fixed_keepalive",
            None => true,
        })
        .collect();

    let mut entries = Vec::new();
    let mut measured: Vec<(String, f64)> = Vec::new();
    let mut digests: Vec<(String, u64)> = Vec::new();
    let mut aggregate = None;
    let mut actual_invocations: Option<u64> = None;

    if let Some(workers) = workers_opt {
        // Intra-run parallel mode: one simulation per policy on the
        // pipelined engine. Results are worker-count-independent, so the
        // recorded digests double as the parity reference.
        let options = ParallelOptions::default().with_workers(workers);
        for name in &selected {
            if matches!(bench, Bench::Batch(_)) {
                // Warm-up replay; streaming replays are long enough to
                // amortize cold caches, and each one rebuilds the source.
                unprofiled(|| parallel_once(&bench, name, &options, sink, audit, false));
            }
            let mut best = f64::INFINITY;
            let mut reference: Option<(u64, u64, u64)> = None;
            for _ in 0..runs {
                let started = Instant::now();
                let result = parallel_once(&bench, name, &options, sink, audit, profiling);
                let elapsed = started.elapsed();
                best = best.min(elapsed.as_secs_f64());
                measured_wall_ns += elapsed.as_nanos() as u64;
                if let Some(prev) = reference {
                    assert_eq!(
                        prev, result,
                        "policy {name} is not run-to-run deterministic under --workers"
                    );
                }
                reference = Some(result);
            }
            let (digest, tel_digest, inv) = reference.expect("at least one run");
            let throughput = inv as f64 / best;
            eprintln!(
                "{name:>16}: {best:7.3} s  ({throughput:11.0} inv/s, {inv} invocations, \
                 {workers} workers)"
            );
            entries.push(serde_json::json!({
                "policy": *name,
                "seconds_per_replay": best,
                "invocations_per_sec": throughput,
                "report_digest": format!("{digest:#018x}"),
                "telemetry_digest": format!("{tel_digest:#018x}"),
            }));
            digests.push((name.to_string(), digest));
            actual_invocations = Some(inv);
        }
        aggregate = Some(serde_json::json!({
            "workers": workers as u64,
            "mode": "intra_run",
            "window_secs": options.window.as_secs_f64(),
        }));
    } else if let Some(workers) = shards {
        let Bench::Batch(scenario) = &bench else {
            unreachable!("streaming scenarios were rejected without --workers");
        };
        let invocations = scenario.trace.invocations().len() as u64;
        // Sharded mode: one shard per policy, `workers` threads, one
        // warm-up sweep, then best-of-`runs` on the sweep wall-clock.
        unprofiled(|| sharded_sweep(scenario, &selected, workers, sink, audit, false)); // warm-up
        let mut best_wall = f64::INFINITY;
        let mut best_shards: Vec<(u64, f64)> = Vec::new();
        for _ in 0..runs {
            let (wall, per_shard) =
                sharded_sweep(scenario, &selected, workers, sink, audit, profiling);
            measured_wall_ns += (wall * 1e9) as u64;
            if !best_shards.is_empty() {
                let prev: Vec<u64> = best_shards.iter().map(|(d, _)| *d).collect();
                let this: Vec<u64> = per_shard.iter().map(|(d, _)| *d).collect();
                assert_eq!(prev, this, "sharded sweep is not run-to-run deterministic");
            }
            if wall < best_wall || best_shards.is_empty() {
                best_wall = wall;
                best_shards = per_shard;
            }
        }
        let total_invocations = invocations * selected.len() as u64;
        let sweep_throughput = total_invocations as f64 / best_wall;
        eprintln!(
            "sharded sweep ({} policies, {workers} workers): {best_wall:7.3} s \
             ({sweep_throughput:11.0} inv/s aggregate)",
            selected.len()
        );
        for (name, (digest, secs)) in selected.iter().zip(&best_shards) {
            eprintln!("{name:>16}: {secs:7.3} s in shard, digest {digest:#018x}");
            entries.push(serde_json::json!({
                "policy": *name,
                "seconds_in_shard": *secs,
                "report_digest": format!("{digest:#018x}"),
            }));
            digests.push((name.to_string(), *digest));
        }
        aggregate = Some(serde_json::json!({
            "workers": workers as u64,
            "seconds_per_sweep": best_wall,
            "total_invocations": total_invocations,
            "invocations_per_sec": sweep_throughput,
        }));
    } else {
        let Bench::Batch(scenario) = &bench else {
            unreachable!("streaming scenarios were rejected without --workers");
        };
        let invocations = scenario.trace.invocations().len() as u64;
        for name in &selected {
            // Warm-up replay (page in the trace, fault in allocator arenas).
            unprofiled(|| {
                run_once(
                    scenario,
                    build_policy(name, Some(&scenario.trace))
                        .expect(VALIDATED)
                        .as_mut(),
                    sink,
                    audit,
                    false,
                )
            });
            let mut best = f64::INFINITY;
            let mut digest: Option<u64> = None;
            for _ in 0..runs {
                let started = Instant::now();
                let d = run_once(
                    scenario,
                    build_policy(name, Some(&scenario.trace))
                        .expect(VALIDATED)
                        .as_mut(),
                    sink,
                    audit,
                    profiling,
                );
                let elapsed = started.elapsed();
                best = best.min(elapsed.as_secs_f64());
                measured_wall_ns += elapsed.as_nanos() as u64;
                if let Some(prev) = digest {
                    assert_eq!(prev, d, "policy {name} is not run-to-run deterministic");
                }
                digest = Some(d);
            }
            let digest = digest.expect("at least one run");
            let throughput = invocations as f64 / best;
            eprintln!("{name:>16}: {best:7.3} s  ({throughput:11.0} inv/s)");
            entries.push(serde_json::json!({
                "policy": *name,
                "seconds_per_replay": best,
                "invocations_per_sec": throughput,
                "report_digest": format!("{digest:#018x}"),
            }));
            measured.push((name.to_string(), throughput));
            digests.push((name.to_string(), digest));
        }
    }

    let (gap_block, gap_failed) = if gap {
        let Bench::Batch(scenario) = &bench else {
            unreachable!("streaming scenarios were rejected with --gap");
        };
        let (block, failed) = gap_pass(scenario, &selected, shards, &gap_ceilings);
        (Some(block), failed)
    } else {
        (None, false)
    };

    let (benchmark, functions, nodes, invocations_doc) = match &bench {
        Bench::Batch(s) => (
            "simulate_10k",
            s.trace.functions().len() as u64,
            s.config.total_nodes() as u64,
            s.trace.invocations().len() as u64,
        ),
        Bench::Stream(s) => (
            if scenario_name == "1m" {
                "simulate_1m"
            } else {
                "simulate_stream"
            },
            s.functions as u64,
            s.config.total_nodes() as u64,
            actual_invocations.unwrap_or(s.expected_invocations as u64),
        ),
    };
    let doc = serde_json::json!({
        "benchmark": benchmark,
        "scenario_name": scenario_name,
        "sink": sink.label(),
        "functions": functions,
        "invocations": invocations_doc,
        "nodes": nodes,
        "runs_per_policy": runs as u64,
        "shards": shards.unwrap_or(0) as u64,
        "workers": workers_opt.unwrap_or(0) as u64,
        "aggregate": aggregate,
        "gap": gap_block,
        "results": entries,
    });
    let body = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write(&out, body + "\n").expect("write output file");
    eprintln!("wrote {out}");

    if gap_failed {
        eprintln!(
            "gap check failed: a policy priced below the hindsight lower bound or over its \
             --gap-ceiling"
        );
        std::process::exit(1);
    }

    let captured_profile = if profiling {
        let label = format!("simbench-{scenario_name}");
        let self_profile = cc_prof::take_profile(&label, measured_wall_ns);
        eprintln!();
        eprint!("{}", self_profile.render_table());
        if let Some(path) = &profile_out {
            std::fs::write(path, cc_prof::to_json(&self_profile))
                .unwrap_or_else(|e| usage_error(&format!("cannot write {path:?}: {e}")));
            eprintln!("wrote {path}");
        }
        if let Some(path) = &profile_trace {
            std::fs::write(path, cc_prof::to_chrome_trace(&self_profile))
                .unwrap_or_else(|e| usage_error(&format!("cannot write {path:?}: {e}")));
            eprintln!("wrote {path}");
        }
        Some(self_profile)
    } else {
        None
    };

    if let Some(path) = digests_match {
        let reference = parse_digests(&read_record(&path));
        if reference.is_empty() {
            usage_error(&format!("no report_digest entries in {path:?}"));
        }
        let mut failed = false;
        for (name, digest) in &digests {
            let Some((_, expected)) = reference.iter().find(|(n, _)| n == name) else {
                eprintln!("digests: {name} not in {path}, skipping");
                continue;
            };
            let verdict = if digest == expected { "ok" } else { "DIVERGED" };
            eprintln!("digests: {name:>16} {digest:#018x} vs recorded {expected:#018x} {verdict}");
            failed |= digest != expected;
        }
        if failed {
            eprintln!("digest check failed: sharded output diverged from the recorded digests");
            std::process::exit(1);
        }
    }

    if let Some(path) = baseline {
        let reference = parse_baseline(&read_record(&path));
        if reference.is_empty() {
            usage_error(&format!("no per-policy throughput entries in {path:?}"));
        }
        let mut regressed: Vec<String> = Vec::new();
        for (name, throughput) in &measured {
            let Some((_, base)) = reference.iter().find(|(n, _)| n == name) else {
                eprintln!("baseline: {name} not in {path}, skipping");
                continue;
            };
            let floor = base * (1.0 - tolerance);
            let verdict = if *throughput >= floor {
                "ok"
            } else {
                "REGRESSED"
            };
            eprintln!(
                "baseline: {name:>16} measured {throughput:11.0} inv/s vs floor {floor:11.0} \
                 (recorded {base:.0}, tolerance {tolerance}) {verdict}"
            );
            if *throughput < floor {
                regressed.push(name.clone());
            }
        }
        if !regressed.is_empty() {
            eprintln!(
                "baseline check failed on scenario '{scenario_name}': throughput regressed \
                 beyond tolerance for {}",
                regressed.join(", ")
            );
            attribute_regression(captured_profile.as_ref(), profile_baseline.as_deref());
            std::process::exit(1);
        }
    }
}

/// Prices every selected policy against the scenario's hindsight-optimal
/// DP lower bound (`cc-bound`) and prints one gap row per policy.
///
/// Measured costs come from a dedicated pricing replay per policy — under
/// `--shards` those replays run on the sharded driver with the same worker
/// count, so the invariant is checked against sharded execution itself;
/// other modes price serially (`--workers` results are proven
/// worker-count-independent by the digest parity check, so the serial
/// replay prices the identical run).
///
/// Returns the JSON block embedded under `"gap"` in the output document
/// and whether any row failed: a negative gap (the conservation invariant
/// broke — the bound or the engine's accounting has a bug) or a gap above
/// the policy's `--gap-ceiling`.
fn gap_pass(
    scenario: &BenchScenario,
    selected: &[&str],
    shards: Option<usize>,
    ceilings: &[(String, f64)],
) -> (serde_json::Value, bool) {
    let input = HindsightInput::from_trace(&scenario.trace, &scenario.workload, &scenario.config)
        .unwrap_or_else(|e| usage_error(&format!("--gap: {e}")));
    let reference = GapReport::for_input(&input);
    let lambda = reference.lambda_nanos;
    let price = |name: &str| -> NanoCost {
        let mut policy = build_policy(name, Some(&scenario.trace)).expect(VALIDATED);
        let report = Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload)
            .run(policy.as_mut());
        measured_cost_of_report(&report, lambda)
    };
    let measured: Vec<(&str, NanoCost)> = match shards {
        Some(workers) => {
            let jobs: Vec<_> = selected
                .iter()
                .map(|&name| move |_sink: &mut NullSink| price(name))
                .collect();
            run_sharded(jobs, workers, &NullSinkFactory)
                .into_iter()
                .zip(selected)
                .map(|(r, &name)| (name, r.outcome.expect("shard panicked")))
                .collect()
        }
        None => selected.iter().map(|&name| (name, price(name))).collect(),
    };
    let mut rows = Vec::new();
    let mut failed = false;
    for (name, cost) in measured {
        let row = reference.policy(name, cost);
        let ceiling = ceilings
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, pct)| pct);
        let over_ceiling = ceiling.is_some_and(|pct| row.gap_pct > pct);
        let verdict = if !row.holds() {
            "VIOLATED"
        } else if over_ceiling {
            "OVER CEILING"
        } else {
            "ok"
        };
        eprintln!(
            "gap: {name:>16} measured {:>20} lower {:>20} gap {:>8.2}% {verdict}",
            row.measured, row.lower_bound, row.gap_pct
        );
        failed |= !row.holds() || over_ceiling;
        rows.push(serde_json::json!({
            "policy": name,
            "measured_nano": row.measured.to_string(),
            "lower_bound_nano": row.lower_bound.to_string(),
            "gap_nano": row.gap.to_string(),
            "gap_pct": row.gap_pct,
            "holds": row.holds(),
            "ceiling_pct": ceiling,
        }));
    }
    let block = serde_json::json!({
        "lambda_nanos": lambda,
        "lower_bound_nano": reference.lower_bound.to_string(),
        "policies": rows,
    });
    (block, failed)
}

/// When a throughput gate fails under `--profile`, points at the phase
/// whose share of wall clock grew the most relative to the recorded
/// self-profile — "codecrunch regressed" becomes "pool_evict's share of
/// wall doubled".
fn attribute_regression(new_profile: Option<&cc_prof::SelfProfile>, baseline: Option<&str>) {
    let Some(new_profile) = new_profile else {
        return;
    };
    let Some(path) = baseline else {
        eprintln!(
            "baseline: rerun with --profile-baseline SELF_PROFILE.json to attribute the \
             regression to a phase"
        );
        return;
    };
    let base = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| cc_prof::from_json(&text))
    {
        Ok(base) => base,
        Err(e) => {
            eprintln!("baseline: cannot attribute regression ({path}: {e})");
            return;
        }
    };
    // Shares, not nanoseconds: the recorded profile may come from another
    // host or another run count.
    let report = cc_prof::diff_profiles(
        &base,
        new_profile,
        cc_prof::DiffOptions {
            relative: true,
            ..cc_prof::DiffOptions::default()
        },
    );
    let top = report.rows.iter().max_by(|a, b| {
        (a.new_share - a.base_share)
            .partial_cmp(&(b.new_share - b.base_share))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if let Some(row) = top {
        eprintln!(
            "baseline: top self-time delta: phase '{}' went {:.1}% -> {:.1}% of wall clock",
            row.phase.label(),
            row.base_share * 100.0,
            row.new_share * 100.0,
        );
    }
}

/// Runs `f` with the DynScope probe sites force-disabled — warm-up replays
/// must not leak spans into the measured profile.
fn unprofiled<T>(f: impl FnOnce() -> T) -> T {
    let was = cc_prof::wall_enabled();
    cc_prof::set_wall_enabled(false);
    let result = f();
    cc_prof::set_wall_enabled(was);
    result
}

/// Reads a recorded `BENCH_sim.json` (this binary's output or the
/// annotated before/after record) as a JSON document.
fn read_record(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read {path:?}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| usage_error(&format!("{path:?}: {e}")))
}

/// The `(policy, field)` pairs of a record's top-level `results[]`, taking
/// the first of `keys` each entry has. Nested `results` arrays (the
/// `sharded` and `parallel` blocks) are other scenarios and are ignored.
fn recorded<T>(
    record: &Value,
    keys: &[&str],
    read: impl Fn(&Value) -> Option<T>,
) -> Vec<(String, T)> {
    record["results"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|entry| {
            let value = keys.iter().find_map(|&key| entry.get(key))?;
            Some((entry["policy"].as_str()?.to_string(), read(value)?))
        })
        .collect()
}

/// Recorded throughput per policy: `after_invocations_per_sec` in the
/// annotated record, `invocations_per_sec` in this binary's output.
fn parse_baseline(record: &Value) -> Vec<(String, f64)> {
    recorded(
        record,
        &["after_invocations_per_sec", "invocations_per_sec"],
        Value::as_f64,
    )
}

/// Recorded `report_digest` per policy (hex strings, `0x`-prefixed).
fn parse_digests(record: &Value) -> Vec<(String, u64)> {
    recorded(record, &["report_digest"], |v| {
        let hex = v.as_str()?;
        u64::from_str_radix(hex.strip_prefix("0x").unwrap_or(hex), 16).ok()
    })
}

/// One replay on the intra-run parallel engine. Returns
/// `(report digest, telemetry digest, invocations)` — the tuple the
/// determinism assertion and the digest file both key on.
fn parallel_once(
    bench: &Bench,
    name: &str,
    options: &ParallelOptions,
    sink: SinkMode,
    audit: bool,
    profiled: bool,
) -> (u64, u64, u64) {
    if profiled {
        parallel_once_p::<WallProfiler>(bench, name, options, sink, audit)
    } else {
        parallel_once_p::<NullProfiler>(bench, name, options, sink, audit)
    }
}

fn parallel_once_p<P: Profiler>(
    bench: &Bench,
    name: &str,
    options: &ParallelOptions,
    sink: SinkMode,
    audit: bool,
) -> (u64, u64, u64) {
    match bench {
        Bench::Batch(s) => {
            let mut policy = build_policy(name, Some(&s.trace)).expect(VALIDATED);
            run_parallel_once::<_, P>(
                &s.config,
                SliceSource::from_trace(&s.trace),
                &s.workload,
                policy.as_mut(),
                options,
                sink,
                audit,
            )
        }
        Bench::Stream(s) => {
            let mut policy = build_policy(name, None).expect(VALIDATED);
            // Per-invocation records at streaming scale would defeat the
            // constant-memory point; the digest then covers stats only.
            let options = options.clone().without_records();
            run_parallel_once::<_, P>(
                &s.config,
                s.source(),
                &s.workload,
                policy.as_mut(),
                &options,
                sink,
                audit,
            )
        }
    }
}

fn run_parallel_once<Src: cc_sim::ArrivalSource + Send, P: Profiler>(
    config: &cc_sim::ClusterConfig,
    source: Src,
    workload: &cc_workload::Workload,
    policy: &mut dyn Scheduler,
    options: &ParallelOptions,
    sink: SinkMode,
    audit: bool,
) -> (u64, u64, u64) {
    let (outcome, captured): (_, Option<Vec<u8>>) = match sink {
        SinkMode::Null => {
            let (outcome, _) = cc_sim::run_parallel_profiled::<_, _, P>(
                config,
                source,
                workload,
                policy,
                None::<std::io::Sink>,
                options,
            )
            .expect("pipeline io");
            (outcome, None)
        }
        SinkMode::Jsonl if audit => {
            let (outcome, bytes) = cc_sim::run_parallel_profiled::<_, _, P>(
                config,
                source,
                workload,
                policy,
                Some(Vec::new()),
                options,
            )
            .expect("writing to memory cannot fail");
            (outcome, bytes)
        }
        SinkMode::Jsonl => {
            let (outcome, _) = cc_sim::run_parallel_profiled::<_, _, P>(
                config,
                source,
                workload,
                policy,
                Some(std::io::sink()),
                options,
            )
            .expect("writing to io::sink cannot fail");
            (outcome, None)
        }
        SinkMode::Chrome => unreachable!("rejected at argument parsing"),
    };
    if let Some(bytes) = captured {
        audit_stream(&bytes);
    }
    (
        outcome.report.digest(),
        outcome.telemetry.digest(),
        outcome.report.stats.invocations(),
    )
}

fn check_report(scenario: &BenchScenario, report: &SimReport) -> u64 {
    assert_eq!(
        report.records.len() as u64,
        scenario.trace.invocations().len() as u64
    );
    report.digest()
}

fn run_once(
    scenario: &BenchScenario,
    policy: &mut dyn Scheduler,
    sink: SinkMode,
    audit: bool,
    profiled: bool,
) -> u64 {
    if profiled {
        run_once_p::<WallProfiler>(scenario, policy, sink, audit)
    } else {
        run_once_p::<NullProfiler>(scenario, policy, sink, audit)
    }
}

fn run_once_p<P: Profiler>(
    scenario: &BenchScenario,
    policy: &mut dyn Scheduler,
    sink: SinkMode,
    audit: bool,
) -> u64 {
    let sim = Simulation::new(scenario.config.clone(), &scenario.trace, &scenario.workload);
    let report = match sink {
        SinkMode::Null => sim.run_with_sink_profiled::<_, P>(policy, &mut NullSink),
        SinkMode::Jsonl if audit => {
            // Audit mode keeps the serialized stream in memory and runs
            // the invariant auditor over it after the replay.
            let mut sink = JsonlSink::new(Vec::new());
            let report = sim.run_with_sink_profiled::<_, P>(policy, &mut sink);
            let bytes = sink.finish().expect("writing to memory cannot fail");
            audit_stream(&bytes);
            report
        }
        SinkMode::Jsonl => {
            let mut sink = JsonlSink::new(std::io::sink());
            let report = sim.run_with_sink_profiled::<_, P>(policy, &mut sink);
            assert!(sink.events_written() > 0);
            report
        }
        SinkMode::Chrome => {
            let mut sink = ChromeTraceSink::new(std::io::sink());
            sim.run_with_sink_profiled::<_, P>(policy, &mut sink)
        }
    };
    check_report(scenario, &report)
}

/// Decodes and audits one captured JSONL stream; exits non-zero on a
/// malformed stream or any invariant violation.
fn audit_stream(bytes: &[u8]) {
    let text = std::str::from_utf8(bytes).expect("jsonl output is utf-8");
    let log = cc_replay::decode_stream(text).unwrap_or_else(|e| {
        eprintln!("audit: stream failed to decode: {e}");
        std::process::exit(1);
    });
    let report = cc_replay::audit_log(&log, false);
    if !report.is_clean() {
        eprint!("{}", report.summary());
        std::process::exit(1);
    }
    eprintln!(
        "audit: {} events across {} shard(s), 0 violations",
        log.events(),
        log.shards.len()
    );
}

/// One sharded sweep: each selected policy is a shard, dispatched across
/// `workers` threads. Returns the sweep wall-clock and per-shard
/// `(report digest, seconds inside the shard)` in policy order.
fn sharded_sweep(
    scenario: &BenchScenario,
    selected: &[&str],
    workers: usize,
    sink: SinkMode,
    audit: bool,
    profiled: bool,
) -> (f64, Vec<(u64, f64)>) {
    if profiled {
        sharded_sweep_p::<WallProfiler>(scenario, selected, workers, sink, audit)
    } else {
        sharded_sweep_p::<NullProfiler>(scenario, selected, workers, sink, audit)
    }
}

fn sharded_sweep_p<P: Profiler>(
    scenario: &BenchScenario,
    selected: &[&str],
    workers: usize,
    sink: SinkMode,
    audit: bool,
) -> (f64, Vec<(u64, f64)>) {
    let started = Instant::now();
    let per_shard: Vec<(u64, f64)> = match sink {
        SinkMode::Null => {
            let jobs: Vec<_> = selected
                .iter()
                .map(|&name| {
                    move |_sink: &mut NullSink| {
                        let shard_started = Instant::now();
                        let mut policy =
                            build_policy(name, Some(&scenario.trace)).expect(VALIDATED);
                        let report = Simulation::new(
                            scenario.config.clone(),
                            &scenario.trace,
                            &scenario.workload,
                        )
                        .run_with_sink_profiled::<_, P>(policy.as_mut(), &mut NullSink);
                        (
                            check_report(scenario, &report),
                            shard_started.elapsed().as_secs_f64(),
                        )
                    }
                })
                .collect();
            run_sharded(jobs, workers, &NullSinkFactory)
                .into_iter()
                .map(|r| r.outcome.expect("shard panicked"))
                .collect()
        }
        SinkMode::Jsonl => {
            let jobs: Vec<_> = selected
                .iter()
                .map(|&name| {
                    move |sink: &mut SamplingSink<ChannelSink>| {
                        let shard_started = Instant::now();
                        let mut policy =
                            build_policy(name, Some(&scenario.trace)).expect(VALIDATED);
                        let report = Simulation::new(
                            scenario.config.clone(),
                            &scenario.trace,
                            &scenario.workload,
                        )
                        .run_with_sink_profiled::<_, P>(policy.as_mut(), sink);
                        (
                            check_report(scenario, &report),
                            shard_started.elapsed().as_secs_f64(),
                        )
                    }
                })
                .collect();
            let config = ShardedRunConfig {
                workers,
                channel_capacity: 8192,
                lossy: false,
                sample_every: 1,
            };
            if audit {
                let (results, merged, mux) = run_sharded_jsonl(jobs, &config, Vec::new())
                    .expect("writing to memory cannot fail");
                assert!(
                    mux.events_written > 0,
                    "sharded jsonl run emitted no events"
                );
                audit_stream(&merged);
                results
                    .into_iter()
                    .map(|r| r.outcome.expect("shard panicked"))
                    .collect()
            } else {
                let (results, _, mux) = run_sharded_jsonl(jobs, &config, std::io::sink())
                    .expect("writing to io::sink cannot fail");
                assert!(
                    mux.events_written > 0,
                    "sharded jsonl run emitted no events"
                );
                results
                    .into_iter()
                    .map(|r| r.outcome.expect("shard panicked"))
                    .collect()
            }
        }
        SinkMode::Chrome => unreachable!("rejected at argument parsing"),
    };
    (started.elapsed().as_secs_f64(), per_shard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_record_yields_exactly_its_six_results() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
        let record = read_record(path);
        assert_eq!(
            parse_baseline(&record),
            [
                ("fixed_keepalive", 358961.9),
                ("sitw", 349504.9),
                ("faascache", 357978.2),
                ("icebreaker", 318340.5),
                ("oracle", 293537.9),
                ("codecrunch", 306029.6),
            ]
            .map(|(name, value)| (name.to_string(), value))
        );
    }

    #[test]
    fn digests_come_from_top_level_results_only() {
        let record = serde_json::from_str(
            r#"{"results": [{"policy": "sitw", "report_digest": "0x00000000000000ff"}],
                "parallel": {"results": [{"policy": "oracle", "report_digest": "0x1"}]}}"#,
        )
        .unwrap();
        assert_eq!(parse_digests(&record), [("sitw".to_string(), 0xff)]);
    }
}
