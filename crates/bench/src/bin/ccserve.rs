//! `ccserve`: run the CodeCrunch control plane as an always-on service.
//!
//! Where `ccstat` replays a trace batch-style (as fast as the CPU goes),
//! `ccserve` runs the same decision core in **service mode**: arrivals are
//! released on a clock, the SRE optimizer ticks on interval boundaries as
//! they pass, one telemetry table row prints as each interval closes, and
//! Ctrl-C performs a graceful drain — in-flight arrivals finish, the
//! partial final interval is flushed, and the full report prints.
//!
//! ```text
//! # One simulated hour at 60x wall speed, live table:
//! cargo run --release -p bench --bin ccserve -- --policy codecrunch --minutes 60
//!
//! # Same service loop at millions-of-x on the virtual clock:
//! cargo run --release -p bench --bin ccserve -- --virtual --minutes 600
//!
//! # Streaming generator (O(#functions) memory), doubled arrival rate,
//! # stop after 48 simulated hours, export the event stream:
//! cargo run --release -p bench --bin ccserve -- --virtual --scenario stream \
//!     --functions 5000 --minutes 4320 --rate-scale 2.0 --duration 2880 \
//!     --jsonl served.jsonl
//! ```
//!
//! The clock is wall time scaled by `--speed` (default 60: one simulated
//! minute per wall second) or, with `--virtual`, a deterministic
//! `VirtualClock` the ingestion path advances itself — the run then
//! produces bit-identical digests to the batch engine (the contract
//! `tests/serve_parity.rs` pins). `--duration MINS` cuts the timeline at
//! that simulated instant via the same graceful-drain path SIGINT uses.

use std::fs::File;
use std::io::BufWriter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cc_compress::CompressionModel;
use cc_experiments::{build_policy, PolicyError};
use cc_serve::{Clock, RealClock, ServeHandle, ServeOptions, Server, VirtualClock};
use cc_sim::{ClusterConfig, Event, EventSink, JsonlSink, SharedTelemetry, Telemetry};
use cc_trace::{StreamingTrace, SyntheticTrace, Trace};
use cc_types::{SimDuration, SimTime};
use cc_workload::{Catalog, Workload};

const USAGE: &str = "usage: ccserve [--policy NAME] [--scenario synthetic|stream] \
                     [--functions N] [--minutes N] [--seed N] [--rate-scale F] \
                     [--x86 N] [--arm N] [--warm-fraction F] \
                     [--speed F | --virtual] [--duration MINS] [--queue N] \
                     [--jsonl PATH] [--no-table]";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Set from the signal handler; the watcher thread turns it into a drain.
/// (Only the atomic store happens in signal context — draining takes
/// locks, which are not async-signal-safe.)
static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signum: i32) {
    SIGINT_SEEN.store(true, Ordering::SeqCst);
}

fn install_sigint_handler() {
    const SIGINT: i32 = 2;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `on_sigint` is async-signal-safe (a single atomic store) and
    // stays valid for the program's lifetime.
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

/// Live telemetry (shared, so the final report survives the run) plus the
/// optional JSONL exporter, printing one table row per closed interval.
struct CcserveSink {
    telemetry: SharedTelemetry,
    live: bool,
    jsonl: Option<JsonlSink<BufWriter<File>>>,
}

impl EventSink for CcserveSink {
    fn record(&mut self, event: &Event) {
        self.telemetry.record(event);
        if let Some(sink) = &mut self.jsonl {
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
    let mut policy_name = String::from("codecrunch");
    let mut scenario = String::from("synthetic");
    let mut functions: usize = 200;
    let mut minutes: u64 = 20;
    let mut seed: u64 = 7;
    let mut rate_scale: f64 = 1.0;
    let mut x86: u32 = 2;
    let mut arm: u32 = 2;
    let mut warm_fraction: Option<f64> = None;
    let mut speed: f64 = 60.0;
    let mut virtual_clock = false;
    let mut duration_mins: Option<u64> = None;
    let mut queue_capacity: usize = 1024;
    let mut jsonl_path: Option<String> = None;
    let mut live = true;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} takes a value")))
        };
        match arg.as_str() {
            "--policy" => policy_name = next("--policy"),
            "--scenario" => scenario = next("--scenario"),
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
            "--rate-scale" => {
                rate_scale = next("--rate-scale")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--rate-scale takes a number"));
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
            "--speed" => {
                speed = next("--speed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--speed takes a number"));
            }
            "--virtual" => virtual_clock = true,
            "--duration" => {
                duration_mins = Some(
                    next("--duration")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--duration takes minutes")),
                );
            }
            "--queue" => {
                queue_capacity = next("--queue")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--queue takes an integer"));
            }
            "--jsonl" => jsonl_path = Some(next("--jsonl")),
            "--no-table" => live = false,
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    // Check the policy name before building any scenario. The Oracle needs
    // the materialized trace only the synthetic scenario has.
    match build_policy(&policy_name, None) {
        Err(PolicyError::NeedsTrace) if scenario == "synthetic" => {}
        Err(e) => usage_error(&e.to_string()),
        Ok(_) => {}
    }

    let mut config = ClusterConfig::small(x86, arm);
    if let Some(fraction) = warm_fraction {
        config = config.with_warm_memory_fraction(fraction);
    }

    // Materialized trace (None for the streaming scenario).
    let trace: Option<Trace>;
    let workload;
    match scenario.as_str() {
        "synthetic" => {
            if rate_scale != 1.0 {
                usage_error("--rate-scale applies to --scenario stream only");
            }
            let t = SyntheticTrace::builder()
                .functions(functions)
                .duration(SimDuration::from_mins(minutes))
                .seed(seed)
                .build();
            workload = Workload::from_trace(
                &t,
                &Catalog::paper_catalog(),
                &CompressionModel::paper_default(),
            );
            trace = Some(t);
        }
        "stream" => {
            let stream = StreamingTrace::builder()
                .functions(functions)
                .duration(SimDuration::from_mins(minutes))
                .seed(seed)
                .rate_scale(rate_scale)
                .build();
            workload = Workload::from_functions(
                stream.functions(),
                &Catalog::paper_catalog(),
                &CompressionModel::paper_default(),
            );
            trace = None;
            // Rebuilt below (Workload::from_functions borrowed it); the
            // builder is deterministic so the rebuild is the same stream.
            drop(stream);
        }
        other => usage_error(&format!("unknown scenario {other} (synthetic|stream)")),
    }
    let mut policy =
        build_policy(&policy_name, trace.as_ref()).expect("policy name validated at startup");

    let clock: Arc<dyn Clock> = if virtual_clock {
        Arc::new(VirtualClock::new())
    } else {
        Arc::new(RealClock::with_speed(speed))
    };
    let server = Server::new(
        Arc::clone(&clock),
        ServeOptions {
            queue_capacity,
            collect_records: true,
        },
    );
    let handle = server.handle();

    // `--duration` is a pre-declared timeline cut: the drain machinery
    // refuses every arrival at or after the instant, so the service winds
    // down exactly there regardless of clock mode.
    if let Some(mins) = duration_mins {
        let at = SimTime::ZERO + SimDuration::from_mins(mins);
        handle.drain_at(at);
    }

    install_sigint_handler();
    let done = Arc::new(AtomicBool::new(false));
    let watcher = spawn_sigint_watcher(handle.clone(), Arc::clone(&done));

    let telemetry = SharedTelemetry::new(config.interval);
    let mut sink = CcserveSink {
        telemetry: telemetry.clone(),
        live,
        jsonl: jsonl_path.as_deref().map(|path| {
            JsonlSink::new(BufWriter::new(
                File::create(path).unwrap_or_else(|e| usage_error(&format!("{path}: {e}"))),
            ))
        }),
    };

    println!(
        "ccserve: policy {policy_name}, scenario {scenario}, {functions} functions, \
         {minutes} simulated minutes, clock {}",
        if virtual_clock {
            "virtual".to_string()
        } else {
            format!("real at {speed}x")
        }
    );
    if live {
        println!("{}", Telemetry::interval_header());
    }

    let wall_start = Instant::now();
    let outcome = match scenario.as_str() {
        "synthetic" => {
            let trace = trace.as_ref().expect("synthetic scenario has a trace");
            server.serve(
                &config,
                cc_sim::SliceSource::from_trace(trace),
                &workload,
                policy.as_mut(),
                &mut sink,
            )
        }
        _ => {
            let stream = StreamingTrace::builder()
                .functions(functions)
                .duration(SimDuration::from_mins(minutes))
                .seed(seed)
                .rate_scale(rate_scale)
                .build();
            server.serve(&config, stream, &workload, policy.as_mut(), &mut sink)
        }
    };
    let wall = wall_start.elapsed();
    done.store(true, Ordering::SeqCst);
    watcher.join().expect("watcher thread");

    if let Some(jsonl) = sink.jsonl {
        jsonl
            .finish()
            .unwrap_or_else(|e| usage_error(&format!("writing jsonl: {e}")))
            .into_inner()
            .unwrap_or_else(|e| usage_error(&format!("flushing jsonl: {e}")));
    }

    println!("\n{}", telemetry.report());
    let stats = &outcome.queue;
    println!(
        "ingestion: {} pushed, {} delivered, {} dropped at drain, peak depth {}",
        stats.pushed, stats.delivered, stats.dropped_at_drain, stats.peak_depth
    );
    let served_secs = outcome.horizon.as_secs_f64();
    println!(
        "served {:.1} simulated minutes in {:.2}s wall ({:.0}x), report digest {:016x}, \
         telemetry digest {:016x}",
        served_secs / 60.0,
        wall.as_secs_f64(),
        served_secs / wall.as_secs_f64().max(1e-9),
        outcome.report.digest(),
        telemetry.digest(),
    );
}

/// Polls the SIGINT flag off signal context and turns the first Ctrl-C
/// into a graceful drain. A second Ctrl-C exits immediately.
fn spawn_sigint_watcher(handle: ServeHandle, done: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut drained = false;
        while !done.load(Ordering::SeqCst) {
            if SIGINT_SEEN.swap(false, Ordering::SeqCst) {
                if drained {
                    eprintln!("ccserve: second interrupt, exiting immediately");
                    std::process::exit(130);
                }
                drained = true;
                let eff = handle.drain_now();
                eprintln!(
                    "ccserve: interrupt — draining at t={:.1}min (in-flight work finishes; \
                     Ctrl-C again to abort)",
                    eff.as_micros() as f64 / 60e6
                );
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    })
}
