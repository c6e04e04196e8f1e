//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process and prints human-readable lines, then
//! as the last line of standard output one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics traced). Exits 2 on bad arguments.

use perfbench::{run, Size, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload sweep|stream|eventlog|serve --seed N \
                     --seconds S --trace 0|1";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage_error(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => usage_error(&format!("unknown workload {value:?}")),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage_error("bad --seed")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage_error("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                })
            }
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage_error("--workload, --seed, --seconds and --trace are all required");
    };
    let outcome = run(&workload, seed, seconds, trace, Size::Bench);
    for line in &outcome.notes {
        println!("# {line}");
    }
    println!("{}", outcome.json_line());
}
