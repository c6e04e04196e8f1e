//! The benchmark prints every metric `BENCHMARK.json` declares, with its
//! declared unit, and nothing else; and it runs clean on small inputs.

use std::collections::BTreeMap;

use perfbench::catalog::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::{run, Size, WORKLOADS};

/// The objects of the array under `key` in `BENCHMARK.json`, as text.
/// The file's metric and workload objects are flat, so a scan suffices.
fn objects(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?}"));
    let array = &text[start..];
    let array = &array[array.find('[').expect("an array")..array.find(']').expect("closed")];
    array.split('{').skip(1).map(str::to_string).collect()
}

/// The string value of `name` in a flat object.
fn field(object: &str, name: &str) -> String {
    let at = object
        .find(&format!("\"{name}\""))
        .unwrap_or_else(|| panic!("{object} lacks {name:?}"));
    let rest = &object[at + name.len() + 2..];
    let open = rest.find('"').expect("a string value") + 1;
    let close = open + rest[open..].find('"').expect("a closed string");
    rest[open..close].to_string()
}

fn declared(key: &str) -> Vec<(String, String, String)> {
    objects(key)
        .iter()
        .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
        .collect()
}

fn as_tuples(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    assert_eq!(declared("end_to_end"), as_tuples(END_TO_END));
    assert_eq!(declared("per_layer"), as_tuples(PER_LAYER));
    let workloads: Vec<String> = objects("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Metric name -> (value, unit) from a result line.
fn printed(line: &str) -> BTreeMap<String, (f64, String)> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    let mut out = BTreeMap::new();
    for entry in metrics.split("}, ").map(|e| e.trim_end_matches('}')) {
        let name = entry.split('"').nth(1).expect("a metric name").to_string();
        let value = entry
            .split("\"value\": ")
            .nth(1)
            .and_then(|v| v.split(',').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name}: value is not a number in {entry:?}"));
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)
            .and_then(|u| u.split('"').next())
            .expect("a unit")
            .to_string();
        out.insert(name, (value, unit));
    }
    out
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics_and_runs_clean() {
    for workload in WORKLOADS {
        for (traced, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let outcome = run(workload, 3, 0.0, traced, Size::Tiny);
            let line = outcome.json_line();
            assert!(outcome.tally.attempted >= 1, "{workload}: {line}");
            assert_eq!(
                outcome.tally.failed, 0,
                "{workload}: {:?}",
                outcome.tally.failures
            );
            assert!(
                line.starts_with(r#"{"correct": true, "attempted": "#),
                "{line}"
            );
            let metrics = printed(&line);
            let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            want.sort_unstable();
            assert_eq!(names, want, "{workload} trace={traced}");
            for def in defs {
                let (value, unit) = &metrics[def.name];
                assert_eq!(unit, def.unit, "{workload}: unit of {}", def.name);
                assert!(value.is_finite(), "{workload}: {} = {value}", def.name);
                if !traced {
                    assert!(*value > 0.0, "{workload}: {} = {value}", def.name);
                }
            }
        }
    }
}
