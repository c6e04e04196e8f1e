//! The committed `BENCH_sim.json` benchmark record is partly hand-curated
//! (it keeps earlier recordings beside re-measured ones), so it is checked
//! here to stay one well-formed JSON document.

#[test]
fn bench_sim_json_is_well_formed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let text = std::fs::read_to_string(path).expect("BENCH_sim.json is readable");
    if let Err(e) = serde_json::from_str(&text) {
        panic!("BENCH_sim.json is not valid JSON: {e}");
    }
}
