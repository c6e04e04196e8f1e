//! The command-line binaries reject a bad policy name up front: exit code
//! 2 (usage error), with every registered name listed on stderr, before
//! any scenario is built.

use std::process::{Command, Output};

use cc_experiments::POLICY_NAMES;

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {binary}: {e}"))
}

fn assert_usage_error(binary: &str, args: &[&str]) -> String {
    let out = run(binary, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{binary} {args:?}: {stderr}");
    stderr
}

#[test]
fn unknown_policy_exits_2_listing_every_name() {
    let out = std::env::temp_dir().join("cli_policies_unused.json");
    let out = out.to_str().expect("utf-8 temp path");
    let cases: [(&str, &[&str]); 3] = [
        (
            env!("CARGO_BIN_EXE_simbench"),
            &["--scenario", "small", "--out", out, "--policies", "nosuch"],
        ),
        (env!("CARGO_BIN_EXE_ccstat"), &["--policy", "nosuch"]),
        (env!("CARGO_BIN_EXE_ccserve"), &["--policy", "nosuch"]),
    ];
    for (binary, args) in cases {
        let stderr = assert_usage_error(binary, args);
        assert!(stderr.contains("nosuch"), "{binary}: {stderr}");
        for name in POLICY_NAMES {
            assert!(
                stderr.contains(name),
                "{binary} does not list {name}: {stderr}"
            );
        }
    }
}

#[test]
fn oracle_on_a_streaming_scenario_fails_before_the_build() {
    let stderr = assert_usage_error(
        env!("CARGO_BIN_EXE_simbench"),
        &[
            "--scenario",
            "stream",
            "--workers",
            "1",
            "--policies",
            "oracle",
        ],
    );
    assert!(stderr.contains("oracle"), "{stderr}");
    // simbench prints its `scenario:` line once the scenario is built.
    assert!(
        !stderr.contains("scenario:"),
        "scenario was built first: {stderr}"
    );

    let stderr = assert_usage_error(
        env!("CARGO_BIN_EXE_ccserve"),
        &["--scenario", "stream", "--policy", "oracle"],
    );
    assert!(stderr.contains("oracle"), "{stderr}");
}
