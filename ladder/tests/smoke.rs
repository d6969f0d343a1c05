//! Drives the built `camelot-ladder` binary the way the driver and a
//! reviewer do, in its shortest settings, and holds what it prints
//! against `BENCHMARK.json`.

use std::process::Command;

const LADDER: &str = env!("CARGO_BIN_EXE_camelot-ladder");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// The `"name"` strings of the array under `key`. The file is flat
/// enough (no array nests inside another) for a scan to do.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(LADDER)
        .args(args)
        .output()
        .expect("run camelot-ladder");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn quick_run_prints_every_metric_once_per_workload() {
    let json = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json");
    let (ok, stdout, stderr) = run(&["--quick", "--seed", "3"]);
    assert!(ok, "camelot-ladder --quick failed:\n{stderr}");
    let mut workloads = names_in(&json, "workloads");
    assert_eq!(workloads.len(), 6);
    // Run but not gated; `--quick` leaves out the other ungated
    // workload, the one that spawns processes.
    workloads.push("fsync_update".into());
    for w in &workloads {
        for (kind, key) in [("e2e", "end_to_end"), ("layer", "per_layer")] {
            for name in names_in(&json, key) {
                let head = format!("{kind} {w} {name} = ");
                let n = stdout.lines().filter(|l| l.starts_with(&head)).count();
                assert_eq!(n, 1, "`{head}` printed {n} times");
            }
        }
        let check = format!("check {w} correct=true ");
        assert!(stdout.contains(&check), "no `{check}` in:\n{stdout}");
    }
    assert!(!stdout.contains(" socket_2pc "));
}

#[test]
fn contract_run_ends_in_one_json_object_with_the_end_to_end_metrics() {
    let json = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json");
    let (ok, stdout, stderr) = run(&[
        "--workload",
        "local_read",
        "--seed",
        "11",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(ok, "contract run failed:\n{stderr}");
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for name in names_in(&json, "end_to_end") {
        let key = format!("\"{name}\": {{\"value\": ");
        assert_eq!(last.matches(&key).count(), 1, "{name} in {last}");
    }
    assert!(
        !last.contains("core."),
        "per-layer metric in a --trace 0 run"
    );
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = Command::new(LADDER).args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
