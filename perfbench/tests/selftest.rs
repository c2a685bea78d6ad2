//! Self-tests of the benchmark: a tiny run of every workload emits exactly
//! the metrics `BENCHMARK.json` declares, with their units, and passes its
//! correctness checks; a corrupted reference digest fails them.

use std::path::{Path, PathBuf};
use std::process::Command;

use lash_obs::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    array(&benchmark_json(), section)
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// Runs the binary on a tiny corpus in a directory of its own; returns
/// whether it exited successfully and its parsed result line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (bool, Value) {
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{workload}-{trace}-{}", extra.len()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    let output = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .arg("--tiny")
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no result line; stderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    let result = json::parse(last).expect("result line parses");
    assert!(
        !dir.join(".bench_runs").exists(),
        "{workload}: the run directory was left behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
    (output.status.success(), result)
}

fn metric_names(result: &Value) -> Vec<(String, String)> {
    match result.get("metrics") {
        Some(Value::Object(members)) => members
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Value::as_f64).is_some(),
                    "{name} has no numeric value"
                );
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let workloads: Vec<String> = array(&benchmark_json(), "workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let (ok, result) = run(workload, trace, &[]);
            assert!(ok, "{workload} (trace {trace}) failed: {result:?}");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            assert_eq!(
                &metric_names(&result),
                expected,
                "{workload} (trace {trace})"
            );
        }
    }
}

#[test]
fn corrupted_reference_digest_fails_the_correctness_check() {
    let (ok, result) = run("mine_clp", false, &["--corrupt-reference"]);
    assert!(!ok, "a run against a corrupted reference must fail");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
}
