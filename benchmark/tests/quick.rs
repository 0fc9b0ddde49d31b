//! Runs every workload in `--quick` mode through the real binary, untraced
//! and traced, and checks the printed result against `BENCHMARK.json`:
//! every declared metric appears with its unit, the outputs check out,
//! the traced ledger closes and the trace validates.

use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

use scibench_trace::{parse_json, JsonValue};

/// Workload runs time themselves; running two at once would skew both.
static SERIAL: Mutex<()> = Mutex::new(());

fn contract() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// (name, unit) of every metric in `section` of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    contract()
        .get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload and returns (stdout, parsed last line).
fn run(workload: &str, trace: u8) -> (String, JsonValue) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output").to_owned();
    (stdout, parse_json(&last).expect("last line is JSON"))
}

/// Runs `workload` untraced and traced and checks both results; returns
/// the per-layer metrics the workload exercises.
fn check(workload: &str) -> Vec<String> {
    let mut exercised = Vec::new();
    for trace in [0u8, 1] {
        let (stdout, result) = run(workload, trace);
        assert_eq!(
            result.get("correct"),
            Some(&JsonValue::Bool(true)),
            "{stdout}"
        );
        assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
        let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
            panic!("no metrics object: {stdout}");
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name}"
                );
                let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
                (name.clone(), unit.to_owned())
            })
            .collect();
        let section = if trace == 1 {
            "per_layer"
        } else {
            "end_to_end"
        };
        assert_eq!(printed, declared(section), "{workload} trace={trace}");

        if trace == 1 {
            let unexplained = metrics
                .iter()
                .find(|(n, _)| n == "ledger.unexplained_frac")
                .and_then(|(_, m)| m.get("value").and_then(JsonValue::as_f64))
                .expect("ledger metric");
            assert!(
                unexplained.abs() <= 0.15,
                "{workload}: ledger leaves {unexplained}"
            );
            assert!(
                stdout.contains("check PASS trace validates as chrome JSON"),
                "{stdout}"
            );
            exercised.extend(
                stdout
                    .lines()
                    .filter(|l| l.starts_with("metric ") && !l.contains("not exercised"))
                    .filter_map(|l| l["metric ".len()..].split(' ').next())
                    .map(str::to_owned),
            );
        }
    }
    exercised
}

/// Every workload, one after the other; together they must exercise
/// every per-layer metric `BENCHMARK.json` declares.
#[test]
fn every_workload_in_quick_mode() {
    let mut exercised: Vec<String> = [
        "figures",
        "stream_1m",
        "vector_1m",
        "replay_sweep",
        "shard_journal",
    ]
    .iter()
    .flat_map(|w| check(w))
    .collect();
    exercised.sort_unstable();
    exercised.dedup();
    let mut declared: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
    declared.sort_unstable();
    assert_eq!(
        exercised, declared,
        "per-layer metrics no workload measures"
    );
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
