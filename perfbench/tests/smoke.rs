//! Smoke runs of the benchmark binary: the result line parses, every
//! metric is named and carries a unit, the names match `BENCHMARK.json`,
//! every correctness check passes, and the deterministic metrics repeat
//! exactly across two runs of the same seed.

use std::collections::BTreeMap;
use std::process::Command;

use starsim::sim::telemetry::json::{parse, JsonValue};

const WORKLOADS: [&str; 3] = ["paper-stream", "sparse-wide", "serve-mixed"];

/// Metrics that depend on the inputs alone, never on the host.
const DETERMINISTIC: [&str; 9] = [
    "check.pixel_err_ratio",
    "gpusim.modeled_frame_ms",
    "starfield.stars_in_view",
    "gpusim.modeled_kernel_ms",
    "gpusim.modeled_transfer_ms",
    "gpusim.tex_hit_ratio",
    "gpusim.global_tx_per_req",
    "gpusim.atomic_conflict_ratio",
    "gpusim.warps",
];

/// Runs one smoke workload; returns the parsed result line.
fn run(workload: &str, trace: bool) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--trace-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: context and result lines expected"
    );
    let context = parse(lines[lines.len() - 2]).expect("context line parses");
    assert!(context
        .get("context")
        .and_then(|c| c.get("nproc"))
        .is_some());
    parse(lines[lines.len() - 1]).expect("result line parses")
}

/// The metric names BENCHMARK.json lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark");
    let json = parse(&text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Checks the result's shape and returns its metric values by name.
fn metrics(result: &JsonValue, expected: &[String]) -> BTreeMap<String, f64> {
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{result:?}"
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
    let metrics = result
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics");
    let names: Vec<&String> = metrics.keys().collect();
    let mut want: Vec<&String> = expected.iter().collect();
    want.sort();
    assert_eq!(names, want, "reported metrics differ from BENCHMARK.json");
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            assert!(!unit.is_empty(), "{name} has no unit");
            let value = m.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name} has no finite value"
            );
            (name.clone(), value.unwrap())
        })
        .collect()
}

#[test]
fn end_to_end_runs_parse_and_pass_their_checks() {
    let expected = declared("end_to_end");
    for workload in WORKLOADS {
        let m = metrics(&run(workload, false), &expected);
        assert!(
            m["ops_per_s"] > 0.0 && m["setup_s"] > 0.0,
            "{workload}: {m:?}"
        );
    }
}

#[test]
fn traced_runs_repeat_their_deterministic_metrics() {
    let expected = declared("per_layer");
    for workload in WORKLOADS {
        let a = metrics(&run(workload, true), &expected);
        let b = metrics(&run(workload, true), &expected);
        for name in DETERMINISTIC {
            assert_eq!(
                a[name].to_bits(),
                b[name].to_bits(),
                "{workload}: {name} differs between runs ({} vs {})",
                a[name],
                b[name]
            );
        }
        assert!(a["check.pixel_err_ratio"] <= 1.0, "{workload}: {a:?}");
        assert!(a["starfield.stars_in_view"] > 0.0, "{workload}: {a:?}");
    }
}
