//! Tiny-input smoke runs of every workload, through the built binary.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["serve_hot", "serve_cold", "chain_batch"];

struct Run {
    code: i32,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Pulls `"key": <number or bool>` out of the flat result line.
fn scalar<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let rest = &line[at..];
    &rest[..rest.find([',', '}']).unwrap()]
}

/// Parses the `"metrics"` object: `"name": {"value": v, "unit": "u"}`.
fn metrics(line: &str) -> BTreeMap<String, f64> {
    let body = &line[line.find("\"metrics\": {").unwrap() + 12..];
    let mut out = BTreeMap::new();
    for entry in body.split("}, ").filter(|e| e.contains("\"value\"")) {
        let name = entry
            .trim_start_matches(['{', ' '])
            .split('"')
            .nth(1)
            .unwrap();
        let value = scalar(entry, "value");
        out.insert(name.to_string(), value.parse().unwrap_or(f64::NAN));
    }
    out
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.trim().lines().last().unwrap_or_default().to_string();
    Run {
        code: out.status.code().unwrap_or(-1),
        correct: scalar(&line, "correct") == "true",
        attempted: scalar(&line, "attempted").parse().unwrap(),
        failed: scalar(&line, "failed").parse().unwrap(),
        metrics: metrics(&line),
    }
}

/// Metric names declared in BENCHMARK.json under `section`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).unwrap();
    let end = text[start..].find(']').unwrap() + start;
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let names = declared("end_to_end");
    assert!(names.contains(&"setup_s".to_string()));
    for w in WORKLOADS {
        let r = run(w, false, &[]);
        assert_eq!(r.code, 0, "{w}");
        assert!(r.correct && r.failed == 0 && r.attempted > 0, "{w}");
        let got: Vec<&String> = r.metrics.keys().collect();
        let mut want: Vec<&String> = names.iter().collect();
        want.sort();
        assert_eq!(got, want, "{w}");
        for (name, v) in &r.metrics {
            assert!(v.is_finite() && *v > 0.0, "{w} {name} = {v}");
        }
        assert_eq!(r.metrics["success_rate"], 1.0, "{w}");
    }
}

#[test]
fn an_injected_wrong_result_is_an_error_and_fails_the_command() {
    for w in WORKLOADS {
        let r = run(w, false, &["--inject-wrong"]);
        assert_eq!(r.code, 1, "{w}");
        assert!(!r.correct, "{w}");
        assert!(r.failed >= 1, "{w}");
        let expected = 1.0 - r.failed as f64 / r.attempted as f64;
        assert_eq!(r.metrics["success_rate"], expected, "{w}");
        assert!(r.metrics["success_rate"] < 1.0, "{w}");
    }
}

#[test]
fn traced_runs_report_every_layer_and_pass_the_cross_check() {
    let names = declared("per_layer");
    for w in WORKLOADS {
        let r = run(w, true, &[]);
        assert_eq!(r.code, 0, "{w}");
        assert!(r.correct, "{w}");
        let mut want: Vec<&String> = names.iter().collect();
        want.sort();
        assert_eq!(r.metrics.keys().collect::<Vec<_>>(), want, "{w}");
    }
    assert_eq!(
        run("serve_hot", true, &[]).metrics["service.cache_hit_ratio"],
        1.0
    );
    assert_eq!(
        run("serve_hot", true, &[]).metrics["service.cache_evictions"],
        0.0
    );
    assert_eq!(
        run("serve_cold", true, &[]).metrics["service.cache_hit_ratio"],
        0.0
    );
}

#[test]
fn a_traced_run_with_a_wrong_result_refuses_to_report() {
    let r = run("serve_hot", true, &["--inject-wrong"]);
    assert_eq!(r.code, 1);
    assert!(!r.correct);
    assert!(r.metrics.is_empty());
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "serve_hot", "--seconds", "1", "--trace", "0"],
        vec![
            "--workload",
            "serve_hot",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "serve_hot",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
