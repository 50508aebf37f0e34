//! Self-test: every workload `BENCHMARK.json` declares runs end to end
//! at tiny sizes, untraced and traced, passes all of its checks, and
//! reports exactly the metrics (names and units) the file declares for
//! that mode.
//!
//! Run with `cargo test --release --manifest-path lanebench/Cargo.toml`.

use std::process::Command;

/// The repository's `BENCHMARK.json`.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The text of the JSON array under `key` in `json` (no nested arrays).
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    &json[open..close]
}

/// Every string value of `field` in `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let pat = format!("\"{field}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// `(name, unit)` pairs declared in one metric section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = array(&benchmark_json(), section).to_string();
    strings(&text, "name")
        .into_iter()
        .zip(strings(&text, "unit"))
        .collect()
}

/// `(name, unit)` pairs of a result line's metrics, in output order.
fn reported(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    let names = metrics.match_indices(": {\"value\"").map(|(i, _)| {
        let head = &metrics[..i - 1];
        head[head.rfind('"').expect("opening quote") + 1..].to_string()
    });
    names.zip(strings(metrics, "unit")).collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lanebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("run lanebench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    assert!(
        strings(array(&benchmark_json(), "workloads"), "name").contains(&workload.to_string()),
        "{workload} is not declared"
    );
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = run(workload, trace);
        assert!(line.starts_with("{\"correct\": true,"), "{line}");
        assert!(line.contains("\"failed\": 0,"), "{line}");
        assert_eq!(reported(&line), declared(section), "{workload} {section}");
    }
}

#[test]
fn declared_workloads_are_the_tested_ones() {
    let names = strings(array(&benchmark_json(), "workloads"), "name");
    assert_eq!(
        names,
        ["prove-large", "batch-stream", "reverify", "compiled"]
    );
}

#[test]
fn prove_large() {
    check("prove-large");
}

#[test]
fn batch_stream() {
    check("batch-stream");
}

#[test]
fn reverify() {
    check("reverify");
}

#[test]
fn compiled() {
    check("compiled");
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_lanebench"))
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
        .expect("run lanebench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
