//! End-to-end checks of the `perfbench` command at smoke size: every
//! workload runs and checks its outputs, the printed metric names are
//! exactly those `BENCHMARK.json` declares, and an injected wrong label
//! or wrong serve answer fails the command.

use std::process::Command;

/// The text after `"key": ` in `s`, up to the next `,` or `}`.
fn scalar<'a>(s: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let start = s
        .find(&pat)
        .unwrap_or_else(|| panic!("missing {key} in {s}"))
        + pat.len();
    let rest = &s[start..];
    rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim()
}

/// `(name, unit)` of each metric in one `BENCHMARK.json` list. The file
/// is pretty-printed, one key per line, and the list ends at its `]`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{list}\": ["))
        .unwrap_or_else(|| panic!("no {list} list"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list ends")];
    let field = |key: &str| -> Vec<String> {
        body.lines()
            .filter(|l| l.trim_start().starts_with(&format!("\"{key}\":")))
            .map(|l| scalar(l, key).trim_matches('"').to_string())
            .collect()
    };
    let (names, units) = (field("name"), field("unit"));
    assert_eq!(names.len(), units.len(), "{list}: a metric without a unit");
    names.into_iter().zip(units).collect()
}

/// The result line, read with substring scans: it is the one JSON
/// object the program formats itself.
struct Result {
    /// Top-level keys before `metrics`, in order.
    keys: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(String, f64, String)>,
}

impl Result {
    fn parse(line: &str) -> Result {
        let split = line.find("\"metrics\": {").expect("metrics key");
        let head = &line[..split];
        let keys = head
            .split('"')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect();
        let mut metrics = Vec::new();
        let mut rest = &line[split + "\"metrics\": {".len()..];
        while let Some(q) = rest.find('"') {
            let entry = &rest[q + 1..];
            let end = entry.find('}').expect("metric entry closes");
            let name = &entry[..entry.find('"').expect("name closes")];
            let body = &entry[..end];
            let value = scalar(body, "value")
                .parse()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let unit = scalar(body, "unit").trim_matches('"');
            metrics.push((name.to_string(), value, unit.to_string()));
            rest = &entry[end + 1..];
        }
        assert_eq!(rest, "}}", "result line ends after the metrics");
        Result {
            keys,
            correct: scalar(head, "correct") == "true",
            attempted: scalar(head, "attempted").parse().expect("attempted"),
            failed: scalar(head, "failed").parse().expect("failed"),
            metrics,
        }
    }
}

struct Outcome {
    code: Option<i32>,
    result: Result,
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    Outcome {
        code: out.status.code(),
        result: Result::parse(last),
    }
}

/// The result line has exactly the four keys, and its metrics are
/// exactly `expected`, each with its declared unit and a finite value.
fn check_result(r: &Result, expected: &[(String, String)], context: &str) {
    assert_eq!(r.keys, ["correct", "attempted", "failed"], "{context}");
    let mut got: Vec<(String, String)> = r
        .metrics
        .iter()
        .map(|(k, _, u)| (k.clone(), u.clone()))
        .collect();
    let mut want = expected.to_vec();
    got.sort();
    want.sort();
    assert_eq!(
        got, want,
        "{context}: printed metrics differ from BENCHMARK.json"
    );
    for (k, v, _) in &r.metrics {
        assert!(v.is_finite(), "{context}: {k}");
    }
    assert!(r.attempted >= 1, "{context}");
}

const WORKLOADS: [&str; 2] = ["sparse-heap", "serve-churn"];

#[test]
fn smoke_runs_every_workload_with_the_declared_end_to_end_metrics() {
    let expected = declared("end_to_end");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let out = run(w, 100 + i as u64, false, &[]);
        assert_eq!(out.code, Some(0), "{w}");
        assert!(out.result.correct, "{w}");
        assert_eq!(out.result.failed, 0, "{w}");
        check_result(&out.result, &expected, w);
        for (k, v, _) in &out.result.metrics {
            assert!(*v > 0.0, "{w}: {k} is 0");
        }
    }
}

#[test]
fn traced_smoke_prints_the_declared_per_layer_metrics() {
    let expected = declared("per_layer");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let seed = 200 + i as u64;
        let out = run(w, seed, true, &[]);
        assert_eq!(out.code, Some(0), "{w}");
        assert!(out.result.correct, "{w}");
        check_result(&out.result, &expected, w);
        let trace = std::fs::read_to_string(format!(".perfbench/trace-{w}-{seed}.json"))
            .expect("trace file written");
        assert!(trace.contains("\"core: BccConfig::run fastbcc_p2\""), "{w}");
        assert!(trace.contains("\"serve: NetFrontend::spawn\""), "{w}");
    }
}

#[test]
fn a_corrupted_label_fails_the_command() {
    let out = run("sparse-heap", 300, false, &["--inject", "wrong-label"]);
    assert_ne!(out.code, Some(0));
    assert!(!out.result.correct);
    assert!(out.result.failed >= 1);
}

#[test]
fn a_wrong_serve_answer_fails_the_command() {
    let out = run("serve-churn", 301, false, &["--inject", "wrong-answer"]);
    assert_ne!(out.code, Some(0));
    assert!(!out.result.correct);
    assert!(out.result.failed >= 1);
}
