//! The benchmark's own test: tiny runs of every workload.
//!
//! - every metric BENCHMARK.json names is printed, with its unit, in the
//!   untraced and the traced run;
//! - the injected fault makes the output check fail;
//! - the same seed reproduces every simulated count exactly, and another
//!   seed changes the `conformance` and `serve-mixed` inputs.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper-sweep", "conformance", "serve-mixed"];

struct Run {
    stdout: String,
    correct: bool,
    failed: u64,
    /// metric name -> (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

impl Run {
    fn line(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{}", self.stdout))
    }
}

fn field<'a>(s: &'a str, key: &str) -> &'a str {
    let start = s
        .find(key)
        .unwrap_or_else(|| panic!("{key} missing in {s}"))
        + key.len();
    let rest = &s[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim()
}

/// Parses the result line: `{"correct": …, "failed": …, "metrics": {…}}`.
fn parse_result(line: &str) -> (bool, u64, BTreeMap<String, (f64, String)>) {
    let correct = field(line, "\"correct\":") == "true";
    let failed = field(line, "\"failed\":").parse().unwrap();
    let body = &line[line.find("\"metrics\": {").unwrap() + 12..];
    let mut metrics = BTreeMap::new();
    for entry in body.split("}, ").map(str::trim) {
        let name = entry
            .trim_start_matches('"')
            .split('"')
            .next()
            .unwrap()
            .to_string();
        let value = field(entry, "\"value\":").parse().unwrap();
        let unit = field(entry, "\"unit\":")
            .trim_matches(|c| c == '"' || c == '}')
            .to_string();
        metrics.insert(name, (value, unit));
    }
    (correct, failed, metrics)
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (correct, failed, metrics) = parse_result(stdout.lines().last().unwrap());
    Run {
        stdout,
        correct,
        failed,
        metrics,
    }
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text.find(&format!("\"{section}\"")).unwrap();
    let end = text[start..].find(']').unwrap() + start;
    text[start..end]
        .split('{')
        .skip(1)
        .map(|entry| {
            let name = field(entry, "\"name\":").trim_matches('"').to_string();
            let unit = field(entry, "\"unit\":").trim_matches('"').to_string();
            (name, unit)
        })
        .collect()
}

fn assert_reports(run: &Run, section: &str, workload: &str) {
    let want = declared(section);
    assert_eq!(
        run.metrics.len(),
        want.len(),
        "{workload} {section}: {:?}",
        run.metrics.keys()
    );
    for (name, unit) in want {
        let (_, got_unit) = run
            .metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(*got_unit, unit, "{workload}: unit of {name}");
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_check() {
    for w in WORKLOADS {
        let r = run(w, 11, false, &[]);
        assert!(r.correct && r.failed == 0, "{w}:\n{}", r.stdout);
        assert_reports(&r, "end_to_end", w);
        for (name, (v, _)) in &r.metrics {
            assert!(*v > 0.0, "{w}: {name} = {v}");
        }
        assert!(r.line("# host: ").contains("nproc="));
        let t = run(w, 11, true, &[]);
        assert!(t.correct && t.failed == 0, "{w} traced:\n{}", t.stdout);
        assert_reports(&t, "per_layer", w);
        assert!(t.line("tracing overhead: ").ends_with("on the same work)"));
    }
}

#[test]
fn injected_fault_makes_the_error_rate_nonzero() {
    for w in WORKLOADS {
        let r = run(w, 12, false, &["--inject-fault"]);
        assert!(!r.correct && r.failed > 0, "{w}:\n{}", r.stdout);
        let rate: f64 = r
            .line("checks: ")
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(rate > 0.0, "{w}: error rate {rate}");
    }
}

#[test]
fn seed_fixes_inputs_and_simulated_counts() {
    const SIMULATED: [&str; 4] = ["core.", "refcount.", "predictors.", "mem."];
    for w in ["conformance", "serve-mixed", "paper-sweep"] {
        let a = run(w, 21, true, &[]);
        let b = run(w, 21, true, &[]);
        assert!(
            a.metrics["core.committed"].0 > 0.0,
            "{w}: no simulated counts"
        );
        assert_eq!(a.line("inputs: "), b.line("inputs: "), "{w}");
        assert_eq!(a.line("speedup_gmean: "), b.line("speedup_gmean: "), "{w}");
        for (name, (v, unit)) in &a.metrics {
            if unit == "count" && SIMULATED.iter().any(|p| name.starts_with(p)) {
                assert_eq!(*v, b.metrics[name].0, "{w}: {name} differs under one seed");
            }
        }
        if w != "paper-sweep" {
            let c = run(w, 22, true, &[]);
            assert_ne!(a.line("inputs: "), c.line("inputs: "), "{w}: seed ignored");
        }
    }
}
