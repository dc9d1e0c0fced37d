//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <paper-sweep|conformance|serve-mixed> --seed N
//!           --seconds S --trace 0|1 [--inject-fault] [--capture-expected]
//! ```
//!
//! Every workload checks the program's outputs, counts failed operations
//! against attempted ones, and prints a human-readable report (host
//! fingerprint, every timing with its median, tail and sample count)
//! followed by one JSON result line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! work once untraced and once with spans recorded around every call into
//! a layer, and reports the per-layer metrics plus the tracing overhead.
//! See `METRICS.md` beside this package for what each metric means.

mod conformance;
mod measure;
mod paper_sweep;
mod serve_mixed;
mod trace;

use measure::{Checker, Dist, SimCounts};
use regshare_bench::RunWindow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Tracer;

/// Warm-up and measured µ-ops of every `paper-sweep` and `serve-mixed`
/// cell.
pub const WINDOW: RunWindow = RunWindow {
    warmup: 2_000,
    measure: 8_000,
};

const USAGE: &str = "usage: perfbench --workload <paper-sweep|conformance|serve-mixed> \
--seed N --seconds S --trace 0|1 [--inject-fault] [--capture-expected]";

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("kuops_per_s", "kuops/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("speedup_gmean", "x"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("core.run_ms", "ms"),
    ("core.ns_per_cycle", "ns"),
    ("core.ns_per_uop", "ns"),
    ("core.new_ms", "ms"),
    ("core.audit_ms", "ms"),
    ("core.digest_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("workloads.programs_built", "count"),
    ("isa.assemble_ms", "ms"),
    ("isa.oracle_ms", "ms"),
    ("fuzz.check_ms", "ms"),
    ("isa.stream_hits", "count"),
    ("isa.stream_misses", "count"),
    ("isa.stream_hit_ratio", "ratio"),
    ("isa.oracle_decodes", "count"),
    ("isa.replayed_uops", "count"),
    ("sweep.run_ms", "ms"),
    ("sweep.parallel_efficiency", "ratio"),
    ("report.render_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.computed_cells", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_bytes", "bytes"),
    ("serve.cache_load_us", "us"),
    ("core.cycles", "count"),
    ("core.committed", "count"),
    ("core.renamed", "count"),
    ("core.squashed_uops", "count"),
    ("core.commit_flushes", "count"),
    ("refcount.moves_eliminated", "count"),
    ("refcount.moves_not_eliminated", "count"),
    ("refcount.loads_bypassed", "count"),
    ("refcount.bypass_mispredictions", "count"),
    ("refcount.shares_rejected_full", "count"),
    ("refcount.reclaim_port_stalls", "count"),
    ("refcount.peak_occupancy", "count"),
    ("predictors.branch_mispredicts", "count"),
    ("distance.predictions", "count"),
    ("mem.l1d_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.mshr_rejects", "count"),
    ("trace.overhead_pct", "%"),
];

/// Spans whose total time is a per-layer metric.
const SPAN_METRICS: [(&str, &str); 10] = [
    ("core.run", "core.run_ms"),
    ("core.new", "core.new_ms"),
    ("core.audit", "core.audit_ms"),
    ("core.digest", "core.digest_ms"),
    ("workloads.build", "workloads.build_ms"),
    ("isa.assemble", "isa.assemble_ms"),
    ("isa.oracle", "isa.oracle_ms"),
    ("fuzz.check", "fuzz.check_ms"),
    ("sweep.run", "sweep.run_ms"),
    ("report.render", "report.render_ms"),
];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Corrupts one checked output so the run must report a failure.
    pub inject_fault: bool,
    /// Rewrites the expected-output file instead of checking against it.
    pub capture_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25,
        trace: false,
        inject_fault: false,
        capture_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--inject-fault" => args.inject_fault = true,
            "--capture-expected" => args.capture_expected = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// What one workload run measured.
pub struct Outcome {
    /// Set-up durations, one per repetition (s).
    pub setup_s: Vec<f64>,
    /// Throughput per round of fixed work (kuops/s).
    pub kuops_per_s: Vec<f64>,
    /// Latency of each request (ms).
    pub latency_ms: Vec<f64>,
    /// The highest percentile `tail_ms` may report.
    pub tail_max_pct: f64,
    /// Geomean ME+SMB-over-baseline IPC ratio of the results produced.
    pub speedup_gmean: f64,
    pub check: Checker,
    /// Workload-specific report lines.
    pub lines: Vec<String>,
    /// Per-layer values from a traced run (span totals are added later).
    pub layers: BTreeMap<&'static str, f64>,
    pub sim: SimCounts,
}

impl Outcome {
    pub fn new(tail_max_pct: f64) -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            kuops_per_s: Vec::new(),
            latency_ms: Vec::new(),
            tail_max_pct,
            speedup_gmean: 0.0,
            check: Checker::default(),
            lines: Vec::new(),
            layers: BTreeMap::new(),
            sim: SimCounts::default(),
        }
    }
}

/// Directory for run artifacts (span dumps, the serve cache).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// SplitMix64: derives independent input streams from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

fn per_layer_metrics(out: &Outcome, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let spans = trace::summarize(&tracer.spans());
    for (span, metric) in SPAN_METRICS {
        if let Some(s) = spans.get(span) {
            m.insert(metric, s.total_ns as f64 / 1e6);
        }
    }
    if let Some(run) = spans.get("core.run") {
        let cycles = out.sim.get("core.cycles").max(1) as f64;
        let uops = out.sim.get("core.committed").max(1) as f64;
        m.insert("core.ns_per_cycle", run.total_ns as f64 / cycles);
        m.insert("core.ns_per_uop", run.total_ns as f64 / uops);
    }
    if let Some(b) = spans.get("workloads.build") {
        m.insert("workloads.programs_built", b.durations_ms.len() as f64);
    }
    for name in measure::SIM_COUNT_NAMES {
        m.insert(name, out.sim.get(name) as f64);
    }
    for (k, v) in &out.layers {
        m.insert(k, *v);
    }
    m
}

fn span_table(tracer: &Tracer) -> Vec<String> {
    let mut lines = vec!["span table (total and self time over the traced pass):".to_string()];
    for (name, s) in trace::summarize(&tracer.spans()) {
        let d = Dist::of(&s.durations_ms).expect("a summarized span has samples");
        lines.push(format!(
            "  {name:<16} total {:>10.3} ms  self {:>10.3} ms  {}",
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            d.line("per span", "ms")
        ));
    }
    lines
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn run(args: &Args) -> Result<(), String> {
    let tracer = Tracer::new(args.trace);
    let out = match args.workload.as_str() {
        "paper-sweep" => paper_sweep::run(args, &tracer)?,
        "conformance" => conformance::run(args, &tracer)?,
        "serve-mixed" => serve_mixed::run(args, &tracer)?,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let rss = measure::peak_rss_mb();

    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host: {}", measure::host_fingerprint());
    for l in &out.lines {
        println!("{l}");
    }
    println!(
        "checks: attempted {} failed {} error_rate {:.6}",
        out.check.attempted,
        out.check.failed,
        out.check.error_rate()
    );
    for note in &out.check.notes {
        println!("  failure: {note}");
    }
    println!("speedup_gmean: {:.6} x (simulated)", out.speedup_gmean);

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        for l in span_table(&tracer) {
            println!("{l}");
        }
        let m = per_layer_metrics(&out, &tracer);
        println!(
            "tracing overhead: {:.2}% (untraced vs traced kuops/s on the same work)",
            m["trace.overhead_pct"]
        );
        let name = format!("trace-{}-seed{}.jsonl", args.workload, args.seed);
        let path = out_dir().join(name);
        std::fs::create_dir_all(out_dir())
            .and_then(|_| std::fs::write(&path, tracer.to_jsonl()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        PER_LAYER.iter().map(|(n, u)| (*n, m[n], *u)).collect()
    } else {
        let setup = Dist::of(&out.setup_s).ok_or("no set-up samples")?;
        let kuops = Dist::of(&out.kuops_per_s).ok_or("no throughput samples")?;
        let lat = Dist::capped(&out.latency_ms, out.tail_max_pct).ok_or("no latency samples")?;
        println!("{}", setup.line("setup_s", "s"));
        println!("{}", kuops.line("kuops_per_s (per round)", "kuops/s"));
        println!("{}", lat.line("latency", "ms"));
        println!("peak_rss_mb: {rss:.1} MB");
        let values = [
            setup.p50,
            rss,
            kuops.p50,
            lat.p50,
            lat.tail,
            out.speedup_gmean,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (*n, v, *u))
            .collect()
    };

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.check.failed == 0,
        out.check.attempted.max(1),
        out.check.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
