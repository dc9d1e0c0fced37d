//! `paper-sweep`: the `headline` scenario grid (36 workloads × base, ME,
//! SMB, ME+SMB at 32 ISRB entries and unlimited) run through
//! `SweepSpec::run` on the load threads, then `render_report` — what the
//! paper's users run. Nearly all the time is `Simulator::run`.
//!
//! The inputs do not depend on the seed: this is the one fixed grid.
//! Outputs are checked against `expected/paper-sweep.txt`: every cell's
//! stats digest and the report digest on every sweep, and every cell's
//! architectural digest in a replay after the timed loop.

use crate::measure::{fnv_str, stats_digest, Checker, SimCounts};
use crate::trace::Tracer;
use crate::{geomean, Args, Outcome, WINDOW};
use regshare_bench::scenario::preset;
use regshare_bench::{render_report, RunOptions, Scenario};
use regshare_core::{CoreConfig, SimStats, Simulator};
use regshare_isa::Program;
use regshare_workloads::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const SETUP_REPS: usize = 3;
/// A run has 8–12 sweeps: too few for any tail beyond the median.
const TAIL_MAX_PCT: f64 = 50.0;
/// The variants whose IPC ratio is `speedup_gmean` (ME+SMB, 32-entry
/// ISRB, over the baseline).
const BASE: &str = "base";
const BOTH: &str = "both32";

fn expected_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected/paper-sweep.txt")
}

fn scenario(jobs: usize) -> Result<Scenario, String> {
    let mut s = preset("headline").ok_or("the headline preset is missing")?;
    s.options = RunOptions::default()
        .warmup(WINDOW.warmup)
        .measure(WINDOW.measure)
        .jobs(jobs);
    Ok(s)
}

/// The sweep's inputs: the scenario, its workloads, their programs and
/// the variant configurations.
struct Inputs {
    scenario: Scenario,
    workloads: Vec<Workload>,
    programs: Vec<Program>,
    configs: Vec<(String, CoreConfig)>,
}

fn set_up(jobs: usize) -> Result<Inputs, String> {
    let scenario = scenario(jobs)?;
    scenario.validate().map_err(|e| e.to_string())?;
    let workloads = scenario.resolve_workloads().map_err(|e| e.to_string())?;
    let programs = workloads.iter().map(Workload::build).collect();
    let mut configs = Vec::new();
    for (label, spec) in &scenario.variants {
        configs.push((label.clone(), spec.to_config().map_err(|e| e.to_string())?));
    }
    // Every cell's machine is constructed once, as each sweep does again
    // before its first cycle.
    for program in &programs {
        for (_, cfg) in &configs {
            std::hint::black_box(Simulator::new(program, cfg.clone()));
        }
    }
    Ok(Inputs {
        scenario,
        workloads,
        programs,
        configs,
    })
}

/// Expected digests: `(workload, label) -> (arch digest, stats digest)`,
/// plus the rendered report's digest.
#[derive(Default)]
struct Expected {
    cells: BTreeMap<(String, String), (u64, u64)>,
    report: u64,
}

fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

fn load_expected() -> Result<Expected, String> {
    let path = expected_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut exp = Expected::default();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("{}: malformed line {line:?}", path.display());
        match f.as_slice() {
            ["report", d] => exp.report = parse_hex(d).ok_or_else(bad)?,
            [w, l, a, s] => {
                let a = parse_hex(a).ok_or_else(bad)?;
                let s = parse_hex(s).ok_or_else(bad)?;
                exp.cells.insert((w.to_string(), l.to_string()), (a, s));
            }
            _ => return Err(bad()),
        }
    }
    Ok(exp)
}

/// One cell replayed outside the sweep engine, so its architectural
/// digest and full-run statistics are visible.
pub struct Cell {
    arch: u64,
    audit_ok: bool,
    window: SimStats,
    pub total: SimStats,
    pub mem: regshare_mem::MemStats,
}

/// Runs one cell's window from a fresh simulator, then takes its
/// architectural digest and audits its registers, each inside a span.
pub fn replay_cell(program: &Program, cfg: &CoreConfig, tracer: &Tracer, req: u64) -> Cell {
    let mut sim = tracer.span("core.new", req, || Simulator::new(program, cfg.clone()));
    let (warm, end) = tracer.span("core.run", req, || {
        let warm = sim.run(WINDOW.warmup);
        (warm, sim.run(WINDOW.measure))
    });
    let arch = tracer.span("core.digest", req, || sim.arch_digest());
    let audit_ok = tracer
        .span("core.audit", req, || sim.audit_registers())
        .is_ok();
    Cell {
        arch,
        audit_ok,
        window: end.delta_since(&warm),
        total: end,
        mem: sim.mem_stats(),
    }
}

/// Replays every cell on `jobs` threads; returns the cells in grid order
/// and the wall seconds.
fn replay(inputs: &Inputs, jobs: usize) -> (Vec<Cell>, f64) {
    let nv = inputs.configs.len();
    let no_trace = Tracer::new(false);
    crate::measure::par_map(inputs.workloads.len() * nv, jobs, |_, i| {
        replay_cell(
            &inputs.programs[i / nv],
            &inputs.configs[i % nv].1,
            &no_trace,
            0,
        )
    })
}

/// Replays every cell serially, building each program and running each
/// cell inside spans; returns the cells in grid order and the wall seconds.
fn replay_traced(inputs: &Inputs, tracer: &Tracer) -> (Vec<Cell>, f64) {
    let start = Instant::now();
    let mut cells = Vec::new();
    for (w, wl) in inputs.workloads.iter().enumerate() {
        let req = w as u64;
        let program = tracer.span("workloads.build", req, || wl.build());
        for (_, cfg) in &inputs.configs {
            cells.push(tracer.span("sweep.cell", req, || {
                replay_cell(&program, cfg, tracer, req)
            }));
        }
    }
    (cells, start.elapsed().as_secs_f64())
}

/// Checks every replayed cell against the expected file.
fn check_replay(inputs: &Inputs, cells: &[Cell], exp: &Expected, args: &Args, check: &mut Checker) {
    let nv = inputs.configs.len();
    for (i, cell) in cells.iter().enumerate() {
        let key = (
            inputs.workloads[i / nv].name.clone(),
            inputs.configs[i % nv].0.clone(),
        );
        let mut got = (cell.arch, stats_digest(&cell.window));
        if args.inject_fault && i == 0 {
            got.0 ^= 1;
        }
        check.record(cell.audit_ok && exp.cells.get(&key) == Some(&got), || {
            format!(
                "{}/{}: replayed digests or register audit failed",
                key.0, key.1
            )
        });
    }
}

fn capture(inputs: &Inputs, jobs: usize) -> Result<(), String> {
    let (cells, _) = replay(inputs, jobs);
    let grid = inputs
        .scenario
        .to_sweep()
        .and_then(|s| Ok(s.run()?))
        .map_err(|e| e.to_string())?;
    let report = render_report(&inputs.scenario, &grid).map_err(|e| e.to_string())?;
    let mut text = format!(
        "# paper-sweep expected outputs: headline preset, {} warmup + {} measured µ-ops per cell.\n\
         # <workload> <variant> <arch_digest> <stats_digest>, then the rendered report's digest.\n",
        WINDOW.warmup, WINDOW.measure
    );
    let nv = inputs.configs.len();
    for (i, c) in cells.iter().enumerate() {
        text.push_str(&format!(
            "{} {} {:#018x} {:#018x}\n",
            inputs.workloads[i / nv].name,
            inputs.configs[i % nv].0,
            c.arch,
            stats_digest(&c.window)
        ));
    }
    text.push_str(&format!("report {:#018x}\n", fnv_str(&report)));
    std::fs::write(expected_path(), text).map_err(|e| e.to_string())
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let jobs = crate::measure::load_threads();
    let mut out = Outcome::new(TAIL_MAX_PCT);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = set_up(jobs)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("set up at least once");
    if args.capture_expected {
        capture(&inputs, jobs)?;
        out.lines
            .push(format!("captured {}", expected_path().display()));
    }
    let exp = load_expected()?;
    let n_cells = inputs.workloads.len() * inputs.configs.len();
    let uops_per_sweep = n_cells as u64 * (WINDOW.warmup + WINDOW.measure);

    // The traced run times one sweep; its replays below carry the spans.
    let budget = if args.trace { 0.0 } else { args.seconds as f64 };
    let start = Instant::now();
    let mut speedups = Vec::new();
    let mut sweeps = 0;
    while sweeps == 0 || start.elapsed().as_secs_f64() < budget {
        let i = sweeps;
        sweeps += 1;
        // Set-up is repeated before every sweep, so that its median spans
        // the same host conditions as the sweeps' median.
        let t = Instant::now();
        std::hint::black_box(set_up(jobs)?);
        out.setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let spec = inputs.scenario.to_sweep().map_err(|e| e.to_string())?;
        let grid = tracer
            .span("sweep.run", 0, || spec.run())
            .map_err(|e| e.to_string())?;
        let report = tracer
            .span("report.render", 0, || {
                render_report(&inputs.scenario, &grid)
            })
            .map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        out.latency_ms.push(secs * 1e3);
        out.kuops_per_s.push(uops_per_sweep as f64 / secs / 1e3);

        let mut ok = fnv_str(&report) == exp.report;
        for row in grid.rows() {
            for (label, _) in &inputs.configs {
                let m = row.get(label).map_err(|e| e.to_string())?;
                let key = (row.workload().name.clone(), label.clone());
                let mut digest = stats_digest(&m.stats);
                if args.inject_fault && i == 0 {
                    digest ^= 1;
                }
                ok &= exp.cells.get(&key).map(|e| e.1) == Some(digest);
            }
            if i == 0 {
                let base = row.get(BASE).map_err(|e| e.to_string())?.ipc();
                speedups.push(row.get(BOTH).map_err(|e| e.to_string())?.ipc() / base);
            }
        }
        out.check.record(ok, || {
            format!("sweep {i}: cell stats or report differ from the expected file")
        });
    }
    out.speedup_gmean = geomean(&speedups);
    out.lines.push(format!(
        "inputs: {:#018x}",
        fnv_str(&inputs.scenario.render())
    ));
    out.lines.push(format!(
        "paper-sweep: headline grid, {n_cells} cells x {} µ-ops, jobs={jobs}, {sweeps} sweeps",
        WINDOW.warmup + WINDOW.measure
    ));

    if !args.trace {
        let (cells, _) = replay(&inputs, jobs);
        check_replay(&inputs, &cells, &exp, args, &mut out.check);
        return Ok(out);
    }

    // Traced run: the same cells replayed serially, untraced then traced,
    // so the gap between the two is the tracing overhead.
    let serial_uops = uops_per_sweep as f64;
    let (_, untraced_s) = replay(&inputs, 1);
    let stream_before = regshare_isa::stream_cache_stats();
    let (cells, traced_s) = replay_traced(&inputs, tracer);
    let stream_after = regshare_isa::stream_cache_stats();
    check_replay(&inputs, &cells, &exp, args, &mut out.check);
    let mut sim = SimCounts::default();
    for c in &cells {
        sim.add(&c.total, &c.mem);
    }
    out.sim = sim;
    let spans = crate::trace::summarize(&tracer.spans());
    let busy_ns = spans.get("sweep.cell").map_or(0, |s| s.total_ns) as f64;
    let sweep_ns = spans.get("sweep.run").map_or(0, |s| s.total_ns) as f64;
    out.layers.insert(
        "sweep.parallel_efficiency",
        busy_ns / (sweep_ns * jobs as f64).max(1.0),
    );
    crate::measure::stream_layers(&mut out.layers, stream_before, stream_after);
    let untraced = serial_uops / untraced_s;
    let traced = serial_uops / traced_s;
    out.layers
        .insert("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
    out.lines.push(format!(
        "serial replay: untraced {:.1} kuops/s, traced {:.1} kuops/s",
        untraced / 1e3,
        traced / 1e3
    ));
    Ok(out)
}
