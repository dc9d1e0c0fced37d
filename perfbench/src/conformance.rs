//! `conformance`: many short, fresh programs checked against the in-order
//! oracle. Each round draws ten fuzz programs from each of the six
//! generator profiles, with seeds derived from the workload seed, and runs
//! `fuzz::check_plan` on each: every program runs under the five tracker
//! presets and must match the oracle's architectural digest and pass the
//! register audit. Short runs make `Simulator::new`, program generation,
//! the oracle and stream-memo misses a large share.
//!
//! The four `programs/*.asm` kernels are a fixed corpus, so the set-up
//! checks them: each is assembled, must pass its own self-check (`r15 ==
//! 1` at halt) and is checked under the five presets the same way.

use crate::measure::{Checker, SimCounts};
use crate::trace::Tracer;
use crate::{geomean, mix, Args, Outcome};
use regshare_bench::fuzz::{check_plan, tracker_presets, FuzzOptions, INJECT_PRESET};
use regshare_core::Simulator;
use regshare_isa::interp::Machine;
use regshare_isa::{asm, Program};
use regshare_workloads::asm::CORPUS;
use regshare_workloads::fuzz::{profile_names, FuzzSpec};
use std::sync::Arc;
use std::time::Instant;

/// µ-ops per (program, preset) run and per oracle replay.
const UOPS: u64 = 4_000;
const FUZZ_PER_PROFILE: usize = 10;
const SETUP_REPS: usize = 5;
/// A run checks 900–2 200 programs; p95 has at least 10 beyond it in all.
const TAIL_MAX_PCT: f64 = 95.0;
/// The traced run checks one untraced and one traced round per this many
/// seconds of `--seconds` (a fixed count, unlike the timed run).
const TRACED_SECONDS_PER_ROUND: u64 = 4;
const VERDICT_REG: usize = 15;
const HALT_STEPS: u64 = 2_000_000;

/// One program's check.
#[derive(Default)]
struct CaseResult {
    ms: f64,
    failure: Option<String>,
    uops: u64,
    sim: SimCounts,
}

/// Runs every preset on `program`, comparing with the oracle digest;
/// returns the ME+SMB-over-baseline IPC ratio when every preset conforms.
fn presets(
    program: &Program,
    expected: u64,
    inject: bool,
    tracer: &Tracer,
    req: u64,
    out: &mut CaseResult,
) -> Option<f64> {
    let mut ipc = std::collections::BTreeMap::new();
    for (preset, cfg) in tracker_presets() {
        let mut sim = tracer.span("core.new", req, || Simulator::new(program, cfg));
        let stats = tracer.span("core.run", req, || sim.run(UOPS));
        let mut digest = tracer.span("core.digest", req, || sim.arch_digest());
        let audit = tracer.span("core.audit", req, || sim.audit_registers());
        if inject && preset == INJECT_PRESET {
            digest ^= 1;
        }
        out.uops += stats.committed;
        out.sim.add(&stats, &sim.mem_stats());
        ipc.insert(preset, stats.ipc());
        let failure = if stats.committed != UOPS {
            Some(format!("short run ({} committed)", stats.committed))
        } else if digest != expected {
            Some("digest differs from the oracle".to_string())
        } else {
            audit.err().map(|e| format!("register audit: {e}"))
        };
        if let Some(f) = failure {
            out.failure = Some(format!("preset {preset}: {f}"));
            return None;
        }
    }
    Some(ipc["me_smb"] / ipc["hpca16"])
}

/// Checks one corpus kernel: assembly, self-check verdict at halt, and
/// every preset against the oracle's digest.
fn check_kernel(src: &str, tracer: &Tracer, req: u64, out: &mut CaseResult) -> Option<f64> {
    let program = match tracer.span("isa.assemble", req, || asm::assemble(src)) {
        Ok(p) => p,
        Err(e) => {
            out.failure = Some(format!("assembly failed: {e}"));
            return None;
        }
    };
    let (verdict, expected) = tracer.span("isa.oracle", req, || {
        let mut m = Machine::new(Arc::new(program.clone()));
        let mut steps = 0;
        while !m.is_halted() && steps < HALT_STEPS {
            m.step();
            steps += 1;
        }
        let verdict = if m.is_halted() {
            m.regs()[VERDICT_REG]
        } else {
            0
        };
        let digest = Machine::new(Arc::new(program.clone())).run_digest(UOPS);
        (verdict, digest)
    });
    if verdict != 1 {
        out.failure = Some(format!("self-check failed (r15 = {verdict})"));
        return None;
    }
    presets(&program, expected, false, tracer, req, out)
}

/// Set-up: checks every corpus kernel. Returns the kernels' ME+SMB
/// speedups.
fn set_up(tracer: &Tracer, check: &mut Checker, sim: &mut SimCounts) -> Vec<f64> {
    let mut speedups = Vec::new();
    for (req, (name, src)) in CORPUS.iter().enumerate() {
        let req = req as u64;
        let mut out = CaseResult::default();
        let speedup = tracer.span("fuzz.check", req, || {
            check_kernel(src, tracer, req, &mut out)
        });
        speedups.extend(speedup);
        sim.merge(&out.sim);
        check.record(out.failure.is_none(), || {
            format!("asm-{name}: {}", out.failure.unwrap_or_default())
        });
    }
    speedups
}

/// The round's fuzz programs, profiles interleaved.
fn round_specs(seed: u64, round: u64, profiles: &[&'static str]) -> Result<Vec<FuzzSpec>, String> {
    (0..FUZZ_PER_PROFILE * profiles.len())
        .map(|j| {
            let fuzz_seed = mix(seed, round * 1_000_003 + j as u64);
            FuzzSpec::new(profiles[j % profiles.len()], fuzz_seed)
        })
        .collect()
}

/// Checks one fuzz program: through `check_plan` untraced, or through the
/// same steps inside spans when traced.
fn check_case(spec: &FuzzSpec, inject: bool, tracer: &Tracer, req: u64) -> CaseResult {
    let start = Instant::now();
    let mut out = CaseResult::default();
    if tracer.enabled() {
        tracer.span("fuzz.check", req, || {
            let program = tracer.span("workloads.build", req, || spec.plan().build());
            let expected = tracer.span("isa.oracle", req, || {
                Machine::new(Arc::new(program.clone())).run_digest(UOPS)
            });
            presets(&program, expected, inject, tracer, req, &mut out);
        });
    } else {
        let opts = FuzzOptions {
            uops: UOPS,
            jobs: 1,
            inject_fault: inject,
            max_shrink_checks: 0,
        };
        out.failure = check_plan(&spec.plan(), &opts).map(|d| d.to_string());
        // A conforming check commits the full window under every preset.
        out.uops = UOPS * tracker_presets().len() as u64;
    }
    out.ms = start.elapsed().as_secs_f64() * 1e3;
    out
}

/// Runs rounds from `first` on, at most `max_rounds` of them, until
/// `budget_s` seconds have passed; returns the rounds run, their µ-ops and
/// their seconds.
fn pass(
    args: &Args,
    first: u64,
    max_rounds: u64,
    budget_s: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(u64, u64, f64), String> {
    let jobs = crate::measure::load_threads();
    let profiles = profile_names();
    let (mut uops, mut secs) = (0, 0.0);
    let start = Instant::now();
    let mut round = first;
    while round - first < max_rounds && (round == first || start.elapsed().as_secs_f64() < budget_s)
    {
        // Set-up is repeated before every round, so that its median spans
        // the same host conditions as the rounds' median.
        let t = Instant::now();
        set_up(tracer, &mut out.check, &mut out.sim);
        out.setup_s.push(t.elapsed().as_secs_f64());
        let specs = round_specs(args.seed, round, &profiles)?;
        let inject = args.inject_fault && round == first;
        let req0 = (round + 1) * 1_000_000;
        let (results, wall) = crate::measure::par_map(specs.len(), jobs, |_, i| {
            check_case(&specs[i], inject, tracer, req0 + i as u64)
        });
        let round_uops: u64 = results.iter().map(|r| r.uops).sum();
        out.kuops_per_s.push(round_uops as f64 / wall / 1e3);
        uops += round_uops;
        secs += wall;
        for (spec, r) in specs.iter().zip(results) {
            out.latency_ms.push(r.ms);
            out.sim.merge(&r.sim);
            out.check.record(r.failure.is_none(), || {
                format!("{}: {}", spec.name(), r.failure.unwrap_or_default())
            });
        }
        round += 1;
    }
    Ok((round - first, uops, secs))
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new(TAIL_MAX_PCT);
    let no_trace = Tracer::new(false);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let speedups = set_up(&no_trace, &mut out.check, &mut out.sim);
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.speedup_gmean = geomean(&speedups);
    }
    let names: Vec<String> = round_specs(args.seed, 0, &profile_names())?
        .iter()
        .map(FuzzSpec::name)
        .collect();
    out.lines.push(format!(
        "inputs: {:#018x}",
        crate::measure::fnv_str(&names.join(" "))
    ));
    let per_round = FUZZ_PER_PROFILE * profile_names().len();
    if !args.trace {
        let seconds = args.seconds as f64;
        let (rounds, _, _) = pass(args, 0, u64::MAX, seconds, tracer, &mut out)?;
        out.lines.push(format!(
            "conformance: {rounds} rounds x {per_round} fuzz programs x {} presets, {UOPS} µ-ops each",
            tracker_presets().len()
        ));
        return Ok(out);
    }
    // Traced run: a fixed number of fresh rounds untraced, then as many
    // traced, so the simulated counts repeat under one seed; the
    // throughput gap between the two passes is the tracing overhead.
    let half = (args.seconds / TRACED_SECONDS_PER_ROUND).max(1);
    let (_, u_uops, u_secs) = pass(args, 0, half, f64::INFINITY, &no_trace, &mut out)?;
    out.sim = SimCounts::default();
    let before = regshare_isa::stream_cache_stats();
    let (_, t_uops, t_secs) = pass(args, half, half, f64::INFINITY, tracer, &mut out)?;
    crate::measure::stream_layers(&mut out.layers, before, regshare_isa::stream_cache_stats());
    let untraced = u_uops as f64 / u_secs;
    let traced = t_uops as f64 / t_secs;
    out.layers
        .insert("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
    out.lines.push(format!(
        "conformance traced run: {half} rounds untraced ({:.1} kuops/s), {half} traced ({:.1} kuops/s)",
        untraced / 1e3,
        traced / 1e3
    ));
    Ok(out)
}
