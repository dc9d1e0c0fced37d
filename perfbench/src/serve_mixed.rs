//! `serve-mixed`: a `regshare-serve` daemon on a Unix socket, driven by
//! `nproc` closed-loop clients (each sends its next request when the
//! previous reply arrives).
//!
//! The socket is a Unix one rather than TCP loopback because the protocol
//! writes each message in several small writes: over TCP, Nagle's
//! algorithm holds them until the peer's delayed ACK, which puts a floor of
//! about 88 ms under every request and hides the daemon's own time.
//!
//! Set-up fills the cache: daemons started one after another over the
//! cache directory each compute a group of the warm scenarios, and each
//! such start-and-fill is one set-up sample.
//!
//! Nine requests in ten repeat one of the warm scenarios the set-up
//! already computed, so they are served from the `RGSC` cache without
//! simulating; every tenth names a fresh fuzz program, so every cell is
//! simulated and stored. Cache reads thus run beside cache writes. Every
//! reply body is byte-compared with `render_report` of the same scenario;
//! `err` replies (including `busy` and `timeout`) count as failures.

use crate::measure::{median, nproc, par_map, Dist, SimCounts};
use crate::trace::Tracer;
use crate::{geomean, mix, out_dir, paper_sweep, Args, Outcome, WINDOW};
use regshare_bench::{render_report, RunOptions, Scenario, VariantSpec};
use regshare_serve::{Cache, Connection, Engine, EngineConfig, Format, Server, ServerStop};
use regshare_workloads::fuzz::{profile_names, FuzzSpec};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

const WARM_SCENARIOS: u64 = 32;
/// Fuzz programs per warm scenario; a cold scenario has one.
const WARM_PROGRAMS: u64 = 2;
const COLD_EVERY: usize = 10;
/// Requests per round; throughput is measured per round.
const ROUND: usize = 50;
/// Warm scenarios each set-up daemon computes: 8 set-ups of 16 cells.
const FILL_GROUP: usize = 4;
/// Daemon restarts over the filled cache before the timed loop.
const RESTART_REPS: usize = 11;
/// A run sends 8 000 or more requests; p99 has at least 80 beyond it and
/// lies among the cold requests.
const TAIL_MAX_PCT: f64 = 99.0;
/// The traced run sends one untraced and one traced round per this many
/// seconds of `--seconds`.
const TRACED_SECONDS_PER_ROUND: usize = 2;

fn scenario(name: String, programs: &[FuzzSpec]) -> Result<Scenario, String> {
    let names: Vec<String> = programs.iter().map(FuzzSpec::name).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    Scenario::builder(name)
        .options(
            RunOptions::default()
                .warmup(WINDOW.warmup)
                .measure(WINDOW.measure),
        )
        .workloads(&names)
        .variant("base", VariantSpec::hpca16())
        .variant("both", VariantSpec::preset("me_smb"))
        .build()
        .map_err(|e| e.to_string())
}

fn fuzz(seed: u64, stream: u64) -> Result<FuzzSpec, String> {
    let profiles = profile_names();
    FuzzSpec::new(
        profiles[(stream % profiles.len() as u64) as usize],
        mix(seed, stream),
    )
}

fn warm_scenarios(seed: u64) -> Result<Vec<Scenario>, String> {
    (0..WARM_SCENARIOS)
        .map(|k| {
            let programs = (0..WARM_PROGRAMS)
                .map(|p| fuzz(seed, 10_000 + k * WARM_PROGRAMS + p))
                .collect::<Result<Vec<_>, _>>()?;
            scenario(format!("warm{k}"), &programs)
        })
        .collect()
}

fn cold_scenario(seed: u64, i: u64) -> Result<Scenario, String> {
    scenario(format!("cold{i}"), &[fuzz(seed, 1_000_000 + i)?])
}

/// The batch path's answer for a scenario: its report and the per-program
/// ME+SMB-over-baseline IPC ratios.
fn expected(s: &Scenario) -> Result<(String, Vec<f64>), String> {
    let grid = s
        .to_sweep()
        .map_err(|e| e.to_string())?
        .run()
        .map_err(|e| e.to_string())?;
    let body = render_report(s, &grid).map_err(|e| e.to_string())?;
    let mut ratios = Vec::new();
    for row in grid.rows() {
        let base = row.get("base").map_err(|e| e.to_string())?.ipc();
        ratios.push(row.get("both").map_err(|e| e.to_string())?.ipc() / base);
    }
    Ok((body, ratios))
}

/// [`expected`] for many scenarios on `nproc` threads.
fn expected_all(scenarios: &[Scenario]) -> Result<Vec<(String, Vec<f64>)>, String> {
    par_map(scenarios.len(), nproc(), |_, i| expected(&scenarios[i]))
        .0
        .into_iter()
        .collect()
}

/// Replays every cell of `scenarios` outside the daemon, in spans, and
/// sums their simulated counts: the simulation the daemon did for them.
fn replay_cells(scenarios: &[Scenario], tracer: &Tracer) -> Result<SimCounts, String> {
    let mut sim = SimCounts::default();
    for (req, s) in scenarios.iter().enumerate() {
        let req = req as u64;
        let mut configs = Vec::new();
        for (_, spec) in &s.variants {
            configs.push(spec.to_config().map_err(|e| e.to_string())?);
        }
        for wl in s.resolve_workloads().map_err(|e| e.to_string())? {
            let program = tracer.span("workloads.build", req, || wl.build());
            for cfg in &configs {
                let cell = paper_sweep::replay_cell(&program, cfg, tracer, req);
                sim.add(&cell.total, &cell.mem);
            }
        }
    }
    Ok(sim)
}

/// The daemon's socket path. It names the path relative to the working
/// directory when it lies below it, because a Unix socket path may hold
/// only about 100 bytes.
fn socket_path(name: &str) -> String {
    let abs = out_dir().join(format!("{name}-{}.sock", std::process::id()));
    std::env::current_dir()
        .ok()
        .and_then(|cwd| abs.strip_prefix(cwd).ok().map(|p| Path::new(".").join(p)))
        .unwrap_or(abs)
        .display()
        .to_string()
}

/// A running daemon with its connected clients.
struct Daemon {
    engine: Arc<Engine>,
    stop: ServerStop,
    thread: JoinHandle<std::io::Result<()>>,
    clients: Vec<Mutex<Connection>>,
}

impl Daemon {
    fn start(dir: &Path, socket: &str) -> Result<Daemon, String> {
        let engine = Arc::new(
            Engine::new(EngineConfig {
                cache_dir: dir.display().to_string(),
                workers: nproc(),
                ..EngineConfig::default()
            })
            .map_err(|e| e.to_string())?,
        );
        let server = Server::bind(socket, Arc::clone(&engine)).map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || server.run());
        let mut clients = Vec::new();
        for _ in 0..nproc() {
            let mut c = Connection::connect(&addr, 20).map_err(|e| e.to_string())?;
            match c.ping() {
                Ok(Ok(_)) => {}
                other => return Err(format!("daemon did not answer ping: {other:?}")),
            }
            clients.push(Mutex::new(c));
        }
        Ok(Daemon {
            engine,
            stop,
            thread,
            clients,
        })
    }

    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        self.stop.stop();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

/// One request of the schedule.
struct Request {
    text: String,
    cells: u64,
    kind: Kind,
}

/// A warm request's index into the warm set, or a cold request's index
/// into the run's cold requests.
enum Kind {
    Warm(usize),
    Cold(usize),
}

struct Reply {
    ms: f64,
    body: Result<String, String>,
}

/// Sends `reqs` over the daemon's clients, closed loop; returns each
/// reply in request order and the wall seconds.
fn drive(daemon: &Daemon, reqs: &[Request], tracer: &Tracer, req0: u64) -> (Vec<Reply>, f64) {
    par_map(reqs.len(), daemon.clients.len(), |worker, i| {
        let mut conn = daemon.clients[worker].lock().expect("client lock");
        let t = Instant::now();
        let reply = tracer.span("serve.request", req0 + i as u64, || {
            conn.run(&reqs[i].text, Format::Table)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let body = match reply {
            Ok(Ok(r)) => Ok(r.body),
            Ok(Err(line)) => Err(format!("err reply: {line}")),
            Err(e) => Err(format!("transport: {e}")),
        };
        Reply { ms, body }
    })
}

/// State shared by the passes of one run.
struct Run<'a> {
    args: &'a Args,
    /// The cache directory, and the socket every daemon binds.
    dir: &'a Path,
    socket: &'a str,
    warm: Vec<Scenario>,
    warm_bodies: Vec<String>,
    /// Requests issued so far.
    issued: u64,
    /// Every cold scenario sent, with its reply body; a cold request's
    /// fuzz seed is never reused.
    cold: Vec<(Scenario, String)>,
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    req_per_s: Vec<f64>,
    /// Seconds from a daemon restart over the filled cache to its first
    /// warm reply.
    restart_s: Vec<f64>,
}

impl Run<'_> {
    /// One set-up: starts a daemon over the cache directory, has it
    /// compute and store the warm scenarios `first..first + FILL_GROUP`,
    /// one request at a time, and stops it. Timed up to the last reply.
    fn fill(&self, first: usize, out: &mut Outcome) -> Result<(), String> {
        let last = (first + FILL_GROUP).min(self.warm.len());
        let t = Instant::now();
        let d = Daemon::start(self.dir, self.socket)?;
        let mut replies = Vec::new();
        for s in &self.warm[first..last] {
            let mut conn = d.clients[0].lock().expect("client lock");
            replies.push(conn.run(&s.render(), Format::Table));
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
        for (k, reply) in (first..last).zip(replies) {
            let ok = matches!(&reply, Ok(Ok(r)) if r.body == self.warm_bodies[k]);
            out.check
                .record(ok, || format!("filling warm{k}: {reply:?}"));
        }
        d.stop()
    }

    /// Starts a daemon over the filled cache, times it up to its first
    /// warm reply, and stops it.
    fn restart(&mut self, out: &mut Outcome) -> Result<(), String> {
        let t = Instant::now();
        let d = Daemon::start(self.dir, self.socket)?;
        let reply = d.clients[0]
            .lock()
            .expect("client lock")
            .run(&self.warm[0].render(), Format::Table);
        self.restart_s.push(t.elapsed().as_secs_f64());
        let ok = matches!(&reply, Ok(Ok(r)) if r.body == self.warm_bodies[0]);
        out.check
            .record(ok, || format!("first reply after a restart: {reply:?}"));
        d.stop()
    }

    /// Sends rounds of requests, at most `max_requests` of them, until
    /// `budget_s` seconds have passed; returns the requests sent, the
    /// cells delivered and the seconds taken.
    fn pass(
        &mut self,
        daemon: &Daemon,
        max_requests: usize,
        budget_s: f64,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> Result<(usize, u64, f64), String> {
        let (mut cells, mut secs) = (0u64, 0.0);
        let mut done = 0;
        let start = Instant::now();
        while done < max_requests && (done == 0 || start.elapsed().as_secs_f64() < budget_s) {
            let count = ROUND.min(max_requests - done);
            let mut reqs = Vec::with_capacity(count);
            for _ in 0..count {
                self.issued += 1;
                if self.issued.is_multiple_of(COLD_EVERY as u64) {
                    let s = cold_scenario(self.args.seed, self.cold.len() as u64)?;
                    reqs.push(Request {
                        text: s.render(),
                        cells: 2,
                        kind: Kind::Cold(self.cold.len()),
                    });
                    self.cold.push((s, String::new()));
                } else {
                    let k =
                        (mix(self.args.seed, 5_000_000 + self.issued) % WARM_SCENARIOS) as usize;
                    reqs.push(Request {
                        text: self.warm[k].render(),
                        cells: 2 * WARM_PROGRAMS,
                        kind: Kind::Warm(k),
                    });
                }
            }
            let (replies, wall) = drive(daemon, &reqs, tracer, done as u64);
            let round_cells: u64 = reqs.iter().map(|r| r.cells).sum();
            out.kuops_per_s
                .push((round_cells * (WINDOW.warmup + WINDOW.measure)) as f64 / wall / 1e3);
            self.req_per_s.push(count as f64 / wall);
            cells += round_cells;
            secs += wall;
            for (req, reply) in reqs.iter().zip(replies) {
                out.latency_ms.push(reply.ms);
                match req.kind {
                    Kind::Warm(k) => {
                        self.warm_ms.push(reply.ms);
                        let ok = reply.body.as_deref() == Ok(self.warm_bodies[k].as_str());
                        out.check
                            .record(ok, || format!("warm{k}: {:?}", reply.body.as_ref().err()));
                    }
                    Kind::Cold(c) => {
                        self.cold_ms.push(reply.ms);
                        match reply.body {
                            // Checked against the batch path after the timed loop.
                            Ok(body) => self.cold[c].1 = body,
                            Err(e) => out.check.record(false, || format!("cold request: {e}")),
                        }
                    }
                }
            }
            done += count;
        }
        Ok((done, cells, secs))
    }

    /// Compares every cold reply with the batch path's report.
    fn check_cold(&mut self, out: &mut Outcome) -> Result<(), String> {
        let pending: Vec<(Scenario, String)> = std::mem::take(&mut self.cold)
            .into_iter()
            .filter(|(_, body)| !body.is_empty())
            .collect();
        let scenarios: Vec<Scenario> = pending.iter().map(|(s, _)| s.clone()).collect();
        for ((s, got), (want, _)) in pending.iter().zip(expected_all(&scenarios)?) {
            out.check.record(*got == want, || {
                format!("{}: reply differs from render_report", s.name)
            });
        }
        Ok(())
    }
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new(TAIL_MAX_PCT);
    let dir: PathBuf = out_dir().join(format!("serve-cache-{}-{}", std::process::id(), args.seed));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let socket = socket_path("serve");
    let result = run_in(args, tracer, &dir, &socket, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&socket);
    result.map(|()| out)
}

fn run_in(
    args: &Args,
    tracer: &Tracer,
    dir: &Path,
    socket: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let warm = warm_scenarios(args.seed)?;
    let mut text: String = warm.iter().map(Scenario::render).collect();
    text.push_str(&cold_scenario(args.seed, 0)?.render());
    out.lines
        .push(format!("inputs: {:#018x}", crate::measure::fnv_str(&text)));
    let answers = expected_all(&warm)?;
    let warm_bodies: Vec<String> = answers.iter().map(|(b, _)| b.clone()).collect();
    let ratios: Vec<f64> = answers
        .iter()
        .flat_map(|(_, r)| r.iter().copied())
        .collect();
    out.speedup_gmean = geomean(&ratios);

    let mut run = Run {
        args,
        dir,
        socket,
        warm,
        warm_bodies,
        issued: 0,
        cold: Vec::new(),
        warm_ms: Vec::new(),
        cold_ms: Vec::new(),
        req_per_s: Vec::new(),
        restart_s: Vec::new(),
    };
    for first in (0..run.warm.len()).step_by(FILL_GROUP) {
        run.fill(first, out)?;
    }
    if args.inject_fault {
        run.warm_bodies[0].push('!');
    }
    let mut cache_open_us = Vec::new();
    for _ in 0..RESTART_REPS {
        let t = Instant::now();
        Cache::open(dir, None).map_err(|e| e.to_string())?;
        cache_open_us.push(t.elapsed().as_secs_f64() * 1e6);
        run.restart(out)?;
    }
    let daemon = Daemon::start(dir, socket)?;
    let seconds = args.seconds as f64;
    let total;
    if args.trace {
        // A fixed number of untraced requests, then as many traced; then
        // every warm scenario once through the engine, without the wire.
        let n = ROUND * (args.seconds as usize / TRACED_SECONDS_PER_ROUND).max(1);
        let no_trace = Tracer::new(false);
        let (_, u_cells, u_secs) = run.pass(&daemon, n, f64::INFINITY, &no_trace, out)?;
        let (hits0, computed0) = (daemon.engine.cache_hits(), daemon.engine.computed_cells());
        run.warm_ms.clear();
        let cold0 = run.cold.len();
        let (_, t_cells, t_secs) = run.pass(&daemon, n, f64::INFINITY, tracer, out)?;
        let cold: Vec<Scenario> = run.cold[cold0..].iter().map(|(s, _)| s.clone()).collect();
        out.sim = replay_cells(&cold, tracer)?;
        total = 2 * n;
        let hits = (daemon.engine.cache_hits() - hits0) as f64;
        let computed = (daemon.engine.computed_cells() - computed0) as f64;
        let mut submit_ms = Vec::new();
        for (k, s) in run.warm.iter().enumerate() {
            let t = Instant::now();
            let resp = tracer.span("serve.submit", k as u64, || {
                daemon.engine.submit(s, Format::Table)
            });
            submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let ok = matches!(&resp, Ok(r) if r.body == run.warm_bodies[k]);
            out.check
                .record(ok, || format!("engine submit warm{k}: {:?}", resp.err()));
        }
        let request_ms = median(&run.warm_ms);
        let submit = median(&submit_ms);
        let l = &mut out.layers;
        l.insert("serve.request_ms", request_ms);
        l.insert("serve.submit_ms", submit);
        l.insert("serve.wire_ms", request_ms - submit);
        l.insert("serve.hit_ratio", hits / (hits + computed).max(1.0));
        l.insert("serve.computed_cells", computed);
        l.insert("serve.cache_hits", hits);
        let bytes = daemon
            .engine
            .cache()
            .total_bytes()
            .map_err(|e| e.to_string())?;
        l.insert("serve.cache_bytes", bytes as f64);
        l.insert("serve.cache_load_us", median(&cache_open_us));
        let untraced = u_cells as f64 / u_secs;
        let traced = t_cells as f64 / t_secs;
        l.insert("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
    } else {
        total = run.pass(&daemon, usize::MAX, seconds, tracer, out)?.0;
    }
    daemon.stop()?;
    run.check_cold(out)?;

    out.lines.push(format!(
        "serve-mixed: {} closed-loop clients, {total} requests, 1 in {COLD_EVERY} cold, {} warm scenarios",
        nproc(),
        WARM_SCENARIOS
    ));
    for (name, v) in [
        ("warm latency", &run.warm_ms),
        ("cold latency", &run.cold_ms),
    ] {
        if let Some(d) = Dist::of(v) {
            out.lines.push(d.line(name, "ms"));
        }
    }
    if let Some(d) = Dist::of(&run.restart_s) {
        out.lines
            .push(d.line("restart to first warm reply (not set-up)", "s"));
    }
    if let Some(d) = Dist::of(&run.req_per_s) {
        out.lines.push(d.line("req_per_s (per round)", "1/s"));
    }
    Ok(())
}
