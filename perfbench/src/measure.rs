//! Shared measurement plumbing: percentiles, output checks, simulated
//! counters, memory and the host fingerprint.

use regshare_core::SimStats;
use regshare_isa::StreamCacheStats;
use regshare_mem::MemStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A timing distribution: its median, its tail at the highest percentile
/// with at least ten samples beyond it, and its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Dist {
    /// `None` for an empty sample. With fewer than twenty samples no
    /// percentile has ten beyond it, and the tail is the median.
    pub fn of(values: &[f64]) -> Option<Dist> {
        Dist::capped(values, 99.9)
    }

    /// Like [`Dist::of`], with the tail at most at `max_pct`: a workload
    /// whose sample count varies between runs keeps one tail percentile.
    pub fn capped(values: &[f64], max_pct: f64) -> Option<Dist> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail_pct = TAIL_PERCENTILES
            .into_iter()
            .filter(|p| *p <= max_pct)
            .find(|p| {
                let rank = ((p / 100.0) * n as f64).ceil() as usize;
                n - rank.min(n) >= TAIL_MIN_BEYOND
            })
            .unwrap_or(50.0);
        Some(Dist {
            n,
            p50: percentile(&v, 50.0),
            tail_pct,
            tail: percentile(&v, tail_pct),
        })
    }

    pub fn line(&self, name: &str, unit: &str) -> String {
        format!(
            "{name}: median {:.6} {unit}, p{} {:.6} {unit}, n={}",
            self.p50, self.tail_pct, self.tail, self.n
        )
    }
}

/// Counts checked operations and the ones whose output was wrong.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Checker {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(what());
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// 64-bit FNV-1a over a word sequence: a stable digest for expected files.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn fnv_str(s: &str) -> u64 {
    fnv(s.bytes().map(u64::from))
}

/// Digest of a fixed, named subset of [`SimStats`]: the timing outcome of
/// a cell (cycles, commit and rename counts, recoveries, eliminations,
/// bypasses and tracker activity).
pub fn stats_digest(s: &SimStats) -> u64 {
    fnv([
        s.cycles,
        s.committed,
        s.renamed,
        s.branches,
        s.branch_mispredicts,
        s.squashed_uops,
        s.memory_traps,
        s.commit_flushes,
        s.moves_eliminated,
        s.moves_not_eliminated,
        s.loads_bypassed,
        s.bypass_mispredictions,
        s.tracker.shares_accepted,
        s.tracker.shares_rejected_full,
        s.tracker.reclaims,
        s.tracker.entries_freed,
    ])
}

/// Simulated event counts, summed over every cell a traced pass ran
/// (`refcount.peak_occupancy` is the maximum instead).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimCounts(pub BTreeMap<&'static str, u64>);

/// Names of the simulated per-layer counts, in report order.
pub const SIM_COUNT_NAMES: [&str; 17] = [
    "core.cycles",
    "core.committed",
    "core.renamed",
    "core.squashed_uops",
    "core.commit_flushes",
    "refcount.moves_eliminated",
    "refcount.moves_not_eliminated",
    "refcount.loads_bypassed",
    "refcount.bypass_mispredictions",
    "refcount.shares_rejected_full",
    "refcount.reclaim_port_stalls",
    "refcount.peak_occupancy",
    "predictors.branch_mispredicts",
    "distance.predictions",
    "mem.l1d_misses",
    "mem.l2_misses",
    "mem.mshr_rejects",
];

impl SimCounts {
    pub fn add(&mut self, s: &SimStats, m: &MemStats) {
        let sums = [
            ("core.cycles", s.cycles),
            ("core.committed", s.committed),
            ("core.renamed", s.renamed),
            ("core.squashed_uops", s.squashed_uops),
            ("core.commit_flushes", s.commit_flushes),
            ("refcount.moves_eliminated", s.moves_eliminated),
            ("refcount.moves_not_eliminated", s.moves_not_eliminated),
            ("refcount.loads_bypassed", s.loads_bypassed),
            ("refcount.bypass_mispredictions", s.bypass_mispredictions),
            (
                "refcount.shares_rejected_full",
                s.tracker.shares_rejected_full,
            ),
            ("refcount.reclaim_port_stalls", s.reclaim_port_stalls),
            ("predictors.branch_mispredicts", s.branch_mispredicts),
            ("distance.predictions", s.distance_predictions),
            ("mem.l1d_misses", m.l1d_misses),
            ("mem.l2_misses", m.l2_misses),
            ("mem.mshr_rejects", m.mshr_rejects),
        ];
        for (k, v) in sums {
            *self.0.entry(k).or_insert(0) += v;
        }
        let peak = self.0.entry("refcount.peak_occupancy").or_insert(0);
        *peak = (*peak).max(s.tracker.peak_occupancy as u64);
    }

    pub fn merge(&mut self, other: &SimCounts) {
        for (k, v) in &other.0 {
            let e = self.0.entry(k).or_insert(0);
            if *k == "refcount.peak_occupancy" {
                *e = (*e).max(*v);
            } else {
                *e += v;
            }
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// The `isa.stream_*` per-layer metrics: deltas of the process-wide
/// decoded-stream memo counters over a pass.
pub fn stream_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    before: StreamCacheStats,
    after: StreamCacheStats,
) {
    let hits = (after.stream_hits - before.stream_hits) as f64;
    let misses = (after.stream_misses - before.stream_misses) as f64;
    layers.insert("isa.stream_hits", hits);
    layers.insert("isa.stream_misses", misses);
    layers.insert("isa.stream_hit_ratio", hits / (hits + misses).max(1.0));
    layers.insert(
        "isa.oracle_decodes",
        (after.oracle_decodes - before.oracle_decodes) as f64,
    );
    layers.insert(
        "isa.replayed_uops",
        (after.replayed_uops - before.replayed_uops) as f64,
    );
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Maps `f` over `0..n` on `jobs` threads that take the next index as
/// they come free. `f` gets the worker number and the index. Returns the
/// results in index order and the wall seconds.
pub fn par_map<T: Send>(
    n: usize,
    jobs: usize,
    f: impl Fn(usize, usize) -> T + Sync,
) -> (Vec<T>, f64) {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..jobs {
            let (next, out, f) = (&next, &out, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(worker, i);
                out.lock().expect("result list lock")[i] = Some(r);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let out = out
        .into_inner()
        .expect("result list lock")
        .into_iter()
        .map(|r| r.expect("every index mapped"))
        .collect();
    (out, secs)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads that generate load in the batch workloads: all cores but one,
/// which is left to the host. On a 2-core host, sweeps at two threads
/// varied by 14% between runs and at one thread by 1%.
pub fn load_threads() -> usize {
    nproc().saturating_sub(1).max(1)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `nproc`, CPU model, rustc version and source revision, so that numbers
/// from two machines are never compared as absolutes.
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let rev = command_line("git", &["rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    format!(
        "nproc={} cpu=\"{cpu}\" rustc=\"{rustc}\" git_rev={rev}",
        nproc()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(&v).unwrap();
        assert_eq!((d.tail_pct, d.tail, d.p50), (99.0, 990.0, 500.0));
        let d = Dist::of(&v[..100]).unwrap();
        assert_eq!((d.tail_pct, d.tail), (90.0, 90.0));
        let d = Dist::of(&v[..12]).unwrap();
        assert_eq!(d.tail_pct, 50.0);
        let d = Dist::capped(&v, 95.0).unwrap();
        assert_eq!((d.tail_pct, d.tail), (95.0, 950.0));
    }

    #[test]
    fn par_map_keeps_index_order() {
        let (v, secs) = par_map(50, 3, |_, i| i * 2);
        assert_eq!(v, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        assert!(secs >= 0.0);
    }

    #[test]
    fn checker_counts_failures() {
        let mut c = Checker::default();
        c.record(true, String::new);
        c.record(false, || "bad".into());
        assert_eq!((c.attempted, c.failed, c.error_rate()), (2, 1, 0.5));
    }
}
