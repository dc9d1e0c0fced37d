//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around the public
//! calls it makes into each layer (`core`, `isa`, `workloads`, `fuzz`,
//! `sweep`, `report`, `serve`). Each span carries its name, start, end,
//! the span that was open on the same thread when it began (its parent)
//! and a request id shared by every span of one request. Nothing is
//! written until the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a disabled tracer runs the
/// wrapped closures and records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` belonging to request `req`.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                req,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .clone()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    /// Durations in ms, one per span.
    pub durations_ms: Vec<f64>,
    pub total_ns: u64,
    /// Duration minus the time covered by direct children.
    pub self_ns: u64,
}

/// Groups spans by name. Children run on their parent's thread and nest
/// inside it, so a parent's self time is its duration minus its direct
/// children's durations.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0) += s.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        let d = s.duration_ns();
        e.durations_ms.push(d as f64 / 1e6);
        e.total_ns += d;
        e.self_ns += d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", 1, || {
            t.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = t.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let sum = summarize(&spans);
        assert!(sum["outer"].self_ns < sum["inner"].total_ns);
        assert_eq!(sum["outer"].total_ns, outer.duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
