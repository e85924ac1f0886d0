//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself is not instrumented). A span has a name whose
//! prefix before the first `.` is its layer, a parent (0 for roots), a
//! request id shared by the spans of one sampled decision, and a weight:
//! sampled request spans stand for `weight` requests, so the self-time
//! breakdown is an estimate for the whole run.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub weight: u32,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// its own calls can name it as their parent. A no-op when tracing is
    /// off (the id is then 0).
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
            weight: 1,
        });
        out
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().unwrap().push(span);
    }

    /// Adds spans a worker thread buffered locally.
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans.lock().unwrap().extend(spans);
    }

    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Weighted self time per layer, in seconds: each span's duration
    /// minus the part its children cover (children are nested and
    /// sequential in the benchmark's own code). A span stands for
    /// `weight` like it, so durations are scaled by the weight.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().unwrap();
        let weighted = |s: &Span| (s.end_ns - s.start_ns) as f64 * s.weight as f64;
        let mut covered: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *covered.entry(s.parent).or_default() += weighted(s);
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let own = weighted(s) - covered.get(&s.id).copied().unwrap_or(0.0);
            *out.entry(layer(s.name)).or_insert(0.0) += own.max(0.0) * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"weight\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, s.weight
            )?;
        }
        w.flush()
    }
}

pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let mk = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
            weight: 1,
        };
        t.push(mk(1, 0, "bench.stage", 0, 100));
        t.push(mk(2, 1, "routing.x", 10, 40));
        t.push(mk(3, 1, "admission.y", 50, 60));
        let st = t.self_times();
        assert!((st["bench"] - 60e-9).abs() < 1e-15);
        assert!((st["routing"] - 30e-9).abs() < 1e-15);
        assert!((st["admission"] - 10e-9).abs() < 1e-15);
    }
}
