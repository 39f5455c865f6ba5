//! Span recorder for the traced run. Spans are recorded from the
//! benchmark's own code around its calls into each crate — name, start,
//! end, parent span and op id — kept in memory, and written out as JSON
//! lines when the run ends. A crate's self time is the time its spans
//! cover minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (`>= 1`).
    pub id: u64,
    /// Parent span id, 0 for none.
    pub parent: u64,
    /// The op this span serves (round, job, item ...).
    pub op: u64,
    /// `<crate>.<what>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// In-memory span store. A disabled tracer records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Creates a tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id for a span recorded later with [`Tracer::record`]
    /// (so children can name it as parent before it ends).
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span under a reserved (or fresh, when `id == 0`)
    /// id and returns the id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = if id == 0 { self.reserve() } else { id };
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Runs `f` inside a span; `f` receives the span id to parent its
    /// own children.
    pub fn span<R>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.reserve();
        let start = Instant::now();
        let value = f(id);
        self.record(id, name, parent, op, start, Instant::now());
        value
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Self time per crate (ms): each span's duration minus the union of
    /// its children's intervals (clipped to the span), summed by the
    /// crate prefix of the span name.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let krate = s.name.split('.').next().unwrap_or(s.name).to_string();
            *out.entry(krate).or_default() += dur.saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::covered_ns;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }
}
