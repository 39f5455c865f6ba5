//! A benchmark-owned telemetry sink that timestamps the pool's item
//! events as they are emitted, on the worker thread that emits them.

use gecko_fleet::{Event, TelemetrySink};
use gecko_sim::Value;
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One timestamped event.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// When the event was emitted.
    pub at: Instant,
    /// Event kind.
    pub kind: &'static str,
    /// The `item` field, if any.
    pub item: Option<u64>,
    /// Emitting thread.
    pub thread: ThreadId,
}

/// Records `(time, kind, item, thread)` for every event.
#[derive(Debug, Default)]
pub struct TimingSink {
    stamps: Mutex<Vec<Stamp>>,
}

impl TelemetrySink for TimingSink {
    fn emit(&self, event: Event) {
        let item = match event.field("item") {
            Some(Value::U64(i)) => Some(*i),
            _ => None,
        };
        let stamp = Stamp {
            at: Instant::now(),
            kind: event.kind,
            item,
            thread: std::thread::current().id(),
        };
        self.stamps.lock().expect("sink poisoned").push(stamp);
    }
}

/// One item's run as seen from the sink.
#[derive(Debug, Clone, Copy)]
pub struct ItemSpan {
    /// Work-item index.
    pub item: u64,
    /// `item_started` time (the last attempt's).
    pub start: Instant,
    /// `item_finished` time.
    pub end: Instant,
}

impl TimingSink {
    /// Takes every stamp recorded so far, leaving the sink empty.
    pub fn drain(&self) -> Vec<Stamp> {
        std::mem::take(&mut *self.stamps.lock().expect("sink poisoned"))
    }
}

/// Pairs `item_started` / `item_finished` stamps of a sweep campaign.
pub fn item_spans(stamps: &[Stamp]) -> Vec<ItemSpan> {
    let mut open: HashMap<u64, Instant> = HashMap::new();
    let mut spans = Vec::new();
    for s in stamps {
        match (s.kind, s.item) {
            ("item_started", Some(i)) => {
                open.insert(i, s.at);
            }
            ("item_finished", Some(i)) => {
                if let Some(start) = open.remove(&i) {
                    spans.push(ItemSpan {
                        item: i,
                        start,
                        end: s.at,
                    });
                }
            }
            _ => {}
        }
    }
    spans
}

/// Check chunks emit only `check_item_finished`, so a chunk's span runs
/// from its worker's previous finish (or from `run_start`) to its own.
pub fn chunk_spans(stamps: &[Stamp], run_start: Instant) -> Vec<ItemSpan> {
    let mut last: HashMap<ThreadId, Instant> = HashMap::new();
    let mut spans = Vec::new();
    for s in stamps {
        if s.kind != "check_item_finished" {
            continue;
        }
        let start = last.insert(s.thread, s.at).unwrap_or(run_start);
        spans.push(ItemSpan {
            item: s.item.unwrap_or(0),
            start,
            end: s.at,
        });
    }
    spans
}

/// Per item, the wait (ms) from `run_start` until it started, and the
/// total time (s) items kept workers busy.
pub fn pool_shape(spans: &[ItemSpan], run_start: Instant) -> (Vec<f64>, f64) {
    let waits = spans
        .iter()
        .map(|s| s.start.saturating_duration_since(run_start).as_secs_f64() * 1e3)
        .collect();
    let busy = spans
        .iter()
        .map(|s| s.end.saturating_duration_since(s.start).as_secs_f64())
        .sum();
    (waits, busy)
}
