//! The supervision layer: panic quarantine, run budgets, and
//! deterministic chaos injection.
//!
//! GECKO's thesis is graceful degradation under hostile conditions, and
//! the campaign engine holds itself to the same discipline: one
//! misbehaving run must never destroy a campaign. Every run executes
//! inside [`quarantine`] (a `catch_unwind` wrapper with a noise-filtering
//! panic hook), under a [`RunBudget`] (step budget + wall-clock deadline),
//! and failures are *classified*, not propagated:
//!
//! * [`RunFailure::Panicked`] — the run panicked; the payload is captured
//!   and the worker keeps draining its queue.
//! * [`RunFailure::TimedOut`] — the run exceeded its step budget or
//!   deadline; partial metrics ride along so a pathological configuration
//!   is *flagged*, not hung on. Step-budget timeouts are deterministic;
//!   deadline timeouts reflect real time.
//! * [`RunFailure::SinkDropped`] — telemetry records were dropped
//!   (I/O failure or injected chaos); one structured failure summarizes
//!   the count.
//!
//! Each claimed item runs exactly once. A run is a deterministic
//! simulation, so one that failed would fail the same way again: nothing
//! is retried.
//!
//! [`ChaosSpec`] threads seeded fault injection (panics, sink write
//! failures) through the same splitmix64 discipline as every other
//! stochastic element of the workspace: whether a run panics depends
//! only on `(chaos seed, run key)`, never on scheduling, so supervision
//! is exercised by deterministic, reproducible tests rather than luck.
//!
//! `run_supervised` is the worker pool under the campaign driver
//! ([`crate::driver`]): a shared work cursor (or a work-stealing
//! work-stealing frontier), per-item supervision, resume skipping,
//! a hook for accepted outcomes, and the halt-after-N-claims and
//! kill-switch graceful stops.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

use gecko_isa::rng::{SplitMix64, GOLDEN_GAMMA};
use gecko_sim::report::Value;
use gecko_sim::Metrics;

use crate::telemetry::{Event, TelemetrySink};

/// Default per-run wall-clock deadline (5 minutes) when the campaign does
/// not override it — generous enough that it only fires on genuine hangs.
pub const DEFAULT_WALL_MS: u64 = 300_000;

/// Steps-per-simulated-second cap used to derive a run's step budget from
/// its workload: the 16 MHz reference clock executes at most 16 M
/// instruction steps (and 4 k sleep ticks) per simulated second, so 64 M
/// gives 4× headroom before a run is declared pathological.
pub const DERIVED_STEPS_PER_SIM_SECOND: u64 = 64_000_000;

/// Floor for derived step budgets, so sub-millisecond workloads keep room
/// to breathe.
pub const MIN_DERIVED_STEPS: u64 = 1 << 20;

/// Locks a mutex, recovering from poison: a quarantined panic inside a
/// lock must not poison the rest of the campaign, so shared state
/// (program cache, telemetry sinks, journals) treats poison as "the
/// protected data is still valid, the panicker's *run* was discarded".
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Chaos injection
// ---------------------------------------------------------------------------

/// Deterministic fault-injection policy, threaded through splitmix64:
/// whether a run panics is a pure function of `(seed, run_key)`.
/// Probabilities are in per-mille (`0` = never, `1000` = always).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosSpec {
    /// Chaos stream seed (decorrelated from the simulation seeds).
    pub seed: u64,
    /// Probability (‰) that a run panics outright.
    pub panic_per_mille: u32,
    /// Probability (‰) that a telemetry record is dropped on write
    /// (exercises the sink-degradation path).
    pub sink_fail_per_mille: u32,
}

impl ChaosSpec {
    /// No chaos (the default).
    pub fn off() -> ChaosSpec {
        ChaosSpec::default()
    }

    /// Whether chaos panics the run keyed `run_key`. Exposed so tests can
    /// predict exactly which runs a chaos campaign will fail. The stream
    /// seed mix is part of every chaos test's expected panic set: keep it.
    pub fn panics(&self, run_key: u64) -> bool {
        let mut rng = SplitMix64::new(self.seed ^ run_key ^ GOLDEN_GAMMA);
        self.panic_per_mille > 0 && rng.next_u64() % 1000 < self.panic_per_mille as u64
    }
}

/// A telemetry sink wrapper that deterministically drops records with
/// seeded probability — the chaos hook for the sink-degradation path.
/// Drop decisions are keyed on the record sequence number, so the *count*
/// of drops depends only on the number of records, not on scheduling.
pub(crate) struct ChaosSink {
    inner: Arc<dyn TelemetrySink>,
    seed: u64,
    fail_per_mille: u32,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl ChaosSink {
    /// Wraps `inner`, dropping records with `fail_per_mille` probability.
    pub(crate) fn new(inner: Arc<dyn TelemetrySink>, seed: u64, fail_per_mille: u32) -> ChaosSink {
        ChaosSink {
            inner,
            seed,
            fail_per_mille,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }
}

impl TelemetrySink for ChaosSink {
    fn emit(&self, event: Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut rng = SplitMix64::new(self.seed ^ seq.wrapping_mul(GOLDEN_GAMMA));
        if self.fail_per_mille > 0 && rng.next_u64() % 1000 < self.fail_per_mille as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.inner.emit(event);
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn dropped_records(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) + self.inner.dropped_records()
    }
}

// ---------------------------------------------------------------------------
// Budgets and the supervision policy
// ---------------------------------------------------------------------------

/// The resolved budget every run executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum simulation steps one run may take (deterministic bound).
    pub max_steps: u64,
    /// Maximum wall-clock time one run may take.
    pub deadline: Duration,
}

/// Supervision policy for a campaign: budgets and the chaos policy.
/// `None` budget fields are derived from the spec at run time (see
/// [`SupervisorSpec::resolve_budget`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisorSpec {
    /// Step budget override (`None` = derive from the workload:
    /// `seconds × `[`DERIVED_STEPS_PER_SIM_SECOND`], floored at
    /// [`MIN_DERIVED_STEPS`]).
    pub max_steps: Option<u64>,
    /// Wall-clock deadline override in ms (`None` = [`DEFAULT_WALL_MS`]).
    pub max_wall_ms: Option<u64>,
    /// Fault-injection policy.
    pub chaos: ChaosSpec,
}

impl SupervisorSpec {
    /// Resolves the concrete budget for runs whose workload simulates
    /// `workload_seconds` of device time.
    pub fn resolve_budget(&self, workload_seconds: f64) -> RunBudget {
        let derived = (workload_seconds.max(0.0) * DERIVED_STEPS_PER_SIM_SECOND as f64)
            .ceil()
            .min(u64::MAX as f64) as u64;
        RunBudget {
            max_steps: self.max_steps.unwrap_or(derived.max(MIN_DERIVED_STEPS)),
            deadline: Duration::from_millis(self.max_wall_ms.unwrap_or(DEFAULT_WALL_MS)),
        }
    }
}

// ---------------------------------------------------------------------------
// Failure taxonomy
// ---------------------------------------------------------------------------

/// The failure taxonomy: why a run produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The run panicked.
    Panicked,
    /// The run exceeded its step budget or wall-clock deadline.
    TimedOut,
    /// Telemetry records were dropped.
    SinkDropped,
}

impl FailureKind {
    /// Stable lowercase name for reports and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panicked => "panicked",
            FailureKind::TimedOut => "timed-out",
            FailureKind::SinkDropped => "sink-dropped",
        }
    }
}

/// One structured failure in a campaign report. Quarantined failures are
/// *results*, not errors: the campaign completes and reports them next to
/// the successful runs.
#[derive(Debug, Clone, PartialEq)]
pub enum RunFailure {
    /// The run panicked; `payload` is the captured panic message.
    Panicked {
        /// Stable identity of the failed run.
        run_key: u64,
        /// Work-item index of the failed run.
        item: usize,
        /// The panic payload (stringified).
        payload: String,
    },
    /// The run exceeded its budget.
    TimedOut {
        /// Stable identity of the failed run.
        run_key: u64,
        /// Work-item index of the failed run.
        item: usize,
        /// Simulation steps taken before the budget fired.
        steps: u64,
        /// Wall-clock ms the run had consumed.
        wall_ms: f64,
        /// Metrics accumulated up to the abort point (step-budget
        /// timeouts carry deterministic partials; deadline timeouts may
        /// not have any). Boxed to keep the failure enum small.
        partial: Option<Box<Metrics>>,
    },
    /// `dropped` telemetry/journal records were dropped instead of
    /// panicking the writer.
    SinkDropped {
        /// Records dropped over the whole campaign.
        dropped: u64,
    },
}

impl RunFailure {
    /// This failure's taxonomy bucket.
    pub fn kind(&self) -> FailureKind {
        match self {
            RunFailure::Panicked { .. } => FailureKind::Panicked,
            RunFailure::TimedOut { .. } => FailureKind::TimedOut,
            RunFailure::SinkDropped { .. } => FailureKind::SinkDropped,
        }
    }

    /// The failed run's key (`None` for campaign-scoped failures).
    pub fn run_key(&self) -> Option<u64> {
        match self {
            RunFailure::Panicked { run_key, .. } | RunFailure::TimedOut { run_key, .. } => {
                Some(*run_key)
            }
            RunFailure::SinkDropped { .. } => None,
        }
    }

    /// The failed run's work-item index (`None` for campaign-scoped
    /// failures).
    pub fn item(&self) -> Option<usize> {
        match self {
            RunFailure::Panicked { item, .. } | RunFailure::TimedOut { item, .. } => Some(*item),
            RunFailure::SinkDropped { .. } => None,
        }
    }

    /// One-line human description.
    pub fn describe(&self) -> String {
        match self {
            RunFailure::Panicked {
                run_key,
                item,
                payload,
            } => format!("[item {item}] panicked (run {run_key:#018x}): {payload}"),
            RunFailure::TimedOut {
                run_key,
                item,
                steps,
                wall_ms,
                ..
            } => format!(
                "[item {item}] timed out (run {run_key:#018x}) after {steps} steps / {wall_ms:.1} ms"
            ),
            RunFailure::SinkDropped { dropped } => {
                format!("telemetry degraded: {dropped} record(s) dropped")
            }
        }
    }

    /// Folds the deterministic identity of this failure (kind tag, run
    /// key, item) into an FNV-style digest closure. Partial metrics and
    /// wall-clock are excluded: deadline timeouts reflect real time. The
    /// tags are part of every pinned digest; tag 3 stays unused.
    pub fn digest_into(&self, eat: &mut dyn FnMut(u64)) {
        match self {
            RunFailure::Panicked { run_key, item, .. } => {
                eat(1);
                eat(*run_key);
                eat(*item as u64);
            }
            RunFailure::TimedOut { run_key, item, .. } => {
                eat(2);
                eat(*run_key);
                eat(*item as u64);
            }
            RunFailure::SinkDropped { dropped } => {
                eat(4);
                eat(*dropped);
            }
        }
    }
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A cooperative failure a run closure can report without panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptFail {
    /// The run exceeded its budget (the closure checked cooperatively).
    TimedOut {
        /// Steps taken when the budget fired.
        steps: u64,
        /// Wall ms consumed when the budget fired.
        wall_ms: f64,
        /// Metrics accumulated up to the abort point, when available.
        /// Boxed so the `Err` variant stays pointer-sized.
        partial: Option<Box<Metrics>>,
    },
}

// ---------------------------------------------------------------------------
// Quarantine
// ---------------------------------------------------------------------------

thread_local! {
    static QUARANTINED: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUARANTINED.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with panics quarantined: a panic is captured and returned as
/// its stringified payload instead of unwinding (and the default
/// panic-hook backtrace noise is suppressed for quarantined panics only).
/// The closure's state is per-run; shared state it touched is guarded by
/// poison-recovering locks (see [`lock_unpoisoned`]).
pub fn quarantine<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    QUARANTINED.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUARANTINED.with(|q| q.set(false));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

// ---------------------------------------------------------------------------
// The supervised worker pool
// ---------------------------------------------------------------------------

/// What the pool recorded for one work item.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ItemOutcome<T> {
    /// The run completed.
    Done(T),
    /// The run failed and was quarantined.
    Failed(RunFailure),
}

/// The pool's merged outcome: one slot per item, in item order.
#[derive(Debug)]
pub(crate) struct PoolReport<T> {
    /// Per-item outcomes; `None` for items never claimed (skipped by the
    /// caller's resume set, or unclaimed after a halt).
    pub(crate) outcomes: Vec<Option<ItemOutcome<T>>>,
    /// Whether the pool stopped claiming because `halt_after` was reached
    /// or the kill switch flipped.
    pub(crate) halted: bool,
}

/// Pool configuration for [`run_supervised`].
pub(crate) struct PoolConfig<'a> {
    pub(crate) workers: usize,
    /// Stable per-item run keys (chaos panics key off these).
    pub(crate) run_keys: &'a [u64],
    /// Items restored from a journal: never claimed.
    pub(crate) skip: &'a [bool],
    pub(crate) sup: &'a SupervisorSpec,
    pub(crate) budget: RunBudget,
    /// Claim at most this many items, counting the skipped ones. Charged
    /// at claim time, so exactly `halt_after - skipped` items run at any
    /// worker count.
    pub(crate) halt_after: Option<u64>,
    /// Cooperative kill switch: once it flips, workers finish the item
    /// they are on and claim nothing more.
    pub(crate) stop: Option<&'a AtomicBool>,
    /// `None` claims items off one shared cursor in item order; `Some`
    /// claims through a work-stealing frontier. Either way every index
    /// is claimed exactly once.
    pub(crate) claim: Option<&'a crate::frontier::Frontier>,
    /// Sink for `run_failed` events.
    pub(crate) sink: &'a Arc<dyn TelemetrySink>,
}

/// Executes `run` once for every non-skipped item on a supervised worker
/// pool: panics are quarantined, budgets enforced (cooperatively by the
/// closure plus a post-hoc deadline check), and chaos injected per the
/// spec. The closure receives `(item index, budget, run start)` and
/// returns its result or a cooperative failure.
/// `accepted` sees every result supervision accepted, on the worker that
/// produced it, as soon as it is accepted — the journaling hook: a result
/// that finished past its deadline is a failure and never reaches it.
///
/// Outcomes land in item order; which worker ran what never matters.
pub(crate) fn run_supervised<T, F, A>(cfg: &PoolConfig<'_>, run: F, accepted: A) -> PoolReport<T>
where
    T: Send,
    F: Fn(usize, &RunBudget, Instant) -> Result<T, AttemptFail> + Sync,
    A: Fn(usize, &T) + Sync,
{
    let n = cfg.run_keys.len();
    assert_eq!(cfg.skip.len(), n, "skip mask must cover every item");
    // (cursor, charged): the claim seam. Claiming an index and charging
    // the halt budget for it happen under one lock, so the budget admits
    // exactly `halt_after` items however many workers race for them.
    let claims = Mutex::new((0usize, cfg.skip.iter().filter(|&&s| s).count() as u64));
    let halted = AtomicBool::new(false);
    let mut slots: Vec<Option<ItemOutcome<T>>> = Vec::new();
    slots.resize_with(n, || None);
    let workers = cfg.workers.clamp(1, n.max(1));

    let mut worker_crash: Option<String> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let claims = &claims;
            let halted = &halted;
            let run = &run;
            let accepted = &accepted;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, ItemOutcome<T>)> = Vec::new();
                // The next pending index, or `None` once the items are
                // drained or the halt budget refuses one.
                let claim = || {
                    let mut claims = lock_unpoisoned(claims);
                    let (cursor, charged) = &mut *claims;
                    loop {
                        let i = match cfg.claim {
                            Some(frontier) => frontier.claim(w)?,
                            None if *cursor < n => {
                                *cursor += 1;
                                *cursor - 1
                            }
                            None => return None,
                        };
                        if cfg.skip[i] {
                            continue;
                        }
                        if cfg.halt_after.is_some_and(|h| *charged >= h) {
                            halted.store(true, Ordering::Relaxed);
                            return None;
                        }
                        *charged += 1;
                        return Some(i);
                    }
                };
                loop {
                    if cfg.stop.is_some_and(|stop| stop.load(Ordering::Relaxed)) {
                        halted.store(true, Ordering::Relaxed);
                        break;
                    }
                    let Some(i) = claim() else { break };
                    let outcome = supervise_item(cfg, i, run);
                    if let ItemOutcome::Done(value) = &outcome {
                        accepted(i, value);
                    }
                    local.push((i, outcome));
                }
                local
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(local) => {
                    for (i, outcome) in local {
                        slots[i] = Some(outcome);
                    }
                }
                Err(payload) => {
                    // The supervisor itself crashed (should be impossible:
                    // runs are quarantined). Items the dead worker claimed
                    // stay `None` and are surfaced by the caller.
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    worker_crash = Some(msg);
                }
            }
        }
    });

    // A crashed worker loses the items it had claimed but not returned;
    // without a halt those are exactly the `None` slots.
    if let Some(msg) = worker_crash {
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() && !cfg.skip[i] && cfg.halt_after.is_none() && cfg.stop.is_none() {
                *slot = Some(ItemOutcome::Failed(RunFailure::Panicked {
                    run_key: cfg.run_keys[i],
                    item: i,
                    payload: format!("worker crashed: {msg}"),
                }));
            }
        }
    }

    PoolReport {
        outcomes: slots,
        halted: halted.load(Ordering::Relaxed),
    }
}

/// Supervises the one run of one item: chaos, quarantine, then the
/// classification of its result.
fn supervise_item<T, F>(cfg: &PoolConfig<'_>, item: usize, run: &F) -> ItemOutcome<T>
where
    F: Fn(usize, &RunBudget, Instant) -> Result<T, AttemptFail> + Sync,
{
    let run_key = cfg.run_keys[item];
    let chaos_panic = cfg.sup.chaos.panics(run_key);
    let started = Instant::now();
    let caught = quarantine(|| {
        if chaos_panic {
            panic!("chaos: injected panic (run {run_key:#018x})");
        }
        run(item, &cfg.budget, started)
    });
    let failure = match caught {
        Ok(Ok(value)) => {
            let wall = started.elapsed();
            if wall <= cfg.budget.deadline {
                return ItemOutcome::Done(value);
            }
            // The run completed, but only by blowing through its deadline
            // between two cooperative checks: still a pathological
            // configuration worth flagging.
            RunFailure::TimedOut {
                run_key,
                item,
                steps: 0,
                wall_ms: wall.as_secs_f64() * 1e3,
                partial: None,
            }
        }
        Ok(Err(AttemptFail::TimedOut {
            steps,
            wall_ms,
            partial,
        })) => RunFailure::TimedOut {
            run_key,
            item,
            steps,
            wall_ms,
            partial,
        },
        Err(payload) => RunFailure::Panicked {
            run_key,
            item,
            payload,
        },
    };
    cfg.sink.emit(Event::new(
        "run_failed",
        vec![
            ("item", Value::U64(item as u64)),
            ("run_key", Value::U64(run_key)),
            ("kind", Value::Str(failure.kind().name().to_string())),
            ("detail", Value::Str(failure.describe())),
        ],
    ));
    ItemOutcome::Failed(failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{MemorySink, NullSink};

    fn null_sink() -> Arc<dyn TelemetrySink> {
        Arc::new(NullSink)
    }

    #[test]
    fn lock_unpoisoned_recovers_the_data() {
        let m = Mutex::new(41);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(r.is_err());
        assert!(m.lock().is_err(), "the mutex really is poisoned");
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 42);
    }

    #[test]
    fn quarantine_captures_payloads() {
        assert_eq!(quarantine(|| 7), Ok(7));
        assert_eq!(
            quarantine(|| -> u32 { panic!("boom") }),
            Err("boom".to_string())
        );
    }

    #[test]
    fn chaos_panics_are_deterministic_and_seed_sensitive() {
        let chaos = ChaosSpec {
            seed: 9,
            panic_per_mille: 500,
            ..ChaosSpec::default()
        };
        let panics = |chaos: ChaosSpec| (0..64).map(|k| chaos.panics(k)).collect::<Vec<_>>();
        assert_eq!(panics(chaos), panics(chaos));
        assert!(panics(chaos).contains(&true) && panics(chaos).contains(&false));
        assert_ne!(
            panics(chaos),
            panics(ChaosSpec { seed: 10, ..chaos }),
            "seed must matter"
        );
        assert!(!panics(ChaosSpec::off()).contains(&true));
    }

    #[test]
    fn pool_quarantines_panics_and_drains_the_queue() {
        let keys: Vec<u64> = (0..16).collect();
        let skip = vec![false; 16];
        let sup = SupervisorSpec::default();
        let sink = null_sink();
        let cfg = PoolConfig {
            workers: 4,
            run_keys: &keys,
            skip: &skip,
            sup: &sup,
            budget: sup.resolve_budget(0.01),
            halt_after: None,
            stop: None,
            claim: None,
            sink: &sink,
        };
        let report = run_supervised(
            &cfg,
            |i, _, _| {
                if i % 5 == 0 {
                    panic!("run {i} exploded");
                }
                Ok(i * 10)
            },
            |_, _| {},
        );
        assert!(!report.halted);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match outcome.as_ref().expect("claimed") {
                ItemOutcome::Done(v) => {
                    assert_ne!(i % 5, 0);
                    assert_eq!(*v, i * 10);
                }
                ItemOutcome::Failed(RunFailure::Panicked { item, payload, .. }) => {
                    assert_eq!(i % 5, 0);
                    assert_eq!(*item, i);
                    assert!(payload.contains("exploded"), "{payload}");
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn halt_after_stops_claiming() {
        let keys: Vec<u64> = (0..32).collect();
        let skip = vec![false; 32];
        let sup = SupervisorSpec::default();
        let sink = null_sink();
        let cfg = PoolConfig {
            workers: 1,
            run_keys: &keys,
            skip: &skip,
            sup: &sup,
            budget: sup.resolve_budget(0.01),
            halt_after: Some(10),
            stop: None,
            claim: None,
            sink: &sink,
        };
        let report = run_supervised(&cfg, |i, _, _| Ok(i), |_, _| {});
        assert!(report.halted);
        let done = report.outcomes.iter().flatten().count();
        assert_eq!(done, 10, "exactly halt_after runs were accounted");
    }

    #[test]
    fn halt_budget_is_charged_at_claim_time_at_any_worker_count() {
        // Slow items: every worker claims before the first run finishes,
        // so a budget charged on completion would let all of them through.
        let keys: Vec<u64> = (0..24).collect();
        let mut skip = vec![false; 24];
        skip[1] = true; // a resumed item counts against the budget, unrun
        let sup = SupervisorSpec::default();
        let sink = null_sink();
        for workers in [1usize, 2, 8] {
            let frontier = crate::frontier::Frontier::new(&[(0, 12), (12, 24)], workers);
            for claim in [None, Some(&frontier)] {
                let cfg = PoolConfig {
                    workers,
                    run_keys: &keys,
                    skip: &skip,
                    sup: &sup,
                    budget: sup.resolve_budget(1.0),
                    halt_after: Some(4),
                    stop: None,
                    claim,
                    sink: &sink,
                };
                let report = run_supervised(
                    &cfg,
                    |i, _, _| {
                        std::thread::sleep(Duration::from_millis(20));
                        Ok(i)
                    },
                    |_, _| {},
                );
                let ran: Vec<usize> = (0..24).filter(|&i| report.outcomes[i].is_some()).collect();
                let label = format!("workers={workers} frontier={}", claim.is_some());
                assert!(report.halted, "{label}");
                assert_eq!(ran.len(), 3, "{label}: ran {ran:?}");
                assert!(!ran.contains(&1), "{label}: skipped items never run");
                if claim.is_none() {
                    assert_eq!(ran, [0, 2, 3], "{label}: the cursor runs a prefix");
                }
            }
        }
    }

    #[test]
    fn budgets_derive_from_the_workload() {
        let sup = SupervisorSpec::default();
        let b = sup.resolve_budget(2.0);
        assert_eq!(b.max_steps, 2 * DERIVED_STEPS_PER_SIM_SECOND);
        assert_eq!(b.deadline, Duration::from_millis(DEFAULT_WALL_MS));
        let b = sup.resolve_budget(1e-6);
        assert_eq!(b.max_steps, MIN_DERIVED_STEPS, "floored");
        let sup = SupervisorSpec {
            max_steps: Some(123),
            max_wall_ms: Some(456),
            ..SupervisorSpec::default()
        };
        let b = sup.resolve_budget(10.0);
        assert_eq!(b.max_steps, 123);
        assert_eq!(b.deadline, Duration::from_millis(456));
    }

    #[test]
    fn chaos_sink_drops_deterministically() {
        let inner = Arc::new(MemorySink::new());
        let chaos = ChaosSink::new(inner.clone(), 3, 500);
        for i in 0..100u64 {
            chaos.emit(Event::new("e", vec![("i", Value::U64(i))]));
        }
        let dropped = chaos.dropped_records();
        assert!(dropped > 10 && dropped < 90, "~half dropped: {dropped}");
        assert_eq!(inner.events().len() as u64 + dropped, 100);
        // Same seed, same record count => same drop count.
        let again = ChaosSink::new(Arc::new(MemorySink::new()), 3, 500);
        for i in 0..100u64 {
            again.emit(Event::new("e", vec![("i", Value::U64(i))]));
        }
        assert_eq!(again.dropped_records(), dropped);
    }
}
