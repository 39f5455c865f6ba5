//! The one supervised campaign driver, behind [`Campaign`](crate::Campaign)
//! and `gecko-check`'s `CheckCampaign`: the kill → resume promise (a
//! resumed campaign merges bit-exactly against an uninterrupted one, at
//! any worker count) is kept here, once.
//!
//! A campaign kind is a [`WorkUnit`] over a fixed, spec-derived item
//! list. [`drive`] takes it through the lifecycle of a reth prune
//! segment — restore the last checkpoint, run under a budget, save a
//! checkpoint: it checks (or stamps) the journal header, streams the
//! once-parsed records into [`WorkUnit::restore`], runs every other item
//! on the supervised pool, persists and journals only outputs supervision
//! *accepted* (a run that finished past its deadline is a failure, and a
//! resume must re-run it), syncs the journal, and merges the outputs in
//! item order.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use gecko_sim::report::Value;

use crate::frontier::Frontier;
use crate::journal::{self, Journal};
use crate::json::Json;
use crate::supervisor::{
    run_supervised, AttemptFail, ChaosSink, ItemOutcome, PoolConfig, RunBudget, RunFailure,
    SupervisorSpec,
};
use crate::telemetry::{Event, FleetCounters, NullSink, TelemetrySink};

/// The settings every campaign kind shares; campaign builders set them.
pub struct DriverConfig {
    /// Worker-pool size (≥ 1; clamped to the item count at run time).
    pub workers: usize,
    /// Telemetry sink (wrapped in a chaos sink when the policy asks).
    pub sink: Arc<dyn TelemetrySink>,
    /// Budgets and chaos policy.
    pub sup: SupervisorSpec,
    /// Resume journal: restored from, then appended to.
    pub journal: Option<Arc<Journal>>,
    /// Claim at most this many items this session.
    pub halt_after: Option<u64>,
    /// Cooperative kill switch: once flipped, nothing more is claimed.
    pub kill_switch: Option<Arc<AtomicBool>>,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            workers: 1,
            sink: Arc::new(NullSink),
            sup: SupervisorSpec::default(),
            journal: None,
            halt_after: None,
            kill_switch: None,
        }
    }
}

/// Implements the builder methods every campaign kind shares, inside the
/// `impl` block of a type with a `driver: DriverConfig` field: `workers`,
/// `sink`, `supervisor`, `chaos`, `journal`, `resume`, `halt_after` and
/// `kill_switch`.
#[macro_export]
macro_rules! driver_builders {
    () => {
        /// Sets the worker-pool size (builder style; clamped to ≥ 1).
        /// Results are bit-identical for any value.
        pub fn workers(mut self, workers: usize) -> Self {
            self.driver.workers = workers.max(1);
            self
        }

        /// Attaches a telemetry sink (builder style).
        pub fn sink(mut self, sink: std::sync::Arc<dyn $crate::TelemetrySink>) -> Self {
            self.driver.sink = sink;
            self
        }

        /// Overrides the supervision policy (builder style): budgets and
        /// chaos.
        pub fn supervisor(mut self, sup: $crate::SupervisorSpec) -> Self {
            self.driver.sup = sup;
            self
        }

        /// Enables chaos injection (builder style) without touching the
        /// rest of the supervision policy.
        pub fn chaos(mut self, chaos: $crate::ChaosSpec) -> Self {
            self.driver.sup.chaos = chaos;
            self
        }

        /// Attaches a resume journal (builder style): accepted items are
        /// appended, journaled ones skipped, and a journal of a different
        /// spec is refused.
        pub fn journal(mut self, journal: std::sync::Arc<$crate::Journal>) -> Self {
            self.driver.journal = Some(journal);
            self
        }

        /// Alias for `journal` that reads better when the journal already
        /// has content.
        pub fn resume(self, journal: std::sync::Arc<$crate::Journal>) -> Self {
            self.journal(journal)
        }

        /// Claims at most `n` items this session (builder style): the
        /// deterministic kill hook; the report comes back `halted`.
        pub fn halt_after(mut self, n: u64) -> Self {
            self.driver.halt_after = Some(n);
            self
        }

        /// Attaches a cooperative kill switch (builder style): once
        /// flipped, workers finish (and journal) the item they are on and
        /// claim nothing more; a later `resume` continues bit-exactly.
        pub fn kill_switch(mut self, stop: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
            self.driver.kill_switch = Some(stop);
            self
        }
    };
}

/// One campaign kind: items with stable run keys, a journal vocabulary,
/// and a budgeted item body.
pub trait WorkUnit: Sync {
    /// One finished item's result.
    type Output: Send;
    /// A campaign-aborting error (a property of the spec, not of a run).
    type Error: Send;
    /// The campaign kind named in journal-rejection messages.
    const KIND: &'static str;

    /// Campaign name, stamped into the journal header.
    fn name(&self) -> &str;
    /// Stable per-item run keys, in item order.
    fn run_keys(&self) -> &[u64];
    /// Fingerprint of everything a resume journal must agree on.
    fn fingerprint(&self) -> u64;
    /// The error for a journal that belongs to a different spec.
    fn journal_error(message: String) -> Self::Error;
    /// The per-run budget under `sup`.
    fn budget(&self, sup: &SupervisorSpec) -> RunBudget;
    /// Item ranges for a work-stealing frontier; `None` claims items
    /// off one shared cursor, in item order.
    fn claim_ranges(&self) -> Option<Vec<(usize, usize)>> {
        None
    }
    /// The started event; the driver appends `workers` and `resumed`.
    fn started(&self) -> Event;
    /// One slot per item from the journal's non-header records (line
    /// number, object; none without a journal), streamed in journal
    /// order: `Some` needs no re-run.
    fn restore(
        &mut self,
        records: &mut dyn Iterator<Item = (usize, Json)>,
        sink: &dyn TelemetrySink,
    ) -> Vec<Option<Self::Output>>;
    /// The one budgeted run of item `item`; the inner `Result` carries
    /// campaign-aborting errors.
    fn run_item(
        &self,
        item: usize,
        budget: &RunBudget,
        started: Instant,
        sink: &dyn TelemetrySink,
    ) -> Result<Result<Self::Output, Self::Error>, AttemptFail>;
    /// Persists what the unit keeps beside the journal for one accepted
    /// output (the checker's complete memo slab). Runs for every accepted
    /// output, journal or not, before its journal lines are appended.
    fn accepted(&self, _item: usize, _output: &Self::Output) {}
    /// The journal lines that checkpoint one accepted output.
    fn journal_lines(&self, item: usize, output: &Self::Output) -> Vec<String>;
}

/// A drained campaign: outputs merged in item order plus the
/// supervision bookkeeping a report needs.
pub struct Drained<'a, T> {
    /// Restored or freshly done outputs in item order; `None` for failed
    /// items and items unclaimed after a halt.
    pub outputs: Vec<Option<T>>,
    /// Quarantined failures in item order; callers may append their own
    /// before [`Drained::settle`].
    pub failures: Vec<RunFailure>,
    /// Worker threads used.
    pub workers: usize,
    /// Whether the pool stopped claiming early.
    pub halted: bool,
    /// Wall time (s) of the pool phase, journal sync included.
    pub wall_s: f64,
    counters: FleetCounters,
    sink: Arc<dyn TelemetrySink>,
    journal: Option<&'a Journal>,
}

impl<T> Drained<'_, T> {
    /// Folds dropped telemetry and journal records into one trailing
    /// `SinkDropped` failure (emitting `sink_dropped`) and returns the
    /// supervision counters: failures, resumed, dropped records and
    /// frontier steals.
    pub fn settle(&mut self) -> FleetCounters {
        let dropped = self.sink.dropped_records() + self.journal.map_or(0, Journal::dropped);
        if dropped > 0 {
            self.sink.emit(Event::new(
                "sink_dropped",
                vec![("dropped", Value::U64(dropped))],
            ));
            self.failures.push(RunFailure::SinkDropped { dropped });
        }
        FleetCounters {
            failures: self.failures.iter().filter(|f| f.item().is_some()).count() as u64,
            dropped_records: dropped,
            ..self.counters
        }
    }

    /// Emits the finished event and flushes the sink.
    pub fn finish(&self, finished: Event) {
        self.sink.emit(finished);
        self.sink.flush();
    }
}

/// Runs `unit` under `cfg` (see the module docs).
///
/// # Errors
///
/// The unit's journal error when the journal belongs to a different
/// spec, or the first (in item order) campaign-aborting run error.
pub fn drive<'a, U: WorkUnit>(
    cfg: &'a DriverConfig,
    unit: &mut U,
) -> Result<Drained<'a, U::Output>, U::Error> {
    let chaos = cfg.sup.chaos;
    let sink: Arc<dyn TelemetrySink> = if chaos.sink_fail_per_mille > 0 {
        let inner = Arc::clone(&cfg.sink);
        Arc::new(ChaosSink::new(inner, chaos.seed, chaos.sink_fail_per_mille))
    } else {
        Arc::clone(&cfg.sink)
    };
    let journal = cfg.journal.as_deref();
    let lines = journal.map(Journal::lines).unwrap_or_default();
    let mut parsed = lines
        .iter()
        .enumerate()
        .filter_map(|(i, line)| Some((i, Json::parse_record(line)?)));
    // The header leads every journal this driver stamps: check it before
    // restoring anything, holding back the (normally no) records ahead of
    // it. Each line is parsed once, and records stream into `restore`.
    let mut ahead = Vec::new();
    let header = parsed.find_map(|(i, rec)| {
        journal::header_from(&rec).or_else(|| {
            ahead.push((i, rec));
            None
        })
    });
    if let Some(journal) = journal {
        let fingerprint = unit.fingerprint();
        match header {
            Some((name, fp)) if fp != fingerprint => {
                return Err(U::journal_error(format!(
                    "journal belongs to {} {name:?} (fingerprint {fp:#018x}), \
                     not this spec (fingerprint {fingerprint:#018x})",
                    U::KIND
                )));
            }
            Some(_) => {}
            None => journal.append(&journal::encode_header(unit.name(), fingerprint)),
        }
    }
    let not_header = |(_, rec): &(usize, Json)| journal::header_from(rec).is_none();
    let mut records = ahead.into_iter().chain(parsed.filter(not_header));
    let mut outputs = unit.restore(&mut records, &*sink);
    let unit = &*unit;
    let skip: Vec<bool> = outputs.iter().map(Option::is_some).collect();
    let resumed = skip.iter().filter(|&&s| s).count() as u64;
    let workers = cfg.workers.min(skip.len()).max(1);
    let mut started = unit.started();
    started.fields.push(("workers", Value::U64(workers as u64)));
    started.fields.push(("resumed", Value::U64(resumed)));
    sink.emit(started);

    let t0 = Instant::now();
    let frontier = unit.claim_ranges().map(|r| Frontier::new(&r, workers));
    let pool_cfg = PoolConfig {
        workers,
        run_keys: unit.run_keys(),
        skip: &skip,
        sup: &cfg.sup,
        budget: unit.budget(&cfg.sup),
        halt_after: cfg.halt_after.map(|h| h + resumed),
        stop: cfg.kill_switch.as_deref(),
        claim: frontier.as_ref(),
        sink: &sink,
    };
    let pool = run_supervised(
        &pool_cfg,
        |i, budget, t| unit.run_item(i, budget, t, &*sink),
        |i, outcome| {
            let Ok(output) = outcome else { return };
            unit.accepted(i, output);
            if let Some(journal) = journal {
                for line in unit.journal_lines(i, output) {
                    journal.append(&line);
                }
            }
        },
    );
    // Checkpoint boundary: accepted outputs reach stable storage before
    // the report claims them (per-item appends stay fsync-free).
    if let Some(journal) = journal {
        journal.sync();
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    for (i, slot) in pool.outcomes.into_iter().enumerate() {
        match slot {
            _ if skip[i] => {}
            // Unclaimed: only after a halt (or a crashed pool worker,
            // which the pool reports as a failure).
            None => debug_assert!(pool.halted, "item {i} unclaimed without a halt"),
            Some(ItemOutcome::Done(Ok(output))) => outputs[i] = Some(output),
            Some(ItemOutcome::Done(Err(e))) => return Err(e),
            Some(ItemOutcome::Failed(f)) => failures.push(f),
        }
    }
    Ok(Drained {
        outputs,
        failures,
        workers,
        halted: pool.halted,
        wall_s,
        counters: FleetCounters {
            resumed,
            frontier_steals: frontier.as_ref().map_or(0, Frontier::steals),
            ..FleetCounters::default()
        },
        sink,
        journal,
    })
}
