//! Verdict vocabulary: injection schedules, outcomes, blame and the
//! per-pair report the checker emits.

use std::fmt;

use gecko_isa::{BlockId, Program, RegionId, Word};
use gecko_mcu::{FaultEffect, Pc};
use gecko_sim::device::CompiledApp;
use gecko_sim::{SchemeKind, Simulator};

/// One kind of fault the checker can inject at a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionKind {
    /// Instantaneous total power failure (capacitor drained, volatile
    /// state lost) with no warning from the monitor.
    PowerFailure,
    /// EMI-spoofed checkpoint signal: the monitor falsely reports the
    /// supply collapsing, triggering the scheme's shutdown path while the
    /// capacitor is actually full (Section V).
    SpoofedCheckpoint,
    /// EMI-spoofed wake-up signal: a sleeping device boots early,
    /// bypassing the debounce.
    SpoofedWakeup,
    /// EM instruction-skip fault: the next retired instruction executes
    /// as a no-op (Moro et al.'s dominant fault). Judged against the
    /// faulted-continuous reference, not the golden checksum — see
    /// DESIGN.md §16.
    InstructionSkip,
    /// EM instruction-corruption fault: the next retired instruction
    /// decodes as a different operation (written values complemented,
    /// branches inverted).
    InstructionCorrupt,
}

impl InjectionKind {
    /// Stable lowercase name (used in schedules and JSON rows).
    pub fn name(self) -> &'static str {
        match self {
            InjectionKind::PowerFailure => "power-failure",
            InjectionKind::SpoofedCheckpoint => "spoofed-checkpoint",
            InjectionKind::SpoofedWakeup => "spoofed-wakeup",
            InjectionKind::InstructionSkip => "instruction-skip",
            InjectionKind::InstructionCorrupt => "instruction-corrupt",
        }
    }

    /// Applies this injection to a simulator.
    pub fn inject(self, sim: &mut Simulator) {
        match self {
            InjectionKind::PowerFailure => sim.inject_power_failure(),
            InjectionKind::SpoofedCheckpoint => sim.inject_spoofed_checkpoint(),
            InjectionKind::SpoofedWakeup => sim.inject_spoofed_wakeup(),
            InjectionKind::InstructionSkip => sim.inject_instruction_fault(FaultEffect::Skip),
            InjectionKind::InstructionCorrupt => {
                sim.inject_instruction_fault(FaultEffect::OpcodeCorrupt)
            }
        }
    }

    /// Whether a step counts toward this injection's offset: power
    /// failures, spoofed checkpoints and instruction faults land on
    /// executing (on) steps, spoofed wake-ups on sleep ticks.
    pub fn counts_step(self, sim: &Simulator) -> bool {
        match self {
            InjectionKind::SpoofedWakeup => !sim.is_on(),
            _ => sim.is_on(),
        }
    }

    /// Whether this kind rewrites the executed instruction stream (the EM
    /// fault kinds). Such injections change what a *correct* continuous
    /// execution would compute, so their outcomes are judged against the
    /// faulted-continuous reference instead of the golden checksum.
    pub fn is_em_fault(self) -> bool {
        matches!(
            self,
            InjectionKind::InstructionSkip | InjectionKind::InstructionCorrupt
        )
    }
}

impl fmt::Display for InjectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One element of an injection schedule: advance `after_steps` qualifying
/// steps (see [`InjectionKind::counts_step`]) past the previous injection
/// (or past reset, for the first element), then inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedInjection {
    /// Qualifying steps to advance before injecting.
    pub after_steps: u64,
    /// What to inject.
    pub kind: InjectionKind,
}

impl fmt::Display for PlannedInjection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{} {}", self.after_steps, self.kind)
    }
}

/// Renders a schedule as `+37 spoofed-checkpoint, +5 power-failure`.
pub fn schedule_to_string(schedule: &[PlannedInjection]) -> String {
    let parts: Vec<String> = schedule.iter().map(|p| p.to_string()).collect();
    parts.join(", ")
}

/// What an exploration observed after recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The run completed with the golden checksum.
    Clean,
    /// The run completed with a wrong checksum — the crash-consistency
    /// contract is broken.
    Corrupt {
        /// The checksum the corrupted run produced.
        got: Word,
    },
    /// The run failed to complete within the step budget (lost progress /
    /// livelock after recovery).
    Stuck,
}

impl Outcome {
    /// Whether this outcome violates the crash-anywhere contract.
    pub fn is_violation(self) -> bool {
        !matches!(self, Outcome::Clean)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Clean => write!(f, "clean"),
            Outcome::Corrupt { got } => write!(f, "corrupt (checksum {got})"),
            Outcome::Stuck => write!(f, "stuck (no completion within budget)"),
        }
    }
}

/// Where recovery would resume from at the injection point, in compiler
/// vocabulary — the metadata a violation report blames.
#[derive(Debug, Clone, PartialEq)]
pub struct Blame {
    /// The committed region a rollback scheme would resume from.
    pub region: Option<RegionId>,
    /// That region's boundary block.
    pub block: Option<BlockId>,
    /// Instruction index of the boundary within the block.
    pub boundary_index: Option<usize>,
    /// Slot restores the region's recovery performs.
    pub recovery_slots: usize,
    /// Recovery-block replays the region's recovery performs.
    pub recovery_recomputes: usize,
    /// The PC a valid JIT checkpoint would restore to (NVP/GECKO).
    pub checkpoint_pc: Option<Pc>,
    /// Human-readable one-liner naming the recovery target.
    pub detail: String,
}

impl Blame {
    /// Captures blame context from a simulator positioned right after an
    /// injection: whatever recovery the scheme would perform from here is
    /// what gets blamed if the continuation corrupts.
    pub fn capture(sim: &Simulator, compiled: &CompiledApp) -> Blame {
        let region = sim.committed_region();
        let info = region.and_then(|r| compiled.regions.get(r));
        let (slots, recomputes) = region
            .map(|r| compiled.recovery.action_counts(r))
            .unwrap_or((0, 0));
        let checkpoint_pc = sim.jit_checkpoint_pc();
        let detail = match compiled.scheme {
            SchemeKind::Nvp => match checkpoint_pc {
                Some(pc) => format!(
                    "valid JIT checkpoint restores to {}[{}]; NVP never invalidates it, so \
                     a re-failure re-executes everything since (double-execution hazard)",
                    pc.block, pc.index
                ),
                None => "no valid JIT checkpoint: recovery cold-restarts from the program entry"
                    .to_string(),
            },
            SchemeKind::Ratchet => match info {
                Some(i) => format!("rollback to committed {}", i.describe()),
                None => "no committed boundary: cold restart from the program entry".to_string(),
            },
            SchemeKind::Gecko | SchemeKind::GeckoNoPrune => {
                let loc = info
                    .map(|i| i.describe())
                    .unwrap_or_else(|| "the program entry".to_string());
                format!(
                    "rollback to committed {loc}; recovery restores {slots} slot(s) and \
                     replays {recomputes} recovery block(s)"
                )
            }
        };
        Blame {
            region,
            block: info.map(|i| i.block),
            boundary_index: info.map(|i| i.boundary_index),
            recovery_slots: slots,
            recovery_recomputes: recomputes,
            checkpoint_pc,
            detail,
        }
    }

    /// Like [`Blame::capture`], but for an armed EM instruction fault:
    /// the simulator's PC names the instruction the fault will land on
    /// (injection arms a one-shot consumed by the next retired step), and
    /// the detail says where that is relative to the committed boundary —
    /// a fault *after* the boundary is replayed by a rollback, one *at or
    /// before* it is already committed and sticks.
    pub fn capture_faulted(sim: &Simulator, compiled: &CompiledApp, kind: InjectionKind) -> Blame {
        let mut blame = Blame::capture(sim, compiled);
        blame.detail = format!(
            "{}; {}",
            Blame::fault_site(sim, compiled, kind),
            blame.detail
        );
        blame
    }

    /// The one-sentence fault-site description used by
    /// [`Blame::capture_faulted`]: which instruction the armed fault will
    /// land on, and where that is relative to the committed boundary.
    /// Nested explorations prepend this to their own rollback blame so a
    /// fault-then-crash counterexample still names the faulted region.
    pub(crate) fn fault_site(
        sim: &Simulator,
        compiled: &CompiledApp,
        kind: InjectionKind,
    ) -> String {
        let blame = Blame::capture(sim, compiled);
        let pc = sim.pc();
        let position = match (blame.block, blame.boundary_index) {
            (Some(block), Some(index)) if block == pc.block => {
                if pc.index > index {
                    "after the committed boundary in its block"
                } else {
                    "at or before the committed boundary"
                }
            }
            (Some(_), _) => "beyond the committed boundary block",
            _ => "with no committed boundary behind it",
        };
        format!(
            "EM {} lands on {}[{}] ({position})",
            kind.name(),
            pc.block,
            pc.index
        )
    }
}

impl fmt::Display for Blame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

/// A tiny graphviz digraph of just the blamed block — the focused
/// companion to [`gecko_isa::dot::to_dot`]'s whole-program rendering.
/// Returns `None` when the blame names no block (e.g. an NVP cold
/// restart, which has no region to draw).
pub fn blame_dot(program: &Program, blame: &Blame) -> Option<String> {
    let target = blame.block.or(blame.checkpoint_pc.map(|pc| pc.block))?;
    let block = program
        .blocks()
        .find(|(id, _)| *id == target)
        .map(|(_, b)| b)?;
    let mut lines: Vec<String> = Vec::with_capacity(block.insts.len() + 1);
    for inst in &block.insts {
        lines.push(format!("{inst}"));
    }
    let label = lines.join("\\l");
    Some(format!(
        "digraph blame {{\n  node [shape=box, fontname=\"monospace\"];\n  \
         \"{target}\" [label=\"{target}:\\l{label}\\l\", color=red];\n}}\n"
    ))
}

/// One crash-consistency violation: the injection schedule that produced
/// it, what went wrong, and the recovery metadata to blame.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Golden-trace step index of the first injection.
    pub window: u64,
    /// The full injection schedule (first offset is from reset).
    pub schedule: Vec<PlannedInjection>,
    /// What the post-recovery run produced.
    pub outcome: Outcome,
    /// Recovery metadata at the final injection point.
    pub blame: Blame,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} — {}",
            schedule_to_string(&self.schedule),
            self.outcome,
            self.blame
        )
    }
}

/// A minimized violation: the shortest / earliest schedule the shrinker
/// could confirm still violates.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The shrunk schedule.
    pub schedule: Vec<PlannedInjection>,
    /// The outcome the shrunk schedule reproduces.
    pub outcome: Outcome,
    /// Blame at the shrunk schedule's final injection.
    pub blame: Blame,
    /// Replays the shrinker spent.
    pub replays: u64,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} — {} ({} replays)",
            schedule_to_string(&self.schedule),
            self.outcome,
            self.blame,
            self.replays
        )
    }
}

/// Deterministic exploration counters for one (app, scheme) pair (or one
/// work-item chunk, before merging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckStats {
    /// Failure windows enumerated.
    pub windows: u64,
    /// Forks taken (snapshots explored, primary and nested).
    pub forks: u64,
    /// Explorations run to completion (memo misses).
    pub explored: u64,
    /// Explorations answered by the state-hash memo table.
    pub memo_hits: u64,
    /// Simulation steps executed during exploration (the deterministic
    /// work measure the fork-vs-cold bench compares).
    pub steps: u64,
    /// Violations found.
    pub violations: u64,
}

impl CheckStats {
    /// Folds another stats block into this one.
    pub fn absorb(&mut self, other: &CheckStats) {
        self.windows += other.windows;
        self.forks += other.forks;
        self.explored += other.explored;
        self.memo_hits += other.memo_hits;
        self.steps += other.steps;
        self.violations += other.violations;
    }

    /// Fraction of forks answered from the memo table.
    pub fn memo_hit_rate(&self) -> f64 {
        if self.forks == 0 {
            0.0
        } else {
            self.memo_hits as f64 / self.forks as f64
        }
    }
}

/// The verdict for one (app, scheme) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairReport {
    /// Application name.
    pub app: String,
    /// Scheme checked.
    pub scheme: SchemeKind,
    /// Steps of the failure-free golden trace.
    pub golden_steps: u64,
    /// Exploration depth used.
    pub depth: u32,
    /// Merged exploration counters.
    pub stats: CheckStats,
    /// Every violation found, in window order.
    pub violations: Vec<Violation>,
    /// The shrunk first violation, when any was found and shrinking ran.
    pub counterexample: Option<Counterexample>,
}

impl PairReport {
    /// Whether the pair passed exhaustively (no violations).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Flattens the report into a JSON-serializable row.
    pub fn to_row(&self) -> VerdictRow {
        VerdictRow {
            app: self.app.clone(),
            scheme: self.scheme.name().to_string(),
            golden_steps: self.golden_steps,
            depth: self.depth as u64,
            windows: self.stats.windows,
            forks: self.stats.forks,
            explored: self.stats.explored,
            memo_hits: self.stats.memo_hits,
            steps: self.stats.steps,
            violations: self.stats.violations,
            shrunk_len: self
                .counterexample
                .as_ref()
                .map_or(0, |c| c.schedule.len() as u64),
            counterexample: self
                .counterexample
                .as_ref()
                .map(|c| format!("{c}"))
                .unwrap_or_default(),
        }
    }
}

/// A flat, JSON-lines-friendly projection of a [`PairReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictRow {
    /// Application name.
    pub app: String,
    /// Scheme name.
    pub scheme: String,
    /// Golden-trace length in steps.
    pub golden_steps: u64,
    /// Exploration depth.
    pub depth: u64,
    /// Windows enumerated.
    pub windows: u64,
    /// Forks taken.
    pub forks: u64,
    /// Memo misses explored in full.
    pub explored: u64,
    /// Memo hits.
    pub memo_hits: u64,
    /// Exploration steps executed.
    pub steps: u64,
    /// Violations found.
    pub violations: u64,
    /// Length of the shrunk counterexample schedule (0 when clean).
    pub shrunk_len: u64,
    /// Rendered counterexample ("" when clean).
    pub counterexample: String,
}

gecko_sim::impl_record!(VerdictRow {
    app,
    scheme,
    golden_steps,
    depth,
    windows,
    forks,
    explored,
    memo_hits,
    steps,
    violations,
    shrunk_len,
    counterexample,
});
