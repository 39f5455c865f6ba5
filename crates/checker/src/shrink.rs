//! Counterexample shrinking: minimize a violating injection schedule by
//! replay.
//!
//! The shrinker works on the schedule alone — each candidate is replayed
//! from reset on a fresh simulator, so a shrunk counterexample is
//! self-contained and reproducible without any exploration state. Two
//! passes repeat to a fixed point under a replay budget:
//!
//! 1. **Subset pass** — drop one injection at a time (folding its offset
//!    into its successor so later injections keep their absolute
//!    positions). A schedule that still violates with an injection removed
//!    never needed it.
//! 2. **Offset pass** — lower each injection's offset toward zero with the
//!    QuickCheck-style candidates `0`, `o/2`, `o-1`, keeping the earliest
//!    offset that still violates.
//!
//! Schedules containing EM instruction faults are judged against the
//! *faulted-continuous reference*: the replay of the schedule's leading
//! run of fault injections alone (see DESIGN.md §16). Lowering a fault's
//! offset moves the reference with it, so the reference is recomputed per
//! candidate; those replays count toward the replay budget.

use gecko_sim::device::CompiledApp;

use crate::explore::{advance_qualifying, checker_sim, explore_budget, outcome_of, ExploreConfig};
use crate::verdict::{Blame, CheckStats, Counterexample, Outcome, PlannedInjection};

/// Replays an injection schedule from reset and returns the outcome plus
/// the blame context at the final injection. A schedule whose injection
/// points are unreachable (the run completes first) is vacuously clean.
pub fn replay(
    compiled: &CompiledApp,
    cfg: &ExploreConfig,
    schedule: &[PlannedInjection],
    golden: u64,
) -> (Outcome, Blame) {
    let budget = explore_budget(golden);
    let mut sim = checker_sim(compiled, cfg.seed, cfg.fast_forward);
    let mut stats = CheckStats::default();
    let mut blame = Blame::capture(&sim, compiled);
    let mut fault_site: Option<String> = None;
    for inj in schedule {
        if !advance_qualifying(&mut sim, inj.kind, inj.after_steps, budget, &mut stats) {
            return (Outcome::Clean, blame);
        }
        inj.kind.inject(&mut sim);
        // Carry the most recent EM fault's site into later blames so a
        // fault-then-crash schedule still names the faulted region.
        blame = if inj.kind.is_em_fault() {
            let site = Blame::fault_site(&sim, compiled, inj.kind);
            let mut b = Blame::capture(&sim, compiled);
            b.detail = format!("{site}; {}", b.detail);
            fault_site = Some(site);
            b
        } else {
            let mut b = Blame::capture(&sim, compiled);
            if let Some(site) = &fault_site {
                b.detail = format!("{site}; then {}", b.detail);
            }
            b
        };
    }
    // Drain to the next completion through `run_capped` — the same
    // coalescing seam as exploration, with bit-identical step counts.
    let mut total = 0u64;
    loop {
        if total >= budget {
            return (Outcome::Stuck, blame);
        }
        total += sim.run_capped(f64::INFINITY, 1, budget - total);
        if sim.metrics.completions >= 1 {
            return (outcome_of(&sim, compiled), blame);
        }
    }
}

/// Shrinks a violating schedule to a minimal one, replaying at most
/// `max_replays` candidates. The input schedule must violate (the caller
/// found it by exploration); the result is confirmed by replay.
pub fn shrink_schedule(
    compiled: &CompiledApp,
    cfg: &ExploreConfig,
    schedule: &[PlannedInjection],
    golden: u64,
    max_replays: u64,
) -> Counterexample {
    let mut best = schedule.to_vec();
    let mut replays = 0u64;

    // Whether `outcome` (from replaying `candidate`) violates, judged
    // against the faulted-continuous reference: the replay of the
    // candidate's leading run of EM fault injections alone. Fault kinds
    // are generated primary-only, so that prefix is exact. With no faults
    // the reference is the golden run and this degenerates to the classic
    // any-corruption-violates oracle.
    let violates = |candidate: &[PlannedInjection], outcome: Outcome, replays: &mut u64| -> bool {
        match outcome {
            Outcome::Stuck => true,
            Outcome::Clean => false,
            Outcome::Corrupt { .. } => {
                let prefix: Vec<PlannedInjection> = candidate
                    .iter()
                    .copied()
                    .take_while(|p| p.kind.is_em_fault())
                    .collect();
                if prefix.is_empty() {
                    return true;
                }
                if prefix.len() == candidate.len() {
                    // The outcome *is* the reference.
                    return false;
                }
                if *replays >= max_replays {
                    // Budget exhausted mid-judgement: conservatively keep
                    // the previous best rather than accept unjudged.
                    return false;
                }
                *replays += 1;
                let (reference, _) = replay(compiled, cfg, &prefix, golden);
                outcome != reference
            }
        }
    };

    let (mut best_outcome, mut best_blame) = replay(compiled, cfg, &best, golden);
    replays += 1;
    let input_violates = violates(&best, best_outcome, &mut replays);
    debug_assert!(input_violates, "shrinker fed a non-violating schedule");
    let _ = input_violates;

    let try_candidate =
        |candidate: &[PlannedInjection], replays: &mut u64| -> Option<(Outcome, Blame)> {
            if *replays >= max_replays {
                return None;
            }
            *replays += 1;
            let (outcome, blame) = replay(compiled, cfg, candidate, golden);
            violates(candidate, outcome, replays).then_some((outcome, blame))
        };

    let mut improved = true;
    while improved && replays < max_replays {
        improved = false;
        // Subset pass: drop injections.
        if best.len() > 1 {
            let mut i = 0;
            while i < best.len() && best.len() > 1 {
                let mut candidate = best.clone();
                let removed = candidate.remove(i);
                if i < candidate.len() {
                    candidate[i].after_steps += removed.after_steps;
                }
                if let Some((o, b)) = try_candidate(&candidate, &mut replays) {
                    best = candidate;
                    best_outcome = o;
                    best_blame = b;
                    improved = true;
                    // Retry the same index: the successor moved into it.
                } else {
                    i += 1;
                }
            }
        }
        // Offset pass: lower each offset toward zero.
        for i in 0..best.len() {
            loop {
                let current = best[i].after_steps;
                if current == 0 {
                    break;
                }
                let candidates = [0, current / 2, current - 1];
                let mut lowered = false;
                for &c in &candidates {
                    if c >= current {
                        continue;
                    }
                    let mut candidate = best.clone();
                    candidate[i].after_steps = c;
                    if let Some((o, b)) = try_candidate(&candidate, &mut replays) {
                        best = candidate;
                        best_outcome = o;
                        best_blame = b;
                        improved = true;
                        lowered = true;
                        break;
                    }
                }
                if !lowered || replays >= max_replays {
                    break;
                }
            }
        }
    }

    Counterexample {
        schedule: best,
        outcome: best_outcome,
        blame: best_blame,
        replays,
    }
}
