//! The supervised-campaign guarantees: chaos-injected panics quarantine
//! without losing sibling results, budgets flag runs deterministically,
//! and a campaign killed at any completed-run boundary resumes from its
//! journal bit-exactly — at any worker count.

use std::sync::Arc;

use gecko_fleet::{
    Campaign, CampaignError, CampaignReport, CampaignSpec, ChaosSpec, Journal, MemorySink,
    RunFailure, SchemeKind, SupervisorSpec, Workload,
};
use gecko_isa::rng::SplitMix64;

fn small_spec() -> CampaignSpec {
    CampaignSpec::new("supervised")
        .apps(["blink", "crc16"])
        .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
        .seeds([1, 2, 3])
        .workload(Workload::RunFor { seconds: 0.002 })
}

/// The items chaos panics under `sup`, derived purely from the chaos
/// stream — the test's independent model of `supervise_item`.
fn predicted_panics(spec: &CampaignSpec, sup: &SupervisorSpec) -> Vec<usize> {
    spec.expand()
        .iter()
        .filter(|item| sup.chaos.panics(spec.run_key(item)))
        .map(|item| item.index)
        .collect()
}

/// Picks a chaos seed that panics some runs but not all — self-validating,
/// no magic seeds.
fn seed_with_mixed_outcomes(sup_template: SupervisorSpec) -> SupervisorSpec {
    let spec = small_spec();
    let items = spec.expand().len();
    for seed in 0..256 {
        let mut sup = sup_template;
        sup.chaos.seed = seed;
        let panics = predicted_panics(&spec, &sup).len();
        if panics > 0 && panics < items {
            return sup;
        }
    }
    panic!("no chaos seed in 0..256 produced a mixed outcome");
}

#[test]
fn injected_panics_quarantine_once_and_siblings_stay_bit_exact() {
    let sup = seed_with_mixed_outcomes(SupervisorSpec {
        chaos: ChaosSpec {
            panic_per_mille: 250,
            ..ChaosSpec::off()
        },
        ..SupervisorSpec::default()
    });
    let panicked = predicted_panics(&small_spec(), &sup);
    let clean = Campaign::new(small_spec()).workers(3).run().unwrap();
    let chaotic = Campaign::new(small_spec())
        .supervisor(sup)
        .workers(3)
        .run()
        .unwrap();

    // Every predicted panic appears exactly once in `failures`...
    assert!(!panicked.is_empty(), "scenario must inject at least once");
    assert_eq!(chaotic.failures.len(), panicked.len());
    for (failure, &item) in chaotic.failures.iter().zip(&panicked) {
        match failure {
            RunFailure::Panicked {
                item: failed_item,
                payload,
                ..
            } => {
                assert_eq!(*failed_item, item);
                assert!(
                    payload.contains("chaos: injected panic"),
                    "unexpected payload: {payload}"
                );
            }
            other => panic!("expected a quarantined panic, got {other:?}"),
        }
    }
    assert_eq!(chaotic.counters.failures, panicked.len() as u64);

    // ...and every sibling result is bit-exact against the chaos-free run.
    assert_eq!(
        chaotic.results.len(),
        clean.results.len() - panicked.len(),
        "exactly the panicked runs are missing"
    );
    for r in &chaotic.results {
        let reference = &clean.results[r.item.index]; // clean has no holes
        assert_eq!(r.metrics, reference.metrics);
        assert_eq!(r.buckets, reference.buckets);
        assert_eq!(r.compile_stats, reference.compile_stats);
    }

    // Chaos is keyed on (seed, run key), so the whole report —
    // including the failure list — is worker-count-invariant.
    let solo = Campaign::new(small_spec())
        .supervisor(sup)
        .workers(1)
        .run()
        .unwrap();
    assert_eq!(solo.failures, chaotic.failures);
    assert_eq!(solo.deterministic_digest(), chaotic.deterministic_digest());
}

#[test]
fn step_budget_timeouts_are_deterministic_and_carry_partials() {
    let sup = SupervisorSpec {
        max_steps: Some(1),
        ..SupervisorSpec::default()
    };
    let run = |workers| {
        Campaign::new(small_spec())
            .supervisor(sup)
            .workers(workers)
            .run()
            .unwrap()
    };
    let a = run(1);
    let b = run(4);
    let items = small_spec().expand().len();
    assert!(a.results.is_empty(), "every run must blow a 1-step budget");
    assert_eq!(a.failures.len(), items);
    for (i, failure) in a.failures.iter().enumerate() {
        match failure {
            RunFailure::TimedOut {
                item,
                steps,
                partial,
                ..
            } => {
                assert_eq!(*item, i, "failures arrive in item order");
                assert_eq!(*steps, 1, "aborts exactly at the budget");
                assert!(partial.is_some(), "step-budget timeouts carry partials");
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }
    // The abort point is a step count, not a clock: partials and digests
    // agree across worker counts (wall_ms is excluded from the digest).
    for (fa, fb) in a.failures.iter().zip(&b.failures) {
        let (
            RunFailure::TimedOut {
                steps: sa,
                partial: pa,
                ..
            },
            RunFailure::TimedOut {
                steps: sb,
                partial: pb,
                ..
            },
        ) = (fa, fb)
        else {
            panic!("both runs must time out identically");
        };
        assert_eq!(sa, sb);
        assert_eq!(pa, pb);
    }
    assert_eq!(a.deterministic_digest(), b.deterministic_digest());
}

/// Runs `spec` to completion in `sessions` journaled sessions (each
/// killed at a deterministic completed-run boundary) and returns the
/// final report.
fn run_in_sessions(
    spec_for: impl Fn() -> CampaignSpec,
    workers: usize,
    kill_points: &[u64],
) -> CampaignReport {
    let journal = Arc::new(Journal::memory());
    for &k in kill_points {
        let partial = Campaign::new(spec_for())
            .workers(workers)
            .journal(Arc::clone(&journal))
            .halt_after(k)
            .run()
            .unwrap();
        assert!(partial.halted, "kill point {k} must actually halt");
    }
    Campaign::new(spec_for())
        .workers(workers)
        .resume(Arc::clone(&journal))
        .run()
        .unwrap()
}

#[test]
fn killed_campaigns_resume_bit_exactly_at_any_worker_count() {
    let reference = Campaign::new(small_spec()).workers(4).run().unwrap();
    let items = reference.results.len() as u64;
    let mut rng = SplitMix64::new(0xD1E0F5E55);
    for workers in [1usize, 2, 8] {
        // Kill twice at random completed-run boundaries, then finish.
        let k1 = rng.range_u64(1, items - 1);
        let k2 = rng.range_u64(1, items - k1);
        let resumed = run_in_sessions(small_spec, workers, &[k1, k2]);

        assert!(!resumed.halted);
        assert!(
            resumed.counters.resumed >= k1,
            "the first session journaled at least its halt quota"
        );
        assert_eq!(resumed.results.len(), reference.results.len());
        for (r, reference) in resumed.results.iter().zip(&reference.results) {
            assert_eq!(r.item, reference.item);
            assert_eq!(r.metrics, reference.metrics);
            assert_eq!(r.buckets, reference.buckets);
            assert_eq!(r.compile_stats, reference.compile_stats);
        }
        assert_eq!(resumed.totals, reference.totals);
        assert_eq!(
            resumed.deterministic_digest(),
            reference.deterministic_digest(),
            "workers={workers}, kills at {k1}+{k2}"
        );
    }
}

#[test]
fn resuming_a_finished_campaign_re_executes_nothing() {
    let journal = Arc::new(Journal::memory());
    let first = Campaign::new(small_spec())
        .journal(Arc::clone(&journal))
        .run()
        .unwrap();
    let again = Campaign::new(small_spec())
        .resume(Arc::clone(&journal))
        .run()
        .unwrap();
    assert_eq!(again.counters.resumed, first.results.len() as u64);
    assert_eq!(again.counters.compile_misses, 0, "nothing re-ran");
    assert_eq!(again.deterministic_digest(), first.deterministic_digest());
}

#[test]
fn journals_from_a_different_spec_are_rejected() {
    let journal = Arc::new(Journal::memory());
    Campaign::new(small_spec())
        .journal(Arc::clone(&journal))
        .run()
        .unwrap();
    let different = small_spec().seeds([99]); // a different grid
    let err = Campaign::new(different).resume(journal).run().unwrap_err();
    match err {
        CampaignError::Journal(msg) => {
            assert!(msg.contains("fingerprint"), "unhelpful message: {msg}")
        }
        other => panic!("expected a journal rejection, got {other}"),
    }
}

#[test]
fn sink_write_failures_degrade_to_one_counted_failure() {
    let chaos = ChaosSpec {
        seed: 7,
        sink_fail_per_mille: 400,
        ..ChaosSpec::off()
    };
    let run = |workers| {
        Campaign::new(small_spec())
            .chaos(chaos)
            .workers(workers)
            .sink(Arc::new(MemorySink::new()))
            .run()
            .unwrap()
    };
    let a = run(1);
    let b = run(4);
    assert!(a.counters.dropped_records > 0, "chaos must drop something");
    let sink_failures: Vec<_> = a
        .failures
        .iter()
        .filter(|f| matches!(f, RunFailure::SinkDropped { .. }))
        .collect();
    assert_eq!(sink_failures.len(), 1, "one summary failure, not a flood");
    // Drops are keyed on the record sequence number, so the count (and
    // with it the digest) is worker-count-invariant.
    assert_eq!(a.counters.dropped_records, b.counters.dropped_records);
    assert_eq!(a.deterministic_digest(), b.deterministic_digest());
    // No metric run was harmed: results match an undegraded campaign.
    let clean = Campaign::new(small_spec()).run().unwrap();
    assert_eq!(a.results.len(), clean.results.len());
    for (r, c) in a.results.iter().zip(&clean.results) {
        assert_eq!(r.metrics, c.metrics);
    }
}

/// A run that finishes past its wall deadline is reported `TimedOut`, so
/// it must not be journaled as done: resuming the same journal has to
/// reproduce the failures (and the digest) instead of restoring results
/// the first session never reported.
#[test]
fn runs_rejected_by_the_deadline_are_not_journaled() {
    let spec = || {
        CampaignSpec::new("late")
            .apps(["blink", "crc16"])
            .schemes([SchemeKind::Nvp])
            .seeds([1, 2])
            .workload(Workload::RunFor { seconds: 0.0 })
    };
    // A zero deadline: every run finishes, then fails the post-hoc
    // deadline check.
    let sup = SupervisorSpec {
        max_wall_ms: Some(0),
        ..SupervisorSpec::default()
    };
    let journal = Arc::new(Journal::memory());
    let first = Campaign::new(spec())
        .supervisor(sup)
        .journal(Arc::clone(&journal))
        .run()
        .unwrap();
    assert!(first.results.is_empty());
    assert_eq!(first.failures.len(), 4);
    assert!(first
        .failures
        .iter()
        .all(|f| matches!(f, RunFailure::TimedOut { .. })));
    let resumed = Campaign::new(spec())
        .supervisor(sup)
        .resume(journal)
        .run()
        .unwrap();
    assert_eq!(resumed.counters.resumed, 0, "nothing was accepted");
    // Same failed runs (wall-clock fields aside), same digest.
    let failed = |failures: &[RunFailure]| -> Vec<_> {
        failures
            .iter()
            .map(|f| (f.kind(), f.item(), f.run_key()))
            .collect()
    };
    assert_eq!(failed(&resumed.failures), failed(&first.failures));
    assert_eq!(resumed.deterministic_digest(), first.deterministic_digest());
}

#[test]
fn a_kill_switch_flipped_before_run_executes_nothing_and_resumes_bit_exactly() {
    let reference = Campaign::new(small_spec()).workers(2).run().unwrap();
    let journal = Arc::new(Journal::memory());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let killed = Campaign::new(small_spec())
        .workers(2)
        .journal(Arc::clone(&journal))
        .kill_switch(stop)
        .run()
        .unwrap();
    assert!(killed.halted);
    assert!(killed.results.is_empty() && killed.failures.is_empty());
    assert_eq!(killed.counters.compile_misses, 0, "no item executed");
    let resumed = Campaign::new(small_spec())
        .workers(2)
        .resume(journal)
        .run()
        .unwrap();
    assert!(!resumed.halted);
    assert_eq!(resumed.counters.resumed, 0);
    assert_eq!(
        resumed.deterministic_digest(),
        reference.deterministic_digest()
    );
}
