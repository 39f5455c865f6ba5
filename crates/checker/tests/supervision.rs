//! Supervision inherited from `gecko_fleet`: checker chunks that panic
//! are quarantined (sibling chunks' violations survive bit-exactly and
//! still shrink), and a killed checker campaign resumes from its journal
//! bit-exactly — blame context included, rebuilt by deterministic replay.

use std::sync::Arc;

use gecko_check::{
    war_counter_app, CheckCampaign, CheckError, CheckSpec, ExploreConfig, MemoStore,
};
use gecko_fleet::{ChaosSpec, Journal, MemorySink, RunFailure, SupervisorSpec};
use gecko_sim::SchemeKind;

/// One violating pair (NVP, items 0..6) and one clean pair (GECKO,
/// items 6..12), six 8-window chunks each.
fn spec() -> CheckSpec {
    CheckSpec::new("supervised-check")
        .apps([war_counter_app(6)])
        .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
        .explore(ExploreConfig {
            depth: 2,
            power_failure_windows: false, // EMI windows only: fast + violating
            refail_horizon: 12,
            max_windows: Some(48),
            ..ExploreConfig::default()
        })
        .chunk_windows(8) // several chunks per pair: real interleaving
}

#[test]
fn chunk_panics_quarantine_and_sibling_violations_still_shrink() {
    let clean = CheckCampaign::new(spec()).workers(2).run().unwrap();
    assert_eq!(clean.counters.items, 12);
    assert!(!clean.results[0].violations.is_empty(), "NVP must violate");
    assert!(clean.results[1].is_clean(), "GECKO must stay clean");
    assert!(clean.failures.is_empty(), "no chaos: no failures");

    // Chaos seed 9 deterministically panics exactly the NVP chunks for
    // windows 24..32 (item 3) and 40..48 (item 5); the chunk run keys
    // are content-addressed, so this only shifts if the spec does.
    let chaos = ChaosSpec {
        seed: 9,
        panic_per_mille: 200,
        ..ChaosSpec::off()
    };
    let report = CheckCampaign::new(spec())
        .chaos(chaos)
        .workers(2)
        .run()
        .unwrap();

    // Each injected panic appears exactly once, as a structured failure.
    assert_eq!(report.failures.len(), 2);
    for (failure, expected_item) in report.failures.iter().zip([3usize, 5]) {
        match failure {
            RunFailure::Panicked { item, payload, .. } => {
                assert_eq!(*item, expected_item);
                assert!(payload.contains("chaos: injected panic"), "{payload}");
            }
            other => panic!("expected a quarantined panic, got {other:?}"),
        }
    }
    assert_eq!(report.counters.failures, 2);
    assert!(
        !report.is_clean(),
        "quarantined chunks void the exhaustiveness claim"
    );

    // Sibling chunks' violations survive bit-exactly: exactly the two
    // quarantined windows ranges are missing, nothing else moved.
    let expected: Vec<_> = clean.results[0]
        .violations
        .iter()
        .filter(|v| !((24..32).contains(&v.window) || (40..48).contains(&v.window)))
        .cloned()
        .collect();
    assert!(expected.len() < clean.results[0].violations.len());
    assert!(!expected.is_empty());
    assert_eq!(report.results[0].violations, expected);

    // The first violation lives in an unaffected chunk, so the
    // counterexample still shrinks — to the same minimal schedule.
    assert_eq!(
        report.results[0].counterexample, clean.results[0].counterexample,
        "counterexamples from sibling chunks still shrink"
    );

    // The clean pair ran entirely outside the blast radius.
    assert_eq!(report.results[1], clean.results[1]);

    // Chaos is keyed on (seed, chunk run key): the whole report, failures
    // included, is worker-count-invariant.
    let solo = CheckCampaign::new(spec())
        .chaos(chaos)
        .workers(1)
        .run()
        .unwrap();
    assert_eq!(solo.failures, report.failures);
    assert_eq!(solo.results, report.results);
    assert_eq!(solo.deterministic_digest(), report.deterministic_digest());
}

#[test]
fn killed_check_campaigns_resume_bit_exactly() {
    let reference = CheckCampaign::new(spec()).workers(2).run().unwrap();

    for workers in [1usize, 4] {
        let journal = Arc::new(Journal::memory());
        let partial = CheckCampaign::new(spec())
            .workers(workers)
            .journal(Arc::clone(&journal))
            .halt_after(4)
            .run()
            .unwrap();
        assert!(partial.halted, "the kill switch must fire");

        let resumed = CheckCampaign::new(spec())
            .workers(workers)
            .resume(Arc::clone(&journal))
            .run()
            .unwrap();
        assert!(!resumed.halted);
        assert!(resumed.counters.resumed >= 4);
        // Bit-exact merge, including the replay-rebuilt blame context on
        // every journaled violation.
        assert_eq!(resumed.results, reference.results);
        assert_eq!(resumed.totals, reference.totals);
        assert_eq!(resumed.counters.violations, reference.counters.violations);
        assert_eq!(
            resumed.deterministic_digest(),
            reference.deterministic_digest(),
            "workers={workers}"
        );
    }
}

#[test]
fn check_journals_from_a_different_spec_are_rejected() {
    let journal = Arc::new(Journal::memory());
    CheckCampaign::new(spec())
        .journal(Arc::clone(&journal))
        .halt_after(2)
        .run()
        .unwrap();
    let different = spec().chunk_windows(16); // different chunk grid
    let err = CheckCampaign::new(different)
        .resume(journal)
        .run()
        .unwrap_err();
    match err {
        CheckError::Journal(msg) => {
            assert!(msg.contains("fingerprint"), "unhelpful message: {msg}")
        }
        other => panic!("expected a journal rejection, got {other}"),
    }
}

/// A chunk that finishes past its wall deadline is reported `TimedOut`,
/// so it must not be journaled or memoized as done: resuming the same
/// journal with the same memo store attached (as every served incremental
/// check is) has to reproduce the failures (and the digest).
#[test]
fn chunks_rejected_by_the_deadline_are_not_journaled() {
    // 8-window chunks never reach a periodic memo flush (every 32
    // windows); 32-window chunks reach one only at their last window,
    // which must not stand in for the complete slab; 64-window chunks
    // flush a partial slab at 32 that does resume the rerun.
    for (chunk, windows, memo_windows) in [(8, 48, 0), (32, 64, 0), (64, 64, 2 * 32)] {
        deadline_rejected_chunks_rerun_on_resume(chunk, windows, memo_windows);
    }
}

/// A zero deadline: every chunk finishes, then fails the post-hoc
/// deadline check. A resume with the same journal and memo store fails
/// the same chunks with the same digest, restoring only `memo_windows`
/// windows of partial slabs.
fn deadline_rejected_chunks_rerun_on_resume(chunk: u64, windows: u64, memo_windows: u64) {
    let spec = || {
        spec()
            .explore(ExploreConfig {
                depth: 2,
                power_failure_windows: false,
                refail_horizon: 12,
                max_windows: Some(windows),
                ..ExploreConfig::default()
            })
            .chunk_windows(chunk)
    };
    let chunks = 2 * windows.div_ceil(chunk) as usize;
    let sup = SupervisorSpec {
        max_wall_ms: Some(0),
        ..SupervisorSpec::default()
    };
    let dir = std::env::temp_dir().join(format!(
        "gecko-check-deadline-{}-{chunk}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let memo = Arc::new(MemoStore::open(&dir).unwrap());
    let journal = Arc::new(Journal::memory());
    let first = CheckCampaign::new(spec())
        .supervisor(sup)
        .journal(Arc::clone(&journal))
        .memo(Arc::clone(&memo))
        .run()
        .unwrap();
    assert_eq!(first.failures.len(), chunks, "{chunk}-window chunks");
    assert!(first
        .failures
        .iter()
        .all(|f| matches!(f, RunFailure::TimedOut { .. })));
    let resumed = CheckCampaign::new(spec())
        .supervisor(sup)
        .resume(journal)
        .memo(memo)
        .run()
        .unwrap();
    assert_eq!(resumed.counters.resumed, 0, "nothing was accepted");
    assert_eq!(
        resumed.counters.memo_windows, memo_windows,
        "{chunk}-window chunks: only partial slabs restore"
    );
    // Same failed runs (wall-clock fields aside), same digest.
    let failed = |failures: &[RunFailure]| -> Vec<_> {
        failures
            .iter()
            .map(|f| (f.kind(), f.item(), f.run_key()))
            .collect()
    };
    assert_eq!(failed(&resumed.failures), failed(&first.failures));
    assert_eq!(resumed.deterministic_digest(), first.deterministic_digest());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_kill_switch_flipped_before_run_executes_nothing_and_resumes_bit_exactly() {
    let reference = CheckCampaign::new(spec()).workers(2).run().unwrap();
    let journal = Arc::new(Journal::memory());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let killed = CheckCampaign::new(spec())
        .workers(2)
        .journal(Arc::clone(&journal))
        .kill_switch(stop)
        .run()
        .unwrap();
    assert!(killed.halted);
    assert!(killed.failures.is_empty());
    assert_eq!(killed.totals.windows, 0, "no chunk executed");
    let resumed = CheckCampaign::new(spec())
        .workers(2)
        .resume(journal)
        .run()
        .unwrap();
    assert!(!resumed.halted);
    assert_eq!(resumed.counters.resumed, 0);
    assert_eq!(resumed.results, reference.results);
    assert_eq!(
        resumed.deterministic_digest(),
        reference.deterministic_digest()
    );
}

#[test]
fn sink_write_failures_degrade_to_one_counted_failure() {
    let chaos = ChaosSpec {
        seed: 3,
        sink_fail_per_mille: 400,
        ..ChaosSpec::off()
    };
    let run = |workers| {
        CheckCampaign::new(spec())
            .chaos(chaos)
            .workers(workers)
            .sink(Arc::new(MemorySink::new()))
            .run()
            .unwrap()
    };
    let a = run(1);
    let b = run(4);
    assert!(a.counters.dropped_records > 0, "chaos must drop something");
    let sink_failures = a
        .failures
        .iter()
        .filter(|f| matches!(f, RunFailure::SinkDropped { .. }))
        .count();
    assert_eq!(sink_failures, 1, "one summary failure, not a flood");
    assert_eq!(a.failures.len(), 1, "no chunk was harmed");
    assert_eq!(a.counters.failures, 0, "SinkDropped is not a run failure");
    // Drops are keyed on the record sequence number, so the count (and
    // with it the digest) is worker-count-invariant.
    assert_eq!(a.counters.dropped_records, b.counters.dropped_records);
    assert_eq!(a.deterministic_digest(), b.deterministic_digest());
    let clean = CheckCampaign::new(spec()).run().unwrap();
    assert_eq!(a.results, clean.results);
}
