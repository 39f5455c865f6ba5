//! End-to-end EM instruction-fault checking: with
//! [`ExploreConfig::fault_windows`] the explorer injects skip/corrupt
//! faults at every golden window and judges fault-then-crash nestings
//! against the faulted-continuous reference (DESIGN.md §16).
//!
//! The headline result this pins: a skipped instruction followed by a
//! power failure breaks Ratchet's rollback transparency on the WAR
//! counter (the recovery diverges from what the faulted-but-uncrashed
//! run computes), while GECKO's invalidate-then-commit protocol keeps
//! recovery faithful to the faulted reference — the checker verifies it
//! clean. The counterexample shrinks to the essential
//! fault + re-failure pair and its blame names the faulted region.

use gecko_check::{
    check_app, check_compiled, golden_steps, replay, schedule_to_string, shrink_schedule,
    war_counter_app, CheckCampaign, CheckSpec, ExploreConfig, InjectionKind,
};
use gecko_compiler::CompileOptions;
use gecko_sim::SchemeKind;

fn fault_cfg() -> ExploreConfig {
    ExploreConfig {
        depth: 2,
        refail_horizon: 10,
        ..ExploreConfig::default()
    }
    .with_fault_windows(true)
    .with_max_windows(120)
}

#[test]
fn fault_alone_never_violates_at_depth_one() {
    // Depth 1 judges a fault against itself: the faulted-continuous run
    // *is* the reference, so only a livelock could violate. No scheme
    // wedges on a single skipped or corrupted instruction in blink.
    let app = gecko_apps::app_by_name("blink").unwrap();
    for scheme in SchemeKind::all() {
        let cfg = ExploreConfig::default()
            .with_fault_windows(true)
            .with_max_windows(120);
        let report = check_app(&app, scheme, &CompileOptions::default(), &cfg).unwrap();
        assert!(
            report.is_clean(),
            "{}: {:?}",
            scheme.name(),
            report.violations.first()
        );
    }
}

#[test]
fn skip_fault_plus_refailure_breaks_ratchet_but_not_gecko() {
    let app = war_counter_app(6);
    let ratchet = check_app(
        &app,
        SchemeKind::Ratchet,
        &CompileOptions::default(),
        &fault_cfg(),
    )
    .unwrap();
    let fault_violation = ratchet
        .violations
        .iter()
        .find(|v| v.schedule.iter().any(|p| p.kind.is_em_fault()))
        .expect("Ratchet must lose rollback transparency under a skip fault");
    assert!(
        fault_violation
            .schedule
            .iter()
            .any(|p| p.kind == InjectionKind::InstructionSkip
                || p.kind == InjectionKind::InstructionCorrupt),
        "{}",
        schedule_to_string(&fault_violation.schedule)
    );
    assert!(
        fault_violation.blame.detail.contains("EM "),
        "blame must name the fault site: {}",
        fault_violation.blame.detail
    );

    let gecko = check_app(
        &app,
        SchemeKind::Gecko,
        &CompileOptions::default(),
        &fault_cfg(),
    )
    .unwrap();
    assert!(
        gecko.is_clean(),
        "GECKO recovery must stay faithful to the faulted reference: {:?}",
        gecko.violations.first()
    );
}

#[test]
fn fault_counterexample_shrinks_to_the_essential_pair() {
    let app = war_counter_app(6);
    let compiled = gecko_sim::device::CompiledApp::build(
        &app,
        SchemeKind::Ratchet,
        &CompileOptions::default(),
    )
    .unwrap();
    let cfg = fault_cfg();
    let golden = golden_steps(&compiled, cfg.seed).unwrap();
    let report = check_compiled(&compiled, &cfg).unwrap();
    let violation = report
        .violations
        .iter()
        .find(|v| v.schedule.iter().any(|p| p.kind.is_em_fault()))
        .expect("Ratchet skip-fault violation");

    let shrunk = shrink_schedule(&compiled, &cfg, &violation.schedule, golden, 400);
    assert!(shrunk.outcome.is_violation());
    assert!(shrunk.schedule.len() <= violation.schedule.len());
    assert_eq!(
        shrunk.schedule.len(),
        2,
        "the essential counterexample is fault + re-failure: {}",
        schedule_to_string(&shrunk.schedule)
    );
    assert!(
        shrunk.schedule[0].kind.is_em_fault(),
        "{}",
        schedule_to_string(&shrunk.schedule)
    );
    assert!(
        shrunk.blame.detail.contains("EM ") && shrunk.blame.detail.contains("region"),
        "shrunk blame must name the faulted region: {}",
        shrunk.blame.detail
    );
    // The shrunk schedule is self-contained: a fresh replay reproduces it.
    let (confirm, _) = replay(&compiled, &cfg, &shrunk.schedule, golden);
    assert_eq!(confirm, shrunk.outcome, "shrunk schedule replays");
}

#[test]
fn fault_campaign_digest_is_worker_invariant() {
    let spec = || {
        CheckSpec::new("fault-digest")
            .app_names(&["blink"])
            .unwrap()
            .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
            .explore(
                ExploreConfig::default()
                    .with_fault_windows(true)
                    .with_max_windows(60),
            )
            .chunk_windows(16)
    };
    let solo = CheckCampaign::new(spec()).workers(1).run().unwrap();
    let fleet = CheckCampaign::new(spec()).workers(5).run().unwrap();
    assert_eq!(
        solo.deterministic_digest(),
        fleet.deterministic_digest(),
        "fault-window digests must be worker-count invariant"
    );
}
