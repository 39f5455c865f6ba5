//! Differential proof that event-horizon active stepping is
//! *observationally invisible*: batched ON-state spans must produce
//! bit-identical trajectories to the per-instruction reference — same
//! [`gecko_sim::Metrics`], same logical state hash, same simulated time
//! and capacitor voltage down to the last bit — across the scheme grid of
//! the paper's fig. 4 workload, under attack and no-attack schedules,
//! with `run_capped` slices and snapshot forks landing strictly inside
//! would-be spans. Companion to `tests/fast_path.rs`, which proves the
//! same property for predecoded dispatch and hibernation fast-forward.

use gecko_emi::attack::DpiPoint;
use gecko_emi::{AttackSchedule, EmiSignal, Injection, MonitorKind};
use gecko_sim::{ExecMode, SchemeKind, SimConfig, Simulator};

fn quick() -> bool {
    std::env::var_os("GECKO_QUICK").is_some()
}

fn window_s() -> f64 {
    if quick() {
        0.02
    } else {
        0.05
    }
}

/// Forces a simulator onto the exact reference path: interpreted
/// dispatch, no hibernation coalescing, no event-horizon batching.
fn make_exact(sim: &mut Simulator) {
    sim.set_exec_mode(ExecMode::Interpreted);
    sim.set_fast_forward(false);
    sim.set_event_horizon(false);
}

/// Asserts two simulators are on bit-identical trajectories, plus the
/// fast-path step-accounting invariant on both.
fn assert_equivalent(fast: &Simulator, exact: &Simulator, label: &str) {
    assert_eq!(
        fast.metrics, exact.metrics,
        "{label}: metrics diverged (fast vs exact)"
    );
    assert_eq!(
        fast.state_hash(),
        exact.state_hash(),
        "{label}: logical state hash diverged"
    );
    assert_eq!(
        fast.time_s().to_bits(),
        exact.time_s().to_bits(),
        "{label}: simulated time diverged: {} vs {}",
        fast.time_s(),
        exact.time_s()
    );
    assert_eq!(
        fast.voltage_v().to_bits(),
        exact.voltage_v().to_bits(),
        "{label}: capacitor voltage diverged: {} vs {}",
        fast.voltage_v(),
        exact.voltage_v()
    );
    for sim in [fast, exact] {
        let s = sim.fast_path_stats();
        assert_eq!(
            s.steps,
            s.dispatches + s.ff_ticks + s.eh_insts,
            "{label}: step accounting: {s:?}"
        );
    }
}

/// The fig. 4 workload shape: bench supply, the victim app, the paper's
/// board model, and a direct-power-injection attack schedule.
fn fig4_config(scheme: SchemeKind, attack: AttackSchedule) -> SimConfig {
    SimConfig::bench_supply(scheme).with_attack(attack)
}

fn fig4_attacks() -> Vec<(&'static str, AttackSchedule)> {
    let sig = EmiSignal::new(27e6, 20.0);
    let inj = Injection::Dpi(DpiPoint::P2);
    vec![
        ("clean", AttackSchedule::none()),
        ("continuous", AttackSchedule::continuous(sig, inj)),
        (
            "bursts",
            AttackSchedule::bursts(sig, inj, &[0.004, 0.017, 0.031], 0.003),
        ),
    ]
}

#[test]
fn fig4_grid_is_bit_identical_to_reference() {
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    for scheme in SchemeKind::all() {
        for (label, attack) in fig4_attacks() {
            let mut fast = Simulator::new(&app, fig4_config(scheme, attack.clone())).unwrap();
            let mut exact = Simulator::new(&app, fig4_config(scheme, attack)).unwrap();
            make_exact(&mut exact);
            fast.run_for(window_s());
            exact.run_for(window_s());
            let tag = format!("fig4/{}/{label}", scheme.name());
            assert_equivalent(&fast, &exact, &tag);
            if label == "clean" {
                let s = fast.fast_path_stats();
                assert!(
                    s.eh_insts > 0 && s.eh_spans > 0,
                    "{tag}: clean bench-supply execution must coalesce: {s:?}"
                );
            }
        }
    }
}

#[test]
fn comparator_monitor_cells_match_reference() {
    // The comparator path skips provably-no-op evaluations instead of
    // replaying them; prove that across clean and burst-attacked cells.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let sig = EmiSignal::new(27e6, 20.0);
    let inj = Injection::Dpi(DpiPoint::P2);
    for scheme in [SchemeKind::Nvp, SchemeKind::Gecko] {
        for (label, attack) in [
            ("clean", AttackSchedule::none()),
            (
                "bursts",
                AttackSchedule::bursts(sig, inj, &[0.006, 0.021], 0.004),
            ),
        ] {
            let build = || {
                let mut cfg = fig4_config(scheme, attack.clone());
                cfg.monitor = MonitorKind::Comparator;
                cfg
            };
            let mut fast = Simulator::new(&app, build()).unwrap();
            let mut exact = Simulator::new(&app, build()).unwrap();
            make_exact(&mut exact);
            fast.run_for(window_s());
            exact.run_for(window_s());
            assert_equivalent(
                &fast,
                &exact,
                &format!("comparator/{}/{label}", scheme.name()),
            );
        }
    }
}

#[test]
fn harvesting_duty_cycle_is_bit_identical() {
    // The duty-cycling regime: active spans drain to V_backup, the device
    // checkpoints and hibernates, recharges, resumes — both coalescers
    // hand off to each other and to the exact paths around every edge.
    let app = gecko_apps::app_by_name("crc16").unwrap();
    for scheme in SchemeKind::all() {
        let build = || SimConfig::harvesting(scheme);
        let mut fast = Simulator::new(&app, build()).unwrap();
        let mut exact = Simulator::new(&app, build()).unwrap();
        make_exact(&mut exact);
        let w = if quick() { 0.2 } else { 0.6 };
        fast.run_for(w);
        exact.run_for(w);
        assert_equivalent(&fast, &exact, &format!("harvesting/{}", scheme.name()));
    }
}

#[test]
fn run_capped_slices_inside_active_spans_are_exact() {
    // Slice boundaries land mid-span: an uncapped reference walk vs a
    // chain of deliberately awkward run_capped slices. The slices must
    // split batched active spans without observable effect.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    for scheme in [SchemeKind::Nvp, SchemeKind::Gecko] {
        let mut whole = Simulator::new(&app, fig4_config(scheme, AttackSchedule::none())).unwrap();
        let mut sliced = Simulator::new(&app, fig4_config(scheme, AttackSchedule::none())).unwrap();
        let t_end = window_s();
        whole.run_for(t_end);
        let mut slice = 1u64;
        while sliced.time_s() < t_end {
            sliced.run_capped(t_end, u64::MAX, slice);
            slice = (slice * 7 + 3) % 997 + 1; // awkward, deterministic
        }
        assert_eq!(
            whole.metrics,
            sliced.metrics,
            "{}: sliced run",
            scheme.name()
        );
        assert_eq!(whole.state_hash(), sliced.state_hash());
        assert_eq!(whole.time_s().to_bits(), sliced.time_s().to_bits());
    }
}

#[test]
fn snapshot_fork_inside_active_span_resumes_identically() {
    // Fork in the middle of what the batched walk would coalesce: land
    // there by step count, snapshot, diverge (drop the fork), restore,
    // and resume — the resumed trajectory must be bit-identical to never
    // having forked, and to the per-step reference.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let build = || fig4_config(SchemeKind::Gecko, AttackSchedule::none());

    let mut straight = Simulator::new(&app, build()).unwrap();
    straight.run_steps(40_000);

    let mut forked = Simulator::new(&app, build()).unwrap();
    forked.run_steps(17_123); // lands strictly inside an active span
    let snap = forked.snapshot();
    forked.run_steps(5_000); // the fork's divergent excursion
    forked.restore(&snap);
    forked.run_steps(40_000 - 17_123);

    assert_eq!(straight.metrics, forked.metrics, "fork-resume metrics");
    assert_eq!(straight.state_hash(), forked.state_hash());
    assert_eq!(straight.time_s().to_bits(), forked.time_s().to_bits());

    let mut exact = Simulator::new(&app, build()).unwrap();
    make_exact(&mut exact);
    exact.run_steps(40_000);
    assert_eq!(straight.metrics, exact.metrics, "vs per-step reference");
    assert_eq!(straight.state_hash(), exact.state_hash());
}

#[test]
fn spoofed_pulse_strictly_inside_coalesced_segment_matches_reference() {
    // Regression for the EMI interaction: a short spoofing pulse whose
    // window falls strictly inside what would otherwise be one coalesced
    // active segment. The batch must stop at the window edge, hand the
    // pulse to the exact path (where it spoofs the checkpoint signal),
    // and resume — with the identical trace a per-step walk produces.
    let app = gecko_apps::app_by_name("bitcnt").unwrap();
    let sig = EmiSignal::new(27e6, 35.0);
    let inj = Injection::Dpi(DpiPoint::P2);
    for scheme in SchemeKind::all() {
        let attack = AttackSchedule::bursts(sig, inj, &[0.0101], 0.0012);
        let build = || fig4_config(scheme, attack.clone());
        let mut fast = Simulator::new(&app, build()).unwrap();
        let mut exact = Simulator::new(&app, build()).unwrap();
        make_exact(&mut exact);
        fast.run_for(0.025);
        exact.run_for(0.025);
        let tag = format!("pulse/{}", scheme.name());
        assert_equivalent(&fast, &exact, &tag);
        let s = fast.fast_path_stats();
        assert!(
            s.eh_spans > 0,
            "{tag}: segments before/after the pulse must coalesce: {s:?}"
        );
        // Ratchet's compiler-placed checkpoints never consult the voltage
        // monitor, so a spoofed reading is (correctly) a no-op there; every
        // JIT-protocol scheme must visibly react to the pulse.
        if scheme != SchemeKind::Ratchet {
            assert!(
                fast.metrics.jit_checkpoints > 0 || fast.metrics.attack_detections > 0,
                "{tag}: the pulse must actually bite (spoofed checkpoint or detection)"
            );
        }
    }
}
