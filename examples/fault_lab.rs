//! An EM instruction-fault lab: fire skip-fault pulses at a running
//! device, watch the coupling physics decide which pulses arm, then turn
//! the crash-consistency checker loose on the fault-tolerance question —
//! does a skipped instruction plus a power failure break recovery?
//!
//! Output: a pulse table (effective power, armed?, skips, forward
//! progress), then the checker's verdict per scheme with the shrunk
//! counterexample and its blame for the scheme that breaks.
//!
//! ```sh
//! cargo run --release --example fault_lab
//! ```

use gecko_suite::check::{
    check_compiled, golden_steps, schedule_to_string, shrink_schedule, war_counter_app,
    ExploreConfig,
};
use gecko_suite::compiler::CompileOptions;
use gecko_suite::emi::attack::DpiPoint;
use gecko_suite::emi::{
    EmiSignal, FaultModel, FaultSchedule, Injection, TimedFault, FAULT_POWER_THRESHOLD_W,
};
use gecko_suite::sim::device::CompiledApp;
use gecko_suite::sim::{SchemeKind, SimConfig, Simulator};

/// One pulse configuration to try against the device.
struct Pulse {
    label: &'static str,
    injection: Injection,
    power_dbm: f64,
}

fn main() {
    // ----- part 1: the gating physics --------------------------------
    // The same 27 MHz skip pulse through three coupling paths. Only
    // paths that land ≥ 0.5 W on the core arm anything; the rest are
    // physically present but architecturally silent.
    let app = gecko_suite::apps::app_by_name("bitcnt").expect("bundled app");
    let pulses = [
        Pulse {
            label: "DPI probe @ P2",
            injection: Injection::Dpi(DpiPoint::P2),
            power_dbm: 35.0,
        },
        Pulse {
            label: "remote, 1 m",
            injection: Injection::Remote { distance_m: 1.0 },
            power_dbm: 35.0,
        },
        Pulse {
            label: "remote, 10 m",
            injection: Injection::Remote { distance_m: 10.0 },
            power_dbm: 35.0,
        },
    ];

    let run = |fault: FaultSchedule| {
        let cfg = SimConfig::bench_supply(SchemeKind::Gecko).with_fault(fault);
        let mut sim = Simulator::new(&app, cfg).expect("simulator");
        let metrics = sim.run_for(0.05);
        (metrics, sim.state_hash())
    };
    let (clean, clean_hash) = run(FaultSchedule::none());

    println!("victim: bitcnt under GECKO   (skip pulses, 27 MHz, 35 dBm, 2–5 ms bursts)");
    println!("arming threshold: {FAULT_POWER_THRESHOLD_W} W effective at the core\n");
    println!("pulse            eff. power  armed  skips  forward cycles");
    println!(
        "  (none)                  -      -      0  {:>14}",
        clean.forward_cycles
    );
    for pulse in &pulses {
        let signal = EmiSignal::new(27e6, pulse.power_dbm);
        let window = TimedFault {
            start_s: 0.0,
            end_s: 1.0,
            signal,
            injection: pulse.injection,
            model: FaultModel::Skip,
        };
        let schedule = FaultSchedule::bursts(
            signal,
            pulse.injection,
            FaultModel::Skip,
            &[0.002, 0.021, 0.040],
            0.003,
        );
        let (metrics, hash) = run(schedule);
        println!(
            "{:<16} {:>8.3} W  {:>5} {:>6}  {:>14}",
            pulse.label,
            window.effective_power_w(),
            if window.is_armed() { "yes" } else { "no" },
            metrics.fault_skips,
            metrics.forward_cycles,
        );
        if !window.is_armed() {
            // A disarmed pulse must be behaviorally invisible.
            assert_eq!(metrics, clean, "disarmed pulse perturbed the run");
            assert_eq!(hash, clean_hash, "disarmed pulse perturbed device state");
        } else {
            assert!(metrics.fault_skips > 0, "armed pulse never fired");
        }
    }

    // ----- part 2: fault + crash vs the recovery protocols -----------
    // Depth-2 exploration: inject a skip fault at a golden window, then a
    // power failure, and judge recovery against the faulted-continuous
    // reference (DESIGN.md §16).
    let cfg = ExploreConfig {
        depth: 2,
        refail_horizon: 10,
        ..ExploreConfig::default()
    }
    .with_fault_windows(true)
    .with_max_windows(120);
    let app = war_counter_app(6);

    println!("\nchecker: skip fault + power failure on war_counter(6), depth 2");
    for scheme in [SchemeKind::Ratchet, SchemeKind::Gecko] {
        let compiled =
            CompiledApp::build(&app, scheme, &CompileOptions::default()).expect("compiles");
        let report = check_compiled(&compiled, &cfg).expect("explores");
        let fault_violation = report
            .violations
            .iter()
            .find(|v| v.schedule.iter().any(|p| p.kind.is_em_fault()));
        match fault_violation {
            None => {
                assert!(
                    report.is_clean(),
                    "non-fault violation on {}",
                    scheme.name()
                );
                println!(
                    "  {:<8} clean — recovery faithful to the faulted reference",
                    scheme.name()
                );
            }
            Some(violation) => {
                let golden = golden_steps(&compiled, cfg.seed).expect("golden run");
                let shrunk = shrink_schedule(&compiled, &cfg, &violation.schedule, golden, 400);
                println!(
                    "  {:<8} BROKEN by {}",
                    scheme.name(),
                    schedule_to_string(&shrunk.schedule)
                );
                println!("           blame: {}", shrunk.blame.detail);
                assert_eq!(scheme, SchemeKind::Ratchet, "only Ratchet should break");
            }
        }
    }
    println!("\nGECKO invalidates before committing, so a skipped store can only");
    println!("lose the tail of a region — the rollback replays it. Ratchet's");
    println!("in-place commit trusts every store already retired: one skipped");
    println!("instruction leaves a committed region the faulted run never made.");
}
