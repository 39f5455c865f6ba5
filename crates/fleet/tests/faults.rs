//! The EM instruction-fault axis and the energy-starvation supply: both
//! new campaign dimensions must obey the fleet's core determinism
//! guarantee (worker count changes wall-clock, never results), and their
//! physics must show up in the metrics — armed fault windows retire
//! faulted instructions, disarmed ones are bit-identical to no fault at
//! all, and a starved harvester slows the device down.

use gecko_emi::attack::DpiPoint;
use gecko_emi::fault::{FaultModel, FaultSchedule};
use gecko_emi::{EmiSignal, Injection};
use gecko_fleet::{Campaign, CampaignSpec, FaultCase, SchemeKind, Supply, Workload};

fn pulse() -> EmiSignal {
    EmiSignal::new(27e6, 35.0)
}

/// none / armed-skip / disarmed-skip fault axis over two schemes.
fn fault_spec() -> CampaignSpec {
    CampaignSpec::new("fault-axis")
        .apps(["blink", "crc16"])
        .schemes([SchemeKind::Nvp, SchemeKind::Gecko])
        .faults([
            FaultCase::none(),
            FaultCase::new(
                "skip@2ms",
                FaultSchedule::bursts(
                    pulse(),
                    Injection::Dpi(DpiPoint::P2),
                    FaultModel::Skip,
                    &[0.002],
                    0.004,
                ),
            ),
            // Same pulse from 10 m away: below the fault power threshold,
            // physically present but architecturally inert.
            FaultCase::new(
                "skip-disarmed",
                FaultSchedule::bursts(
                    pulse(),
                    Injection::Remote { distance_m: 10.0 },
                    FaultModel::Skip,
                    &[0.002],
                    0.004,
                ),
            ),
        ])
        .seeds([1])
        .workload(Workload::RunFor { seconds: 0.01 })
}

#[test]
fn fault_axis_is_worker_count_invariant() {
    let solo = Campaign::new(fault_spec()).workers(1).run().unwrap();
    let fleet = Campaign::new(fault_spec()).workers(7).run().unwrap();

    assert_eq!(solo.results.len(), 2 * 2 * 3);
    assert_eq!(
        solo.deterministic_digest(),
        fleet.deterministic_digest(),
        "worker count"
    );
}

#[test]
fn armed_faults_fire_and_disarmed_faults_are_inert() {
    let report = Campaign::new(fault_spec()).run().unwrap();
    // Items expand fault-major within each (app, scheme): none, armed,
    // disarmed consecutively.
    for triple in report.results.chunks(3) {
        let (none, armed, disarmed) = (&triple[0], &triple[1], &triple[2]);
        assert_eq!(none.metrics.fault_skips, 0);
        assert_eq!(none.metrics.fault_corruptions, 0);
        assert!(
            armed.metrics.fault_skips > 0,
            "armed window must skip instructions (item {})",
            armed.item.index
        );
        // A disarmed schedule is behaviorally FaultSchedule::none().
        assert_eq!(
            disarmed.metrics, none.metrics,
            "disarmed fault case must be bit-identical to fault-free"
        );
    }
}

#[test]
fn starved_supply_slows_the_device_and_stays_deterministic() {
    let base = |name: &str| {
        CampaignSpec::new(name)
            .apps(["blink"])
            .schemes([SchemeKind::Gecko])
            .seeds([1])
            .workload(Workload::RunFor { seconds: 0.5 })
    };
    let fed = base("fed").supply(Supply::Harvesting { power_w: 2e-3 });
    let starved = base("starved").supply(Supply::Starved {
        power_w: 2e-3,
        period_s: 0.05,
        starve_s: 0.04,
        attenuation: 0.0,
    });

    let fed_report = Campaign::new(fed).run().unwrap();
    let solo = Campaign::new(starved.clone()).workers(1).run().unwrap();
    let fleet = Campaign::new(starved).workers(4).run().unwrap();

    assert_eq!(solo.deterministic_digest(), fleet.deterministic_digest());
    assert!(
        solo.totals.forward_cycles < fed_report.totals.forward_cycles,
        "halving the energy budget must cost forward progress: {} !< {}",
        solo.totals.forward_cycles,
        fed_report.totals.forward_cycles
    );
}
