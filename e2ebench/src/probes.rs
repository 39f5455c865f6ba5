//! Per-layer probes for the traced run: direct, timed calls into each
//! crate's public functions, fed with the workload's own inputs (its
//! compiled programs, capacitor, thresholds, attack amplitudes, and the
//! lines its store actually wrote).

use crate::common::{ns_per_call, Outcome};
use crate::trace::Tracer;
use gecko_ctpl::JitArea;
use gecko_emi::AdcMonitor;
use gecko_energy::{next_crossing, safe_steps, Capacitor, StepProfile, VoltageThresholds};
use gecko_isa::cost::CostModel;
use gecko_mcu::{Machine, Nvm, Peripherals};
use gecko_sim::device::{CompiledApp, NVM_WORDS};
use gecko_sim::Simulator;
use gecko_store::{LogCompactor, LogConfig, Pruner, SegmentedLog, Verdict};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time budget of one probe loop.
const PROBE: Duration = Duration::from_millis(40);

/// The program's first-boot machine state: NVM holding the app's data
/// image, a reset machine, seeded peripherals.
fn boot(compiled: &CompiledApp, seed: u64) -> (Machine, Nvm, Peripherals) {
    let mut nvm = Nvm::new(NVM_WORDS);
    for (base, words) in &compiled.app.image {
        nvm.write_image(*base, words);
    }
    (
        Machine::new(compiled.program.entry()),
        nvm,
        Peripherals::new(seed),
    )
}

/// `mcu.step_ns` (`Machine::step_predecoded`) and `mcu.span_ns_per_inst`
/// (`Machine::retire_span` with an always-admit closure), averaged over
/// the workload's programs. A program that halts is rebooted in place.
pub fn mcu(out: &mut Outcome, tracer: &Tracer, parent: u64, programs: &[&CompiledApp], seed: u64) {
    let fence = NVM_WORDS - 256;
    let mut step_ns = Vec::new();
    let mut span_ns = Vec::new();
    for compiled in programs {
        let entry = compiled.program.entry();
        tracer.span("mcu.step_predecoded", parent, 0, |_| {
            let (mut m, mut nvm, mut periph) = boot(compiled, seed);
            step_ns.push(ns_per_call(PROBE, |_| {
                if m.is_halted() {
                    m = Machine::new(entry);
                }
                black_box(m.step_predecoded(&compiled.pre, &mut nvm, &mut periph));
            }));
        });
        tracer.span("mcu.retire_span", parent, 0, |_| {
            let (mut m, mut nvm, mut periph) = boot(compiled, seed);
            let mut retired = 0u64;
            let started = Instant::now();
            while started.elapsed() < PROBE {
                for _ in 0..64 {
                    if m.is_halted() {
                        m = Machine::new(entry);
                    }
                    let n =
                        m.retire_span(&compiled.pre, &mut nvm, &mut periph, 4096, fence, |_, _| {
                            true
                        });
                    if n == 0 {
                        // A span-ending entry (boundary, checkpoint, halt or
                        // runtime-area store) runs through the per-step path.
                        black_box(m.step_predecoded(&compiled.pre, &mut nvm, &mut periph));
                        retired += 1;
                    }
                    retired += n;
                }
            }
            span_ns.push(started.elapsed().as_nanos() as f64 / retired.max(1) as f64);
        });
    }
    out.layer("mcu.step_ns", mean(&step_ns));
    out.layer("mcu.span_ns_per_inst", mean(&span_ns));
}

/// The workload's physical energy parameters.
#[derive(Debug, Clone, Copy)]
pub struct Energy {
    /// Buffer capacitance (F).
    pub capacitance_f: f64,
    /// Threshold ladder.
    pub thresholds: VoltageThresholds,
    /// Harvested power (W).
    pub power_w: f64,
    /// Worst per-instruction energy of the workload's programs (nJ).
    pub worst_step_nj: f64,
}

/// `energy.safe_steps_ns`, `energy.next_crossing_ns` (`gecko_energy::segment`)
/// and `energy.charge_ns` (`Capacitor::charge` + `discharge_j`), over
/// starting voltages spread across the workload's ON band.
pub fn energy(out: &mut Outcome, tracer: &Tracer, parent: u64, e: Energy) {
    let th = e.thresholds;
    let joules = |v: f64| 0.5 * e.capacitance_f * v * v;
    let floor = joules(th.v_backup);
    let e_at = |i: u64| joules(th.v_backup + (th.v_max - th.v_backup) * ((i % 97) as f64 / 97.0));
    let step_s = CostModel::default().cycles_to_seconds(1);
    let worst_j = e.worst_step_nj * 1e-9;
    let profile = StepProfile::new(e.power_w * step_s, worst_j);
    let safe = tracer.span("energy.safe_steps", parent, 0, |_| {
        ns_per_call(PROBE, |i| {
            black_box(safe_steps(black_box(e_at(i)), floor, worst_j));
        })
    });
    let crossing = tracer.span("energy.next_crossing", parent, 0, |_| {
        ns_per_call(PROBE, |i| {
            black_box(next_crossing(black_box(e_at(i)), floor, &profile));
        })
    });
    let charge = tracer.span("energy.capacitor", parent, 0, |_| {
        let mut cap = Capacitor::new(e.capacitance_f, th.v_on);
        ns_per_call(PROBE, |i| {
            cap.charge(black_box(e.power_w), step_s, th.v_max);
            if !cap.discharge_j(black_box(worst_j)) || i % 4096 == 0 {
                cap.set_voltage(th.v_on);
            }
        })
    });
    out.layer("energy.safe_steps_ns", safe);
    out.layer("energy.next_crossing_ns", crossing);
    out.layer("energy.charge_ns", charge);
}

/// `emi.adc_read_ns`: `AdcMonitor::read` with the workload's disturbance
/// amplitudes (0 V for unattacked cells), polled at the instruction rate.
pub fn emi(out: &mut Outcome, tracer: &Tracer, parent: u64, amplitudes_v: &[f64], v_true: f64) {
    let amps: Vec<f64> = if amplitudes_v.is_empty() {
        vec![0.0]
    } else {
        amplitudes_v.to_vec()
    };
    let step_s = CostModel::default().cycles_to_seconds(1);
    let ns = tracer.span("emi.adc_read", parent, 0, |_| {
        let mut adc = AdcMonitor::default();
        ns_per_call(PROBE, |i| {
            let amp = amps[(i / 1024) as usize % amps.len()];
            black_box(adc.read(black_box(v_true), amp, i as f64 * step_s));
        })
    });
    out.layer("emi.adc_read_ns", ns);
}

/// `ctpl.checkpoint_us`: `JitArea::begin_checkpoint` plus `write_next`
/// until done, of register states taken from the workload's programs.
pub fn ctpl(out: &mut Outcome, tracer: &Tracer, parent: u64, programs: &[&CompiledApp], seed: u64) {
    let mut us = Vec::new();
    for compiled in programs {
        let (mut m, mut nvm, mut periph) = boot(compiled, seed);
        for _ in 0..1000 {
            if m.is_halted() {
                break;
            }
            m.step_predecoded(&compiled.pre, &mut nvm, &mut periph);
        }
        let area = JitArea::new(NVM_WORDS - 64);
        let regs = m.regs().snapshot();
        let pc = m.pc();
        us.push(tracer.span("ctpl.checkpoint", parent, 0, |_| {
            ns_per_call(PROBE, |_| {
                let mut writer = area.begin_checkpoint(black_box(regs), pc, &mut nvm);
                while !writer.write_next(&mut nvm) {}
            }) / 1e3
        }));
    }
    out.layer("ctpl.checkpoint_us", mean(&us));
}

/// `sim.snapshot_us`, `sim.restore_us`, `sim.state_hash_us` on a
/// simulator positioned inside one of the workload's runs.
pub fn snapshot(out: &mut Outcome, tracer: &Tracer, parent: u64, sim: &mut Simulator) {
    let snap = sim.snapshot();
    let take = tracer.span("sim.snapshot", parent, 0, |_| {
        ns_per_call(PROBE, |_| {
            black_box(sim.snapshot());
        })
    });
    let restore = tracer.span("sim.restore", parent, 0, |_| {
        ns_per_call(PROBE, |_| sim.restore(black_box(&snap)))
    });
    let hash = tracer.span("sim.state_hash", parent, 0, |_| {
        ns_per_call(PROBE, |_| {
            black_box(sim.state_hash());
        })
    });
    out.layer("sim.snapshot_us", take / 1e3);
    out.layer("sim.restore_us", restore / 1e3);
    out.layer("sim.state_hash_us", hash / 1e3);
}

/// Store probe: replays `lines` (lines the workload's own store wrote)
/// through `SegmentedLog::append`, `sync`, `open` + `lines`, and a
/// `Pruner` tick over a `LogCompactor` holding the lines twice.
pub fn store(
    out: &mut Outcome,
    tracer: &Tracer,
    parent: u64,
    dir: &Path,
    lines: &[String],
    classify: fn(&[String]) -> Vec<Verdict>,
) -> std::io::Result<()> {
    if lines.is_empty() {
        return Ok(());
    }
    let cfg = LogConfig {
        max_segment_bytes: 64 * 1024,
    };
    let n = lines.len() as f64;
    let log_dir = dir.join("append");
    let log = SegmentedLog::open(&log_dir, cfg)?;
    let append = tracer.span("store.append", parent, 0, |_| {
        let t = Instant::now();
        for line in lines {
            log.append(line);
        }
        t.elapsed().as_nanos() as f64 / n
    });
    let sync = tracer.span("store.sync", parent, 0, |_| {
        let t = Instant::now();
        log.sync().map(|()| t.elapsed().as_secs_f64() * 1e3)
    })?;
    out.layer("store.bytes_written", log.total_bytes() as f64);
    drop(log);
    let read = tracer.span("store.open_read", parent, 0, |_| {
        let t = Instant::now();
        SegmentedLog::open(&log_dir, cfg).map(|l| (l.lines(), t.elapsed().as_nanos() as f64 / n))
    })?;
    if read.0 != lines {
        return Err(std::io::Error::other(
            "store probe read back different lines",
        ));
    }
    let prune = tracer.span("store.prune", parent, 0, |_| -> std::io::Result<f64> {
        let log = Arc::new(SegmentedLog::open(&dir.join("prune"), cfg)?);
        for line in lines.iter().chain(lines) {
            log.append(line);
        }
        log.seal()?;
        let mut pruner = Pruner::open(&dir.join("prune.json"), 0)?;
        pruner.add(LogCompactor::new("bench", log, classify));
        let t = Instant::now();
        pruner
            .tick()
            .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        Ok(t.elapsed().as_nanos() as f64 / (2.0 * n))
    })?;
    out.layer("store.append_ns", append);
    out.layer("store.sync_ms", sync);
    out.layer("store.open_read_ns_per_line", read.1);
    out.layer("store.prune_ns_per_line", prune);
    Ok(())
}

/// Mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
