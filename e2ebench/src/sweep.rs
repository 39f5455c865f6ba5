//! `attack_sweep` and `harvest_sweep`: `gecko-fleet` campaigns over
//! bundled apps × all four schemes, timed end to end through
//! `Campaign::run`, checked against direct and per-step reference runs.

use crate::common::{
    gate, median, nproc, Args, HostClock, Latencies, Mismatch, Outcome, Scratch, SETUP_REPS,
};
use crate::probes;
use crate::sink::{item_spans, pool_shape, TimingSink};
use crate::trace::Tracer;
use gecko_emi::attack::DpiPoint;
use gecko_emi::{AttackSchedule, EmiSignal, Injection, MonitorKind};
use gecko_energy::VoltageThresholds;
use gecko_fleet::{
    classify_campaign_lines, AttackCase, Campaign, CampaignReport, CampaignSpec, CapacitorSpec,
    DeviceCase, Journal, Supply, WorkItem, Workload,
};
use gecko_isa::SplitMix64;
use gecko_sim::device::CompiledApp;
use gecko_sim::{ExecMode, FastPathStats, Metrics, SchemeKind, Simulator};
use gecko_store::LogConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Which sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Continuous EMI attacks on the bench supply, plus control cells.
    Attack,
    /// Unattacked harvesting with a tens-of-µF buffer, journaled to disk.
    Harvest,
}

/// The bundled apps both sweeps run.
const APPS: [&str; 2] = ["bitcnt", "crc16"];
/// Items re-run on the per-step reference path by the gate.
const REFERENCE_SAMPLES: usize = 4;
/// Share of each round's wall time spent on warm resumes after it.
const WARM_SHARE: f64 = 0.1;
/// Latency samples needed for a p90 with ten samples above it.
const MIN_SAMPLES: usize = 100;

fn journal_cfg() -> LogConfig {
    LogConfig {
        max_segment_bytes: 16 * 1024,
    }
}

/// The sweep's campaign, generated from `seed`. The seed draws attack
/// frequencies and powers inside narrow bands (so each attack stays in its
/// regime and the work per run stays comparable across seeds), the harvest
/// power and buffer size within ±2%, and the peripheral seeds.
pub fn make_spec(kind: Kind, seed: u64) -> CampaignSpec {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_5EEB);
    match kind {
        Kind::Attack => {
            let mut attack = |label: &str, injection: Injection, power_dbm: (f64, f64)| {
                let freq = rng.range_f64(8e6, 12e6);
                let power = rng.range_f64(power_dbm.0, power_dbm.1);
                AttackCase::new(
                    format!("{label}@{:.3}MHz/{:.2}dBm", freq / 1e6, power),
                    AttackSchedule::continuous(EmiSignal::new(freq, power), injection),
                )
            };
            let attacks = vec![
                AttackCase::none(),
                // Strong broadband injection: the monitor reads brown-out,
                // the device checkpoints and is held down (denial of service).
                attack("dpi-p2-dos", Injection::Dpi(DpiPoint::P2), (28.0, 32.0)),
                // Sub-threshold attacks: the device keeps running with the
                // disturbance on every monitor read.
                attack("dpi-p2", Injection::Dpi(DpiPoint::P2), (5.0, 10.0)),
                attack("dpi-p1", Injection::Dpi(DpiPoint::P1), (15.0, 25.0)),
                attack(
                    "remote",
                    Injection::Remote { distance_m: 1.0 },
                    (15.0, 25.0),
                ),
            ];
            let seeds = [rng.range_u64(1, 1 << 20)];
            CampaignSpec::new("attack_sweep")
                .apps(APPS)
                .schemes(SchemeKind::all())
                .attacks(attacks)
                .seeds(seeds)
                .supply(Supply::Bench)
                .workload(Workload::RunFor { seconds: 0.05 })
        }
        Kind::Harvest => {
            let power_w = rng.range_f64(1.18e-3, 1.22e-3);
            let capacitance_f = rng.range_f64(21.5e-6, 22.5e-6);
            let seeds: Vec<u64> = (0..2).map(|_| rng.range_u64(1, 1 << 20)).collect();
            CampaignSpec::new("harvest_sweep")
                .apps(APPS)
                .schemes(SchemeKind::all())
                .seeds(seeds)
                .supply(Supply::Harvesting { power_w })
                .capacitor(CapacitorSpec {
                    capacitance_f,
                    initial_voltage_v: 0.0,
                    rescale_thresholds: false,
                })
                .workload(Workload::RunFor { seconds: 0.5 })
        }
    }
}

type Artifacts = BTreeMap<(usize, usize), CompiledApp>;

/// Set-up: generate the spec, compile every (app, scheme) artifact, open
/// the on-disk journal store.
fn setup(
    kind: Kind,
    seed: u64,
    scratch: &Scratch,
    tracer: &Tracer,
    parent: u64,
    build_ms: &mut Vec<f64>,
) -> Result<(CampaignSpec, Artifacts), String> {
    let spec = make_spec(kind, seed);
    let mut compiled = Artifacts::new();
    for (ai, name) in spec.apps.iter().enumerate() {
        let app = gecko_apps::app_by_name(name).ok_or(format!("unknown app {name}"))?;
        for (si, scheme) in spec.schemes.iter().enumerate() {
            let t = Instant::now();
            let artifact = tracer
                .span("compiler.build", parent, 0, |_| {
                    CompiledApp::build(&app, *scheme, &spec.compile)
                })
                .map_err(|e| format!("compiling {name} for {scheme}: {e:?}"))?;
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            compiled.insert((ai, si), artifact);
        }
    }
    tracer.span("store.open", parent, 0, |_| {
        Journal::open_segmented(&scratch.dir("setup-journal"), journal_cfg())
            .map_err(|e| format!("opening journal: {e}"))
    })?;
    Ok((spec, compiled))
}

/// What a timed phase measured.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    /// Simulated device-s per host s of each round, host-adjusted.
    round_rates: Vec<f64>,
    /// The same, unadjusted.
    raw_rates: Vec<f64>,
    /// Items restored per host s of each resume, host-adjusted.
    warm_rates: Vec<f64>,
    latencies: Latencies,
    attempted: u64,
    failed: u64,
    retries: u64,
    digests: Vec<u64>,
    last: Option<CampaignReport>,
    last_journal: PathBuf,
    waits_ms: Vec<f64>,
    busy_s: f64,
    capacity_s: f64,
}

/// Runs whole campaign rounds, each journaled to a fresh on-disk store,
/// until `seconds` have passed and enough latency samples exist. After
/// each round it resumes that round's complete journal a few times (the
/// warm op) and repeats the set-up once, so all three measurements sample
/// the host across the whole phase.
#[allow(clippy::too_many_arguments)]
fn phase(
    spec: &CampaignSpec,
    workers: usize,
    seconds: f64,
    scratch: &Scratch,
    tag: &str,
    sink: Option<&Arc<TimingSink>>,
    tracer: &Tracer,
    parent: u64,
    setup_rep: &mut dyn FnMut(f64) -> Result<(), String>,
    clock: &mut HostClock,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let items = spec.expand().len() as u64;
    let started = Instant::now();
    let mut round = 0u64;
    while round < 2 || started.elapsed().as_secs_f64() < seconds || p.latencies.len() < MIN_SAMPLES
    {
        let dir = scratch.dir(&format!("{tag}-round-{round}"));
        let span = tracer.reserve();
        let t0 = Instant::now();
        let journal = Journal::open_segmented(&dir, journal_cfg())
            .map_err(|e| format!("opening journal: {e}"))?;
        let mut campaign = Campaign::new(spec.clone())
            .workers(workers)
            .journal(Arc::new(journal));
        if let Some(sink) = sink {
            campaign = campaign.sink(Arc::clone(sink) as _);
        }
        let report = campaign.run().map_err(|e| format!("campaign: {e}"))?;
        let t1 = Instant::now();
        let wall = (t1 - t0).as_secs_f64();
        tracer.record(span, "fleet.campaign", parent, round, t0, t1);
        let factor = clock.factor();
        if let Some(sink) = sink {
            let spans = item_spans(&sink.drain());
            for s in &spans {
                tracer.record(0, "sim.item", span, s.item, s.start, s.end);
            }
            let (waits, busy) = pool_shape(&spans, t0);
            p.waits_ms.extend(waits);
            p.busy_s += busy;
            p.capacity_s += wall * report.workers as f64;
        }
        p.wall_s += wall;
        p.attempted += items;
        let mut sim_s = 0.0;
        for r in &report.results {
            sim_s += r.metrics.sim_time_s;
            p.latencies.push(r.wall_ns as f64 / 1e6 / factor);
        }
        p.raw_rates.push(sim_s / wall);
        p.round_rates.push(sim_s / wall * factor);
        let item_failures = report
            .failures
            .iter()
            .filter(|f| f.item().is_some())
            .count();
        for _ in 0..item_failures {
            p.latencies.push(f64::INFINITY);
        }
        p.failed += report.failures.len() as u64;
        p.retries += report.counters.retries;
        p.digests.push(report.deterministic_digest());

        // Warm: resume the round's complete on-disk journal.
        let mut warm_wall = 0.0;
        while warm_wall < wall * WARM_SHARE || warm_wall == 0.0 {
            let t0 = Instant::now();
            let journal = Journal::open_segmented(&dir, journal_cfg())
                .map_err(|e| format!("reopening journal: {e}"))?;
            let resumed = Campaign::new(spec.clone())
                .workers(workers)
                .resume(Arc::new(journal))
                .run()
                .map_err(|e| format!("resume: {e}"))?;
            let t1 = Instant::now();
            tracer.record(0, "fleet.resume", parent, round, t0, t1);
            warm_wall += (t1 - t0).as_secs_f64();
            p.warm_rates
                .push(resumed.counters.resumed as f64 / (t1 - t0).as_secs_f64() * factor);
            p.attempted += items;
            p.failed += items.saturating_sub(resumed.counters.resumed);
            p.digests.push(resumed.deterministic_digest());
        }
        setup_rep(factor)?;

        if round > 0 {
            let _ = std::fs::remove_dir_all(&p.last_journal);
        }
        p.last_journal = dir;
        p.last = Some(report);
        round += 1;
    }
    Ok(p)
}

/// One item run directly (`CampaignSpec::config_for` + `run_for`).
struct Direct {
    metrics: Metrics,
    stats: FastPathStats,
    state_hash: u64,
    wall_ns: u64,
    attacked: bool,
}

fn run_direct(
    spec: &CampaignSpec,
    compiled: &Artifacts,
    item: &WorkItem,
    reference: bool,
) -> Simulator {
    let artifact = &compiled[&(item.app_idx, item.scheme_idx)];
    let mut sim = Simulator::from_compiled(artifact, spec.config_for(item));
    if reference {
        sim.set_exec_mode(ExecMode::Interpreted);
        sim.set_fast_forward(false);
        sim.set_event_horizon(false);
    }
    sim.run_for(spec.workload_seconds());
    sim
}

/// Runs every item directly on `workers` threads.
fn direct_all(spec: &CampaignSpec, compiled: &Artifacts, workers: usize) -> Vec<Direct> {
    let items = spec.expand();
    let chunk = items.len().div_ceil(workers.max(1));
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|item| {
                            let t = Instant::now();
                            let sim = run_direct(spec, compiled, item, false);
                            let wall_ns = t.elapsed().as_nanos() as u64;
                            Direct {
                                metrics: sim.metrics,
                                stats: sim.fast_path_stats(),
                                state_hash: sim.state_hash(),
                                wall_ns,
                                attacked: !spec.attacks[item.attack_idx].schedule.is_empty(),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("direct-run thread panicked"))
            .collect()
    })
}

/// The correctness gate: every round and every warm resume merged to one
/// digest; every campaign item equals its direct run; seeded sample items
/// equal the per-step reference path in `Metrics` and `state_hash`.
fn check(
    spec: &CampaignSpec,
    compiled: &Artifacts,
    report: &CampaignReport,
    digests: &[u64],
    direct: &[Direct],
    seed: u64,
) -> Result<(), Mismatch> {
    gate(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("campaign digests differ between rounds: {digests:x?}")
    })?;
    gate(report.failures.is_empty(), || {
        format!("campaign failures: {:?}", report.failures)
    })?;
    let items = spec.expand();
    gate(report.results.len() == items.len(), || {
        format!("{} of {} items reported", report.results.len(), items.len())
    })?;
    for r in &report.results {
        let d = &direct[r.item.index];
        gate(r.metrics == d.metrics, || {
            format!(
                "item {} in the campaign differs from its direct run:\n  {:?}\n  {:?}",
                r.item.index, r.metrics, d.metrics
            )
        })?;
    }
    // Seeded sample, at least one attacked and one control cell when the
    // sweep has both.
    let mut rng = SplitMix64::new(seed ^ 0x0EF0_0EF0);
    let attacked: Vec<usize> = (0..items.len()).filter(|&i| direct[i].attacked).collect();
    let control: Vec<usize> = (0..items.len()).filter(|&i| !direct[i].attacked).collect();
    let mut sample = Vec::new();
    for pool in [&attacked, &control] {
        if !pool.is_empty() {
            sample.push(pool[rng.range_u64(0, pool.len() as u64) as usize]);
        }
    }
    while sample.len() < REFERENCE_SAMPLES.min(items.len()) {
        sample.push(rng.range_u64(0, items.len() as u64) as usize);
    }
    for i in sample {
        let reference = run_direct(spec, compiled, &items[i], true);
        gate(
            reference.metrics == direct[i].metrics
                && reference.state_hash() == direct[i].state_hash,
            || {
                format!(
                    "item {i} differs from the per-step reference path:\n  {:?}\n  {:?}",
                    direct[i].metrics, reference.metrics
                )
            },
        )?;
    }
    Ok(())
}

/// Runs one sweep workload.
pub fn run(kind: Kind, args: &Args, tracer: &Tracer, scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tracer.reserve();
    let run_start = Instant::now();
    let workers = nproc().min(2);

    // ---- set-up; repeated up front and after every round below ---------
    let mut build_ms = Vec::new();
    let setup_span = tracer.reserve();
    let setup_start = Instant::now();
    let (spec, compiled) = setup(kind, args.seed, scratch, tracer, setup_span, &mut build_ms)?;
    tracer.record(
        setup_span,
        "bench.setup",
        root,
        0,
        setup_start,
        Instant::now(),
    );
    let items = spec.expand();
    let mut clock = HostClock::new(workers);
    let mut setup_times = Vec::new();
    let mut setup_rep = |factor: f64| -> Result<(), String> {
        let t = Instant::now();
        setup(
            kind,
            args.seed,
            scratch,
            &Tracer::new(false),
            0,
            &mut Vec::new(),
        )?;
        setup_times.push(t.elapsed().as_secs_f64() / factor);
        Ok(())
    };
    for _ in 0..SETUP_REPS {
        setup_rep(clock.current())?;
    }

    // ---- timed phase(s) ----------------------------------------------
    // The traced run measures an untraced half and a traced half; their
    // throughput ratio is the tracing overhead.
    let sink = Arc::new(TimingSink::default());
    let (p, untraced_rate) = if args.trace {
        let half = args.seconds / 2.0;
        let plain = phase(
            &spec,
            workers,
            half,
            scratch,
            "plain",
            None,
            &Tracer::new(false),
            0,
            &mut setup_rep,
            &mut clock,
        )?;
        let traced = phase(
            &spec,
            workers,
            half,
            scratch,
            "traced",
            Some(&sink),
            tracer,
            root,
            &mut setup_rep,
            &mut clock,
        )?;
        let rate = median(&plain.round_rates);
        let mut digests = plain.digests;
        digests.extend(&traced.digests);
        (Phase { digests, ..traced }, Some(rate))
    } else {
        let p = phase(
            &spec,
            workers,
            args.seconds,
            scratch,
            "timed",
            None,
            tracer,
            root,
            &mut setup_rep,
            &mut clock,
        )?;
        (p, None)
    };
    let setup_s = median(&setup_times);
    out.e2e.insert("setup_s", setup_s);
    out.say(format!(
        "setup_s = {setup_s:.6} s (median of {} set-ups: spec, compile {} artifacts, open the journal store)",
        setup_times.len(),
        compiled.len()
    ));
    let report = p.last.as_ref().expect("at least one round");
    // Medians over rounds and over resumes: a neighbour's burst on this
    // host slows a few rounds, not the median one.
    let ops_per_s = median(&p.round_rates);
    out.e2e.insert("ops_per_s", ops_per_s);
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.say(format!(
        "sim_s_per_s = {ops_per_s:.4} simulated device-s per host s (ops_per_s; median of {} rounds of {} items x {} s, {:.2} s timed; unadjusted {:.4})",
        p.round_rates.len(),
        items.len(),
        spec.workload_seconds(),
        p.wall_s,
        median(&p.raw_rates)
    ));
    out.say(clock.describe());
    p.latencies.report(&mut out, "item_ms_p50", "item_ms_p90");
    let warm_rate = median(&p.warm_rates);
    out.e2e.insert("warm_ops_per_s", warm_rate);
    out.say(format!(
        "warm_items_per_s = {warm_rate:.2} items restored per host s (warm_ops_per_s; median of {} resumes of complete on-disk journals)",
        p.warm_rates.len()
    ));

    // ---- correctness gate (outside every timed region) -----------------
    let digests = &p.digests;
    let direct = tracer.span("bench.gate", root, 0, |_| {
        direct_all(&spec, &compiled, workers)
    });
    check(&spec, &compiled, report, digests, &direct, args.seed)
        .map_err(|m| format!("correctness: {}", m.0))?;
    out.say(format!(
        "correctness: {} rounds + {} resumes share digest {:016x}; all {} items equal their direct runs; {REFERENCE_SAMPLES} sampled items equal the per-step reference path",
        p.round_rates.len(),
        p.warm_rates.len(),
        digests[0],
        items.len()
    ));

    // ---- model-count ledger --------------------------------------------
    let sum = |f: &dyn Fn(&Direct) -> u64| direct.iter().map(f).sum::<u64>();
    let steps = sum(&|d| d.stats.steps);
    let dispatches = sum(&|d| d.stats.dispatches);
    let ff = sum(&|d| d.stats.ff_ticks);
    let eh = sum(&|d| d.stats.eh_insts);
    let t = &report.totals;
    out.say(format!(
        "ledger: steps={steps} dispatches={dispatches} ff_ticks={ff} eh_insts={eh} checkpoints={} checkpoint_failures={} rollbacks={} reboots={} completions={} checksum_errors={} windows=0 violations=0",
        t.jit_checkpoints, t.jit_checkpoint_failures, t.rollbacks, t.reboots, t.completions, t.checksum_errors
    ));
    out.say(format!(
        "load: campaign workers {workers} + daemon 0 + clients 0 = {workers} <= nproc {}",
        nproc()
    ));

    if args.trace {
        let att_steps = sum(&|d| if d.attacked { d.stats.steps } else { 0 });
        let att_coalesced = sum(&|d| {
            if d.attacked {
                d.stats.ff_ticks + d.stats.eh_insts
            } else {
                0
            }
        });
        let direct_ns = sum(&|d| d.wall_ns) as f64;
        let campaign_ns: f64 = report.results.iter().map(|r| r.wall_ns as f64).sum();
        let sim_s: f64 = direct.iter().map(|d| d.metrics.sim_time_s).sum();
        let c = &report.counters;
        out.layer("compiler.build_ms", probes::mean(&build_ms));
        out.layer(
            "compiler.cache_hit_ratio",
            c.compile_hits as f64 / (c.compile_hits + c.compile_misses).max(1) as f64,
        );
        out.layer("mcu.dispatches", dispatches as f64);
        out.layer("emi.attacked_share", att_steps as f64 / steps.max(1) as f64);
        out.layer("ctpl.checkpoints", t.jit_checkpoints as f64);
        out.layer("ctpl.checkpoint_failures", t.jit_checkpoint_failures as f64);
        out.layer("ctpl.reboots", t.reboots as f64);
        out.layer("sim.steps", steps as f64);
        out.layer("sim.ff_ticks", ff as f64);
        out.layer("sim.eh_insts", eh as f64);
        out.layer(
            "sim.coalesced_ratio",
            (ff + eh) as f64 / steps.max(1) as f64,
        );
        out.layer(
            "sim.attacked_coalesced_ratio",
            att_coalesced as f64 / att_steps.max(1) as f64,
        );
        out.layer("sim.rollbacks", t.rollbacks as f64);
        out.layer("sim.completions", t.completions as f64);
        out.layer("sim.ns_per_step", direct_ns / steps.max(1) as f64);
        out.layer("sim.host_ms_per_sim_s", direct_ns / 1e6 / sim_s);
        out.layer("fleet.queue_wait_ms_p50", median(&p.waits_ms));
        out.layer(
            "fleet.worker_idle_ratio",
            (1.0 - p.busy_s / p.capacity_s).max(0.0),
        );
        out.layer("fleet.overhead_ratio", campaign_ns / direct_ns);
        out.layer("fleet.failures", c.failures as f64);
        out.layer("fleet.retries", p.retries as f64);
        if let Some(rate) = untraced_rate {
            out.layer("trace.overhead_ratio", rate / ops_per_s);
        }

        let probe = tracer.reserve();
        let probe_start = Instant::now();
        let programs: Vec<&CompiledApp> = compiled.values().collect();
        probes::mcu(&mut out, tracer, probe, &programs, spec.seeds[0]);
        let cfg = spec.config_for(&items[0]);
        let thresholds: VoltageThresholds = cfg.thresholds;
        probes::energy(
            &mut out,
            tracer,
            probe,
            probes::Energy {
                capacitance_f: cfg.capacitance_f,
                thresholds,
                power_w: cfg.harvester.power_w(0.0),
                worst_step_nj: programs
                    .iter()
                    .map(|c| c.pre.worst_step().1)
                    .fold(0.0, f64::max),
            },
        );
        let board = DeviceCase::default_board();
        let amplitudes: Vec<f64> = spec
            .attacks
            .iter()
            .map(|a| {
                a.schedule.windows().first().map_or(0.0, |w| {
                    board
                        .device
                        .induced_amplitude_v(MonitorKind::Adc, &w.signal, w.injection)
                })
            })
            .collect();
        probes::emi(
            &mut out,
            tracer,
            probe,
            &amplitudes,
            (thresholds.v_on + thresholds.v_backup) / 2.0,
        );
        probes::ctpl(&mut out, tracer, probe, &programs, spec.seeds[0]);
        let item = &items[items.len() / 2];
        let mut sim = Simulator::from_compiled(
            &compiled[&(item.app_idx, item.scheme_idx)],
            spec.config_for(item),
        );
        sim.run_for(spec.workload_seconds() / 2.0);
        probes::snapshot(&mut out, tracer, probe, &mut sim);
        let lines = Journal::open_segmented(&p.last_journal, journal_cfg())
            .map_err(|e| format!("reopening journal: {e}"))?
            .lines();
        probes::store(
            &mut out,
            tracer,
            probe,
            &scratch.dir("store-probe"),
            &lines,
            classify_campaign_lines,
        )
        .map_err(|e| format!("store probe: {e}"))?;
        tracer.record(probe, "bench.probes", root, 0, probe_start, Instant::now());
    }
    tracer.record(root, "bench.workload", 0, 0, run_start, Instant::now());
    Ok(out)
}
