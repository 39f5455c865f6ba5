//! `check_recheck`: a depth-2 `gecko-check` campaign with EM fault
//! windows, run cold into a fresh `MemoStore`, then warm from the
//! reopened store.

use crate::common::{
    gate, median, nproc, Args, HostClock, Latencies, Outcome, Scratch, SETUP_REPS,
};
use crate::probes;
use crate::sink::{chunk_spans, pool_shape, TimingSink};
use crate::trace::Tracer;
use gecko_check::{
    check_compiled, classify_memo_lines, golden_steps, shrink_schedule, war_counter_app,
    CheckCampaign, CheckReport, CheckSpec, ExploreConfig, MemoStore,
};
use gecko_energy::VoltageThresholds;
use gecko_isa::SplitMix64;
use gecko_sim::device::CompiledApp;
use gecko_sim::{SchemeKind, SimConfig, Simulator};
use std::sync::Arc;
use std::time::Instant;

/// Warm re-checks per cold check.
const WARM_PER_COLD: usize = 3;
/// Latency samples needed for a p90 with ten samples above it.
const MIN_SAMPLES: usize = 100;

/// The check campaign, generated from `seed`: the exploration (sensor)
/// seed comes from it. The grid is fixed so the work per run stays
/// comparable across seeds.
pub fn make_spec(seed: u64) -> CheckSpec {
    let mut rng = SplitMix64::new(seed ^ 0xC4EC_C4EC);
    let explore = ExploreConfig {
        refail_horizon: 4,
        seed: rng.range_u64(1, 1 << 20),
        ..ExploreConfig::default()
            .with_depth(2)
            .with_fault_windows(true)
            .with_max_windows(24)
    };
    CheckSpec::new("check_recheck")
        .apps([war_counter_app(6)])
        .app_names(&["crc16"])
        .expect("crc16 is bundled")
        .schemes(SchemeKind::all())
        .explore(explore)
        .chunk_windows(4)
}

/// Set-up: generate the spec, compile every (app, scheme) pair, open a
/// fresh memo store.
fn setup(
    seed: u64,
    scratch: &Scratch,
    tracer: &Tracer,
    parent: u64,
    build_ms: &mut Vec<f64>,
) -> Result<(CheckSpec, Vec<CompiledApp>), String> {
    let spec = make_spec(seed);
    let mut pairs = Vec::new();
    for app in &spec.apps {
        for &scheme in &spec.schemes {
            let t = Instant::now();
            let compiled = tracer
                .span("compiler.build", parent, 0, |_| {
                    CompiledApp::build(app, scheme, &spec.compile)
                })
                .map_err(|e| format!("compiling {} for {scheme}: {e:?}", app.name))?;
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            pairs.push(compiled);
        }
    }
    tracer.span("store.open", parent, 0, |_| {
        MemoStore::open(&scratch.dir("setup-memo")).map_err(|e| format!("memo store: {e}"))
    })?;
    Ok((spec, pairs))
}

/// One cold or warm campaign run.
fn check_run(
    spec: &CheckSpec,
    workers: usize,
    store: &std::path::Path,
    sink: &Arc<TimingSink>,
) -> Result<(CheckReport, Instant, Instant), String> {
    let t0 = Instant::now();
    let memo = MemoStore::open(store).map_err(|e| format!("opening memo store: {e}"))?;
    let report = CheckCampaign::new(spec.clone())
        .workers(workers)
        .memo(Arc::new(memo))
        .sink(Arc::clone(sink) as _)
        .run()
        .map_err(|e| format!("check campaign: {e:?}"))?;
    Ok((report, t0, Instant::now()))
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer, scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tracer.reserve();
    let run_start = Instant::now();
    let workers = nproc().min(2);

    // ---- set-up: spec, compiled pairs, a fresh memo store ---------------
    // Repeated up front and after every round below.
    let mut build_ms = Vec::new();
    let setup_span = tracer.reserve();
    let setup_start = Instant::now();
    let (spec, pairs) = setup(args.seed, scratch, tracer, setup_span, &mut build_ms)?;
    tracer.record(
        setup_span,
        "bench.setup",
        root,
        0,
        setup_start,
        Instant::now(),
    );
    let mut clock = HostClock::new(workers);
    let mut setup_times = Vec::new();
    let mut setup_rep = |factor: f64| -> Result<(), String> {
        let t = Instant::now();
        setup(args.seed, scratch, &Tracer::new(false), 0, &mut Vec::new())?;
        setup_times.push(t.elapsed().as_secs_f64() / factor);
        Ok(())
    };
    for _ in 0..SETUP_REPS {
        setup_rep(clock.current())?;
    }

    // ---- timed rounds: one cold check, then warm re-checks ----------------
    let sink = Arc::new(TimingSink::default());
    let mut cold_wall = 0.0;
    let mut cold_rates = Vec::new();
    let mut raw_rates = Vec::new();
    let mut warm_wall = 0.0;
    let mut warm_rates = Vec::new();
    let mut latencies = Latencies::default();
    let mut digests = Vec::new();
    let mut waits = Vec::new();
    let mut busy = 0.0;
    let mut capacity = 0.0;
    let mut cold_report = None;
    let mut warm_report = None;
    let mut memo_lines = Vec::new();
    let started = Instant::now();
    let mut round = 0u64;
    while round < 2
        || started.elapsed().as_secs_f64() < args.seconds
        || latencies.len() < MIN_SAMPLES
    {
        let dir = scratch.dir(&format!("memo-{round}"));
        sink.drain();
        let (cold, t0, t1) = check_run(&spec, workers, &dir, &sink)?;
        let span = tracer.record(0, "check.cold", root, round, t0, t1);
        let factor = clock.factor();
        let chunks = chunk_spans(&sink.drain(), t0);
        for c in &chunks {
            tracer.record(0, "check.chunk", span, c.item, c.start, c.end);
        }
        let (w, b) = pool_shape(&chunks, t0);
        waits.extend(w);
        busy += b;
        capacity += (t1 - t0).as_secs_f64() * cold.workers as f64;
        for c in &chunks {
            latencies.push((c.end - c.start).as_secs_f64() * 1e3 / factor);
        }
        let failed_chunks = cold.failures.len() as u64;
        for _ in 0..failed_chunks {
            latencies.push(f64::INFINITY);
        }
        out.attempted += chunks.len() as u64 + failed_chunks;
        out.failed += failed_chunks + cold.halted as u64;
        cold_wall += (t1 - t0).as_secs_f64();
        raw_rates.push(cold.totals.windows as f64 / (t1 - t0).as_secs_f64());
        cold_rates.push(cold.totals.windows as f64 / (t1 - t0).as_secs_f64() * factor);
        digests.push(cold.deterministic_digest());
        for _ in 0..WARM_PER_COLD {
            let (warm, t0, t1) = check_run(&spec, workers, &dir, &sink)?;
            sink.drain();
            tracer.record(0, "check.warm", root, round, t0, t1);
            warm_wall += (t1 - t0).as_secs_f64();
            warm_rates.push(warm.totals.windows as f64 / (t1 - t0).as_secs_f64() * factor);
            out.attempted += 1;
            out.failed += (!warm.failures.is_empty() || warm.halted) as u64;
            digests.push(warm.deterministic_digest());
            warm_report = Some(warm);
        }
        if tracer.enabled() && memo_lines.is_empty() {
            memo_lines = MemoStore::open(&dir)
                .map_err(|e| format!("reopening memo store: {e}"))?
                .log()
                .lines();
        }
        let _ = std::fs::remove_dir_all(&dir);
        setup_rep(factor)?;
        cold_report = Some(cold);
        round += 1;
    }
    let setup_s = median(&setup_times);
    out.e2e.insert("setup_s", setup_s);
    out.say(format!(
        "setup_s = {setup_s:.6} s (median of {} set-ups: spec, compile {} pairs, open a fresh memo store)",
        setup_times.len(),
        pairs.len()
    ));
    let cold = cold_report.expect("at least one round");
    let warm = warm_report.expect("at least one warm run");
    // Medians over runs: a neighbour's burst on this host slows a few
    // runs, not the median one.
    let rate = median(&cold_rates);
    let warm_rate = median(&warm_rates);
    out.e2e.insert("ops_per_s", rate);
    out.e2e.insert("warm_ops_per_s", warm_rate);
    out.say(format!(
        "windows_per_s = {rate:.3} cold windows checked per host s (ops_per_s; median of {round} cold checks of {} windows, {cold_wall:.2} s; unadjusted {:.3})",
        cold.totals.windows,
        median(&raw_rates)
    ));
    out.say(clock.describe());
    out.say(format!(
        "warm_windows_per_s = {warm_rate:.2} warm windows certified per host s (warm_ops_per_s; median of {} warm re-checks, {warm_wall:.3} s)",
        warm_rates.len()
    ));
    latencies.report(&mut out, "chunk_ms_p50", "chunk_ms_p90");

    // ---- correctness gate --------------------------------------------------
    let store_free = tracer.span("bench.gate", root, 0, |_| {
        CheckCampaign::new(spec.clone())
            .workers(workers)
            .run()
            .map_err(|e| format!("store-free check: {e:?}"))
    })?;
    let reference = store_free.deterministic_digest();
    gate(digests.iter().all(|&d| d == reference), || {
        format!("cold/warm digests {digests:x?} differ from the store-free digest {reference:x}")
    })
    .and(gate(cold.failures.is_empty() && !cold.halted, || {
        format!("cold check failures: {:?}", cold.failures)
    }))
    .map_err(|m| format!("correctness: {}", m.0))?;
    out.say(format!(
        "correctness: {} cold + warm digests equal the store-free digest {reference:016x}",
        digests.len()
    ));

    // ---- ledger ------------------------------------------------------------
    let t = &cold.totals;
    let shrunk: Vec<usize> = cold
        .results
        .iter()
        .filter_map(|p| p.counterexample.as_ref().map(|c| c.schedule.len()))
        .collect();
    out.say(format!(
        "ledger: windows={} forks={} explored={} memo_hits={} steps={} violations={} violating_pairs={} shrunk_lengths={shrunk:?} warm_memo_windows={}",
        t.windows,
        t.forks,
        t.explored,
        t.memo_hits,
        t.steps,
        t.violations,
        cold.results.iter().filter(|p| !p.is_clean()).count(),
        warm.counters.memo_windows
    ));
    out.say(format!(
        "load: check workers {workers} + daemon 0 + clients 0 = {workers} <= nproc {}",
        nproc()
    ));

    if args.trace {
        let c = &cold.counters;
        out.layer("compiler.build_ms", probes::mean(&build_ms));
        out.layer(
            "compiler.cache_hit_ratio",
            c.compile_hits as f64 / (c.compile_hits + c.compile_misses).max(1) as f64,
        );
        out.layer("check.windows", t.windows as f64);
        out.layer("check.forks", t.forks as f64);
        out.layer("check.explored", t.explored as f64);
        out.layer("check.violations", t.violations as f64);
        out.layer("check.steps", t.steps as f64);
        out.layer("check.memo_hit_ratio", t.memo_hit_rate());
        out.layer("check.steals", c.frontier_steals as f64);
        out.layer(
            "check.warm_memo_ratio",
            warm.counters.memo_windows as f64 / warm.totals.windows.max(1) as f64,
        );
        out.layer("sim.steps", t.steps as f64);
        out.layer("fleet.queue_wait_ms_p50", median(&waits));
        out.layer("fleet.worker_idle_ratio", (1.0 - busy / capacity).max(0.0));
        out.layer("fleet.failures", c.failures as f64);
        out.layer("fleet.retries", c.retries as f64);

        // Direct single-pair checks: golden run, windows, shrink.
        let probe = tracer.reserve();
        let probe_start = Instant::now();
        let mut golden_ms = Vec::new();
        let mut window_ns = 0.0;
        let mut windows = 0u64;
        let mut shrink_ms = Vec::new();
        let mut direct_ns = 0.0;
        for compiled in &pairs {
            let t0 = Instant::now();
            let golden = tracer
                .span("check.golden", probe, 0, |_| {
                    golden_steps(compiled, spec.explore.seed)
                })
                .map_err(|e| format!("golden run: {e:?}"))?;
            golden_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let report = tracer
                .span("check.check_compiled", probe, 0, |_| {
                    check_compiled(compiled, &spec.explore)
                })
                .map_err(|e| format!("direct check: {e:?}"))?;
            let total = t0.elapsed().as_nanos() as f64;
            direct_ns += total;
            let mut shrink = 0.0;
            if let Some(first) = report.violations.first() {
                let t0 = Instant::now();
                tracer.span("check.shrink", probe, 0, |_| {
                    shrink_schedule(
                        compiled,
                        &spec.explore,
                        &first.schedule,
                        golden,
                        spec.shrink_budget,
                    )
                });
                shrink = t0.elapsed().as_nanos() as f64;
                shrink_ms.push(shrink / 1e6);
            }
            window_ns += total - shrink;
            windows += report.stats.windows;
        }
        out.layer("check.golden_ms", probes::mean(&golden_ms));
        out.layer("check.window_us", window_ns / 1e3 / windows.max(1) as f64);
        out.layer("check.shrink_ms", probes::mean(&shrink_ms));
        // Chunk time inside one cold campaign over the same windows checked
        // directly, pair by pair.
        out.layer(
            "fleet.overhead_ratio",
            busy / round as f64 * 1e9 / direct_ns,
        );

        let programs: Vec<&CompiledApp> = pairs.iter().collect();
        probes::mcu(&mut out, tracer, probe, &programs, spec.explore.seed);
        let cfg = SimConfig::bench_supply(SchemeKind::Gecko);
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
        probes::emi(
            &mut out,
            tracer,
            probe,
            &[0.0],
            (thresholds.v_on + thresholds.v_backup) / 2.0,
        );
        probes::ctpl(&mut out, tracer, probe, &programs, spec.explore.seed);
        let pair = pairs.last().expect("pairs");
        let mut config = SimConfig::bench_supply(pair.scheme);
        config.seed = spec.explore.seed;
        let mut sim = Simulator::from_compiled(pair, config);
        sim.run_steps(2_000);
        probes::snapshot(&mut out, tracer, probe, &mut sim);
        probes::store(
            &mut out,
            tracer,
            probe,
            &scratch.dir("store-probe"),
            &memo_lines,
            classify_memo_lines,
        )
        .map_err(|e| format!("store probe: {e}"))?;
        // The warm path reads the store through `MemoStore::open`.
        let memo_dir = scratch.dir("memo-probe");
        check_run(&spec, workers, &memo_dir, &sink)?;
        let t0 = Instant::now();
        let reopened = tracer
            .span("store.memo_open", probe, 0, |_| MemoStore::open(&memo_dir))
            .map_err(|e| format!("reopening memo store: {e}"))?;
        let n = reopened.log().lines().len().max(1);
        out.layer(
            "store.open_read_ns_per_line",
            t0.elapsed().as_nanos() as f64 / n as f64,
        );
        tracer.record(probe, "bench.probes", root, 0, probe_start, Instant::now());
    }
    tracer.record(root, "bench.workload", 0, 0, run_start, Instant::now());
    Ok(out)
}
