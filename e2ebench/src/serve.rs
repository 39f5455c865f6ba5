//! `serve_mixed`: an in-process `gecko-serve` daemon driven over HTTP by
//! two closed-loop clients submitting a seeded mix of small campaign and
//! incremental check jobs.

use crate::common::{
    gate, median, nproc, Args, HostClock, Latencies, Outcome, Scratch, SETUP_REPS,
};
use crate::probes;
use crate::trace::Tracer;
use gecko_check::{CheckCampaign, CheckSpec, ExploreConfig};
use gecko_energy::VoltageThresholds;
use gecko_fleet::{
    classify_campaign_lines, report_deterministic_json, spec_to_json, Campaign, CampaignSpec,
    Journal, Json, Workload,
};
use gecko_isa::SplitMix64;
use gecko_serve::{
    check_report_deterministic_json, check_spec_to_json, http_call, ServeConfig, Server,
};
use gecko_sim::device::CompiledApp;
use gecko_sim::{Metrics, SchemeKind, SimConfig, Simulator};
use std::time::{Duration, Instant};

/// Throughput is the median rate over runs of this many consecutive
/// completions.
const SLICE_JOBS: usize = 16;
/// Length of one mixed chunk of the closed loop; the host reference is
/// sampled between chunks.
const MIXED_CHUNK_S: f64 = 1.0;
/// Result re-fetches after each mixed chunk, by one client, in slices of
/// [`WARM_SLICE`]. Bounded by count, not time: every fetch is a fresh TCP
/// connection, and the ports its closed connections hold in TIME_WAIT slow
/// later connects.
const WARM_SLICES: usize = 2;
/// Re-fetches per slice; re-fetch throughput is the median adjusted rate
/// over slices.
const WARM_SLICE: usize = 128;
/// Requests per sample of the bare-request reference (see [`bare_us`]).
const BARE_REQUESTS: usize = 32;
/// Nominal bare-request round trip, µs. Re-fetch rates are rescaled to a
/// host whose bare request takes this long.
const BARE_NOMINAL_US: f64 = 100.0;
/// Finished jobs the daemon keeps (older job directories are pruned).
/// Each client walks shuffles of the pool, so the newest job of every
/// spec is among the newest `2 * CLIENTS * pool` jobs (24).
const RETAIN_JOBS: usize = 32;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Daemon queue workers: one per client, so both cores run jobs and the
/// host reference, run on as many threads, sees the speed they ran at.
const QUEUE_WORKERS: usize = 2;
/// Latency samples needed for a p90 with ten samples above it.
const MIN_SAMPLES: usize = 100;

/// One job spec of the pool.
#[derive(Clone)]
enum JobSpec {
    Sweep(CampaignSpec),
    Check(CheckSpec),
}

impl JobSpec {
    fn submit(&self) -> (&'static str, String) {
        match self {
            JobSpec::Sweep(s) => (
                "/v1/campaigns",
                format!("{{\"spec\":{},\"workers\":1}}", spec_to_json(s)),
            ),
            JobSpec::Check(s) => (
                "/v1/checks",
                format!(
                    "{{\"spec\":{},\"workers\":1,\"incremental\":true}}",
                    check_spec_to_json(s)
                ),
            ),
        }
    }
}

/// The in-process answer for one spec.
struct Reference {
    digest: u64,
    det_hash: u64,
    wall_ms: f64,
    totals: Metrics,
    windows: u64,
    violations: u64,
}

/// The job pool, generated from `seed`: four small sweeps (crc16 under
/// every scheme) and two small incremental checks (blink under GECKO). The
/// seed draws their peripheral and exploration seeds only: every sweep
/// costs about the same and so does every check, so the job-latency
/// distribution has two clusters and its p50 and p90 fall inside the sweep
/// cluster at any seed.
fn make_pool(seed: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed ^ 0x5E4E_5E4E);
    let mut pool = Vec::new();
    for i in 0..4 {
        pool.push(JobSpec::Sweep(
            CampaignSpec::new(format!("served-sweep-{i}"))
                .apps(["crc16"])
                .schemes(SchemeKind::all())
                .seeds([rng.range_u64(1, 1 << 20)])
                .workload(Workload::RunFor { seconds: 0.02 }),
        ));
    }
    for i in 0..2 {
        let explore = ExploreConfig {
            seed: rng.range_u64(1, 1 << 20),
            ..ExploreConfig::default().with_max_windows(48)
        };
        pool.push(JobSpec::Check(
            CheckSpec::new(format!("served-check-{i}"))
                .app_names(&["blink"])
                .expect("bundled app")
                .schemes([SchemeKind::Gecko])
                .explore(explore)
                .chunk_windows(16),
        ));
    }
    pool
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Runs each pool spec in-process: the digests the daemon must match.
fn references(pool: &[JobSpec]) -> Result<Vec<Reference>, String> {
    pool.iter()
        .map(|job| {
            let t = Instant::now();
            Ok(match job {
                JobSpec::Sweep(spec) => {
                    let r = Campaign::new(spec.clone())
                        .run()
                        .map_err(|e| format!("in-process campaign: {e}"))?;
                    Reference {
                        digest: r.deterministic_digest(),
                        det_hash: fnv(&report_deterministic_json(&r)),
                        wall_ms: t.elapsed().as_secs_f64() * 1e3,
                        totals: r.totals,
                        windows: 0,
                        violations: 0,
                    }
                }
                JobSpec::Check(spec) => {
                    let r = CheckCampaign::new(spec.clone())
                        .run()
                        .map_err(|e| format!("in-process check: {e:?}"))?;
                    Reference {
                        digest: r.deterministic_digest(),
                        det_hash: fnv(&check_report_deterministic_json(&r)),
                        wall_ms: t.elapsed().as_secs_f64() * 1e3,
                        totals: Metrics::default(),
                        windows: r.totals.windows,
                        violations: r.totals.violations,
                    }
                }
            })
        })
        .collect()
}

/// One served job as a client saw it.
#[derive(Debug, Clone, Default)]
struct Served {
    spec: usize,
    id: Option<u64>,
    ok: bool,
    latency_ms: f64,
    submit_ms: f64,
    queue_wait_ms: Option<f64>,
    polls: u64,
    http_errors: u64,
    digest: Option<u64>,
    det_hash: Option<u64>,
    start: Option<Instant>,
    end: Option<Instant>,
}

fn state_of(body: &str) -> Option<String> {
    Json::parse(body)
        .ok()?
        .get("state")
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// Submit → long-poll to a terminal state → fetch the deterministic
/// result. With `short_polls`, polls without waiting until the job leaves
/// `queued`, to time the queue wait.
fn serve_one(addr: &str, spec_idx: usize, job: &JobSpec, short_polls: bool) -> Served {
    let mut s = Served {
        spec: spec_idx,
        ..Served::default()
    };
    let t0 = Instant::now();
    s.start = Some(t0);
    let (path, body) = job.submit();
    let finish = |mut s: Served| {
        let end = Instant::now();
        s.latency_ms = if s.ok {
            (end - t0).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        };
        s.end = Some(end);
        s
    };
    let id = match http_call(addr, "POST", path, &body) {
        Ok(r) if r.status == 201 => {
            s.submit_ms = t0.elapsed().as_secs_f64() * 1e3;
            Json::parse(&r.body)
                .ok()
                .and_then(|d| d.get("id").and_then(Json::as_u64))
        }
        _ => None,
    };
    let Some(id) = id else {
        s.http_errors += 1;
        return finish(s);
    };
    s.id = Some(id);
    let accepted = Instant::now();
    if short_polls {
        loop {
            match http_call(addr, "GET", &format!("/v1/jobs/{id}"), "") {
                Ok(r) if r.status == 200 => {
                    s.polls += 1;
                    if state_of(&r.body).as_deref() != Some("queued") {
                        s.queue_wait_ms = Some(accepted.elapsed().as_secs_f64() * 1e3);
                        break;
                    }
                }
                _ => {
                    s.http_errors += 1;
                    return finish(s);
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    loop {
        let r = match http_call(addr, "GET", &format!("/v1/jobs/{id}?wait_ms=10000"), "") {
            Ok(r) if r.status == 200 => r,
            _ => {
                s.http_errors += 1;
                return finish(s);
            }
        };
        s.polls += 1;
        let doc = Json::parse(&r.body).ok();
        match doc
            .as_ref()
            .and_then(|d| d.get("state"))
            .and_then(Json::as_str)
        {
            Some("done") => {
                s.digest = doc
                    .as_ref()
                    .and_then(|d| d.get("digest"))
                    .and_then(Json::as_u64);
                if s.digest.is_none() {
                    return finish(s);
                }
                break;
            }
            Some("queued") | Some("running") => {}
            _ => return finish(s),
        }
    }
    match http_call(
        addr,
        "GET",
        &format!("/v1/jobs/{id}/result?view=deterministic"),
        "",
    ) {
        Ok(r) if r.status == 200 => {
            s.det_hash = Some(fnv(&r.body));
            s.ok = true;
        }
        _ => s.http_errors += 1,
    }
    finish(s)
}

/// Fetches a finished job's deterministic result again.
fn fetch_result(addr: &str, spec: usize, id: u64) -> Served {
    let t0 = Instant::now();
    let r = http_call(
        addr,
        "GET",
        &format!("/v1/jobs/{id}/result?view=deterministic"),
        "",
    );
    let end = Instant::now();
    let ok = matches!(&r, Ok(r) if r.status == 200);
    Served {
        spec,
        id: Some(id),
        ok,
        latency_ms: if ok {
            (end - t0).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        },
        polls: 0,
        http_errors: (!ok) as u64,
        det_hash: r.ok().filter(|_| ok).map(|r| fnv(&r.body)),
        start: Some(t0),
        end: Some(end),
        ..Served::default()
    }
}

/// Closed loop: each of `clients` clients sends its next request only
/// after its previous one completed, for `seconds` or `per_client`
/// requests, whichever ends first. `op(k)` performs request `k` of
/// `0..count`; each client walks seeded shuffles of `0..count`, so every
/// request takes the same share of the mix at any seed.
fn closed_loop(
    clients: usize,
    count: usize,
    seconds: f64,
    per_client: usize,
    seed: u64,
    op: &(dyn Fn(usize) -> Served + Sync),
) -> (Vec<Served>, f64, Instant) {
    let started = Instant::now();
    let served: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(seed ^ (0xC11E_0000 + c as u64));
                    let mut order: Vec<usize> = (0..count).collect();
                    let mut mine = Vec::new();
                    while started.elapsed().as_secs_f64() < seconds && mine.len() < per_client {
                        let k = mine.len() % count;
                        if k == 0 {
                            for j in (1..count).rev() {
                                order.swap(j, rng.range_u64(0, j as u64 + 1) as usize);
                            }
                        }
                        mine.push(op(order[k]));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (served, started.elapsed().as_secs_f64(), started)
}

/// Ops completed per host second over each run of `slice` consecutive
/// completions (a trailing partial run is dropped). The metric is the
/// median over slices, so a neighbour's burst on this host slows a few
/// slices, not the median one.
fn slice_rates(served: &[Served], started: Instant, slice: usize) -> Vec<f64> {
    let mut ends: Vec<f64> = served
        .iter()
        .filter(|s| s.ok)
        .filter_map(|s| s.end.map(|e| (e - started).as_secs_f64()))
        .collect();
    ends.sort_by(f64::total_cmp);
    ends.insert(0, 0.0);
    ends.windows(slice + 1)
        .step_by(slice)
        .map(|w| slice as f64 / (w[slice] - w[0]))
        .collect()
}

/// Ops served in one phase: rates over slices of `slice` ops and
/// latencies, both host-adjusted.
struct Load {
    slice: usize,
    served: Vec<Served>,
    /// Slice rates, each multiplied by its batch's host factor.
    rates: Vec<f64>,
    /// The same slice rates unadjusted.
    raw_rates: Vec<f64>,
    /// Latencies (ms), each divided by its batch's host factor.
    latencies: Latencies,
    wall: f64,
}

impl Load {
    fn new(slice: usize) -> Load {
        Load {
            slice,
            served: Vec::new(),
            rates: Vec::new(),
            raw_rates: Vec::new(),
            latencies: Latencies::default(),
            wall: 0.0,
        }
    }

    /// Adds one closed-loop batch, run while the host's speed factor
    /// (reference over nominal) was `factor`.
    fn add(&mut self, (served, wall, started): (Vec<Served>, f64, Instant), factor: f64) {
        for rate in slice_rates(&served, started, self.slice) {
            self.raw_rates.push(rate);
            self.rates.push(rate * factor);
        }
        for s in &served {
            self.latencies.push(s.latency_ms / factor);
        }
        self.served.extend(served);
        self.wall += wall;
    }

    fn ok(&self) -> usize {
        self.served.iter().filter(|s| s.ok).count()
    }
}

/// What one timed phase measured.
struct Phase {
    /// Served jobs, adjusted by the host reference kernel.
    mixed: Load,
    /// Result re-fetches, adjusted by the bare-request reference.
    warm: Load,
    clock: HostClock,
    /// Bare-request reference samples, µs.
    bare_us: Vec<f64>,
}

/// Alternates mixed chunks (every pool spec) with warm chunks (the
/// deterministic result of the newest finished job of each spec fetched
/// again, by one client), until `seconds` pass and enough jobs were
/// served.
fn phase(
    addr: &str,
    pool: &[JobSpec],
    seconds: f64,
    seed: u64,
    short_polls: bool,
) -> Result<Phase, String> {
    let mut mixed = Load::new(SLICE_JOBS);
    let mut warm = Load::new(WARM_SLICE);
    let mut bare_samples = Vec::new();
    let mut clock = HostClock::new(QUEUE_WORKERS);
    let started = Instant::now();
    let mut chunk = 0u64;
    while started.elapsed().as_secs_f64() < seconds || mixed.served.len() < MIN_SAMPLES {
        let mixed_s = MIXED_CHUNK_S.min(seconds);
        let jobs = closed_loop(
            CLIENTS,
            pool.len(),
            mixed_s,
            usize::MAX,
            seed ^ chunk << 8,
            &|i| serve_one(addr, i, &pool[i], short_polls),
        );
        // The newest finished job of each spec, so every warm chunk
        // fetches the same documents; all lie inside the daemon's
        // retention window, so none is pruned.
        let recent: Vec<(usize, u64)> = (0..pool.len())
            .filter_map(|spec| {
                jobs.0
                    .iter()
                    .filter(|s| s.ok && s.spec == spec)
                    .max_by_key(|s| s.end)
                    .and_then(|s| s.id.map(|id| (spec, id)))
            })
            .collect();
        mixed.add(jobs, clock.factor());
        if recent.len() == pool.len() {
            let mut bare = vec![bare_us(BARE_REQUESTS)?];
            let mut slices = Vec::new();
            for slice in 0..WARM_SLICES as u64 {
                slices.push(closed_loop(
                    1,
                    recent.len(),
                    f64::INFINITY,
                    WARM_SLICE,
                    seed ^ chunk << 8 ^ (slice + 1) << 4,
                    &|k| fetch_result(addr, recent[k].0, recent[k].1),
                ));
                bare.push(bare_us(BARE_REQUESTS)?);
            }
            // Each slice is scaled by the samples right before and after it.
            for (i, slice) in slices.into_iter().enumerate() {
                warm.add(slice, (bare[i] + bare[i + 1]) / 2.0 / BARE_NOMINAL_US);
            }
            bare_samples.extend(bare);
        }
        chunk += 1;
    }
    Ok(Phase {
        mixed,
        warm,
        clock,
        bare_us: bare_samples,
    })
}

/// The host's cost of a bare HTTP request right now: mean µs per round
/// trip of `n` sequential [`http_call`]s to a benchmark-owned responder
/// that, like the daemon, spawns a thread per connection, reads the
/// request head, answers a small fixed body and closes. A re-fetch costs
/// little more than such a round trip, so neighbours on the host move both
/// alike; the responder is benchmark code, so a change to the daemon
/// cannot move it.
fn bare_us(n: usize) -> Result<f64, String> {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("binding the bare-request responder: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("bare-request responder address: {e}"))?
        .to_string();
    let responder = std::thread::spawn(move || {
        let conns: Vec<_> = (0..n)
            .filter_map(|_| listener.accept().ok())
            .map(|(mut stream, _)| {
                std::thread::spawn(move || {
                    let mut head = Vec::new();
                    let mut buf = [0u8; 512];
                    while !head.ends_with(b"\r\n\r\n") {
                        match stream.read(&mut buf) {
                            Ok(0) | Err(_) => return,
                            Ok(k) => head.extend_from_slice(&buf[..k]),
                        }
                    }
                    let _ = stream.write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\nConnection: close\r\n\r\n{\"ok\":true}",
                    );
                })
            })
            .collect();
        for conn in conns {
            let _ = conn.join();
        }
    });
    let t = Instant::now();
    for _ in 0..n {
        match http_call(&addr, "GET", "/", "") {
            Ok(r) if r.status == 200 => {}
            // The responder still waits for its remaining connections;
            // the run ends with this error, and the thread with it.
            other => return Err(format!("bare request: {other:?}")),
        }
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    responder
        .join()
        .map_err(|_| "the bare-request responder panicked")?;
    Ok(us)
}

fn boot(dir: &std::path::Path) -> Result<Server, String> {
    let server = Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_string(),
        journal_root: dir.to_path_buf(),
        queue_workers: QUEUE_WORKERS,
        job_workers: 1,
        retain_jobs: RETAIN_JOBS,
        prune_interval_secs: 1,
        prune_delete_limit: 0,
        max_jobs: 1024,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("booting the daemon: {e}"))?;
    match http_call(&server.addr().to_string(), "GET", "/v1/healthz", "") {
        Ok(r) if r.status == 200 => Ok(server),
        other => {
            server.shutdown();
            Err(format!("healthz after boot: {other:?}"))
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer, scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tracer.reserve();
    let run_start = Instant::now();

    // ---- set-up: job pool, daemon boot, first healthz ----------------------
    // Repeated up front only: between chunks the main daemon's retention
    // pruner would be deleting job directories beside the boot. Each
    // repetition boots a daemon on a fresh data directory; background
    // threads shut them down untimed (a shutdown can wait out the pruner's
    // sleep) and are joined before the timed phase.
    let mut setup_times = Vec::new();
    let mut retiring = Vec::new();
    for rep in 0..2 * SETUP_REPS {
        let dir = scratch.dir(&format!("boot-{rep}"));
        let t = Instant::now();
        let _pool = make_pool(args.seed);
        let server = boot(&dir)?;
        setup_times.push(t.elapsed().as_secs_f64());
        retiring.push(std::thread::spawn(move || {
            server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }));
    }
    for handle in retiring {
        handle
            .join()
            .map_err(|_| "a set-up daemon panicked while shutting down")?;
    }
    let pool = make_pool(args.seed);
    let server = tracer.span("serve.boot", root, 0, |_| boot(&scratch.dir("daemon")))?;
    let addr = server.addr().to_string();

    // In-process references, outside the timed region.
    let refs = tracer.span("bench.references", root, 0, |_| references(&pool))?;

    // ---- timed phase(s) ---------------------------------------------------------
    // The traced run measures an untraced half first; the jobs/s ratio of
    // the two halves is the tracing overhead.
    let mut phase_seconds = args.seconds;
    let mut untraced_rate = None;
    if args.trace {
        phase_seconds /= 2.0;
        let plain = phase(&addr, &pool, phase_seconds, args.seed, false)?;
        untraced_rate = Some(median(&plain.mixed.rates));
    }
    let Phase {
        mixed,
        warm,
        clock,
        bare_us: bare_samples,
    } = phase(&addr, &pool, phase_seconds, args.seed, args.trace)?;
    let setup_s = median(&setup_times);
    out.e2e.insert("setup_s", setup_s);
    out.say(format!(
        "setup_s = {setup_s:.6} s (median of {} set-ups: job pool, daemon boot, first healthz)",
        setup_times.len()
    ));
    let rate = median(&mixed.rates);
    out.e2e.insert("ops_per_s", rate);
    out.attempted += mixed.served.len() as u64;
    out.failed += (mixed.served.len() - mixed.ok()) as u64;
    out.say(format!(
        "jobs_per_s = {rate:.3} jobs completed per host s (ops_per_s; host-adjusted median over {} slices of {SLICE_JOBS} completions; unadjusted {:.3}; {} jobs in {:.2} s, {CLIENTS} closed-loop clients)",
        mixed.rates.len(),
        median(&mixed.raw_rates),
        mixed.ok(),
        mixed.wall
    ));
    mixed.latencies.report(&mut out, "job_ms_p50", "job_ms_p90");
    out.say(clock.describe());
    let warm_rate = median(&warm.rates);
    let warm_raw = median(&warm.raw_rates);
    let bare = median(&bare_samples);
    out.e2e.insert("warm_ops_per_s", warm_rate);
    out.attempted += warm.served.len() as u64;
    out.failed += (warm.served.len() - warm.ok()) as u64;
    out.say(format!(
        "warm_fetches_per_s = {warm_rate:.3} finished jobs' deterministic results re-fetched per host s (warm_ops_per_s; median over {} slices of {WARM_SLICE} fetches by one client, each scaled by the bare-request reference around it over {BARE_NOMINAL_US} us; unadjusted {warm_raw:.3}; reference median {bare:.2} us over {} samples; {} fetches in {:.2} s)",
        warm.rates.len(),
        bare_samples.len(),
        warm.ok(),
        warm.wall
    ));
    let served = &mixed.served;
    let warm = &warm.served;

    // Spans: one per job (submit to result fetched) and one per re-fetch.
    for (name, list) in [("serve.job", served), ("serve.fetch", warm)] {
        for (n, s) in list.iter().enumerate() {
            if let (Some(start), Some(end)) = (s.start, s.end) {
                tracer.record(0, name, root, n as u64, start, end);
            }
        }
    }

    // ---- correctness gate ----------------------------------------------------
    let everything: Vec<&Served> = served.iter().chain(warm).collect();
    for s in &everything {
        let r = &refs[s.spec];
        let digest_ok = s.digest.is_none_or(|d| d == r.digest);
        gate(!s.ok || (digest_ok && s.det_hash == Some(r.det_hash)), || {
            format!(
                "served job of spec {} returned digest {:?} / doc hash {:?}, in-process {:x} / {:x}",
                s.spec, s.digest, s.det_hash, r.digest, r.det_hash
            )
        })
        .map_err(|m| format!("correctness: {}", m.0))?;
    }
    out.say(format!(
        "correctness: all {} served deterministic digests and result documents equal the in-process ones",
        everything.iter().filter(|s| s.ok).count()
    ));

    // ---- ledger: the pool's simulated statistics (one job per spec) ----------
    let mut totals = Metrics::default();
    for r in &refs {
        totals.absorb(&r.totals);
    }
    out.say(format!(
        "ledger (pool of {} specs, one run each): checkpoints={} checkpoint_failures={} rollbacks={} reboots={} completions={} windows={} violations={}",
        pool.len(),
        totals.jit_checkpoints,
        totals.jit_checkpoint_failures,
        totals.rollbacks,
        totals.reboots,
        totals.completions,
        refs.iter().map(|r| r.windows).sum::<u64>(),
        refs.iter().map(|r| r.violations).sum::<u64>()
    ));
    out.say(format!(
        "load: daemon queue {QUEUE_WORKERS} x job 1 + {CLIENTS} clients = {} (nproc {}; each client blocks in a long-poll while its job runs)",
        QUEUE_WORKERS + CLIENTS,
        nproc()
    ));

    if args.trace {
        let done: Vec<&Served> = served.iter().filter(|s| s.ok).collect();
        let submit: Vec<f64> = done.iter().map(|s| s.submit_ms).collect();
        let queue: Vec<f64> = done.iter().filter_map(|s| s.queue_wait_ms).collect();
        // Unadjusted on both sides: wall time served vs in process.
        let served_ms: f64 = done
            .iter()
            .filter_map(|s| Some((s.end? - s.start?).as_secs_f64() * 1e3))
            .sum();
        let inproc_ms: f64 = done.iter().map(|s| refs[s.spec].wall_ms).sum();
        out.layer("serve.submit_ms", median(&submit));
        out.layer("serve.queue_wait_ms", median(&queue));
        out.layer("serve.overhead_ratio", served_ms / inproc_ms);
        out.layer(
            "serve.polls_per_job",
            served.iter().map(|s| s.polls).sum::<u64>() as f64 / served.len().max(1) as f64,
        );
        out.layer(
            "serve.http_errors",
            everything.iter().map(|s| s.http_errors).sum::<u64>() as f64,
        );
        let rtts: Vec<f64> = (0..50)
            .map(|_| {
                let t = Instant::now();
                let _ = tracer.span("serve.healthz", root, 0, |_| {
                    http_call(&addr, "GET", "/v1/healthz", "")
                });
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.layer("serve.healthz_rtt_ms", median(&rtts));
        let pruned = server
            .queue()
            .store_stats()
            .get("checkpoints")
            .and_then(|c| c.get("job_dirs"))
            .and_then(|c| c.get("pruned_entries"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        out.layer("serve.jobs_pruned", pruned as f64);
        if let Some(plain) = untraced_rate {
            out.layer("trace.overhead_ratio", plain / rate);
        }

        // Layer probes with the pool's programs and a served job's journal.
        let probe = tracer.reserve();
        let probe_start = Instant::now();
        let mut programs = Vec::new();
        let mut build_ms = Vec::new();
        for job in &pool {
            let JobSpec::Sweep(spec) = job else { continue };
            let app = gecko_apps::app_by_name(&spec.apps[0]).ok_or("unknown app")?;
            for &scheme in &spec.schemes {
                let t = Instant::now();
                let c = tracer
                    .span("compiler.build", probe, 0, |_| {
                        CompiledApp::build(&app, scheme, &spec.compile)
                    })
                    .map_err(|e| format!("compile: {e:?}"))?;
                build_ms.push(t.elapsed().as_secs_f64() * 1e3);
                programs.push(c);
            }
        }
        out.layer("compiler.build_ms", probes::mean(&build_ms));
        let refs_p: Vec<&CompiledApp> = programs.iter().collect();
        probes::mcu(&mut out, tracer, probe, &refs_p, args.seed);
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
                worst_step_nj: refs_p
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
        probes::ctpl(&mut out, tracer, probe, &refs_p, args.seed);
        let first = &programs[0];
        let mut sim = Simulator::from_compiled(first, SimConfig::bench_supply(first.scheme));
        sim.run_for(0.01);
        probes::snapshot(&mut out, tracer, probe, &mut sim);
        // The journal a served sweep job left: lines the daemon wrote.
        let sweep = (0..pool.len())
            .find(|&i| matches!(pool[i], JobSpec::Sweep(_)))
            .expect("the pool has sweeps");
        let job = serve_one(&addr, sweep, &pool[sweep], false)
            .id
            .and_then(|id| server.queue().job(id))
            .ok_or("the probe job was not served")?;
        let lines =
            Journal::open_segmented(&job.dir.join("journal"), gecko_store::LogConfig::default())
                .map_err(|e| format!("reading a served journal: {e}"))?
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
    tracer.span("serve.shutdown", root, 0, |_| server.shutdown());
    tracer.record(root, "bench.workload", 0, 0, run_start, Instant::now());
    Ok(out)
}
