//! Shared plumbing: command-line arguments, the metric registry, order
//! statistics, the process's memory high-water mark, and the per-run
//! scratch directory.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "attack_sweep",
    "harvest_sweep",
    "check_recheck",
    "serve_mixed",
];

/// End-to-end metrics: `(name, unit)`. Every workload reports every one;
/// what an "op" is differs per workload (see `BENCHMARK.json`).
pub const E2E_METRICS: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("warm_ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, named `<crate>.<metric>`. A layer a
/// workload bypasses reports 0 there, which is itself the measurement.
pub const LAYER_METRICS: [(&str, &str); 67] = [
    ("compiler.build_ms", "ms"),
    ("compiler.cache_hit_ratio", "ratio"),
    ("mcu.step_ns", "ns"),
    ("mcu.span_ns_per_inst", "ns"),
    ("mcu.dispatches", "count"),
    ("energy.safe_steps_ns", "ns"),
    ("energy.next_crossing_ns", "ns"),
    ("energy.charge_ns", "ns"),
    ("emi.adc_read_ns", "ns"),
    ("emi.attacked_share", "ratio"),
    ("ctpl.checkpoint_us", "us"),
    ("ctpl.checkpoints", "count"),
    ("ctpl.checkpoint_failures", "count"),
    ("ctpl.reboots", "count"),
    ("sim.steps", "count"),
    ("sim.ff_ticks", "count"),
    ("sim.eh_insts", "count"),
    ("sim.coalesced_ratio", "ratio"),
    ("sim.attacked_coalesced_ratio", "ratio"),
    ("sim.rollbacks", "count"),
    ("sim.completions", "count"),
    ("sim.ns_per_step", "ns"),
    ("sim.host_ms_per_sim_s", "ms"),
    ("sim.snapshot_us", "us"),
    ("sim.restore_us", "us"),
    ("sim.state_hash_us", "us"),
    ("fleet.queue_wait_ms_p50", "ms"),
    ("fleet.worker_idle_ratio", "ratio"),
    ("fleet.overhead_ratio", "ratio"),
    ("fleet.failures", "count"),
    ("fleet.retries", "count"),
    ("check.windows", "count"),
    ("check.forks", "count"),
    ("check.explored", "count"),
    ("check.violations", "count"),
    ("check.steps", "count"),
    ("check.memo_hit_ratio", "ratio"),
    ("check.steals", "count"),
    ("check.golden_ms", "ms"),
    ("check.window_us", "us"),
    ("check.shrink_ms", "ms"),
    ("check.warm_memo_ratio", "ratio"),
    ("store.append_ns", "ns"),
    ("store.sync_ms", "ms"),
    ("store.open_read_ns_per_line", "ns"),
    ("store.bytes_written", "bytes"),
    ("store.prune_ns_per_line", "ns"),
    ("serve.healthz_rtt_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.overhead_ratio", "ratio"),
    ("serve.polls_per_job", "count"),
    ("serve.http_errors", "count"),
    ("serve.jobs_pruned", "count"),
    ("self_ms.bench", "ms"),
    ("self_ms.compiler", "ms"),
    ("self_ms.mcu", "ms"),
    ("self_ms.energy", "ms"),
    ("self_ms.emi", "ms"),
    ("self_ms.ctpl", "ms"),
    ("self_ms.sim", "ms"),
    ("self_ms.fleet", "ms"),
    ("self_ms.check", "ms"),
    ("self_ms.store", "ms"),
    ("self_ms.serve", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Set-up repetitions behind each `setup_s` median.
pub const SETUP_REPS: usize = 11;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (expected one of {WORKLOADS:?})"
            ));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Ops attempted in the timed phases.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// Human-readable report lines, printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a report line.
    pub fn say(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unregistered layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

/// A failed correctness check: the run exits non-zero and prints no result.
#[derive(Debug)]
pub struct Mismatch(pub String);

/// Fails the gate with `msg` unless `ok`.
pub fn gate(ok: bool, msg: impl FnOnce() -> String) -> Result<(), Mismatch> {
    if ok {
        Ok(())
    } else {
        Err(Mismatch(msg()))
    }
}

/// Latency samples in ms; failed or refused ops are `f64::INFINITY`, so
/// they count as over every limit in the tails.
#[derive(Debug, Default, Clone)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    /// Adds one sample.
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Nearest-rank percentile `q` in `(0, 1]` and the count of samples
    /// strictly above its rank.
    pub fn percentile(&self, q: f64) -> (f64, usize) {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        if v.is_empty() {
            return (f64::NAN, 0);
        }
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        (v[rank - 1], v.len() - rank)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Records `op_ms_p50` / `op_ms_p90` and states their sample counts
    /// under the workload's own metric names.
    pub fn report(&self, out: &mut Outcome, p50_name: &str, p90_name: &str) {
        let (p50, above50) = self.percentile(0.5);
        let (p90, above90) = self.percentile(0.9);
        out.e2e.insert("op_ms_p50", p50);
        out.e2e.insert("op_ms_p90", p90);
        out.say(format!(
            "{p50_name} = {p50:.4} ms (op_ms_p50; n={}, {above50} above)",
            self.len()
        ));
        out.say(format!(
            "{p90_name} = {p90:.4} ms (op_ms_p90; n={}, {above90} above)",
            self.len()
        ));
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Times `f` over enough repetitions to fill `budget`, returning the
/// mean ns per call. `f` receives the repetition index.
pub fn ns_per_call(budget: Duration, mut f: impl FnMut(u64)) -> f64 {
    // Warm-up, then a calibrated batch size so the clock is read rarely.
    f(0);
    let mut batch = 1u64;
    let mut calls = 0u64;
    let started = Instant::now();
    loop {
        for i in 0..batch {
            f(calls + i);
        }
        calls += batch;
        let spent = started.elapsed();
        if spent >= budget {
            return spent.as_nanos() as f64 / calls as f64;
        }
        if batch < 1 << 20 {
            batch *= 2;
        }
    }
}

/// The process's resident-set high-water mark (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `.bench_out/<workload>-<seed>-<pid>/`, emptying any
    /// leftover from an earlier run with the same name.
    pub fn new(workload: &str, seed: u64) -> std::io::Result<Scratch> {
        let root =
            PathBuf::from(".bench_out").join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Remove `.bench_out` itself once the last run has left it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Nominal speed of the host reference kernel, ns per iteration. Host-time
/// metrics are rescaled to a host that runs the kernel at this speed.
pub const REF_NOMINAL_NS: f64 = 10.0;

/// The host's speed right now: ns per iteration of a fixed,
/// benchmark-owned integer kernel (xorshift, table updates, data-dependent
/// branches), run on `threads` threads at once.
pub fn host_ref_ns(threads: usize) -> f64 {
    const ITERS: u64 = 300_000;
    fn kernel(iters: u64, seed: u64) -> u64 {
        let mut table = [0u32; 256];
        let mut x = seed | 1;
        let mut acc = 0u64;
        for i in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x & 255) as usize;
            match x % 4 {
                0 => table[slot] = table[slot].wrapping_add(i as u32),
                1 => acc = acc.wrapping_add(table[slot] as u64),
                2 => acc ^= x,
                _ => acc = acc.rotate_left(3),
            }
        }
        acc
    }
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1) as u64)
            .map(|t| {
                s.spawn(move || {
                    let started = Instant::now();
                    std::hint::black_box(kernel(std::hint::black_box(ITERS), 7 + t));
                    started.elapsed().as_nanos() as f64 / ITERS as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference kernel thread panicked"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

/// Rescales host-time measurements by the host's speed around them (see
/// `LAYERS.md`: the sweeps, the check, and the daemon's jobs).
///
/// Neighbours on this host slow every core by up to 1.7x for tens of
/// seconds at a time, far longer than a round. The reference kernel is
/// sampled between timed ops (never during one), and each op is rescaled
/// by the mean of the samples on either side of it: a rate is multiplied
/// and a latency divided by `reference / REF_NOMINAL_NS`. The kernel is
/// benchmark code, so a change to the program cannot move it.
#[derive(Debug)]
pub struct HostClock {
    threads: usize,
    last_ns: f64,
    /// Every reference sample (ns per iteration).
    pub samples: Vec<f64>,
}

impl HostClock {
    /// Takes the first sample on `threads` threads.
    pub fn new(threads: usize) -> HostClock {
        let ns = host_ref_ns(threads);
        HostClock {
            threads,
            last_ns: ns,
            samples: vec![ns],
        }
    }

    /// Samples again and returns the factor for the op(s) since the
    /// previous sample.
    pub fn factor(&mut self) -> f64 {
        let ns = host_ref_ns(self.threads);
        let factor = (self.last_ns + ns) / 2.0 / REF_NOMINAL_NS;
        self.last_ns = ns;
        self.samples.push(ns);
        factor
    }

    /// The factor the latest sample alone gives (for ops timed right
    /// after it).
    pub fn current(&self) -> f64 {
        self.last_ns / REF_NOMINAL_NS
    }

    /// One report line naming the samples behind the rescaling.
    pub fn describe(&self) -> String {
        format!(
            "host reference: median {:.3} ns/iter over {} samples (nominal {REF_NOMINAL_NS}); rates are scaled by reference/nominal, latencies by nominal/reference",
            median(&self.samples),
            self.samples.len()
        )
    }
}
