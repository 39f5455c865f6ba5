//! # gecko-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! paper's evaluation. Each `benches/` target (plain `harness = false`
//! binaries, so `cargo bench` runs them) computes the corresponding rows —
//! the heavyweight sweeps (fig4, fig5, fig8, fig11, fig13) through the
//! `gecko-fleet` campaign engine, the rest through the sequential
//! `gecko_sim::experiments` entry points — prints a paper-style table, and
//! persists the raw rows as JSON-lines under `target/gecko-results/`
//! through the fleet telemetry pipeline.
//!
//! Two micro-benchmark binaries (`compiler_passes`, `sim_throughput`)
//! measure the harness itself with a dependency-free best-of-N timer.
//!
//! Environment knobs: `GECKO_QUICK=1` runs the reduced sweeps used by the
//! test suite; `GECKO_WORKERS=N` overrides the campaign worker-pool size
//! (default: all available cores).

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gecko_sim::experiments::Fidelity;
use gecko_sim::report::{write_json_string, Value};
use gecko_sim::Record;

/// The fidelity selected by the environment (`GECKO_QUICK=1` → `Quick`).
pub fn fidelity_from_env() -> Fidelity {
    if std::env::var_os("GECKO_QUICK").is_some() {
        Fidelity::Quick
    } else {
        Fidelity::Full
    }
}

/// Campaign worker-pool size: `GECKO_WORKERS` if set, else all cores.
pub fn workers_from_env() -> usize {
    std::env::var("GECKO_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Directory where bench targets persist their JSON rows — anchored at the
/// workspace root's `target/gecko-results` regardless of the working
/// directory cargo launches the bench binary in (package root, not
/// workspace root, so a relative path would scatter results).
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
        .join("target/gecko-results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Persists rows as `target/gecko-results/<name>.jsonl` through the fleet
/// telemetry pipeline (one JSON object per line).
pub fn save_rows<R: Record>(name: &str, rows: &[R]) {
    match gecko_fleet::persist_records(&results_dir(), name, rows) {
        Ok(path) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {name}.jsonl: {e}"),
    }
}

/// One machine-readable row of a bench summary (`BENCH_sim.json`): the
/// compact artifact the CI bench-smoke step publishes. The JSONL telemetry
/// written by [`save_rows`] remains the full per-section log.
pub struct SummaryRow {
    /// Row name, `section/scheme/workload`.
    pub name: String,
    /// Best-of-N wall time per simulated step (nanoseconds).
    pub ns_per_op: f64,
    /// The ratio the section reports: coalescing factor for the fast-path
    /// sections, speedup or overhead factor elsewhere.
    pub ratio: f64,
}

/// The current `git` commit (short hash), or `"unknown"` outside a
/// repository — stamped into bench summaries so a JSON artifact is
/// attributable without its CI context.
pub fn git_commit_short() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes `target/gecko-results/<name>.json`: one JSON object holding the
/// current commit hash and an array of [`SummaryRow`]s. Hand-rolled — the
/// workspace is serde-free by design.
pub fn save_json_summary(name: &str, rows: &[SummaryRow]) {
    let mut body = String::from("{\n  \"commit\": ");
    write_json_string(&git_commit_short(), &mut body);
    body.push_str(",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str("    {\"name\": ");
        write_json_string(&row.name, &mut body);
        body.push_str(", \"ns_per_op\": ");
        Value::F64(row.ns_per_op).write_json(&mut body);
        body.push_str(", \"ratio\": ");
        Value::F64(row.ratio).write_json(&mut body);
        body.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    body.push_str("  ]\n}\n");
    let path = results_dir().join(format!("{name}.json"));
    match fs::write(&path, body) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {name}.json: {e}"),
    }
}

/// Times `f` with `iters` measured iterations after one warm-up call and
/// reports the best per-iteration time — the dependency-free stand-in for
/// a statistical micro-benchmark harness (min-of-N is robust to scheduler
/// noise for CPU-bound closures).
pub fn time_best_of<T>(iters: u32, mut f: impl FnMut() -> T) -> Duration {
    assert!(iters > 0);
    std::hint::black_box(f());
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    best
}

/// The outcome of an interleaved A/B timing ([`time_interleaved`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interleaved {
    /// Median wall time of A.
    pub a: Duration,
    /// Median wall time of B.
    pub b: Duration,
    /// Median of the per-pair ratios B/A — the number a gate bounds.
    pub ratio: f64,
    /// Interquartile range of the per-pair ratios: how much the ratio
    /// moved from pair to pair.
    pub spread: f64,
}

/// Times `a` and `b` interleaved — A, B, A, B, … — for `pairs` pairs
/// after one warm-up call of each, and reports the median per-pair ratio
/// B/A with its spread. The two runs of a pair are adjacent in time, so
/// load that drifts over the measurement (neighbouring processes,
/// frequency scaling) moves both sides together and cancels in the
/// ratio, and the median discards the few pairs a one-off stall landed
/// on. Best-of-N timing of A and B in separate batches has neither
/// property: on a shared 2-core host it let a 10% gate fail in most runs.
pub fn time_interleaved<A, B>(
    pairs: u32,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> Interleaved {
    assert!(pairs > 0);
    std::hint::black_box(a());
    std::hint::black_box(b());
    let mut a_ns = Vec::with_capacity(pairs as usize);
    let mut b_ns = Vec::with_capacity(pairs as usize);
    for _ in 0..pairs {
        let t0 = Instant::now();
        std::hint::black_box(a());
        a_ns.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(b());
        b_ns.push(t0.elapsed().as_secs_f64());
    }
    let mut ratios: Vec<f64> = a_ns.iter().zip(&b_ns).map(|(a, b)| b / a).collect();
    let (ratio, spread) = median_and_iqr(&mut ratios);
    Interleaved {
        a: Duration::from_secs_f64(median_and_iqr(&mut a_ns).0),
        b: Duration::from_secs_f64(median_and_iqr(&mut b_ns).0),
        ratio,
        spread,
    }
}

/// The median and the interquartile range (nearest-rank quartiles) of
/// `samples`, which it sorts.
fn median_and_iqr(samples: &mut [f64]) -> (f64, f64) {
    assert!(!samples.is_empty());
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    let quartile = |q: usize| samples[((q * n).div_ceil(4)).clamp(1, n) - 1];
    (median, quartile(3) - quartile(1))
}

/// Renders a fixed-width table: a header row and data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("--")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a rate as a percentage with adaptive precision (tiny comparator
/// rates keep their significant digits, like Table I's `10⁻²%`).
pub fn pct(rate: f64) -> String {
    let p = rate * 100.0;
    if p != 0.0 && p.abs() < 0.1 {
        format!("{p:.0e}%")
    } else {
        format!("{p:.1}%")
    }
}

/// Formats a frequency in MHz.
pub fn mhz(freq_hz: f64) -> String {
    format!("{:.0}MHz", freq_hz / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_adapts_precision() {
        assert_eq!(pct(0.41), "41.0%");
        assert_eq!(pct(0.0001), "1e-2%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn mhz_formats() {
        assert_eq!(mhz(27e6), "27MHz");
    }

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.ends_with("gecko-results"));
    }

    #[test]
    fn workers_default_is_positive() {
        assert!(workers_from_env() >= 1);
    }

    #[test]
    fn json_summary_is_well_formed() {
        assert!(!git_commit_short().is_empty());
        save_json_summary(
            "BENCH_selftest",
            &[
                SummaryRow {
                    name: "section/scheme".to_string(),
                    ns_per_op: 12.5,
                    ratio: 3.0,
                },
                SummaryRow {
                    name: "a\"b\\c\n".to_string(),
                    ns_per_op: f64::NAN,
                    ratio: 1.5,
                },
            ],
        );
        let text = fs::read_to_string(results_dir().join("BENCH_selftest.json")).unwrap();
        assert!(text.contains("\"commit\": \""), "{text}");
        assert!(
            text.contains("{\"name\": \"section/scheme\", \"ns_per_op\": 12.5, \"ratio\": 3.0},\n"),
            "{text}"
        );
        assert!(
            text.contains(r#"{"name": "a\"b\\c\n", "ns_per_op": null, "ratio": 1.5}"#),
            "{text}"
        );
        let doc = gecko_fleet::Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("rows").and_then(|r| r.as_arr()).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn median_and_iqr_use_nearest_rank_quartiles() {
        let mut odd = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median_and_iqr(&mut odd), (3.0, 2.0));
        let mut even = [0.9, 1.3, 1.0, 1.1];
        let (median, iqr) = median_and_iqr(&mut even);
        assert!((median - 1.05).abs() < 1e-12);
        assert!((iqr - 0.2).abs() < 1e-12);
        assert_eq!(median_and_iqr(&mut [1.5]), (1.5, 0.0));
    }

    #[test]
    fn interleaved_timing_reports_a_positive_ratio() {
        let work = |n: u64| (0..n).map(std::hint::black_box).sum::<u64>();
        let t = time_interleaved(5, || work(1_000), || work(1_000));
        assert!(t.ratio > 0.0 && t.ratio.is_finite());
        assert!(t.spread >= 0.0);
        assert!(t.a.as_nanos() > 0 && t.b.as_nanos() > 0);
    }

    #[test]
    fn timer_returns_nonzero() {
        let d = time_best_of(3, || (0..1000u64).sum::<u64>());
        assert!(d.as_nanos() > 0);
    }
}
