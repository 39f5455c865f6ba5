//! End-to-end benchmark for the gecko workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload attack_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload (so `peak_rss_mb` is per workload),
//! prints its report lines, and ends with one JSON result line. With
//! `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
//! the per-layer metrics, per-crate self times and the tracing overhead.
//! A failed correctness check exits with code 1 and prints no result.
//! `e2ebench/LAYERS.md` maps each per-layer metric to the end-to-end
//! metric and workload it should move.

mod check;
mod common;
mod probes;
mod serve;
mod sink;
mod sweep;
mod trace;

use common::{peak_rss_mb, Args, Outcome, Scratch, E2E_METRICS, LAYER_METRICS};
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Tracer;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n{e}",
                common::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let tracer = Tracer::new(args.trace);
    let scratch =
        Scratch::new(&args.workload, args.seed).map_err(|e| format!("scratch dir: {e}"))?;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = match args.workload.as_str() {
        "attack_sweep" => sweep::run(sweep::Kind::Attack, args, &tracer, &scratch)?,
        "harvest_sweep" => sweep::run(sweep::Kind::Harvest, args, &tracer, &scratch)?,
        "check_recheck" => check::run(args, &tracer, &scratch)?,
        "serve_mixed" => serve::run(args, &tracer, &scratch)?,
        other => return Err(format!("unknown workload {other}")),
    };
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    if let Some((missing, _)) = E2E_METRICS.iter().find(|(n, _)| !out.e2e.contains_key(n)) {
        return Err(format!("workload did not measure {missing}"));
    }
    for line in &out.lines {
        println!("{line}");
    }
    println!(
        "peak_rss_mb = {:.2} MB (VmHWM of this workload's process)",
        out.e2e["peak_rss_mb"]
    );
    println!(
        "fail_ratio = {}/{} = {} (failed / attempted ops)",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!(
        "accuracy against the paper's figures lives in EXPERIMENTS.md and is not measured here"
    );
    if args.trace {
        for (krate, ms) in tracer.self_ms() {
            let name = LAYER_METRICS
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_prefix("self_ms.") == Some(krate.as_str()))
                .ok_or_else(|| format!("span from unknown crate {krate}"))?;
            out.layer(name, ms);
        }
        out.layer("trace.spans", tracer.len() as f64);
        let path = PathBuf::from(".bench_out")
            .join("traces")
            .join(format!("{}-{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing spans: {e}"))?;
        println!("spans: {} written to {}", tracer.len(), path.display());
        print_layers(&out);
    }
    drop(scratch);
    Ok(result_line(args, &out))
}

fn print_layers(out: &Outcome) {
    for (name, unit) in LAYER_METRICS {
        let value = out.layers.get(name).copied().unwrap_or(0.0);
        println!("  {name:<32} {value:>16.4} {unit}");
    }
}

/// The last line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(args: &Args, out: &Outcome) -> String {
    let registry: &[(&str, &str)] = if args.trace {
        &LAYER_METRICS
    } else {
        &E2E_METRICS
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in registry.iter().enumerate() {
        let value = if args.trace {
            out.layers.get(name).copied().unwrap_or(0.0)
        } else {
            out.e2e[name]
        };
        // JSON has no infinity; a tail made of failed ops reads as the
        // largest finite number, over any limit.
        let value = if value.is_finite() { value } else { f64::MAX };
        let _ = write!(
            metrics,
            "{}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" }
        );
    }
    format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    )
}
