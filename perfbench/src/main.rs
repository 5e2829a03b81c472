//! Benchmark runner: runs one named workload against the repository's
//! library and binaries, checks its outputs, and prints one JSON result
//! line (end-to-end metrics, or per-layer metrics with `--trace 1`).
//!
//! ```text
//! rft-perfbench --workload repro_full|estimate_grid|serve_jobs --seed N
//!               --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds everything
//! first and validates the Chrome traces a traced run writes.

mod common;
mod grid;
mod repro_full;
mod serve_jobs;

use common::{result_line, Outcome, RunArgs};
use rft_obs::Collector;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: rft-perfbench --workload repro_full|estimate_grid|serve_jobs \
     --seed N --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR";

fn parse() -> Result<(String, RunArgs), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut args = RunArgs {
        seed: 0,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::new(),
        out_dir: PathBuf::new(),
    };
    for pair in raw.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--bin-dir" => args.bin_dir = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, args))
}

fn main() -> ExitCode {
    let (workload, args) = match parse() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("rft-perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "rft-perfbench: cannot create {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::FAILURE;
    }
    // The benchmark's own spans; recorded only in a traced run.
    let obs = if args.trace {
        Collector::new()
    } else {
        Collector::disabled()
    };
    let outcome: Outcome = match workload.as_str() {
        "repro_full" => repro_full::run(&args, &obs),
        "estimate_grid" => grid::run(&args, &obs),
        "serve_jobs" => serve_jobs::run(&args, &obs),
        other => {
            eprintln!("rft-perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for problem in &outcome.problems {
        eprintln!("rft-perfbench: CHECK FAILED: {problem}");
    }
    if args.trace {
        let path = args.out_dir.join(format!("trace-{workload}.json"));
        if let Err(e) = std::fs::write(&path, obs.trace_json()) {
            eprintln!("rft-perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let finite = outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        eprintln!("rft-perfbench: a metric could not be measured");
    }
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 && finite {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
