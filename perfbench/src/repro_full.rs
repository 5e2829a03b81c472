//! `repro_full`: the `repro` binary at full budget over the whole
//! registry — the paper's entire evidence base, as a user regenerates it.

use crate::common::{fnv1a, median, peak_rss_mb, Json, Outcome, RunArgs, Who};
use rft_obs::Collector;
use serde::Value;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The registry the benchmark was defined against: 16 experiments and 57
/// self-checks; a run that lists fewer fails.
const MIN_EXPERIMENTS: usize = 16;
const MIN_CHECKS: u64 = 57;
/// The exhaustive (planned-fault) sweeps.
const EXHAUSTIVE: [&str; 4] = ["fig2", "nand", "detectcov", "detectoverhead"];

/// One finished `repro` process.
struct ReproRun {
    /// The `--json` directory (and trace file) of the run.
    dir: PathBuf,
    /// Spawn until the `config:` line.
    setup_s: f64,
    /// Spawn until exit.
    wall_s: f64,
    stdout: String,
    manifest: Value,
    /// Digest of every report with its additive `resources` section
    /// removed, so traced and untraced runs compare equal.
    digest: u64,
}

/// Set-up probes per full run: `repro` started with the same arguments
/// and killed at its `config:` line, so that `setup_s` is a median over
/// several set-ups per full run.
const SETUP_PROBES: usize = 3;

/// The full-budget `repro` command line, writing its reports to `dir`.
fn repro_command(args: &RunArgs, dir: &Path, traced: bool) -> Command {
    let mut cmd = Command::new(args.bin("repro"));
    cmd.args([
        "--threads",
        "2",
        "--seed",
        &args.seed.to_string(),
        "--quiet",
        "--json",
    ])
    .arg(dir);
    if traced {
        cmd.arg("--trace")
            .arg(dir.join("trace.json"))
            .arg("--metrics");
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
    cmd
}

/// Reads `repro`'s output up to its `config:` line; returns the output
/// read and the seconds from `start` until that line (`NaN` if none).
fn read_to_config(reader: &mut impl BufRead, start: Instant) -> Result<(String, f64), String> {
    let mut stdout = String::new();
    let mut line = String::new();
    while reader.read_line(&mut line).map_err(|e| e.to_string())? > 0 {
        stdout.push_str(&line);
        if line.starts_with("config:") {
            return Ok((stdout, start.elapsed().as_secs_f64()));
        }
        line.clear();
    }
    Ok((stdout, f64::NAN))
}

/// One set-up probe: seconds from spawn until the `config:` line.
fn probe_setup(args: &RunArgs, dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let mut child = repro_command(args, dir, false)
        .spawn()
        .map_err(|e| format!("cannot start repro: {e}"))?;
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let read = read_to_config(&mut reader, start);
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(dir);
    match read? {
        (_, secs) if secs.is_finite() => Ok(secs),
        (stdout, _) => Err(format!("repro printed no config line: {stdout:?}")),
    }
}

fn spawn_repro(args: &RunArgs, dir: &Path, traced: bool) -> Result<ReproRun, String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let mut child = repro_command(args, dir, traced)
        .spawn()
        .map_err(|e| format!("cannot start repro: {e}"))?;
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let (mut stdout, setup_s) = read_to_config(&mut reader, start)?;
    reader
        .read_to_string(&mut stdout)
        .map_err(|e| e.to_string())?;
    let status = child.wait().map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("repro exited with {status}"));
    }
    let manifest = read_json(&dir.join("manifest.json"))?;
    let mut digest_input = Vec::new();
    for entry in entries(&manifest) {
        let file = field(entry, "file")
            .and_then(as_str)
            .ok_or("manifest entry without file")?;
        let mut report = read_json(&dir.join(file))?;
        if let Value::Map(fields) = &mut report {
            fields.retain(|(k, _)| k != "resources");
        }
        digest_input.extend(file.as_bytes());
        digest_input.extend(
            serde_json::to_string(&Json(report))
                .map_err(|e| e.to_string())?
                .bytes(),
        );
    }
    Ok(ReproRun {
        dir: dir.to_path_buf(),
        setup_s,
        wall_s,
        stdout,
        manifest,
        digest: fnv1a(&digest_input),
    })
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str::<Json>(&text)
        .map(|j| j.0)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

fn entries(manifest: &Value) -> &[Value] {
    match field(manifest, "experiments") {
        Some(Value::Seq(s)) => s,
        _ => &[],
    }
}

/// Wall milliseconds of experiment `id` in a manifest.
fn wall_ms(manifest: &Value, id: &str) -> f64 {
    entries(manifest)
        .iter()
        .find(|e| field(e, "id").and_then(as_str) == Some(id))
        .and_then(|e| field(e, "wall_ms"))
        .and_then(as_f64)
        .unwrap_or(f64::NAN)
}

/// A counter or gauge from the `--metrics` table `repro` prints; the
/// table omits zero counters.
fn table_value(stdout: &str, name: &str) -> f64 {
    stdout
        .lines()
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            (cols.next()? == name).then(|| cols.next()?.parse::<f64>().ok())?
        })
        .next()
        .unwrap_or(0.0)
}

/// Self-checks of one run: every experiment passed, none is missing.
fn check_run(run: &ReproRun, out: &mut Outcome) {
    let list = entries(&run.manifest);
    let mut checks = 0u64;
    for e in list {
        let id = field(e, "id").and_then(as_str).unwrap_or("?");
        checks += field(e, "checks").and_then(as_f64).unwrap_or(0.0) as u64;
        out.check(field(e, "passed") == Some(&Value::Bool(true)), || {
            format!("repro experiment {id} failed a self-check")
        });
    }
    out.check(
        list.len() >= MIN_EXPERIMENTS && checks >= MIN_CHECKS,
        || {
            format!(
                "repro ran {} experiments with {checks} self-checks; expected at least \
             {MIN_EXPERIMENTS} and {MIN_CHECKS}",
                list.len()
            )
        },
    );
}

pub fn run(args: &RunArgs, obs: &Collector) -> Outcome {
    let _workload = obs.span("repro_full");
    let mut out = Outcome::default();
    let deadline = Instant::now() + args.window();
    let mut untraced: Vec<ReproRun> = Vec::new();
    let mut traced: Vec<ReproRun> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    // At least two untraced runs (the digest comparison needs a pair); a
    // traced run alternates traced and untraced runs.
    let measure = obs.span("measure");
    let mut n = 0usize;
    while untraced.len() < 2 || (args.trace && traced.is_empty()) || Instant::now() < deadline {
        let trace_this = args.trace && n % 2 == 1;
        let dir = args.out_dir.join(format!("repro-{n}"));
        if !trace_this {
            let _call = obs.labeled_span("call.repro_setup", || format!("run {n}"));
            for _ in 0..SETUP_PROBES {
                match probe_setup(args, &args.out_dir.join("probe")) {
                    Ok(secs) => setups.push(secs),
                    Err(e) => out.check(false, || e),
                }
            }
        }
        let result = {
            let _call = obs.labeled_span("call.repro", || {
                format!("run {n}{}", if trace_this { " traced" } else { "" })
            });
            spawn_repro(args, &dir, trace_this)
        };
        n += 1;
        match result {
            Ok(run) => {
                eprintln!(
                    "[repro_full] run {}: wall {:.3} s, entropy {:.0} ms{}",
                    n - 1,
                    run.wall_s,
                    wall_ms(&run.manifest, "entropy"),
                    if trace_this { " (traced)" } else { "" }
                );
                check_run(&run, &mut out);
                if trace_this {
                    traced.push(run);
                } else {
                    untraced.push(run);
                }
            }
            Err(e) => {
                out.check(false, || e);
                break;
            }
        }
    }
    drop(measure);
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        return out;
    }

    let _phase = obs.span("check");
    let first = untraced[0].digest;
    for (i, run) in untraced.iter().chain(&traced).enumerate().skip(1) {
        out.check(run.digest == first, || {
            format!("repro run {i}: reports differ from run 0 at the same seed")
        });
    }

    if !args.trace {
        let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
        setups.extend(untraced.iter().map(|r| r.setup_s));
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", peak_rss_mb(Who::Children), "MB");
        out.metric("wall_s", median(&walls), "s");
        return out;
    }

    // Per-layer figures from the last traced run.
    let run = traced.last().expect("a traced run");
    let m = &run.manifest;
    let cfg_trials = field(m, "config")
        .and_then(|c| field(c, "trials"))
        .and_then(as_f64)
        .unwrap_or(f64::NAN);
    let walls: Vec<f64> = entries(m)
        .iter()
        .filter_map(|e| field(e, "wall_ms").and_then(as_f64))
        .collect();
    let total_ms = field(m, "wall_ms").and_then(as_f64).unwrap_or(f64::NAN);
    let entropy_ms = wall_ms(m, "entropy");
    out.metric("entropy.wall_ms", entropy_ms, "ms");
    // The entropy experiment's scheduled scalar trials: at each of its
    // 4 rates, two programs (1 and 3 cycles) get trials/2 at level 1 and
    // trials/8 at level 2, i.e. 5 x trials in all.
    out.metric(
        "entropy.trials_per_s",
        5.0 * cfg_trials / (entropy_ms / 1e3),
        "trials/s",
    );
    out.metric(
        "exhaustive.wall_ms",
        EXHAUSTIVE.iter().map(|id| wall_ms(m, id)).sum::<f64>(),
        "ms",
    );
    out.metric(
        "sched.critical_path_ms",
        walls.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    out.metric(
        "sched.busy_frac",
        walls.iter().sum::<f64>() / (2.0 * total_ms),
        "frac",
    );
    out.metric(
        "sched.steals",
        table_value(&run.stdout, "sched.steals"),
        "count",
    );
    for (name, unit) in [
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.evictions", "count"),
        ("cache.bytes", "bytes"),
    ] {
        out.metric(name, table_value(&run.stdout, name), unit);
    }
    out.metric(
        "engine.compile_ms",
        table_value(&run.stdout, "engine.compile_ns") / 1e6,
        "ms",
    );
    out.metric(
        "engine.lower_ms",
        table_value(&run.stdout, "engine.lower_ns") / 1e6,
        "ms",
    );
    out.metric(
        "engine.compiles",
        table_value(&run.stdout, "engine.compiles"),
        "count",
    );
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    let untraced_walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    out.metric(
        "trace.overhead_frac",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
        "frac",
    );
    out.metric(
        "failed_frac",
        out.failed as f64 / out.attempted as f64,
        "frac",
    );
    // The repro trace lands next to the benchmark's own for validation.
    let _ = std::fs::copy(
        run.dir.join("trace.json"),
        args.out_dir.join("trace-repro.json"),
    );
    out
}
