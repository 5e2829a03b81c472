//! `serve_jobs`: the real `rft-serve` binary over loopback, driven by
//! one process with two keep-alive connections.
//!
//! * Phase `quick` — open loop: a seeded Poisson schedule of one-round
//!   level-1 Toffoli jobs at two fixed rates (and, in a traced run, a
//!   ladder of rates up to capacity). Each request is timed from when it
//!   was due, so a stall also charges the requests queued behind it.
//!   Compute is a small share of these round trips: the phase measures
//!   HTTP read/parse, admission, the thread budget and serialize/write.
//! * Phase `stream` — closed loop on the same two connections: multi-
//!   round jobs drawn from a small pool of distinct specs, two threads
//!   per job, so the jobs contend for the daemon's two-thread budget and
//!   the compile cache misses once per spec, then hits.
//!
//! Request bodies are JSON text; the daemon receives only the generated
//! requests and the `GET /stats` snapshots.

use crate::common::{median, quantile, Outcome, RunArgs, SeedStream};
use rft_analysis::experiment::CompileCache;
use rft_analysis::job::{run_job, JobRecord};
use rft_obs::Collector;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Daemon sessions per run: one per `SESSION_SECONDS` of the window, at
/// least one and at most `MAX_SESSIONS` (8 in a 30 s window). Each session
/// starts a fresh daemon and runs both phases. The stream latencies are
/// the best session's: on a shared VM, host CPU steal slows whole
/// stretches of a run, while a regression in the code slows every
/// session. `peak_rss_mb` is the largest session's. The traced run's
/// quick-job percentiles pool all sessions.
const SESSION_SECONDS: f64 = 3.75;
const MAX_SESSIONS: usize = 8;
/// Daemon set-ups per session (the session's own and extra ones);
/// `setup_s` is their median.
const SETUPS_PER_SESSION: usize = 3;
/// The `.low` and `.high` open-loop operating points `(rate/s,
/// requests)`, alternated [`POINT_REPS`] times per session.
const LOW: (f64, usize) = (500.0, 250);
const HIGH: (f64, usize) = (1500.0, 375);
const POINT_REPS: usize = 2;
/// The capacity ladder: rates from `LADDER_START`/s in steps of
/// `LADDER_STEP`/s, [`LADDER_REQUESTS`] requests each, up to the first
/// rate that misses a limit twice in a row (one retry absorbs a single
/// stall of the machine).
const LADDER_START: f64 = 2000.0;
const LADDER_STEP: f64 = 250.0;
const LADDER_MAX: f64 = 8000.0;
const LADDER_REQUESTS: usize = 800;
/// The stream phase runs at least this long in every session.
const MIN_STREAM: Duration = Duration::from_millis(1000);
/// Latency limit on the quick job's p99, from its due time.
const P99_LIMIT_US: f64 = 10_000.0;
/// Lag growth (last quarter of a step against its first quarter) that
/// marks a generator falling behind its schedule.
const LAG_GROWTH_LIMIT_US: f64 = 2_000.0;
/// The generator sleeps until this long before a request is due, then
/// spins, so that its own wake-up latency stays out of the lag.
const SPIN: Duration = Duration::from_micros(200);
/// Stream jobs per session whose final lines are replayed through
/// `repro replay` (one quick job of every operating-point step is, too).
const REPLAYS_PER_SESSION: usize = 1;
/// Rounds of every stream job.
const STREAM_ROUNDS: u32 = 8;

/// The quick job: `JobSpec::quick()`'s shape with a per-request seed.
fn quick_body(seed: u64) -> String {
    format!(
        concat!(
            r#"{{"schema_version":1,"spec":{{"circuit":{{"Concat":{{"level":1,"#,
            r#""gate":{{"Toffoli":{{"controls":[0,1],"target":2}}}},"cycles":1}}}},"#,
            r#""noise":{{"Uniform":{{"g":0.006060606060606061}}}},"seed":{},"#,
            r#""estimator":"Plain","backend":"Auto","width":"Auto","#,
            r#""trials_per_round":4096,"max_rounds":1,"target_rel_half_width":null}}}}"#
        ),
        seed
    )
}

/// The stream pool: a level-2 concatenated program, the §2.2 transversal
/// cycle and a parity-checked adder, each over several rounds.
fn stream_body(kind: usize, seed: u64) -> String {
    let (circuit, g, estimator, trials) = match kind {
        0 => (
            r#"{"Concat":{"level":2,"gate":{"Toffoli":{"controls":[0,1],"target":2}},"cycles":1}}"#,
            "0.001",
            r#""Auto""#,
            16384,
        ),
        1 => (
            r#"{"Cycle":{"gate":{"Toffoli":{"controls":[0,1],"target":2}}}}"#,
            "0.006060606060606061",
            r#""Plain""#,
            65536,
        ),
        _ => (
            r#"{"DetectAdder":{"width":8,"kind":"Ripple","mode":"Detected"}}"#,
            "0.001",
            r#""Plain""#,
            32768,
        ),
    };
    format!(
        r#"{{"schema_version":1,"spec":{{"circuit":{circuit},"noise":{{"Uniform":{{"g":{g}}}}},"seed":{seed},"estimator":{estimator},"backend":"Auto","width":"Auto","trials_per_round":{trials},"max_rounds":{STREAM_ROUNDS},"target_rel_half_width":null}}}}"#
    )
}

const STREAM_KINDS: usize = 3;

// ---------------------------------------------------------------------------
// Daemon and client
// ---------------------------------------------------------------------------

/// A running `rft-serve`; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(args: &RunArgs, log: &Path) -> Result<(Daemon, Duration), String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let start = Instant::now();
        let mut child = Command::new(args.bin("rft-serve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--threads-per-job",
                "2",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start rft-serve: {e}"))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let elapsed = start.elapsed();
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr.to_string();
                Ok((daemon, elapsed))
            }
            _ => Err(format!("rft-serve did not report its address: {line:?}")),
        }
    }

    /// CPU seconds the daemon has used so far, all threads (user +
    /// system, from `/proc/<pid>/stat`); CPU time the host stole from the
    /// VM is not in it.
    fn cpu_s(&self) -> f64 {
        extern "C" {
            fn sysconf(name: i32) -> i64;
        }
        const SC_CLK_TCK: i32 = 2;
        // SAFETY: `sysconf` reads a constant of the C library.
        let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) } as f64;
        std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .ok()
            .and_then(|stat| {
                // Fields after the parenthesised command name start at
                // field 3; utime and stime are fields 14 and 15.
                let rest = &stat[stat.rfind(')')? + 1..];
                let f: Vec<&str> = rest.split_whitespace().collect();
                Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
            })
            .map_or(f64::NAN, |ticks| ticks / ticks_per_s)
    }

    /// The daemon's peak resident set so far (`VmHWM`), in MiB.
    fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|status| {
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(f64::NAN, |kib| kib / 1024.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One keep-alive connection.
struct Conn {
    addr: String,
    reader: Option<BufReader<TcpStream>>,
}

/// A job request's outcome, timed from the moment it was written.
#[derive(Default)]
struct Reply {
    status: u16,
    /// Write until the status line arrived.
    ttfb: Duration,
    /// Write until the first NDJSON line arrived.
    first_line: Option<Duration>,
    /// Write until the response ended.
    done: Duration,
    lines: Vec<String>,
}

impl Reply {
    /// The final NDJSON line, if the job completed.
    fn final_line(&self) -> Option<&str> {
        self.lines
            .last()
            .map(String::as_str)
            .filter(|l| l.starts_with(r#"{"kind":"final""#))
    }

    fn ok(&self) -> bool {
        self.status == 200 && self.final_line().is_some()
    }
}

impl Conn {
    fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            reader: None,
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            self.reader = Some(BufReader::new(stream));
        }
        let result = self.exchange(method, path, body);
        if !matches!(&result, Ok((_, true))) {
            // Closed by the server, or broken: reconnect next time.
            self.reader = None;
        }
        result.map(|(reply, _)| reply)
    }

    /// Writes one request and reads its framed response; the flag tells
    /// whether the connection stays open.
    fn exchange(&mut self, method: &str, path: &str, body: &str) -> Result<(Reply, bool), String> {
        let reader = self.reader.as_mut().expect("connected");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        );
        let start = Instant::now();
        reader
            .get_mut()
            .write_all(request.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = Reply::default();
        let mut line = String::new();
        read_line(reader, &mut line)?;
        reply.ttfb = start.elapsed();
        reply.status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let (mut chunked, mut length, mut keep_alive) = (false, 0usize, true);
        loop {
            read_line(reader, &mut line)?;
            let header = line.trim_end().to_ascii_lowercase();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                match (name.trim(), value.trim()) {
                    ("transfer-encoding", v) => chunked = v == "chunked",
                    ("content-length", v) => length = v.parse().map_err(|_| "bad length")?,
                    ("connection", v) => keep_alive = v != "close",
                    _ => {}
                }
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                read_line(reader, &mut line)?;
                let size = usize::from_str_radix(line.trim(), 16)
                    .map_err(|_| format!("bad chunk size {line:?}"))?;
                let mut chunk = vec![0u8; size + 2];
                reader.read_exact(&mut chunk).map_err(|e| e.to_string())?;
                if size == 0 {
                    break;
                }
                body.extend_from_slice(&chunk[..size]);
                if reply.first_line.is_none() && body.contains(&b'\n') {
                    reply.first_line = Some(start.elapsed());
                }
            }
        } else {
            body.resize(length, 0);
            reader.read_exact(&mut body).map_err(|e| e.to_string())?;
        }
        reply.done = start.elapsed();
        reply.lines = String::from_utf8_lossy(&body)
            .lines()
            .map(str::to_string)
            .collect();
        Ok((reply, keep_alive))
    }

    fn stats(&mut self) -> Result<Stats, String> {
        let reply = self.request("GET", "/stats", "")?;
        let text = reply.lines.join("\n");
        Ok(Stats { text })
    }
}

fn read_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> Result<(), String> {
    line.clear();
    match reader.read_line(line) {
        Ok(0) => Err("connection closed mid-response".into()),
        Ok(_) => Ok(()),
        Err(e) => Err(e.to_string()),
    }
}

/// A `GET /stats` snapshot.
struct Stats {
    text: String,
}

impl Stats {
    /// A top-level numeric field (`/stats` is one flat JSON object).
    fn get(&self, key: &str) -> f64 {
        let pat = format!("\"{key}\":");
        self.text
            .find(&pat)
            .and_then(|at| {
                let rest = &self.text[at + pat.len()..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                rest[..end].trim().parse().ok()
            })
            .unwrap_or(f64::NAN)
    }

    fn budget_busy_frac(&self) -> f64 {
        1.0 - self.get("budget_available") / self.get("budget_capacity")
    }
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// One request of the open-loop schedule, as measured.
#[derive(Clone, Copy, Default)]
struct Sample {
    /// Due until the response ended.
    latency_us: f64,
    /// Due until the request was written (the generator's lag).
    lag_us: f64,
    ttfb_us: f64,
    ok: bool,
}

/// What the load generator keeps for the output checks.
#[derive(Default)]
struct Kept {
    /// `(request body, served final line)` pairs to replay offline.
    replays: Vec<(String, String)>,
    failures: Vec<String>,
    /// Stream jobs posted (quick requests are counted by their samples).
    stream_posts: usize,
    stats: Vec<Stats>,
}

/// One open-loop step: `n` requests at `rate`/s over both connections.
fn open_loop_step(
    conns: &mut [Conn; 2],
    rate: f64,
    n: usize,
    seed: u64,
    replay: bool,
    keep: &Mutex<Kept>,
    obs: &Collector,
) -> Vec<Sample> {
    let mut rng = SeedStream::new(seed, rate.to_bits());
    let mut at = 0.0;
    let schedule: Vec<(f64, u64)> = (0..n)
        .map(|_| {
            at += rng.exp_gap(rate);
            (at, rng.next_u64())
        })
        .collect();
    // One seeded request of every operating-point step is replayed.
    let replay_at = if replay {
        (rng.next_u64() % n as u64) as usize
    } else {
        usize::MAX
    };
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(vec![Sample::default(); n]);
    let t0 = Instant::now() + Duration::from_millis(5);
    let [c0, c1] = conns;
    let worker = |conn: &mut Conn| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let (offset, job_seed) = schedule[i];
        let job = || format!("job-{job_seed:016x}");
        let _request = obs.labeled_span("request", job);
        let due = t0 + Duration::from_secs_f64(offset);
        {
            let _wait = obs.labeled_span("request.wait", job);
            if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                std::thread::sleep(wait);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        let sent = Instant::now();
        let body = quick_body(job_seed);
        let reply = {
            let _exchange = obs.labeled_span("request.exchange", job);
            conn.request("POST", "/jobs", &body)
        };
        let done = Instant::now();
        let mut sample = Sample {
            latency_us: (done - due).as_secs_f64() * 1e6,
            lag_us: (sent - due).as_secs_f64() * 1e6,
            ..Sample::default()
        };
        match reply {
            Ok(r) => {
                sample.ttfb_us = r.ttfb.as_secs_f64() * 1e6;
                sample.ok = r.ok();
                if sample.ok && i == replay_at {
                    let line = r.final_line().unwrap_or_default().to_string();
                    keep.lock().unwrap().replays.push((body, line));
                } else if !sample.ok {
                    keep.lock().unwrap().failures.push(format!(
                        "quick job at {rate}/s: status {}, {} lines",
                        r.status,
                        r.lines.len()
                    ));
                }
            }
            Err(e) => keep
                .lock()
                .unwrap()
                .failures
                .push(format!("quick job at {rate}/s: {e}")),
        }
        samples.lock().unwrap()[i] = sample;
    };
    std::thread::scope(|s| {
        s.spawn(|| worker(c1));
        worker(c0);
    });
    samples.into_inner().unwrap()
}

/// Latency percentiles and lag growth of one step.
struct StepStats {
    ttfb_p50_us: f64,
    p50_us: f64,
    p99_us: f64,
    lag_p99_us: f64,
    lag_growth_us: f64,
}

fn step_stats(samples: &[Sample]) -> StepStats {
    // A failed request misses every latency limit.
    let lat: Vec<f64> = samples
        .iter()
        .map(|s| if s.ok { s.latency_us } else { f64::INFINITY })
        .collect();
    let lag: Vec<f64> = samples.iter().map(|s| s.lag_us).collect();
    let q = samples.len() / 4;
    let ttfb: Vec<f64> = samples.iter().map(|s| s.ttfb_us).collect();
    StepStats {
        ttfb_p50_us: median(&ttfb),
        p50_us: quantile(&lat, 0.5),
        p99_us: quantile(&lat, 0.99),
        lag_p99_us: quantile(&lag, 0.99),
        lag_growth_us: median(&lag[lag.len() - q..]) - median(&lag[..q]),
    }
}

/// How far a step is over its limits: above 1 fails.
fn badness(s: &StepStats) -> f64 {
    (s.p99_us / P99_LIMIT_US).max(s.lag_growth_us / LAG_GROWTH_LIMIT_US)
}

/// The rate at which the badness crosses 1, interpolated in log space
/// between the last passing and the first failing ladder step.
fn max_rate(ladder: &[(f64, f64)]) -> f64 {
    let Some(fail) = ladder.iter().position(|&(_, b)| b > 1.0) else {
        return ladder.last().map_or(f64::NAN, |l| l.0);
    };
    if fail == 0 {
        return ladder[0].0;
    }
    let (r1, b1) = ladder[fail - 1];
    let (r2, b2) = ladder[fail];
    let t = -b1.max(1e-9).ln() / (b2.ln() - b1.max(1e-9).ln());
    r1 + (r2 - r1) * t.clamp(0.0, 1.0)
}

/// The closed-loop stream phase: each connection posts pool jobs back to
/// back until `until`. Returns `(spec, first line ms, job ms)` per job.
fn stream_phase(
    conns: &mut [Conn; 2],
    seed: u64,
    until: Instant,
    keep: &Mutex<Kept>,
    sample_stats: bool,
    obs: &Collector,
) -> Vec<(usize, f64, f64)> {
    let timings = Mutex::new(Vec::new());
    let [c0, c1] = conns;
    let worker = |conn: &mut Conn, lane: u64| {
        let mut rng = SeedStream::new(seed, 0x5757_0000 + lane);
        let mut n = 0usize;
        // Kinds come in seeded permutations of the pool, so that every
        // run posts the same mix.
        let mut kinds = Vec::new();
        while n == 0 || Instant::now() < until {
            if kinds.is_empty() {
                kinds = (0..STREAM_KINDS).collect();
                for i in (1..kinds.len()).rev() {
                    kinds.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                }
            }
            let kind = kinds.pop().expect("refilled");
            let job_seed = rng.next_u64();
            let body = stream_body(kind, job_seed);
            let reply = {
                let _span = obs.labeled_span("request", || format!("job-{job_seed:016x}"));
                conn.request("POST", "/jobs", &body)
            };
            keep.lock().unwrap().stream_posts += 1;
            match reply {
                Ok(r) if r.ok() => {
                    let first = r.first_line.unwrap_or(r.done);
                    timings.lock().unwrap().push((
                        kind,
                        first.as_secs_f64() * 1e3,
                        r.done.as_secs_f64() * 1e3,
                    ));
                    if n < REPLAYS_PER_SESSION && lane == 0 {
                        let line = r.final_line().unwrap_or_default().to_string();
                        keep.lock().unwrap().replays.push((body, line));
                    }
                }
                Ok(r) => keep.lock().unwrap().failures.push(format!(
                    "stream job {kind}: status {}, last line {:?}",
                    r.status,
                    r.lines.last()
                )),
                Err(e) => keep
                    .lock()
                    .unwrap()
                    .failures
                    .push(format!("stream job {kind}: {e}")),
            }
            n += 1;
            // Connection 0 samples the daemon between its jobs, while the
            // other connection's job holds the budget.
            if sample_stats && lane == 0 {
                if let Ok(s) = conn.stats() {
                    keep.lock().unwrap().stats.push(s);
                }
            }
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| worker(c1, 1));
        worker(c0, 0);
    });
    timings.into_inner().unwrap()
}

/// The in-process floor under the served quick job: `run_job` on the
/// identical record with a warm cache, median microseconds.
fn offline_quick_us(seed: u64) -> f64 {
    let cache = CompileCache::new();
    let obs = Collector::disabled();
    let mut rng = SeedStream::new(seed, 0x0ff1);
    let times: Vec<f64> = (0..300)
        .map(|_| {
            let record: JobRecord =
                serde_json::from_str(&quick_body(rng.next_u64())).expect("quick job parses");
            let t = Instant::now();
            let done = run_job(&cache, &obs, &record, 2);
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert!(done.is_ok(), "quick job runs offline");
            us
        })
        .collect();
    median(&times[50..])
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

/// Everything one daemon session measured.
#[derive(Default)]
struct Session {
    /// Spawn until `listening on`, plus the first (cold-cache) job.
    setup_s: f64,
    /// The daemon's peak resident set.
    peak_rss_mb: f64,
    low: Vec<Sample>,
    high: Vec<Sample>,
    /// Traced runs only: low-rate samples taken with spans off.
    untraced_low: Vec<Sample>,
    max_rps: f64,
    /// `(spec, first line ms, job ms)` per completed stream job.
    streams: Vec<(usize, f64, f64)>,
    quick_posts: usize,
    /// Daemon CPU seconds over the operating points, and their requests.
    quick_cpu: (f64, usize),
    /// Daemon CPU seconds over the stream phase.
    stream_cpu_s: f64,
    /// `/stats` at the start, after the quick phase and at the end.
    snapshots: Vec<Stats>,
}

impl Session {
    /// Geometric mean over the pool's specs of each spec's median timing:
    /// the specs' timings differ severalfold, and a median over the mixed
    /// jobs would jump between specs with the mix a session ran.
    fn stream_p50(&self, timing: fn(&(usize, f64, f64)) -> f64) -> f64 {
        let log_sum: f64 = (0..STREAM_KINDS)
            .map(|k| {
                let of_k: Vec<f64> = self
                    .streams
                    .iter()
                    .filter(|t| t.0 == k)
                    .map(timing)
                    .collect();
                median(&of_k).ln()
            })
            .sum();
        (log_sum / STREAM_KINDS as f64).exp()
    }
}

/// Starts a daemon and runs its first, cold-cache job; returns the daemon
/// and the seconds from spawn until that job's final line.
fn start_daemon(
    args: &RunArgs,
    index: usize,
    seed: u64,
    obs: &Collector,
) -> Result<(Daemon, f64), String> {
    let _phase = obs.span("setup");
    let log = args.out_dir.join(format!("rft-serve-{index}.log"));
    let (daemon, listen) = Daemon::start(args, &log)?;
    let t = Instant::now();
    let reply = Conn::new(&daemon.addr).request("POST", "/jobs", &quick_body(seed))?;
    if !reply.ok() {
        return Err(format!("cold quick job: status {}", reply.status));
    }
    Ok((daemon, (listen + t.elapsed()).as_secs_f64()))
}

/// One daemon's life: start it, run both phases against it until
/// `until`, stop it.
fn session(
    args: &RunArgs,
    index: usize,
    until: Instant,
    keep: &Mutex<Kept>,
    obs: &Collector,
) -> Result<Session, String> {
    let _span = obs.labeled_span("session", || format!("session {index}"));
    let mut s = Session::default();
    let seed = args.seed ^ (index as u64) << 48;
    let (daemon, setup_s) = start_daemon(args, index, seed, obs)?;
    s.setup_s = setup_s;
    let mut conns = [Conn::new(&daemon.addr), Conn::new(&daemon.addr)];
    s.snapshots.push(conns[0].stats()?);

    let mut step_no = 0u64;
    let mut step = |conns: &mut [Conn; 2], (rate, n): (f64, usize), obs: &Collector| {
        step_no += 1;
        let replay = [LOW, HIGH].contains(&(rate, n));
        let samples = open_loop_step(conns, rate, n, seed ^ step_no << 40, replay, keep, obs);
        let stats = step_stats(&samples);
        eprintln!(
            "[serve_jobs] session {index}, quick {rate}/s: p50 {:.0} us, p99 {:.0} us, \
             lag p99 {:.0} us, lag growth {:.0} us",
            stats.p50_us, stats.p99_us, stats.lag_p99_us, stats.lag_growth_us,
        );
        (stats, samples)
    };

    // Phase quick: the two operating points, alternated, then the
    // capacity ladder.
    {
        let _phase = obs.span("quick");
        let cpu = daemon.cpu_s();
        for _ in 0..POINT_REPS {
            if args.trace {
                // The untraced reference for the tracing overhead.
                s.untraced_low
                    .extend(step(&mut conns, LOW, &Collector::disabled()).1);
            }
            for point in [LOW, HIGH] {
                let _step = obs.labeled_span("quick.step", || format!("{}/s", point.0));
                let samples = step(&mut conns, point, obs).1;
                if point == LOW {
                    &mut s.low
                } else {
                    &mut s.high
                }
                .extend(samples);
            }
        }
        s.quick_cpu = (
            daemon.cpu_s() - cpu,
            s.low.len() + s.high.len() + s.untraced_low.len(),
        );
        // The capacity ladder is noisier than any bound allows, so it
        // runs only in a traced run, as a per-layer figure.
        if args.trace {
            let mut ladder = Vec::new();
            let mut rate = LADDER_START;
            while rate <= LADDER_MAX {
                let _step = obs.labeled_span("quick.step", || format!("{rate}/s"));
                let mut bad = f64::INFINITY;
                for _attempt in 0..2 {
                    let (stats, samples) = step(&mut conns, (rate, LADDER_REQUESTS), obs);
                    s.quick_posts += samples.len();
                    bad = bad.min(badness(&stats));
                    if bad <= 1.0 {
                        break;
                    }
                }
                ladder.push((rate, bad));
                if bad > 1.0 {
                    break;
                }
                rate += LADDER_STEP;
            }
            s.max_rps = max_rate(&ladder);
        }
    }
    s.quick_posts += s.low.len() + s.high.len() + s.untraced_low.len();
    s.snapshots.push(conns[0].stats()?);

    // Phase stream: the rest of the session's share of the window.
    {
        let _phase = obs.span("stream");
        let until = until.max(Instant::now() + MIN_STREAM);
        let cpu = daemon.cpu_s();
        s.streams = stream_phase(&mut conns, seed, until, keep, args.trace, obs);
        s.stream_cpu_s = daemon.cpu_s() - cpu;
    }
    s.snapshots.push(conns[0].stats()?);
    s.peak_rss_mb = daemon.peak_rss_mb();
    eprintln!(
        "[serve_jobs] session {index}: set-up {:.2} ms, quick p50 {:.0} / {:.0} us, \
         max {:.0}/s, stream first line {:.2} ms, job {:.2} ms ({} jobs), {:.1} MB",
        s.setup_s * 1e3,
        step_stats(&s.low).p50_us,
        step_stats(&s.high).p50_us,
        s.max_rps,
        s.stream_p50(|t| t.1),
        s.stream_p50(|t| t.2),
        s.streams.len(),
        s.peak_rss_mb,
    );
    Ok(s)
}

pub fn run(args: &RunArgs, obs: &Collector) -> Outcome {
    let _workload = obs.span("serve_jobs");
    let mut out = Outcome::default();
    let keep = Mutex::new(Kept::default());
    let started = Instant::now();
    let n_sessions = ((args.seconds / SESSION_SECONDS).round() as usize).clamp(1, MAX_SESSIONS);

    // Extra set-ups: daemons started, given their cold job and stopped,
    // so that `setup_s` is a median over `SETUPS_PER_SESSION` per session.
    let mut setups = Vec::new();
    for i in n_sessions..SETUPS_PER_SESSION * n_sessions {
        match start_daemon(args, i, args.seed ^ (i as u64) << 48, obs) {
            Ok((_daemon, secs)) => setups.push(secs),
            Err(e) => {
                out.check(false, || format!("set-up {i}: {e}"));
                return out;
            }
        }
    }

    // Sessions split the window evenly; each starts a fresh daemon, so
    // that a daemon's placement on the machine averages out.
    let mut sessions = Vec::new();
    for i in 0..n_sessions {
        let until = started + args.window().mul_f64((i + 1) as f64 / n_sessions as f64);
        match session(args, i, until, &keep, obs) {
            Ok(s) => sessions.push(s),
            Err(e) => {
                out.check(false, || format!("session {i}: {e}"));
                return out;
            }
        }
    }

    // Checks: every request answered with a final line, and a seeded
    // sample of final lines replays byte-for-byte offline.
    let _phase = obs.span("check");
    let keep = keep.into_inner().unwrap();
    let quick_posts: usize = sessions.iter().map(|s| s.quick_posts).sum();
    out.attempted += (quick_posts + keep.stream_posts) as u64;
    for problem in keep.failures {
        out.failed += 1;
        out.problems.push(problem);
    }
    for (i, (body, served)) in keep.replays.iter().enumerate() {
        let _call = obs.labeled_span("call.repro_replay", || format!("replay {i}"));
        let replayed = replay(args, i, body);
        out.check(
            replayed.as_deref() == Ok(served.as_str()),
            || match replayed {
                Ok(line) => format!(
                    "repro replay differs from the served final line:\n  served   {served}\n  \
                 replayed {line}"
                ),
                Err(e) => format!("repro replay failed: {e}"),
            },
        );
    }

    let pooled = |f: fn(&Session) -> &Vec<Sample>| {
        step_stats(
            &sessions
                .iter()
                .flat_map(|s| f(s).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let (low, high) = (pooled(|s| &s.low), pooled(|s| &s.high));
    let values = |f: fn(&Session) -> f64| sessions.iter().map(f).collect::<Vec<_>>();
    let least = |f| values(f).into_iter().fold(f64::INFINITY, f64::min);
    let most = |f| values(f).into_iter().fold(f64::NEG_INFINITY, f64::max);

    if !args.trace {
        setups.extend(values(|s| s.setup_s));
        out.metric("setup_s", median(&setups), "s");
        out.metric("peak_rss_mb", most(|s| s.peak_rss_mb), "MB");
        out.metric("wall_s", least(|s| s.stream_p50(|t| t.2)) / 1e3, "s");
        return out;
    }

    out.metric(
        "stream_first_line_ms",
        least(|s| s.stream_p50(|t| t.1)),
        "ms",
    );
    out.metric("stream_job_ms", least(|s| s.stream_p50(|t| t.2)), "ms");

    let offline = offline_quick_us(args.seed);
    out.metric("quick_p50_us.low", low.p50_us, "us");
    out.metric("quick_p50_us.high", high.p50_us, "us");
    out.metric("quick_max_rps", most(|s| s.max_rps), "1/s");
    out.metric("quick_p99_us.low", low.p99_us, "us");
    out.metric("quick_p99_us.high", high.p99_us, "us");
    out.metric("serve.ttfb_us", low.ttfb_p50_us, "us");
    out.metric("job.offline_quick_us", offline, "us");
    out.metric("serve.overhead_us", low.p50_us - offline, "us");
    let sum = |f: fn(&Session) -> f64| values(f).iter().sum::<f64>();
    out.metric(
        "serve.cpu_us_per_quick",
        sum(|s| s.quick_cpu.0) * 1e6 / sum(|s| s.quick_cpu.1 as f64),
        "us",
    );
    out.metric(
        "serve.cpu_ms_per_stream_job",
        sum(|s| s.stream_cpu_s) * 1e3 / sum(|s| s.streams.len() as f64),
        "ms",
    );
    // Counters: totals over the sessions' daemons.
    let delta = |key: &str| {
        sessions
            .iter()
            .map(|s| s.snapshots[2].get(key) - s.snapshots[0].get(key))
            .sum::<f64>()
    };
    for (name, key) in [
        ("serve.shed", "shed"),
        ("serve.rejected", "rejected"),
        ("serve.timeouts", "timeouts"),
        ("cache.hits", "cache_hits"),
        ("cache.misses", "cache_misses"),
        ("cache.evictions", "cache_evictions"),
    ] {
        out.metric(name, delta(key), "count");
    }
    out.metric(
        "cache.bytes",
        median(&values(|s| s.snapshots[2].get("cache_bytes"))),
        "bytes",
    );
    let sampled = sessions
        .iter()
        .flat_map(|s| &s.snapshots)
        .chain(&keep.stats);
    out.metric(
        "serve.queue_depth_max",
        sampled
            .map(|s| s.get("queued_connections"))
            .fold(0.0, f64::max),
        "count",
    );
    let busy: Vec<f64> = keep.stats.iter().map(Stats::budget_busy_frac).collect();
    out.metric(
        "serve.budget_busy_frac",
        busy.iter().sum::<f64>() / busy.len().max(1) as f64,
        "frac",
    );
    out.metric("loadgen.lag_ms", high.lag_p99_us / 1e3, "ms");
    out.metric(
        "trace.overhead_frac",
        low.p50_us / pooled(|s| &s.untraced_low).p50_us - 1.0,
        "frac",
    );
    out.metric(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "frac",
    );
    out
}

/// Replays one served job offline and returns its final line.
fn replay(args: &RunArgs, i: usize, body: &str) -> Result<String, String> {
    let path = args.out_dir.join(format!("replay-{i}.json"));
    std::fs::write(&path, body).map_err(|e| e.to_string())?;
    let output = Command::new(args.bin("repro"))
        .arg("replay")
        .arg(&path)
        .args(["--threads", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start repro replay: {e}"))?;
    if !output.status.success() {
        return Err(format!("repro replay exited with {}", output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .trim_end()
        .to_string())
}
