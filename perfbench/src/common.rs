//! Helpers shared by the workloads: order statistics, the seeded
//! schedule RNG, resource usage, and the result every workload returns.

use std::path::PathBuf;
use std::time::Duration;

/// What one workload run hands back to `main`: the operations it tried,
/// the ones that failed a check, and its metrics in print order.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for each failed check (printed to stderr).
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one checked operation; a `false` verdict is a failure with
    /// the given reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// Options every workload receives from the command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory holding the `repro` and `rft-serve` binaries.
    pub bin_dir: PathBuf,
    /// Scratch directory for reports, traces and logs.
    pub out_dir: PathBuf,
}

impl RunArgs {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// The measurement window as a duration.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// `splitmix64`: derives every input of a run from `--seed`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded stream for schedules and job choices.
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64, salt: u64) -> Self {
        SeedStream(splitmix64(seed ^ salt))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Which processes [`peak_rss_mb`] reports on.
#[derive(Debug, Clone, Copy)]
pub enum Who {
    /// This process.
    SelfProcess,
    /// The largest of the children this process has waited for.
    Children,
}

/// Peak resident set size in MiB, from `getrusage(2)`.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb(who: Who) -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 longs), then
    // `ru_maxrss` (KiB) and 13 more longs.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    let flag = match who {
        Who::SelfProcess => 0,
        Who::Children => -1,
    };
    // SAFETY: `usage` is large enough for `struct rusage` on 64-bit Linux
    // and `getrusage` writes nothing else.
    let rc = unsafe { getrusage(flag, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage[4] as f64 / 1024.0
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb(_who: Who) -> f64 {
    f64::NAN
}

/// Any JSON document, parsed into (and printed from) the serde shim's
/// data model.
pub struct Json(pub serde::Value);

impl serde::Deserialize for Json {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Json(v.clone()))
    }
}

impl serde::Serialize for Json {
    fn to_value(&self) -> serde::Value {
        self.0.clone()
    }
}

/// FNV-1a 64-bit digest (an identity check, not a MAC).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Serializes the result line: `correct`, `attempted`, `failed` and the
/// metrics with their units. Non-finite values become `null`, which the
/// caller treats as a failed run.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
