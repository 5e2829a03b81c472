//! Distribution equivalence of the engine's O(faults) fault source with
//! the samplers it replaced.
//!
//! The retired samplers live on here as test oracles, rebuilt from the
//! engine's public per-op fault probabilities:
//!
//! - the per-op mask sampler: one exact `Binomial(64, p)` CDF draw per op
//!   per word, then uniform lane placement;
//! - the stratified conditional sampler: per lane, the exact sequential
//!   split of `K` over the rate groups, then uniform placement of each
//!   group's share.
//!
//! Each test draws the same number of word schedules from the engine
//! ([`Engine::sample_faults`], [`Engine::sample_faults_exactly`]) and from
//! the oracle, on independent streams, and compares the two histograms
//! with a two-sample chi-square test at `α = 10⁻⁶`. The noise model has
//! two rate groups (gates and resets), so the group split of the
//! conditioned source is covered, and the plain source's geometric skip
//! runs from dense groups (`q ≈ 0.8` for the resets at `g = 1/165`) down
//! to a group longer than its gap table, whose gaps mostly overrun the
//! table's last bucket and are drawn again.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rft_revsim::prelude::*;

/// A recovery-shaped circuit of 12 ops per block: resets, fan-outs and
/// majority votes, so gates and resets alternate throughout the stream.
fn circuit_of(blocks: usize) -> Circuit {
    let mut c = Circuit::new(9);
    for _ in 0..blocks {
        c.init(&[w(3), w(4), w(5)])
            .init(&[w(6), w(7), w(8)])
            .maj_inv(w(0), w(3), w(6))
            .maj_inv(w(1), w(4), w(7))
            .maj_inv(w(2), w(5), w(8))
            .cnot(w(0), w(3))
            .toffoli(w(1), w(4), w(7))
            .swap(w(2), w(5))
            .maj(w(0), w(1), w(2))
            .maj(w(3), w(4), w(5))
            .maj(w(6), w(7), w(8))
            .not(w(8));
    }
    c
}

/// 96 ops: 16 resets and 80 gates.
fn circuit() -> Circuit {
    circuit_of(8)
}

/// Two rate groups: resets fault at four times the gate rate.
fn noise(g: f64) -> SplitNoise {
    SplitNoise::new(g, 4.0 * g)
}

/// The retired per-op sampler: the CDF of `Binomial(64, p)`.
struct MaskSampler {
    cdf: Vec<f64>,
}

impl MaskSampler {
    fn new(p: f64) -> Self {
        let mut cdf = vec![1.0; 65];
        let ratio = p / (1.0 - p);
        let mut pmf = (1.0 - p).powi(64);
        let mut acc = 0.0;
        for (k, c) in cdf.iter_mut().enumerate().take(64) {
            acc += pmf;
            *c = acc.min(1.0);
            pmf *= ratio * (64 - k) as f64 / (k + 1) as f64;
        }
        MaskSampler { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.random();
        if u < self.cdf[0] {
            return 0;
        }
        let mut k = 1usize;
        while k < 64 && u >= self.cdf[k] {
            k += 1;
        }
        let (count, invert) = if k <= 32 { (k, false) } else { (64 - k, true) };
        let mut mask = 0u64;
        let mut placed = 0usize;
        while placed < count {
            let bit = 1u64 << (rng.random::<u64>() >> 58);
            if mask & bit == 0 {
                mask |= bit;
                placed += 1;
            }
        }
        if invert {
            !mask
        } else {
            mask
        }
    }
}

/// The retired plain schedule: one sampler draw per fallible op.
fn oracle_plain(samplers: &[Option<MaskSampler>], rng: &mut SmallRng, masks: &mut [u64]) {
    for (m, sampler) in masks.iter_mut().zip(samplers) {
        *m = sampler.as_ref().map_or(0, |s| s.sample(rng));
    }
}

const TAIL_EPS: f64 = 1e-12;

fn binomial_pmf(n: usize, p: f64) -> Vec<f64> {
    let ratio = p / (1.0 - p);
    let mut pmf = Vec::new();
    let mut term = (1.0 - p).powi(n as i32);
    let mut acc = 0.0;
    for k in 0..=n {
        pmf.push(term);
        acc += term;
        if acc >= 1.0 - TAIL_EPS / 4.0 {
            break;
        }
        term *= ratio * (n - k) as f64 / (k + 1) as f64;
    }
    pmf
}

fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    let mut acc = 0.0;
    for (k, &v) in out.iter().enumerate() {
        acc += v;
        if acc >= 1.0 - TAIL_EPS / 4.0 {
            out.truncate(k + 1);
            break;
        }
    }
    out
}

/// The retired conditional sampler over the rate groups (in first-
/// appearance order of their rates).
struct Conditional {
    groups: Vec<(Vec<usize>, Vec<f64>)>,
    suffix: Vec<Vec<f64>>,
}

impl Conditional {
    fn new(engine: &Engine) -> Self {
        let mut rates: Vec<f64> = Vec::new();
        let mut groups: Vec<(Vec<usize>, Vec<f64>)> = Vec::new();
        for i in 0..engine.n_ops() {
            let p = engine.fault_probability(i);
            if p <= 0.0 {
                continue;
            }
            match rates.iter().position(|&r| r == p) {
                Some(j) => groups[j].0.push(i),
                None => {
                    rates.push(p);
                    groups.push((vec![i], Vec::new()));
                }
            }
        }
        for (group, &p) in groups.iter_mut().zip(&rates) {
            group.1 = binomial_pmf(group.0.len(), p);
        }
        let m = groups.len();
        let mut suffix = vec![vec![1.0]; m + 1];
        for j in (0..m).rev() {
            suffix[j] = convolve(&groups[j].1, &suffix[j + 1]);
        }
        Conditional { groups, suffix }
    }

    /// One word whose every lane carries exactly `k` faults.
    fn sample(&self, k: usize, rng: &mut SmallRng, masks: &mut [u64]) {
        masks.fill(0);
        let m = self.groups.len();
        for lane in 0..64 {
            let mut rem = k;
            for (j, (ops, pmf)) in self.groups.iter().enumerate() {
                if rem == 0 {
                    break;
                }
                let t = if j + 1 == m {
                    rem.min(ops.len())
                } else {
                    let total = self.suffix[j].get(rem).copied().unwrap_or(0.0);
                    let hi = rem.min(pmf.len() - 1);
                    let mut chosen = hi.min(ops.len());
                    if total > 0.0 {
                        let mut u = rng.random::<f64>() * total;
                        let next = &self.suffix[j + 1];
                        for (t, &b) in pmf.iter().enumerate().take(hi + 1) {
                            let w = b * next.get(rem - t).copied().unwrap_or(0.0);
                            if u < w {
                                chosen = t;
                                break;
                            }
                            u -= w;
                        }
                    }
                    chosen
                };
                let mut picked: Vec<usize> = Vec::new();
                while picked.len() < t {
                    let i = rng.random_range(0..ops.len());
                    if !picked.contains(&i) {
                        picked.push(i);
                    }
                }
                for i in picked {
                    masks[ops[i]] |= 1u64 << lane;
                }
                rem -= t;
            }
        }
    }
}

/// Upper `α = 10⁻⁶` quantile of χ²(df) (Wilson–Hilferty).
fn chi2_critical(df: usize) -> f64 {
    let df = df.max(1) as f64;
    let z = 4.753;
    let a = 2.0 / (9.0 * df);
    df * (1.0 - a + z * a.sqrt()).powi(3)
}

/// Two-sample chi-square test of histograms drawn with equal effort.
/// Bins with fewer than 10 pooled counts are merged into one.
fn assert_same_distribution(what: &str, a: &[u64], b: &[u64]) {
    assert_eq!(a.len(), b.len());
    let (mut stat, mut df) = (0.0, 0usize);
    let (mut rest_a, mut rest_b) = (0u64, 0u64);
    let mut bin = |x: u64, y: u64| {
        let (x, y) = (x as f64, y as f64);
        stat += (x - y) * (x - y) / (x + y);
        df += 1;
    };
    for (&x, &y) in a.iter().zip(b) {
        if x + y >= 10 {
            bin(x, y);
        } else {
            rest_a += x;
            rest_b += y;
        }
    }
    if rest_a + rest_b > 0 {
        bin(rest_a, rest_b);
    }
    let critical = chi2_critical(df.saturating_sub(1));
    assert!(df >= 2, "{what}: too few populated bins for a test ({df})");
    assert!(
        stat < critical,
        "{what}: χ² = {stat:.1} ≥ {critical:.1} on {df} bins\n  source: {a:?}\n  oracle: {b:?}"
    );
}

/// Per-op fault counts, per-lane fault counts, the per-word histogram of
/// fault events and the per-op histogram of faulted lanes.
#[derive(Default)]
struct PlainStats {
    per_op: Vec<u64>,
    per_lane: Vec<u64>,
    per_word: Vec<u64>,
    lanes_per_op: Vec<u64>,
}

impl PlainStats {
    fn record(&mut self, masks: &[u64]) {
        if self.per_op.is_empty() {
            self.per_op = vec![0; masks.len()];
            self.per_lane = vec![0; 64];
            self.lanes_per_op = vec![0; 65];
        }
        let mut events = 0usize;
        for (i, &m) in masks.iter().enumerate() {
            let c = m.count_ones();
            self.per_op[i] += u64::from(c);
            events += c as usize;
            if m != 0 {
                self.lanes_per_op[c as usize] += 1;
            }
            let mut bits = m;
            while bits != 0 {
                self.per_lane[bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
        if self.per_word.len() <= events {
            self.per_word.resize(events + 1, 0);
        }
        self.per_word[events] += 1;
    }
}

#[test]
fn plain_schedules_match_the_per_op_sampler() {
    // The long stream's 1,280-gate group outgrows the 1,024-bucket gap
    // table; at `g = 10⁻⁵` about half of its gaps land in the last bucket
    // ("1,023 or more"), which skips 1,023 clean ops and draws again.
    let cases = [
        (circuit(), 1.0 / 165.0, 20_000),
        (circuit(), 1e-3, 100_000),
        (circuit(), 1e-4, 400_000),
        (circuit_of(128), 1e-5, 40_000),
    ];
    for (c, g, words) in cases {
        let engine = Engine::compile(&c, &noise(g));
        let mut masks = vec![0u64; c.len()];
        let (mut source, mut oracle) = (PlainStats::default(), PlainStats::default());
        let mut rng = SmallRng::seed_from_u64(11);
        let mut draws = 0u64;
        for _ in 0..words {
            draws += engine.sample_faults(&mut rng, &mut masks);
            source.record(&masks);
        }
        let samplers: Vec<Option<MaskSampler>> = (0..c.len())
            .map(|i| {
                let p = engine.fault_probability(i);
                (p > 0.0).then(|| MaskSampler::new(p))
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..words {
            oracle_plain(&samplers, &mut rng, &mut masks);
            oracle.record(&masks);
        }
        let n = source.per_word.len().max(oracle.per_word.len());
        source.per_word.resize(n, 0);
        oracle.per_word.resize(n, 0);
        let tag = |what: &str| format!("g = {g}: {what}");
        assert_same_distribution(&tag("faults per op"), &source.per_op, &oracle.per_op);
        assert_same_distribution(&tag("faults per lane"), &source.per_lane, &oracle.per_lane);
        assert_same_distribution(&tag("faults per word"), &source.per_word, &oracle.per_word);
        assert_same_distribution(
            &tag("lanes per faulted op"),
            &source.lanes_per_op,
            &oracle.lanes_per_op,
        );
        // O(faults): once faults are rare, far fewer RNG words than the
        // per-op sampler's one per op.
        if g <= 1e-4 {
            let events: u64 = source.per_op.iter().sum();
            assert!(
                draws < (c.len() * words) as u64 / 10,
                "g = {g}: {draws} draws for {events} fault events"
            );
        }
    }
}

#[test]
fn conditioned_schedules_match_the_retired_conditional_sampler() {
    let c = circuit();
    // Two rate groups (the per-lane group split), and one (the flat
    // every-lane placement).
    let models: [(&str, usize, Box<dyn NoiseModel>); 4] = [
        ("split 1e-3", 1, Box::new(noise(1e-3))),
        ("split 1e-3", 2, Box::new(noise(1e-3))),
        ("split 1/165", 4, Box::new(noise(1.0 / 165.0))),
        ("uniform 1e-3", 3, Box::new(UniformNoise::new(1e-3))),
    ];
    for (label, k, model) in &models {
        let (k, words) = (*k, 2_000);
        let engine = Engine::compile(&c, model.as_ref());
        let conditional = Conditional::new(&engine);
        let mut masks = vec![0u64; c.len()];
        let mut source = vec![0u64; c.len()];
        let mut oracle = vec![0u64; c.len()];
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..words {
            engine.sample_faults_exactly(k, &mut rng, &mut masks);
            let mut per_lane = [0u32; 64];
            for (i, &m) in masks.iter().enumerate() {
                source[i] += u64::from(m.count_ones());
                for (lane, n) in per_lane.iter_mut().enumerate() {
                    *n += ((m >> lane) & 1) as u32;
                }
            }
            assert!(
                per_lane.iter().all(|&n| n as usize == k),
                "every lane carries exactly {k} faults: {per_lane:?}"
            );
        }
        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..words {
            conditional.sample(k, &mut rng, &mut masks);
            for (i, &m) in masks.iter().enumerate() {
                oracle[i] += u64::from(m.count_ones());
            }
        }
        assert_same_distribution(
            &format!("{label}, K = {k}: placements per op"),
            &source,
            &oracle,
        );
    }
}
