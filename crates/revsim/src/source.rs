//! The fault source: every word's fault schedule, drawn in O(faults).
//!
//! Both estimators execute a word the same way — draw the word's per-op
//! fault masks up front, then run the masked word loop — and differ only
//! in the distribution the masks come from:
//!
//! - **Plain** ([`FaultSource::plain`]): every `(op, lane)` faults
//!   independently at its op's rate `p_j`. Within one rate group the
//!   64-lane mask of an op is nonzero with probability
//!   `q_j = 1 − (1 − p_j)^64`, so the source skips geometrically from one
//!   faulted op to the next, draws that op's lane count from
//!   `Binomial(64, p_j)` conditioned on ≥ 1 and places the lanes
//!   uniformly: one alias-table draw per gap, one draw for the lane count
//!   and first lane. The skip is exact for any `q_j`, up to `q_j = 1`.
//! - **Conditioned** ([`FaultSource::conditioned`]): every lane carries
//!   exactly its stratum's fault count `K`, split over the rate groups by
//!   the exact conditional distribution and placed uniformly inside each
//!   group (all its ops share one rate).
//!
//! The source writes lane bits straight into the flat wide schedule
//! `masks[op * stride + slot]`, which the caller zeroes per word, and
//! reports how many 64-bit RNG words it drew (the `engine.mask_draws`
//! counter). One draw decides an op's lane count (its top 58 bits) and
//! its first lane (its low six); further lanes take six bits each.
//! Placement inside a group draws op indices two per RNG word (32-bit
//! Lemire draws with the rejection threshold precomputed per group); the
//! distinctness check reads the lane bit already in the schedule. The
//! common stratum shape — one rate group, the same count in every lane —
//! takes one flat loop over all 64 lanes.
//!
//! The same tables give the per-trial fault-count distribution — a
//! Poisson binomial over the per-op Bernoulli fault indicators, factored
//! through the rate groups so that a group contributes an exact
//! `Binomial(n_j, p_j)`. It powers the stratified estimator's weights.
//! PMFs are truncated where the remaining tail mass drops below
//! [`PMF_TAIL_EPS`]; the stratified estimator is exactly unbiased for the
//! truncated distribution.

use crate::engine::{FaultTable, NEVER};
use rand::RngCore;

/// Tail mass below which the fault-count PMF is truncated. The stratified
/// estimator is exactly unbiased for the truncated distribution, which is
/// within this absolute mass of the true Poisson binomial.
const PMF_TAIL_EPS: f64 = 1e-12;

/// Most index bits of a gap table (at most `2^GAP_BITS` buckets).
const GAP_BITS: u32 = 10;

/// `2^-53`: maps the top 53 bits of a draw onto `[0, 1)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// A lazily built, per-engine fault source (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct FaultSource {
    /// Rate groups, in first-appearance order of their rates.
    groups: Vec<RateGroup>,
    /// `suffix[j][k]` = P(groups `j..` contribute exactly `k` faults);
    /// `suffix[0]` is the full fault-count PMF. `suffix[m]` = `[1.0]`.
    suffix: Vec<Vec<f64>>,
    /// Mass beyond the PMF truncation point (`P(K ≥ pmf len)`), folded
    /// into the top bin when the tail stratum samples a count.
    pub(crate) tail_beyond: f64,
}

/// The ops sharing one fault rate, with their sampling constants.
#[derive(Debug, Clone)]
struct RateGroup {
    /// Global op indices, ascending.
    ops: Vec<u32>,
    /// `Binomial(ops.len(), p)` PMF, truncated like the total PMF.
    pmf: Vec<f64>,
    /// `lane_tail[c] = P(C > c) · 2^58` for the lane count `C ~
    /// Binomial(64, p)` of one op: a uniform 58-bit `u` gives
    /// `C = #{c : u < lane_tail[c]}`.
    lane_tail: [u64; 64],
    /// Alias table of the gap to the next faulted op.
    gaps: GapTable,
    /// Lemire rejection threshold `2^32 mod n` of a 32-bit index draw.
    reject_below: u32,
}

/// A Walker alias table of the gap `G ~ Geometric(q)` (clean ops before
/// the next faulted one) over `2^bits` buckets: bucket `m` is `G = m`,
/// except the last, which is `G ≥ 2^bits − 1` (the sampler skips that
/// far and draws again: the geometric is memoryless). A draw's top
/// `bits` bits pick bucket `i`; entry `i` keeps it when the remaining
/// low bits are below the entry's threshold (its top `64 − bits` bits)
/// and otherwise takes the entry's alias (its low `bits` bits). One draw
/// per gap, exact to `2^(bits − 64)`.
#[derive(Debug, Clone)]
struct GapTable {
    bits: u32,
    entries: Vec<u64>,
}

impl GapTable {
    fn new(q: f64, n: usize) -> Self {
        // Buckets enough to cover a gap across the whole group.
        let bits = (n + 1)
            .next_power_of_two()
            .trailing_zeros()
            .clamp(1, GAP_BITS);
        let size = 1usize << bits;
        // `P(G ≥ m) = (1 − q)^m`; bucket mass `q (1 − q)^m`, the last the
        // whole tail.
        let mut at_least = 1.0;
        let mut scaled: Vec<f64> = (0..size)
            .map(|m| {
                let mass = if m + 1 == size {
                    at_least
                } else {
                    q * at_least
                };
                at_least *= 1.0 - q;
                mass * size as f64
            })
            .collect();
        // Vose's alias construction.
        let mut alias: Vec<usize> = (0..size).collect();
        let mut keep = vec![1.0; size];
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..size).partition(|&m| scaled[m] < 1.0);
        while let (Some(s), Some(&l)) = (small.pop(), large.last()) {
            keep[s] = scaled[s];
            alias[s] = l;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        let low = 64 - bits;
        let entries = keep
            .iter()
            .zip(&alias)
            .map(|(&k, &a)| {
                let threshold = ((k * (1u64 << low) as f64) as u64).min((1u64 << low) - 1);
                threshold << bits | a as u64
            })
            .collect();
        GapTable { bits, entries }
    }

    /// The next gap; `size − 1` stands for "at least `size − 1`".
    #[inline]
    fn draw<R: RngCore + ?Sized>(&self, d: &mut Draws<'_, R>) -> usize {
        let x = d.u64();
        let low = 64 - self.bits;
        let i = (x >> low) as usize;
        let entry = self.entries[i];
        if x & ((1u64 << low) - 1) < entry >> self.bits {
            i
        } else {
            (entry & ((1u64 << self.bits) - 1)) as usize
        }
    }
}

/// How many faults each lane of a conditioned word carries.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LaneFaults<'a> {
    /// Exactly this many in every lane.
    Exactly(usize),
    /// Drawn per lane from the conditional CDF `cdf` of the counts
    /// `lo, lo + 1, …`.
    Tail { lo: usize, cdf: &'a [f64] },
}

/// The RNG as the source consumes it: 64-bit words, counted.
struct Draws<'r, R: RngCore + ?Sized> {
    rng: &'r mut R,
    words: u64,
}

impl<R: RngCore + ?Sized> Draws<'_, R> {
    #[inline]
    fn u64(&mut self) -> u64 {
        self.words += 1;
        self.rng.next_u64()
    }

    /// Uniform on `[0, 1)`, 53 bits.
    #[inline]
    fn unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * UNIT
    }
}

/// `Binomial(n, p)` PMF by the stable multiplicative recurrence, truncated
/// once the accumulated mass reaches `1 − PMF_TAIL_EPS / 4`.
fn binomial_pmf(n: usize, p: f64) -> Vec<f64> {
    if p >= 1.0 {
        let mut pmf = vec![0.0; n + 1];
        pmf[n] = 1.0;
        return pmf;
    }
    let ratio = p / (1.0 - p);
    let mut pmf = Vec::with_capacity(n + 1);
    let mut term = (1.0 - p).powi(n as i32);
    let mut acc = 0.0;
    for k in 0..=n {
        pmf.push(term);
        acc += term;
        if acc >= 1.0 - PMF_TAIL_EPS / 4.0 {
            break;
        }
        term *= ratio * (n - k) as f64 / (k + 1) as f64;
    }
    pmf
}

/// Convolution of two truncated PMFs, re-truncated at the same tail mass.
fn convolve_pmf(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    // Trim the tail once the retained mass is within tolerance.
    let mut acc = 0.0;
    let mut keep = out.len();
    for (k, &v) in out.iter().enumerate() {
        acc += v;
        if acc >= 1.0 - PMF_TAIL_EPS / 4.0 {
            keep = k + 1;
            break;
        }
    }
    out.truncate(keep);
    out
}

impl RateGroup {
    fn new(ops: Vec<u32>, p: f64) -> Self {
        // `P(C = c)` by the multiplicative recurrence, started from the
        // larger end (no underflow for `p` near 0 or 1), then summed from
        // the top so that small tails keep their precision.
        let mut lane_pmf = [0.0f64; 65];
        if p <= 0.5 {
            lane_pmf[0] = (1.0 - p).powi(64);
            for c in 1..=64 {
                lane_pmf[c] = lane_pmf[c - 1] * (p / (1.0 - p)) * (65 - c) as f64 / c as f64;
            }
        } else {
            lane_pmf[64] = p.powi(64);
            for c in (0..64).rev() {
                lane_pmf[c] = lane_pmf[c + 1] * ((1.0 - p) / p) * (c + 1) as f64 / (64 - c) as f64;
            }
        }
        let mut lane_tail = [0u64; 64];
        let mut above = 0.0;
        for c in (0..64).rev() {
            above += lane_pmf[c + 1];
            lane_tail[c] = (above.min(1.0) * (1u64 << 58) as f64) as u64;
        }
        // `q = P(C ≥ 1)`, the sum of the small terms.
        let q = above;
        let n = ops.len();
        RateGroup {
            pmf: binomial_pmf(n, p),
            lane_tail,
            gaps: GapTable::new(q, n),
            reject_below: ((1u64 << 32) % n as u64) as u32,
            ops,
        }
    }

    /// The lanes of one faulted op from the draw `x`: the count from the
    /// uniform 58-bit `u < lane_tail[0]` (derived from `x`'s top 58
    /// bits), the first lane from `x`'s low six bits, which `u` leaves
    /// unused.
    #[inline]
    fn lanes<R: RngCore + ?Sized>(&self, u: u64, x: u64, d: &mut Draws<'_, R>) -> u64 {
        if u >= self.lane_tail[1] {
            // One lane, the common case.
            return 1 << (x & 63);
        }
        let count = 2 + self.lane_tail[2..].iter().take_while(|&&t| u < t).count();
        // Distinct uniform lanes, ten six-bit picks per further draw; past
        // 32 lanes the complement is placed instead.
        let want = count.min(64 - count) as u32;
        let mut mask = if want > 0 { 1u64 << (x & 63) } else { 0 };
        while mask.count_ones() < want {
            let mut bits = d.u64();
            for _ in 0..10 {
                mask |= 1u64 << (bits & 63);
                if mask.count_ones() == want {
                    break;
                }
                bits >>= 6;
            }
        }
        if count > 32 {
            !mask
        } else {
            mask
        }
    }

    /// Sets `t ≤ n / 2` distinct ops, chosen uniformly, in every lane —
    /// the common stratum shape (one rate group, a fixed count), placed
    /// by one flat loop whose index draws run on across lanes.
    #[inline]
    fn place_every_lane<R: RngCore + ?Sized>(
        &self,
        t: usize,
        d: &mut Draws<'_, R>,
        masks: &mut [u64],
        stride: usize,
        slot: usize,
    ) {
        let n = self.ops.len() as u64;
        let mut bit = 1u64;
        let mut placed = 0;
        loop {
            let x = d.u64();
            for half in [x as u32, (x >> 32) as u32] {
                let wide = u64::from(half) * n;
                if (wide as u32) < self.reject_below {
                    continue;
                }
                let m = &mut masks[self.ops[(wide >> 32) as usize] as usize * stride + slot];
                if *m & bit == 0 {
                    *m |= bit;
                    placed += 1;
                    if placed == t {
                        placed = 0;
                        bit <<= 1;
                        if bit == 0 {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Sets lane `bit` on `t` distinct ops of the group, chosen uniformly
    /// by 32-bit Lemire draws, two per RNG word (past half the group,
    /// all ops are set and the complement is cleared instead).
    #[inline]
    fn place<R: RngCore + ?Sized>(
        &self,
        t: usize,
        bit: u64,
        d: &mut Draws<'_, R>,
        masks: &mut [u64],
        stride: usize,
        slot: usize,
    ) {
        let n = self.ops.len();
        let (want, clear) = if 2 * t <= n {
            (t, false)
        } else {
            for &op in &self.ops {
                masks[op as usize * stride + slot] |= bit;
            }
            (n - t, true)
        };
        let mut done = 0;
        while done < want {
            let x = d.u64();
            for half in [x as u32, (x >> 32) as u32] {
                let wide = u64::from(half) * n as u64;
                if (wide as u32) < self.reject_below {
                    continue;
                }
                let m = &mut masks[self.ops[(wide >> 32) as usize] as usize * stride + slot];
                // A pick that already holds the wanted state is redrawn.
                if (*m & bit != 0) == clear {
                    *m ^= bit;
                    done += 1;
                    if done == want {
                        break;
                    }
                }
            }
        }
    }
}

impl FaultSource {
    pub(crate) fn build(table: &FaultTable) -> Self {
        let mut ops: Vec<Vec<u32>> = vec![Vec::new(); table.rates.len()];
        for (i, &g) in table.group_of.iter().enumerate() {
            if g != NEVER {
                ops[g].push(i as u32);
            }
        }
        let groups: Vec<RateGroup> = ops
            .into_iter()
            .zip(&table.rates)
            .map(|(ops, &p)| RateGroup::new(ops, p))
            .collect();
        let m = groups.len();
        let mut suffix = vec![Vec::new(); m + 1];
        suffix[m] = vec![1.0];
        for j in (0..m).rev() {
            suffix[j] = convolve_pmf(&groups[j].pmf, &suffix[j + 1]);
        }
        let tail_beyond = (1.0 - suffix[0].iter().sum::<f64>()).max(0.0);
        FaultSource {
            groups,
            suffix,
            tail_beyond,
        }
    }

    /// Approximate heap footprint (size input of cache eviction).
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let groups: usize = self
            .groups
            .iter()
            .map(|g| {
                size_of::<RateGroup>()
                    + g.ops.len() * size_of::<u32>()
                    + g.pmf.len() * size_of::<f64>()
                    + g.gaps.entries.len() * size_of::<u64>()
            })
            .sum();
        let suffix: usize = self
            .suffix
            .iter()
            .map(|row| size_of::<Vec<f64>>() + row.len() * size_of::<f64>())
            .sum();
        size_of::<FaultSource>() + groups + suffix
    }

    /// The (truncated) fault-count PMF.
    pub(crate) fn pmf(&self) -> &[f64] {
        &self.suffix[0]
    }

    /// `P(K = k)` (zero beyond the truncation point).
    pub(crate) fn pmf_at(&self, k: usize) -> f64 {
        self.pmf().get(k).copied().unwrap_or(0.0)
    }

    /// `P(K ≥ k)`, including the truncated tail mass.
    pub(crate) fn mass_at_least(&self, k: usize) -> f64 {
        let below: f64 = self.pmf().iter().take(k).sum();
        (1.0 - below).max(0.0)
    }

    /// Largest fault count the truncated PMF represents.
    pub(crate) fn max_k(&self) -> usize {
        self.pmf().len() - 1
    }

    /// Writes one unconditioned word schedule into
    /// `masks[op * stride + slot]` (zeroed by the caller); returns the
    /// RNG words drawn.
    pub(crate) fn plain<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        masks: &mut [u64],
        stride: usize,
        slot: usize,
    ) -> u64 {
        let mut d = Draws { rng, words: 0 };
        for g in &self.groups {
            let gaps = &g.gaps;
            let n = g.ops.len();
            let beyond = gaps.entries.len() - 1;
            let mut pos = 0usize;
            loop {
                let gap = gaps.draw(&mut d);
                pos += gap;
                if pos >= n {
                    break;
                }
                if gap == beyond {
                    continue;
                }
                // The faulted op's count, conditioned on ≥ 1: a uniform
                // 58-bit `u` below `lane_tail[0]`.
                let x = d.u64();
                let u = ((u128::from(x >> 6) * u128::from(g.lane_tail[0])) >> 58) as u64;
                masks[g.ops[pos] as usize * stride + slot] = g.lanes(u, x, &mut d);
                pos += 1;
            }
        }
        d.words
    }

    /// Writes one word schedule whose every lane carries the fault count
    /// `faults`, into `masks[op * stride + slot]` (zeroed by the caller);
    /// returns the RNG words drawn.
    ///
    /// Per lane, sequential conditional sampling over the rate groups:
    /// group `j` takes `t` of the remaining `rem` faults with probability
    /// `B_j[t] · S_{j+1}[rem − t] / S_j[rem]`, then `t` distinct ops are
    /// placed uniformly within the group (exact, since all its ops share
    /// one rate).
    pub(crate) fn conditioned<R: RngCore + ?Sized>(
        &self,
        faults: LaneFaults<'_>,
        rng: &mut R,
        masks: &mut [u64],
        stride: usize,
        slot: usize,
    ) -> u64 {
        let mut d = Draws { rng, words: 0 };
        if let (LaneFaults::Exactly(k), [group]) = (faults, &self.groups[..]) {
            if k > 0 && 2 * k <= group.ops.len() {
                group.place_every_lane(k, &mut d, masks, stride, slot);
                return d.words;
            }
        }
        let m = self.groups.len();
        for lane in 0..64 {
            let bit = 1u64 << lane;
            let mut rem = match faults {
                LaneFaults::Exactly(k) => k,
                LaneFaults::Tail { lo, cdf } => {
                    let total = cdf.last().copied().unwrap_or(0.0);
                    let u = d.unit() * total;
                    lo + cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
                }
            };
            for (j, group) in self.groups.iter().enumerate() {
                if rem == 0 {
                    break;
                }
                let t = if j + 1 == m {
                    rem.min(group.ops.len())
                } else {
                    let total = self.suffix[j].get(rem).copied().unwrap_or(0.0);
                    let hi = rem.min(group.pmf.len() - 1);
                    let mut chosen = hi.min(group.ops.len());
                    if total > 0.0 {
                        let mut u = d.unit() * total;
                        let next = &self.suffix[j + 1];
                        for t in 0..=hi {
                            let w = group.pmf[t] * next.get(rem - t).copied().unwrap_or(0.0);
                            if u < w {
                                chosen = t;
                                break;
                            }
                            u -= w;
                        }
                    }
                    chosen
                };
                if t > 0 {
                    group.place(t, bit, &mut d, masks, stride, slot);
                }
                rem -= t;
            }
        }
        d.words
    }
}
