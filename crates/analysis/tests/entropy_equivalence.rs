//! The word-loop reset-entropy measurement against the scalar oracle.
//!
//! The two paths consume different RNG streams (per-word seeding and
//! binomial fault masks vs one sequential stream with a draw per op), so
//! they agree in distribution, not lane for lane. At fixed seeds, on the
//! `entropy` experiment's 3-cycle Toffoli programs at L ∈ {1, 2} and
//! g ∈ {1e-3, 5e-2}:
//!
//! - every init site's pre-reset pattern histogram passes a two-sample
//!   chi-square test against the oracle's, per site and pooled;
//! - bits/run agree within a few standard errors of the plug-in entropy.
//!
//! The lane-for-lane pin of the tap itself (same stream, scalar replay)
//! is `reset_tally_matches_scalar_prefix_replay` in `rft-revsim`.

use rft_analysis::entropy_meas::{oracle, EntropyMeasurement};
use rft_core::concat::FtBuilder;
use rft_obs::Collector;
use rft_revsim::engine::{Engine, McOptions, ResetSite};
use rft_revsim::gate::Gate;
use rft_revsim::noise::UniformNoise;
use rft_revsim::state::BitState;
use rft_revsim::wire::w;

/// Bins with fewer pooled counts than this merge into one bin per site.
const MIN_BIN: u64 = 10;

/// Two-sample chi-square of one site's histograms (equal totals) with
/// sparse bins merged: `(statistic, degrees of freedom)`.
fn site_chi_square(a: &[u64; 8], b: &[u64; 8]) -> (f64, usize) {
    let mut bins: Vec<(u64, u64)> = Vec::new();
    let mut sparse = (0u64, 0u64);
    for (&x, &y) in a.iter().zip(b) {
        if x + y >= MIN_BIN {
            bins.push((x, y));
        } else {
            sparse.0 += x;
            sparse.1 += y;
        }
    }
    if sparse.0 + sparse.1 > 0 {
        bins.push(sparse);
    }
    let stat = bins
        .iter()
        .map(|&(x, y)| {
            let d = x as f64 - y as f64;
            d * d / (x + y) as f64
        })
        .sum();
    (stat, bins.len().saturating_sub(1))
}

/// Wilson–Hilferty normal deviate of a chi-square statistic.
fn chi_square_z(stat: f64, df: usize) -> f64 {
    let k = df as f64;
    let v = 2.0 / (9.0 * k);
    ((stat / k).cbrt() - (1.0 - v)) / v.sqrt()
}

/// Standard deviation of one trial's surprisal `−log₂ p(X)` under the
/// pooled histogram (the delta-method spread of a plug-in entropy).
fn surprisal_sd(a: &[u64; 8], b: &[u64; 8]) -> f64 {
    let n: u64 = a.iter().chain(b).sum();
    let (mut m1, mut m2) = (0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        if x + y > 0 {
            let p = (x + y) as f64 / n as f64;
            m1 += -p * p.log2();
            m2 += p * p.log2() * p.log2();
        }
    }
    (m2 - m1 * m1).max(0.0).sqrt()
}

fn program(level: u8) -> rft_core::concat::FtProgram {
    let gate = Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    };
    let mut b = FtBuilder::new(level, 3);
    for _ in 0..3 {
        b.apply(&gate);
    }
    b.finish()
}

fn check_point(level: u8, g: f64, trials: u64, seed: u64) {
    let program = program(level);
    let input = program.encode(&BitState::zeros(3));
    let noise = UniformNoise::new(g);
    let word: Vec<ResetSite> = Engine::compile(program.circuit(), &noise).tally_resets(
        &input,
        &McOptions::new(trials).seed(seed).threads(2),
        &Collector::disabled(),
    );
    let scalar = oracle::tally_resets(program.circuit(), &input, &noise, trials, seed ^ 0x5eed);
    assert_eq!(word.len(), scalar.len(), "L{level} g {g}: site count");

    let (mut pooled, mut pooled_df, mut var) = (0.0, 0usize, 0.0);
    for (a, b) in word.iter().zip(&scalar) {
        assert_eq!(a.op_index, b.op_index, "L{level} g {g}: site order");
        assert_eq!(a.counts.iter().sum::<u64>(), trials);
        assert_eq!(b.counts.iter().sum::<u64>(), trials);
        let (stat, df) = site_chi_square(&a.counts, &b.counts);
        if df > 0 {
            // Bonferroni-scale bound: p ≈ 3e-7 per site.
            let z = chi_square_z(stat, df);
            assert!(
                z < 5.0,
                "L{level} g {g}: site {} histograms differ (chi2 {stat:.1}, df {df}, z {z:.2}): \
                 word {:?} vs oracle {:?}",
                a.op_index,
                a.counts,
                b.counts
            );
            pooled += stat;
            pooled_df += df;
        }
        var += surprisal_sd(&a.counts, &b.counts).powi(2);
    }
    if pooled_df > 0 {
        let z = chi_square_z(pooled, pooled_df);
        assert!(
            z < 5.0,
            "L{level} g {g}: pooled chi2 {pooled:.1} over {pooled_df} df (z {z:.2})"
        );
    }

    let h_word = EntropyMeasurement::from_sites(trials, &word).bits_per_run;
    let h_scalar = EntropyMeasurement::from_sites(trials, &scalar).bits_per_run;
    // Standard error of the difference treating sites as independent.
    // Sites that read the same faults are positively correlated, which
    // inflates the true spread by about 1.5× on these programs (measured
    // over 12 seed pairs), so 5 of these units is still over 3σ.
    let se = (var * 2.0 / trials as f64).sqrt();
    let tol = 5.0 * se;
    assert!(
        (h_word - h_scalar).abs() <= tol,
        "L{level} g {g}: word {h_word:.4} vs oracle {h_scalar:.4} bits/run (tol {tol:.4})"
    );
    assert!(
        h_word > 0.0,
        "L{level} g {g}: faults must leave reset entropy"
    );
}

#[test]
fn level_one_low_g_matches_the_oracle() {
    check_point(1, 1e-3, 20_000, 11);
}

#[test]
fn level_one_high_g_matches_the_oracle() {
    check_point(1, 5e-2, 20_000, 12);
}

#[test]
fn level_two_low_g_matches_the_oracle() {
    check_point(2, 1e-3, 16_000, 13);
}

#[test]
fn level_two_high_g_matches_the_oracle() {
    check_point(2, 5e-2, 16_000, 14);
}
