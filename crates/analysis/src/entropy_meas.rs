//! Empirical entropy measurement (§4).
//!
//! The fault-tolerant scheme ejects entropy exactly where ancillas are
//! reset: each `Init` erases whatever the previous cycle left on its wires.
//! [`reset_entropy`] histograms the 3-bit pre-reset pattern of every init
//! site over many noisy runs; the summed per-site Shannon entropies
//! estimate the bits dissipated per run (sub-additivity makes the sum an
//! upper estimate of the joint entropy, the same relaxation the paper
//! uses).
//!
//! The histograms come from the engine's compiled word loop
//! ([`Engine::tally_resets`]): 64 trials per word, a reset tap reading
//! each init's support planes with AND + popcount, per-word seeding, and
//! the caller's collector — so a measurement is identical at any thread
//! count and shows up in traces and resource sections like an estimate.
//! The scalar one-trial-at-a-time loop survives only as [`oracle`], the
//! reference the word path is tested and benchmarked against.

use rft_core::entropy::entropy_of_counts;
use rft_obs::Collector;
use rft_revsim::circuit::Circuit;
use rft_revsim::engine::{Engine, McOptions, ResetSite};
use rft_revsim::noise::NoiseModel;
use rft_revsim::state::BitState;
use serde::{Deserialize, Serialize};

/// Result of an entropy measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntropyMeasurement {
    /// Trials run.
    pub trials: u64,
    /// Init sites in the circuit.
    pub sites: usize,
    /// Estimated bits dissipated per run (sum of per-site entropies).
    pub bits_per_run: f64,
}

impl EntropyMeasurement {
    /// Sums the per-site Shannon entropies of `sites` over `trials` runs.
    pub fn from_sites(trials: u64, sites: &[ResetSite]) -> Self {
        EntropyMeasurement {
            trials,
            sites: sites.len(),
            bits_per_run: sites.iter().map(|s| entropy_of_counts(&s.counts)).sum(),
        }
    }
}

/// Measures the reset entropy of `circuit` under `noise` over `trials`
/// runs from the fixed initial state `input` (fixed input ensures all
/// observed randomness comes from faults, matching §4's accounting).
/// Compiles a one-off engine and runs single-threaded; see
/// [`reset_entropy`] to reuse a compiled engine.
///
/// # Panics
///
/// Panics if `trials == 0` or the input width mismatches the circuit.
pub fn measure_reset_entropy<N>(
    circuit: &Circuit,
    input: &BitState,
    noise: &N,
    trials: u64,
    seed: u64,
) -> EntropyMeasurement
where
    N: NoiseModel,
{
    reset_entropy(
        &Engine::compile(circuit, noise),
        input,
        &McOptions::new(trials).seed(seed),
        &Collector::disabled(),
    )
}

/// [`measure_reset_entropy`] on a compiled `engine`: `opts.trials` runs
/// from `input`, seeded per word from `opts.seed`, on `opts.threads`
/// workers, instrumented into `obs`.
///
/// # Panics
///
/// Panics if `opts.trials == 0` or the input width mismatches the
/// circuit.
pub fn reset_entropy(
    engine: &Engine,
    input: &BitState,
    opts: &McOptions,
    obs: &Collector,
) -> EntropyMeasurement {
    EntropyMeasurement::from_sites(opts.trials, &engine.tally_resets(input, opts, obs))
}

/// The scalar reference measurement: one trial at a time, one uniform
/// draw per fallible op from a single sequential stream, the pre-reset
/// pattern read off a [`BitState`] at every init. No production path
/// runs it; it is the oracle the word path is checked against (same
/// distribution, different RNG stream) and the baseline of the
/// `entropy/reset_entropy_oracle_l2` bench.
pub mod oracle {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rft_revsim::circuit::Circuit;
    use rft_revsim::engine::{Engine, ResetSite};
    use rft_revsim::noise::NoiseModel;
    use rft_revsim::op::Op;
    use rft_revsim::state::BitState;

    /// Per-init pre-reset pattern counts over `trials` scalar runs from
    /// `input`, in op order.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or the input width mismatches the circuit.
    pub fn tally_resets<N: NoiseModel>(
        circuit: &Circuit,
        input: &BitState,
        noise: &N,
        trials: u64,
        seed: u64,
    ) -> Vec<ResetSite> {
        assert!(trials > 0, "need at least one trial");
        assert_eq!(
            input.len(),
            circuit.n_wires(),
            "input width must match circuit width"
        );
        let engine = Engine::compile(circuit, noise);
        let mut sites: Vec<ResetSite> = circuit
            .ops()
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::Init(_)))
            .map(|(op_index, _)| ResetSite {
                op_index,
                counts: [0; 8],
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..trials {
            let mut state = input.clone();
            let mut site = 0;
            for (i, op) in circuit.ops().iter().enumerate() {
                if let Op::Init(init) = op {
                    sites[site].counts[state.read_pattern(init.wires()) as usize] += 1;
                    site += 1;
                }
                let p = engine.fault_probability(i);
                if p > 0.0 && rng.random::<f64>() < p {
                    state.randomize(op.support().as_slice(), &mut rng);
                } else {
                    op.apply(&mut state);
                }
            }
        }
        sites
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rft_revsim::noise::{NoNoise, UniformNoise};
    use rft_revsim::wire::w;

    fn init_only_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.init(&[w(0), w(1), w(2)]);
        c
    }

    #[test]
    fn noiseless_fixed_input_has_zero_entropy() {
        let c = init_only_circuit();
        let m = measure_reset_entropy(&c, &BitState::zeros(3), &NoNoise, 200, 1);
        assert_eq!(m.sites, 1);
        assert_eq!(m.bits_per_run, 0.0);
    }

    #[test]
    fn deterministic_nonzero_input_still_zero_entropy() {
        // The reset erases a *deterministic* pattern: zero Shannon entropy
        // (erasure costs information-theoretically nothing if the value is
        // known).
        let c = init_only_circuit();
        let m = measure_reset_entropy(&c, &BitState::from_u64(0b101, 3), &NoNoise, 100, 1);
        assert_eq!(m.bits_per_run, 0.0);
    }

    #[test]
    fn upstream_faults_create_reset_entropy() {
        // A noisy gate before the init randomizes the pattern the init
        // must erase.
        let mut c = Circuit::new(3);
        c.maj(w(0), w(1), w(2)).init(&[w(0), w(1), w(2)]);
        let m = measure_reset_entropy(&c, &BitState::zeros(3), &UniformNoise::new(0.5), 4000, 2);
        assert!(m.bits_per_run > 0.5, "measured {}", m.bits_per_run);
        assert!(m.bits_per_run <= 3.0);
    }

    #[test]
    fn fully_random_reset_approaches_three_bits() {
        // With fault probability 1 the gate always randomizes: the init
        // erases a uniform 3-bit pattern = 3 bits of entropy.
        let mut c = Circuit::new(3);
        c.maj(w(0), w(1), w(2)).init(&[w(0), w(1), w(2)]);
        let m = measure_reset_entropy(&c, &BitState::zeros(3), &UniformNoise::new(1.0), 8000, 3);
        assert!(
            (m.bits_per_run - 3.0).abs() < 0.05,
            "measured {}",
            m.bits_per_run
        );
    }

    #[test]
    fn entropy_grows_with_fault_rate() {
        let mut c = Circuit::new(3);
        c.maj(w(0), w(1), w(2)).init(&[w(0), w(1), w(2)]);
        let lo =
            measure_reset_entropy(&c, &BitState::zeros(3), &UniformNoise::new(0.01), 20_000, 4);
        let hi = measure_reset_entropy(&c, &BitState::zeros(3), &UniformNoise::new(0.2), 20_000, 4);
        assert!(lo.bits_per_run < hi.bits_per_run);
    }

    #[test]
    fn noiseless_histograms_sum_to_trials_with_partial_and_single_words() {
        let mut c = Circuit::new(3);
        c.not(w(0))
            .init(&[w(1), w(2)])
            .cnot(w(0), w(1))
            .init(&[w(0), w(1), w(2)])
            .init(&[w(2)]);
        let engine = Engine::compile(&c, &NoNoise);
        for trials in [200, 1] {
            let opts = McOptions::new(trials).seed(5).threads(2);
            let sites = engine.tally_resets(&BitState::zeros(3), &opts, &Collector::disabled());
            assert_eq!(sites.len(), 3);
            for site in &sites {
                assert_eq!(
                    site.counts.iter().sum::<u64>(),
                    trials,
                    "site {}",
                    site.op_index
                );
            }
            let m = reset_entropy(&engine, &BitState::zeros(3), &opts, &Collector::disabled());
            assert_eq!(m.bits_per_run, 0.0);
        }
    }
}
