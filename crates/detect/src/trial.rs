//! [`WordTrial`] adapters: Monte-Carlo estimation of detected / wrong /
//! undetected-and-wrong rates for (checked) adders, 64 lanes per plane
//! word.
//!
//! Each lane draws independent uniform operands, the engine injects
//! faults per its noise model, and the judge recomputes the ideal sum
//! *arithmetically on the planes* (a branch-free ripple in `u64` words),
//! so judging costs `O(width)` word ops regardless of lane count. The
//! ideal execution is exact by construction, so all modes override
//! [`WordTrial::fault_free_can_fail`] to `false` and the rare-event
//! stratified estimator may elide the zero-fault stratum analytically —
//! exactly the machinery the hybrid retry/discard experiment leans on at
//! deep-sub-threshold fault rates.

use crate::adder::{Adder, AdderKind};
use crate::checker::{with_parity_check, CheckedCircuit};
use rand::{Rng, RngCore};
use rft_revsim::batch::BatchState;
use rft_revsim::engine::WordTrial;
use rft_revsim::wire::Wire;

/// What a lane must exhibit to count as a "failure" for the estimator.
/// Serializable so estimation services can name the mode in a job spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TrialMode {
    /// Outputs wrong **and** flag silent — the residual error a
    /// retry/discard policy cannot see. Requires a flag wire.
    UndetectedWrong,
    /// Outputs wrong, flag ignored — the raw error rate.
    Wrong,
    /// Flag raised (right or wrong outputs) — the retry rate. Requires a
    /// flag wire.
    Detected,
}

/// An adder wrapped with the parity checker, bundled with its wire roles.
#[derive(Debug, Clone)]
pub struct CheckedAdder {
    /// The underlying adder (wire roles refer to the wrapped circuit,
    /// whose body wires are unchanged).
    pub adder: Adder,
    /// The invariant-checker wrap of the adder's circuit.
    pub checked: CheckedCircuit,
}

impl CheckedAdder {
    /// Synthesizes and wraps an adder.
    ///
    /// # Panics
    ///
    /// Panics for [`AdderKind::PlainRipple`] (not parity-transparent)
    /// and on the same inputs as [`Adder::new`].
    pub fn new(kind: AdderKind, width: usize) -> CheckedAdder {
        let adder = Adder::new(kind, width);
        let checked = with_parity_check(&adder.circuit, &adder.input_wires());
        CheckedAdder { adder, checked }
    }

    /// A Monte-Carlo trial over the wrapped circuit.
    pub fn trial(&self, mode: TrialMode) -> AdderTrial<'_> {
        AdderTrial {
            adder: &self.adder,
            n_wires: self.checked.circuit.n_wires(),
            flag: Some(self.checked.flag),
            mode,
        }
    }
}

/// The [`WordTrial`] over an adder circuit — wrapped (with flag) or bare.
#[derive(Debug, Clone)]
pub struct AdderTrial<'a> {
    adder: &'a Adder,
    n_wires: usize,
    flag: Option<Wire>,
    mode: TrialMode,
}

impl<'a> AdderTrial<'a> {
    /// A trial over the *unwrapped* adder circuit (no flag; only
    /// [`TrialMode::Wrong`] is meaningful). Used for the unprotected
    /// baselines.
    ///
    /// # Panics
    ///
    /// Panics if `mode` needs a flag.
    pub fn unchecked(adder: &'a Adder, mode: TrialMode) -> AdderTrial<'a> {
        assert!(
            mode == TrialMode::Wrong,
            "an unchecked adder has no detection flag"
        );
        AdderTrial {
            adder,
            n_wires: adder.circuit.n_wires(),
            flag: None,
            mode,
        }
    }
}

impl WordTrial for AdderTrial<'_> {
    fn n_wires(&self) -> usize {
        self.n_wires
    }

    fn prepare(
        &self,
        batch: &mut BatchState,
        word: usize,
        rng: &mut dyn RngCore,
        inputs: &mut Vec<u64>,
    ) {
        inputs.clear();
        let width = self.adder.width;
        // Layout: a planes, b planes, then the carry-in plane.
        for _ in 0..2 * width + 1 {
            inputs.push(rng.random::<u64>());
        }
        for i in 0..width {
            batch.set_word(self.adder.a[i], word, inputs[i]);
            batch.set_word(self.adder.b[i], word, inputs[width + i]);
        }
        batch.set_word(self.adder.cin, word, inputs[2 * width]);
    }

    fn judge(&self, batch: &BatchState, word: usize, inputs: &[u64], candidates: u64) -> u64 {
        let width = self.adder.width;
        // Branch-free per-lane ripple on the input planes gives the
        // ideal sum; any mismatching output plane marks the lane wrong.
        let mut carry = inputs[2 * width];
        let mut wrong = 0u64;
        for i in 0..width {
            let (a, b) = (inputs[i], inputs[width + i]);
            let p = a ^ b;
            wrong |= (p ^ carry) ^ batch.word(self.adder.sum[i], word);
            carry = (a & b) | (carry & p);
        }
        wrong |= carry ^ batch.word(self.adder.cout, word);
        let failed = match (self.mode, self.flag) {
            (TrialMode::Wrong, _) => wrong,
            (TrialMode::UndetectedWrong, Some(flag)) => wrong & !batch.word(flag, word),
            (TrialMode::Detected, Some(flag)) => batch.word(flag, word),
            _ => unreachable!("flag-requiring mode on an unchecked trial"),
        };
        failed & candidates
    }

    /// Encode → run → judge against exact plane arithmetic: a fault-free
    /// lane computes the sum exactly and never raises the flag, so
    /// zero-fault elision is sound in every mode.
    fn fault_free_can_fail(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rft_revsim::engine::{Engine, McOptions};
    use rft_revsim::noise::{NoNoise, UniformNoise};

    #[test]
    fn fault_free_lanes_never_fail_in_any_mode() {
        let ca = CheckedAdder::new(AdderKind::Ripple, 4);
        let engine = Engine::compile(&ca.checked.circuit, &NoNoise);
        for mode in [
            TrialMode::Wrong,
            TrialMode::UndetectedWrong,
            TrialMode::Detected,
        ] {
            let out = engine.estimate(&ca.trial(mode), &McOptions::new(2_000).seed(7));
            assert_eq!(out.failures, 0, "{mode:?}");
        }
    }

    #[test]
    fn detection_strictly_beats_no_detection_under_noise() {
        let ca = CheckedAdder::new(AdderKind::Ripple, 4);
        let noise = UniformNoise::new(5e-3);
        let engine = Engine::compile(&ca.checked.circuit, &noise);
        let opts = McOptions::new(20_000).seed(41);
        let wrong = engine.estimate(&ca.trial(TrialMode::Wrong), &opts).failures;
        let resid = engine
            .estimate(&ca.trial(TrialMode::UndetectedWrong), &opts)
            .failures;
        let detected = engine
            .estimate(&ca.trial(TrialMode::Detected), &opts)
            .failures;
        assert!(wrong > 0, "noise must bite at this rate");
        assert!(detected > 0);
        // Random-pattern faults deviate with odd weight (parity-visible)
        // about half the time, so detection roughly halves the residual.
        assert!(
            resid * 3 < wrong * 2,
            "parity must catch a solid fraction of wrong outcomes: {resid} vs {wrong}"
        );
    }

    #[test]
    fn unchecked_trial_estimates_the_plain_baseline() {
        let adder = Adder::new(AdderKind::PlainRipple, 4);
        let noise = UniformNoise::new(5e-3);
        let engine = Engine::compile(&adder.circuit, &noise);
        let trial = AdderTrial::unchecked(&adder, TrialMode::Wrong);
        let out = engine.estimate(&trial, &McOptions::new(10_000).seed(3));
        assert!(out.failures > 0);
    }

    #[test]
    #[should_panic(expected = "no detection flag")]
    fn unchecked_rejects_flag_modes() {
        let adder = Adder::new(AdderKind::PlainRipple, 2);
        AdderTrial::unchecked(&adder, TrialMode::Detected);
    }
}
