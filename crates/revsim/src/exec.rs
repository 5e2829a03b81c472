//! Scalar circuit executors: ideal runs and the geometric fast path.
//!
//! Fault semantics follow the paper exactly: a failing operation does not
//! execute; instead every bit in its support is replaced by an independent
//! uniformly random bit ("the output is one of eight equally likely
//! outputs", §4). A failing initialization likewise leaves random bits
//! instead of zeros.
//!
//! Noisy and planned-fault execution live on the [`Engine`] facade
//! ([`Engine::run_scalar`],
//! [`PlannedFaultBackend`](crate::engine::PlannedFaultBackend)): compile
//! once and reuse across runs instead of re-deriving fault probabilities
//! per call. The §4 reset-entropy measurement runs in the engine's word
//! loop ([`Engine::tally_resets`]), not here.
//!
//! [`Engine`]: crate::engine::Engine
//! [`Engine::run_scalar`]: crate::engine::Engine::run_scalar
//! [`Engine::tally_resets`]: crate::engine::Engine::tally_resets

use crate::circuit::Circuit;
use crate::state::BitState;
use rand::Rng;

/// What happened during one noisy run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Indices of operations that faulted, in execution order.
    pub faults: Vec<usize>,
}

impl ExecReport {
    /// Number of faults that occurred.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }
}

/// Runs `circuit` on `state` without noise.
///
/// # Panics
///
/// Panics if the state width does not match the circuit width.
pub fn run_ideal(circuit: &Circuit, state: &mut BitState) {
    circuit.run(state);
}

/// Runs `circuit` with a uniform fault rate `g`, skipping fault-free
/// stretches geometrically. Statistically identical to
/// [`Engine::run_scalar`](crate::engine::Engine::run_scalar) under
/// [`UniformNoise`](crate::noise::UniformNoise) but much faster when `g`
/// is small (the common regime: the paper's thresholds are `1/108` and
/// below).
///
/// # Panics
///
/// Panics if `g` is not in `[0, 1)` or the widths mismatch.
pub fn run_noisy_geometric<R>(
    circuit: &Circuit,
    state: &mut BitState,
    g: f64,
    rng: &mut R,
) -> ExecReport
where
    R: Rng + ?Sized,
{
    assert!(
        (0.0..1.0).contains(&g),
        "geometric execution requires g in [0,1), got {g}"
    );
    assert_eq!(
        state.len(),
        circuit.n_wires(),
        "state width must match circuit width"
    );
    let mut report = ExecReport::default();
    let ops = circuit.ops();
    if g == 0.0 {
        for op in ops {
            op.apply(state);
        }
        return report;
    }
    let log1m = (-g).ln_1p(); // ln(1 - g) < 0
    let mut next_fault = sample_gap(rng, log1m);
    let mut i = 0usize;
    while i < ops.len() {
        if next_fault == 0 {
            let support = ops[i].support();
            state.randomize(support.as_slice(), rng);
            report.faults.push(i);
            next_fault = sample_gap(rng, log1m);
        } else {
            ops[i].apply(state);
            next_fault -= 1;
        }
        i += 1;
    }
    report
}

/// Samples the number of successes before the next failure:
/// `floor(ln(U) / ln(1-g))`.
#[inline]
fn sample_gap<R: Rng + ?Sized>(rng: &mut R, log1m: f64) -> u64 {
    let u: f64 = rng.random::<f64>();
    // Guard against u == 0 (ln -> -inf) by resampling the smallest positive.
    let u = if u > 0.0 { u } else { f64::MIN_POSITIVE };
    (u.ln() / log1m) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, PlannedFaultBackend};
    use crate::fault::FaultPlan;
    use crate::noise::{NoNoise, UniformNoise};
    use crate::wire::w;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn recovery_like_circuit() -> Circuit {
        let mut c = Circuit::new(9);
        c.init(&[w(3), w(4), w(5)])
            .init(&[w(6), w(7), w(8)])
            .maj_inv(w(0), w(3), w(6))
            .maj_inv(w(1), w(4), w(7))
            .maj_inv(w(2), w(5), w(8))
            .maj(w(0), w(1), w(2))
            .maj(w(3), w(4), w(5))
            .maj(w(6), w(7), w(8));
        c
    }

    #[test]
    fn engine_scalar_run_is_seed_deterministic() {
        // Same seed ⇒ identical fault sequences and final states.
        let c = recovery_like_circuit();
        let noise = UniformNoise::new(0.2);
        let engine = Engine::compile(&c, &noise);
        let mut s_a = BitState::zeros(9);
        let mut s_b = BitState::zeros(9);
        let mut rng_a = SmallRng::seed_from_u64(17);
        let mut rng_b = SmallRng::seed_from_u64(17);
        let a = engine.run_scalar(&mut s_a, &mut rng_a);
        let b = engine.run_scalar(&mut s_b, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(s_a, s_b);
    }

    #[test]
    fn planned_fault_overrides_one_op() {
        let mut c = Circuit::new(3);
        c.not(w(0)).not(w(1));
        let mut s = BitState::zeros(3);
        // op 0 "fails" leaving 0 on its support; op 1 runs normally.
        PlannedFaultBackend::new(&FaultPlan::single(0, 0)).run_state(&c, &mut s);
        assert!(!s.get(w(0)));
        assert!(s.get(w(1)));
    }

    #[test]
    fn planned_fault_pattern_maps_to_support_order() {
        let mut c = Circuit::new(3);
        c.maj(w(2), w(0), w(1)); // support order: q2, q0, q1
        let mut s = BitState::zeros(3);
        PlannedFaultBackend::new(&FaultPlan::single(0, 0b011)).run_state(&c, &mut s);
        // bit0 of pattern -> q2, bit1 -> q0, bit2 -> q1
        assert!(s.get(w(2)));
        assert!(s.get(w(0)));
        assert!(!s.get(w(1)));
    }

    #[test]
    fn geometric_matches_bernoulli_statistically() {
        // Mean number of faults over many runs should agree within a few
        // standard errors for both executors.
        let c = recovery_like_circuit();
        let g = 0.05;
        let trials = 4000;
        let mut rng = SmallRng::seed_from_u64(42);
        let engine = Engine::compile(&c, &UniformNoise::new(g));
        let mut bernoulli_total = 0usize;
        let mut geometric_total = 0usize;
        for _ in 0..trials {
            let mut s = BitState::zeros(9);
            bernoulli_total += engine.run_scalar(&mut s, &mut rng).fault_count();
            let mut s = BitState::zeros(9);
            geometric_total += run_noisy_geometric(&c, &mut s, g, &mut rng).fault_count();
        }
        let expected = g * c.len() as f64 * trials as f64;
        let sd = (trials as f64 * c.len() as f64 * g * (1.0 - g)).sqrt();
        let tol = 5.0 * sd;
        assert!(
            ((bernoulli_total as f64) - expected).abs() < tol,
            "bernoulli {bernoulli_total} vs expected {expected}"
        );
        assert!(
            ((geometric_total as f64) - expected).abs() < tol,
            "geometric {geometric_total} vs expected {expected}"
        );
    }

    #[test]
    fn geometric_zero_noise_is_ideal() {
        let c = recovery_like_circuit();
        let mut s = BitState::from_u64(0b111, 9);
        let mut rng = SmallRng::seed_from_u64(5);
        let report = run_noisy_geometric(&c, &mut s, 0.0, &mut rng);
        assert!(report.faults.is_empty());
        let mut s2 = BitState::from_u64(0b111, 9);
        run_ideal(&c, &mut s2);
        assert_eq!(s, s2);
    }

    #[test]
    #[should_panic(expected = "state width")]
    fn width_mismatch_panics() {
        let c = Circuit::new(3);
        let mut s = BitState::zeros(4);
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = Engine::compile(&c, &NoNoise).run_scalar(&mut s, &mut rng);
    }
}
