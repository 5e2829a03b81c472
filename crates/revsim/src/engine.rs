//! The unified execution engine: compile once, run many.
//!
//! Every consumer of the simulator — the Monte-Carlo estimators, the
//! experiment harness, benches and examples — funnels through this module
//! instead of choosing between the scalar executors ([`crate::exec`]) and
//! the bit-parallel batch executors ([`crate::batch`]) by hand.
//!
//! The pieces:
//!
//! - [`Engine`] — the compile-once artifact: the flattened operation
//!   stream plus the per-operation fault probabilities derived from a
//!   bound [`NoiseModel`]. Compiling is one pass over the circuit; the
//!   fault source (`crate::source`: every word's fault schedule in
//!   O(faults)) and the micro-op program are built lazily on first use,
//!   and an `Engine` is then reused across as many runs as needed.
//! - [`Backend`] — an object-safe execution strategy over 64-lane words:
//!   [`ScalarBackend`] (the semantic reference: one [`BitState`] per lane,
//!   ops applied scalarly), [`BatchBackend`] (branch-free bit-plane
//!   kernels), and [`PlannedFaultBackend`] (deterministic fault injection
//!   from a [`FaultPlan`], the exhaustive-proof path).
//! - [`McOptions`] — the typed Monte-Carlo run configuration: `trials`,
//!   `seed`, `threads`, an explicit or [`BackendKind::Auto`] backend with
//!   a batch-routing threshold, and an optional target relative error
//!   that enables adaptive early stopping.
//! - [`WordTrial`] — how a caller prepares 64 trial inputs and judges 64
//!   outcomes; [`Engine::estimate`] drives it through the selected
//!   backend, threaded and deterministically seeded.
//! - [`Simulation`] — an `Engine` bound to its `McOptions`: the
//!   compile-once/run-many handle for repeated estimates.
//!
//! # Backend selection policy
//!
//! [`BackendKind::Auto`] routes a run to [`BatchBackend`] when the trial
//! budget reaches [`McOptions::batch_threshold`] (default
//! [`DEFAULT_BATCH_THRESHOLD`] = 256 trials: four 64-lane words, enough to
//! amortize plane packing) and to [`ScalarBackend`] below it.
//!
//! Both Monte-Carlo backends consume the *same* random stream in the same
//! order — per word, its trial inputs, then its whole fault schedule
//! (drawn in O(faults) by the fault source), then the random planes of
//! its faulted ops in op order — so for a given seed they produce
//! **bit-identical lanes**, not merely statistically equivalent ones. The
//! property tests in `tests/batch_equivalence.rs` pin this down; the
//! schedules' distribution is checked against the retired per-op sampler
//! in `tests/fault_source.rs`.
//!
//! # Rare-event estimation
//!
//! Deep below threshold (`g ≪ ρ`) almost every trial executes fault-free,
//! and a fault-free trial of an encode → run → decode experiment cannot
//! fail: plain Monte-Carlo spends essentially its whole budget confirming
//! an outcome that is known analytically. The [`Estimator::Stratified`]
//! mode in [`McOptions`] instead *stratifies by the per-trial fault count*
//! `K` — a Poisson-binomial random variable whose distribution the engine
//! derives once from the compiled per-op fault probabilities
//! ([`Engine::fault_count_pmf`]).
//!
//! Writing `w_k = P(K = k)` and `q_k = P(trial fails | K = k)`, the
//! logical failure rate decomposes exactly as
//!
//! ```text
//! p  =  Σ_k w_k · q_k  =  Σ_{k ≥ m} w_k · q_k        (q_k = 0 for k < m)
//! ```
//!
//! where the *elided* strata `k < m` (`m =` `min_faults`, default 1)
//! contribute nothing: a fault-free word never fails, so the `k = 0`
//! stratum — weight `P(K = 0) =` [`Engine::fault_free_probability`] — is
//! resolved analytically with **zero variance and zero executed words**.
//! Each executed stratum conditions word generation on its fault count
//! (sample the count, then place the faults via the exact conditional
//! distribution), so the estimator
//!
//! ```text
//! p̂  =  Σ_{k ≥ m} w_k · q̂_k ,    q̂_k = failures_k / trials_k
//! ```
//!
//! is unbiased (`E q̂_k = q_k`), with variance
//! `Σ_k w_k² q_k (1 − q_k) / n_k` — smaller than plain MC's
//! `p(1 − p)/n` by roughly the fault-free mass, and far smaller once the
//! per-round Neyman reallocation concentrates trials in the strata that
//! actually produce failures. `rft_analysis::stats::stratified_estimate`
//! turns the per-stratum tallies into a Wilson-style confidence interval.
//!
//! **Worked level-2 example.** A level-2 concatenated Toffoli cycle has
//! ~1800 fallible ops; at `g = 10⁻³` its logical failure rate is ~10⁻⁶
//! (Equation 2 bound `ρ(g/ρ)⁴ ≈ 4.5·10⁻⁶`). Plain MC at 10⁶ trials
//! expects a handful of failures — an interval spanning a decade. The
//! stratified estimator elides the `K ≤ 1` mass (~46%; single faults are
//! provably corrected, so `min_faults = 2` is sound once the single-fault
//! sweep of `rft_core::ftcheck` has passed), spends its words on the
//! `K = 2, 3, …` strata in Neyman proportion, and resolves the same rate
//! to ~10% relative error in seconds — see `benches/rare_event.rs`.
//!
//! The scheme preserves the engine's determinism contract: strata
//! allocation is a pure function of the seed-deterministic tallies, every
//! word still derives its RNG stream from `(seed, global word index)`,
//! and both Monte-Carlo backends execute one shared conditional mask
//! schedule, so stratified results are bit-identical across backends and
//! thread counts for a given seed. Plain and stratified words run through
//! the same word loop; they differ only in the distribution their fault
//! schedules are drawn from.
//!
//! # Examples
//!
//! ```
//! use rft_revsim::prelude::*;
//!
//! // The Figure-2-style recovery circuit under uniform noise.
//! let mut c = Circuit::new(9);
//! c.init(&[w(3), w(4), w(5)])
//!     .init(&[w(6), w(7), w(8)])
//!     .maj_inv(w(0), w(3), w(6))
//!     .maj_inv(w(1), w(4), w(7))
//!     .maj_inv(w(2), w(5), w(8))
//!     .maj(w(0), w(1), w(2))
//!     .maj(w(3), w(4), w(5))
//!     .maj(w(6), w(7), w(8));
//!
//! // Compile once...
//! let engine = Engine::compile(&c, &UniformNoise::new(0.01));
//!
//! // ...run many: scalar one-shot,
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut state = BitState::zeros(9);
//! let report = engine.run_scalar(&mut state, &mut rng);
//!
//! // ...or 64 lanes at a time on the batch backend.
//! let mut batch = BatchState::zeros(9, 1);
//! let batch_report = engine.run_batch(&mut batch, &mut rng);
//! assert_eq!(batch_report.faulted_lanes.len(), 1);
//! # let _ = report;
//! ```

use crate::batch::{kernels, BatchExecReport, BatchState};
use crate::circuit::Circuit;
use crate::exec::ExecReport;
use crate::fault::FaultPlan;
use crate::microop::{self, CompileStats, CompiledOps, ExecScratch, WideOutcome};
use crate::noise::NoiseModel;
use crate::op::Op;
use crate::source::{FaultSource, LaneFaults};
use crate::state::BitState;
use crate::tap::{InitTap, ResetTap, TappedOps};
use crate::wire::Wire;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rft_obs::{Collector, Gauge, Hist, Metric};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};

/// Trial count at which [`BackendKind::Auto`] switches from the scalar to
/// the batch backend (four 64-lane words).
pub const DEFAULT_BATCH_THRESHOLD: u64 = 256;

/// Default number of fault-count strata for [`Estimator::Stratified`]
/// (explicit counts `m, m+1, …` plus one unbounded tail stratum).
pub const DEFAULT_STRATA_CAP: u32 = 4;

/// Executable probability mass (`P(K ≥ min_failing_faults)`) below which
/// [`Estimator::Auto`] routes an eligible trial to the stratified
/// estimator: once ≥ 80% of plain-MC words would resolve analytically,
/// conditioning pays for its bookkeeping many times over.
pub const STRATIFIED_ROUTING_THRESHOLD: f64 = 0.2;

/// Upper bound on the doubling round size of the stratified word loop
/// (bounds thread-spawn overhead without starving reallocation).
const MAX_ROUND_WORDS: u64 = 8192;

/// Failures required before adaptive early stopping may trigger (below
/// this the relative-error estimate itself is too noisy to act on).
const MIN_FAILURES_FOR_STOP: u64 = 16;

/// Words per adaptive round (stopping checks happen at round boundaries).
/// Fixed — independent of the thread count — so an early-stopped result
/// is exactly as deterministic as a full run: a function of the seed
/// alone.
const ADAPTIVE_ROUND_WORDS: u64 = 32;

/// Per-word seed stride (golden-ratio odd constant, as in SplitMix64).
pub(crate) const WORD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Marker for operations that never fault.
pub(crate) const NEVER: usize = usize::MAX;

// ---------------------------------------------------------------------------
// Fault table: per-op probabilities grouped by rate
// ---------------------------------------------------------------------------

/// A [`NoiseModel`] lowered against one circuit: per-op fault
/// probabilities, grouped into rate groups (ops sharing one probability).
#[derive(Debug, Clone)]
pub(crate) struct FaultTable {
    /// Fault probability per operation.
    pub(crate) probs: Vec<f64>,
    /// Rate group per operation ([`NEVER`] = never faults).
    pub(crate) group_of: Vec<usize>,
    /// Fault probability per rate group (one per distinct nonzero rate).
    pub(crate) rates: Vec<f64>,
    /// `Π (1 − p_i)`: probability that one trial executes fault-free.
    p_fault_free: f64,
}

impl FaultTable {
    pub(crate) fn compile<N: NoiseModel + ?Sized>(circuit: &Circuit, noise: &N) -> Self {
        let mut rates: Vec<f64> = Vec::new();
        let mut probs = Vec::with_capacity(circuit.len());
        let mut p_fault_free = 1.0f64;
        let group_of = circuit
            .ops()
            .iter()
            .map(|op| {
                let p = noise.fault_probability(op);
                assert!(
                    (0.0..=1.0).contains(&p),
                    "noise model returned probability {p} outside [0,1]"
                );
                probs.push(p);
                p_fault_free *= 1.0 - p;
                if p <= 0.0 {
                    return NEVER;
                }
                match rates.iter().position(|&r| r.to_bits() == p.to_bits()) {
                    Some(i) => i,
                    None => {
                        rates.push(p);
                        rates.len() - 1
                    }
                }
            })
            .collect();
        FaultTable {
            probs,
            group_of,
            rates,
            p_fault_free,
        }
    }
}

/// Draws one plain fault schedule per word of `batch` from `rng`, then
/// executes it on the raw op-at-a-time loop — per-lane [`BitState`]
/// replay when `scalar` — drawing the fault planes from the same `rng`.
/// The single implementation behind [`Engine::run_batch`] and the
/// [`ScalarBackend`]/[`BatchBackend`] `run` methods.
fn run_sampled<R: RngCore + ?Sized>(
    engine: &Engine,
    batch: &mut BatchState,
    rng: &mut R,
    scalar: bool,
) -> BatchExecReport {
    assert_eq!(
        batch.n_wires(),
        engine.circuit.n_wires(),
        "batch width must match circuit width"
    );
    let words = batch.words_per_wire();
    let mut masks = vec![0u64; engine.circuit.len() * words];
    let source = engine.fault_source();
    for slot in 0..words {
        source.plain(rng, &mut masks, words, slot);
    }
    if scalar {
        run_masked_scalar(&engine.circuit, batch, &masks, rng)
    } else {
        run_masked_raw(&engine.circuit, batch, &masks, rng)
    }
}

/// Executes `batch` under a **precomputed** fault-mask schedule
/// (`masks[op * words + w]` = lanes in which op `op` faults in plane word
/// `w`) on the op-at-a-time bit-plane kernels — the raw reference the
/// compiled masked loop is benchmarked and property-tested against.
/// Fault planes are drawn from `rng` per op in op order, word by word,
/// exactly as [`run_masked_scalar`] draws them.
pub(crate) fn run_masked_raw<R: RngCore + ?Sized>(
    circuit: &Circuit,
    batch: &mut BatchState,
    masks: &[u64],
    rng: &mut R,
) -> BatchExecReport {
    let words = check_masked(circuit, batch, masks);
    let mut report = BatchExecReport {
        fault_events: 0,
        faulted_lanes: vec![0; words],
    };
    for (op, masks) in circuit.ops().iter().zip(masks.chunks_exact(words)) {
        for (word, &fault) in masks.iter().enumerate() {
            if fault == 0 {
                kernels::apply_word(batch, op, word);
                continue;
            }
            let mut rand_planes = [0u64; 4];
            fill_fault_planes(op.arity(), fault, rng, &mut rand_planes);
            kernels::apply_word_masked(batch, op, word, fault, &rand_planes);
            report.fault_events += fault.count_ones() as u64;
            report.faulted_lanes[word] |= fault;
        }
    }
    report
}

/// Asserts that `masks` is a schedule for `batch` under `circuit`;
/// returns the batch's plane words per wire.
fn check_masked(circuit: &Circuit, batch: &BatchState, masks: &[u64]) -> usize {
    assert_eq!(
        batch.n_wires(),
        circuit.n_wires(),
        "batch width must match circuit width"
    );
    let words = batch.words_per_wire();
    assert_eq!(
        masks.len(),
        circuit.len() * words,
        "mask schedule does not match this circuit"
    );
    words
}

/// Fills the per-support-wire random planes a masked op consumes. In the
/// common sparse case — a single faulted lane — only `arity` random
/// *bits* are needed, so one `u64` draw covers them; otherwise one full
/// plane per support wire is drawn. Part of the shared backend schedule:
/// every masked runner calls this in the same op order.
#[inline]
pub(crate) fn fill_fault_planes<R: RngCore + ?Sized>(
    arity: usize,
    fault: u64,
    rng: &mut R,
    rand_planes: &mut [u64; 4],
) {
    if fault.count_ones() == 1 {
        let lane = fault.trailing_zeros();
        let bits = rng.next_u64();
        for (k, plane) in rand_planes.iter_mut().enumerate().take(arity) {
            *plane = ((bits >> k) & 1) << lane;
        }
        return;
    }
    for plane in rand_planes.iter_mut().take(arity) {
        *plane = rng.next_u64();
    }
}

/// Scalar twin of [`run_masked_raw`]: unpacks every lane into a
/// [`BitState`] and replays the identical fault schedule and random-plane
/// stream one lane at a time.
pub(crate) fn run_masked_scalar<R: RngCore + ?Sized>(
    circuit: &Circuit,
    batch: &mut BatchState,
    masks: &[u64],
    rng: &mut R,
) -> BatchExecReport {
    let words = check_masked(circuit, batch, masks);
    let mut lanes: Vec<BitState> = (0..batch.lanes()).map(|l| batch.lane(l)).collect();
    let mut report = BatchExecReport {
        fault_events: 0,
        faulted_lanes: vec![0; words],
    };
    for (op, masks) in circuit.ops().iter().zip(masks.chunks_exact(words)) {
        let support = op.support();
        let wires = support.as_slice();
        for (word, &fault) in masks.iter().enumerate() {
            let states = &mut lanes[word * 64..(word + 1) * 64];
            if fault == 0 {
                for state in states {
                    op.apply(state);
                }
                continue;
            }
            let mut rand_planes = [0u64; 4];
            fill_fault_planes(op.arity(), fault, rng, &mut rand_planes);
            for (lane, state) in states.iter_mut().enumerate() {
                if (fault >> lane) & 1 == 1 {
                    let mut pattern = 0u8;
                    for (k, _) in wires.iter().enumerate() {
                        pattern |= (((rand_planes[k] >> lane) & 1) as u8) << k;
                    }
                    state.write_pattern(wires, pattern);
                } else {
                    op.apply(state);
                }
            }
            report.fault_events += fault.count_ones() as u64;
            report.faulted_lanes[word] |= fault;
        }
    }
    for (lane, state) in lanes.iter().enumerate() {
        batch.set_lane(lane, state);
    }
    report
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// A circuit compiled against a noise model: the compile-once artifact
/// shared by every backend.
///
/// Owns the flattened op stream and the lowered fault table; build one
/// with [`Engine::compile`] and reuse it for any number of runs.
#[must_use = "an Engine does nothing until it runs"]
#[derive(Debug)]
pub struct Engine {
    circuit: Circuit,
    table: FaultTable,
    /// Fault source and fault-count distribution, built on the first
    /// run (compiling stays a single cheap pass).
    source: OnceLock<FaultSource>,
    /// Micro-op program (linear-segment fusion + wide kernels), built on
    /// first word-loop use — [`Engine::compile`] itself stays a single
    /// cheap pass.
    compiled: OnceLock<CompiledOps>,
    /// The program split before every INIT, for the reset tap
    /// ([`Engine::tally_resets`]); built on first use.
    tapped: OnceLock<TappedOps>,
    /// Memoized stratified-estimator layouts, keyed by
    /// `(min_faults, strata_cap)` (derived from the fault-count PMF once
    /// instead of on every estimate call).
    plans: Mutex<Vec<Arc<StrataPlan>>>,
}

impl Clone for Engine {
    fn clone(&self) -> Self {
        let source = OnceLock::new();
        if let Some(d) = self.source.get() {
            let _ = source.set(d.clone());
        }
        let compiled = OnceLock::new();
        if let Some(c) = self.compiled.get() {
            let _ = compiled.set(c.clone());
        }
        let tapped = OnceLock::new();
        if let Some(t) = self.tapped.get() {
            let _ = tapped.set(t.clone());
        }
        Engine {
            circuit: self.circuit.clone(),
            table: self.table.clone(),
            source,
            compiled,
            tapped,
            plans: Mutex::new(self.plans.lock().map(|g| g.clone()).unwrap_or_default()),
        }
    }
}

impl Engine {
    /// Compiles `circuit` bound to `noise`.
    ///
    /// # Panics
    ///
    /// Panics if the model reports a probability outside `[0, 1]`.
    pub fn compile<N: NoiseModel + ?Sized>(circuit: &Circuit, noise: &N) -> Self {
        Engine {
            circuit: circuit.clone(),
            table: FaultTable::compile(circuit, noise),
            source: OnceLock::new(),
            compiled: OnceLock::new(),
            tapped: OnceLock::new(),
            plans: Mutex::new(Vec::new()),
        }
    }

    /// The lazily compiled micro-op program (see [`crate::microop`]).
    pub(crate) fn compiled(&self) -> &CompiledOps {
        self.compiled
            .get_or_init(|| microop::compile(&self.circuit, &self.table))
    }

    /// The lazily compiled program split before every INIT (see
    /// [`crate::tap`]).
    fn tapped(&self) -> &TappedOps {
        self.tapped
            .get_or_init(|| TappedOps::compile(&self.circuit, &self.table))
    }

    /// The program a word loop with tap `K` runs.
    fn program<K: InitTap>(&self) -> &CompiledOps {
        if K::SPLIT_INITS {
            &self.tapped().ops
        } else {
            self.compiled()
        }
    }

    /// Forces the lazy IR lowering `lower` with its cost instrumented:
    /// when this call performs the lowering, the time lands in
    /// `engine.lower_ns` under an `engine.lower` span. Subsequent calls
    /// hit the memoized program and record nothing.
    fn lower_obs<T>(cell: &OnceLock<T>, obs: &Collector, lower: impl FnOnce() -> T) {
        if cell.get().is_some() {
            return;
        }
        let _span = obs.span_metric("engine.lower", Metric::LowerNanos);
        cell.get_or_init(lower);
        obs.incr(Metric::IrLowerings);
    }

    /// Statistics of the micro-op compile pass — ops before/after fusion
    /// and the fused-segment histogram. Forces the (lazy, memoized)
    /// micro-op compilation.
    pub fn compile_stats(&self) -> &CompileStats {
        &self.compiled().stats
    }

    /// Approximate resident size of this compiled engine in bytes: the
    /// op stream, the fault table, and whatever lazy artifacts (fault-
    /// count distribution, micro-op program) have been built so far.
    ///
    /// An estimate, not an allocator census — it is the size input of the
    /// compile cache's cost-based eviction policy, where only relative
    /// magnitudes matter (a level-2 engine weighs ~20× a level-1 one).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Engine>();
        bytes += std::mem::size_of_val::<[Op]>(self.circuit.ops());
        bytes += self.table.probs.len() * size_of::<f64>();
        bytes += self.table.group_of.len() * size_of::<usize>();
        bytes += self.table.rates.len() * size_of::<f64>();
        if let Some(source) = self.source.get() {
            bytes += source.approx_bytes();
        }
        if let Some(ops) = self.compiled.get() {
            bytes += ops.approx_bytes();
        }
        if let Some(tapped) = self.tapped.get() {
            bytes += tapped.approx_bytes();
        }
        bytes
    }

    /// The compiled circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of operations in the compiled stream.
    pub fn n_ops(&self) -> usize {
        self.circuit.len()
    }

    /// Width of the compiled circuit in wires.
    pub fn n_wires(&self) -> usize {
        self.circuit.n_wires()
    }

    /// The precomputed fault probability of operation `op_index`.
    ///
    /// # Panics
    ///
    /// Panics if `op_index` is out of range.
    pub fn fault_probability(&self, op_index: usize) -> f64 {
        self.table.probs[op_index]
    }

    /// `P(K = 0)`: the probability that one trial executes entirely
    /// fault-free, `Π (1 − pᵢ)` over the compiled op stream — the mass the
    /// stratified estimator resolves analytically (zero-fault elision).
    pub fn fault_free_probability(&self) -> f64 {
        self.table.p_fault_free
    }

    /// The lazily built fault source (and fault-count distribution).
    pub(crate) fn fault_source(&self) -> &FaultSource {
        self.source.get_or_init(|| FaultSource::build(&self.table))
    }

    /// The PMF of the per-trial fault count `K` — a Poisson binomial over
    /// the per-op fault probabilities, computed once per engine (entry `k`
    /// is `P(K = k)`; the vector is truncated where the remaining tail
    /// mass drops below ~10⁻¹²). These are the stratified estimator's
    /// stratum weights.
    pub fn fault_count_pmf(&self) -> &[f64] {
        self.fault_source().pmf()
    }

    /// `P(K ≥ k)` under the compiled fault-count distribution.
    pub fn fault_count_at_least(&self, k: u32) -> f64 {
        self.fault_source().mass_at_least(k as usize)
    }

    /// Binds Monte-Carlo options, producing the run-many [`Simulation`]
    /// handle.
    pub fn with_options(self, options: McOptions) -> Simulation {
        Simulation {
            engine: self,
            options,
        }
    }

    /// Runs one noisy scalar trial on `state` (classic per-trial
    /// semantics: one uniform draw per fallible operation; a faulting
    /// operation randomizes its support instead of executing).
    ///
    /// # Panics
    ///
    /// Panics if the state width does not match the circuit width.
    pub fn run_scalar<R: Rng + ?Sized>(&self, state: &mut BitState, rng: &mut R) -> ExecReport {
        assert_eq!(
            state.len(),
            self.circuit.n_wires(),
            "state width must match circuit width"
        );
        let mut report = ExecReport::default();
        for (i, op) in self.circuit.ops().iter().enumerate() {
            let p = self.table.probs[i];
            if p > 0.0 && rng.random::<f64>() < p {
                let support = op.support();
                state.randomize(support.as_slice(), rng);
                report.faults.push(i);
            } else {
                op.apply(state);
            }
        }
        report
    }

    /// Runs the compiled circuit over every lane of `batch` on the
    /// bit-parallel backend: one plain fault schedule per plane word is
    /// drawn from `rng` (word by word, see [`Engine::sample_faults`]),
    /// then the op-at-a-time kernels execute it, drawing each faulted
    /// op's random planes from `rng` in op order.
    ///
    /// # Panics
    ///
    /// Panics if the batch width does not match the circuit width.
    pub fn run_batch<R: Rng + ?Sized>(
        &self,
        batch: &mut BatchState,
        rng: &mut R,
    ) -> BatchExecReport {
        run_sampled(self, batch, rng, false)
    }

    /// Draws one word's plain fault schedule from `rng` into `masks`
    /// (`masks[i]` = lanes in which op `i` faults; every `(op, lane)`
    /// faults independently at the op's rate) and returns the number of
    /// 64-bit RNG words drawn. This is the schedule every sampled run and
    /// the plain estimator execute; the draw costs O(faults), not O(ops).
    ///
    /// # Panics
    ///
    /// Panics if `masks.len() != n_ops`.
    pub fn sample_faults<R: RngCore + ?Sized>(&self, rng: &mut R, masks: &mut [u64]) -> u64 {
        assert_eq!(masks.len(), self.n_ops(), "one mask per op");
        masks.fill(0);
        self.fault_source().plain(rng, masks, 1, 0)
    }

    /// [`Engine::sample_faults`] conditioned on every lane carrying
    /// exactly `faults` faults (at most one per fallible op) — the
    /// schedule of a stratified word in the stratum `K = faults`.
    ///
    /// # Panics
    ///
    /// Panics if `masks.len() != n_ops`.
    pub fn sample_faults_exactly<R: RngCore + ?Sized>(
        &self,
        faults: usize,
        rng: &mut R,
        masks: &mut [u64],
    ) -> u64 {
        assert_eq!(masks.len(), self.n_ops(), "one mask per op");
        masks.fill(0);
        self.fault_source()
            .conditioned(LaneFaults::Exactly(faults), rng, masks, 1, 0)
    }

    /// Runs the **compiled micro-op program** (linear-segment fusion +
    /// wide kernels) over a `W`-word wide batch, where `W =
    /// batch.words_per_wire() = rngs.len() ∈ {1, 2, 4}` and logical word
    /// `w` draws all of its randomness from `rngs[w]`: its plain fault
    /// schedule ([`Engine::sample_faults`]), then its fault planes in op
    /// order. Lanes are therefore bit-identical to `W` independent
    /// [`Engine::run_batch`] runs at the same seeds. This is the sampled
    /// pass of the plain estimator's word loop, public so benches can
    /// time it.
    ///
    /// # Panics
    ///
    /// Panics if the widths disagree, `rngs.len() != words_per_wire()`,
    /// or the width is not 1, 2 or 4.
    pub fn run_batch_fused(
        &self,
        batch: &mut BatchState,
        rngs: &mut [SmallRng],
    ) -> BatchExecReport {
        let w = batch.words_per_wire();
        assert_eq!(w, rngs.len(), "need exactly one RNG per logical word");
        let mut masks = vec![0u64; self.n_ops() * w];
        let source = self.fault_source();
        for (slot, rng) in rngs.iter_mut().enumerate() {
            source.plain(rng, &mut masks, w, slot);
        }
        self.run_batch_masked(batch, &masks, rngs)
    }

    /// Runs one `W`-wide word under a **precomputed** fault-mask
    /// schedule through the compiled micro-op program — the word loop of
    /// both estimators, public so benches can measure it against
    /// [`Engine::run_batch_masked_raw`].
    ///
    /// `masks` uses the flat wide layout `masks[i * W + w]` = lanes in
    /// which op `i` faults in logical word `w` (for `W = 1` this is the
    /// plain per-op schedule of [`Backend::run_masked`]). Logical word
    /// `w` draws its fault planes from `rngs[w]` in op order via the
    /// shared sparse schedule, so results are bit-identical to `W`
    /// single-word [`Backend::run_masked`] calls.
    ///
    /// # Panics
    ///
    /// Panics if widths disagree, `rngs.len() != words_per_wire()`, the
    /// width is not 1, 2 or 4, or `masks.len() != n_ops × W`.
    pub fn run_batch_masked(
        &self,
        batch: &mut BatchState,
        masks: &[u64],
        rngs: &mut [SmallRng],
    ) -> BatchExecReport {
        let w = check_masked(&self.circuit, batch, masks);
        assert_eq!(w, rngs.len(), "need exactly one RNG per logical word");
        let compiled = self.compiled();
        let mut scratch = ExecScratch::default();
        fn go<const W: usize>(
            compiled: &CompiledOps,
            batch: &mut BatchState,
            masks: &[u64],
            rngs: &mut [SmallRng],
            scratch: &mut ExecScratch,
        ) -> BatchExecReport {
            let rngs: &mut [SmallRng; W] = rngs.try_into().expect("len checked");
            let out =
                microop::run_masked_wide::<W, ()>(compiled, batch, masks, rngs, scratch, &mut ());
            BatchExecReport {
                fault_events: out.fault_events,
                faulted_lanes: out.faulted.to_vec(),
            }
        }
        match w {
            1 => go::<1>(compiled, batch, masks, rngs, &mut scratch),
            2 => go::<2>(compiled, batch, masks, rngs, &mut scratch),
            4 => go::<4>(compiled, batch, masks, rngs, &mut scratch),
            other => panic!("unsupported word width {other} (expected 1, 2 or 4)"),
        }
    }

    /// The op-at-a-time masked word loop, kept as the raw reference the
    /// compiled path is benchmarked and property-tested against
    /// (`fused_vs_raw`); not part of any estimator path.
    ///
    /// # Panics
    ///
    /// Panics as [`Backend::run_masked`] on width/schedule mismatches.
    #[doc(hidden)]
    pub fn run_batch_masked_raw(
        &self,
        batch: &mut BatchState,
        masks: &[u64],
        rng: &mut SmallRng,
    ) -> BatchExecReport {
        run_masked_raw(&self.circuit, batch, masks, rng)
    }
    /// Runs the compiled circuit injecting exactly the faults in `plan`
    /// (the noise binding is ignored; see [`PlannedFaultBackend`]).
    ///
    /// # Panics
    ///
    /// Panics if the widths mismatch or a planned index is out of range.
    pub fn run_planned(&self, state: &mut BitState, plan: &FaultPlan) {
        PlannedFaultBackend::new(plan).run_state(&self.circuit, state);
    }

    /// Monte-Carlo estimation: runs `opts.trials` independent trials of
    /// `trial` through the backend selected by `opts`, threaded across
    /// `opts.threads` workers, and counts failing lanes.
    ///
    /// Trials are packed 64 per word; each word derives its RNG from
    /// `opts.seed` and the word index, so results are **deterministic per
    /// seed and backend-independent** (scalar and batch consume identical
    /// streams). With [`McOptions::target_rel_error`] set, estimation
    /// stops early once the estimated relative standard error of the
    /// failure rate reaches the target; stopping happens at fixed
    /// thread-independent round boundaries, so even early-stopped results
    /// are a function of the seed alone.
    ///
    /// # Panics
    ///
    /// Panics if `opts.trials == 0` or the trial's width disagrees with
    /// the compiled circuit.
    pub fn estimate<T: WordTrial + ?Sized>(&self, trial: &T, opts: &McOptions) -> McOutcome {
        self.estimate_obs(trial, opts, &Collector::disabled())
    }

    /// [`Engine::estimate`] with instrumentation: counters, histograms
    /// and spans land in `obs` (see the `rft-obs` catalog for the metric
    /// names). Collection is strictly observational — it never touches an
    /// RNG stream or a scheduling decision, so the outcome is
    /// byte-identical to [`Engine::estimate`] for the same inputs. Word
    /// tallies are accumulated as plain integers inside the hot loops and
    /// flushed to the collector once per run, so the enabled path stays
    /// within noise of the disabled one (gated ≤ 2% by the
    /// `obs_overhead` bench group).
    ///
    /// # Panics
    ///
    /// Panics as [`Engine::estimate`].
    pub fn estimate_obs<T: WordTrial + ?Sized>(
        &self,
        trial: &T,
        opts: &McOptions,
        obs: &Collector,
    ) -> McOutcome {
        assert!(opts.trials > 0, "need at least one trial");
        assert_eq!(
            trial.n_wires(),
            self.circuit.n_wires(),
            "trial width must match circuit width"
        );
        let _span = obs.span_metric("engine.estimate", Metric::EstimateNanos);
        obs.incr(Metric::EstimateCalls);
        let kind = opts.backend.resolve(opts.trials, opts.batch_threshold);
        let path = match kind {
            BackendKind::Batch => ExecPath::Batch {
                width: opts.width.resolve(kind),
            },
            _ => ExecPath::Scalar,
        };
        if matches!(path, ExecPath::Batch { .. }) {
            // Force the lazy IR lowering here so its cost is attributed
            // to `engine.lower` instead of bleeding into the word loops.
            Engine::lower_obs(&self.compiled, obs, || {
                microop::compile(&self.circuit, &self.table)
            });
        }
        let resolved = match opts.estimator {
            Estimator::Auto => {
                let m = trial.min_failing_faults();
                assert!(
                    m == 0 || !trial.fault_free_can_fail(),
                    "a trial whose fault-free lanes can fail must report \
                     min_failing_faults() == 0"
                );
                // P(K ≥ m): the cheap product for m ≤ 1, the lazily built
                // fault-count distribution beyond.
                let mass = match m {
                    0 => 1.0,
                    1 => 1.0 - self.fault_free_probability(),
                    _ => self.fault_source().mass_at_least(m as usize),
                };
                Estimator::Auto.resolve(mass, m)
            }
            explicit => explicit,
        };
        match resolved {
            Estimator::Stratified {
                min_faults,
                strata_cap,
            } => {
                assert!(
                    min_faults == 0 || !trial.fault_free_can_fail(),
                    "the stratified estimator elides words with fewer than {min_faults} \
                     faults, but this trial reports that fault-free words can fail \
                     (WordTrial::fault_free_can_fail); use min_faults = 0 or Estimator::Plain"
                );
                self.estimate_stratified(path, trial, opts, min_faults, strata_cap, obs)
            }
            _ => {
                obs.incr(Metric::PlainRuns);
                self.estimate_plain(path, trial, opts, obs, &mut ())
            }
        }
    }

    /// Tallies the pre-reset patterns of every INIT over `opts.trials`
    /// runs from the fixed state `input` — the §4 reset-entropy
    /// measurement. Runs the compiled word loop, 64 trials per word,
    /// with a tap that reads each INIT's wires just before it executes
    /// (on a second lowering of the circuit, split before every INIT).
    /// Each word is seeded from `(opts.seed, word index)` as in
    /// [`Engine::estimate`], so the counts are identical at any thread
    /// count and width. Only `trials`, `seed`, `threads` and `width` of
    /// `opts` are read.
    ///
    /// Instrumented like an estimate's word loop — an `engine.estimate`
    /// span with per-worker `engine.words` spans, and the executed words
    /// and trials in `obs` — but not counted as an estimate
    /// (`engine.estimates` and `estimator.plain_runs` stay put).
    ///
    /// # Panics
    ///
    /// Panics if `opts.trials == 0` or the input width mismatches the
    /// circuit.
    pub fn tally_resets(
        &self,
        input: &BitState,
        opts: &McOptions,
        obs: &Collector,
    ) -> Vec<ResetSite> {
        assert!(opts.trials > 0, "need at least one trial");
        assert_eq!(
            input.len(),
            self.circuit.n_wires(),
            "input width must match circuit width"
        );
        let _span = obs.span_metric("engine.estimate", Metric::EstimateNanos);
        Engine::lower_obs(&self.tapped, obs, || {
            TappedOps::compile(&self.circuit, &self.table)
        });
        let points = &self.tapped().points;
        let mut tap = ResetTap::new(points);
        let path = ExecPath::Batch {
            width: opts.width.resolve(BackendKind::Batch),
        };
        let opts = McOptions {
            target_rel_error: None,
            ..*opts
        };
        let _ = self.estimate_plain(path, &FixedInput(input), &opts, obs, &mut tap);
        points
            .iter()
            .zip(tap.counts)
            .map(|(p, counts)| ResetSite {
                op_index: p.op_index as usize,
                counts,
            })
            .collect()
    }

    /// The classic estimator: every requested trial is executed, with
    /// `tap` watching the word loop. Callers count the run.
    fn estimate_plain<T: WordTrial + ?Sized, K: InitTap>(
        &self,
        backend: ExecPath,
        trial: &T,
        opts: &McOptions,
        obs: &Collector,
        tap: &mut K,
    ) -> McOutcome {
        let threads = opts.threads.max(1);
        let total_words = opts.trials.div_ceil(64);
        let round_words = match opts.target_rel_error {
            Some(_) => ADAPTIVE_ROUND_WORDS.min(total_words),
            None => total_words,
        };
        let mut done = 0u64;
        let mut failures = 0u64;
        let mut executed = 0u64;
        let mut extras = WordExtras::default();
        let mut early_stopped = false;
        while done < total_words {
            let words = round_words.min(total_words - done);
            let schedules = Schedules::Plain { words };
            let (tallies, x) =
                self.run_word_span(backend, trial, opts, done, schedules, threads, obs, tap);
            failures += tallies[0].0;
            executed += tallies[0].1;
            extras.merge(x);
            done += words;
            if done >= total_words {
                break;
            }
            if let Some(target) = opts.target_rel_error {
                if converged(failures, executed, target) {
                    early_stopped = true;
                    break;
                }
            }
        }
        let outcome = McOutcome {
            failures,
            trials: executed,
            requested: opts.trials,
            early_stopped,
            backend: backend.name(),
            estimator: "plain",
            sample_weight: 1.0,
            executed_words: done,
            strata: Vec::new(),
        };
        flush_run(obs, &outcome, &extras);
        outcome
    }

    /// Runs the words `start ..` covered by `schedules`, split
    /// contiguously across `threads`, returning per-slot `(failures,
    /// executed_trials)` tallies and the extras. Each worker opens an
    /// `engine.words` span on its own thread so the trace attributes
    /// word-loop time to the thread that spent it; the split itself never
    /// consults the collector. Each worker taps into its own fork of
    /// `tap`, folded back in worker order.
    #[allow(clippy::too_many_arguments)]
    fn run_word_span<T: WordTrial + ?Sized, K: InitTap>(
        &self,
        backend: ExecPath,
        trial: &T,
        opts: &McOptions,
        start: u64,
        schedules: Schedules<'_>,
        threads: usize,
        obs: &Collector,
        tap: &mut K,
    ) -> (Vec<(u64, u64)>, WordExtras) {
        let span = schedules.len();
        if threads <= 1 || span <= 1 {
            let _s = obs.span("engine.words");
            return self.run_word_range(backend, trial, opts, start, schedules, tap);
        }
        let threads = (threads as u64).min(span);
        let per = span / threads;
        let extra = span % threads;
        let results: Vec<_> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut first = 0u64;
            for t in 0..threads {
                let n = per + u64::from(t < extra);
                let lo = first;
                first += n;
                let part = schedules.sub(lo, lo + n);
                let mut fork = tap.fork();
                handles.push(scope.spawn(move || {
                    let _s = obs.span("engine.words");
                    let r = self.run_word_range(backend, trial, opts, start + lo, part, &mut fork);
                    (r, fork)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("trial thread panicked"))
                .collect()
        });
        let mut tallies = vec![(0u64, 0u64); schedules.slots()];
        let mut extras = WordExtras::default();
        for ((part, x), fork) in results {
            add_tallies(&mut tallies, &part);
            extras.merge(x);
            tap.merge(fork);
        }
        (tallies, extras)
    }

    /// Runs the words `start ..` covered by `schedules` sequentially, at
    /// the width of the execution path.
    fn run_word_range<T: WordTrial + ?Sized, K: InitTap>(
        &self,
        backend: ExecPath,
        trial: &T,
        opts: &McOptions,
        start: u64,
        schedules: Schedules<'_>,
        tap: &mut K,
    ) -> (Vec<(u64, u64)>, WordExtras) {
        match backend {
            ExecPath::Batch { width: 2 } => {
                self.run_words::<T, K, 2>(backend, trial, opts, start, schedules, tap)
            }
            ExecPath::Batch { width: 4 } => {
                self.run_words::<T, K, 4>(backend, trial, opts, start, schedules, tap)
            }
            _ => self.run_words::<T, K, 1>(backend, trial, opts, start, schedules, tap),
        }
    }

    /// The word loop of every estimator, `W` logical words per batch.
    /// Each word's RNG stream, seeded from `(opts.seed, word index)`,
    /// prepares the word's inputs, draws its fault schedule from the
    /// fault source, then the fault planes of the masked run: on the
    /// compiled micro-op program, or on the scalar path (`W = 1`) on the
    /// per-lane reference. A word's stream and lanes are therefore the
    /// same at any width, thread count and path.
    fn run_words<T: WordTrial + ?Sized, K: InitTap, const W: usize>(
        &self,
        backend: ExecPath,
        trial: &T,
        opts: &McOptions,
        start: u64,
        schedules: Schedules<'_>,
        tap: &mut K,
    ) -> (Vec<(u64, u64)>, WordExtras) {
        let scalar = backend == ExecPath::Scalar;
        debug_assert!(!scalar || (W == 1 && !K::SPLIT_INITS));
        let program = (!scalar).then(|| self.program::<K>());
        let source = self.fault_source();
        let n_wires = self.circuit.n_wires();
        let mut wide = BatchState::zeros(n_wires, W);
        let mut inputs: [Vec<u64>; W] = std::array::from_fn(|_| Vec::new());
        // Flat wide mask layout: masks[op * W + w].
        let mut masks = vec![0u64; self.circuit.len() * W];
        let mut scratch = ExecScratch::default();
        // Fault-free lanes of an elision-eligible trial can never fail:
        // judging then only needs to decode the faulted lanes.
        let judge_faulted_only = !trial.fault_free_can_fail();
        let mut tallies = vec![(0u64, 0u64); schedules.slots()];
        let mut extras = WordExtras::default();
        let n = schedules.len();
        let mut i = 0u64;
        while i < n {
            if n - i < W as u64 {
                // Remainder words run at width 1 — bit-identical, since
                // every word owns its RNG stream regardless of grouping.
                let rest = schedules.sub(i, n);
                let (part, x) =
                    self.run_words::<T, K, 1>(backend, trial, opts, start + i, rest, tap);
                add_tallies(&mut tallies, &part);
                extras.merge(x);
                break;
            }
            let word = start + i;
            let mut rngs: [SmallRng; W] = std::array::from_fn(|k| {
                SmallRng::seed_from_u64(
                    opts.seed ^ WORD_SEED_STRIDE.wrapping_mul(word + k as u64 + 1),
                )
            });
            masks.fill(0);
            wide.clear();
            for (k, rng) in rngs.iter_mut().enumerate() {
                trial.prepare(&mut wide, k, rng, &mut inputs[k]);
                extras.mask_draws += schedules.draw(source, i + k as u64, rng, &mut masks, W, k);
            }
            let valid: [u64; W] =
                std::array::from_fn(|k| valid_lanes(opts.trials, word + k as u64));
            tap.start(&valid);
            let outcome = match program {
                Some(program) => microop::run_masked_wide::<W, K>(
                    program,
                    &mut wide,
                    &masks,
                    &mut rngs,
                    &mut scratch,
                    tap,
                ),
                None => {
                    let report = run_masked_scalar(&self.circuit, &mut wide, &masks, &mut rngs[0]);
                    WideOutcome {
                        faulted: std::array::from_fn(|k| report.faulted_lanes[k]),
                        fault_events: report.fault_events,
                        fused_segments: 0,
                        replayed_segments: 0,
                    }
                }
            };
            extras.fault_events += outcome.fault_events;
            extras.fused_segments += outcome.fused_segments;
            extras.replayed_segments += outcome.replayed_segments;
            for (k, word_inputs) in inputs.iter().enumerate() {
                let valid = valid[k];
                extras.faulted_lanes += (outcome.faulted[k] & valid).count_ones() as u64;
                let candidates = if judge_faulted_only {
                    outcome.faulted[k] & valid
                } else {
                    valid
                };
                let tally = &mut tallies[schedules.slot(i + k as u64)];
                if candidates != 0 {
                    tally.0 += trial.judge(&wide, k, word_inputs, candidates).count_ones() as u64;
                }
                tally.1 += valid.count_ones() as u64;
            }
            i += W as u64;
        }
        (tallies, extras)
    }
    /// The fault-count-stratified rare-event estimator (see the module
    /// docs for the derivation). Words are generated *conditioned on their
    /// stratum's fault count*; strata below `min_faults` contribute
    /// analytically as exact zeros.
    #[allow(clippy::too_many_arguments)]
    fn estimate_stratified<T: WordTrial + ?Sized>(
        &self,
        backend: ExecPath,
        trial: &T,
        opts: &McOptions,
        min_faults: u32,
        strata_cap: u32,
        obs: &Collector,
    ) -> McOutcome {
        obs.incr(Metric::StratifiedRuns);
        // Stratum layout + tail CDF are pure functions of the compiled
        // fault-count PMF — derived once per (min_faults, strata_cap)
        // and memoized on the engine.
        let plan = self.strata_plan(min_faults, strata_cap);
        let mut strata: Vec<StratumOutcome> = plan.strata.clone();
        let sample_weight = plan.sample_weight;
        obs.set_gauge(Gauge::ElidedMass, (1.0 - sample_weight).max(0.0));
        if plan.all_elided {
            // Everything below `min_faults`: the whole budget resolves
            // analytically (e.g. a noiseless model) — nothing to execute.
            let outcome = McOutcome {
                failures: 0,
                trials: opts.trials,
                requested: opts.trials,
                early_stopped: false,
                backend: backend.name(),
                estimator: "stratified",
                sample_weight,
                executed_words: 0,
                strata,
            };
            flush_run(obs, &outcome, &WordExtras::default());
            return outcome;
        }
        let threads = opts.threads.max(1);
        let total_words = opts.trials.div_ceil(64);
        let mut next_word = 0u64;
        let mut round_size = ADAPTIVE_ROUND_WORDS;
        let mut early_stopped = false;
        let mut assignment: Vec<u32> = Vec::new();
        let mut extras = WordExtras::default();
        while next_word < total_words {
            let _round_span = obs.span("estimator.round");
            obs.incr(Metric::StratifiedRounds);
            let round = round_size.min(total_words - next_word);
            obs.add(Metric::AllocatedWords, round);
            // Neyman scores from the *observed* per-stratum variance
            // `wₖ·√(q̂ₖ(1−q̂ₖ))`. A stratum that has never failed is
            // scored by its rule-of-three uncertainty `wₖ·√(1.5/nₖ)` —
            // the term the stopping rule must drive down — capped at
            // twice the best failing score so it cannot starve failure
            // accumulation. Before any failure exists anywhere, all
            // scores are zero and the round splits uniformly (discovery).
            let max_failing = strata
                .iter()
                .filter(|s| s.weight > 0.0 && s.trials > 0 && s.failures > 0)
                .map(|s| {
                    let q = s.failures as f64 / s.trials as f64;
                    s.weight * (q * (1.0 - q)).sqrt()
                })
                .fold(0.0f64, f64::max);
            let scores: Vec<f64> = strata
                .iter()
                .map(|s| {
                    if s.weight <= 0.0 || s.trials == 0 || max_failing <= 0.0 {
                        return 0.0;
                    }
                    if s.failures == 0 {
                        let n = s.trials as f64;
                        return (s.weight * (1.5 / n).sqrt()).min(2.0 * max_failing);
                    }
                    let q = s.failures as f64 / s.trials as f64;
                    s.weight * (q * (1.0 - q)).sqrt()
                })
                .collect();
            let weights: Vec<f64> = strata.iter().map(|s| s.weight).collect();
            let alloc = apportion_words(&scores, &weights, round);
            assignment.clear();
            for (si, &n) in alloc.iter().enumerate() {
                if n > 0 {
                    obs.observe(Hist::RoundWords, n);
                }
                assignment.extend(std::iter::repeat_n(si as u32, n as usize));
            }
            let schedules = Schedules::Strata {
                plan: &plan,
                assignment: &assignment,
            };
            let (tallies, round_extras) = self.run_word_span(
                backend,
                trial,
                opts,
                next_word,
                schedules,
                threads,
                obs,
                &mut (),
            );
            extras.merge(round_extras);
            extras.masked_words += round;
            for (s, (f, n)) in strata.iter_mut().zip(&tallies) {
                s.failures += f;
                s.trials += n;
            }
            next_word += round;
            round_size = (round_size * 2).min(MAX_ROUND_WORDS);
            if next_word >= total_words {
                break;
            }
            if let Some(target) = opts.target_rel_error {
                if stratified_converged(&strata, target) {
                    early_stopped = true;
                    break;
                }
            }
        }

        let outcome = McOutcome {
            failures: strata.iter().map(|s| s.failures).sum(),
            trials: strata.iter().map(|s| s.trials).sum(),
            requested: opts.trials,
            early_stopped,
            backend: backend.name(),
            estimator: "stratified",
            sample_weight,
            executed_words: next_word,
            strata,
        };
        flush_run(obs, &outcome, &extras);
        outcome
    }

    /// The memoized stratified-estimator layout for
    /// `(min_faults, strata_cap)`: stratum template (weights off the
    /// Poisson-binomial PMF) plus the tail stratum's conditional CDF.
    fn strata_plan(&self, min_faults: u32, strata_cap: u32) -> Arc<StrataPlan> {
        let mut plans = self.plans.lock().expect("strata plan cache poisoned");
        if let Some(plan) = plans
            .iter()
            .find(|p| p.min_faults == min_faults && p.strata_cap == strata_cap)
        {
            return Arc::clone(plan);
        }
        let cap = strata_cap.max(1) as usize;
        let min = min_faults as usize;
        let dist = self.fault_source();
        let strata: Vec<StratumOutcome> = (0..cap)
            .map(|i| {
                let k = min + i;
                let (k_hi, weight) = if i + 1 == cap {
                    (None, dist.mass_at_least(k))
                } else {
                    (Some(k as u32), dist.pmf_at(k))
                };
                StratumOutcome {
                    k_lo: k as u32,
                    k_hi,
                    weight,
                    failures: 0,
                    trials: 0,
                }
            })
            .collect();
        let sample_weight: f64 = strata.iter().map(|s| s.weight).sum();
        let all_elided = strata.iter().all(|s| s.weight <= 0.0);
        // Conditional CDF of the tail stratum's fault count (top bin
        // absorbs the truncated mass).
        let tail_lo = min + cap - 1;
        let tail_cdf: Vec<f64> = {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (tail_lo..=dist.max_k().max(tail_lo))
                .map(|k| {
                    acc += dist.pmf_at(k);
                    acc
                })
                .collect();
            if let Some(last) = cdf.last_mut() {
                *last += dist.tail_beyond;
            }
            cdf
        };
        let plan = Arc::new(StrataPlan {
            min_faults,
            strata_cap,
            strata,
            sample_weight,
            all_elided,
            tail_cdf,
            tail_lo,
        });
        plans.push(Arc::clone(&plan));
        plan
    }
}

/// A memoized stratified-estimator layout (see [`Engine::strata_plan`]).
#[derive(Debug)]
struct StrataPlan {
    min_faults: u32,
    strata_cap: u32,
    /// Zero-tally stratum template with exact weights.
    strata: Vec<StratumOutcome>,
    /// Total executable probability mass.
    sample_weight: f64,
    /// Every stratum weight is zero — the run resolves analytically.
    all_elided: bool,
    /// Conditional CDF of the tail stratum's fault count.
    tail_cdf: Vec<f64>,
    /// Smallest fault count in the tail stratum.
    tail_lo: usize,
}

/// Where the fault schedules of a contiguous word range come from.
#[derive(Debug, Clone, Copy)]
enum Schedules<'a> {
    /// `words` unconditioned words, tallied in one slot.
    Plain { words: u64 },
    /// One word per entry of `assignment`, conditioned on the fault count
    /// of stratum `assignment[i]` of `plan` and tallied per stratum.
    Strata {
        plan: &'a StrataPlan,
        assignment: &'a [u32],
    },
}

impl Schedules<'_> {
    /// Words in the range.
    fn len(&self) -> u64 {
        match self {
            Schedules::Plain { words } => *words,
            Schedules::Strata { assignment, .. } => assignment.len() as u64,
        }
    }

    /// Tally slots: one per stratum, or one.
    fn slots(&self) -> usize {
        match self {
            Schedules::Plain { .. } => 1,
            Schedules::Strata { plan, .. } => plan.strata.len(),
        }
    }

    /// The tally slot of word `i` of the range.
    fn slot(&self, i: u64) -> usize {
        match self {
            Schedules::Plain { .. } => 0,
            Schedules::Strata { assignment, .. } => assignment[i as usize] as usize,
        }
    }

    /// Words `[lo, hi)` of the range.
    fn sub(&self, lo: u64, hi: u64) -> Self {
        match *self {
            Schedules::Plain { .. } => Schedules::Plain { words: hi - lo },
            Schedules::Strata { plan, assignment } => Schedules::Strata {
                plan,
                assignment: &assignment[lo as usize..hi as usize],
            },
        }
    }

    /// Draws word `i`'s schedule into slot `slot` of the flat wide
    /// `masks` (`stride` words wide); returns the RNG words drawn.
    fn draw(
        &self,
        source: &FaultSource,
        i: u64,
        rng: &mut SmallRng,
        masks: &mut [u64],
        stride: usize,
        slot: usize,
    ) -> u64 {
        match self {
            Schedules::Plain { .. } => source.plain(rng, masks, stride, slot),
            Schedules::Strata { plan, assignment } => {
                let faults = match plan.strata[assignment[i as usize] as usize].k_hi {
                    Some(k) => LaneFaults::Exactly(k as usize),
                    None => LaneFaults::Tail {
                        lo: plan.tail_lo,
                        cdf: &plan.tail_cdf,
                    },
                };
                source.conditioned(faults, rng, masks, stride, slot)
            }
        }
    }
}

/// Adds per-slot `(failures, trials)` tallies.
fn add_tallies(into: &mut [(u64, u64)], part: &[(u64, u64)]) {
    for (a, p) in into.iter_mut().zip(part) {
        a.0 += p.0;
        a.1 += p.1;
    }
}

/// Plain-integer tallies gathered inside the word loops and flushed to
/// the [`Collector`] exactly once per estimate — the hot loops never
/// touch an atomic, so fully-enabled instrumentation costs a handful of
/// register adds per word.
#[derive(Debug, Clone, Copy, Default)]
struct WordExtras {
    /// Lanes that saw ≥1 fault, summed over valid lanes of every word.
    faulted_lanes: u64,
    /// Individual fault injections across all lanes and ops.
    fault_events: u64,
    /// Segment executions that stayed on the fused fast path.
    fused_segments: u64,
    /// Segment executions that fell back to native replay.
    replayed_segments: u64,
    /// Words executed under a conditional (stratified) mask schedule.
    masked_words: u64,
    /// RNG words drawn for fault schedules.
    mask_draws: u64,
}

impl WordExtras {
    fn merge(&mut self, o: WordExtras) {
        self.faulted_lanes += o.faulted_lanes;
        self.fault_events += o.fault_events;
        self.fused_segments += o.fused_segments;
        self.replayed_segments += o.replayed_segments;
        self.masked_words += o.masked_words;
        self.mask_draws += o.mask_draws;
    }
}

/// Folds one finished estimate's tallies into the collector.
fn flush_run(obs: &Collector, outcome: &McOutcome, extras: &WordExtras) {
    obs.add(Metric::ExecutedWords, outcome.executed_words);
    obs.add(Metric::ExecutedTrials, outcome.trials);
    obs.add(Metric::LaneFailures, outcome.failures);
    if outcome.early_stopped {
        obs.incr(Metric::EarlyStops);
    }
    obs.add(Metric::FaultedLanes, extras.faulted_lanes);
    obs.add(Metric::FaultEvents, extras.fault_events);
    obs.add(Metric::FusedSegments, extras.fused_segments);
    obs.add(Metric::ReplayedSegments, extras.replayed_segments);
    obs.add(Metric::MaskedWords, extras.masked_words);
    obs.add(Metric::MaskDraws, extras.mask_draws);
}

/// Lanes of global word `word` that lie inside the trial budget (the
/// final word may cover fewer than 64 real trials).
#[inline]
fn valid_lanes(trials: u64, word: u64) -> u64 {
    let live = trials - word * 64;
    if live >= 64 {
        u64::MAX
    } else {
        (1u64 << live) - 1
    }
}

/// Splits `total` round words across strata by largest-remainder
/// apportionment over `scores` (deterministic; ties break toward lower
/// indices).
///
/// With no positive score anywhere (nothing has failed yet) the round is
/// split **uniformly** across live strata — uniform discovery finds the
/// failure-bearing strata orders of magnitude sooner than weight-
/// proportional splitting when the heavy strata provably never fail.
/// Every live stratum keeps a one-word floor so a mistakenly written-off
/// stratum can resurface.
fn apportion_words(scores: &[f64], weights: &[f64], total: u64) -> Vec<u64> {
    let n = scores.len();
    let mut alloc = vec![0u64; n];
    if total == 0 {
        return alloc;
    }
    let live: Vec<bool> = weights.iter().map(|&w| w > 0.0).collect();
    let sum: f64 = scores.iter().sum();
    if sum <= 0.0 {
        // Discovery mode: uniform over live strata; when there are fewer
        // words than strata, the heaviest strata are served first (a
        // one-word budget should probe where the mass is).
        let n_live = live.iter().filter(|&&l| l).count().max(1) as u64;
        let base = total / n_live;
        let mut extra = total % n_live;
        let mut order: Vec<usize> = (0..n).filter(|&i| live[i]).collect();
        order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).unwrap().then(a.cmp(&b)));
        let mut given = 0u64;
        for &i in &order {
            let take = base + u64::from(extra > 0);
            extra = extra.saturating_sub(1);
            alloc[i] += take;
            given += take;
        }
        if given < total {
            alloc[0] += total - given;
        }
        return alloc;
    }
    let mut assigned = 0u64;
    let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(n);
    for (i, &s) in scores.iter().enumerate() {
        let quota = total as f64 * s / sum;
        let floor = quota.floor() as u64;
        alloc[i] += floor;
        assigned += floor;
        fracs.push((quota - floor as f64, i));
    }
    fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let mut rest = total.saturating_sub(assigned);
    for &(_, i) in &fracs {
        if rest == 0 {
            break;
        }
        alloc[i] += 1;
        rest -= 1;
    }
    // One-word floor for live strata, taken from the largest allocation.
    for i in 0..n {
        if live[i] && alloc[i] == 0 {
            if let Some(donor) = (0..n).filter(|&j| alloc[j] > 1).max_by_key(|&j| alloc[j]) {
                alloc[donor] -= 1;
                alloc[i] += 1;
            }
        }
    }
    alloc
}

/// Stratified analogue of [`converged`]: the estimated relative standard
/// error of `Σ w_k q̂_k` against the target, gated on enough pooled
/// failures for the check itself to be trustworthy.
///
/// A stratum that has never failed contributes nothing to the empirical
/// variance, yet its rate could still hide below the detection floor —
/// stopping must not be blind to that. Each zero-failure stratum adds an
/// uncertainty term from the rule of three (`q ≲ 3/n` at 95%, treated as
/// a ~`1.5/n` standard-error equivalent), so the run keeps sampling heavy
/// strata until their undetected mass is small against the estimate.
fn stratified_converged(strata: &[StratumOutcome], target: f64) -> bool {
    let failures: u64 = strata.iter().map(|s| s.failures).sum();
    if failures < MIN_FAILURES_FOR_STOP {
        return false;
    }
    let mut rate = 0.0;
    let mut var = 0.0;
    for s in strata {
        if s.weight <= 0.0 {
            continue;
        }
        if s.trials == 0 {
            return false;
        }
        let n = s.trials as f64;
        if s.failures == 0 {
            let u = s.weight * 1.5 / n;
            var += u * u;
            continue;
        }
        let q = s.failures as f64 / n;
        rate += s.weight * q;
        var += s.weight * s.weight * q * (1.0 - q) / n;
    }
    rate > 0.0 && var.sqrt() / rate <= target
}

/// Whether the failure-rate estimate has reached the target relative
/// standard error: `sqrt((1-p̂)/failures) ≤ target`, once enough failures
/// accumulated for the check itself to be trustworthy.
fn converged(failures: u64, executed: u64, target: f64) -> bool {
    if failures < MIN_FAILURES_FOR_STOP || executed == 0 {
        return false;
    }
    let p = failures as f64 / executed as f64;
    ((1.0 - p) / failures as f64).sqrt() <= target
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// Resolved execution strategy of one estimation run: the scalar
/// reference loop, or the compiled micro-op word loop at a fixed wide
/// width. (The [`Backend`] trait remains the public, object-safe face;
/// the word loops dispatch on this enum so the batch path can use the
/// concrete fused runners.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecPath {
    /// The scalar reference backend.
    Scalar,
    /// The compiled batch backend at wide width `width ∈ {1, 2, 4}`.
    Batch { width: usize },
}

impl ExecPath {
    fn name(self) -> &'static str {
        match self {
            ExecPath::Scalar => "scalar",
            ExecPath::Batch { .. } => "batch",
        }
    }
}

/// An execution strategy over 64-lane words.
///
/// Implementations run the engine's compiled circuit over every lane of a
/// [`BatchState`] and report which lanes saw at least one fault. The two
/// Monte-Carlo backends draw from `rng` in an identical order, so a given
/// seed yields bit-identical lanes on either.
pub trait Backend: Sync {
    /// Short stable name (reported in [`McOutcome::backend`]).
    fn name(&self) -> &'static str;

    /// Runs `engine`'s circuit over every lane of `batch`.
    fn run(
        &self,
        engine: &Engine,
        batch: &mut BatchState,
        rng: &mut dyn RngCore,
    ) -> BatchExecReport;

    /// Runs `engine`'s circuit over the single plane word of `batch`
    /// under a **precomputed** per-op fault-mask schedule (`masks[i]` =
    /// lanes in which op `i` faults) — the stratified estimator's
    /// conditional execution path. Implementations draw exactly one
    /// random plane per support wire of each masked op, in op order, so
    /// the Monte-Carlo backends stay bit-identical under shared
    /// schedules. The RNG is the concrete [`SmallRng`]: this loop is hot
    /// enough that dynamic RNG dispatch costs ~30%.
    ///
    /// The default panics: backends that sample their own faults (e.g.
    /// [`PlannedFaultBackend`]) do not take external schedules.
    fn run_masked(
        &self,
        engine: &Engine,
        batch: &mut BatchState,
        masks: &[u64],
        rng: &mut SmallRng,
    ) -> BatchExecReport {
        let _ = (engine, batch, masks, rng);
        unimplemented!(
            "the {} backend does not support masked fault schedules",
            self.name()
        )
    }
}

/// The scalar reference backend: every lane is unpacked into its own
/// [`BitState`] and ops are applied one lane at a time, replaying the
/// batch backend's word-level fault schedule exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn run(
        &self,
        engine: &Engine,
        batch: &mut BatchState,
        rng: &mut dyn RngCore,
    ) -> BatchExecReport {
        run_sampled(engine, batch, rng, true)
    }

    fn run_masked(
        &self,
        engine: &Engine,
        batch: &mut BatchState,
        masks: &[u64],
        rng: &mut SmallRng,
    ) -> BatchExecReport {
        single_word(batch);
        run_masked_scalar(&engine.circuit, batch, masks, rng)
    }
}

/// Asserts that a masked backend run drives a single-word batch.
fn single_word(batch: &BatchState) {
    assert_eq!(
        batch.words_per_wire(),
        1,
        "masked execution drives single-word batches"
    );
}

/// The bit-parallel backend: branch-free plane kernels, 64 lanes per
/// machine word — the fast path for large trial budgets.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchBackend;

impl Backend for BatchBackend {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn run(
        &self,
        engine: &Engine,
        batch: &mut BatchState,
        rng: &mut dyn RngCore,
    ) -> BatchExecReport {
        run_sampled(engine, batch, rng, false)
    }

    fn run_masked(
        &self,
        engine: &Engine,
        batch: &mut BatchState,
        masks: &[u64],
        rng: &mut SmallRng,
    ) -> BatchExecReport {
        // Routed through the compiled micro-op program: fused linear
        // segments skip their kernels entirely when the schedule leaves
        // them clean, and faults are pushed to the segment boundary by
        // the precomputed propagation pairs — bit-identical to the raw
        // op-at-a-time loop (see `tests/microop_fusion.rs`).
        single_word(batch);
        engine.run_batch_masked(batch, masks, std::slice::from_mut(rng))
    }
}

/// Deterministic fault injection: every lane takes exactly the faults of
/// one [`FaultPlan`] (a planned fault writes its pattern onto the
/// operation's support instead of executing it). Randomness is never
/// consumed; the exhaustive single/double-fault proofs are built on this.
#[derive(Debug, Clone, Copy)]
pub struct PlannedFaultBackend<'p> {
    plan: &'p FaultPlan,
}

impl<'p> PlannedFaultBackend<'p> {
    /// A backend injecting exactly `plan`.
    pub fn new(plan: &'p FaultPlan) -> Self {
        PlannedFaultBackend { plan }
    }

    /// The bound plan.
    pub fn plan(&self) -> &FaultPlan {
        self.plan
    }

    /// Runs `circuit` on a single scalar `state` with the planned faults —
    /// the workhorse of the exhaustive fault sweeps, where one `(input,
    /// plan)` pair is one run.
    ///
    /// # Panics
    ///
    /// Panics if the widths mismatch or a planned index is out of range.
    pub fn run_state(&self, circuit: &Circuit, state: &mut BitState) {
        assert_eq!(
            state.len(),
            circuit.n_wires(),
            "state width must match circuit width"
        );
        self.check_plan(circuit);
        for (i, op) in circuit.ops().iter().enumerate() {
            match self.plan.pattern_for(i) {
                Some(pattern) => {
                    let support = op.support();
                    state.write_pattern(support.as_slice(), pattern);
                }
                None => op.apply(state),
            }
        }
    }

    fn check_plan(&self, circuit: &Circuit) {
        for fault in self.plan.faults() {
            assert!(
                fault.op_index < circuit.len(),
                "planned fault targets op {} but circuit has {} ops",
                fault.op_index,
                circuit.len()
            );
        }
    }
}

impl Backend for PlannedFaultBackend<'_> {
    fn name(&self) -> &'static str {
        "planned"
    }

    fn run(
        &self,
        engine: &Engine,
        batch: &mut BatchState,
        _rng: &mut dyn RngCore,
    ) -> BatchExecReport {
        let circuit = &engine.circuit;
        assert_eq!(
            batch.n_wires(),
            circuit.n_wires(),
            "batch width must match circuit width"
        );
        self.check_plan(circuit);
        let words = batch.words_per_wire();
        let mut report = BatchExecReport {
            fault_events: 0,
            faulted_lanes: vec![0; words],
        };
        for (i, op) in circuit.ops().iter().enumerate() {
            match self.plan.pattern_for(i) {
                Some(pattern) => {
                    let support = op.support();
                    for (k, &wire) in support.as_slice().iter().enumerate() {
                        let plane = if (pattern >> k) & 1 == 1 { u64::MAX } else { 0 };
                        for word in 0..words {
                            batch.set_word(wire, word, plane);
                        }
                    }
                    report.fault_events += batch.lanes() as u64;
                    for mask in report.faulted_lanes.iter_mut() {
                        *mask = u64::MAX;
                    }
                }
                None => {
                    for word in 0..words {
                        kernels::apply_word(batch, op, word);
                    }
                }
            }
        }
        report
    }
}

// ---------------------------------------------------------------------------
// Options / outcome
// ---------------------------------------------------------------------------

/// Which Monte-Carlo estimator an estimation run should use (see the
/// module-level *Rare-event estimation* section for the derivation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Estimator {
    /// Execute every requested trial (the classic estimator).
    Plain,
    /// Fault-count-stratified sampling with analytic elision of
    /// low-fault-count words.
    Stratified {
        /// Words with fewer than this many faults contribute exactly zero
        /// failures analytically and are never executed. `1` (the
        /// default) is sound whenever a fault-free run cannot fail
        /// ([`WordTrial::fault_free_can_fail`] is `false`); larger values
        /// assert that the circuit provably corrects `min_faults − 1`
        /// faults (e.g. `2` once `rft_core::ftcheck`'s exhaustive
        /// single-fault sweep has passed). `0` disables elision and
        /// stratifies only.
        min_faults: u32,
        /// Number of fault-count strata: explicit counts `min_faults,
        /// min_faults+1, …` plus one unbounded tail stratum (so the
        /// explicit strata number `strata_cap − 1`). Clamped to ≥ 1.
        strata_cap: u32,
    },
    /// Choose per run: stratified — with the trial's declared
    /// [`WordTrial::min_failing_faults`] elision — when the executable
    /// mass `P(K ≥ min_failing_faults)` is below
    /// [`STRATIFIED_ROUTING_THRESHOLD`], plain otherwise.
    #[default]
    Auto,
}

impl Estimator {
    /// The stratified estimator with default parameters (zero-fault
    /// elision, [`DEFAULT_STRATA_CAP`] strata).
    pub const DEFAULT_STRATIFIED: Estimator = Estimator::Stratified {
        min_faults: 1,
        strata_cap: DEFAULT_STRATA_CAP,
    };

    /// Resolves `Auto` against the probability mass the stratified
    /// estimator would have to execute (`P(K ≥ min_failing_faults)` under
    /// the compiled fault-count distribution) and the trial's declared
    /// minimum failing fault count; explicit choices pass through.
    ///
    /// `Auto` picks the stratified estimator — with the trial's declared
    /// elision — whenever the executable mass is below
    /// [`STRATIFIED_ROUTING_THRESHOLD`], i.e. when most plain-MC words
    /// would be spent on outcomes that are known analytically.
    pub fn resolve(self, executable_mass: f64, min_failing_faults: u32) -> Estimator {
        match self {
            Estimator::Auto => {
                if min_failing_faults > 0 && executable_mass < STRATIFIED_ROUTING_THRESHOLD {
                    Estimator::Stratified {
                        min_faults: min_failing_faults,
                        strata_cap: DEFAULT_STRATA_CAP,
                    }
                } else {
                    Estimator::Plain
                }
            }
            explicit => explicit,
        }
    }
}

impl fmt::Display for Estimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Estimator::Plain => f.write_str("plain"),
            Estimator::Auto => f.write_str("auto"),
            Estimator::Stratified {
                min_faults,
                strata_cap,
            } => write!(f, "stratified:{min_faults}:{strata_cap}"),
        }
    }
}

impl FromStr for Estimator {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "plain" => return Ok(Estimator::Plain),
            "auto" => return Ok(Estimator::Auto),
            "stratified" => return Ok(Estimator::DEFAULT_STRATIFIED),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("stratified:") {
            let mut parts = rest.splitn(2, ':');
            let min: u32 = parts
                .next()
                .unwrap_or_default()
                .parse()
                .map_err(|_| format!("bad min_faults in estimator {s:?}"))?;
            let cap: u32 = match parts.next() {
                Some(c) => c
                    .parse()
                    .map_err(|_| format!("bad strata_cap in estimator {s:?}"))?,
                None => DEFAULT_STRATA_CAP,
            };
            return Ok(Estimator::Stratified {
                min_faults: min,
                strata_cap: cap.max(1),
            });
        }
        Err(format!(
            "unknown estimator {s:?} (expected plain, auto, stratified, \
             stratified:<min_faults> or stratified:<min_faults>:<strata_cap>)"
        ))
    }
}

/// Which backend an estimation run should use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// Route by trial count: batch at or above the threshold, scalar
    /// below it.
    #[default]
    Auto,
    /// Always the scalar reference backend.
    Scalar,
    /// Always the bit-parallel batch backend.
    Batch,
}

impl BackendKind {
    /// Resolves `Auto` against a trial budget; explicit kinds pass
    /// through.
    pub fn resolve(self, trials: u64, batch_threshold: u64) -> BackendKind {
        match self {
            BackendKind::Auto => {
                if trials >= batch_threshold {
                    BackendKind::Batch
                } else {
                    BackendKind::Scalar
                }
            }
            explicit => explicit,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Auto => "auto",
            BackendKind::Scalar => "scalar",
            BackendKind::Batch => "batch",
        })
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(BackendKind::Auto),
            "scalar" => Ok(BackendKind::Scalar),
            "batch" => Ok(BackendKind::Batch),
            other => Err(format!(
                "unknown backend {other:?} (expected auto, scalar or batch)"
            )),
        }
    }
}

/// Wide-word width of the batch word loops: how many consecutive 64-lane
/// logical words one pass of the compiled micro-op program executes
/// (`[u64; W]` planes, autovectorization-friendly).
///
/// Width never changes results: every logical word derives its RNG
/// stream from `(seed, global word index)` alone, so estimates are
/// **bit-identical at any width** (pinned by tests) — this knob trades
/// nothing but throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WordWidth {
    /// Full width (4) on the batch backend, 1 on the scalar reference.
    #[default]
    Auto,
    /// One 64-lane word per pass.
    W1,
    /// Two 64-lane words per pass.
    W2,
    /// Four 64-lane words per pass.
    W4,
}

impl WordWidth {
    /// Resolves to a concrete width for `backend` (the scalar reference
    /// always runs one word at a time).
    pub fn resolve(self, backend: BackendKind) -> usize {
        if !matches!(backend, BackendKind::Batch) {
            return 1;
        }
        match self {
            WordWidth::Auto | WordWidth::W4 => 4,
            WordWidth::W1 => 1,
            WordWidth::W2 => 2,
        }
    }
}

impl fmt::Display for WordWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WordWidth::Auto => "auto",
            WordWidth::W1 => "1",
            WordWidth::W2 => "2",
            WordWidth::W4 => "4",
        })
    }
}

impl FromStr for WordWidth {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(WordWidth::Auto),
            "1" => Ok(WordWidth::W1),
            "2" => Ok(WordWidth::W2),
            "4" => Ok(WordWidth::W4),
            other => Err(format!(
                "unknown word width {other:?} (expected auto, 1, 2 or 4)"
            )),
        }
    }
}

/// Typed Monte-Carlo run options for [`Engine::estimate`].
///
/// Fields are public for direct construction; the consuming builder
/// methods read better in call sites:
///
/// ```
/// use rft_revsim::engine::{BackendKind, McOptions};
///
/// let opts = McOptions::new(10_000)
///     .seed(2005)
///     .threads(4)
///     .backend(BackendKind::Auto)
///     .target_rel_error(0.1);
/// assert_eq!(opts.trials, 10_000);
/// ```
#[must_use = "McOptions configure a run but do not start one"]
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McOptions {
    /// Trial budget (an upper bound when early stopping is enabled).
    pub trials: u64,
    /// Base RNG seed; every 64-trial word derives its own stream from it.
    pub seed: u64,
    /// Worker threads (`0` is treated as `1`).
    pub threads: usize,
    /// Backend selection policy.
    pub backend: BackendKind,
    /// Trial count at which [`BackendKind::Auto`] routes to the batch
    /// backend.
    pub batch_threshold: u64,
    /// Estimator selection policy ([`Estimator::Auto`] routes eligible
    /// deep-sub-threshold runs to the stratified rare-event estimator).
    pub estimator: Estimator,
    /// Wide-word width of the batch word loops (never changes results;
    /// see [`WordWidth`]).
    pub width: WordWidth,
    /// Target relative standard error of the failure-rate estimate; when
    /// set, estimation stops early once reached (adaptive sampling).
    pub target_rel_error: Option<f64>,
}

impl McOptions {
    /// Options for `trials` trials with defaults: seed 0, one thread,
    /// auto backend at [`DEFAULT_BATCH_THRESHOLD`], auto estimator, no
    /// early stopping.
    pub fn new(trials: u64) -> Self {
        McOptions {
            trials,
            seed: 0,
            threads: 1,
            backend: BackendKind::Auto,
            batch_threshold: DEFAULT_BATCH_THRESHOLD,
            estimator: Estimator::Auto,
            width: WordWidth::Auto,
            target_rel_error: None,
        }
    }

    /// Sets the trial budget.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// XORs `salt` into the seed (for deriving per-point sub-seeds in
    /// sweeps).
    pub fn salt(mut self, salt: u64) -> Self {
        self.seed ^= salt;
        self
    }

    /// Sets the worker thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the backend selection policy.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the auto-routing threshold.
    pub fn batch_threshold(mut self, threshold: u64) -> Self {
        self.batch_threshold = threshold;
        self
    }

    /// Sets the estimator selection policy.
    pub fn estimator(mut self, estimator: Estimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets the wide-word width policy.
    pub fn width(mut self, width: WordWidth) -> Self {
        self.width = width;
        self
    }

    /// Shorthand for [`Estimator::Stratified`] with explicit parameters.
    pub fn stratified(self, min_faults: u32, strata_cap: u32) -> Self {
        self.estimator(Estimator::Stratified {
            min_faults,
            strata_cap,
        })
    }

    /// Enables adaptive early stopping at the given target relative
    /// standard error.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not positive and finite.
    pub fn target_rel_error(mut self, target: f64) -> Self {
        assert!(
            target > 0.0 && target.is_finite(),
            "target relative error must be positive and finite, got {target}"
        );
        self.target_rel_error = Some(target);
        self
    }
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions::new(4096)
    }
}

/// Raw result of an [`Engine::estimate`] run.
#[must_use = "an estimation outcome should be inspected or converted"]
#[derive(Debug, Clone, PartialEq)]
pub struct McOutcome {
    /// Failing trials observed. For the stratified estimator these are
    /// *conditional* failures (pooled over strata); weight them via
    /// [`McOutcome::rate`] or the per-stratum tallies in
    /// [`McOutcome::strata`].
    pub failures: u64,
    /// Trials actually executed (less than requested after an early stop;
    /// for a fully analytic stratified run — zero executable mass — the
    /// requested count, since every trial was resolved exactly).
    pub trials: u64,
    /// Trials requested.
    pub requested: u64,
    /// Whether adaptive early stopping cut the run short.
    pub early_stopped: bool,
    /// Name of the backend that executed the run.
    pub backend: &'static str,
    /// Name of the estimator that produced the run (`"plain"` or
    /// `"stratified"`; [`Estimator::Auto`] reports its resolution).
    pub estimator: &'static str,
    /// Total probability mass of the executed strata (`1.0` for plain;
    /// `P(K ≥ min_faults)` for stratified — the complement was elided
    /// analytically).
    pub sample_weight: f64,
    /// 64-lane circuit words actually executed — the cost metric the
    /// rare-event benches compare across estimators.
    pub executed_words: u64,
    /// Per-stratum tallies (empty for the plain estimator).
    pub strata: Vec<StratumOutcome>,
}

/// One fault-count stratum's tally in a stratified [`McOutcome`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StratumOutcome {
    /// Smallest fault count in the stratum.
    pub k_lo: u32,
    /// Largest fault count (`None` = unbounded tail).
    pub k_hi: Option<u32>,
    /// `P(K ∈ stratum)` — the stratum's exact weight.
    pub weight: f64,
    /// Conditional failures observed in the stratum.
    pub failures: u64,
    /// Conditional trials executed in the stratum.
    pub trials: u64,
}

impl McOutcome {
    /// Point estimate of the failure rate: `failures / trials` for the
    /// plain estimator, the exactly weighted `Σ wₖ · q̂ₖ` for the
    /// stratified one.
    pub fn rate(&self) -> f64 {
        if self.strata.is_empty() {
            if self.trials == 0 {
                return 0.0;
            }
            return self.failures as f64 / self.trials as f64;
        }
        self.strata
            .iter()
            .filter(|s| s.trials > 0)
            .map(|s| s.weight * s.failures as f64 / s.trials as f64)
            .sum()
    }
}

/// Pre-reset pattern counts of one INIT, from [`Engine::tally_resets`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetSite {
    /// Index of the INIT in the circuit's op stream.
    pub op_index: usize,
    /// `counts[p]` = trials whose reset wires held pattern `p` (bit `j` =
    /// wire `j` of the INIT) just before the reset; sums to the trials.
    pub counts: [u64; 8],
}

// ---------------------------------------------------------------------------
// Word trials
// ---------------------------------------------------------------------------

/// One 64-lane word of Monte-Carlo trials: how to prepare inputs and
/// judge failures. The word loop runs several words side by side in one
/// wide [`BatchState`]; a trial reads and writes only its own plane word
/// `word` of every wire (its column).
pub trait WordTrial: Sync {
    /// Physical width the trial expects (must match the engine's
    /// circuit).
    fn n_wires(&self) -> usize;

    /// Draws per-lane inputs from `rng`, encodes them into plane word
    /// `word` of `batch` (zero on entry), and leaves them in `inputs`
    /// (cleared first; one plane per logical wire, bit `l` = lane `l`'s
    /// value) for [`WordTrial::judge`].
    fn prepare(
        &self,
        batch: &mut BatchState,
        word: usize,
        rng: &mut dyn RngCore,
        inputs: &mut Vec<u64>,
    );

    /// Mask of the lanes of plane word `word` whose final state counts as
    /// a logical failure, restricted to `candidates` (the result is
    /// ANDed with it). The word loop passes the mask of *faulted* lanes
    /// whenever the trial declares fault-free lanes safe, so a trial may
    /// skip decoding the (often vast) clean majority.
    fn judge(&self, batch: &BatchState, word: usize, inputs: &[u64], candidates: u64) -> u64;

    /// Whether a lane that experienced **zero** faults can still be
    /// judged a failure. The stratified estimator's zero-fault elision is
    /// only sound when this is `false`; the conservative default keeps
    /// arbitrary trials on the plain estimator under [`Estimator::Auto`].
    /// Encode → run → decode trials (whose ideal execution is exact by
    /// construction) should override this to return `false`.
    fn fault_free_can_fail(&self) -> bool {
        true
    }

    /// Smallest number of faults that can possibly fail this trial — the
    /// `min_faults` elision [`Estimator::Auto`] may apply. `0` (required
    /// when [`WordTrial::fault_free_can_fail`] is `true`) disables
    /// elision; the default `1` for elision-eligible trials claims only
    /// the always-sound zero-fault elision. Trials with a *proven* fault
    /// distance may return more — e.g. a level-`L` concatenated program
    /// returns `2^L` (each level-1 block corrects any single fault and
    /// each outer level any single corrupted block).
    fn min_failing_faults(&self) -> u32 {
        u32::from(!self.fault_free_can_fail())
    }
}

/// Every lane starts from one fixed state and nothing is judged: the word
/// loop of [`Engine::tally_resets`], whose reset tap is the only reader.
struct FixedInput<'a>(&'a BitState);

impl WordTrial for FixedInput<'_> {
    fn n_wires(&self) -> usize {
        self.0.len()
    }

    fn prepare(&self, batch: &mut BatchState, word: usize, _: &mut dyn RngCore, _: &mut Vec<u64>) {
        for i in 0..self.0.len() {
            let wire = Wire::new(i as u32);
            if self.0.get(wire) {
                batch.set_word(wire, word, u64::MAX);
            }
        }
    }

    fn judge(&self, _: &BatchState, _: usize, _: &[u64], _: u64) -> u64 {
        0
    }

    fn fault_free_can_fail(&self) -> bool {
        false
    }
}

/// Reads lane `lane`'s value out of per-wire plane words (bit `i` of the
/// result = bit `lane` of `planes[i]`).
#[inline]
pub fn lane_value(planes: &[u64], lane: usize) -> u64 {
    planes
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &plane)| acc | (((plane >> lane) & 1) << i))
}

/// Mask of lanes where `ideal(input) != output`, comparing per-lane
/// values assembled from input and output plane words.
pub fn failure_mask(inputs: &[u64], outputs: &[u64], ideal: impl Fn(u64) -> u64) -> u64 {
    failure_mask_in(u64::MAX, inputs, outputs, ideal)
}

/// [`failure_mask`] restricted to the lanes of `candidates`: only those
/// lanes are assembled and compared (the hot loops pass the mask of
/// faulted lanes — deep below threshold almost every lane is clean and
/// skipped). For ≤ 4 logical wires the comparison is done bitwise across
/// all 64 lanes at once by enumerating the (at most 16) input patterns —
/// no per-lane assembly at all.
pub fn failure_mask_in(
    candidates: u64,
    inputs: &[u64],
    outputs: &[u64],
    ideal: impl Fn(u64) -> u64,
) -> u64 {
    if candidates == 0 {
        return 0;
    }
    let n = inputs.len();
    debug_assert_eq!(n, outputs.len());
    if n <= 4 {
        // Truth-table evaluation: build each ideal output plane from the
        // input planes, then diff whole planes.
        let mut diff = 0u64;
        for (k, &out_plane) in outputs.iter().enumerate() {
            let mut ideal_plane = 0u64;
            for pattern in 0..(1u64 << n) {
                if (ideal(pattern) >> k) & 1 == 1 {
                    let mut sel = u64::MAX;
                    for (i, &in_plane) in inputs.iter().enumerate() {
                        sel &= if (pattern >> i) & 1 == 1 {
                            in_plane
                        } else {
                            !in_plane
                        };
                    }
                    ideal_plane |= sel;
                }
            }
            diff |= ideal_plane ^ out_plane;
        }
        return diff & candidates;
    }
    let mut failed = 0u64;
    let mut rest = candidates;
    while rest != 0 {
        let lane = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let input = lane_value(inputs, lane);
        let output = lane_value(outputs, lane);
        if ideal(input) != output {
            failed |= 1u64 << lane;
        }
    }
    failed
}

// ---------------------------------------------------------------------------
// Simulation: engine + options
// ---------------------------------------------------------------------------

/// An [`Engine`] bound to its [`McOptions`]: the compile-once/run-many
/// handle. Build with [`Engine::with_options`], then call
/// [`Simulation::run`] as often as needed.
#[must_use = "a Simulation does nothing until run"]
#[derive(Debug, Clone)]
pub struct Simulation {
    engine: Engine,
    options: McOptions,
}

impl Simulation {
    /// The compiled engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The bound options.
    pub fn options(&self) -> &McOptions {
        &self.options
    }

    /// Replaces the bound options.
    pub fn reconfigure(mut self, options: McOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs one estimation with the bound options.
    pub fn run<T: WordTrial + ?Sized>(&self, trial: &T) -> McOutcome {
        self.engine.estimate(trial, &self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{NoNoise, SplitNoise, UniformNoise};
    use crate::wire::w;

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

    /// A trivial trial: lanes fail when wire 0 ends up set.
    struct Wire0Trial {
        n_wires: usize,
    }

    impl WordTrial for Wire0Trial {
        fn n_wires(&self) -> usize {
            self.n_wires
        }

        fn prepare(&self, _: &mut BatchState, _: usize, _: &mut dyn RngCore, _: &mut Vec<u64>) {}

        fn judge(&self, batch: &BatchState, word: usize, _: &[u64], candidates: u64) -> u64 {
            batch.word(w(0), word) & candidates
        }
    }

    #[test]
    fn noiseless_scalar_run_reports_no_faults() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &NoNoise);
        let mut s = BitState::zeros(9);
        let mut rng = SmallRng::seed_from_u64(0);
        let report = engine.run_scalar(&mut s, &mut rng);
        assert_eq!(report.fault_count(), 0);
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn always_fail_randomizes_every_op() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(1.0));
        let mut s = BitState::zeros(9);
        let mut rng = SmallRng::seed_from_u64(1);
        let report = engine.run_scalar(&mut s, &mut rng);
        assert_eq!(report.fault_count(), c.len());
    }

    #[test]
    fn split_noise_spares_inits() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &SplitNoise::new(1.0, 0.0));
        let mut s = BitState::zeros(9);
        let mut rng = SmallRng::seed_from_u64(2);
        let report = engine.run_scalar(&mut s, &mut rng);
        // 6 gates fail, 2 inits never fail.
        assert_eq!(report.fault_count(), 6);
        assert!(report.faults.iter().all(|&i| i >= 2));
        assert_eq!(engine.fault_probability(0), 0.0);
        assert_eq!(engine.fault_probability(2), 1.0);
    }

    #[test]
    fn batch_always_fail_faults_every_lane() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(1.0));
        let mut batch = BatchState::zeros(9, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        let report = engine.run_batch(&mut batch, &mut rng);
        assert_eq!(report.fault_events, (c.len() * 64) as u64);
        assert_eq!(report.faulted_lanes, vec![u64::MAX]);
    }

    #[test]
    fn scalar_and_batch_backends_agree_lane_by_lane() {
        // Identical seeds ⇒ bit-identical final states *and* reports —
        // the backends share one fault schedule by construction.
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.07));
        for seed in 0..20u64 {
            let mut scalar = BatchState::zeros(9, 2);
            let mut batch = BatchState::zeros(9, 2);
            let mut rng_s = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            let rs = ScalarBackend.run(&engine, &mut scalar, &mut rng_s);
            let rb = BatchBackend.run(&engine, &mut batch, &mut rng_b);
            assert_eq!(rs, rb, "seed {seed}: reports differ");
            assert_eq!(scalar, batch, "seed {seed}: states differ");
        }
    }

    #[test]
    fn planned_backend_matches_scalar_plan_run() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &NoNoise);
        let plan = FaultPlan::single(3, 0b101);
        let backend = PlannedFaultBackend::new(&plan);
        // Scalar reference.
        let mut state = BitState::zeros(9);
        backend.run_state(&c, &mut state);
        // Batch run on zeroed lanes.
        let mut batch = BatchState::zeros(9, 1);
        let mut rng = SmallRng::seed_from_u64(0);
        let report = backend.run(&engine, &mut batch, &mut rng);
        assert_eq!(report.faulted_lanes, vec![u64::MAX]);
        for lane in [0usize, 17, 63] {
            assert_eq!(batch.lane(lane), state, "lane {lane}");
        }
    }

    #[test]
    #[should_panic(expected = "planned fault targets op")]
    fn planned_out_of_range_panics() {
        let c = Circuit::new(1);
        let mut s = BitState::zeros(1);
        let plan = FaultPlan::single(0, 0);
        PlannedFaultBackend::new(&plan).run_state(&c, &mut s);
    }

    #[test]
    fn estimate_is_deterministic_and_backend_independent() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.2));
        let trial = Wire0Trial { n_wires: 9 };
        let base = McOptions::new(1000).seed(42);
        let scalar = engine.estimate(&trial, &base.backend(BackendKind::Scalar).threads(3));
        let batch = engine.estimate(&trial, &base.backend(BackendKind::Batch).threads(1));
        let auto = engine.estimate(&trial, &base.backend(BackendKind::Auto).threads(2));
        assert_eq!(scalar.failures, batch.failures);
        assert_eq!(batch.failures, auto.failures);
        assert_eq!(batch.trials, 1000);
        assert_eq!(auto.backend, "batch");
        assert_eq!(scalar.backend, "scalar");
        assert!(batch.failures > 0, "heavy noise must produce failures");
    }

    #[test]
    fn instrumentation_never_perturbs_an_estimate() {
        // The hard invariant of the obs layer: a live collector observes
        // the run without touching any RNG stream or scheduling decision,
        // so the outcome is identical to the uninstrumented call — plain
        // and stratified, across thread counts.
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.05));
        let trial = PermTrial::new(&c);
        let plain = McOptions::new(5_000).seed(7).threads(3);
        let strat = plain.estimator(Estimator::Stratified {
            min_faults: 1,
            strata_cap: 4,
        });
        for opts in [&plain, &strat] {
            let bare = engine.estimate(&trial, opts);
            let obs = Collector::new();
            let watched = engine.estimate_obs(&trial, opts, &obs);
            assert_eq!(bare, watched);
            let snap = obs.snapshot();
            assert_eq!(snap.counter(Metric::EstimateCalls), 1);
            assert_eq!(snap.counter(Metric::ExecutedTrials), watched.trials);
            assert_eq!(snap.counter(Metric::ExecutedWords), watched.executed_words);
            assert_eq!(snap.counter(Metric::LaneFailures), watched.failures);
            assert!(snap.counter(Metric::FaultedLanes) > 0);
        }
        // Stratified bookkeeping: rounds ran, every executed word was
        // masked, and the elided mass gauge reflects the plan.
        let obs = Collector::new();
        let out = engine.estimate_obs(&trial, &strat, &obs);
        let snap = obs.snapshot();
        assert_eq!(snap.counter(Metric::StratifiedRuns), 1);
        assert!(snap.counter(Metric::StratifiedRounds) >= 1);
        assert_eq!(snap.counter(Metric::MaskedWords), out.executed_words);
        assert_eq!(snap.counter(Metric::AllocatedWords), out.executed_words);
        assert!(snap.gauge(Gauge::ElidedMass) > 0.0);
        // The trace saw the estimate span plus at least one round and one
        // per-worker word-loop span.
        let events = obs.span_events();
        assert!(events.iter().any(|e| e.name == "engine.estimate"));
        assert!(events.iter().any(|e| e.name == "estimator.round"));
        assert!(events.iter().any(|e| e.name == "engine.words"));
    }

    #[test]
    fn estimate_counts_partial_final_word() {
        struct AllFail;
        impl WordTrial for AllFail {
            fn n_wires(&self) -> usize {
                9
            }
            fn prepare(&self, _: &mut BatchState, _: usize, _: &mut dyn RngCore, _: &mut Vec<u64>) {
            }
            fn judge(&self, _: &BatchState, _: usize, _: &[u64], candidates: u64) -> u64 {
                candidates
            }
        }
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &NoNoise);
        for trials in [1u64, 64, 65, 100, 130] {
            let out = engine.estimate(&AllFail, &McOptions::new(trials).threads(2));
            assert_eq!(out.failures, trials);
            assert_eq!(out.trials, trials);
        }
    }

    #[test]
    fn adaptive_early_stopping_cuts_the_budget() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.3));
        let trial = Wire0Trial { n_wires: 9 };
        // Rate ≈ 0.5: a loose 20% relative error needs only a few dozen
        // failures, far below the 200k budget.
        let opts = McOptions::new(200_000)
            .seed(9)
            .threads(2)
            .target_rel_error(0.2);
        let out = engine.estimate(&trial, &opts);
        assert!(out.early_stopped, "should stop early: {out:?}");
        assert!(out.trials < out.requested);
        assert!(out.failures >= MIN_FAILURES_FOR_STOP);
        // Even the early-stopped result is a function of the seed alone:
        // rounds are fixed-size, so the thread count cannot move the
        // stopping point.
        let again = engine.estimate(&trial, &opts);
        assert_eq!(out, again);
        let single_threaded = engine.estimate(&trial, &opts.threads(1));
        assert_eq!(out, single_threaded);
    }

    #[test]
    fn adaptive_runs_to_completion_when_target_unreachable() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &NoNoise);
        let trial = Wire0Trial { n_wires: 9 };
        // No failures ever: the run must exhaust its budget.
        let out = engine.estimate(&trial, &McOptions::new(500).target_rel_error(0.1));
        assert!(!out.early_stopped);
        assert_eq!(out.trials, 500);
        assert_eq!(out.failures, 0);
    }

    #[test]
    fn backend_kind_parses_and_resolves() {
        assert_eq!("auto".parse::<BackendKind>().unwrap(), BackendKind::Auto);
        assert_eq!(
            "scalar".parse::<BackendKind>().unwrap(),
            BackendKind::Scalar
        );
        assert_eq!("batch".parse::<BackendKind>().unwrap(), BackendKind::Batch);
        assert!("simd".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Auto.resolve(256, 256), BackendKind::Batch);
        assert_eq!(BackendKind::Auto.resolve(255, 256), BackendKind::Scalar);
        assert_eq!(
            BackendKind::Scalar.resolve(1 << 20, 256),
            BackendKind::Scalar
        );
        assert_eq!(BackendKind::Batch.resolve(1, 256), BackendKind::Batch);
    }

    #[test]
    fn simulation_binds_options() {
        let c = recovery_like_circuit();
        let sim =
            Engine::compile(&c, &UniformNoise::new(0.25)).with_options(McOptions::new(640).seed(5));
        let trial = Wire0Trial { n_wires: 9 };
        let a = sim.run(&trial);
        let b = sim.run(&trial);
        assert_eq!(a, b);
        assert_eq!(sim.options().trials, 640);
        let sim = sim.reconfigure(McOptions::new(64).seed(5));
        assert_eq!(sim.run(&trial).trials, 64);
    }

    /// A sound stratified trial: random full-width inputs, failure = the
    /// final state differs from the ideal permutation of the input. A
    /// fault-free lane computes the permutation exactly, so elision is
    /// valid.
    struct PermTrial {
        circuit: Circuit,
        ideal: crate::permutation::Permutation,
    }

    impl PermTrial {
        fn new(circuit: &Circuit) -> Self {
            PermTrial {
                circuit: circuit.clone(),
                ideal: crate::permutation::Permutation::of_circuit(circuit)
                    .expect("small test circuit"),
            }
        }
    }

    impl WordTrial for PermTrial {
        fn n_wires(&self) -> usize {
            self.circuit.n_wires()
        }

        fn prepare(
            &self,
            batch: &mut BatchState,
            word: usize,
            rng: &mut dyn RngCore,
            inputs: &mut Vec<u64>,
        ) {
            inputs.clear();
            inputs.extend((0..self.circuit.n_wires()).map(|_| rng.random::<u64>()));
            for (i, &plane) in inputs.iter().enumerate() {
                batch.set_word(crate::wire::w(i as u32), word, plane);
            }
        }

        fn judge(&self, batch: &BatchState, word: usize, inputs: &[u64], candidates: u64) -> u64 {
            let outputs: Vec<u64> = (0..self.circuit.n_wires())
                .map(|i| batch.word(crate::wire::w(i as u32), word))
                .collect();
            failure_mask(inputs, &outputs, |x| self.ideal.apply(x)) & candidates
        }

        fn fault_free_can_fail(&self) -> bool {
            false
        }
    }

    /// A MAJ-encode/decode circuit with no inits (a permutation, so
    /// `PermTrial` applies).
    fn permutation_circuit() -> Circuit {
        let mut c = Circuit::new(6);
        c.maj_inv(w(0), w(1), w(2))
            .maj_inv(w(3), w(4), w(5))
            .maj(w(0), w(1), w(2))
            .maj(w(3), w(4), w(5));
        c
    }

    #[test]
    fn fault_count_pmf_matches_brute_force_enumeration() {
        // Exactness check: enumerate all 2^n fault subsets of a small
        // mixed-rate circuit and compare the Poisson-binomial PMF.
        let c = recovery_like_circuit();
        let noise = SplitNoise::new(0.3, 0.1);
        let engine = Engine::compile(&c, &noise);
        let probs: Vec<f64> = (0..c.len()).map(|i| engine.fault_probability(i)).collect();
        let n = probs.len();
        let mut expect = vec![0.0f64; n + 1];
        for subset in 0..(1u64 << n) {
            let mut p = 1.0;
            for (i, &pi) in probs.iter().enumerate() {
                p *= if (subset >> i) & 1 == 1 { pi } else { 1.0 - pi };
            }
            expect[subset.count_ones() as usize] += p;
        }
        let pmf = engine.fault_count_pmf();
        for (k, &e) in expect.iter().enumerate() {
            let got = pmf.get(k).copied().unwrap_or(0.0);
            assert!(
                (got - e).abs() < 1e-12,
                "k={k}: pmf {got} vs brute force {e}"
            );
        }
        assert!((engine.fault_free_probability() - expect[0]).abs() < 1e-15);
        assert!((engine.fault_count_at_least(1) - (1.0 - expect[0])).abs() < 1e-12);
    }

    #[test]
    fn fault_count_pmf_uniform_is_binomial() {
        let c = recovery_like_circuit();
        let g = 0.01;
        let engine = Engine::compile(&c, &UniformNoise::new(g));
        let n = c.len();
        let pmf = engine.fault_count_pmf();
        let mut binom = 1.0f64 * (1.0 - g).powi(n as i32);
        let ratio = g / (1.0 - g);
        for (k, &v) in pmf.iter().enumerate() {
            assert!((v - binom).abs() < 1e-12, "k={k}: {v} vs {binom}");
            binom *= ratio * (n - k) as f64 / (k + 1) as f64;
        }
    }

    #[test]
    fn stratified_matches_plain_within_wilson() {
        // Statistical equivalence at a moderate rate where both
        // estimators resolve comfortably: disjoint seeds, overlapping
        // nominal ±3σ intervals.
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.02));
        let trial = PermTrial::new(&c);
        let trials = 60_000u64;
        let plain = engine.estimate(
            &trial,
            &McOptions::new(trials).seed(1).estimator(Estimator::Plain),
        );
        let strat = engine.estimate(
            &trial,
            &McOptions::new(trials)
                .seed(2)
                .estimator(Estimator::DEFAULT_STRATIFIED),
        );
        assert_eq!(strat.estimator, "stratified");
        let p = plain.rate();
        let s = strat.rate();
        assert!(p > 0.0 && s > 0.0);
        // Combined-σ band (conservative: plain σ on both).
        let sd = (p * (1.0 - p) / trials as f64).sqrt();
        assert!(
            (p - s).abs() < 6.0 * sd,
            "plain {p} vs stratified {s} (sd {sd})"
        );
        assert!(strat.sample_weight < 0.2);

        // At a common precision *target*, elision pays in executed words:
        // conditional failures arrive ~1/P(any fault) times faster. Use a
        // deep rate so plain actually needs many 32-word rounds.
        let deep = Engine::compile(&c, &UniformNoise::new(0.002));
        let target = McOptions::new(4_000_000).target_rel_error(0.1).threads(2);
        let plain_t = deep.estimate(&trial, &target.seed(3).estimator(Estimator::Plain));
        let strat_t = deep.estimate(
            &trial,
            &target.seed(4).estimator(Estimator::DEFAULT_STRATIFIED),
        );
        assert!(plain_t.early_stopped && strat_t.early_stopped);
        assert!(
            strat_t.executed_words * 4 < plain_t.executed_words,
            "stratified {} words vs plain {} words to the same target",
            strat_t.executed_words,
            plain_t.executed_words
        );
    }

    #[test]
    fn stratified_min_faults_two_matches_plain_when_singles_cannot_fail() {
        // In this circuit a single fault *can* fail a lane, so rather
        // than elide k=1 we pin the opposite: min_faults = 2 must
        // under-count exactly by the single-fault stratum. Compare
        // min_faults = 1 (sound) against plain instead, and check the
        // k = 1 stratum carries most of the mass.
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.005));
        let trial = PermTrial::new(&c);
        let strat = engine.estimate(&trial, &McOptions::new(40_000).seed(7).stratified(1, 4));
        let k1 = &strat.strata[0];
        assert_eq!(k1.k_lo, 1);
        assert!(k1.weight > strat.strata[1].weight * 10.0);
        assert!(k1.trials > 0);
    }

    #[test]
    fn stratified_is_seed_deterministic_and_backend_identical() {
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.01));
        let trial = PermTrial::new(&c);
        let base = McOptions::new(8_000)
            .seed(11)
            .estimator(Estimator::DEFAULT_STRATIFIED);
        let a = engine.estimate(&trial, &base.threads(4));
        let b = engine.estimate(&trial, &base.threads(1));
        assert_eq!(a, b, "thread-count independent");
        let scalar = engine.estimate(&trial, &base.backend(BackendKind::Scalar).threads(2));
        assert_eq!(a.failures, scalar.failures, "backend identical");
        assert_eq!(a.strata, scalar.strata);
    }

    #[test]
    fn stratified_elides_noiseless_runs_entirely() {
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &NoNoise);
        let trial = PermTrial::new(&c);
        let out = engine.estimate(
            &trial,
            &McOptions::new(10_000).estimator(Estimator::DEFAULT_STRATIFIED),
        );
        assert_eq!(out.failures, 0);
        assert_eq!(out.trials, 10_000);
        assert_eq!(out.executed_words, 0, "nothing to execute");
        assert_eq!(out.rate(), 0.0);
        // Auto reaches the same analytic shortcut.
        let auto = engine.estimate(&trial, &McOptions::new(10_000));
        assert_eq!(auto.estimator, "stratified");
        assert_eq!(auto.executed_words, 0);
    }

    #[test]
    fn stratified_counts_partial_final_word() {
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.02));
        let trial = PermTrial::new(&c);
        for trials in [65u64, 100, 130] {
            let out = engine.estimate(
                &trial,
                &McOptions::new(trials).estimator(Estimator::DEFAULT_STRATIFIED),
            );
            assert_eq!(out.trials, trials, "stratified respects the budget");
        }
    }

    #[test]
    #[should_panic(expected = "fault_free_can_fail")]
    fn stratified_rejects_ineligible_trials() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.01));
        let trial = Wire0Trial { n_wires: 9 };
        let _ = engine.estimate(
            &trial,
            &McOptions::new(1000).estimator(Estimator::DEFAULT_STRATIFIED),
        );
    }

    #[test]
    fn auto_estimator_routes_by_executable_mass_and_eligibility() {
        assert_eq!(
            Estimator::Auto.resolve(0.05, 1),
            Estimator::DEFAULT_STRATIFIED
        );
        // A declared fault distance flows into the elision.
        assert_eq!(
            Estimator::Auto.resolve(0.01, 4),
            Estimator::Stratified {
                min_faults: 4,
                strata_cap: DEFAULT_STRATA_CAP
            }
        );
        // Ineligible trials (min 0) and heavy executable mass stay plain.
        assert_eq!(Estimator::Auto.resolve(0.05, 0), Estimator::Plain);
        assert_eq!(Estimator::Auto.resolve(0.5, 1), Estimator::Plain);
        assert_eq!(Estimator::Plain.resolve(0.0, 1), Estimator::Plain);
        let explicit = Estimator::Stratified {
            min_faults: 2,
            strata_cap: 3,
        };
        assert_eq!(explicit.resolve(0.1, 0), explicit);
    }

    #[test]
    fn estimator_parses_and_displays() {
        assert_eq!("plain".parse::<Estimator>().unwrap(), Estimator::Plain);
        assert_eq!("auto".parse::<Estimator>().unwrap(), Estimator::Auto);
        assert_eq!(
            "stratified".parse::<Estimator>().unwrap(),
            Estimator::DEFAULT_STRATIFIED
        );
        assert_eq!(
            "stratified:2".parse::<Estimator>().unwrap(),
            Estimator::Stratified {
                min_faults: 2,
                strata_cap: DEFAULT_STRATA_CAP
            }
        );
        assert_eq!(
            "stratified:2:6".parse::<Estimator>().unwrap(),
            Estimator::Stratified {
                min_faults: 2,
                strata_cap: 6
            }
        );
        assert!("nope".parse::<Estimator>().is_err());
        assert!("stratified:x".parse::<Estimator>().is_err());
        for e in [
            Estimator::Plain,
            Estimator::Auto,
            Estimator::DEFAULT_STRATIFIED,
        ] {
            assert_eq!(e.to_string().parse::<Estimator>().unwrap(), e);
        }
    }

    #[test]
    fn stratified_weights_account_for_all_mass() {
        let c = permutation_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.01));
        let trial = PermTrial::new(&c);
        let out = engine.estimate(&trial, &McOptions::new(1000).stratified(1, 4));
        let elided = engine.fault_free_probability();
        assert!(
            (out.sample_weight + elided - 1.0).abs() < 1e-9,
            "weights {} + elided {} should cover all mass",
            out.sample_weight,
            elided
        );
        let strata_sum: f64 = out.strata.iter().map(|s| s.weight).sum();
        assert!((strata_sum - out.sample_weight).abs() < 1e-12);
    }

    #[test]
    fn apportion_words_is_proportional_and_covering() {
        assert_eq!(apportion_words(&[3.0, 1.0], &[0.5, 0.5], 4), vec![3, 1]);
        // One-word floor: a zero-score live stratum still gets seeded.
        assert_eq!(apportion_words(&[1.0, 0.0], &[0.5, 0.5], 8), vec![7, 1]);
        // Discovery with fewer words than strata: heaviest strata first.
        assert_eq!(
            apportion_words(&[0.0, 0.0, 0.0], &[0.1, 0.02, 0.8], 1),
            vec![0, 0, 1]
        );
        // Discovery mode: no failures anywhere → uniform over live strata.
        assert_eq!(
            apportion_words(&[0.0, 0.0, 0.0], &[0.5, 0.0, 0.5], 5),
            vec![3, 0, 2]
        );
        // Dead strata get nothing.
        assert_eq!(apportion_words(&[1.0, 0.0], &[1.0, 0.0], 7), vec![7, 0]);
    }

    #[test]
    fn fused_masked_run_matches_raw_masked_reference() {
        // `BatchBackend::run_masked` routes through the compiled
        // micro-op program; the retired op-at-a-time loop stays as the
        // raw reference it must match bit for bit.
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.05));
        for seed in 0..10u64 {
            let mut masks = vec![0u64; c.len()];
            let mut seeder = SmallRng::seed_from_u64(seed.wrapping_mul(31));
            for m in masks.iter_mut() {
                *m = seeder.random::<u64>() & seeder.random::<u64>() & seeder.random::<u64>();
            }
            let mut raw = BatchState::zeros(9, 1);
            let mut fused = BatchState::zeros(9, 1);
            let mut rng_r = SmallRng::seed_from_u64(seed);
            let mut rng_f = SmallRng::seed_from_u64(seed);
            let rr = run_masked_raw(&c, &mut raw, &masks, &mut rng_r);
            let rf = BatchBackend.run_masked(&engine, &mut fused, &masks, &mut rng_f);
            assert_eq!(rr, rf, "seed {seed}: reports differ");
            assert_eq!(raw, fused, "seed {seed}: states differ");
        }
    }

    #[test]
    fn masked_backends_agree_on_shared_schedules() {
        let c = recovery_like_circuit();
        let engine = Engine::compile(&c, &UniformNoise::new(0.05));
        for seed in 0..10u64 {
            let mut masks = vec![0u64; c.len()];
            let mut seeder = SmallRng::seed_from_u64(seed.wrapping_mul(77));
            for m in masks.iter_mut() {
                // Sparse random schedule.
                *m = seeder.random::<u64>() & seeder.random::<u64>() & seeder.random::<u64>();
            }
            let mut scalar = BatchState::zeros(9, 1);
            let mut batch = BatchState::zeros(9, 1);
            let mut rng_s = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            let rs = ScalarBackend.run_masked(&engine, &mut scalar, &masks, &mut rng_s);
            let rb = BatchBackend.run_masked(&engine, &mut batch, &masks, &mut rng_b);
            assert_eq!(rs, rb, "seed {seed}: reports differ");
            assert_eq!(scalar, batch, "seed {seed}: states differ");
        }
    }

    #[test]
    fn plain_schedule_lanes_fault_uniformly() {
        // Lane-occupancy check: each of the 64 lanes faults with the same
        // marginal probability, where nearly every op faults and where
        // faults are sparse.
        for (g, draws) in [(0.2, 20_000usize), (1e-3, 400_000)] {
            let mut c = Circuit::new(1);
            c.not(w(0));
            let engine = Engine::compile(&c, &UniformNoise::new(g));
            let mut rng = SmallRng::seed_from_u64(9);
            let mut per_lane = [0u32; 64];
            let mut mask = [0u64];
            for _ in 0..draws {
                engine.sample_faults(&mut rng, &mut mask);
                for (lane, count) in per_lane.iter_mut().enumerate() {
                    *count += ((mask[0] >> lane) & 1) as u32;
                }
            }
            let expected = g * draws as f64;
            let sd = (draws as f64 * g * (1.0 - g)).sqrt();
            for (lane, &count) in per_lane.iter().enumerate() {
                assert!(
                    ((count as f64) - expected).abs() < 6.0 * sd,
                    "g {g} lane {lane}: {count} vs {expected} ± {sd}"
                );
            }
        }
    }

    #[test]
    fn fault_rate_matches_noise_model() {
        // Mean fault count over many words ≈ ops × lanes × g, within 5σ.
        let c = recovery_like_circuit();
        let g = 0.03;
        let engine = Engine::compile(&c, &UniformNoise::new(g));
        let mut rng = SmallRng::seed_from_u64(42);
        let words = 200usize;
        let mut events = 0u64;
        for _ in 0..words {
            let mut batch = BatchState::zeros(9, 1);
            events += engine.run_batch(&mut batch, &mut rng).fault_events;
        }
        let n = (c.len() * 64 * words) as f64;
        let expected = g * n;
        let sd = (n * g * (1.0 - g)).sqrt();
        assert!(
            ((events as f64) - expected).abs() < 5.0 * sd,
            "events {events} vs expected {expected} ± {sd}"
        );
    }

    #[test]
    fn lane_value_assembles_bits() {
        let planes = [0b1u64 << 5, 0b0, 0b1 << 5];
        assert_eq!(lane_value(&planes, 5), 0b101);
        assert_eq!(lane_value(&planes, 4), 0);
    }

    #[test]
    fn failure_mask_flags_mismatched_lanes() {
        // One logical wire; ideal = identity. Output differs on lane 3.
        let inputs = [0b1000u64];
        let outputs = [0b0000u64];
        assert_eq!(failure_mask(&inputs, &outputs, |x| x), 0b1000);
        assert_eq!(failure_mask(&inputs, &inputs, |x| x), 0);
    }

    #[test]
    #[should_panic(expected = "state width")]
    fn scalar_width_mismatch_panics() {
        let c = Circuit::new(3);
        let engine = Engine::compile(&c, &NoNoise);
        let mut s = BitState::zeros(4);
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = engine.run_scalar(&mut s, &mut rng);
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn batch_width_mismatch_panics() {
        let c = Circuit::new(3);
        let engine = Engine::compile(&c, &NoNoise);
        let mut batch = BatchState::zeros(4, 1);
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = engine.run_batch(&mut batch, &mut rng);
    }
}
