//! The reset tap: per-INIT pre-reset pattern counts gathered inside the
//! compiled word loop.
//!
//! Entropy leaves a fault-tolerant reversible computer exactly where an
//! ancilla is reset (§4): each INIT erases whatever its ≤ 3 wires held.
//! [`Engine::tally_resets`](crate::engine::Engine::tally_resets) measures
//! it by running the micro-op program 64 trials per word with a
//! [`ResetTap`] attached to the masked wide runner. The tap reads each
//! INIT's support planes just before the INIT's micro-op executes and
//! adds the joint 8-pattern counts of the word's valid lanes to a
//! per-site `[u64; 8]` — eight AND + popcount steps per word and site.
//!
//! For the planes to be exact the program is lowered with a split before
//! every INIT ([`TappedOps`]): each INIT then starts a fused segment or
//! is a native op, and a segment never writes the batch before it starts.
//! That program is built lazily beside the estimate program, which stays
//! unchanged; the estimate loops pass the `()` tap, whose hooks are empty
//! and compile away.

use crate::batch::BatchState;
use crate::circuit::Circuit;
use crate::engine::FaultTable;
use crate::microop::{self, CompiledOps, MicroOp};
use crate::op::{InitOp, Op};

/// Hooks the word loops call around a masked wide run. `()` is the
/// no-op tap of the estimate path.
pub(crate) trait InitTap: Send + Sized {
    /// Whether the run needs the program lowered with a split before
    /// every INIT ([`TappedOps`]) instead of the estimate program.
    const SPLIT_INITS: bool;

    /// An empty tally with the same configuration, for another worker.
    fn fork(&self) -> Self;

    /// Folds another worker's tally into this one.
    fn merge(&mut self, other: Self);

    /// Starts one run over words whose counted lanes are `valid`.
    fn start(&mut self, valid: &[u64]);

    /// Called before micro-op `micro` executes on `batch`.
    fn before<const W: usize>(&mut self, micro: usize, batch: &BatchState);
}

impl InitTap for () {
    const SPLIT_INITS: bool = false;

    #[inline(always)]
    fn fork(&self) -> Self {}

    #[inline(always)]
    fn merge(&mut self, _other: Self) {}

    #[inline(always)]
    fn start(&mut self, _valid: &[u64]) {}

    #[inline(always)]
    fn before<const W: usize>(&mut self, _micro: usize, _batch: &BatchState) {}
}

/// One INIT of the tapped program.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapPoint {
    /// The micro-op the INIT starts.
    pub micro: u32,
    /// Index of the INIT in the original op stream.
    pub op_index: u32,
    /// The INIT itself (its reset wires).
    pub init: InitOp,
}

/// The program lowered with a split before every INIT, plus its INITs in
/// micro-op order.
#[derive(Debug, Clone)]
pub(crate) struct TappedOps {
    pub ops: CompiledOps,
    pub points: Vec<TapPoint>,
}

impl TappedOps {
    pub(crate) fn compile(circuit: &Circuit, table: &FaultTable) -> Self {
        let ops = microop::lower(circuit, table, true);
        let stream = circuit.ops();
        let points = ops
            .micro
            .iter()
            .enumerate()
            .filter_map(|(mi, mop)| {
                let first = match mop {
                    MicroOp::Native(nat) => nat.op_index,
                    MicroOp::Affine(seg) => ops.segments[*seg as usize].start,
                };
                let Op::Init(init) = stream[first as usize] else {
                    return None;
                };
                Some(TapPoint {
                    micro: mi as u32,
                    op_index: first,
                    init,
                })
            })
            .collect();
        TappedOps { ops, points }
    }

    /// Approximate heap footprint (size input of cache eviction).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.ops.approx_bytes() + std::mem::size_of_val::<[TapPoint]>(&self.points)
    }
}

/// Per-INIT pre-reset pattern counts over the valid lanes of every word
/// run: `counts[i][p]` = lanes whose wires held pattern `p` (bit `j` =
/// wire `j` of the INIT) just before INIT `points[i]`.
#[derive(Debug)]
pub(crate) struct ResetTap<'a> {
    points: &'a [TapPoint],
    /// Next point in micro-op order within the current run.
    next: usize,
    /// Counted lanes of the current run's words.
    valid: [u64; 4],
    pub(crate) counts: Vec<[u64; 8]>,
}

impl<'a> ResetTap<'a> {
    pub(crate) fn new(points: &'a [TapPoint]) -> Self {
        ResetTap {
            points,
            next: 0,
            valid: [0; 4],
            counts: vec![[0; 8]; points.len()],
        }
    }
}

impl InitTap for ResetTap<'_> {
    const SPLIT_INITS: bool = true;

    fn fork(&self) -> Self {
        ResetTap::new(self.points)
    }

    fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }

    fn start(&mut self, valid: &[u64]) {
        self.valid[..valid.len()].copy_from_slice(valid);
        self.next = 0;
    }

    #[inline]
    fn before<const W: usize>(&mut self, micro: usize, batch: &BatchState) {
        let Some(point) = self.points.get(self.next) else {
            return;
        };
        if point.micro as usize != micro {
            return;
        }
        // Missing wires read as constant-zero planes, so their pattern
        // bits stay 0.
        let wires = point.init.wires();
        let plane = |k: usize| {
            wires
                .get(k)
                .map_or([0u64; W], |&wire| batch.wide::<W>(wire))
        };
        let (a, b, c) = (plane(0), plane(1), plane(2));
        let counts = &mut self.counts[self.next];
        for w in 0..W {
            let v = self.valid[w];
            let low = [
                v & !a[w] & !b[w],
                v & a[w] & !b[w],
                v & !a[w] & b[w],
                v & a[w] & b[w],
            ];
            for (p, &m) in low.iter().enumerate() {
                counts[p] += (m & !c[w]).count_ones() as u64;
                counts[p + 4] += (m & c[w]).count_ones() as u64;
            }
        }
        self.next += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::batch::BatchState;
    use crate::circuit::Circuit;
    use crate::engine::{
        Backend, Engine, McOptions, ResetSite, ScalarBackend, WordWidth, WORD_SEED_STRIDE,
    };
    use crate::gate::Gate;
    use crate::noise::{NoNoise, UniformNoise};
    use crate::op::Op;
    use crate::state::BitState;
    use crate::wire::w;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rft_obs::{Collector, Metric};

    const N_WIRES: usize = 6;

    /// Linear gates and INITs dominate, so INITs land inside what the
    /// estimate program fuses into one segment; MAJ/MAJ⁻¹ add replay
    /// segments and Toffoli nonlinear barriers.
    fn arb_op() -> impl Strategy<Value = Op> {
        let wire = 0..N_WIRES as u32;
        let distinct2 = (wire.clone(), wire.clone()).prop_filter("distinct wires", |(a, b)| a != b);
        let distinct3 = (wire.clone(), wire.clone(), wire.clone())
            .prop_filter("distinct wires", |(a, b, c)| a != b && b != c && a != c);
        prop_oneof![
            wire.clone().prop_map(|a| Op::Gate(Gate::Not(w(a)))),
            distinct2.clone().prop_map(|(a, b)| Op::Gate(Gate::Cnot {
                control: w(a),
                target: w(b)
            })),
            distinct2.prop_map(|(a, b)| Op::Gate(Gate::Swap(w(a), w(b)))),
            distinct3
                .clone()
                .prop_map(|(a, b, c)| Op::Gate(Gate::Toffoli {
                    controls: [w(a), w(b)],
                    target: w(c)
                })),
            distinct3
                .clone()
                .prop_map(|(a, b, c)| Op::Gate(Gate::Maj(w(a), w(b), w(c)))),
            distinct3
                .clone()
                .prop_map(|(a, b, c)| Op::Gate(Gate::MajInv(w(a), w(b), w(c)))),
            wire.clone().prop_map(|a| Op::init(&[w(a)])),
            distinct3
                .clone()
                .prop_map(|(a, b, _)| Op::init(&[w(a), w(b)])),
            distinct3.prop_map(|(a, b, c)| Op::init(&[w(a), w(b), w(c)])),
        ]
    }

    fn circuit(ops: &[Op]) -> Circuit {
        let mut c = Circuit::new(N_WIRES);
        for &op in ops {
            c.push(op);
        }
        c
    }

    /// The oracle: for every INIT at op `i`, draw each word's fault
    /// schedule for the whole circuit, then replay the schedule's prefix
    /// `masks[..i]` on the scalar backend over the ops `ops[..i]` — the
    /// prefix draws its fault planes exactly as the full run does up to
    /// the INIT, so its final lanes are the full run's pre-reset lanes.
    fn prefix_replay(ops: &[Op], input: u64, g: f64, trials: u64, seed: u64) -> Vec<ResetSite> {
        let full = Engine::compile(&circuit(ops), &UniformNoise::new(g));
        let mut masks = vec![0u64; ops.len()];
        let mut sites = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let Op::Init(init) = op else { continue };
            let prefix = Engine::compile(&circuit(&ops[..i]), &UniformNoise::new(g));
            let mut counts = [0u64; 8];
            for word in 0..trials.div_ceil(64) {
                let mut batch = BatchState::zeros(N_WIRES, 1);
                for k in 0..N_WIRES {
                    if (input >> k) & 1 == 1 {
                        batch.set_word(w(k as u32), 0, u64::MAX);
                    }
                }
                let mut rng =
                    SmallRng::seed_from_u64(seed ^ WORD_SEED_STRIDE.wrapping_mul(word + 1));
                full.sample_faults(&mut rng, &mut masks);
                ScalarBackend.run_masked(&prefix, &mut batch, &masks[..i], &mut rng);
                for lane in 0..64.min(trials - word * 64) as usize {
                    let pattern = batch.lane(lane).read_pattern(init.wires());
                    counts[pattern as usize] += 1;
                }
            }
            sites.push(ResetSite {
                op_index: i,
                counts,
            });
        }
        sites
    }

    proptest! {
        /// Tapped histograms equal the scalar prefix replay exactly, at
        /// every width and thread count, with a partial final word.
        #[test]
        fn reset_tally_matches_scalar_prefix_replay(
            ops in prop::collection::vec(arb_op(), 1..24),
            input in 0u64..(1 << N_WIRES),
            seed in 0u64..1_000_000,
            g_mil in 0u32..300,
            extra in 1u64..64,
        ) {
            let g = f64::from(g_mil) / 1000.0;
            let trials = 3 * 64 + extra;
            let engine = Engine::compile(&circuit(&ops), &UniformNoise::new(g));
            let expect = prefix_replay(&ops, input, g, trials, seed);
            let state = BitState::from_u64(input, N_WIRES);
            for (width, threads) in [(WordWidth::W1, 1), (WordWidth::W2, 2), (WordWidth::W4, 1)] {
                let opts = McOptions::new(trials).seed(seed).threads(threads).width(width);
                let got = engine.tally_resets(&state, &opts, &Collector::disabled());
                prop_assert_eq!(&got, &expect, "width {} threads {}", width, threads);
            }
        }
    }

    #[test]
    fn mid_segment_inits_split_only_the_tapped_program() {
        // INIT, the fan-out MAJ⁻¹(a, 0, 0) and a second INIT fuse into
        // one constant-specialized segment for estimates. The tap splits
        // before the second INIT and reads the fan-out's (1, 1), not the
        // segment input's (0, 0).
        let mut c = Circuit::new(3);
        c.init(&[w(1), w(2)])
            .maj_inv(w(0), w(1), w(2))
            .init(&[w(1), w(2)]);
        let engine = Engine::compile(&c, &NoNoise);
        assert_eq!(
            engine.compile_stats().micro_ops,
            1,
            "estimate program fuses both INITs"
        );
        let trials = 130;
        let sites = engine.tally_resets(
            &BitState::from_u64(0b001, 3),
            &McOptions::new(trials),
            &Collector::disabled(),
        );
        let mut before_first = [0u64; 8];
        before_first[0b00] = trials;
        let mut before_second = [0u64; 8];
        before_second[0b11] = trials;
        assert_eq!(
            sites,
            vec![
                ResetSite {
                    op_index: 0,
                    counts: before_first
                },
                ResetSite {
                    op_index: 2,
                    counts: before_second
                },
            ]
        );
    }

    #[test]
    fn reset_tallies_count_executed_work_but_not_estimates() {
        let mut c = Circuit::new(2);
        c.cnot(w(0), w(1)).init(&[w(1)]);
        let engine = Engine::compile(&c, &UniformNoise::new(0.1));
        let obs = Collector::new();
        let trials = 300;
        engine.tally_resets(&BitState::zeros(2), &McOptions::new(trials), &obs);
        let snap = obs.snapshot();
        assert_eq!(snap.counter(Metric::ExecutedTrials), trials);
        assert_eq!(snap.counter(Metric::ExecutedWords), trials.div_ceil(64));
        assert_eq!(snap.counter(Metric::EstimateCalls), 0);
        assert_eq!(snap.counter(Metric::PlainRuns), 0);
    }
}
