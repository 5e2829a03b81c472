//! Fused-vs-unfused equivalence for the compiled micro-op IR.
//!
//! The fusion pass (`rft_revsim::microop`) may only change *how fast* a
//! word executes, never *what* it computes: for every circuit, noise
//! binding, seed and fault schedule, the compiled program must reproduce
//! the raw op-at-a-time loops **bit for bit** — including faults landing
//! in the middle of fused segments, where exactness rests on the
//! gather/scatter propagation pairs (patch segments) and on native
//! replay (constant-specialized segments). These property tests drive
//! arbitrary op soups — linear runs, INIT-interrupted runs, specialized
//! MAJ/MAJ⁻¹ patterns and nonlinear barriers — through both paths.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rft_revsim::engine::WordWidth;
use rft_revsim::prelude::*;

const N_WIRES: usize = 7;

/// Strategy producing an arbitrary valid op (gates and inits) on
/// `N_WIRES` wires.
fn arb_op() -> impl Strategy<Value = Op> {
    let wire = 0..N_WIRES as u32;
    let distinct3 = (wire.clone(), wire.clone(), wire.clone())
        .prop_filter("wires must be distinct", |(a, b, c)| {
            a != b && b != c && a != c
        });
    let distinct2 =
        (wire.clone(), wire.clone()).prop_filter("wires must be distinct", |(a, b)| a != b);
    let distinct4 = (wire.clone(), wire.clone(), wire.clone(), wire.clone())
        .prop_filter("wires must be distinct", |(a, b, c, d)| {
            a != b && a != c && a != d && b != c && b != d && c != d
        });
    prop_oneof![
        wire.clone().prop_map(|a| Op::Gate(Gate::Not(w(a)))),
        distinct2.clone().prop_map(|(a, b)| Op::Gate(Gate::Cnot {
            control: w(a),
            target: w(b)
        })),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::Toffoli {
                controls: [w(a), w(b)],
                target: w(c)
            })),
        distinct2
            .clone()
            .prop_map(|(a, b)| Op::Gate(Gate::Swap(w(a), w(b)))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::Swap3(w(a), w(b), w(c)))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::Fredkin {
                control: w(a),
                targets: [w(b), w(c)]
            })),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::Maj(w(a), w(b), w(c)))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::MajInv(w(a), w(b), w(c)))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::F2g(w(a), w(b), w(c)))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::Nft(w(a), w(b), w(c)))),
        distinct3
            .clone()
            .prop_map(|(a, b, c)| Op::Gate(Gate::NftInv(w(a), w(b), w(c)))),
        distinct4
            .clone()
            .prop_map(|(a, b, c, d)| Op::Gate(Gate::Ig(w(a), w(b), w(c), w(d)))),
        distinct4.prop_map(|(a, b, c, d)| Op::Gate(Gate::IgInv(w(a), w(b), w(c), w(d)))),
        wire.clone().prop_map(|a| Op::init(&[w(a)])),
        distinct3.prop_map(|(a, b, c)| Op::init(&[w(a), w(b), w(c)])),
    ]
}

/// Fusion-heavy op soup: linear gates, inits and MAJ/MAJ⁻¹ dominate, so
/// most generated circuits contain multi-op segments with mid-segment
/// fault sites of every flavour.
fn arb_circuit(max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_op(), 0..max_len).prop_map(|ops| {
        let mut c = Circuit::new(N_WIRES);
        for op in ops {
            c.push(op);
        }
        c
    })
}

/// Random lane contents for one plane word per wire.
fn fill_random(batch: &mut BatchState, word: usize, rng: &mut SmallRng) {
    for i in 0..N_WIRES {
        let v = rng.random::<u64>();
        batch.set_word(w(i as u32), word, v);
    }
}

proptest! {
    /// Sampled path: the compiled program (fused segments, wide blend)
    /// consumes the identical RNG stream as the raw loop and lands every
    /// sampled fault bit-identically — on arbitrary circuits and noise
    /// rates heavy enough to fault inside segments constantly.
    #[test]
    fn fused_sampled_run_matches_raw_bit_for_bit(
        c in arb_circuit(40),
        seed in 0u64..1_000_000,
        g_mil in 0u32..400,
    ) {
        let noise = UniformNoise::new(f64::from(g_mil) / 1000.0);
        let engine = Engine::compile(&c, &noise);
        let mut raw = BatchState::zeros(N_WIRES, 1);
        let mut fused = BatchState::zeros(N_WIRES, 1);
        let mut fill = SmallRng::seed_from_u64(seed ^ 0xABCD);
        fill_random(&mut raw, 0, &mut fill);
        let mut fill = SmallRng::seed_from_u64(seed ^ 0xABCD);
        fill_random(&mut fused, 0, &mut fill);
        let mut rng_raw = SmallRng::seed_from_u64(seed);
        let mut rngs = [SmallRng::seed_from_u64(seed)];
        let rep_raw = engine.run_batch(&mut raw, &mut rng_raw);
        let rep_fused = engine.run_batch_fused(&mut fused, &mut rngs);
        prop_assert_eq!(rep_raw, rep_fused);
        prop_assert_eq!(raw, fused);
        // Both RNGs must have consumed the identical stream.
        prop_assert_eq!(rng_raw.random::<u64>(), rngs[0].random::<u64>());
    }

    /// Masked path: arbitrary fault schedules (including dense ones and
    /// faults on never-fault ops) through the compiled program equal the
    /// raw masked loop bit for bit.
    #[test]
    fn fused_masked_run_matches_raw_bit_for_bit(
        c in arb_circuit(40),
        seed in 0u64..1_000_000,
        density in 0u32..3,
    ) {
        let engine = Engine::compile(&c, &UniformNoise::new(1e-3));
        let mut seeder = SmallRng::seed_from_u64(seed ^ 0x5555);
        let masks: Vec<u64> = (0..c.len())
            .map(|_| {
                let mut m = seeder.random::<u64>();
                for _ in 0..density {
                    m &= seeder.random::<u64>();
                }
                m
            })
            .collect();
        let mut raw = BatchState::zeros(N_WIRES, 1);
        let mut fused = BatchState::zeros(N_WIRES, 1);
        let mut fill = SmallRng::seed_from_u64(seed ^ 0x77);
        fill_random(&mut raw, 0, &mut fill);
        let mut fill = SmallRng::seed_from_u64(seed ^ 0x77);
        fill_random(&mut fused, 0, &mut fill);
        let mut rng_raw = SmallRng::seed_from_u64(seed);
        let mut rngs = [SmallRng::seed_from_u64(seed)];
        let rep_raw = engine.run_batch_masked_raw(&mut raw, &masks, &mut rng_raw);
        let rep_fused = engine.run_batch_masked(&mut fused, &masks, &mut rngs);
        prop_assert_eq!(rep_raw, rep_fused);
        prop_assert_eq!(raw, fused);
        prop_assert_eq!(rng_raw.random::<u64>(), rngs[0].random::<u64>());
    }

    /// A `W = 4` masked run whose words carry schedules of different
    /// density — clean, sparse (one lane), dense (several lanes) or every
    /// lane — so one op is faulted in some words and clean in others.
    /// It must equal four `W = 1` raw masked runs lane for lane and
    /// consume the same RNG stream per word.
    #[test]
    fn wide_masked_run_with_mixed_density_equals_four_raw_runs(
        c in arb_circuit(40),
        seed in 0u64..1_000_000,
        density in (0u8..4, 0u8..4, 0u8..4, 0u8..4),
    ) {
        let engine = Engine::compile(&c, &UniformNoise::new(1e-3));
        let n_ops = c.len();
        let densities = [density.0, density.1, density.2, density.3];
        let mut seeder = SmallRng::seed_from_u64(seed ^ 0x3333);
        let schedules: Vec<Vec<u64>> = densities
            .iter()
            .map(|&d| {
                (0..n_ops)
                    .map(|_| match d {
                        0 => 0,
                        1 if seeder.random::<u8>() < 64 => 1u64 << (seeder.random::<u32>() % 64),
                        1 => 0,
                        2 => seeder.random::<u64>() & seeder.random::<u64>(),
                        _ => u64::MAX,
                    })
                    .collect()
            })
            .collect();
        let mut flat = vec![0u64; n_ops * 4];
        for (word, masks) in schedules.iter().enumerate() {
            for (i, &m) in masks.iter().enumerate() {
                flat[i * 4 + word] = m;
            }
        }
        let rng_seed = |word: usize| seed ^ (word as u64 + 1) << 40;
        let mut wide = BatchState::zeros(N_WIRES, 4);
        for word in 0..4 {
            let mut fill = SmallRng::seed_from_u64(seed ^ 0x44 ^ word as u64);
            fill_random(&mut wide, word, &mut fill);
        }
        let mut rngs4: [SmallRng; 4] = std::array::from_fn(|k| SmallRng::seed_from_u64(rng_seed(k)));
        let rep_wide = engine.run_batch_masked(&mut wide, &flat, &mut rngs4[..]);
        let mut events = 0;
        for (word, masks) in schedules.iter().enumerate() {
            let mut narrow = BatchState::zeros(N_WIRES, 1);
            let mut fill = SmallRng::seed_from_u64(seed ^ 0x44 ^ word as u64);
            fill_random(&mut narrow, 0, &mut fill);
            let mut rng = SmallRng::seed_from_u64(rng_seed(word));
            let rep = engine.run_batch_masked_raw(&mut narrow, masks, &mut rng);
            events += rep.fault_events;
            prop_assert_eq!(rep.faulted_lanes[0], rep_wide.faulted_lanes[word]);
            for i in 0..N_WIRES {
                prop_assert_eq!(
                    narrow.word(w(i as u32), 0),
                    wide.word(w(i as u32), word),
                    "wire {} word {} densities {:?}", i, word, densities
                );
            }
            prop_assert_eq!(rng.random::<u64>(), rngs4[word].random::<u64>());
        }
        prop_assert_eq!(events, rep_wide.fault_events);
    }

    /// Wide words change nothing: a `W = 4` sampled run equals four
    /// `W = 1` runs of the same per-word seeds, lane for lane.
    #[test]
    fn wide_sampled_run_equals_four_narrow_runs(
        c in arb_circuit(30),
        seed in 0u64..1_000_000,
    ) {
        let engine = Engine::compile(&c, &UniformNoise::new(0.02));
        let mut wide = BatchState::zeros(N_WIRES, 4);
        let mut rngs4: [SmallRng; 4] =
            std::array::from_fn(|k| SmallRng::seed_from_u64(seed ^ (k as u64) << 32));
        for word in 0..4 {
            let mut fill = SmallRng::seed_from_u64(seed ^ 0x99 ^ word as u64);
            fill_random(&mut wide, word, &mut fill);
        }
        let rep_wide = engine.run_batch_fused(&mut wide, &mut rngs4[..]);
        for word in 0..4 {
            let mut narrow = BatchState::zeros(N_WIRES, 1);
            let mut fill = SmallRng::seed_from_u64(seed ^ 0x99 ^ word as u64);
            fill_random(&mut narrow, 0, &mut fill);
            let mut rngs1 = [SmallRng::seed_from_u64(seed ^ (word as u64) << 32)];
            let rep = engine.run_batch_fused(&mut narrow, &mut rngs1);
            prop_assert_eq!(rep.faulted_lanes[0], rep_wide.faulted_lanes[word]);
            for i in 0..N_WIRES {
                prop_assert_eq!(
                    narrow.word(w(i as u32), 0),
                    wide.word(w(i as u32), word),
                    "wire {} word {}", i, word
                );
            }
        }
    }

    /// Estimates are invariant under the wide-word width, for both the
    /// plain and the stratified estimator (width is pure throughput).
    #[test]
    fn estimates_are_width_invariant(seed in 0u64..10_000) {
        // A permutation circuit with fusable structure (inits + MAJ⁻¹
        // fanout) so elision-eligible trials exercise both estimators.
        let mut c = Circuit::new(6);
        c.init(&[w(1), w(2)])
            .maj_inv(w(0), w(1), w(2))
            .swap(w(3), w(4))
            .cnot(w(3), w(5))
            .maj(w(0), w(1), w(2))
            .toffoli(w(0), w(3), w(5));
        let engine = Engine::compile(&c, &UniformNoise::new(0.01));
        let trial = ParityTrial;
        for estimator in [Estimator::Plain, Estimator::DEFAULT_STRATIFIED] {
            let base = McOptions::new(2000)
                .seed(seed)
                .backend(BackendKind::Batch)
                .estimator(estimator);
            let w1 = engine.estimate(&trial, &base.width(WordWidth::W1));
            let w2 = engine.estimate(&trial, &base.width(WordWidth::W2));
            let w4 = engine.estimate(&trial, &base.width(WordWidth::W4));
            let auto = engine.estimate(&trial, &base.width(WordWidth::Auto));
            prop_assert_eq!(&w1, &w2);
            prop_assert_eq!(&w1, &w4);
            prop_assert_eq!(&w1, &auto);
        }
    }
}

/// An elision-eligible trial: random inputs on the data wires, failure =
/// wrong parity of wires {3, 5} against the ideal circuit action.
struct ParityTrial;

impl WordTrial for ParityTrial {
    fn n_wires(&self) -> usize {
        6
    }

    fn prepare(
        &self,
        batch: &mut BatchState,
        word: usize,
        rng: &mut dyn rand::RngCore,
        inputs: &mut Vec<u64>,
    ) {
        inputs.clear();
        inputs.extend((0..6).map(|_| rng.random::<u64>()));
        for (i, &bits) in inputs.iter().enumerate() {
            batch.set_word(w(i as u32), word, bits);
        }
    }

    fn judge(&self, batch: &BatchState, word: usize, inputs: &[u64], candidates: u64) -> u64 {
        // Ideal: recompute scalarly via the permutation of a fault-free
        // run; compare the parity of wires 3 and 5.
        let mut ideal = BatchState::zeros(6, 1);
        for (i, &bits) in inputs.iter().enumerate() {
            ideal.set_word(w(i as u32), 0, bits);
        }
        let mut c = Circuit::new(6);
        c.init(&[w(1), w(2)])
            .maj_inv(w(0), w(1), w(2))
            .swap(w(3), w(4))
            .cnot(w(3), w(5))
            .maj(w(0), w(1), w(2))
            .toffoli(w(0), w(3), w(5));
        run_ideal_batch(&c, &mut ideal);
        let got = batch.word(w(3), word) ^ batch.word(w(5), word);
        (ideal.word(w(3), 0) ^ ideal.word(w(5), 0) ^ got) & candidates
    }

    fn fault_free_can_fail(&self) -> bool {
        false
    }
}

#[test]
fn compile_stats_report_fusion_on_structured_streams() {
    // A swap-routing style linear stream: one long patch segment.
    let mut c = Circuit::new(8);
    c.swap3(w(0), w(1), w(2))
        .swap3(w(2), w(3), w(4))
        .cnot(w(4), w(5))
        .not(w(5))
        .swap(w(5), w(6))
        .cnot(w(6), w(7));
    let engine = Engine::compile(&c, &UniformNoise::new(0.01));
    let stats = engine.compile_stats();
    assert_eq!(stats.ops, 6);
    assert_eq!(stats.fused_segments, 1);
    assert_eq!(stats.max_segment_len, 6);
    assert_eq!(stats.micro_ops, 1);
    assert_eq!(stats.specialized_ops, 0);

    // A recovery-style stream: inits + MAJ⁻¹ fanout specialize, MAJ
    // decode stays native.
    let mut c = Circuit::new(9);
    c.init(&[w(3), w(4), w(5)])
        .init(&[w(6), w(7), w(8)])
        .maj_inv(w(0), w(3), w(6))
        .maj_inv(w(1), w(4), w(7))
        .maj_inv(w(2), w(5), w(8))
        .maj(w(0), w(1), w(2))
        .maj(w(3), w(4), w(5))
        .maj(w(6), w(7), w(8));
    let engine = Engine::compile(&c, &UniformNoise::new(1e-3));
    let stats = engine.compile_stats();
    assert_eq!(stats.fused_segments, 1);
    assert_eq!(stats.max_segment_len, 5, "inits + specialized MAJ⁻¹s fuse");
    assert_eq!(stats.specialized_ops, 3);
    assert_eq!(stats.segment_len_hist, vec![(5, 1)]);
}

#[test]
fn f2g_fuses_into_affine_segments_and_ig_splits_them() {
    // F2G is GF(2)-linear (two CNOTs sharing a control): a run of F2Gs
    // and other linear gates must compile to ONE patch segment.
    let mut c = Circuit::new(6);
    c.f2g(w(0), w(1), w(2))
        .f2g(w(3), w(4), w(5))
        .cnot(w(0), w(3))
        .f2g(w(2), w(1), w(0))
        .not(w(4));
    let engine = Engine::compile(&c, &UniformNoise::new(0.01));
    let stats = engine.compile_stats();
    assert_eq!(stats.ops, 5);
    assert_eq!(stats.fused_segments, 1, "F2G run must fuse");
    assert_eq!(stats.max_segment_len, 5);
    assert_eq!(stats.micro_ops, 1);
    assert_eq!(stats.specialized_ops, 0, "F2G fuses unconditionally");

    // IG's mixed-affine structure (AND terms in its last two outputs)
    // must split a would-be segment in two, with the IG native between.
    let mut c = Circuit::new(6);
    c.f2g(w(0), w(1), w(2))
        .cnot(w(3), w(4))
        .ig(w(0), w(1), w(2), w(3))
        .f2g(w(3), w(4), w(5))
        .swap(w(0), w(1));
    let engine = Engine::compile(&c, &UniformNoise::new(0.01));
    let stats = engine.compile_stats();
    assert_eq!(stats.ops, 5);
    assert_eq!(stats.fused_segments, 2, "IG splits the affine run");
    assert_eq!(stats.micro_ops, 3, "segment, native IG, segment");
    assert_eq!(stats.segment_len_hist, vec![(2, 2)]);

    // NFT is nonlinear throughout: it likewise stays native.
    let mut c = Circuit::new(4);
    c.cnot(w(0), w(1)).nft(w(0), w(1), w(2)).cnot(w(2), w(3));
    let engine = Engine::compile(&c, &UniformNoise::new(0.01));
    assert_eq!(engine.compile_stats().fused_segments, 0);
    assert_eq!(engine.compile_stats().micro_ops, 3);
}

#[test]
fn init_conflict_splits_patch_segments() {
    // CNOT(0→1); INIT(1); CNOT(1→2): the fault site at the first CNOT
    // would need wire 1's pre-INIT value from the boundary — the INIT
    // destroys it, so the segment must split there (and execution must
    // still be exact, which the proptests above cover).
    let mut c = Circuit::new(3);
    c.cnot(w(0), w(1)).init(&[w(1)]).cnot(w(1), w(2));
    let engine = Engine::compile(&c, &UniformNoise::new(0.3));
    let stats = engine.compile_stats();
    assert_eq!(stats.ops, 3);
    // The run splits at the INIT: [CNOT] alone is not a segment, so the
    // fused part is [INIT, CNOT].
    assert_eq!(stats.fused_segments, 1);
    assert_eq!(stats.max_segment_len, 2);
}

#[test]
fn specialization_is_gated_by_word_fault_probability() {
    let mut c = Circuit::new(9);
    c.init(&[w(3), w(4), w(5)])
        .init(&[w(6), w(7), w(8)])
        .maj_inv(w(0), w(3), w(6))
        .maj_inv(w(1), w(4), w(7))
        .maj_inv(w(2), w(5), w(8));
    // Deep below threshold: words usually clear the segment fault-free,
    // so MAJ⁻¹ specialization pays.
    let deep = Engine::compile(&c, &UniformNoise::new(1e-4));
    assert_eq!(deep.compile_stats().specialized_ops, 3);
    // At heavy noise almost every word would replay: the scan retries
    // without specialization and only the INIT pair fuses.
    let heavy = Engine::compile(&c, &UniformNoise::new(0.05));
    assert_eq!(heavy.compile_stats().specialized_ops, 0);
    assert_eq!(heavy.compile_stats().max_segment_len, 2);
}
