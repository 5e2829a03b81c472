//! Compiled micro-op word loops vs the raw op-at-a-time loops.
//!
//! The `fused_vs_raw` group is the PR 5 headline, on the two op streams
//! the reproduction actually runs hot (27-op Figure-2 recovery cycle,
//! 585-op level-2 concatenated Toffoli):
//!
//! - `run_*` — the **sampled** pass (`batch_raw_exec`-equivalent, same
//!   `g = 1/165` noise as BENCH_batch.json): each word draws its fault
//!   schedule, then executes it. `run_raw_w1` is [`Engine::run_batch`]
//!   (op-at-a-time kernels); `run_fused_w1`/`run_fused_w4` is the
//!   compiled program via [`Engine::run_batch_fused`].
//! - `masked_*` — the **masked** word loop alone on a fixed schedule
//!   ([`Engine::run_batch_masked`] vs the raw reference): `clean` runs an
//!   all-clear schedule (the fused floor — what a schedule-clean word
//!   costs), `sparse` a plain-MC-like `g = 10⁻³` schedule. This is where
//!   fusion + wide words pay ≥ 2×.
//! - `masked_drawn_g1e-3_fused_w4` — the masked loop on fresh schedules
//!   drawn by the engine's fault source at `g = 10⁻³`: four independent
//!   words, drawn into a new buffer before every call, outside the timed
//!   region, so the schedule is as hot in cache as the sampled pass's own
//!   and never repeats. A fixed `sparse` schedule shared by all four
//!   words replays each faulted segment once per batch instead of once
//!   per word, and repeating it lets the branch predictor learn it, so
//!   `masked_sparse_*` is a floor, not what a sampled pass executes.
//! - `masked_strat_k4_fused_w4` — the same, on fresh stratified
//!   schedules with exactly four faults in every lane (the `k = 4`
//!   stratum of a level-2 estimate): the dense words whose faulted-op
//!   blends dominate the stratified estimates.
//! - `sampled_g1e-3_fused_w4` — the sampled pass at the same `g`: each
//!   word draws its schedule, then runs it. Its ratio to
//!   `masked_drawn_g1e-3_fused_w4` is the like-for-like cost of drawing
//!   the schedules (CI gates it at ≤ 1.2).
//!
//! Throughput is lanes (trials) per iteration so criterion's elements/s
//! are comparable across widths. `stratified_width` times the full
//! stratified estimate (mask building included) at widths 1 and 4.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rft_analysis::prelude::*;
use rft_core::ftcheck::transversal_cycle;
use rft_revsim::engine::WordWidth;
use rft_revsim::prelude::*;
use std::hint::black_box;

fn toffoli() -> Gate {
    Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    }
}

fn streams() -> Vec<(&'static str, Circuit)> {
    let fig2 = transversal_cycle(&toffoli()).circuit().clone();
    let level2 = ConcatMc::new(2, toffoli(), 1).program().circuit().clone();
    vec![("fig2_27_ops", fig2), ("level2_585_ops", level2)]
}

/// Raw vs fused word execution, sampled and masked paths.
fn fused_vs_raw(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_vs_raw");
    group.sample_size(20);
    for (name, circuit) in streams() {
        let n = circuit.n_wires();

        // Sampled loop at the BENCH_batch.json noise.
        let engine = Engine::compile(&circuit, &UniformNoise::new(1.0 / 165.0));
        let stats = engine.compile_stats();
        assert!(
            stats.max_segment_len > 1,
            "{name}: fusion disabled (no >1-op segments)"
        );
        group.throughput(Throughput::Elements(64));
        group.bench_function(format!("run_raw_w1/{name}"), |b| {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut batch = BatchState::zeros(n, 1);
            b.iter(|| black_box(engine.run_batch(&mut batch, &mut rng).fault_events));
        });
        group.bench_function(format!("run_fused_w1/{name}"), |b| {
            let mut rngs = [SmallRng::seed_from_u64(3)];
            let mut batch = BatchState::zeros(n, 1);
            b.iter(|| black_box(engine.run_batch_fused(&mut batch, &mut rngs).fault_events));
        });
        group.throughput(Throughput::Elements(256));
        group.bench_function(format!("run_fused_w4/{name}"), |b| {
            let mut rngs: [SmallRng; 4] =
                std::array::from_fn(|k| SmallRng::seed_from_u64(3 + k as u64));
            let mut batch = BatchState::zeros(n, 4);
            b.iter(|| {
                black_box(
                    engine
                        .run_batch_fused(&mut batch, &mut rngs[..])
                        .fault_events,
                )
            });
        });

        // Masked (rare-event) loop at the BENCH_rare_event.json noise.
        let engine = Engine::compile(&circuit, &UniformNoise::new(1e-3));
        let n_ops = circuit.len();
        let clean = vec![0u64; n_ops];
        let mut seeder = SmallRng::seed_from_u64(99);
        let sparse: Vec<u64> = (0..n_ops)
            .map(|_| {
                (0..64).fold(0u64, |v, _| {
                    (v << 1) | u64::from(seeder.random::<f64>() < 1e-3)
                })
            })
            .collect();
        for (sched, masks) in [("clean", &clean), ("sparse_g1e-3", &sparse)] {
            group.throughput(Throughput::Elements(64));
            group.bench_function(format!("masked_{sched}_raw_w1/{name}"), |b| {
                let mut rng = SmallRng::seed_from_u64(5);
                let mut batch = BatchState::zeros(n, 1);
                b.iter(|| {
                    black_box(
                        engine
                            .run_batch_masked_raw(&mut batch, masks, &mut rng)
                            .fault_events,
                    )
                });
            });
            group.throughput(Throughput::Elements(256));
            group.bench_function(format!("masked_{sched}_fused_w4/{name}"), |b| {
                let mut rngs: [SmallRng; 4] =
                    std::array::from_fn(|k| SmallRng::seed_from_u64(5 + k as u64));
                let mut batch = BatchState::zeros(n, 4);
                let mut flat = vec![0u64; n_ops * 4];
                for (i, &m) in masks.iter().enumerate() {
                    flat[i * 4..(i + 1) * 4].fill(m);
                }
                b.iter(|| {
                    black_box(
                        engine
                            .run_batch_masked(&mut batch, &flat, &mut rngs[..])
                            .fault_events,
                    )
                });
            });
        }

        // The masked loop on schedules drawn by the engine's own fault
        // source at the same `g`, four independent words, fresh before
        // every call — what the sampled pass below executes, minus the
        // draws.
        group.bench_function(format!("masked_drawn_g1e-3_fused_w4/{name}"), |b| {
            let mut rngs: [SmallRng; 4] =
                std::array::from_fn(|k| SmallRng::seed_from_u64(5 + k as u64));
            let mut batch = BatchState::zeros(n, 4);
            let mut source = SmallRng::seed_from_u64(77);
            let mut word = vec![0u64; n_ops];
            b.iter_batched_ref(
                || {
                    let mut flat = vec![0u64; n_ops * 4];
                    for w in 0..4 {
                        engine.sample_faults(&mut source, &mut word);
                        for (i, &m) in word.iter().enumerate() {
                            flat[i * 4 + w] = m;
                        }
                    }
                    flat
                },
                |masks| {
                    black_box(
                        engine
                            .run_batch_masked(&mut batch, masks, &mut rngs[..])
                            .fault_events,
                    )
                },
                BatchSize::PerIteration,
            );
        });

        // The masked loop on fresh stratified schedules: every lane of
        // each of the four words carries exactly four faults (the `k = 4`
        // stratum of a level-2 estimate), drawn before every call outside
        // the timed region. Dense words are where the faulted-op blend
        // dominates the cost.
        group.bench_function(format!("masked_strat_k4_fused_w4/{name}"), |b| {
            let mut rngs: [SmallRng; 4] =
                std::array::from_fn(|k| SmallRng::seed_from_u64(5 + k as u64));
            let mut batch = BatchState::zeros(n, 4);
            let mut source = SmallRng::seed_from_u64(78);
            let mut word = vec![0u64; n_ops];
            b.iter_batched_ref(
                || {
                    let mut flat = vec![0u64; n_ops * 4];
                    for w in 0..4 {
                        engine.sample_faults_exactly(4, &mut source, &mut word);
                        for (i, &m) in word.iter().enumerate() {
                            flat[i * 4 + w] = m;
                        }
                    }
                    flat
                },
                |masks| {
                    black_box(
                        engine
                            .run_batch_masked(&mut batch, masks, &mut rngs[..])
                            .fault_events,
                    )
                },
                BatchSize::PerIteration,
            );
        });

        // The sampled pass at the same noise: each word draws its own
        // schedule (O(faults)) and runs it on the masked loop above.
        group.throughput(Throughput::Elements(256));
        group.bench_function(format!("sampled_g1e-3_fused_w4/{name}"), |b| {
            let mut rngs: [SmallRng; 4] =
                std::array::from_fn(|k| SmallRng::seed_from_u64(5 + k as u64));
            let mut batch = BatchState::zeros(n, 4);
            b.iter(|| {
                black_box(
                    engine
                        .run_batch_fused(&mut batch, &mut rngs[..])
                        .fault_events,
                )
            });
        });
    }
    group.finish();
}

/// The full stratified (masked-schedule) estimate at widths 1 and 4 —
/// the rare-event path end to end, conditional mask building included.
fn stratified_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("stratified_width");
    group.sample_size(10);
    let mc = ConcatMc::new(2, toffoli(), 1);
    let noise = UniformNoise::new(1e-3);
    let engine = mc.engine(&noise);
    const TRIALS: u64 = 16_384;
    group.throughput(Throughput::Elements(TRIALS));
    for width in [WordWidth::W1, WordWidth::W4] {
        group.bench_function(format!("level2_g1e-3_w{width}"), |b| {
            let opts = McOptions::new(TRIALS)
                .seed(1)
                .threads(1)
                .stratified(4, 4)
                .width(width);
            b.iter(|| black_box(engine.estimate(&mc.trial(), &opts).failures));
        });
    }
    group.finish();
}

criterion_group!(benches, fused_vs_raw, stratified_width);
criterion_main!(benches);
