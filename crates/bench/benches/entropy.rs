//! §4 entropy benchmarks: reset-entropy measurement and the exhaustive
//! NAND-optimality search.
//!
//! `reset_entropy_l2` / `reset_entropy_oracle_l2` are a like-for-like
//! pair — the `entropy` experiment's level-2 3-cycle Toffoli program at
//! g = 1e-3, the same trials, single-threaded — on the word loop with the
//! reset tap and on the scalar oracle. CI gates their ratio within one
//! run (`--pair entropy:reset_entropy_l2:reset_entropy_oracle_l2:0.1`),
//! so no machine normalization is needed.

use criterion::{criterion_group, criterion_main, Criterion};
use rft_analysis::entropy_meas::{oracle, reset_entropy};
use rft_analysis::prelude::*;
use rft_core::entropy::optimal_nand_dissipation;
use rft_core::prelude::*;
use rft_obs::Collector;
use rft_revsim::prelude::*;
use std::hint::black_box;

fn entropy_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("entropy");
    group.sample_size(10);
    group.bench_function("nand_exhaustive_search", |b| {
        b.iter(|| black_box(optimal_nand_dissipation().0));
    });
    let gate = Gate::Toffoli {
        controls: [w(0), w(1)],
        target: w(2),
    };
    let mut builder = FtBuilder::new(1, 3);
    builder.apply(&gate).apply(&gate);
    let program = builder.finish();
    let input = program.encode(&BitState::zeros(3));
    let noise = UniformNoise::new(1e-2);
    group.bench_function("reset_entropy_1k_trials", |b| {
        b.iter(|| {
            black_box(
                measure_reset_entropy(program.circuit(), &input, &noise, 1000, 7).bits_per_run,
            )
        });
    });
    let mut l2 = FtBuilder::new(2, 3);
    l2.apply(&gate).apply(&gate).apply(&gate);
    let l2 = l2.finish();
    let l2_input = l2.encode(&BitState::zeros(3));
    let l2_noise = UniformNoise::new(1e-3);
    let l2_engine = Engine::compile(l2.circuit(), &l2_noise);
    let l2_trials = 2048;
    let l2_opts = McOptions::new(l2_trials).seed(7);
    group.bench_function("reset_entropy_l2", |b| {
        b.iter(|| {
            black_box(
                reset_entropy(&l2_engine, &l2_input, &l2_opts, &Collector::disabled()).bits_per_run,
            )
        });
    });
    group.bench_function("reset_entropy_oracle_l2", |b| {
        b.iter(|| {
            black_box(
                EntropyMeasurement::from_sites(
                    l2_trials,
                    &oracle::tally_resets(l2.circuit(), &l2_input, &l2_noise, l2_trials, 7),
                )
                .bits_per_run,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, entropy_benches);
criterion_main!(benches);
