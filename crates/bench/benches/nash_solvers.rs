//! Nash-equilibrium solver performance: support enumeration across game
//! sizes, plus the classic validation games.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deep_game::{classic, support_enumeration, Bimatrix, Matrix};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn random_bimatrix(rows: usize, cols: usize, seed: u64) -> Bimatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(0.0..10.0));
    let b = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(0.0..10.0));
    Bimatrix::new(a, b)
}

fn bench_support_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("support_enumeration");
    for n in [2usize, 3, 4, 5] {
        let game = random_bimatrix(n, n, 42 + n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &game, |b, g| {
            b.iter(|| black_box(support_enumeration(g)))
        });
    }
    group.finish();
}

fn bench_deployment_shaped_game(c: &mut Criterion) {
    // The 2×2 (registry × device) game DEEP solves per microservice.
    let game = random_bimatrix(2, 2, 99);
    c.bench_function("deep_stage_game_2x2", |b| b.iter(|| black_box(support_enumeration(&game))));
    let pd = classic::prisoners_dilemma();
    c.bench_function("prisoners_dilemma", |b| b.iter(|| black_box(support_enumeration(&pd))));
}

criterion_group!(benches, bench_support_enumeration, bench_deployment_shaped_game);
criterion_main!(benches);
