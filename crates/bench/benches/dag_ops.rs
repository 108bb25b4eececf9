//! DAG substrate performance: generation, validation and stage
//! decomposition on generated applications.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deep_dataflow::{stages, DagGenerator};
use std::hint::black_box;

fn generators() -> Vec<(usize, DagGenerator)> {
    vec![
        (10, DagGenerator { stages: 4, width: (2, 3), ..DagGenerator::default() }),
        (60, DagGenerator { stages: 20, width: (2, 4), ..DagGenerator::default() }),
        (400, DagGenerator { stages: 100, width: (3, 5), ..DagGenerator::default() }),
    ]
}

fn bench_generation_and_validation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_generate_validate");
    for (label, gen) in generators() {
        group.bench_with_input(BenchmarkId::from_parameter(label), &gen, |b, gen| {
            b.iter(|| black_box(gen.generate(5)))
        });
    }
    group.finish();
}

fn bench_stage_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_stages");
    for (label, gen) in generators() {
        let app = gen.generate(5);
        group.bench_with_input(BenchmarkId::from_parameter(label), &app, |b, app| {
            b.iter(|| black_box(stages(app)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generation_and_validation, bench_stage_decomposition);
criterion_main!(benches);
