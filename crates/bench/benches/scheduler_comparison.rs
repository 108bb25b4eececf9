//! Scheduler performance and the decoupled ablation (ablation 1 of
//! `deep_core::ablation`): DEEP vs the baselines on the case studies, and DEEP's cost on
//! growing generated applications.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deep_core::{
    calibration, DeepScheduler, ExclusiveRegistry, GreedyDecoupled, RoundRobin, Scheduler,
};
use deep_dataflow::{apps, DagGenerator};
use std::hint::black_box;

fn bench_case_studies(c: &mut Criterion) {
    let tb = calibration::calibrated_testbed();
    let video = apps::video_processing();
    let text = apps::text_processing();
    let mut group = c.benchmark_group("schedule_case_studies");
    for (name, app) in [("video", &video), ("text", &text)] {
        group.bench_with_input(BenchmarkId::new("deep", name), app, |b, app| {
            b.iter(|| black_box(DeepScheduler::paper().schedule(app, &tb)))
        });
        group.bench_with_input(BenchmarkId::new("exclusive_hub", name), app, |b, app| {
            b.iter(|| black_box(ExclusiveRegistry::hub().schedule(app, &tb)))
        });
        group.bench_with_input(BenchmarkId::new("greedy_decoupled", name), app, |b, app| {
            b.iter(|| black_box(GreedyDecoupled.schedule(app, &tb)))
        });
        group.bench_with_input(BenchmarkId::new("round_robin", name), app, |b, app| {
            b.iter(|| black_box(RoundRobin.schedule(app, &tb)))
        });
    }
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    // DEEP's cost as applications grow (generated layered DAGs).
    let mut group = c.benchmark_group("deep_scaling");
    group.sample_size(10);
    for stages in [4usize, 8, 12] {
        let gen = DagGenerator { stages, width: (2, 3), ..DagGenerator::default() };
        let app = gen.generate(13);
        let mut tb = calibration::calibrated_testbed();
        tb.publish_application(&app);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}ms", app.len())),
            &app,
            |b, app| b.iter(|| black_box(DeepScheduler::paper().schedule(app, &tb))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_case_studies, bench_scaling);
criterion_main!(benches);
