//! Arrival-plane re-equilibration costs: what one admission pays under
//! each repair policy, and what a full soak over the checked-in arrival
//! scenario costs end to end.
//!
//! The per-admission pair compares repairing the incumbent equilibrium
//! (`incremental_repair`) with the scenario-priced full re-solve. The
//! repair walks the incumbent once: each member prices its incumbent
//! cell and only the cells whose energy floor could beat it, and plays
//! its full stage game only if one does. The incumbent here is the
//! solve's own equilibrium, so the repair moves nothing.

use criterion::{criterion_group, criterion_main, Criterion};
use deep_arrival::{run_plane, ArrivalPlane, RepairPolicy, DEFAULT_DEVIATION_BUDGET};
use deep_core::{scenario_scheduler, scenario_testbed, Scheduler};
use deep_scenario::Scenario;
use std::hint::black_box;

const ARRIVAL_SOAK: &str = include_str!("../../../scenarios/arrival_soak.toml");

fn bench_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("arrival_admission");
    group.sample_size(10);
    let scenario = Scenario::parse(ARRIVAL_SOAK).expect("fixture parses");
    let app = scenario.application();
    let tb = scenario_testbed(&scenario);
    let scheduler = scenario_scheduler(&scenario);
    let incumbent = scheduler.schedule(&app, &tb);
    // One admission, full policy: re-solve the whole game from scratch.
    group.bench_function("full_resolve", |b| b.iter(|| black_box(scheduler.schedule(&app, &tb))));
    // One admission, repair policy: keep-or-move walk of the incumbent.
    group.bench_function("incremental_repair", |b| {
        b.iter(|| {
            black_box(scheduler.incremental_repair(&app, &tb, &incumbent, DEFAULT_DEVIATION_BUDGET))
        })
    });
    group.finish();
}

fn bench_soak(c: &mut Criterion) {
    let mut group = c.benchmark_group("arrival_soak");
    group.sample_size(10);
    let scenario = Scenario::parse(ARRIVAL_SOAK).expect("fixture parses");
    let cell = scenario.expand().into_iter().next().expect("grid is non-empty");
    // The whole plane: seeded arrivals, admissions at wave barriers,
    // queue dynamics, chaos timeline — per policy.
    group.bench_function("plane_incremental_repair", |b| {
        b.iter(|| black_box(run_plane(&cell, &ArrivalPlane::default())))
    });
    group.bench_function("plane_full_resolve", |b| {
        b.iter(|| {
            black_box(run_plane(
                &cell,
                &ArrivalPlane { policy: RepairPolicy::Full, ..ArrivalPlane::default() },
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_admission, bench_soak);
criterion_main!(benches);
