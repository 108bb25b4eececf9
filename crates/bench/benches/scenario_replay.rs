//! Scenario DSL and soak-harness costs: parsing a chaos scenario,
//! canonical serialization, sweep expansion, scenario-priced scheduling
//! (Monte-Carlo `E[Td]` over the replication seed stream), a full
//! seeded soak replay through the executor, and one 60-replication
//! fault-sweep cell.
//!
//! The checked-in scenario files under `scenarios/` are the fixtures —
//! the same documents the sweep examples and `scripts/tier1.sh` drive,
//! so these benches track the cost of the production path, not a toy.

use criterion::{criterion_group, criterion_main, Criterion};
use deep_core::{run_scenario, scenario_scheduler, scenario_testbed, DeepScheduler, Scheduler};
use deep_scenario::Scenario;
use std::hint::black_box;

const STICKY: &str = include_str!("../../../scenarios/soak_sticky_outage.toml");
const SMOKE: &str = include_str!("../../../scenarios/soak_smoke.toml");
const FAULT_SWEEP: &str = include_str!("../../../scenarios/fault_sweep.toml");

fn bench_dsl(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_dsl");
    group.bench_function("parse_sticky_soak", |b| {
        b.iter(|| black_box(Scenario::parse(STICKY).expect("fixture parses")))
    });
    group.bench_function("to_toml_sticky_soak", |b| {
        let scenario = Scenario::parse(STICKY).expect("fixture parses");
        b.iter(|| black_box(scenario.to_toml()))
    });
    group.bench_function("expand_fault_sweep_grid", |b| {
        let scenario = Scenario::parse(FAULT_SWEEP).expect("fixture parses");
        b.iter(|| black_box(scenario.expand()))
    });
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_replay");
    group.sample_size(10);
    // The tentpole pricing path: payoffs Monte-Carlo'd over the
    // scenario's 40-seed replication stream, windows clock-gated.
    let sticky = Scenario::parse(STICKY).expect("fixture parses");
    let app = sticky.application();
    let tb = scenario_testbed(&sticky);
    group.bench_function("schedule_scenario_priced", |b| {
        b.iter(|| black_box(scenario_scheduler(&sticky).schedule(&app, &tb)))
    });
    group.bench_function("schedule_fault_aware", |b| {
        b.iter(|| black_box(DeepScheduler::fault_aware().schedule(&app, &tb)))
    });
    // Full harness: schedule + seeded replications + chaos timeline.
    let smoke = Scenario::parse(SMOKE).expect("fixture parses");
    group.bench_function("soak_smoke_replay", |b| {
        b.iter(|| black_box(run_scenario(&smoke, &DeepScheduler::fault_aware())))
    });
    // One fault-sweep grid cell: a cheap rate-only schedule, then the
    // cell's 60 seeded replications (replica + execute), the path that
    // dominates a paper-grid round.
    let cell = Scenario::parse(FAULT_SWEEP)
        .expect("fixture parses")
        .expand()
        .into_iter()
        .find(|s| s.name == "fault-sweep/mirror-count=1/fault-rate=0.2")
        .expect("the grid has the cell");
    group.bench_function("fault_sweep_cell", |b| {
        b.iter(|| black_box(run_scenario(&cell, &DeepScheduler::fault_aware())))
    });
    group.finish();
}

criterion_group!(benches, bench_dsl, bench_replay);
criterion_main!(benches);
