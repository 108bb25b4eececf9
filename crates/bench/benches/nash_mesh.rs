//! Mesh-aware Nash scheduling: the cost of widening the stage game from
//! the paper's two registries to the whole mesh.
//!
//! Groups:
//! * `nash_mesh_strategy_space` — DEEP over 0–3 regional mirrors (the
//!   |R|×|D| stage games as the strategy space grows);
//! * `nash_mesh_peer` — the peer-aware scheduler on the warm continuum
//!   fleet (payoffs price split pulls) vs the peer-blind paper scheduler;
//! * `nash_mesh_equilibrium_check` — verifying a schedule is a pure Nash
//!   equilibrium of the mesh-wide joint game;
//! * `nash_mesh_fleet` — the fleet axis: the solver on cold
//!   50/200/1,000-device synthetic fleets at 10 registries (the scaling
//!   curve is recorded in PERF.md, "Fleet-scale solver"), plus one warm
//!   800-device, 3-registry fleet in the perfbench `fleet-admit` shape,
//!   where the stage games' energy floors prune most of the grid: the
//!   warm app's re-admission, the admission of a dataflow no peer has
//!   deployed, the incremental repair of that admission, and the same
//!   admission once several more devices hold other dataflows' layers
//!   (peers in view, but every layer the admission needs registry-only).
//!
//! The equilibrium-quality numbers this bench's scenarios produce (split
//! vs best-single deployment time) are printed by
//! `examples/registry_sweep.rs` and recorded in PERF.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deep_arrival::DEFAULT_DEVIATION_BUDGET;
use deep_core::{
    calibration, continuum_testbed, synthetic_fleet_testbed, DeepScheduler, Scheduler,
};
use deep_dataflow::apps;
use deep_netsim::{Bandwidth, DeviceId, Seconds};
use deep_registry::FaultRates;
use deep_simulator::{
    execute, ExecutorConfig, PeerDiscovery, RegistryChoice, Schedule, Testbed, DEVICE_MEDIUM,
};
use std::hint::black_box;

fn mirrored_testbed(mirrors: usize) -> Testbed {
    let mut tb = calibration::calibrated_testbed();
    for k in 0..mirrors {
        tb.add_regional_mirror(Bandwidth::megabytes_per_sec(10.0 + k as f64), Seconds::new(5.0));
    }
    tb
}

fn bench_strategy_space(c: &mut Criterion) {
    let text = apps::text_processing();
    let mut group = c.benchmark_group("nash_mesh_strategy_space");
    group.sample_size(10);
    for mirrors in [0usize, 1, 2, 3] {
        let tb = mirrored_testbed(mirrors);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}r", 2 + mirrors)),
            &text,
            |b, app| b.iter(|| black_box(DeepScheduler::paper().schedule(app, &tb))),
        );
    }
    group.finish();
}

fn bench_peer_pricing(c: &mut Criterion) {
    // Warm continuum fleet: the medium device already ran the app; the
    // scheduler prices what the fleet holds.
    let app = apps::video_processing();
    let mut tb = continuum_testbed();
    let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
    execute(&mut tb, &app, &warm, &ExecutorConfig::default()).expect("warm-up run");
    let mut group = c.benchmark_group("nash_mesh_peer");
    group.sample_size(10);
    group.bench_function("peer_blind", |b| {
        b.iter(|| black_box(DeepScheduler::paper().schedule(&app, &tb)))
    });
    group.bench_function("peer_priced", |b| {
        b.iter(|| black_box(DeepScheduler::with_peer_sharing().schedule(&app, &tb)))
    });
    group.finish();
}

fn bench_equilibrium_check(c: &mut Criterion) {
    let tb = mirrored_testbed(2);
    let app = apps::text_processing();
    let schedule = DeepScheduler::paper().schedule(&app, &tb);
    c.bench_function("nash_mesh_equilibrium_check", |b| {
        b.iter(|| black_box(DeepScheduler::paper().is_equilibrium(&app, &tb, &schedule)))
    });
}

fn bench_fleet(c: &mut Criterion) {
    let app =
        deep_dataflow::DagGenerator { stages: 5, width: (2, 4), ..Default::default() }.generate(42);
    let mut group = c.benchmark_group("nash_mesh_fleet");
    group.sample_size(10);
    for devices in [50usize, 200, 1000] {
        let mut tb = synthetic_fleet_testbed(devices, 10, 42);
        tb.publish_application(&app);
        group.bench_with_input(
            BenchmarkId::new("sparse", format!("{devices}d_10r")),
            &app,
            |b, app| b.iter(|| black_box(DeepScheduler::paper().schedule(app, &tb))),
        );
    }
    // The fleet-admit shape: a flaky regional, one warm holder of every
    // layer, peer sharing over gossip views and 64-draw scenario pricing.
    let mut tb = synthetic_fleet_testbed(800, 3, 42);
    tb.publish_application(&app);
    tb.fault_model = tb.fault_model.clone().with_source(
        RegistryChoice::Regional.registry_id(),
        FaultRates { fatal_per_pull: 0.2, transient_per_fetch: 0.1 },
    );
    let discovery = PeerDiscovery::Gossip { fanout: 3, view_size: 8, rounds_per_wave: 1 };
    let cfg = ExecutorConfig {
        seed: 42,
        peer_sharing: true,
        peer_discovery: discovery,
        ..ExecutorConfig::default()
    };
    let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
    execute(&mut tb, &app, &warm, &cfg).expect("warm-up run");
    let sched = DeepScheduler {
        peer_sharing: true,
        peer_discovery: discovery,
        discovery_seed: 42,
        ..DeepScheduler::scenario_priced(64, 42)
    };
    group.bench_with_input(BenchmarkId::new("admit", "800d_3r_warm"), &app, |b, app| {
        b.iter(|| black_box(sched.schedule(app, &tb)))
    });
    // A dataflow no peer has deployed, admitted into the same fleet: the
    // fleet-admit shape, where most wave-game cells are sole-source
    // registry pulls. Then the incremental repair of its solved schedule.
    let fresh =
        deep_dataflow::DagGenerator { stages: 2, width: (2, 2), ..Default::default() }.generate(43);
    tb.publish_application(&fresh);
    group.bench_with_input(BenchmarkId::new("admit", "800d_3r_fresh"), &fresh, |b, app| {
        b.iter(|| black_box(sched.schedule(app, &tb)))
    });
    let solved = sched.schedule(&fresh, &tb);
    group.bench_with_input(
        BenchmarkId::new("incremental_repair", "800d_3r_fresh"),
        &fresh,
        |b, app| {
            b.iter(|| {
                black_box(sched.incremental_repair(app, &tb, &solved, DEFAULT_DEVIATION_BUDGET))
            })
        },
    );
    // Three more holders spread over the fleet, each running a dataflow
    // of its own: gossip advertises them across the fleet, yet none
    // holds a layer of `fresh`, so the registry-only floors prune the
    // grid.
    let mut spread = tb.replica();
    for (k, device) in [100usize, 300, 500].into_iter().enumerate() {
        let other = deep_dataflow::DagGenerator { stages: 2, width: (2, 2), ..Default::default() }
            .generate(44 + k as u64);
        spread.publish_application(&other);
        let placed = Schedule::uniform(other.len(), RegistryChoice::Hub, DeviceId(device));
        execute(&mut spread, &other, &placed, &cfg).expect("holder run");
    }
    group.bench_with_input(BenchmarkId::new("admit", "800d_3r_unrelated"), &fresh, |b, app| {
        b.iter(|| black_box(sched.schedule(app, &spread)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_strategy_space,
    bench_peer_pricing,
    bench_equilibrium_check,
    bench_fleet
);
criterion_main!(benches);
