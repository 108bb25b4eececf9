//! Fleet-scale soak costs: what the scenario-priced solve and a full
//! executor replay pay at 200- and 800-device scale with gossip
//! discovery on — the two paths that delta gossip (only advertisements
//! newer than a partner's copy are exchanged) and memoized per-pull
//! fatal draws keep cheap.
//!
//! * `fleet_solve/*` — one scenario-priced schedule (Monte-Carlo
//!   `E[Td]` over a 64-draw seed stream) on a seeded synthetic fleet
//!   with a flaky regional, peer sharing, and gossip discovery. The
//!   per-(pull, primary) fatal-pattern memo collapses the per-candidate
//!   draw loops of a stage game's row sweep into one sample per commit
//!   point.
//! * `fleet_replay/*` — one executor run of the solved schedule over
//!   the same fleet (gossip barriers at every wave), the soak harness's
//!   per-replication unit of work.
//! * `replica/*` — `Testbed::replica` alone, of the calibrated paper
//!   testbed and of the 800-device fleet: devices and caches are
//!   copied, registry state and catalog entries are shared
//!   copy-on-write.

use criterion::{criterion_group, criterion_main, Criterion};
use deep_core::{continuum, DeepScheduler, Scheduler};
use deep_dataflow::DagGenerator;
use deep_registry::FaultRates;
use deep_simulator::{execute, ExecutorConfig, PeerDiscovery, RegistryChoice, Testbed};
use std::hint::black_box;

const DRAWS: u32 = 64;
const DISCOVERY: PeerDiscovery =
    PeerDiscovery::Gossip { fanout: 3, view_size: 8, rounds_per_wave: 1 };

fn fleet(devices: usize) -> (Testbed, deep_dataflow::Application) {
    let gen = DagGenerator { stages: 4, width: (2, 3), ..DagGenerator::default() };
    let app = gen.generate(42);
    let mut tb = continuum::synthetic_fleet_testbed(devices, 3, 42);
    tb.publish_application(&app);
    // A flaky regional puts every estimate on the failover-mix path the
    // fatal-pattern memo serves.
    tb.fault_model = tb.fault_model.clone().with_source(
        RegistryChoice::Regional.registry_id(),
        FaultRates { fatal_per_pull: 0.2, transient_per_fetch: 0.1 },
    );
    (tb, app)
}

fn scheduler() -> DeepScheduler {
    DeepScheduler {
        peer_sharing: true,
        peer_discovery: DISCOVERY,
        ..DeepScheduler::scenario_priced(DRAWS, 7)
    }
}

fn bench_fleet_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_solve");
    group.sample_size(10);
    for &devices in &[200usize, 800] {
        let (tb, app) = fleet(devices);
        let sched = scheduler();
        group.bench_function(format!("devices_{devices}").as_str(), |b| {
            b.iter(|| black_box(sched.schedule(&app, &tb)))
        });
    }
    group.finish();
}

fn bench_fleet_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_replay");
    group.sample_size(10);
    for &devices in &[200usize, 800] {
        let (tb, app) = fleet(devices);
        let schedule = scheduler().schedule(&app, &tb);
        let cfg =
            ExecutorConfig { peer_sharing: true, peer_discovery: DISCOVERY, ..Default::default() };
        group.bench_function(format!("devices_{devices}").as_str(), |b| {
            b.iter(|| {
                let mut run_tb = tb.replica();
                let (report, _) = execute(&mut run_tb, &app, &schedule, &cfg).unwrap();
                black_box(report.microservices.len())
            })
        });
    }
    group.finish();
}

fn bench_replica(c: &mut Criterion) {
    let mut group = c.benchmark_group("replica");
    let paper = deep_core::calibration::calibrated_testbed();
    group.bench_function("paper", |b| b.iter(|| black_box(paper.replica())));
    let (fleet, _) = fleet(800);
    group.bench_function("fleet_800", |b| b.iter(|| black_box(fleet.replica())));
    group.finish();
}

criterion_group!(benches, bench_fleet_solve, bench_fleet_replay, bench_replica);
criterion_main!(benches);
