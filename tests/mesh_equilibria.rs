//! Mesh-aware Nash scheduling regressions.
//!
//! The scheduling stack now prices the whole registry mesh (per-source
//! route contention, peer-cache split pulls, N regional mirrors). These
//! tests pin the two contracts that make the generalization safe:
//!
//! 1. **Seed parity** — on the paper's two-registry testbed the mesh-wide
//!    solver must reproduce the seed hub-vs-regional Nash solver *byte for
//!    byte*. The oracle here is an independent reimplementation of the
//!    seed semantics on the retained [`PullPlanner`] pull path (primary
//!    route contention, single-source estimates), property-tested over the
//!    case studies and a population of generated applications.
//! 2. **Mesh advantage** — with a warm fleet, a hub+regional+peer mesh
//!    must reach an equilibrium deployment time strictly below the best
//!    single-registry schedule, and the peer source must be chosen only
//!    when marginally cheaper.

use deep::core::{calibration, DeepScheduler, ExclusiveRegistry, Scheduler};
use deep::dataflow::{self, apps, Application, MicroserviceId};
use deep::game::{support_enumeration, Bimatrix, Matrix};
use deep::netsim::{Bandwidth, DataSize, DeviceId, Seconds};
use deep::registry::{LayerCache, PeerCacheSource, Platform, PullPlanner, Reference, SourceParams};
use deep::simulator::{
    execute, ExecutorConfig, Placement, RegistryChoice, RunReport, Schedule, Testbed,
    DEVICE_MEDIUM, REGISTRY_PEER,
};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// The seed two-registry Nash solver, reimplemented as an oracle on the
// retained seed pull path (PullPlanner): strategy space fixed to
// {Hub, Regional}, contention charged once per pull on the primary route.
// ---------------------------------------------------------------------

struct SeedEstimate {
    td: Seconds,
    tc: Seconds,
    tp: Seconds,
    ec: f64,
}

struct SeedContext<'t> {
    testbed: &'t Testbed,
    app: &'t Application,
    caches: Vec<LayerCache>,
    route_load: HashMap<(RegistryChoice, usize), usize>,
    assigned: Vec<Option<Placement>>,
}

impl<'t> SeedContext<'t> {
    fn new(testbed: &'t Testbed, app: &'t Application) -> Self {
        SeedContext {
            testbed,
            app,
            caches: testbed.devices.iter().map(|d| d.cache.clone()).collect(),
            route_load: HashMap::new(),
            assigned: vec![None; app.len()],
        }
    }

    fn begin_wave(&mut self) {
        self.route_load.clear();
    }

    fn admissible_devices(&self, id: MicroserviceId) -> Vec<DeviceId> {
        let req = &self.app.microservice(id).requirements;
        self.testbed.devices.iter().filter(|d| d.admits(req)).map(|d| d.id).collect()
    }

    fn planner(&self, registry: RegistryChoice, device: DeviceId, slowdown: f64) -> PullPlanner {
        PullPlanner {
            download_bw: self
                .testbed
                .params
                .route_bandwidth(registry, device)
                .scale(1.0 / slowdown),
            extract_bw: self.testbed.device(device).extract_bw,
            overhead: self.testbed.params.overhead(registry),
        }
    }

    fn estimate(
        &self,
        id: MicroserviceId,
        registry: RegistryChoice,
        device: DeviceId,
    ) -> SeedEstimate {
        let ms = self.app.microservice(id);
        let dev = self.testbed.device(device);
        let entry = self.testbed.entry(self.app.name(), &ms.name).expect("image published");
        let reference = self.testbed.reference(entry, registry, dev.arch);
        let load = *self.route_load.get(&(registry, device.0)).unwrap_or(&0);
        let slowdown = self.testbed.params.contention_factor(load);
        let outcome = self
            .planner(registry, device, slowdown)
            .estimate(self.testbed.registry(registry), reference, dev.arch, &self.caches[device.0])
            .expect("catalog images resolve");
        let td = outcome.deployment_time();
        let mut tc = Seconds::ZERO;
        for flow in self.app.incoming(id) {
            let producer = self.assigned[flow.from.0].expect("producer committed").device;
            tc += self.testbed.device_transfer_time(producer, device, flow.size);
        }
        let tp = dev.processing_time(self.app.name(), &ms.name, ms.requirements.cpu);
        let ec = dev.energy(self.app.name(), &ms.name, td, tc, tp).as_f64();
        SeedEstimate { td, tc, tp, ec }
    }

    fn commit(&mut self, id: MicroserviceId, placement: Placement) {
        let ms = self.app.microservice(id);
        let dev = self.testbed.device(placement.device);
        let entry = self.testbed.entry(self.app.name(), &ms.name).expect("image published");
        let reference = self.testbed.reference(entry, placement.registry, dev.arch);
        let outcome = self
            .planner(placement.registry, placement.device, 1.0)
            .pull(
                self.testbed.registry(placement.registry),
                reference,
                dev.arch,
                &mut self.caches[placement.device.0],
            )
            .expect("catalog images resolve");
        if outcome.downloaded >= self.testbed.params.contention_threshold {
            *self.route_load.entry((placement.registry, placement.device.0)).or_insert(0) += 1;
        }
        self.assigned[id.0] = Some(placement);
    }
}

fn seed_stage_game(ctx: &SeedContext<'_>, id: MicroserviceId) -> Placement {
    let registries = [RegistryChoice::Hub, RegistryChoice::Regional];
    let devices = ctx.admissible_devices(id);
    let payoff = Matrix::from_fn(registries.len(), devices.len(), |r, c| {
        -ctx.estimate(id, registries[r], devices[c]).ec
    });
    let game = Bimatrix::common_interest(payoff);
    let (x, y) = support_enumeration(&game)
        .into_iter()
        .max_by(|a, b| {
            let pa = game.expected_payoffs(&a.0, &a.1).0;
            let pb = game.expected_payoffs(&b.0, &b.1).0;
            pa.partial_cmp(&pb).expect("payoffs are not NaN")
        })
        .expect("common-interest games have a pure equilibrium");
    Placement { registry: registries[x.mode()], device: devices[y.mode()] }
}

fn seed_profile_costs(app: &Application, testbed: &Testbed, profile: &[Placement]) -> Vec<f64> {
    let mut ctx = SeedContext::new(testbed, app);
    let mut costs = vec![0.0; app.len()];
    for stage in dataflow::stages(app) {
        ctx.begin_wave();
        for &id in &stage.members {
            let p = profile[id.0];
            costs[id.0] = ctx.estimate(id, p.registry, p.device).ec;
            ctx.commit(id, p);
        }
    }
    costs
}

/// The seed scheduler end to end: sequential stage games + joint
/// best-response refinement over the two-registry strategy space.
fn seed_schedule(app: &Application, testbed: &Testbed) -> Schedule {
    let mut ctx = SeedContext::new(testbed, app);
    let mut profile: Vec<Placement> = {
        let mut placements: Vec<Option<Placement>> = vec![None; app.len()];
        for stage in dataflow::stages(app) {
            ctx.begin_wave();
            for &id in &stage.members {
                let placement = seed_stage_game(&ctx, id);
                ctx.commit(id, placement);
                placements[id.0] = Some(placement);
            }
        }
        placements.into_iter().map(|p| p.expect("all visited")).collect()
    };
    let registries = [RegistryChoice::Hub, RegistryChoice::Regional];
    for _ in 0..32 {
        let mut changed = false;
        for id in app.ids() {
            let devices = SeedContext::new(testbed, app).admissible_devices(id);
            let current = seed_profile_costs(app, testbed, &profile)[id.0];
            let mut best = (current, profile[id.0]);
            for &registry in &registries {
                for &device in &devices {
                    let candidate = Placement { registry, device };
                    if candidate == profile[id.0] {
                        continue;
                    }
                    let mut probe = profile.clone();
                    probe[id.0] = candidate;
                    let cost = seed_profile_costs(app, testbed, &probe)[id.0];
                    if cost < best.0 - 1e-9 {
                        best = (cost, candidate);
                    }
                }
            }
            if best.1 != profile[id.0] {
                profile[id.0] = best.1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Schedule::new(profile)
}

/// Replay a schedule with the seed estimator (old semantics) to predict
/// what the seed executor would have measured.
fn seed_replay(app: &Application, testbed: &Testbed, schedule: &Schedule) -> Vec<SeedEstimate> {
    let mut ctx = SeedContext::new(testbed, app);
    let mut out = Vec::new();
    for stage in dataflow::stages(app) {
        ctx.begin_wave();
        for &id in &stage.members {
            let p = schedule.placement(id);
            out.push(ctx.estimate(id, p.registry, p.device));
            ctx.commit(id, p);
        }
    }
    out
}

fn assert_seed_parity(app: &Application, testbed: &Testbed) {
    let mesh = DeepScheduler::paper().schedule(app, testbed);
    let seed = seed_schedule(app, testbed);
    assert_eq!(
        serde_json::to_string(&mesh).unwrap(),
        serde_json::to_string(&seed).unwrap(),
        "{}: mesh-wide solver diverged from the seed two-registry solver",
        app.name()
    );
    // Executor regression: the new per-source executor realises exactly
    // what the seed semantics predict for a two-registry schedule.
    let mut run_tb = calibration::calibrated_testbed();
    run_tb.publish_application(app);
    let replay = seed_replay(app, &run_tb, &mesh);
    let (report, _) = execute(&mut run_tb, app, &mesh, &ExecutorConfig::default()).unwrap();
    for (est, measured) in replay.iter().zip(&report.microservices) {
        assert_eq!(est.td, measured.td, "{}: td", measured.name);
        assert_eq!(est.tc, measured.tc, "{}: tc", measured.name);
        assert_eq!(est.tp, measured.tp, "{}: tp", measured.name);
        assert_eq!(est.ec, measured.energy.as_f64(), "{}: ec", measured.name);
    }
}

#[test]
fn case_studies_reproduce_seed_schedules_byte_for_byte() {
    let tb = calibration::calibrated_testbed();
    for app in apps::case_studies() {
        assert_seed_parity(&app, &tb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A {Hub, Regional}-only mesh yields byte-identical schedules and
    /// executor measurements to the seed two-registry Nash solver, across
    /// a population of generated applications.
    #[test]
    fn generated_apps_reproduce_seed_schedules_byte_for_byte(seed in 0u64..500) {
        let mut tb = calibration::calibrated_testbed();
        let app = dataflow::DagGenerator::default().generate(seed);
        tb.publish_application(&app);
        assert_seed_parity(&app, &tb);
    }
}

// ---------------------------------------------------------------------
// Three-source meshes: the peer is chosen only when marginally cheaper,
// and pricing it moves the equilibrium.
// ---------------------------------------------------------------------

/// Pull vp-ha-train through hub+regional+peer with the peer route at
/// `peer_bw`, returning the peer's bytes in the breakdown.
fn peer_bytes_at(peer_bw: Bandwidth) -> DataSize {
    let tb = calibration::calibrated_testbed();
    // Fleet peer warmed with the sibling image: holds the shared 5.2 GB.
    let mut peer_cache = LayerCache::new(DataSize::gigabytes(64.0));
    tb.pull_mesh(RegistryChoice::Hub, DEVICE_MEDIUM, 1.0)
        .session(RegistryChoice::Hub.registry_id())
        .pull(
            &Reference::new("docker.io", "sina88/vp-la-train", "amd64"),
            Platform::Amd64,
            &mut peer_cache,
        )
        .unwrap();
    let peer = PeerCacheSource::from_caches("peer-cache", [&peer_cache]);
    let mut mesh = tb.mesh(DEVICE_MEDIUM);
    mesh.add_blob_source(
        REGISTRY_PEER,
        &peer,
        SourceParams { download_bw: peer_bw, overhead: tb.params.peer_overhead },
    );
    let out = mesh
        .session(RegistryChoice::Hub.registry_id())
        .pull(
            &Reference::new("docker.io", "sina88/vp-ha-train", "amd64"),
            Platform::Amd64,
            &mut LayerCache::new(DataSize::gigabytes(64.0)),
        )
        .unwrap();
    out.per_source
        .iter()
        .find(|b| b.source == REGISTRY_PEER)
        .map(|b| b.downloaded)
        .unwrap_or(DataSize::ZERO)
}

#[test]
fn peer_source_is_chosen_only_when_marginally_cheaper() {
    // Slower than every registry route: the peer is advertised but never
    // marginally cheaper, so no layer rides it.
    assert_eq!(peer_bytes_at(Bandwidth::megabytes_per_sec(1.0)), DataSize::ZERO);
    // Exactly the hub rate: the peer's first-use overhead keeps it
    // strictly more expensive (ties break toward the primary anyway).
    assert_eq!(peer_bytes_at(Bandwidth::megabytes_per_sec(13.0)), DataSize::ZERO);
    // Fast fleet LAN: the whole fleet-resident 5.2 GB stack rides the
    // peer; only the unique app layer still comes from a registry.
    assert_eq!(peer_bytes_at(Bandwidth::megabytes_per_sec(80.0)), DataSize::megabytes(5200.0));
}

/// The acceptance scenario shared with `examples/registry_sweep.rs` and
/// the `nash_mesh` bench: a rolling redeploy of the video pipeline onto
/// the cloud tier of a warm fleet (the medium edge device already ran the
/// app). Returns the executed total deployment time.
fn cloud_redeploy_td(scheduler: &dyn Scheduler, peer_sharing: bool) -> (f64, RunReport) {
    let mut tb = deep::core::continuum_testbed();
    let app = apps::video_processing();
    let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
    execute(&mut tb, &app, &warm, &ExecutorConfig::default()).unwrap();
    // The redeploy targets the cloud tier (the edge devices stay busy
    // serving the first instance).
    let pins: Vec<(&str, dataflow::DeviceClass)> = app
        .ids()
        .map(|id| (app.microservice(id).name.as_str(), dataflow::DeviceClass::Cloud))
        .collect();
    let pinned = deep::core::continuum::pin_microservices(&app, &pins);
    let schedule = scheduler.schedule(&pinned, &tb);
    let cfg = ExecutorConfig { peer_sharing, ..Default::default() };
    let (report, _) = execute(&mut tb, &pinned, &schedule, &cfg).unwrap();
    let td: f64 = report.microservices.iter().map(|m| m.td.as_f64()).sum();
    (td, report)
}

#[test]
fn peer_mesh_equilibrium_beats_the_best_single_registry_schedule() {
    let (hub_td, _) = cloud_redeploy_td(&ExclusiveRegistry::hub(), false);
    let (regional_td, _) = cloud_redeploy_td(&ExclusiveRegistry::regional(), false);
    let (mesh_td, report) = cloud_redeploy_td(&DeepScheduler::with_peer_sharing(), true);
    let best_single = hub_td.min(regional_td);
    assert!(
        mesh_td < best_single,
        "mesh equilibrium Td {mesh_td} vs best single-registry {best_single}"
    );
    // "Measurably lower": the fleet-resident layers ride the peer LAN.
    assert!(mesh_td < best_single * 0.95, "{mesh_td} vs {best_single}");
    assert!(
        report.peer_downloaded_mb() > 1_000.0,
        "peer links served the stack: {:?}",
        report.downloaded_by_source()
    );
    // The per-holder breakdown names the warm medium device.
    assert_eq!(report.downloaded_by_peer()[0].0, DEVICE_MEDIUM);
}

#[test]
fn peer_aware_schedule_is_an_equilibrium_of_the_peer_game() {
    // The peer-aware scheduler's output is a pure Nash equilibrium under
    // its own (peer-priced) payoffs on the warm continuum fleet.
    let mut tb = deep::core::continuum_testbed();
    let app = apps::video_processing();
    let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
    execute(&mut tb, &app, &warm, &ExecutorConfig::default()).unwrap();
    let sched = DeepScheduler::with_peer_sharing();
    let schedule = sched.schedule(&app, &tb);
    assert!(sched.is_equilibrium(&app, &tb, &schedule));
}

// ---------------------------------------------------------------------
// N-regional mirrors enter the strategy space end to end.
// ---------------------------------------------------------------------

#[test]
fn mirrors_enter_the_nash_strategy_space_end_to_end() {
    // A fast mirror close to the small device dominates the paper
    // regional registry there: DEEP must route the small device's pulls
    // through it, and the executor must realise those pulls.
    let mut tb = calibration::calibrated_testbed();
    let mirror = tb.add_regional_mirror(Bandwidth::megabytes_per_sec(40.0), Seconds::new(2.0));
    let app = apps::text_processing();
    let schedule = DeepScheduler::paper().schedule(&app, &tb);
    assert!(
        schedule.iter().any(|(_, p)| p.registry == mirror),
        "nothing routed through the mirror: {schedule:?}"
    );
    let (report, _) = execute(&mut tb, &app, &schedule, &ExecutorConfig::default()).unwrap();
    let mirror_mb = report
        .downloaded_by_source()
        .iter()
        .find(|(id, _)| *id == mirror.registry_id())
        .map(|(_, mb)| *mb)
        .unwrap_or(0.0);
    assert!(mirror_mb > 0.0, "mirror served no bytes: {:?}", report.downloaded_by_source());
    // And the result stays an equilibrium of the widened game.
    assert!(DeepScheduler::paper().is_equilibrium(&app, &tb, &schedule));
}
