//! Per-pair peer-plane regressions.
//!
//! The contracts that make the per-pair peer plane safe and worth
//! having:
//!
//! 1. **Scalar parity** — the default uniform plane (every pair at
//!    `peer_bw`, every holder at `peer_overhead`) reproduces the scalar
//!    aggregate plane *byte for byte*: serialized schedules are
//!    identical, and serialized RunReports are identical once the
//!    per-holder buckets are folded under the aggregate id
//!    ([`RunReport::with_aggregated_peer_sources`] — holder ids are
//!    labels; every measured quantity must match bitwise). Checked over
//!    the case studies and a proptest population of generated
//!    applications, with fault-aware pricing riding along.
//! 2. **Estimator/executor bit-for-bit** — on a *hot* (non-uniform)
//!    plane with a throttled holder uplink and upload contention, the
//!    estimation context still predicts exactly what the executor
//!    measures.
//! 3. **Saturation** — a single warm holder's uplink divides across the
//!    same-wave pulls it serves, and once hot enough the marginal-cost
//!    selection spills bytes onto the regional registry mid-wave.
//! 4. **The equilibrium moves** — pricing the hot uplink shifts the
//!    peer-aware Nash schedule off the saturated holder, and the shift
//!    pays off in realized deployment time against an aggregate-blind
//!    schedule executed under the same physics (headline in PERF.md).
//! 5. **Per-holder churn** — an injected fatal death kills one holder,
//!    not the whole peer plane: the pull fails over to the surviving
//!    holder before it ever touches a registry.

use deep::core::{DeepScheduler, EstimationContext, Scheduler};
use deep::dataflow::{self, apps, Application, MicroserviceId};
use deep::netsim::Bandwidth;
use deep::registry::{FaultModel, FaultRates, Platform};
use deep::simulator::{
    execute, peer_holder, peer_source_id, ExecutorConfig, PeerPlane, Placement, RegistryChoice,
    RunReport, Schedule, Testbed, DEVICE_CLOUD, DEVICE_MEDIUM, DEVICE_SMALL,
};
use proptest::prelude::*;

/// A calibrated continuum testbed (the peer plane needs same-arch
/// devices: medium and cloud are both amd64).
fn continuum() -> Testbed {
    deep::core::continuum_testbed()
}

/// The devices that served peer bytes in `report`, in device order.
fn peer_holders(report: &RunReport) -> Vec<deep::netsim::DeviceId> {
    report.downloaded_by_source().iter().filter_map(|(id, _)| peer_holder(*id)).collect()
}

/// The id of the microservice of `app` called `name`.
fn named(app: &Application, name: &str) -> MicroserviceId {
    app.ids().find(|&id| app.microservice(id).name == name).unwrap()
}

/// Warm `holder`'s cache with every image of `app` for both platforms —
/// a fleet cache able to serve amd64 and arm64 pullers alike.
fn warm_holder_both_arches(tb: &mut Testbed, app: &Application, holder: deep::netsim::DeviceId) {
    let mut cache = tb.device(holder).cache.clone();
    for id in app.ids() {
        let ms = app.microservice(id);
        let entry = tb.entry(app.name(), &ms.name).unwrap().clone();
        for platform in [Platform::Amd64, Platform::Arm64] {
            let reference = entry.hub_reference(platform);
            tb.pull_mesh(RegistryChoice::Hub, holder, 1.0)
                .session(RegistryChoice::Hub.registry_id())
                .pull(&reference, platform, &mut cache)
                .unwrap();
        }
    }
    tb.device_mut(holder).cache = cache;
}

// ---------------------------------------------------------------------
// 1. Scalar parity: uniform per-pair plane ≡ aggregate oracle.
// ---------------------------------------------------------------------

/// Schedule with the peer-aware (and optionally fault-aware) scheduler
/// on a warm continuum fleet, then execute the redeploy onto the cloud
/// tier — once per plane representation — and compare byte for byte.
fn assert_scalar_parity(app: &Application, fault_aware: bool) {
    let run = |aggregate: bool| -> (Schedule, RunReport) {
        let mut tb = continuum();
        tb.publish_application(app);
        if aggregate {
            tb.peer_plane = PeerPlane::Aggregate;
        }
        if fault_aware {
            tb.fault_model = FaultModel::default().with_source(
                RegistryChoice::Regional.registry_id(),
                FaultRates { fatal_per_pull: 0.2, transient_per_fetch: 0.1 },
            );
        }
        // Warm the fleet: the medium edge device runs the app first.
        let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        execute(&mut tb, app, &warm, &ExecutorConfig::default()).unwrap();
        let scheduler = DeepScheduler {
            peer_sharing: true,
            price_faults: fault_aware,
            ..DeepScheduler::default()
        };
        let schedule = scheduler.schedule(app, &tb);
        let cfg = ExecutorConfig { peer_sharing: true, ..Default::default() };
        let (report, _) = execute(&mut tb, app, &schedule, &cfg).unwrap();
        (schedule, report)
    };
    let (schedule_pp, report_pp) = run(false);
    let (schedule_ag, report_ag) = run(true);
    assert_eq!(
        serde_json::to_string(&schedule_pp).unwrap(),
        serde_json::to_string(&schedule_ag).unwrap(),
        "{}: uniform per-pair plane changed the schedule",
        app.name()
    );
    assert_eq!(
        serde_json::to_string(&report_pp.with_aggregated_peer_sources()).unwrap(),
        serde_json::to_string(&report_ag).unwrap(),
        "{}: uniform per-pair plane changed the RunReport",
        app.name()
    );
}

#[test]
fn case_studies_scalar_parity() {
    for app in apps::case_studies() {
        assert_scalar_parity(&app, false);
        assert_scalar_parity(&app, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated applications reproduce the scalar stack byte for byte
    /// under the uniform per-pair plane. (The vendored proptest seeds
    /// each case deterministically from the test name, so this sweep is
    /// fixed-seed in CI.)
    #[test]
    fn generated_apps_scalar_parity(seed in 0u64..500) {
        let app = dataflow::DagGenerator::default().generate(seed);
        assert_scalar_parity(&app, false);
    }
}

// ---------------------------------------------------------------------
// 2. Estimator/executor bit-for-bit on a hot plane.
// ---------------------------------------------------------------------

#[test]
fn estimator_matches_executor_on_a_hot_peer_plane() {
    // Throttled cloud uplink + upload contention: the estimation
    // context must still predict the executor's measurements exactly.
    let app = apps::video_processing();
    let mut tb = continuum();
    warm_holder_both_arches(&mut tb, &app, DEVICE_CLOUD);
    tb.set_peer_uplink(DEVICE_CLOUD, Bandwidth::megabytes_per_sec(20.0));
    // A mixed schedule whose training wave pulls onto both edge devices
    // through the same hot holder.
    let mut placements =
        vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM }; app.len()];
    placements[named(&app, "transcode").0] =
        Placement { registry: RegistryChoice::Regional, device: DEVICE_SMALL };
    placements[named(&app, "la-train").0] =
        Placement { registry: RegistryChoice::Regional, device: DEVICE_SMALL };
    let schedule = Schedule::new(placements);
    let mut predictions = Vec::new();
    {
        let mut ctx = EstimationContext::new(&tb, &app).peer_sharing(true);
        for stage in dataflow::stages(&app) {
            ctx.begin_wave();
            for &id in &stage.members {
                let p = schedule.placement(id);
                predictions.push(ctx.estimate(id, p.registry, p.device));
                ctx.commit(id, p);
            }
        }
    }
    let cfg = ExecutorConfig { peer_sharing: true, ..Default::default() };
    let (report, _) = execute(&mut tb, &app, &schedule, &cfg).unwrap();
    assert!(report.peer_downloaded_mb() > 1_000.0, "the hot holder still served bytes");
    for (est, measured) in predictions.iter().zip(&report.microservices) {
        assert_eq!(est.td, measured.td, "{}: td", measured.name);
        assert_eq!(est.ec, measured.energy, "{}: ec", measured.name);
    }
}

// ---------------------------------------------------------------------
// 3. Saturation: the uplink divides, then spills onto the regional.
// ---------------------------------------------------------------------

#[test]
fn hot_uplink_divides_and_spills_onto_the_regional() {
    // The cloud holder serves the training wave onto both edge devices
    // through a throttled uplink under strong contention: the first
    // pull (ha-train on medium) rides the peer, loading the uplink; the
    // second (la-train on small) finds the loaded uplink more expensive
    // than its regional primary and spills its bytes there mid-wave.
    let app = apps::video_processing();
    let run = |uplink_mb: f64, alpha: f64| -> RunReport {
        let mut tb = continuum();
        tb.params.contention_alpha = alpha;
        warm_holder_both_arches(&mut tb, &app, DEVICE_CLOUD);
        tb.set_peer_uplink(DEVICE_CLOUD, Bandwidth::megabytes_per_sec(uplink_mb));
        let mut placements =
            vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM }; app.len()];
        placements[named(&app, "la-train").0] =
            Placement { registry: RegistryChoice::Regional, device: DEVICE_SMALL };
        let cfg = ExecutorConfig { peer_sharing: true, ..Default::default() };
        execute(&mut tb, &app, &Schedule::new(placements), &cfg).unwrap().0
    };
    // Cool plane (uniform 80 MB/s): both trainers ride the peer.
    let cool = run(80.0, 0.1);
    let peer_cloud = peer_source_id(DEVICE_CLOUD);
    assert!(cool.metrics("ha-train").unwrap().sources.iter().all(|s| s.source == peer_cloud));
    assert!(cool.metrics("la-train").unwrap().sources.iter().all(|s| s.source == peer_cloud));
    // Hot plane: 16 MB/s uplink, full division (alpha = 1). ha-train
    // still prefers the unloaded peer to its hub primary (16 vs
    // 13 MB/s); la-train sees the uplink divided two ways — 8 MB/s —
    // and keeps its regional primary (9.5 MB/s to the small device).
    let hot = run(16.0, 1.0);
    assert!(
        hot.metrics("ha-train").unwrap().sources.iter().all(|s| s.source == peer_cloud),
        "first pull still rides the (unloaded) uplink: {:?}",
        hot.metrics("ha-train").unwrap().sources
    );
    let la = hot.metrics("la-train").unwrap();
    assert!(
        la.sources.iter().all(|s| s.source == RegistryChoice::Regional.registry_id()),
        "the loaded uplink spills la-train onto its regional primary: {:?}",
        la.sources
    );
}

// ---------------------------------------------------------------------
// 4. The headline: pricing the hot uplink moves the equilibrium.
// ---------------------------------------------------------------------

#[test]
fn pricing_the_hot_uplink_moves_the_equilibrium() {
    // A hot fleet cache: the cloud holder's uplink is throttled to
    // 7 MB/s — below every registry route. The aggregate-blind
    // scheduler still believes the scalar 80 MB/s plane and plans
    // around free peer bytes; the per-pair-aware scheduler prices the
    // real uplink. Both schedules are executed under the same hot
    // physics. The app is pinned to the edge tier so the game plays
    // over the cold devices (a pull *onto* the warm holder is free and
    // would mask the plane entirely).
    let base = apps::video_processing();
    let pins: Vec<(&str, dataflow::DeviceClass)> = base
        .ids()
        .map(|id| (base.microservice(id).name.as_str(), dataflow::DeviceClass::Edge))
        .collect();
    let app = deep::core::continuum::pin_microservices(&base, &pins);
    let hot_testbed = || {
        let mut tb = continuum();
        warm_holder_both_arches(&mut tb, &app, DEVICE_CLOUD);
        tb.set_peer_uplink(DEVICE_CLOUD, Bandwidth::megabytes_per_sec(7.0));
        tb
    };
    let aware_schedule = DeepScheduler::with_peer_sharing().schedule(&app, &hot_testbed());
    let blind_schedule = {
        let mut tb = hot_testbed();
        tb.peer_plane = PeerPlane::Aggregate;
        DeepScheduler::with_peer_sharing().schedule(&app, &tb)
    };
    assert_ne!(aware_schedule, blind_schedule, "pricing the hot uplink must move the equilibrium");
    let realize = |schedule: &Schedule| -> (f64, RunReport) {
        let mut tb = hot_testbed();
        let cfg = ExecutorConfig { peer_sharing: true, ..Default::default() };
        let (report, _) = execute(&mut tb, &app, schedule, &cfg).unwrap();
        (report.microservices.iter().map(|m| m.td.as_f64()).sum(), report)
    };
    let (aware_td, _) = realize(&aware_schedule);
    let (blind_td, _) = realize(&blind_schedule);
    println!(
        "hot-peer headline: aggregate-blind Td {blind_td:.1} s, uplink-aware Td {aware_td:.1} s \
         ({:+.1} %)",
        (aware_td / blind_td - 1.0) * 100.0
    );
    assert!(
        aware_td < blind_td,
        "uplink-aware equilibrium must beat the blind one: {aware_td} vs {blind_td}"
    );
    // And the aware schedule is an equilibrium of its own (hot) game.
    let sched = DeepScheduler::with_peer_sharing();
    assert!(sched.is_equilibrium(&app, &hot_testbed(), &aware_schedule));
}

// ---------------------------------------------------------------------
// 5. Per-holder churn: one holder dies, the plane survives.
// ---------------------------------------------------------------------

#[test]
fn peer_churn_kills_one_holder_not_the_plane() {
    // Two warm holders (medium naturally, small via the fleet cache),
    // cloud pulling. The fault model draws the medium holder dead for
    // every pull: the session discovers the death and fails the layers
    // over to the *surviving small holder* — never touching a registry
    // — and reports exactly the dead holder.
    let app = apps::text_processing();
    let mut tb = continuum();
    // Medium warms by running the app; small absorbs the amd64 layers
    // as a fleet-cache participant.
    let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
    execute(&mut tb, &app, &warm, &ExecutorConfig::default()).unwrap();
    let mut small_cache = tb.device(DEVICE_SMALL).cache.clone();
    for id in app.ids() {
        let ms = app.microservice(id);
        let entry = tb.entry(app.name(), &ms.name).unwrap().clone();
        tb.pull_mesh(RegistryChoice::Hub, DEVICE_SMALL, 1.0)
            .session(RegistryChoice::Hub.registry_id())
            .pull(&entry.hub_reference(Platform::Amd64), Platform::Amd64, &mut small_cache)
            .unwrap();
    }
    tb.device_mut(DEVICE_SMALL).cache = small_cache;
    let dead_holder = peer_source_id(DEVICE_MEDIUM);
    tb.fault_model = FaultModel::default()
        .with_source(dead_holder, FaultRates { fatal_per_pull: 1.0, transient_per_fetch: 0.0 });
    let schedule = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_CLOUD);
    let cfg = ExecutorConfig { peer_sharing: true, fault_injection: true, ..Default::default() };
    let (report, _) = execute(&mut tb, &app, &schedule, &cfg).unwrap();
    let survivor = peer_source_id(DEVICE_SMALL);
    // Small layers legitimately prefer the fast hub→cloud route (60 MB/s,
    // overhead already sunk); the peer plane carries the big ones. Every
    // pull that tried the dead holder failed over to the *surviving*
    // holder, no byte ever came from the dead one, and the plane as a
    // whole kept serving.
    let mut failovers = 0;
    for m in &report.microservices {
        assert!(
            m.sources.iter().all(|s| s.source != dead_holder),
            "{}: the dead holder served bytes: {:?}",
            m.name,
            m.sources
        );
        if m.failed_sources.is_empty() {
            continue;
        }
        failovers += 1;
        assert_eq!(m.failed_sources, vec![dead_holder], "{}: exactly the holder died", m.name);
        assert!(
            m.sources.iter().any(|s| s.source == survivor),
            "{}: the surviving holder carries the failover: {:?}",
            m.name,
            m.sources
        );
    }
    assert!(failovers >= 2, "the run exercised per-holder failovers");
    assert_eq!(
        peer_holders(&report),
        vec![DEVICE_SMALL],
        "the plane survived on the remaining holder"
    );
    assert!(report.peer_downloaded_mb() > 1_000.0);
    // Control: with both holders dead the registries take over.
    let mut tb2 = continuum();
    execute(&mut tb2, &app, &warm, &ExecutorConfig::default()).unwrap();
    tb2.fault_model = FaultModel::default()
        .with_source(dead_holder, FaultRates { fatal_per_pull: 1.0, transient_per_fetch: 0.0 });
    let (report2, _) = execute(&mut tb2, &app, &schedule, &cfg).unwrap();
    for m in &report2.microservices {
        if m.downloaded_mb > 0.0 {
            assert!(
                m.sources.iter().all(|s| s.source == RegistryChoice::Hub.registry_id()),
                "{}: with the only holder dead, the hub primary serves: {:?}",
                m.name,
                m.sources
            );
        }
    }
}
