//! Gossip-based peer discovery: the differential test plane.
//!
//! The contracts that let the epidemic discovery plane replace the
//! omniscient snapshot without changing the game:
//!
//! 1. **Snapshot parity** — a *converged* gossip configuration
//!    (all-pairs fanout, unbounded view, one round per wave) reproduces
//!    the `PeerPlane::PerPair` snapshot plane byte for byte: serialized
//!    Schedules are identical and serialized RunReports are identical,
//!    across the case studies, a mirrored registry mesh, and a proptest
//!    population of generated applications — with fault-aware pricing
//!    riding along.
//! 2. **Estimator/executor bit-for-bit under bounded views** — with a
//!    tiny fanout and a one-holder view the estimation context runs the
//!    *same* seeded plane over its mirrored caches and still predicts
//!    exactly what the executor measures, lag and all.
//! 3. **Protocol properties** — seeded determinism, monotone epidemic
//!    growth (more rounds only add knowledge, epochs never regress),
//!    all-pairs one-round convergence, bounded views that are subsets
//!    of the full view, and silent empty caches (never-advertised
//!    devices with nothing to share skip their advertisement) leaving
//!    every view's non-empty entries unchanged.
//! 4. **Staleness safety** — a lying advertisement (the holder died, or
//!    chaos evicted its cache after the barrier) never panics and never
//!    serves vanished bytes: the pull pays the mesh's mid-pull failover,
//!    and the chaos path's epoch bump ages the stale ad out of the
//!    fleet's views.
//! 5. **Plane/oracle parity** — the product `GossipPlane` (epoch-vector
//!    delta exchange, cached views, partial selection) answers every
//!    call the scheduler and executor make exactly as a test-side
//!    reference built on the clone-based exchange
//!    ([`deep::netsim::gossip::oracle`]) with a full sort-and-truncate
//!    view, across random scripts of cache changes, chaos
//!    re-advertisements, barriers and views. The pipeline reaches the
//!    plane only through those calls, so Schedules and RunReports
//!    cannot tell the two apart.

use deep::core::{DeepScheduler, EstimationContext, Scheduler};
use deep::dataflow::{self, apps, Application};
use deep::netsim::gossip::{oracle, GossipState};
use deep::netsim::{Bandwidth, DataSize, DeviceId, Seconds};
use deep::registry::{
    BlobSource, Digest, FaultModel, FaultRates, LayerCache, PeerCacheSource, Platform,
};
use deep::simulator::{
    execute, execute_with_events, peer_source_id, ChaosEvent, ExecutorConfig, GossipPlane,
    PeerDiscovery, Placement, RegistryChoice, RunReport, Schedule, Testbed, TraceKind,
    DEVICE_CLOUD, DEVICE_MEDIUM, DEVICE_SMALL,
};
use proptest::prelude::*;

/// A calibrated continuum testbed (the peer plane needs same-arch
/// devices: medium and cloud are both amd64).
fn continuum() -> Testbed {
    deep::core::continuum_testbed()
}

/// The discovery configuration guaranteed to re-converge at every wave
/// barrier: all-pairs fanout (clamped to `devices - 1`), an unbounded
/// view, one epidemic round per wave — the snapshot-parity regime.
fn converged_gossip() -> PeerDiscovery {
    PeerDiscovery::Gossip { fanout: u32::MAX, view_size: u32::MAX, rounds_per_wave: 1 }
}

/// Warm `holder`'s cache with every image of `app` for both platforms —
/// a fleet cache able to serve amd64 and arm64 pullers alike.
fn warm_holder_both_arches(tb: &mut Testbed, app: &Application, holder: DeviceId) {
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
// 1. Snapshot parity: converged gossip ≡ omniscient snapshot plane.
// ---------------------------------------------------------------------

/// Schedule with the peer-aware (and optionally fault-aware) scheduler
/// on a warm continuum fleet — optionally with a regional mirror in the
/// mesh — then execute the redeploy onto the cloud tier, once per
/// discovery mode, and compare byte for byte.
fn assert_snapshot_parity(app: &Application, fault_aware: bool, mirrored: bool) {
    let run = |discovery: PeerDiscovery| -> (Schedule, RunReport) {
        let mut tb = continuum();
        tb.publish_application(app);
        if mirrored {
            tb.add_regional_mirror(Bandwidth::megabytes_per_sec(11.0), Seconds::new(4.0));
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
            peer_discovery: discovery,
            ..DeepScheduler::default()
        };
        let schedule = scheduler.schedule(app, &tb);
        let cfg =
            ExecutorConfig { peer_sharing: true, peer_discovery: discovery, ..Default::default() };
        let (report, _) = execute(&mut tb, app, &schedule, &cfg).unwrap();
        (schedule, report)
    };
    let (schedule_snap, report_snap) = run(PeerDiscovery::Snapshot);
    let (schedule_gsp, report_gsp) = run(converged_gossip());
    assert_eq!(
        serde_json::to_string(&schedule_gsp).unwrap(),
        serde_json::to_string(&schedule_snap).unwrap(),
        "{}: converged gossip changed the schedule",
        app.name()
    );
    assert_eq!(
        serde_json::to_string(&report_gsp).unwrap(),
        serde_json::to_string(&report_snap).unwrap(),
        "{}: converged gossip changed the RunReport",
        app.name()
    );
}

#[test]
fn case_studies_gossip_snapshot_parity() {
    for app in apps::case_studies() {
        assert_snapshot_parity(&app, false, false);
        assert_snapshot_parity(&app, true, false);
    }
}

#[test]
fn mirrored_mesh_gossip_snapshot_parity() {
    // A regional mirror widens the registry side of the mesh; the peer
    // side's discovery mode must stay invisible across it too.
    for app in apps::case_studies() {
        assert_snapshot_parity(&app, false, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated applications reproduce the snapshot stack byte for
    /// byte under converged gossip. (The vendored proptest seeds each
    /// case deterministically from the test name, so this sweep is
    /// fixed-seed in CI.)
    #[test]
    fn generated_apps_gossip_snapshot_parity(seed in 0u64..500) {
        let app = dataflow::DagGenerator::default().generate(seed);
        assert_snapshot_parity(&app, false, false);
    }
}

// ---------------------------------------------------------------------
// 2. Estimator/executor bit-for-bit under a *bounded* view.
// ---------------------------------------------------------------------

#[test]
fn estimator_matches_executor_under_a_bounded_view() {
    // A one-holder view, fanout one, one round per wave: the epidemic
    // is slow and the views are partial — some waves genuinely cannot
    // count on the warm holder yet. The estimation context runs the
    // same seeded plane over its mirrored caches, so every lag the
    // executor experiences is priced identically.
    let app = apps::video_processing();
    let discovery = PeerDiscovery::Gossip { fanout: 1, view_size: 1, rounds_per_wave: 1 };
    let mut tb = continuum();
    warm_holder_both_arches(&mut tb, &app, DEVICE_CLOUD);
    tb.set_peer_uplink(DEVICE_CLOUD, Bandwidth::megabytes_per_sec(20.0));
    let mut placements =
        vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM }; app.len()];
    placements[app.by_name("transcode").unwrap().0] =
        Placement { registry: RegistryChoice::Regional, device: DEVICE_SMALL };
    placements[app.by_name("la-train").unwrap().0] =
        Placement { registry: RegistryChoice::Regional, device: DEVICE_SMALL };
    let schedule = Schedule::new(placements);
    let mut predictions = Vec::new();
    {
        let mut ctx =
            EstimationContext::new(&tb, &app).peer_sharing(true).peer_discovery(discovery, 0);
        for stage in dataflow::stages(&app) {
            ctx.begin_wave();
            for &id in &stage.members {
                let p = schedule.placement(id);
                predictions.push(ctx.estimate(id, p.registry, p.device));
                ctx.commit(id, p);
            }
        }
    }
    let cfg =
        ExecutorConfig { peer_sharing: true, peer_discovery: discovery, ..Default::default() };
    let (report, _) = execute(&mut tb, &app, &schedule, &cfg).unwrap();
    for (est, measured) in predictions.iter().zip(&report.microservices) {
        assert_eq!(est.td, measured.td, "{}: td", measured.name);
        assert_eq!(est.ec, measured.energy, "{}: ec", measured.name);
    }
}

// ---------------------------------------------------------------------
// 3. Protocol properties of the epidemic itself.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same seed replays the same epidemic: every view, epoch and
    /// payload is identical across two independent runs.
    #[test]
    fn gossip_is_seeded_deterministic(
        devices in 2usize..12,
        seed in any::<u64>(),
        fanout in 1u32..4,
        rounds in 1u32..6,
    ) {
        let build = || {
            let mut state = GossipState::new(devices, seed);
            for d in 0..devices {
                state.advertise(d, (d as u32) * 7 + 1);
            }
            state.run_rounds(rounds, fanout);
            state
        };
        let (a, b) = (build(), build());
        for viewer in 0..devices {
            let va: Vec<(usize, u64, u32)> = a.known(viewer).map(|(h, e, p)| (h, e, *p)).collect();
            let vb: Vec<(usize, u64, u32)> = b.known(viewer).map(|(h, e, p)| (h, e, *p)).collect();
            prop_assert_eq!(va, vb, "viewer {} diverged under one seed", viewer);
        }
    }

    /// Epidemic growth is monotone: running more rounds only ever adds
    /// holders to a view or refreshes their epochs — never forgets, and
    /// never regresses an epoch. One all-pairs round from any partial
    /// state converges every view onto the freshest epoch of every ad
    /// (the full view is a superset of every bounded-fanout view).
    #[test]
    fn more_rounds_only_grow_views_and_never_regress_epochs(
        devices in 2usize..12,
        seed in any::<u64>(),
        fanout in 1u32..4,
        rounds in 1u32..6,
    ) {
        let mut state = GossipState::new(devices, seed);
        for d in 0..devices {
            state.advertise(d, d as u32);
        }
        state.run_rounds(rounds, fanout);
        let before: Vec<Vec<(usize, u64)>> =
            (0..devices).map(|v| state.known(v).map(|(h, e, _)| (h, e)).collect()).collect();
        state.run_rounds(1, u32::MAX);
        prop_assert!(state.converged(), "an all-pairs round converges the fleet");
        for (viewer, partial) in before.iter().enumerate() {
            let full: std::collections::BTreeMap<usize, u64> =
                state.known(viewer).map(|(h, e, _)| (h, e)).collect();
            prop_assert_eq!(full.len(), devices, "converged view knows every holder");
            for &(holder, epoch) in partial {
                let fresh = full.get(&holder).copied();
                prop_assert!(fresh >= Some(epoch), "epoch regressed for holder {}", holder);
            }
        }
    }
}

/// The advertisement surface both exchange engines share, so one
/// refresh rule drives the delta state and the clone-based oracle.
trait Advertise {
    fn last_ad(&self, holder: usize) -> Option<&PeerCacheSource>;
    fn publish(&mut self, holder: usize, ad: PeerCacheSource);
}

impl Advertise for GossipState<PeerCacheSource> {
    fn last_ad(&self, holder: usize) -> Option<&PeerCacheSource> {
        self.self_ad(holder)
    }
    fn publish(&mut self, holder: usize, ad: PeerCacheSource) {
        self.advertise(holder, ad);
    }
}

impl Advertise for oracle::GossipState<PeerCacheSource> {
    fn last_ad(&self, holder: usize) -> Option<&PeerCacheSource> {
        self.self_ad(holder)
    }
    fn publish(&mut self, holder: usize, ad: PeerCacheSource) {
        self.advertise(holder, ad);
    }
}

/// One device's cache refresh at a barrier (or, with `force`, the chaos
/// re-advertisement): publish when the last advertisement no longer
/// matches the cache. `silent_empty` is the plane's rule — a holder that
/// never advertised stays silent while empty; without it every device
/// advertises at its first barrier, empty or not.
fn refresh_ad(
    state: &mut impl Advertise,
    holder: usize,
    cache: &LayerCache,
    force: bool,
    silent_empty: bool,
) {
    let publish = match state.last_ad(holder) {
        Some(ad) => force || ad.len() != cache.len() || cache.digests().any(|d| !ad.has_blob(d)),
        None => !(silent_empty && cache.is_empty()),
    };
    if publish {
        state.publish(holder, PeerCacheSource::for_holder(DeviceId(holder), cache));
    }
}

/// Each viewer's non-empty advertisements as `(holder, sorted digests)`
/// — what a mesh view can be built from.
fn nonempty_views(state: &GossipState<PeerCacheSource>) -> Vec<Vec<(usize, Vec<Digest>)>> {
    (0..state.devices())
        .map(|viewer| {
            state
                .known(viewer)
                .filter(|(_, _, ad)| !ad.is_empty())
                .map(|(holder, _, ad)| {
                    let mut digests: Vec<Digest> = ad.digests().cloned().collect();
                    digests.sort();
                    (holder, digests)
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Silencing never-advertised empty caches is invisible to views:
    /// driven through the same script of cache fills, evictions to
    /// empty, chaos re-advertisements and barriers, a state where every
    /// fresh device advertises and one where empty caches stay silent
    /// hold the same non-empty `(holder, digest set)` entries in every
    /// view after every step — the skipped empty epochs only relabel
    /// each holder's epochs monotonically.
    #[test]
    fn silent_empty_caches_leave_every_view_unchanged(
        devices in 2usize..10,
        seed in any::<u64>(),
        raw in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let mut caches = vec![LayerCache::new(DataSize::gigabytes(8.0)); devices];
        let mut every: GossipState<PeerCacheSource> = GossipState::new(devices, seed);
        let mut silent: GossipState<PeerCacheSource> = GossipState::new(devices, seed);
        for x in raw {
            let device = ((x >> 2) % devices as u64) as usize;
            match x & 3 {
                0 => {
                    let layer = Digest::of(&[(x >> 8) as u8 % 6]);
                    caches[device].insert(layer, DataSize::megabytes(5.0));
                }
                1 => {
                    caches[device].evict_to(DataSize::ZERO);
                }
                2 => {
                    refresh_ad(&mut every, device, &caches[device], true, false);
                    refresh_ad(&mut silent, device, &caches[device], true, true);
                }
                _ => {
                    let fanout = 1 + ((x >> 16) % 3) as u32;
                    for (j, cache) in caches.iter().enumerate() {
                        refresh_ad(&mut every, j, cache, false, false);
                        refresh_ad(&mut silent, j, cache, false, true);
                    }
                    every.run_round(fanout);
                    silent.run_round(fanout);
                }
            }
            prop_assert_eq!(nonempty_views(&every), nonempty_views(&silent));
            for j in 0..devices {
                prop_assert!(silent.epoch(j) <= every.epoch(j), "device {} epoch", j);
            }
        }
    }
}

/// A bounded mesh view is always a subset of the unbounded view over
/// the same epidemic state, and never exceeds its configured size.
#[test]
fn bounded_mesh_views_are_subsets_of_the_full_view() {
    let mut caches = vec![LayerCache::new(DataSize::gigabytes(8.0)); 6];
    for (j, cache) in caches.iter_mut().enumerate() {
        // Distinct advertisement sizes so the bounded selection has
        // real choices to make.
        for layer in 0..=j {
            cache.insert(Digest::of(&[j as u8, layer as u8]), DataSize::megabytes(5.0));
        }
    }
    let refs: Vec<&LayerCache> = caches.iter().collect();
    let plane_at = |view_size: u32| {
        let mut plane = GossipPlane::new(6, u32::MAX, view_size, 1, 7);
        plane.barrier_round(&refs);
        plane
    };
    let full: Vec<_> =
        plane_at(u32::MAX).mesh_view(&refs, 0).into_iter().map(|(id, _)| id).collect();
    assert_eq!(full.len(), 5, "unbounded view sees every other holder");
    for view_size in 1..=6u32 {
        let bounded: Vec<_> =
            plane_at(view_size).mesh_view(&refs, 0).into_iter().map(|(id, _)| id).collect();
        assert!(bounded.len() <= view_size as usize);
        assert!(
            bounded.iter().all(|id| full.contains(id)),
            "view {view_size}: bounded holders {bounded:?} not a subset of {full:?}"
        );
    }
}

// ---------------------------------------------------------------------
// 5. Plane/oracle parity, call for call.
// ---------------------------------------------------------------------

/// The test-side reference plane: the clone-based exchange
/// ([`oracle::GossipState`]) refreshed by [`refresh_ad`] under the
/// plane's silent-empty rule, with views rebuilt on every call by a full
/// sort-and-truncate and digests retracted against the live caches.
struct ReferencePlane {
    state: oracle::GossipState<PeerCacheSource>,
    fanout: u32,
    view_size: u32,
    rounds_per_wave: u32,
}

impl ReferencePlane {
    fn barrier_round(&mut self, caches: &[LayerCache]) {
        for (j, cache) in caches.iter().enumerate() {
            refresh_ad(&mut self.state, j, cache, false, true);
        }
        self.state.run_rounds(self.rounds_per_wave, self.fanout);
    }

    fn readvertise(&mut self, holder: usize, cache: &LayerCache) {
        refresh_ad(&mut self.state, holder, cache, true, true);
    }

    fn mesh_view(&self, caches: &[LayerCache], target: usize) -> Vec<(usize, PeerCacheSource)> {
        let mut holders: Vec<(usize, &PeerCacheSource)> = self
            .state
            .known(target)
            .filter(|&(holder, _, ad)| holder != target && !ad.is_empty())
            .map(|(holder, _, ad)| (holder, ad))
            .collect();
        holders.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        holders.truncate(self.view_size as usize);
        holders.sort_by_key(|&(holder, _)| holder);
        holders
            .into_iter()
            .map(|(holder, ad)| {
                let mut source = ad.clone();
                for digest in ad.digests().filter(|d| !caches[holder].contains(d)) {
                    source.retract(digest);
                }
                (holder, source)
            })
            .collect()
    }
}

fn sorted_digests(source: &PeerCacheSource) -> Vec<Digest> {
    let mut digests: Vec<Digest> = source.digests().cloned().collect();
    digests.sort();
    digests
}

/// The product view equals the reference view: same source ids and
/// holders, same advertised digests, and the same `has_blob` /
/// `fetch_blob` answer for every one of them.
fn assert_same_view(
    plane: &[(deep::netsim::RegistryId, PeerCacheSource)],
    reference: &[(usize, PeerCacheSource)],
    target: usize,
) {
    assert_eq!(plane.len(), reference.len(), "target {target}: view length");
    for ((id, src), (holder, ref_src)) in plane.iter().zip(reference) {
        assert_eq!(*id, peer_source_id(DeviceId(*holder)), "target {target}");
        assert_eq!(src.holder(), Some(DeviceId(*holder)), "target {target}");
        assert_eq!(src.len(), ref_src.len(), "target {target} holder {holder}");
        let digests = sorted_digests(ref_src);
        assert_eq!(sorted_digests(src), digests, "target {target} holder {holder}");
        for d in &digests {
            assert_eq!(src.has_blob(d), ref_src.has_blob(d), "target {target} holder {holder}");
            assert_eq!(
                src.fetch_blob(d).is_ok(),
                ref_src.fetch_blob(d).is_ok(),
                "target {target} holder {holder}: retraction differs"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The product [`GossipPlane`] (delta exchange, cached views,
    /// partial selection) and the clone-based reference agree at every
    /// call the scheduler and executor make — `barrier_round`,
    /// `readvertise`, `mesh_view`, `converged`, `rounds_run` — on every
    /// script in the pipeline's call order: each wave mutates caches,
    /// may evict one by chaos and re-advertise it, runs the barrier, and
    /// views a random subset of targets (so cached views survive
    /// unchanged barriers). Bounded and unbounded views, fanouts 1..n.
    #[test]
    fn plane_matches_the_clone_based_reference_call_for_call(
        devices in 2usize..9,
        fanout in 1u32..10,
        view in 0u32..9,
        rounds_per_wave in 1u32..3,
        seed in any::<u64>(),
        waves in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let view_size = if view == 0 { u32::MAX } else { view };
        let mut caches = vec![LayerCache::new(DataSize::gigabytes(8.0)); devices];
        let mut plane = GossipPlane::new(devices, fanout, view_size, rounds_per_wave, seed);
        let mut reference = ReferencePlane {
            state: oracle::GossipState::new(devices, seed),
            fanout,
            view_size,
            rounds_per_wave,
        };
        let agree = |plane: &GossipPlane, reference: &ReferencePlane| {
            prop_assert_eq!(plane.converged(), reference.state.converged());
            prop_assert_eq!(plane.rounds_run(), reference.state.rounds_run());
        };
        for x in waves {
            // 1. Up to three cache inserts or LRU evictions (12 bits each).
            for op in 0..(x & 3) {
                let bits = x >> (2 + 12 * op);
                let device = (bits & 15) as usize % devices;
                if bits & 16 == 0 {
                    caches[device].insert(Digest::of(&[(bits >> 5) as u8 % 8]), DataSize::megabytes(5.0));
                } else {
                    caches[device].evict_to(DataSize::megabytes(5.0 * ((bits >> 8) % 4) as f64));
                }
            }
            // 2. A chaos eviction, re-advertised out of band.
            if x & (1 << 40) != 0 {
                let device = ((x >> 41) & 15) as usize % devices;
                caches[device].evict_to(DataSize::megabytes(5.0 * ((x >> 45) % 3) as f64));
                plane.readvertise(DeviceId(device), &caches[device]);
                reference.readvertise(device, &caches[device]);
                agree(&plane, &reference);
            }
            // 3. The wave barrier.
            let refs: Vec<&LayerCache> = caches.iter().collect();
            plane.barrier_round(&refs);
            reference.barrier_round(&caches);
            agree(&plane, &reference);
            // 4. Views for a random subset of targets.
            for target in (0..devices).filter(|j| x & (1 << (48 + j)) != 0) {
                let view = plane.mesh_view(&refs, target);
                assert_same_view(&view, &reference.mesh_view(&caches, target), target);
                agree(&plane, &reference);
            }
        }
    }
}

// ---------------------------------------------------------------------
// 4. Staleness safety: lying ads fail over, and age out.
// ---------------------------------------------------------------------

#[test]
fn gossip_churn_kills_one_holder_not_the_plane() {
    // The peer-churn contract of tests/peer_plane.rs, under gossip
    // discovery: two warm holders, the medium one drawn fatally dead
    // for every pull. Its converged advertisement is a lie the session
    // plans against — the pull must fail over to the *surviving small
    // holder*, never panic, and report exactly the dead holder.
    let app = apps::text_processing();
    let mut tb = continuum();
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
    let cfg = ExecutorConfig {
        peer_sharing: true,
        fault_injection: true,
        peer_discovery: converged_gossip(),
        ..Default::default()
    };
    let (report, _) = execute(&mut tb, &app, &schedule, &cfg).unwrap();
    let survivor = peer_source_id(DEVICE_SMALL);
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
        report.downloaded_by_peer().iter().map(|(d, _)| *d).collect::<Vec<_>>(),
        vec![DEVICE_SMALL],
        "only the survivor served"
    );
    assert!(report.peer_downloaded_mb() > 1_000.0, "the plane as a whole kept serving");
}

#[test]
fn post_eviction_pull_pays_failover_and_the_stale_ad_ages_out() {
    // The cache-pressure chaos event fires *after* the wave's gossip
    // round: the wave's pulls planned onto a now-stale advertisement
    // must fail over mid-pull to the registry and still land every
    // layer — and the event's epoch bump (readvertisement) must age
    // the evicted holder out of the fleet's views, so later waves stop
    // planning on it instead of mis-estimating.
    let app = apps::video_processing();
    let all_hub = |device| Schedule::uniform(app.len(), RegistryChoice::Hub, device);
    let run = |events: &[ChaosEvent]| {
        let mut tb = continuum();
        tb.publish_application(&app);
        execute(&mut tb, &app, &all_hub(DEVICE_MEDIUM), &ExecutorConfig::default()).unwrap();
        let cfg = ExecutorConfig {
            peer_sharing: true,
            peer_discovery: converged_gossip(),
            ..Default::default()
        };
        let out = execute_with_events(&mut tb, &app, &all_hub(DEVICE_CLOUD), &cfg, events).unwrap();
        (out, tb)
    };
    // Baseline: the peer serves the fleet-resident training stack; its
    // trace locates the training wave's start on the clock.
    let ((baseline, trace), _) = run(&[]);
    assert!(!baseline.downloaded_by_peer().is_empty(), "baseline rides the peer");
    let train_wave = trace
        .of_kind(TraceKind::DeploymentStarted)
        .find(|e| e.label == "ha-train")
        .expect("training wave traced")
        .at;
    let events = [ChaosEvent::cache_pressure(train_wave, DEVICE_MEDIUM, DataSize::ZERO)];
    let ((report, chaos_trace), tb) = run(&events);
    let peer_id = peer_source_id(DEVICE_MEDIUM);
    assert!(
        report.microservices.iter().any(|m| m.failed_sources.contains(&peer_id)),
        "some pull hit the stale advertisement and failed over"
    );
    // The training wave itself got nothing from the evicted peer.
    let ha = report.metrics("ha-train").unwrap();
    assert!(ha.failed_sources.contains(&peer_id), "{:?}", ha.failed_sources);
    assert!(ha.sources.iter().all(|b| b.source != peer_id), "{:?}", ha.sources);
    let dl = |r: &RunReport| -> f64 { r.microservices.iter().map(|m| m.downloaded_mb).sum() };
    assert!((dl(&report) - dl(&baseline)).abs() < 1e-6, "every layer still landed");
    let td = |r: &RunReport| -> f64 { r.microservices.iter().map(|m| m.td.as_f64()).sum() };
    assert!(td(&report) > td(&baseline), "failover cost is visible in Td");
    assert_eq!(chaos_trace.of_kind(TraceKind::ChaosEventFired).count(), 1);
    assert!(tb.device(DEVICE_MEDIUM).cache.is_empty(), "the eviction really happened");
    // The age-out: after the event's epoch bump and the next barrier
    // round, no view still advertises the emptied holder.
    let caches: Vec<&LayerCache> = (0..3).map(|j| &tb.device(DeviceId(j)).cache).collect();
    let mut plane = GossipPlane::new(3, u32::MAX, u32::MAX, 1, 0);
    plane.barrier_round(&caches);
    plane.readvertise(DEVICE_MEDIUM, &tb.device(DEVICE_MEDIUM).cache);
    plane.barrier_round(&caches);
    assert!(
        plane.mesh_view(&caches, DEVICE_CLOUD.0).iter().all(|(id, _)| *id != peer_id),
        "the emptied holder aged out of the cloud's view"
    );
}
