//! The estimation side of the paper's completion-time and energy models,
//! generalized to the registry mesh.
//!
//! `CT(m_i, r_g, d_j) = Size/BW_gj + Size_ui/BW_kj + CPU(m_i)/CPU_j` and
//! `EC(m_i, r_g, d_j) = Ea + Es`, evaluated *predictively* while the
//! scheduler walks the DAG: the context tracks the layer caches,
//! per-source route loads and (optionally) the per-wave peer-cache
//! snapshots that the executor will later realise, so the scheduler's
//! payoffs and the simulator's measurements agree bit for bit.
//!
//! Three mesh-wide generalizations over the seed two-registry model:
//!
//! * **Per-source route contention** — same-wave load is tracked per
//!   contention resource ([`deep_simulator::route_key`]): registry
//!   buckets load their `(RegistryId, device)` download route, peer
//!   buckets the *serving* device's uplink. A split pull charges each
//!   `SourcePull`'s bytes to the resource that actually carried them,
//!   not once to its primary. Single-source pulls reduce to the seed
//!   accounting exactly.
//! * **Split-pull pricing** — with [`EstimationContext::peer_sharing`] on,
//!   estimates and commits run through the same
//!   registry-plus-peer-sources mesh the executor realises, so
//!   schedulers can *price* the layers a fleet peer already holds
//!   instead of discovering them at deployment time.
//! * **Per-pair peer plane** — the peer sources come from the
//!   testbed's [`deep_simulator::PeerPlane`]: one source per advertising
//!   holder at its per-pair link rate, so a hot peer's saturated uplink
//!   is visible to the payoffs ("which peer do I pull from" becomes part
//!   of the equilibrium), with the scalar aggregate plane retained as
//!   the regression oracle.

use deep_dataflow::{stages, Application, MicroserviceId};
use deep_energy::Joules;
use deep_netsim::{Bandwidth, DataSize, DeviceId, RegistryId, Seconds};
use deep_registry::{
    BlobSource, Digest, ImageManifest, LayerCache, LayerDescriptor, Platform, PullOutcome,
    PullSession, Reference, RegistryError, RegistryMesh,
};
use deep_simulator::{PeerViews, Placement, PublishedEntry, RegistryChoice, RouteLoads, Testbed};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Simulation-in-the-loop pricing of a scripted scenario: `E[Td]` is a
/// Monte-Carlo expectation over the *exact* fault plans the scenario's
/// replications will draw (seeds `seed..seed + draws`), clock-gated on
/// the testbed's scripted outage windows at the estimator's wave clock.
///
/// Three things distinguish this from the closed-form
/// [`EstimationContext::price_faults`] path:
///
/// * the death probability of a pull is its *empirical* frequency over
///   the replication seed stream (the same `pull_fatal` cells the
///   injecting executor consults, under the executor's pull numbering),
///   not the analytic rate;
/// * sources the scenario scripts dark at the wave clock leave the mesh
///   for both branches — a dark primary prices its full failover, so
///   the scheduler routes *around a window* rather than averaging over
///   it;
/// * degradation windows slow the affected sources' bandwidth exactly
///   as the executor's clock-gated load factor does.
///
/// With no windows and zero rates the pricing is float-identical to the
/// happy path, so scenario-priced schedules degrade byte-for-byte to
/// the paper ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioPricing {
    /// Fault-plan draws per estimate. Match the scenario's replication
    /// count to enumerate the realized seed stream exactly.
    pub draws: u32,
    /// Base seed of the draw stream — match the scenario's seed so the
    /// draws are the plans [`deep_simulator::ExecutorConfig`]s built by
    /// the scenario's replications actually inject.
    pub seed: u64,
}

/// A predicted `(Td, Tc, Tp, EC)` for one candidate assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    pub td: Seconds,
    pub tc: Seconds,
    pub tp: Seconds,
    pub ec: Joules,
    /// Bytes the pull would move after cache dedup.
    pub downloaded: DataSize,
}

/// One memoized primary-manifest resolution: the reference, lent by the
/// testbed's published entry, and the manifest the registry resolved it
/// to, sharing the registry's allocation.
struct Resolved<'t> {
    reference: &'t Reference,
    manifest: Arc<ImageManifest>,
    /// Per layer of `manifest`: whether some testbed device caches it.
    /// The testbed is borrowed for the context's lifetime, so this
    /// never goes stale.
    resident: Vec<bool>,
}

/// One member's energy-floor inputs, built once per member state by
/// [`EstimationContext::member_floors`] and read by every device row of
/// [`EstimationContext::energy_floors`]. Reusable across members: a
/// rebuild refills the buffers in place.
#[derive(Debug, Default)]
pub(crate) struct MemberFloors {
    id: Option<MicroserviceId>,
    /// One entry per `(registry, platform)`, registry-major over the
    /// context's registries and platforms: `None` when that manifest is
    /// not memoized.
    manifests: Vec<Option<ManifestFloor>>,
    /// Per-layer held flags of every memoized manifest, back to back.
    held: Vec<bool>,
}

#[cfg(test)]
impl MemberFloors {
    /// Each buffer's address and capacity: equal across two fills exactly
    /// when neither fill reallocated.
    pub(crate) fn fingerprint(&self) -> [(usize, usize); 2] {
        [
            (self.manifests.as_ptr() as usize, self.manifests.capacity()),
            (self.held.as_ptr() as usize, self.held.capacity()),
        ]
    }
}

/// The floor inputs of one memoized manifest of a member.
#[derive(Debug, Clone, Copy)]
struct ManifestFloor {
    /// The manifest's slot in [`EstimationContext::resolved`].
    resolved: usize,
    /// Where its layers' flags start in [`MemberFloors::held`].
    flags: usize,
    /// Bytes of its layers some peer source could hold.
    held: DataSize,
    /// Bytes of every other layer: only a registry can serve them.
    registry_only: DataSize,
}

/// The layers of `manifest` absent from `cache`, in manifest order:
/// exactly the layers every pull of it downloads, whichever sources serve
/// them.
fn missing_layers<'m>(
    manifest: &'m ImageManifest,
    cache: &'m LayerCache,
) -> impl Iterator<Item = &'m LayerDescriptor> {
    manifest.missing_layers(|digest| cache.contains(digest))
}

/// Walks the application in barrier order, mirroring the executor's cache
/// and contention state without touching the real testbed.
pub struct EstimationContext<'t> {
    testbed: &'t Testbed,
    app: &'t Application,
    /// Estimated per-device layer caches (cloned cold or warm from the
    /// testbed).
    caches: Vec<LayerCache>,
    /// Same-wave per-source route loads (the executor's ledger), reset
    /// at each barrier.
    route_load: RouteLoads,
    /// Devices of already-committed microservices (for `Tc`).
    assigned: Vec<Option<Placement>>,
    /// Mirror an executor running with `peer_sharing`: every estimate and
    /// commit adds the wave's peer sources to the pull mesh.
    peer_sharing: bool,
    /// Every device's peer view, rebuilt at each wave barrier through
    /// the testbed's [`deep_simulator::PeerPlane::barrier`]
    /// (`peers.of(j)` = the sources device j's pulls see: one per
    /// advertising holder on the per-pair plane, the single aggregate
    /// source under the scalar oracle). Empty until the first
    /// [`EstimationContext::begin_wave`].
    peers: PeerViews,
    /// The estimator's image of the executor's gossip discovery plane
    /// (`None` = omniscient snapshot discovery). Runs the *same*
    /// epidemic over the estimated caches, seeded identically, so a
    /// layer gossip hasn't propagated is priced as a layer the
    /// scheduler cannot count on — and bounded views bound the priced
    /// mesh exactly as they bound the executed one.
    gossip: Option<deep_simulator::GossipPlane>,
    /// Price expected deployment time under the testbed's
    /// [`deep_registry::FaultModel`] instead of the happy path: `E[Td]` folds the
    /// primary's per-pull death probability × the failover re-plan cost
    /// (surviving-source re-fetch) plus the expected retry backoff of
    /// the transient channel into every estimate.
    price_faults: bool,
    /// Price scripted scenarios: Monte-Carlo `E[Td]` over the
    /// replication seed stream, clock-gated on the scripted outage
    /// windows (see [`ScenarioPricing`]). Supersedes `price_faults`
    /// when set.
    scenario: Option<ScenarioPricing>,
    /// The estimator's image of the executor clock: the open wave's
    /// pulls start here. Advanced at each barrier by the previous
    /// wave's span (longest committed happy-path pull), then by each
    /// member's transfer and processing phase in commit order — the
    /// jitter-free executor's clock arithmetic bit for bit on the happy
    /// path, a first-order approximation once injected faults stretch
    /// realized pulls. Only tracked under scenario pricing.
    clock: Seconds,
    /// Longest committed pull of the open wave.
    wave_peak: Seconds,
    /// Committed `(Tc, Tp)` of the open wave, in commit order (executed
    /// serially after the deployment barrier).
    wave_exec: Vec<(Seconds, Seconds)>,
    /// Pulls committed so far — the executor's pull numbering, so
    /// scenario draws consult the same [`deep_registry::FaultPlan`]
    /// cells the injecting executor will.
    pulls_committed: u64,
    /// The testbed's registry-side strategy space
    /// ([`Testbed::registry_choices`]), listed once at construction:
    /// the testbed is borrowed for the context's lifetime, so its mesh
    /// cannot change under the walk.
    registries: Vec<RegistryChoice>,
    /// Every platform the testbed's devices run, in first-device order,
    /// listed once at construction for the same reason.
    platforms: Vec<Platform>,
    /// Per-microservice catalog entries, resolved once at construction.
    /// The testbed is borrowed for the context's lifetime, so an entry
    /// that is `None` (the app is not published) stays `None`.
    entries: Vec<Option<&'t PublishedEntry>>,
    /// Memoized primary-manifest resolutions keyed
    /// `(registry, microservice, platform)`, filled by
    /// [`EstimationContext::prefetch_manifests`]: each key's slot in
    /// `resolved`. Estimates and commits plan against the memo through
    /// [`PullSession::preresolved`] when warm and resolve per call
    /// otherwise — identically either way: the testbed is immutably
    /// borrowed for the context's lifetime, so a memoized resolution
    /// (and its flags) cannot go stale.
    manifests: HashMap<(RegistryId, usize, Platform), usize>,
    resolved: Vec<Resolved<'t>>,
    /// The `resolved` slot of every committed pull's manifest, in commit
    /// order: the layers the walk has landed in some estimated cache.
    landed: Vec<usize>,
    /// Whether some commit pulled a manifest that is not memoized, so
    /// `landed` does not list every layer the walk has cached.
    landed_unindexed: bool,
    /// Memoized scenario-pricing fatal-draw counts keyed
    /// `(pull number, primary)`. The Monte-Carlo death frequency of a
    /// candidate depends only on the pull number it would commit as and
    /// which source is primary — not on the device, the mesh, or the
    /// clock — so a fleet solver evaluating thousands of `(registry,
    /// device)` candidates for one member pays the `draws`-long seed
    /// walk once per distinct `(pull, primary)`, not once per
    /// candidate. A [`RefCell`] because [`EstimationContext::estimate`]
    /// fills it through `&self`, and a context stays on the thread that
    /// walks it. Sound across commits because the pull number is in the
    /// key, and cleared if the pricing itself is rebound.
    fatal_memo: RefCell<HashMap<(u64, RegistryId), u32>>,
}

/// One cell's pull, built in one place ([`EstimationContext::cell_pull`])
/// for every estimate, plan and commit: the mesh the executor realises
/// for the same placement ([`Testbed::placement_mesh`]), with every other
/// full registry as a standby when the pricing needs failover targets,
/// planned against the memoized manifest (borrowed from the memo's
/// shared allocation) when one is warm.
struct CellPull<'c> {
    mesh: RegistryMesh<'c>,
    primary: RegistryId,
    reference: &'c Reference,
    preresolved: Option<&'c ImageManifest>,
    extract_bw: Bandwidth,
    arch: Platform,
}

impl<'c> CellPull<'c> {
    /// A session over the cell's mesh with `dead` presumed dead.
    fn session(&self, dead: impl IntoIterator<Item = RegistryId>) -> PullSession<'_, 'c> {
        let mut session = PullSession::new(&self.mesh, self.primary).extract_bw(self.extract_bw);
        if let Some(m) = self.preresolved {
            session = session.preresolved(m);
        }
        dead.into_iter().fold(session, PullSession::presume_dead)
    }

    /// The pull's outcome against `cache` (untouched), with `dead`
    /// presumed dead.
    fn estimate(
        &self,
        cache: &LayerCache,
        dead: impl IntoIterator<Item = RegistryId>,
    ) -> Result<PullOutcome, RegistryError> {
        self.session(dead).estimate(self.reference, self.arch, cache)
    }

    /// Realise the happy-path pull into `cache`.
    fn pull(&self, cache: &mut LayerCache) -> Result<PullOutcome, RegistryError> {
        self.session([]).pull(self.reference, self.arch, cache)
    }
}

impl<'t> EstimationContext<'t> {
    /// Start a context mirroring the testbed's current cache state.
    pub fn new(testbed: &'t Testbed, app: &'t Application) -> Self {
        EstimationContext {
            testbed,
            app,
            caches: testbed.devices.iter().map(|d| d.cache.clone()).collect(),
            route_load: RouteLoads::new(testbed.devices.len()),
            assigned: vec![None; app.len()],
            peer_sharing: false,
            peers: PeerViews::default(),
            gossip: None,
            price_faults: false,
            scenario: None,
            clock: Seconds::ZERO,
            wave_peak: Seconds::ZERO,
            wave_exec: Vec::new(),
            pulls_committed: 0,
            registries: testbed.registry_choices(),
            platforms: testbed.devices.iter().fold(Vec::new(), |mut archs, d| {
                if !archs.contains(&d.arch) {
                    archs.push(d.arch);
                }
                archs
            }),
            entries: app
                .ids()
                .map(|id| testbed.entry(app.name(), &app.microservice(id).name))
                .collect(),
            manifests: HashMap::new(),
            resolved: Vec::new(),
            landed: Vec::new(),
            landed_unindexed: false,
            fatal_memo: RefCell::default(),
        }
    }

    /// The memoized resolution of `(registry, id, arch)`, if any.
    fn memo(&self, registry: RegistryChoice, id: MicroserviceId, arch: Platform) -> Option<usize> {
        self.manifests.get(&(registry.registry_id(), id.0, arch)).copied()
    }

    /// Memoize the primary-manifest resolutions `id`'s candidate
    /// estimates will hit: one `resolve` per `(registry, platform)` pair
    /// instead of one per `(registry, device)` candidate. Even with the
    /// regional registries' parse memo (which skips verification and
    /// parsing only for byte-equal stored objects), each resolve still
    /// reads two store objects and compares them; the memo here holds
    /// the registry's shared manifest, so it copies none. At fleet scale
    /// the solver prices thousands of counterfactual
    /// candidates per member, and those round-trips would dominate the
    /// estimate itself. Purely an optimisation: warm and cold estimates
    /// price bit for bit identically.
    ///
    /// Each memoized manifest also records which of its layers some
    /// testbed device caches (one pass over the non-empty caches per
    /// distinct digest), the start of the energy floors' held bytes.
    pub fn prefetch_manifests(&mut self, id: MicroserviceId) {
        let Some(entry) = self.entries[id.0] else { return };
        let mut fresh: Vec<((RegistryId, usize, Platform), Resolved<'t>)> = Vec::new();
        for &choice in &self.registries {
            for &arch in &self.platforms {
                let key = (choice.registry_id(), id.0, arch);
                if self.manifests.contains_key(&key) {
                    continue;
                }
                let reference = self.testbed.reference(entry, choice, arch);
                // An unpublished variant stays unmemoized: the per-call
                // resolve then reports it exactly as before.
                if let Ok(manifest) = self.testbed.registry(choice).resolve(reference, arch) {
                    let resident = Vec::new();
                    fresh.push((key, Resolved { reference, manifest, resident }));
                }
            }
        }
        // Registries and platforms share most layers: look each distinct
        // digest up once, and stop at its first holder.
        let mut distinct: Vec<(&Digest, bool)> = Vec::new();
        for layer in fresh.iter().flat_map(|(_, r)| &r.manifest.layers) {
            if !distinct.iter().any(|(d, _)| *d == &layer.digest) {
                distinct.push((&layer.digest, false));
            }
        }
        for cache in self.testbed.devices.iter().map(|d| &d.cache).filter(|c| !c.is_empty()) {
            for (digest, resident) in distinct.iter_mut().filter(|(_, resident)| !resident) {
                *resident = cache.contains(digest);
            }
        }
        let resident: Vec<Vec<bool>> = fresh
            .iter()
            .map(|(_, r)| {
                let flag =
                    |l: &LayerDescriptor| distinct.iter().any(|(d, h)| *h && *d == &l.digest);
                r.manifest.layers.iter().map(flag).collect()
            })
            .collect();
        for ((key, mut r), resident) in fresh.into_iter().zip(resident) {
            r.resident = resident;
            self.manifests.insert(key, self.resolved.len());
            self.resolved.push(r);
        }
    }

    /// Start the estimator clock at `clock` instead of zero
    /// (builder-style): an application admitted mid-soak prices its
    /// pulls against the scripted outage windows *active at admission
    /// time* — the arrival plane passes the online executor's wave
    /// clock here. At `Seconds::ZERO` this is byte-identical to the
    /// default. Only scenario pricing reads the clock.
    pub fn at_clock(mut self, clock: Seconds) -> Self {
        self.clock = clock;
        self
    }

    /// Start the pull numbering at `pull` instead of zero
    /// (builder-style): scenario-priced death frequencies consult the
    /// [`deep_registry::FaultPlan`] cells of the pulls the online
    /// executor will *actually* commit next
    /// ([`deep_simulator::OnlineExecutor::pulls`]), keeping the
    /// estimator/executor numbering contract across mid-soak
    /// admissions. At `0` this is byte-identical to the default.
    pub fn starting_pull(mut self, pull: u64) -> Self {
        self.pulls_committed = pull;
        self
    }

    /// Price peer-cache split pulls (builder-style): mirror an executor
    /// running with [`deep_simulator::ExecutorConfig::peer_sharing`].
    /// Peer views are built at each [`EstimationContext::begin_wave`], as
    /// the executor builds them at each wave barrier, so a context shows
    /// no peer source until its first wave opens.
    pub fn peer_sharing(mut self, on: bool) -> Self {
        self.peer_sharing = on;
        self
    }

    /// Mirror the executor's peer-discovery mode (builder-style): under
    /// [`deep_simulator::PeerDiscovery::Gossip`] the estimator runs its
    /// own [`deep_simulator::GossipPlane`] over the estimated caches —
    /// one barrier round per [`EstimationContext::begin_wave`], exactly
    /// the executor's cadence — so bounded, lagging views price bounded,
    /// lagging meshes. The builders may come in either order: neither
    /// builds views. `seed` must be the executor's
    /// [`deep_simulator::ExecutorConfig::seed`] for the partner
    /// schedules (and therefore the view sequences) to match
    /// bit for bit. [`deep_simulator::PeerDiscovery::Snapshot`] restores
    /// the omniscient catalog (the default).
    pub fn peer_discovery(mut self, discovery: deep_simulator::PeerDiscovery, seed: u64) -> Self {
        self.gossip =
            deep_simulator::GossipPlane::for_discovery(discovery, self.caches.len(), seed);
        self
    }

    /// Price expected deployment time under the testbed's fault model
    /// (builder-style): estimates return
    /// `E[Td] = (1−p)·(Td_happy + B_happy) + p·(Td_failover + B_failover)`
    /// where `p` is the primary's per-pull fatal probability, the
    /// failover branch re-plans the primary's layers onto the surviving
    /// mesh (peer first, then standby registries — exactly the
    /// fault-injecting executor's failover), and `B` is the closed-form
    /// expected retry backoff of the transient channel. With a zero
    /// fault model this is float-identical to happy-path pricing, so
    /// fault-aware schedulers degrade gracefully to the fault-free
    /// mesh's schedules.
    pub fn price_faults(mut self, on: bool) -> Self {
        self.price_faults = on;
        self
    }

    /// Price scripted scenarios (builder-style): every `Td` estimate
    /// becomes the Monte-Carlo `E[Td]` of [`ScenarioPricing`] — death
    /// frequency drawn over the replication seed stream at the
    /// executor's pull numbering, dark-at-clock sources presumed dead
    /// in both branches, degraded sources slowed. Supersedes
    /// [`EstimationContext::price_faults`] when set.
    pub fn scenario_pricing(mut self, pricing: Option<ScenarioPricing>) -> Self {
        self.scenario = pricing;
        // The memo is keyed on (pull, primary) under one fixed pricing;
        // rebinding the pricing invalidates every cached count.
        self.fatal_memo.get_mut().clear();
        self
    }

    /// Open a new deployment wave (stage barrier): route contention
    /// resets, peers re-advertise their caches, and (under scenario
    /// pricing) the clock advances past the previous wave — its longest
    /// pull, then each member's transfer and processing phase in commit
    /// order — mirroring the jitter-free executor's barrier arithmetic
    /// bit for bit.
    ///
    /// With peer sharing on, every device's view is rebuilt from the
    /// estimated caches through the executor's own barrier step,
    /// [`deep_simulator::PeerPlane::barrier`]: one gossip round under
    /// gossip discovery, then the views. Each holder's source is built
    /// once and shared by every device that sees it.
    pub fn begin_wave(&mut self) {
        self.clock += self.wave_peak;
        self.wave_peak = Seconds::ZERO;
        for (tc, tp) in self.wave_exec.drain(..) {
            self.clock += tc;
            self.clock += tp;
        }
        self.route_load.clear();
        // The new views never read the old ones: free them first, so a
        // fleet's barrier holds one set of views at a time.
        self.peers = PeerViews::default();
        if self.peer_sharing {
            let caches: Vec<&LayerCache> = self.caches.iter().collect();
            self.peers =
                self.testbed.peer_plane.barrier(self.gossip.as_mut(), &caches, 0..caches.len());
        }
    }

    /// Walk the application in barrier order: open every wave with
    /// [`EstimationContext::begin_wave`], then commit each member, in
    /// order, at the placement `decide` returns for it in the walk's
    /// state. Returns every member's placement, indexed by id, or `None`
    /// at the first member `decide` places nowhere.
    ///
    /// A member's payoff depends only on the placements committed before
    /// it, so `decide` prices every cell of a member exactly as the
    /// walked profile would.
    pub(crate) fn walk(
        mut self,
        mut decide: impl FnMut(&Self, MicroserviceId) -> Option<Placement>,
    ) -> Option<Vec<Placement>> {
        for stage in stages(self.app) {
            self.begin_wave();
            for &id in &stage.members {
                let placement = decide(&self, id)?;
                self.commit(id, placement);
            }
        }
        self.assigned.into_iter().collect()
    }

    /// The testbed's registry-side strategy space (every full registry in
    /// the mesh — the paper pair plus any regional mirrors), owned, so a
    /// caller can keep it across the walk's `&mut` steps.
    pub fn registry_choices(&self) -> Vec<RegistryChoice> {
        self.registries.clone()
    }

    /// [`EstimationContext::registry_choices`], borrowed: the stage games
    /// read it once per member.
    pub(crate) fn registries(&self) -> &[RegistryChoice] {
        &self.registries
    }

    /// Predict `(Td, Tc, Tp, EC)` for assigning `id` to
    /// `(registry, device)` given everything committed so far.
    ///
    /// Panics if the image is not published or a producer is uncommitted —
    /// both are scheduler bugs, not runtime conditions.
    pub fn estimate(
        &self,
        id: MicroserviceId,
        registry: RegistryChoice,
        device: DeviceId,
    ) -> Estimate {
        let ms = self.app.microservice(id);
        let dev = self.testbed.device(device);
        // The executor realises the same mesh under the same route loads,
        // so this estimate and its measurement agree bit for bit (under
        // fault pricing: in expectation over the injected fault plans).
        let model = &self.testbed.fault_model;
        let pull =
            self.cell_pull(id, registry, device, self.price_faults || self.scenario.is_some());
        let cache = &self.caches[device.0];
        let (outcome, td) = match self.scenario {
            Some(pricing) => {
                // Sources scripted dark at the wave clock are gone for this
                // pull whatever their mesh role — exactly what a session
                // injecting the executor's plan at that clock realises.
                let dark: Vec<RegistryId> = pull
                    .mesh
                    .sources()
                    .map(|s| s.id())
                    .filter(|&id| id != pull.primary && model.dark_at(id, self.clock))
                    .collect();
                self.expected_td(&pull, cache, &dark, || {
                    self.death_frequency(pricing, pull.primary)
                })
            }
            None if self.price_faults => {
                self.expected_td(&pull, cache, &[], || model.rates(pull.primary).fatal_per_pull)
            }
            None => {
                let outcome = pull.estimate(cache, []).expect("catalog images resolve");
                let td = outcome.deployment_time();
                (outcome, td)
            }
        };
        let tc = self.transfer_in_time(id, device);
        let tp = dev.processing_time(self.app.name(), &ms.name, ms.requirements.cpu);
        let ec = dev.energy(self.app.name(), &ms.name, td, tc, tp);
        Estimate { td, tc, tp, ec, downloaded: outcome.downloaded }
    }

    /// `Tc`: the time `id`'s incoming flows take from their committed
    /// producers to `device` ([`Testbed::transfer_in_time`]).
    fn transfer_in_time(&self, id: MicroserviceId, device: DeviceId) -> Seconds {
        self.testbed.transfer_in_time(self.app, id, device, |from| {
            self.assigned[from.0].unwrap_or_else(|| panic!("producer {from} uncommitted")).device
        })
    }

    /// An admissible lower bound on
    /// `self.estimate(id, registry, device).ec` for one cell.
    #[cfg(test)]
    pub(crate) fn energy_floor(
        &self,
        id: MicroserviceId,
        registry: RegistryChoice,
        device: DeviceId,
    ) -> f64 {
        let mut member = MemberFloors::default();
        self.member_floors(id, &mut member);
        let mut row = vec![0.0; self.registries.len()];
        self.energy_floors(&member, device, &mut row);
        let r = self.registries.iter().position(|&c| c == registry).expect("a mesh registry");
        row[r]
    }

    /// Fill `member` with `id`'s floor inputs in the walk's current
    /// state, for [`EstimationContext::energy_floors`]: for each memoized
    /// manifest of `id` (one per registry and platform), which layers are
    /// *held* and how many bytes are held or registry-only.
    ///
    /// A layer is held when some testbed device caches it or some
    /// committed pull's manifest carries it. Every peer source the
    /// estimator registers is built at a wave barrier from the estimated
    /// caches: a holder's cache, their union (the aggregate plane) or a
    /// gossip advertisement of a holder's cache. The estimated caches
    /// start as the testbed's and only commits add layers, each from its
    /// pull's manifest. So every layer a peer advertises is held, even one
    /// its holder has since evicted, which a stale advertisement keeps
    /// offering. A commit of an unmemoized manifest marks every layer
    /// held. Without peer sharing there is no peer source, so no layer is
    /// held.
    pub(crate) fn member_floors(&self, id: MicroserviceId, member: &mut MemberFloors) {
        member.id = Some(id);
        member.manifests.clear();
        member.held.clear();
        let landed = |digest: &Digest| {
            self.landed_unindexed
                || self
                    .landed
                    .iter()
                    .any(|&k| self.resolved[k].manifest.layers.iter().any(|l| l.digest == *digest))
        };
        for &registry in &self.registries {
            for &arch in &self.platforms {
                let entry = self.memo(registry, id, arch).map(|k| {
                    let resolved = &self.resolved[k];
                    let flags = member.held.len();
                    let (mut held, mut registry_only) = (DataSize::ZERO, DataSize::ZERO);
                    for (layer, &resident) in
                        resolved.manifest.layers.iter().zip(&resolved.resident)
                    {
                        let is_held = self.peer_sharing && (resident || landed(&layer.digest));
                        member.held.push(is_held);
                        if is_held {
                            held += layer.size;
                        } else {
                            registry_only += layer.size;
                        }
                    }
                    ManifestFloor { resolved: k, flags, held, registry_only }
                });
                member.manifests.push(entry);
            }
        }
    }

    /// Write into `out[r]` an admissible lower bound on
    /// `self.estimate(id, registries[r], device).ec`, in joules, over the
    /// context's registries, for one device row of `member`'s payoff grid
    /// ([`EstimationContext::member_floors`] of `id`).
    ///
    /// The floor prices only the `Td` every pricing branch must pay. The
    /// bytes missing from the device's estimated cache (the layers of the
    /// memoized manifest it does not contain) are source-independent, and
    /// every branch downloads and extracts exactly them: the happy pull,
    /// the closed-form failover and each scenario draw alike. They split
    /// into *held* bytes, which some peer source could serve, and
    /// *registry-only* bytes, which no peer source advertises (see
    /// [`EstimationContext::member_floors`]). A session moves each bucket
    /// sequentially over its own source's route, so the download time is
    /// the sum of the buckets' transfer times. A registry-only byte rides
    /// a registry route, and any byte rides at best the fastest route
    /// that could carry it. The pull also pays at least its primary's
    /// overhead, and backoff is never negative. So
    /// `Td ≥ overhead(primary) + missing/extract_bw + held/B_all +
    /// registry_only/B_reg`, where `B_reg` is the fastest *unloaded*
    /// route into the device from any registry (standbys included) and
    /// `B_all` the faster of `B_reg` and, with peer sharing, the fastest
    /// unloaded route from a holder in the device's view: contention and
    /// degradation windows only slow a route. Every branch bounds from
    /// below, so any mix of branches does too, and energy is nondecreasing
    /// in `Td`. `Tc` and `Tp` are the estimate's own. A relative slack
    /// absorbs float rounding.
    ///
    /// A cell whose manifest was not memoized floors at `−∞`, so it is
    /// always priced exactly and keeps the per-call resolve's error path.
    pub(crate) fn energy_floors(&self, member: &MemberFloors, device: DeviceId, out: &mut [f64]) {
        /// Relative slack between the floor and any exact estimate.
        const SLACK: f64 = 1e-9;
        debug_assert_eq!(self.registries.len(), out.len());
        let id = member.id.expect("member floors are built");
        let dev = self.testbed.device(device);
        let unloaded = |choice| self.testbed.source_params(choice, device, 1.0);
        let fastest = |a: Bandwidth, b: Bandwidth| if b > a { b } else { a };
        let b_reg = self
            .registries
            .iter()
            .map(|&choice| unloaded(choice).download_bw)
            .fold(Bandwidth::default(), fastest);
        let b_all = self
            .peers
            .of(device)
            .map(|(holder, _)| unloaded(RegistryChoice::mesh(*holder)).download_bw)
            .fold(b_reg, fastest);
        let tc = self.transfer_in_time(id, device);
        let ms = self.app.microservice(id);
        let tp = dev.processing_time(self.app.name(), &ms.name, ms.requirements.cpu);
        let watts = dev.process_watts(self.app.name(), &ms.name);
        let cache = &self.caches[device.0];
        let platform =
            self.platforms.iter().position(|&a| a == dev.arch).expect("a fleet platform");
        let entries = member.manifests.iter().skip(platform).step_by(self.platforms.len());
        for ((slot, &registry), entry) in out.iter_mut().zip(&self.registries).zip(entries) {
            let Some(m) = entry else {
                *slot = f64::NEG_INFINITY;
                continue;
            };
            let (held, registry_only) = if cache.is_empty() {
                (m.held, m.registry_only)
            } else {
                let layers = &self.resolved[m.resolved].manifest.layers;
                let flags = &member.held[m.flags..m.flags + layers.len()];
                let mut split = (DataSize::ZERO, DataSize::ZERO);
                for (layer, &held) in layers.iter().zip(flags) {
                    if cache.contains(&layer.digest) {
                        continue;
                    }
                    if held {
                        split.0 += layer.size;
                    } else {
                        split.1 += layer.size;
                    }
                }
                split
            };
            let td = unloaded(registry).overhead
                + deep_netsim::transfer_time(held + registry_only, dev.extract_bw)
                + deep_netsim::transfer_time(held, b_all)
                + deep_netsim::transfer_time(registry_only, b_reg);
            *slot = dev.phase_energy(watts, td, tc, tp).as_f64() * (1.0 - SLACK);
        }
    }

    /// The `(happy outcome, E[Td])` of one cell under fault pricing:
    /// `E[Td] = (1−p)·(Td_happy + B_happy) + p·(Td_failover + B_failover)`,
    /// where both branches presume the `dark` sources dead, the failover
    /// branch also the primary (re-planning its layers onto the
    /// surviving mesh, exactly the fault-injecting executor's failover),
    /// and `B` is the closed-form expected retry backoff of the transient
    /// channel. The failover branch also pays the death-detection cost:
    /// the exhausted retry budget the session burns before declaring the
    /// primary dead (`RetryPolicy::exhausted_backoff`).
    ///
    /// `p` is the primary's death probability, asked for only when the
    /// primary would serve bytes: a fully-cached or fully-peer-served
    /// pull never touches the primary's data plane, so its death goes
    /// unnoticed and costs nothing.
    fn expected_td(
        &self,
        pull: &CellPull<'_>,
        cache: &LayerCache,
        dark: &[RegistryId],
        p: impl FnOnce() -> f64,
    ) -> (PullOutcome, Seconds) {
        let model = &self.testbed.fault_model;
        let dark = dark.iter().copied();
        let happy = pull.estimate(cache, dark.clone()).expect("survivors cover the catalog");
        let expected_happy = happy.deployment_time() + model.expected_transient_backoff(&happy);
        let primary_serves = happy.per_source.iter().any(|b| b.source == pull.primary);
        let p = if primary_serves { p() } else { 0.0 };
        let td = if p == 0.0 {
            expected_happy
        } else {
            let failover = pull
                .estimate(cache, std::iter::once(pull.primary).chain(dark))
                .expect("survivors cover the catalog");
            let expected_failover = failover.deployment_time()
                + model.expected_transient_backoff(&failover)
                + model.retry.exhausted_backoff();
            Seconds::new((1.0 - p) * expected_happy.as_f64() + p * expected_failover.as_f64())
        };
        (happy, td)
    }

    /// The scenario-priced death probability of `primary` for the next
    /// committed pull (see [`ScenarioPricing`]).
    fn death_frequency(&self, pricing: ScenarioPricing, primary: RegistryId) -> f64 {
        let model = &self.testbed.fault_model;
        if model.dark_at(primary, self.clock) {
            // Scripted, not sampled: every replication hits the window.
            1.0
        } else if model.rates(primary).fatal_per_pull == 0.0 {
            0.0
        } else {
            // The *empirical* death frequency of this pull number over
            // the exact fault plans the scenario's replications draw —
            // simulation in the loop, not the analytic rate. Batched
            // through `FaultModel::fatal_draws` (same keyed hash
            // chain as a per-draw plan walk, bit-identical, minus
            // `draws` clones of the rate tables) and memoized per
            // `(pull, primary)`: every candidate device of one member
            // shares the count.
            let draws = pricing.draws.max(1);
            let fatal = *self
                .fatal_memo
                .borrow_mut()
                .entry((self.pulls_committed, primary))
                .or_insert_with(|| {
                    model.fatal_draws(pricing.seed, draws, self.pulls_committed, primary)
                });
            f64::from(fatal) / f64::from(draws)
        }
    }

    /// The happy-path pull plan of one candidate assignment: the
    /// per-source byte buckets a session would fetch through the same mesh
    /// [`EstimationContext::estimate`] prices (no standbys, no fault
    /// weighting, cache untouched).
    fn session_plan(
        &self,
        id: MicroserviceId,
        registry: RegistryChoice,
        device: DeviceId,
    ) -> Result<PullOutcome, RegistryError> {
        self.cell_pull(id, registry, device, false).estimate(&self.caches[device.0], [])
    }

    /// Build one cell's [`CellPull`]: the memoized reference and manifest
    /// when warm (the catalog reference, resolved per call, otherwise),
    /// the device's peer view, the route loads and, under scenario
    /// pricing, the degradation windows at the wave clock. `standbys`
    /// adds every other full registry as a failover target.
    ///
    /// Panics if the image is not published — a scheduler bug, not a
    /// runtime condition.
    fn cell_pull(
        &self,
        id: MicroserviceId,
        registry: RegistryChoice,
        device: DeviceId,
        standbys: bool,
    ) -> CellPull<'_> {
        let testbed = self.testbed;
        let dev = testbed.device(device);
        let (reference, preresolved) =
            match self.memo(registry, id, dev.arch).map(|k| &self.resolved[k]) {
                Some(r) => (r.reference, Some(&*r.manifest)),
                None => {
                    let entry = self.entries[id.0].unwrap_or_else(|| {
                        let name = &self.app.microservice(id).name;
                        panic!("no image published for {}/{name}", self.app.name())
                    });
                    (testbed.reference(entry, registry, dev.arch), None)
                }
            };
        // Under scenario pricing, scripted degradation windows slow the
        // affected sources at the wave clock, as they slow the executor's.
        let windows = self.scenario.map(|_| (&testbed.fault_model, self.clock));
        let placement = Placement { registry, device };
        let mesh =
            testbed.placement_mesh(placement, &self.peers, &self.route_load, windows, standbys);
        CellPull {
            mesh,
            primary: registry.registry_id(),
            reference,
            preresolved,
            extract_bw: dev.extract_bw,
            arch: dev.arch,
        }
    }

    /// The `(source, downloaded)` buckets of the cell's session plan,
    /// in bucket order, written into `out`: all a wave game reads of a
    /// plan.
    ///
    /// A *sole-source* cell skips the session. Its manifest is memoized,
    /// and every layer the device's estimated cache lacks is advertised
    /// by its primary and by no entry of the device's peer view. The
    /// session plans each missing layer onto the cheapest source that has
    /// it, and the plan's mesh holds no standby and presumes no source
    /// dead, so the primary is the only candidate for every missing layer
    /// whatever the bandwidths, contention and windows. The plan is then one primary bucket of the missing bytes,
    /// or no bucket when nothing is missing. Every other cell runs
    /// `plan`'s session and returns its error unchanged.
    pub(crate) fn plan_buckets(
        &self,
        id: MicroserviceId,
        registry: RegistryChoice,
        device: DeviceId,
        out: &mut Vec<(RegistryId, DataSize)>,
    ) -> Result<(), RegistryError> {
        out.clear();
        if let Some(missing) = self.sole_source_missing(id, registry, device) {
            if missing > DataSize::ZERO {
                out.push((registry.registry_id(), missing));
            }
            return Ok(());
        }
        let outcome = self.session_plan(id, registry, device)?;
        out.extend(outcome.per_source.iter().map(|b| (b.source, b.downloaded)));
        Ok(())
    }

    /// The bytes the device is missing when the cell is sole-source (see
    /// [`EstimationContext::plan_buckets`]), `None` otherwise.
    fn sole_source_missing(
        &self,
        id: MicroserviceId,
        registry: RegistryChoice,
        device: DeviceId,
    ) -> Option<DataSize> {
        let arch = self.testbed.device(device).arch;
        let resolved = &self.resolved[self.memo(registry, id, arch)?];
        let primary = self.testbed.registry(registry);
        let mut missing = DataSize::ZERO;
        for layer in missing_layers(&resolved.manifest, &self.caches[device.0]) {
            if !primary.has_blob(&layer.digest)
                || self.peers.of(device).any(|(_, peer)| peer.has_blob(&layer.digest))
            {
                return None;
            }
            missing += layer.size;
        }
        Some(missing)
    }

    /// Commit an assignment: realise the pull against the estimated cache
    /// and charge each split-pull bucket to the route that carried it.
    ///
    /// Commits always realise the *happy-path* pull (the modal branch):
    /// failover changes which routes carry a pull's bytes, not which
    /// layers land in the cache, so downstream cache state is exact and
    /// only the contention carried into later same-wave estimates is the
    /// happy-path one.
    pub fn commit(&mut self, id: MicroserviceId, placement: Placement) {
        let ms = self.app.microservice(id);
        let dev = self.testbed.device(placement.device);
        // The pull fills the device's estimated cache while its mesh reads
        // the rest of the context: take the cache out for the pull, as
        // the executor does.
        let slot = placement.device.0;
        let mut cache = std::mem::replace(&mut self.caches[slot], LayerCache::new(DataSize::ZERO));
        let outcome = self
            .cell_pull(id, placement.registry, placement.device, false)
            .pull(&mut cache)
            .expect("catalog images resolve");
        self.caches[slot] = cache;
        self.route_load.charge_pull(
            self.testbed.params.contention_threshold,
            &outcome,
            placement.device,
        );
        if self.scenario.is_some() {
            // Clock inputs for the next barrier: the wave spans its
            // longest pull, then the members' transfer and processing
            // phases run serially — the jitter-free executor's
            // arithmetic on the happy path.
            self.wave_peak = self.wave_peak.max(outcome.deployment_time());
            let tp = dev.processing_time(self.app.name(), &ms.name, ms.requirements.cpu);
            let tc = self.transfer_in_time(id, placement.device);
            self.wave_exec.push((tc, tp));
        }
        match self.memo(placement.registry, id, dev.arch) {
            Some(k) => self.landed.push(k),
            None => self.landed_unindexed = true,
        }
        self.assigned[id.0] = Some(placement);
        self.pulls_committed += 1;
    }

    /// Admissible devices for a microservice.
    pub fn admissible_devices(&self, id: MicroserviceId) -> Vec<DeviceId> {
        let mut out = Vec::new();
        self.admissible_devices_into(id, &mut out);
        out
    }

    /// [`EstimationContext::admissible_devices`] into a caller-owned
    /// buffer — the fleet-scale solve loop re-filters per member per
    /// round and must not allocate in steady state.
    pub(crate) fn admissible_devices_into(&self, id: MicroserviceId, out: &mut Vec<DeviceId>) {
        let req = &self.app.microservice(id).requirements;
        out.clear();
        out.extend(self.testbed.devices.iter().filter(|d| d.admits(req)).map(|d| d.id));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::calibration::calibrated_testbed;
    use deep_dataflow::apps;
    use deep_simulator::{DEVICE_MEDIUM, DEVICE_SMALL};

    impl EstimationContext<'_> {
        /// The full session plan of one candidate assignment, the
        /// reference `plan_buckets` is pinned to.
        pub(crate) fn plan(
            &self,
            id: MicroserviceId,
            registry: RegistryChoice,
            device: DeviceId,
        ) -> deep_registry::PullOutcome {
            self.session_plan(id, registry, device).expect("catalog images resolve")
        }
    }

    /// The id of the microservice of `app` called `name`.
    pub(crate) fn named(app: &Application, name: &str) -> MicroserviceId {
        app.ids().find(|&id| app.microservice(id).name == name).unwrap()
    }

    #[test]
    fn estimates_match_executor_for_a_fixed_schedule() {
        // The whole point of the context: scheduler predictions must equal
        // jitter-free executor measurements.
        let mut tb = calibrated_testbed();
        let app = apps::text_processing();
        let schedule =
            deep_simulator::Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        // Predict.
        let mut predictions = Vec::new();
        {
            let ctx_tb = &tb;
            let mut ctx = EstimationContext::new(ctx_tb, &app);
            for stage in deep_dataflow::stages(&app) {
                ctx.begin_wave();
                for &id in &stage.members {
                    let est = ctx.estimate(id, RegistryChoice::Hub, DEVICE_MEDIUM);
                    ctx.commit(
                        id,
                        Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM },
                    );
                    predictions.push(est);
                }
            }
        }
        // Execute.
        let (report, _) = deep_simulator::execute(
            &mut tb,
            &app,
            &schedule,
            &deep_simulator::ExecutorConfig::default(),
        )
        .unwrap();
        for (est, measured) in predictions.iter().zip(&report.microservices) {
            assert!(
                (est.td.as_f64() - measured.td.as_f64()).abs() < 1e-9,
                "{}: td {} vs {}",
                measured.name,
                est.td,
                measured.td
            );
            assert!((est.tp.as_f64() - measured.tp.as_f64()).abs() < 1e-9);
            assert!((est.tc.as_f64() - measured.tc.as_f64()).abs() < 1e-9);
            assert!(
                (est.ec.as_f64() - measured.energy.as_f64()).abs() < 1e-6,
                "{}: ec {} vs {}",
                measured.name,
                est.ec,
                measured.energy
            );
        }
    }

    #[test]
    fn estimates_match_executor_with_peer_sharing() {
        // The mesh-parity contract for split pulls: a peer-aware context
        // must predict exactly what a `peer_sharing` executor measures,
        // including which layers ride the peer route.
        let mut tb = crate::continuum::continuum_testbed();
        let app = apps::video_processing();
        let cfg = deep_simulator::ExecutorConfig::default();
        // Warm the fleet: the medium device deploys the app first.
        let warm = deep_simulator::Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        deep_simulator::execute(&mut tb, &app, &warm, &cfg).unwrap();
        // Predict a cloud deployment with peer sharing.
        let schedule = deep_simulator::Schedule::uniform(
            app.len(),
            RegistryChoice::Hub,
            deep_simulator::DEVICE_CLOUD,
        );
        let mut predictions = Vec::new();
        {
            let mut ctx = EstimationContext::new(&tb, &app).peer_sharing(true);
            for stage in deep_dataflow::stages(&app) {
                ctx.begin_wave();
                for &id in &stage.members {
                    let p = schedule.placement(id);
                    predictions.push(ctx.estimate(id, p.registry, p.device));
                    ctx.commit(id, p);
                }
            }
        }
        let peer_cfg = deep_simulator::ExecutorConfig { peer_sharing: true, ..cfg };
        let (report, _) = deep_simulator::execute(&mut tb, &app, &schedule, &peer_cfg).unwrap();
        // Non-vacuous: the fleet actually served bytes over peer links.
        assert!(
            report.peer_downloaded_mb() > 1_000.0,
            "peer links unused: {:?}",
            report.downloaded_by_source()
        );
        for (est, measured) in predictions.iter().zip(&report.microservices) {
            assert!(
                (est.td.as_f64() - measured.td.as_f64()).abs() < 1e-9,
                "{}: td {} vs {}",
                measured.name,
                est.td,
                measured.td
            );
            assert!((est.ec.as_f64() - measured.energy.as_f64()).abs() < 1e-6, "{}", measured.name);
        }
    }

    #[test]
    fn split_pulls_charge_each_source_route_not_the_primary() {
        // Regression for the layer-level contention fix: a pull whose
        // bytes all ride the peer route must not count as load on its
        // primary registry route. The second same-wave pull on that
        // registry route sees an uncontended download.
        let mut tb = crate::continuum::continuum_testbed();
        let app = apps::text_processing();
        // Warm ONLY tp-retrieve's layers onto the cloud device: the fleet
        // peer can serve retrieve but not decompress's unique layers.
        let entry = tb.entry("text-processing", "retrieve").unwrap().clone();
        let reference = tb.reference(&entry, RegistryChoice::Hub, deep_registry::Platform::Amd64);
        let mut warm_cache =
            deep_registry::LayerCache::new(deep_netsim::DataSize::gigabytes(1000.0));
        tb.pull_mesh(RegistryChoice::Hub, deep_simulator::DEVICE_CLOUD, 1.0)
            .session(RegistryChoice::Hub.registry_id())
            .pull(reference, deep_registry::Platform::Amd64, &mut warm_cache)
            .unwrap();
        tb.device_mut(deep_simulator::DEVICE_CLOUD).cache = warm_cache;

        // Deploy the text app onto the medium device, everything from the
        // hub, with peer sharing: retrieve (wave peer: cloud's cache) is
        // fully peer-served, decompress still needs the hub.
        let schedule =
            deep_simulator::Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        let cfg = deep_simulator::ExecutorConfig { peer_sharing: true, ..Default::default() };
        let (report, _) = deep_simulator::execute(&mut tb, &app, &schedule, &cfg).unwrap();

        let retrieve = report.metrics("retrieve").unwrap();
        assert!(
            retrieve.sources.iter().all(
                |s| deep_simulator::peer_holder(s.source) == Some(deep_simulator::DEVICE_CLOUD)
            ),
            "retrieve rides the cloud holder's link entirely: {:?}",
            retrieve.sources
        );
        // 140 MB over the peer at 80 MB/s + 1 s peer overhead + 25 s hub
        // (primary) overhead + extraction at 12.6 MB/s.
        let expected_retrieve = 140.0 / 80.0 + 1.0 + 25.0 + 140.0 / 12.6;
        assert!(
            (retrieve.td.as_f64() - expected_retrieve).abs() < 1e-9,
            "retrieve td {} vs {expected_retrieve}",
            retrieve.td
        );
        // decompress: python:3.9-slim already cached by retrieve's pull on
        // this device; zlib stack (640 MB) + app (20 MB) from the hub at
        // the UNCONTENDED 13 MB/s — the peer-served retrieve charged the
        // peer route, not the hub route. (The seed accounting would have
        // charged the hub and slowed this to 660·1.1/13.)
        let decompress = report.metrics("decompress").unwrap();
        let expected_decompress = 660.0 / 13.0 + 660.0 / 12.6 + 25.0;
        assert!(
            (decompress.td.as_f64() - expected_decompress).abs() < 1e-9,
            "decompress td {} vs uncontended {expected_decompress}",
            decompress.td
        );
    }

    #[test]
    fn cache_state_lowers_sibling_estimates() {
        let tb = calibrated_testbed();
        let app = apps::video_processing();
        let mut ctx = EstimationContext::new(&tb, &app);
        // Walk to the training stage.
        for stage in deep_dataflow::stages(&app).iter().take(2) {
            ctx.begin_wave();
            for &id in &stage.members {
                ctx.commit(id, Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM });
            }
        }
        ctx.begin_wave();
        let ha = named(&app, "ha-train");
        let la = named(&app, "la-train");
        let before = ctx.estimate(la, RegistryChoice::Hub, DEVICE_MEDIUM);
        ctx.commit(ha, Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM });
        let after = ctx.estimate(la, RegistryChoice::Hub, DEVICE_MEDIUM);
        assert!(after.downloaded < before.downloaded, "sibling layers cached");
        // Contention partially offsets dedup but dedup dominates here.
        assert!(after.td < before.td);
    }

    #[test]
    fn contention_raises_same_route_estimates() {
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let decompress = named(&app, "decompress");
        let retrieve = named(&app, "retrieve");
        // Context A: retrieve committed on the hub→medium route (congests
        // it). Context B: retrieve committed regionally (hub route free).
        // Both cache the shared python:3.9-slim base, so the pulls move
        // identical bytes — only contention differs.
        let estimate_with = |retrieve_registry| {
            let mut ctx = EstimationContext::new(&tb, &app);
            ctx.begin_wave();
            ctx.commit(retrieve, Placement { registry: retrieve_registry, device: DEVICE_MEDIUM });
            ctx.estimate(decompress, RegistryChoice::Hub, DEVICE_MEDIUM)
        };
        let contended = estimate_with(RegistryChoice::Hub);
        let free = estimate_with(RegistryChoice::Regional);
        assert_eq!(contended.downloaded, free.downloaded);
        assert!(
            contended.td > free.td,
            "shared route must be slower: {} vs {}",
            contended.td,
            free.td
        );
    }

    #[test]
    fn wave_boundaries_clear_contention() {
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let mut ctx = EstimationContext::new(&tb, &app);
        ctx.begin_wave();
        let retrieve = named(&app, "retrieve");
        ctx.commit(
            retrieve,
            Placement { registry: RegistryChoice::Regional, device: DEVICE_SMALL },
        );
        let decompress = named(&app, "decompress");
        let contended = ctx.estimate(decompress, RegistryChoice::Regional, DEVICE_SMALL);
        ctx.begin_wave();
        let fresh = ctx.estimate(decompress, RegistryChoice::Regional, DEVICE_SMALL);
        assert!(fresh.td < contended.td, "barrier resets route load");
    }

    #[test]
    fn fault_pricing_is_the_two_branch_expectation_exactly() {
        use deep_registry::{FaultModel, FaultRates, RetryPolicy};
        use deep_simulator::RegistryChoice;

        let p = 0.2;
        let q = 0.15;
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: deep_netsim::Seconds::new(10.0),
            ..Default::default()
        };
        let mut tb = calibrated_testbed();
        tb.fault_model = FaultModel::default()
            .with_source(
                RegistryChoice::Regional.registry_id(),
                FaultRates { fatal_per_pull: p, transient_per_fetch: q },
            )
            .with_retry(policy);
        let app = apps::text_processing();
        let retrieve = named(&app, "retrieve");

        let priced = EstimationContext::new(&tb, &app)
            .price_faults(true)
            .estimate(retrieve, RegistryChoice::Regional, DEVICE_MEDIUM)
            .td;

        // Reconstruct both branches independently through the mesh API.
        let happy_ctx = EstimationContext::new(&tb, &app);
        let happy = happy_ctx.estimate(retrieve, RegistryChoice::Regional, DEVICE_MEDIUM);
        let entry = tb.entry("text-processing", "retrieve").unwrap().clone();
        let reference =
            tb.reference(&entry, RegistryChoice::Regional, deep_registry::Platform::Amd64);
        let mut mesh = tb.pull_mesh(RegistryChoice::Regional, DEVICE_MEDIUM, 1.0);
        mesh.add_standby_registry(
            RegistryChoice::Hub.registry_id(),
            tb.registry(RegistryChoice::Hub),
            tb.source_params(RegistryChoice::Hub, DEVICE_MEDIUM, 1.0),
        );
        let failover = PullSession::new(&mesh, RegistryChoice::Regional.registry_id())
            .extract_bw(tb.device(DEVICE_MEDIUM).extract_bw)
            .presume_dead(RegistryChoice::Regional.registry_id())
            .estimate(
                reference,
                deep_registry::Platform::Amd64,
                &deep_registry::LayerCache::new(deep_netsim::DataSize::gigabytes(64.0)),
            )
            .unwrap();
        assert!(
            failover.per_source.iter().all(|b| b.source == RegistryChoice::Hub.registry_id()),
            "failover branch rides the standby hub"
        );
        let model = &tb.fault_model;
        let b_happy = model.expected_transient_backoff(&happy_reconstruct(&tb, reference));
        let expected_happy = happy.td.as_f64() + b_happy.as_f64();
        let expected_failover = failover.deployment_time().as_f64()
            + model.expected_transient_backoff(&failover).as_f64()
            + policy.exhausted_backoff().as_f64();
        let expected = (1.0 - p) * expected_happy + p * expected_failover;
        assert!(
            (priced.as_f64() - expected).abs() < 1e-9,
            "E[Td] {priced} vs reconstructed {expected}"
        );
        // Non-vacuity: both channels raised the estimate.
        assert!(priced.as_f64() > happy.td.as_f64() + 1.0);
    }

    /// The happy-branch outcome of the reconstruction above (same pull,
    /// no standbys, no faults) — for its per-source fetch counts.
    fn happy_reconstruct(
        tb: &deep_simulator::Testbed,
        reference: &deep_registry::Reference,
    ) -> deep_registry::PullOutcome {
        tb.pull_mesh(RegistryChoice::Regional, DEVICE_MEDIUM, 1.0)
            .session(RegistryChoice::Regional.registry_id())
            .extract_bw(tb.device(DEVICE_MEDIUM).extract_bw)
            .estimate(
                reference,
                deep_registry::Platform::Amd64,
                &deep_registry::LayerCache::new(deep_netsim::DataSize::gigabytes(64.0)),
            )
            .unwrap()
    }

    #[test]
    fn scenario_pricing_is_float_identical_under_a_zero_model() {
        // No windows, zero rates: the Monte-Carlo path must collapse to
        // the happy path bit for bit, at every strategy of every wave —
        // the degradation clause multiplies by exactly 1.0 and p̂ = 0.
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let pricing = ScenarioPricing { draws: 16, seed: 3 };
        let mut plain = EstimationContext::new(&tb, &app);
        let mut priced = EstimationContext::new(&tb, &app).scenario_pricing(Some(pricing));
        for stage in deep_dataflow::stages(&app) {
            plain.begin_wave();
            priced.begin_wave();
            for &id in &stage.members {
                for registry in [RegistryChoice::Hub, RegistryChoice::Regional] {
                    for device in [DEVICE_MEDIUM, DEVICE_SMALL] {
                        let a = plain.estimate(id, registry, device);
                        let b = priced.estimate(id, registry, device);
                        assert_eq!(a.td.as_f64().to_bits(), b.td.as_f64().to_bits());
                        assert_eq!(a.ec.as_f64().to_bits(), b.ec.as_f64().to_bits());
                    }
                }
                let p = Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM };
                plain.commit(id, p);
                priced.commit(id, p);
            }
        }
    }

    #[test]
    fn scenario_pricing_prices_a_dark_primary_as_its_full_failover() {
        use deep_registry::{FaultModel, OutageWindow};
        let regional = RegistryChoice::Regional.registry_id();
        let mut tb = calibrated_testbed();
        tb.fault_model = FaultModel::default().with_window(OutageWindow::dark(
            regional,
            Seconds::ZERO,
            Seconds::new(1e6),
        ));
        let app = apps::text_processing();
        let retrieve = named(&app, "retrieve");
        let pricing = ScenarioPricing { draws: 4, seed: 9 };
        let priced = EstimationContext::new(&tb, &app)
            .scenario_pricing(Some(pricing))
            .estimate(retrieve, RegistryChoice::Regional, DEVICE_MEDIUM)
            .td;
        // The window is scripted, not sampled: p̂ = 1 and the estimate
        // IS the failover branch — hub re-fetch plus the exhausted
        // retry budget burnt declaring the regional dead.
        let entry = tb.entry("text-processing", "retrieve").unwrap().clone();
        let reference =
            tb.reference(&entry, RegistryChoice::Regional, deep_registry::Platform::Amd64);
        let mut mesh = tb.pull_mesh(RegistryChoice::Regional, DEVICE_MEDIUM, 1.0);
        mesh.add_standby_registry(
            RegistryChoice::Hub.registry_id(),
            tb.registry(RegistryChoice::Hub),
            tb.source_params(RegistryChoice::Hub, DEVICE_MEDIUM, 1.0),
        );
        let failover = PullSession::new(&mesh, regional)
            .extract_bw(tb.device(DEVICE_MEDIUM).extract_bw)
            .presume_dead(regional)
            .estimate(
                reference,
                deep_registry::Platform::Amd64,
                &deep_registry::LayerCache::new(deep_netsim::DataSize::gigabytes(64.0)),
            )
            .unwrap();
        let expected =
            failover.deployment_time().as_f64() + tb.fault_model.retry.exhausted_backoff().as_f64();
        assert!(
            (priced.as_f64() - expected).abs() < 1e-9,
            "dark-primary E[Td] {priced} vs failover reconstruction {expected}"
        );
        // The hub strategy is untouched: its standby regional is dark,
        // but the happy branch never planned it and p̂(hub) = 0.
        let hub_priced = EstimationContext::new(&tb, &app)
            .scenario_pricing(Some(pricing))
            .estimate(retrieve, RegistryChoice::Hub, DEVICE_MEDIUM)
            .td;
        let hub_plain = EstimationContext::new(&tb, &app)
            .estimate(retrieve, RegistryChoice::Hub, DEVICE_MEDIUM)
            .td;
        assert_eq!(hub_priced.as_f64().to_bits(), hub_plain.as_f64().to_bits());
    }

    #[test]
    fn scenario_pricing_draws_the_empirical_death_frequency() {
        use deep_registry::{FaultModel, FaultRates};
        let regional = RegistryChoice::Regional.registry_id();
        let mut tb = calibrated_testbed();
        tb.fault_model = FaultModel::default()
            .with_source(regional, FaultRates { fatal_per_pull: 0.5, transient_per_fetch: 0.0 });
        let app = apps::text_processing();
        let retrieve = named(&app, "retrieve");
        let pricing = ScenarioPricing { draws: 8, seed: 42 };
        // p̂ is the observed death frequency of pull #0 over the eight
        // plans the replications would draw — not the analytic 0.5.
        let fatal = (0..pricing.draws)
            .filter(|&d| tb.fault_model.plan(pricing.seed + u64::from(d)).pull_fatal(0, regional))
            .count();
        let p_hat = fatal as f64 / f64::from(pricing.draws);
        assert!(p_hat > 0.0 && p_hat < 1.0, "seed 42 draws a mixed sample: {p_hat}");
        let happy = EstimationContext::new(&tb, &app)
            .estimate(retrieve, RegistryChoice::Regional, DEVICE_MEDIUM)
            .td;
        let entry = tb.entry("text-processing", "retrieve").unwrap().clone();
        let reference =
            tb.reference(&entry, RegistryChoice::Regional, deep_registry::Platform::Amd64);
        let mut mesh = tb.pull_mesh(RegistryChoice::Regional, DEVICE_MEDIUM, 1.0);
        mesh.add_standby_registry(
            RegistryChoice::Hub.registry_id(),
            tb.registry(RegistryChoice::Hub),
            tb.source_params(RegistryChoice::Hub, DEVICE_MEDIUM, 1.0),
        );
        let failover = PullSession::new(&mesh, regional)
            .extract_bw(tb.device(DEVICE_MEDIUM).extract_bw)
            .presume_dead(regional)
            .estimate(
                reference,
                deep_registry::Platform::Amd64,
                &deep_registry::LayerCache::new(deep_netsim::DataSize::gigabytes(64.0)),
            )
            .unwrap();
        let expected = (1.0 - p_hat) * happy.as_f64()
            + p_hat
                * (failover.deployment_time().as_f64()
                    + tb.fault_model.retry.exhausted_backoff().as_f64());
        let priced = EstimationContext::new(&tb, &app)
            .scenario_pricing(Some(pricing))
            .estimate(retrieve, RegistryChoice::Regional, DEVICE_MEDIUM)
            .td;
        assert!(
            (priced.as_f64() - expected).abs() < 1e-9,
            "MC E[Td] {priced} vs reconstruction {expected} (p̂ = {p_hat})"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The pattern-memo differential: memoized scenario pricing must
        /// equal the naive per-draw plan loop float for float. The
        /// memoized `E[Td]` is reconstructed from first principles —
        /// `p̂` recounted with the PR 9 per-draw `FaultModel::plan` walk,
        /// the happy branch extracted from a fatal-free twin testbed,
        /// the failover branch from a dark-primary twin — under a
        /// jittered retry policy, a scripted dark window on the standby
        /// and a degradation window on the primary, across commits
        /// (fresh pull numbers re-enter the memo) and repeated
        /// estimates (warm hits must replay bit for bit).
        #[test]
        fn memoized_scenario_pricing_matches_the_naive_per_draw_loop(
            seed in proptest::prelude::any::<u64>(),
            draws in 1u32..48,
            fatal in 0.05f64..0.95,
        ) {
            use deep_registry::{FaultModel, FaultRates, OutageWindow, RetryPolicy};
            let regional = RegistryChoice::Regional.registry_id();
            let hub = RegistryChoice::Hub.registry_id();
            let retry = RetryPolicy {
                base_backoff: Seconds::new(0.5),
                jitter: 0.4,
                seed: seed ^ 0xA5A5,
                ..RetryPolicy::default()
            };
            let model = |primary_fatal: f64, primary_dark: bool| {
                // Both scripted channels exercised: the primary regional
                // is degraded over the early waves (and scripted fully
                // dark in the failover twin — the p̂ = 1 path), the
                // standby hub degraded too so the failover branch prices
                // through a windowed survivor. No window may take the
                // *standby* fully dark while the primary can die, or the
                // failover branch would have no survivors at all.
                let mut m = FaultModel::default()
                    .with_source(
                        regional,
                        FaultRates { fatal_per_pull: primary_fatal, transient_per_fetch: 0.2 },
                    )
                    .with_retry(retry)
                    .with_window(OutageWindow::degraded(hub, Seconds::ZERO, Seconds::new(5.0), 0.7))
                    .with_window(OutageWindow::degraded(
                        regional,
                        Seconds::ZERO,
                        Seconds::new(5.0),
                        0.5,
                    ));
                if primary_dark {
                    m = m.with_window(OutageWindow::dark(
                        regional,
                        Seconds::ZERO,
                        Seconds::new(1e9),
                    ));
                }
                m
            };
            let build = |primary_fatal: f64, primary_dark: bool| {
                let mut tb = calibrated_testbed();
                tb.fault_model = model(primary_fatal, primary_dark);
                tb
            };
            let tb = build(fatal, false);
            let tb_happy = build(0.0, false); // p = 0 ⇒ td IS the happy branch
            let tb_failover = build(fatal, true); // p = 1 ⇒ td IS the failover branch
            let app = apps::text_processing();
            let pricing = ScenarioPricing { draws, seed };
            let mut priced = EstimationContext::new(&tb, &app).scenario_pricing(Some(pricing));
            let mut happy = EstimationContext::new(&tb_happy, &app).scenario_pricing(Some(pricing));
            let mut failover =
                EstimationContext::new(&tb_failover, &app).scenario_pricing(Some(pricing));
            let mut pull = 0u64;
            for stage in deep_dataflow::stages(&app) {
                priced.begin_wave();
                happy.begin_wave();
                failover.begin_wave();
                for &id in &stage.members {
                    for device in [DEVICE_MEDIUM, DEVICE_SMALL] {
                        let est = priced.estimate(id, RegistryChoice::Regional, device);
                        let td = est.td;
                        // Warm memo hit: bit-for-bit replay.
                        let again = priced.estimate(id, RegistryChoice::Regional, device).td;
                        assert_eq!(td.as_f64().to_bits(), again.as_f64().to_bits());
                        let h = happy.estimate(id, RegistryChoice::Regional, device).td;
                        let f = failover.estimate(id, RegistryChoice::Regional, device).td;
                        let reconstructed = if est.downloaded == deep_netsim::DataSize::ZERO {
                            // Fully cached: the primary serves no bytes,
                            // its death is free, and every twin prices
                            // the identical happy branch.
                            h.as_f64()
                        } else {
                            // The naive PR 9 loop: one full plan per draw.
                            let count = (0..draws)
                                .filter(|&d| {
                                    tb.fault_model
                                        .plan(seed.wrapping_add(u64::from(d)))
                                        .pull_fatal(pull, regional)
                                })
                                .count();
                            let p_naive = count as f64 / f64::from(draws);
                            if p_naive == 0.0 {
                                h.as_f64()
                            } else {
                                (1.0 - p_naive) * h.as_f64() + p_naive * f.as_f64()
                            }
                        };
                        assert_eq!(
                            td.as_f64().to_bits(),
                            reconstructed.to_bits(),
                            "pull {pull} device {device:?}: memoized {td} vs naive {reconstructed}"
                        );
                    }
                    let p = Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM };
                    priced.commit(id, p);
                    happy.commit(id, p);
                    failover.commit(id, p);
                    pull += 1;
                }
            }
        }
    }

    #[test]
    fn the_estimator_clock_walks_past_a_short_window() {
        use deep_registry::{FaultModel, OutageWindow};
        // A one-second dark window on the regional registry: wave-0
        // regional pulls price their failover, but by the second wave
        // the clock (first wave's pull + transfer + processing spans)
        // has left the window and regional pricing is happy again.
        let regional = RegistryChoice::Regional.registry_id();
        let build = |windowed: bool| {
            let mut tb = calibrated_testbed();
            if windowed {
                tb.fault_model = FaultModel::default().with_window(OutageWindow::dark(
                    regional,
                    Seconds::ZERO,
                    Seconds::new(1.0),
                ));
            }
            tb
        };
        let app = apps::text_processing();
        let stages = deep_dataflow::stages(&app);
        let tb_w = build(true);
        let tb_z = build(false);
        let pricing = ScenarioPricing { draws: 4, seed: 0 };
        let mut windowed = EstimationContext::new(&tb_w, &app).scenario_pricing(Some(pricing));
        let mut zero = EstimationContext::new(&tb_z, &app).scenario_pricing(Some(pricing));
        windowed.begin_wave();
        zero.begin_wave();
        let first = stages[0].members[0];
        let inside_w = windowed.estimate(first, RegistryChoice::Regional, DEVICE_MEDIUM).td;
        let inside_z = zero.estimate(first, RegistryChoice::Regional, DEVICE_MEDIUM).td;
        assert!(inside_w > inside_z, "inside the window the failover branch prices in");
        for &id in &stages[0].members {
            let p = Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM };
            windowed.commit(id, p);
            zero.commit(id, p);
        }
        windowed.begin_wave();
        zero.begin_wave();
        let second = stages[1].members[0];
        let after_w = windowed.estimate(second, RegistryChoice::Regional, DEVICE_MEDIUM).td;
        let after_z = zero.estimate(second, RegistryChoice::Regional, DEVICE_MEDIUM).td;
        assert_eq!(
            after_w.as_f64().to_bits(),
            after_z.as_f64().to_bits(),
            "past the window the pricing is bit-identical to the zero model"
        );
    }

    /// The estimator's barrier clock equals the executor's, bit for bit:
    /// walking a `paper()` schedule under scenario pricing, the clock each
    /// barrier opens at is the stamp of the executor's previous
    /// `StageBarrierReleased` record (no faults, no jitter), on both case
    /// studies and 200 generated dataflows.
    #[test]
    fn estimator_barrier_clock_is_the_executors_bit_for_bit() {
        use crate::{DeepScheduler, Scheduler};
        use deep_simulator::{execute, ExecutorConfig, TraceKind};
        let mut tb = calibrated_testbed();
        let gen = deep_dataflow::DagGenerator::default();
        let apps = apps::case_studies().into_iter().chain((0..200).map(|seed| gen.generate(seed)));
        let mut barriers = 0;
        for app in apps {
            tb.publish_application(&app);
            tb.reset_caches();
            let schedule = DeepScheduler::paper().schedule(&app, &tb);
            let mut ctx = EstimationContext::new(&tb, &app)
                .scenario_pricing(Some(ScenarioPricing { draws: 1, seed: 0 }));
            let mut predicted = Vec::new();
            for stage in stages(&app) {
                ctx.begin_wave();
                predicted.push(ctx.clock);
                for &id in &stage.members {
                    ctx.commit(id, schedule.placement(id));
                }
            }
            ctx.begin_wave();
            predicted.push(ctx.clock);
            let (_, trace) = execute(&mut tb, &app, &schedule, &ExecutorConfig::default()).unwrap();
            let stamped: Vec<u64> = trace
                .of_kind(TraceKind::StageBarrierReleased)
                .map(|e| e.at.as_f64().to_bits())
                .collect();
            let predicted: Vec<u64> = predicted[1..].iter().map(|t| t.as_f64().to_bits()).collect();
            assert_eq!(predicted, stamped, "{}", app.name());
            barriers += stamped.len();
        }
        assert!(barriers > 800, "{barriers} barriers");
    }

    #[test]
    fn clock_and_pull_carry_over_shift_scenario_pricing_only() {
        use deep_registry::{FaultModel, OutageWindow};
        // A window over [100, 200): an admission at t = 0 prices the
        // happy path, the same admission at t = 150 prices the failover
        // — and with zero carry-over the builders are byte-identical to
        // the defaults.
        let regional = RegistryChoice::Regional.registry_id();
        let mut tb = calibrated_testbed();
        tb.fault_model = FaultModel::default().with_window(OutageWindow::dark(
            regional,
            Seconds::new(100.0),
            Seconds::new(100.0),
        ));
        let app = apps::text_processing();
        let retrieve = named(&app, "retrieve");
        let pricing = ScenarioPricing { draws: 4, seed: 0 };
        let priced_at = |clock: f64, pull: u64| {
            let mut ctx = EstimationContext::new(&tb, &app)
                .scenario_pricing(Some(pricing))
                .at_clock(Seconds::new(clock))
                .starting_pull(pull);
            ctx.begin_wave();
            ctx.estimate(retrieve, RegistryChoice::Regional, DEVICE_MEDIUM).td
        };
        let before = priced_at(0.0, 0);
        let inside = priced_at(150.0, 3);
        assert!(inside > before, "mid-window admissions price the failover: {inside} vs {before}");
        let default_ctx = {
            let mut ctx = EstimationContext::new(&tb, &app).scenario_pricing(Some(pricing));
            ctx.begin_wave();
            ctx.estimate(retrieve, RegistryChoice::Regional, DEVICE_MEDIUM).td
        };
        assert_eq!(
            before.as_f64().to_bits(),
            default_ctx.as_f64().to_bits(),
            "zero carry-over is the default bit for bit"
        );
    }

    /// A testbed for the energy-floor property: the calibrated pair,
    /// the continuum, the calibrated pair with two mirrors, a 40-device,
    /// 3-registry fleet with one warm holder, that fleet with small
    /// caches whose three holders cache only an unrelated dataflow's
    /// layers, or the calibrated pair with every device caching the
    /// `python:3.9-slim` base layer that the regional registry has lost.
    /// Every one gets a flaky regional, a degraded hub and a dark
    /// last registry, each window active over the whole walk.
    fn floor_testbed(kind: usize) -> Testbed {
        use deep_registry::{FaultModel, FaultRates, OutageWindow};
        let mut tb = match kind {
            0 => calibrated_testbed(),
            1 => crate::continuum::continuum_testbed(),
            2 => {
                let mut tb = calibrated_testbed();
                tb.add_regional_mirror(Bandwidth::megabytes_per_sec(9.0), Seconds::new(4.0));
                tb.add_regional_mirror(Bandwidth::megabytes_per_sec(11.0), Seconds::new(6.0));
                tb
            }
            4 => {
                // Peers are in view, but the walked case studies' own
                // layers are registry-only. The small caches make the
                // walk's commits evict layers that views still advertise
                // until the next barrier.
                let mut tb = crate::continuum::synthetic_fleet_testbed(40, 3, 17);
                apps::case_studies().iter().for_each(|app| tb.publish_application(app));
                let unrelated = deep_dataflow::DagGenerator {
                    stages: 2,
                    width: (2, 2),
                    image_gb: (0.3, 1.0),
                    ..deep_dataflow::DagGenerator::default()
                }
                .generate(7);
                tb.publish_application(&unrelated);
                for device in &mut tb.devices {
                    device.cache = LayerCache::new(DataSize::gigabytes(4.0));
                }
                let cfg = deep_simulator::ExecutorConfig::default();
                for device in [DEVICE_MEDIUM, deep_simulator::DEVICE_CLOUD, DeviceId(16)] {
                    let warm = deep_simulator::Schedule::uniform(
                        unrelated.len(),
                        RegistryChoice::Hub,
                        device,
                    );
                    deep_simulator::execute(&mut tb, &unrelated, &warm, &cfg).unwrap();
                }
                tb
            }
            5 => {
                // The regional cells of every image on this base lack a
                // layer that no pull misses: they are still sole-source.
                let mut tb = calibrated_testbed();
                let entry = tb.entry("text-processing", "retrieve").unwrap().clone();
                for device in &mut tb.devices {
                    let base = &entry.manifest(device.arch).layers[0];
                    device.cache.insert(base.digest.clone(), base.size);
                }
                for manifest in &entry.manifests {
                    tb.regional.delete_blob(&manifest.layers[0].digest).unwrap();
                }
                tb
            }
            _ => {
                let mut tb = crate::continuum::synthetic_fleet_testbed(40, 3, 11);
                apps::case_studies().iter().for_each(|app| tb.publish_application(app));
                let app = apps::video_processing();
                let warm = deep_simulator::Schedule::uniform(
                    app.len(),
                    RegistryChoice::Hub,
                    DEVICE_MEDIUM,
                );
                let cfg = deep_simulator::ExecutorConfig::default();
                deep_simulator::execute(&mut tb, &app, &warm, &cfg).unwrap();
                tb
            }
        };
        let hub = RegistryChoice::Hub.registry_id();
        let regional = RegistryChoice::Regional.registry_id();
        let last = tb.registry_choices().last().copied().expect("a mesh").registry_id();
        let forever = Seconds::new(1e9);
        tb.fault_model = FaultModel::default()
            .with_source(regional, FaultRates { fatal_per_pull: 0.3, transient_per_fetch: 0.1 })
            .with_window(OutageWindow::degraded(hub, Seconds::ZERO, forever, 0.5))
            .with_window(OutageWindow::dark(last, Seconds::ZERO, forever));
        tb
    }

    /// One sampled cell of a [`floor_walk`], with both walked contexts.
    struct FloorCell<'w, 't> {
        /// The context with every member's manifests prefetched.
        warm: &'w EstimationContext<'t>,
        /// An identically built context that never prefetched, walked in
        /// lockstep.
        cold: &'w EstimationContext<'t>,
        id: MicroserviceId,
        registry: RegistryChoice,
        device: DeviceId,
        /// The configuration and cell, for failure messages.
        at: String,
    }

    /// Walk every configuration of the estimator properties: each
    /// testbed of [`floor_testbed`] under happy, closed-form fault and
    /// scenario pricing, with peer sharing off, on with snapshot
    /// discovery and on with gossip. Each configuration builds two
    /// identical contexts, prefetches the manifests into one (`warm`) but
    /// not the other (`cold`) and walks both in lockstep,
    /// committing random placements so caches, contention, peer views and
    /// the clock all move. `cell` sees four random cells of every member
    /// before its commit; `committed` sees both contexts after it.
    fn floor_walk(
        seed: u64,
        mut cell: impl FnMut(&FloorCell<'_, '_>),
        mut committed: impl FnMut(&EstimationContext<'_>, &EstimationContext<'_>, &str),
    ) {
        let gossip =
            deep_simulator::PeerDiscovery::Gossip { fanout: 3, view_size: 8, rounds_per_wave: 1 };
        let mut state = seed;
        let mut draw = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let studies = apps::case_studies();
        for kind in 0..6 {
            let tb = floor_testbed(kind);
            for pricing in 0..3 {
                for peers in 0..3 {
                    let app = &studies[draw(2)];
                    let discovery =
                        if peers == 2 { gossip } else { deep_simulator::PeerDiscovery::Snapshot };
                    let build = || {
                        EstimationContext::new(&tb, app)
                            .peer_sharing(peers > 0)
                            .peer_discovery(discovery, seed)
                            .price_faults(pricing == 1)
                            .scenario_pricing(
                                (pricing == 2).then_some(ScenarioPricing { draws: 16, seed }),
                            )
                    };
                    let (mut warm, mut cold) = (build(), build());
                    for id in app.ids() {
                        warm.prefetch_manifests(id);
                    }
                    let registries = warm.registry_choices();
                    let config = format!("kind {kind} pricing {pricing} peers {peers}");
                    for stage in deep_dataflow::stages(app) {
                        warm.begin_wave();
                        cold.begin_wave();
                        for &id in &stage.members {
                            let devices = warm.admissible_devices(id);
                            for _ in 0..4 {
                                let registry = registries[draw(registries.len())];
                                let device = devices[draw(devices.len())];
                                let at = format!("{config} {id:?} on {registry}/{device:?}");
                                let (warm, cold) = (&warm, &cold);
                                cell(&FloorCell { warm, cold, id, registry, device, at });
                            }
                            let registry = registries[draw(registries.len())];
                            let device = devices[draw(devices.len())];
                            warm.commit(id, Placement { registry, device });
                            cold.commit(id, Placement { registry, device });
                            committed(&warm, &cold, &format!("{config} {id:?} committed"));
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// The energy floor never exceeds the exact estimate, at random
        /// cells along every [`floor_walk`]. A context without memoized
        /// manifests floors every cell at −∞.
        #[test]
        fn energy_floor_never_exceeds_the_estimate(seed in proptest::prelude::any::<u64>()) {
            let (mut tight, mut sharper) = (0usize, 0usize);
            floor_walk(
                seed,
                |c| {
                    let floor = c.warm.energy_floor(c.id, c.registry, c.device);
                    let exact = c.warm.estimate(c.id, c.registry, c.device).ec.as_f64();
                    assert!(floor <= exact, "{}: floor {floor} > exact {exact}", c.at);
                    tight += usize::from(floor >= 0.5 * exact);
                    sharper +=
                        usize::from(floor > all_routes_floor(c.warm, c.id, c.registry, c.device));
                    // An unmemoized manifest floors at −∞: always priced.
                    let cold = c.cold.energy_floor(c.id, c.registry, c.device);
                    assert_eq!(cold, f64::NEG_INFINITY, "{}", c.at);
                },
                |_, _, _| {},
            );
            // Non-vacuous: the floor is usually within 2× of the exact cost,
            // and registry-only bytes beat the all-routes rule somewhere.
            assert!(tight > 0, "every floor was below half its exact cost");
            assert!(sharper > 0, "no floor exceeded the all-routes rule");
        }

        /// Memoized manifests change no answer. Along every
        /// [`floor_walk`] the prefetched context and its unprefetched
        /// twin agree bit for bit on every field of every sampled
        /// estimate and on what every commit leaves behind, and
        /// [`EstimationContext::plan_buckets`] returns exactly the
        /// `(source, downloaded)` buckets of [`EstimationContext::plan`],
        /// whether it answered from the missing bytes (sole-source) or ran
        /// the session. Sole-source cells include ones whose primary lacks
        /// a layer the device already caches.
        #[test]
        fn prefetched_contexts_price_like_cold_ones_and_plan_like_sessions(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let bits = |e: Estimate| {
                (
                    e.td.as_f64().to_bits(),
                    e.tc.as_f64().to_bits(),
                    e.tp.as_f64().to_bits(),
                    e.ec.as_f64().to_bits(),
                    e.downloaded,
                )
            };
            let (mut sole, mut session, mut lacking) = (0usize, 0usize, 0usize);
            let mut buckets = Vec::new();
            floor_walk(
                seed,
                |c| {
                    let warm = c.warm.estimate(c.id, c.registry, c.device);
                    let cold = c.cold.estimate(c.id, c.registry, c.device);
                    assert_eq!(bits(warm), bits(cold), "{}", c.at);
                    c.warm
                        .plan_buckets(c.id, c.registry, c.device, &mut buckets)
                        .expect("catalog images resolve");
                    let want: Vec<_> = c
                        .warm
                        .plan(c.id, c.registry, c.device)
                        .per_source
                        .iter()
                        .map(|b| (b.source, b.downloaded))
                        .collect();
                    assert_eq!(buckets, want, "{}", c.at);
                    match c.warm.sole_source_missing(c.id, c.registry, c.device) {
                        Some(_) => {
                            sole += 1;
                            let arch = c.warm.testbed.device(c.device).arch;
                            let memo = c.warm.memo(c.registry, c.id, arch).expect("sole-source");
                            let primary = c.warm.testbed.registry(c.registry);
                            lacking += usize::from(
                                c.warm.resolved[memo]
                                    .manifest
                                    .layers
                                    .iter()
                                    .any(|l| !primary.has_blob(&l.digest)),
                            );
                        }
                        None => session += 1,
                    }
                },
                |warm, cold, at| assert_eq!(walk_state(warm), walk_state(cold), "{at}"),
            );
            // Both kinds of cell occur: peers holding missing layers (the
            // fleet's warm holder) send cells to the session.
            assert!(sole > 0 && session > 0, "{sole} sole-source cells, {session} session cells");
            assert!(lacking > 0, "no sole-source cell's primary lacked a cached layer");
        }
    }

    /// The all-routes floor, without the held / registry-only split: every
    /// missing byte at the fastest unloaded route into the device, over
    /// every registry and every holder in its view. Admissible, and never
    /// above [`EstimationContext::energy_floor`] but for rounding.
    fn all_routes_floor(
        ctx: &EstimationContext<'_>,
        id: MicroserviceId,
        registry: RegistryChoice,
        device: DeviceId,
    ) -> f64 {
        let dev = ctx.testbed.device(device);
        let unloaded = |choice| ctx.testbed.source_params(choice, device, 1.0);
        let ingress = ctx
            .registries
            .iter()
            .copied()
            .chain(ctx.peers.of(device).map(|(holder, _)| RegistryChoice::mesh(*holder)))
            .map(|choice| unloaded(choice).download_bw)
            .fold(Bandwidth::default(), |fastest, bw| if bw > fastest { bw } else { fastest });
        let resolved = &ctx.resolved[ctx.memo(registry, id, dev.arch).expect("prefetched")];
        let missing = missing_layers(&resolved.manifest, &ctx.caches[device.0])
            .fold(DataSize::ZERO, |acc, layer| acc + layer.size);
        let td = unloaded(registry).overhead
            + deep_netsim::transfer_time(missing, dev.extract_bw)
            + deep_netsim::transfer_time(missing, ingress);
        let ms = ctx.app.microservice(id);
        let tc = ctx.transfer_in_time(id, device);
        let tp = dev.processing_time(ctx.app.name(), &ms.name, ms.requirements.cpu);
        dev.energy(ctx.app.name(), &ms.name, td, tc, tp).as_f64() * (1.0 - 1e-9)
    }

    /// What commits leave in a context, bit for bit: every device's
    /// cached bytes and layer count, the charged route loads, the clock
    /// inputs, the pull numbering and the placements.
    #[allow(clippy::type_complexity)]
    fn walk_state(
        ctx: &EstimationContext<'_>,
    ) -> (Vec<(DataSize, usize)>, RouteLoads, Vec<u64>, u64, Vec<Option<Placement>>) {
        let caches = ctx.caches.iter().map(|c| (c.used(), c.len())).collect();
        let phases = ctx.wave_exec.iter().flat_map(|&(tc, tp)| [tc, tp]);
        let clock = [ctx.clock, ctx.wave_peak].into_iter().chain(phases);
        let clock = clock.map(|t| t.as_f64().to_bits()).collect();
        (caches, ctx.route_load.clone(), clock, ctx.pulls_committed, ctx.assigned.clone())
    }

    /// Every device's peer view: per source, its advertised and its
    /// retracted digests, each sorted.
    #[allow(clippy::type_complexity)]
    fn view_signature(
        views: &PeerViews,
        devices: usize,
    ) -> Vec<Vec<(RegistryId, Vec<Digest>, Vec<Digest>)>> {
        use deep_registry::BlobSource;
        let signature = |(id, source): &(RegistryId, deep_registry::PeerCacheSource)| {
            let mut advertised: Vec<Digest> = source.digests().cloned().collect();
            advertised.sort();
            let retracted =
                advertised.iter().filter(|d| source.fetch_blob(d).is_err()).cloned().collect();
            (*id, advertised, retracted)
        };
        (0..devices).map(|d| views.of(DeviceId(d)).map(signature).collect()).collect()
    }

    #[test]
    fn peer_views_open_with_the_first_wave_and_equal_the_planes_barrier() {
        let tb = floor_testbed(3);
        let app = apps::video_processing();
        let devices = tb.devices.len();
        let gossip =
            deep_simulator::PeerDiscovery::Gossip { fanout: 3, view_size: 8, rounds_per_wave: 1 };
        for discovery in [deep_simulator::PeerDiscovery::Snapshot, gossip] {
            let mut ctx =
                EstimationContext::new(&tb, &app).peer_sharing(true).peer_discovery(discovery, 7);
            assert!(
                (0..devices).all(|d| ctx.peers.of(DeviceId(d)).next().is_none()),
                "{discovery:?}: a peer source before the first wave"
            );
            // The reference: the testbed's plane over the same caches, with
            // a gossip plane seeded the same way.
            let mut plane = deep_simulator::GossipPlane::for_discovery(discovery, devices, 7);
            let (mut seen, mut next) = (0, 0);
            for stage in stages(&app) {
                ctx.begin_wave();
                let caches: Vec<&LayerCache> = ctx.caches.iter().collect();
                let want = tb.peer_plane.barrier(plane.as_mut(), &caches, 0..devices);
                let got = view_signature(&ctx.peers, devices);
                assert_eq!(got, view_signature(&want, devices), "{discovery:?}");
                seen += got.iter().map(Vec::len).sum::<usize>();
                for &id in &stage.members {
                    let admissible = ctx.admissible_devices(id);
                    let device = admissible[next % admissible.len()];
                    next += 7;
                    ctx.commit(id, Placement { registry: RegistryChoice::Hub, device });
                }
            }
            assert!(seen > 0, "{discovery:?}: no view ever held a peer source");
        }
    }

    #[test]
    fn a_registry_missing_a_blob_plans_through_the_session_and_keeps_its_error() {
        use deep_registry::ManifestSource;
        let mut tb = calibrated_testbed();
        let app = apps::text_processing();
        let retrieve = named(&app, "retrieve");
        let entry = tb.entry("text-processing", "retrieve").unwrap().clone();
        let arch = tb.device(DEVICE_MEDIUM).arch;
        let reference = tb.reference(&entry, RegistryChoice::Regional, arch);
        let lost = tb.regional.resolve(reference, arch).unwrap().layers[0].digest.clone();
        tb.regional.delete_blob(&lost).unwrap();
        let mut ctx = EstimationContext::new(&tb, &app);
        ctx.prefetch_manifests(retrieve);
        ctx.begin_wave();
        // The manifest still resolves, so it is memoized, but its registry
        // lacks a layer the device misses.
        assert!(ctx
            .sole_source_missing(retrieve, RegistryChoice::Regional, DEVICE_MEDIUM)
            .is_none());
        let mut buckets = Vec::new();
        let err = ctx
            .plan_buckets(retrieve, RegistryChoice::Regional, DEVICE_MEDIUM, &mut buckets)
            .unwrap_err();
        let session = tb
            .pull_mesh(RegistryChoice::Regional, DEVICE_MEDIUM, 1.0)
            .session(RegistryChoice::Regional.registry_id())
            .estimate(reference, arch, &tb.device(DEVICE_MEDIUM).cache)
            .unwrap_err();
        assert!(matches!(&err, RegistryError::MissingBlob(d) if *d == lost), "{err:?}");
        assert_eq!(format!("{err:?}"), format!("{session:?}"));
        // The hub still holds every layer: its cell stays sole-source.
        let hub = ctx.sole_source_missing(retrieve, RegistryChoice::Hub, DEVICE_MEDIUM);
        assert!(hub.is_some_and(|missing| missing > DataSize::ZERO));
        ctx.plan_buckets(retrieve, RegistryChoice::Hub, DEVICE_MEDIUM, &mut buckets).unwrap();
        assert_eq!(buckets, [(RegistryChoice::Hub.registry_id(), hub.unwrap())]);
    }

    #[test]
    fn admissibility_filters_devices() {
        let tb = calibrated_testbed();
        let app = apps::video_processing();
        let ctx = EstimationContext::new(&tb, &app);
        // ha-train needs 4 cores / 4 GB: both devices qualify.
        let ha = named(&app, "ha-train");
        assert_eq!(ctx.admissible_devices(ha).len(), 2);
    }

    #[test]
    fn tc_charged_only_across_devices() {
        let tb = calibrated_testbed();
        let app = apps::video_processing();
        let mut ctx = EstimationContext::new(&tb, &app);
        ctx.begin_wave();
        let transcode = named(&app, "transcode");
        ctx.commit(
            transcode,
            Placement { registry: RegistryChoice::Regional, device: DEVICE_SMALL },
        );
        ctx.begin_wave();
        let frame = named(&app, "frame");
        let cross = ctx.estimate(frame, RegistryChoice::Hub, DEVICE_MEDIUM);
        assert!((cross.tc.as_f64() - 3.0).abs() < 1e-9, "300 MB over 100 MB/s LAN");
        let colocated = ctx.estimate(frame, RegistryChoice::Hub, DEVICE_SMALL);
        assert_eq!(colocated.tc, Seconds::ZERO);
    }
}
