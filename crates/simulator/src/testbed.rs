//! The two-device, two-registry testbed of Section IV.
//!
//! Link parameters are calibrated so simulated deployment times land in the
//! neighbourhood of Table II's residual `Td ≈ CT − Tp` (see deep-core's
//! calibration module and EXPERIMENTS.md for the paper-vs-measured
//! accounting):
//!
//! * Effective docker-pull rates are far below nominal NIC speed — Docker
//!   Hub throttles per-client sessions and layer extraction is
//!   CPU/disk-bound. The hub pays a larger fixed negotiation overhead but
//!   sustains a higher stream rate to the well-connected medium device; the
//!   regional registry wins on overhead and on the small device (LAN
//!   locality, no throttling).
//! * The small device's SD-card extraction is slower than the medium's
//!   NVMe.
//!
//! Every link is derived from device class and [`TestbedParams`] (the
//! paper characterizes each channel by its bandwidth alone, `h_kj`):
//!
//! * a dataflow moves between two devices over the LAN, over the WAN when
//!   either end is a cloud-class device, and for free on one device
//!   ([`Testbed::device_bandwidth`]);
//! * the [`PeerPlane`] serves already-cached layers between devices at
//!   the uniform `peer_bw` with a `peer_overhead` per holder, except on
//!   the directed pairs a hot-peer scenario dents
//!   ([`Testbed::set_peer_link`], [`Testbed::set_peer_uplink`]).
//!   Per-holder peer sources get mesh ids from [`REGISTRY_PEER_BASE`] and
//!   contend on the serving device's uplink (see [`route_key`]).
//!
//! Both rules read [`TestbedParams`] live, so a testbed holds O(devices)
//! link state however large the fleet.

use crate::device::SimDevice;
use crate::gossip::GossipPlane;
use crate::schedule::{Placement, RegistryChoice};
use deep_dataflow::{Application, MicroserviceId, Mips};
use deep_energy::{DevicePowerModel, Watts};
use deep_netsim::{Bandwidth, DataSize, DeviceId, RegistryId, Seconds};
use deep_registry::{
    CatalogEntry, FaultModel, HubRegistry, LayerCache, PeerCacheSource, Platform, PullOutcome,
    Reference, RegionalRegistry, Registry, RegistryMesh, SourceParams,
};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Device id of the Intel i7-7700 "medium" device.
pub const DEVICE_MEDIUM: DeviceId = DeviceId(0);
/// Device id of the Raspberry Pi 4 "small" device.
pub const DEVICE_SMALL: DeviceId = DeviceId(1);
/// Device id of the cloud server in the continuum testbed
/// ([`Testbed::continuum`] only — the paper testbed has two devices).
pub const DEVICE_CLOUD: DeviceId = DeviceId(2);

/// Mesh id under which the executor registers the *aggregated* peer-cache
/// blob source — [`PeerPlane::Aggregate`] only (ids 0 and 1 are the paper
/// registries). The per-pair plane registers one source per serving
/// device instead (see [`REGISTRY_PEER_BASE`]); this id survives
/// as the canonical "the peer plane" handle reports fold per-holder
/// buckets under ([`crate::RunReport::with_aggregated_peer_sources`]).
pub const REGISTRY_PEER: RegistryId = RegistryId(2);

/// First mesh id handed out to additional regional registries
/// ([`Testbed::add_regional_mirror`]); the k-th mirror gets id `3 + k`.
pub const REGISTRY_MIRROR_BASE: RegistryId = RegistryId(3);

/// First mesh id of the per-holder peer sources: serving device `j`'s
/// cache is registered under `REGISTRY_PEER_BASE + j`. Far above the
/// mirror range so the two open-ended id families never collide.
pub const REGISTRY_PEER_BASE: RegistryId = RegistryId(4096);

/// The mesh id under which serving device `holder` advertises its layer
/// cache on the per-pair peer plane.
pub fn peer_source_id(holder: DeviceId) -> RegistryId {
    RegistryId(REGISTRY_PEER_BASE.0 + holder.0)
}

/// The serving device behind a per-holder peer mesh id, if `source` is
/// one ([`REGISTRY_PEER`], registries and mirrors return `None`).
pub fn peer_holder(source: RegistryId) -> Option<DeviceId> {
    (source.0 >= REGISTRY_PEER_BASE.0).then(|| DeviceId(source.0 - REGISTRY_PEER_BASE.0))
}

/// The contention resource a pull's bytes from `source` onto `pulling`
/// actually occupy — the key of the [`RouteLoads`] the executor and the
/// estimator both charge:
///
/// * registry/mirror sources contend per `(source, pulling device)`
///   download route, as in the paper's two-registry testbed;
/// * per-holder peer sources contend on the *serving* device's uplink
///   NIC, `(source, holder)` — one resource regardless of who pulls, so
///   a hot peer serving several same-wave devices divides its uplink
///   among them instead of serving everyone at full rate.
pub fn route_key(source: RegistryId, pulling: DeviceId) -> (RegistryId, usize) {
    match peer_holder(source) {
        Some(holder) => (source, holder.0),
        None => (source, pulling.0),
    }
}

/// Same-wave route contention, one count per contention resource
/// ([`route_key`]): the one ledger the executor charges as it realises a
/// wave and the estimator charges as it prices one, so both read the
/// same integers and price the same floats.
///
/// Sharded per source: one dense per-device lane vector per
/// `RegistryId` (the device slot is the pulling device for registry
/// sources, the serving holder for peer uplinks), so the fleet-scale
/// payoff scan reads a load with one shard lookup plus an array index,
/// no per-candidate key hashing.
///
/// Lanes are created on first charge and *zeroed, not dropped* by
/// [`RouteLoads::clear`] (which walks the charged keys only), so an
/// estimator reusing one ledger across barriers allocates nothing in
/// steady state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteLoads {
    /// Per-source lane vectors, `lane[device_slot] = same-wave load`.
    shards: HashMap<RegistryId, Vec<usize>>,
    /// Keys charged since the last clear (0→1 transitions only), for
    /// O(charged) barrier resets without deallocating lanes.
    touched: Vec<(RegistryId, usize)>,
    /// Lane length: one slot per testbed device.
    slots: usize,
}

impl RouteLoads {
    /// Empty load state for a testbed with `slots` devices.
    pub fn new(slots: usize) -> Self {
        RouteLoads { shards: HashMap::new(), touched: Vec::new(), slots }
    }

    /// The download slowdown a pull onto `pulling` sees from `source`:
    /// [`TestbedParams::contention_factor`] of the load on the source's
    /// contention resource (0 when never charged).
    pub fn contention(&self, params: &TestbedParams, source: RegistryId, pulling: DeviceId) -> f64 {
        let (shard, slot) = route_key(source, pulling);
        debug_assert!(slot < self.slots, "device slot out of range");
        params.contention_factor(self.shards.get(&shard).map_or(0, |lane| lane[slot]))
    }

    /// Charge a realised pull onto `pulling`: every source that served at
    /// least `threshold` bytes loads its own contention resource —
    /// registry buckets their download route, peer buckets the serving
    /// device's uplink — not once the pull's primary.
    pub fn charge_pull(&mut self, threshold: DataSize, outcome: &PullOutcome, pulling: DeviceId) {
        for bucket in &outcome.per_source {
            if bucket.downloaded >= threshold {
                let key = route_key(bucket.source, pulling);
                debug_assert!(key.1 < self.slots, "device slot out of range");
                let lane = self.shards.entry(key.0).or_insert_with(|| vec![0; self.slots]);
                if lane[key.1] == 0 {
                    self.touched.push(key);
                }
                lane[key.1] += 1;
            }
        }
    }

    /// Wave barrier on a testbed of `slots` devices: [`RouteLoads::clear`]
    /// while the device count is unchanged, a fresh ledger otherwise.
    pub(crate) fn reset(&mut self, slots: usize) {
        if slots == self.slots {
            self.clear();
        } else {
            *self = RouteLoads::new(slots);
        }
    }

    /// Wave barrier: zero every charged slot, keeping the lanes.
    pub fn clear(&mut self) {
        for (source, slot) in self.touched.drain(..) {
            if let Some(lane) = self.shards.get_mut(&source) {
                lane[slot] = 0;
            }
        }
    }
}

/// Calibrated link and overhead parameters.
#[derive(Debug, Clone, Copy)]
pub struct TestbedParams {
    /// Effective pull bandwidth hub → medium (MB/s).
    pub hub_to_medium: Bandwidth,
    /// Effective pull bandwidth hub → small.
    pub hub_to_small: Bandwidth,
    /// Effective pull bandwidth regional → medium.
    pub regional_to_medium: Bandwidth,
    /// Effective pull bandwidth regional → small.
    pub regional_to_small: Bandwidth,
    /// Device-to-device LAN bandwidth (dataflow transfers between two
    /// edge devices; read by [`Testbed::device_bandwidth`]).
    pub lan: Bandwidth,
    /// Effective pull bandwidth hub → cloud (hub's CDN peers with cloud
    /// datacenters; continuum testbed only).
    pub hub_to_cloud: Bandwidth,
    /// Effective pull bandwidth regional → cloud (traverses the lab's WAN
    /// uplink; continuum testbed only).
    pub regional_to_cloud: Bandwidth,
    /// Edge ↔ cloud WAN bandwidth (dataflow transfers with a cloud-class
    /// device on either end; read by [`Testbed::device_bandwidth`]).
    pub wan: Bandwidth,
    /// Fixed pull overhead per registry.
    pub hub_overhead: Seconds,
    pub regional_overhead: Seconds,
    /// Effective bandwidth of a peer device serving cached layers over the
    /// LAN (below the raw LAN rate: the peer reads from its own disk).
    ///
    /// Both peer planes read it live: every [`PeerPlane::PerPair`] pair
    /// that no [`Testbed::set_peer_link`] / [`Testbed::set_peer_uplink`]
    /// dented serves at this rate, and so does the
    /// [`PeerPlane::Aggregate`] source.
    pub peer_bw: Bandwidth,
    /// Fixed overhead of the first peer-served layer of a pull (peer
    /// discovery + connection; no auth, no manifest round-trips), charged
    /// once per holder a pull uses. Read live by both peer planes.
    pub peer_overhead: Seconds,
    /// Route-contention coefficient: a pull sharing its registry→device
    /// route with `k` earlier same-wave pulls sees its download slowed by
    /// `1 + alpha·k`. Small because in-flight layer dedup absorbs most
    /// contention.
    pub contention_alpha: f64,
    /// Pulls below this size don't count as route load (they finish too
    /// fast to matter).
    pub contention_threshold: DataSize,
}

impl Default for TestbedParams {
    fn default() -> Self {
        TestbedParams {
            hub_to_medium: Bandwidth::megabytes_per_sec(13.0),
            hub_to_small: Bandwidth::megabytes_per_sec(8.0),
            regional_to_medium: Bandwidth::megabytes_per_sec(8.0),
            regional_to_small: Bandwidth::megabytes_per_sec(9.5),
            lan: Bandwidth::megabytes_per_sec(100.0),
            hub_to_cloud: Bandwidth::megabytes_per_sec(60.0),
            regional_to_cloud: Bandwidth::megabytes_per_sec(4.0),
            wan: Bandwidth::megabytes_per_sec(20.0),
            hub_overhead: Seconds::new(25.0),
            regional_overhead: Seconds::new(5.0),
            peer_bw: Bandwidth::megabytes_per_sec(80.0),
            peer_overhead: Seconds::new(1.0),
            contention_alpha: 0.1,
            contention_threshold: DataSize::megabytes(100.0),
        }
    }
}

impl TestbedParams {
    /// Pull bandwidth for a `(source, device)` route. Covers the paper
    /// registries (ids 0/1) and the *aggregated* peer route
    /// ([`REGISTRY_PEER`], LAN-bound and device-independent) ONLY —
    /// regional mirrors carry their own parameters and per-holder peer
    /// routes are per-pair links of the [`PeerPlane`]; both must be
    /// priced through [`Testbed::source_params`], never through this
    /// struct. Unknown ids are a pricing bug (debug assertion), not a
    /// peer; release builds fall back to the legacy `peer_bw` value.
    pub fn route_bandwidth(&self, registry: RegistryChoice, device: DeviceId) -> Bandwidth {
        match (registry.registry_id().0, device) {
            (0, DEVICE_MEDIUM) => self.hub_to_medium,
            (0, DEVICE_CLOUD) => self.hub_to_cloud,
            (0, _) => self.hub_to_small,
            (1, DEVICE_MEDIUM) => self.regional_to_medium,
            (1, DEVICE_CLOUD) => self.regional_to_cloud,
            (1, _) => self.regional_to_small,
            (2, _) => self.peer_bw,
            (n, _) => {
                debug_assert!(
                    false,
                    "route r{n} → {device} is not a TestbedParams route: mirrors are priced by \
                     Testbed::source_params, per-holder peer pairs by the PeerPlane"
                );
                self.peer_bw
            }
        }
    }

    /// Fixed overhead for a mesh source (paper registries + aggregated
    /// peer route only; mirrors and per-holder peers go through
    /// [`Testbed::source_params`] — unknown ids are a debug assertion).
    pub fn overhead(&self, registry: RegistryChoice) -> Seconds {
        match registry.registry_id().0 {
            0 => self.hub_overhead,
            1 => self.regional_overhead,
            2 => self.peer_overhead,
            n => {
                debug_assert!(
                    false,
                    "source r{n} carries no TestbedParams overhead: mirrors are priced by \
                     Testbed::source_params, per-holder peer pairs by the PeerPlane"
                );
                self.peer_overhead
            }
        }
    }

    /// [`SourceParams`] for one source→device route, with the route slowed
    /// by `slowdown` (contention factor ≥ 1).
    pub fn source_params(
        &self,
        registry: RegistryChoice,
        device: DeviceId,
        slowdown: f64,
    ) -> SourceParams {
        SourceParams {
            download_bw: self.route_bandwidth(registry, device).scale(1.0 / slowdown),
            overhead: self.overhead(registry),
        }
    }

    /// Download slowdown under `load` prior same-wave pulls on the route.
    pub fn contention_factor(&self, load: usize) -> f64 {
        1.0 + self.contention_alpha * load as f64
    }
}

/// The fleet's peer data plane: who can serve cached image layers to
/// whom, and how fast.
///
/// The default is the per-pair plane [`PeerPlane::PerPair`]: one blob
/// source per serving device (mesh ids [`peer_source_id`]) is registered
/// in every peer-sharing pull's mesh, and upload contention is charged on
/// the serving device's uplink ([`route_key`]). Every directed pair
/// serves at `peer_bw` and every holder costs `peer_overhead`, which
/// reproduces the scalar plane of earlier revisions exactly (single
/// holder: byte for byte; see `tests/peer_plane.rs`). Sweeps dent
/// individual pairs ([`Testbed::set_peer_link`]) or a whole uplink
/// ([`Testbed::set_peer_uplink`]), so a hot peer saturates like a real
/// NIC instead of serving the whole fleet at full rate.
///
/// [`PeerPlane::Aggregate`] retains the scalar plane — one anonymous
/// fleet-wide source ([`REGISTRY_PEER`]) at `peer_bw`, contended per
/// *pulling* device — as the regression oracle the parity tests compare
/// against.
#[derive(Debug, Clone)]
pub enum PeerPlane {
    /// The scalar plane: one aggregated fleet-wide source at
    /// `TestbedParams::peer_bw`/`peer_overhead`.
    Aggregate,
    /// Per-pair links and per-holder sources.
    PerPair {
        /// The dented directed links: `dents[(serving, pulling)]` is the
        /// rate at which `serving` streams cached layers to `pulling`.
        /// Every pair not in the map serves at `TestbedParams::peer_bw`.
        dents: HashMap<(DeviceId, DeviceId), Bandwidth>,
    },
}

impl Default for PeerPlane {
    /// The undented per-pair plane.
    fn default() -> Self {
        PeerPlane::PerPair { dents: HashMap::new() }
    }
}

impl PeerPlane {
    /// Whether this is the scalar aggregate plane.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, PeerPlane::Aggregate)
    }

    /// The serving bandwidth of the `(serving, pulling)` pair.
    pub fn bandwidth(
        &self,
        params: &TestbedParams,
        serving: DeviceId,
        pulling: DeviceId,
    ) -> Bandwidth {
        match self {
            PeerPlane::Aggregate => params.peer_bw,
            PeerPlane::PerPair { dents } => {
                dents.get(&(serving, pulling)).copied().unwrap_or(params.peer_bw)
            }
        }
    }

    /// One wave barrier's discovery step over the per-device layer caches
    /// (index = device id): under gossip discovery the plane first runs
    /// its [`GossipPlane::barrier_round`], then every target gets the
    /// peer sources the barrier advertises to it — its own bounded,
    /// possibly lagging view under gossip, the omniscient
    /// [`PeerPlane::snapshot`] otherwise. The executor opens each wave
    /// with it on the real caches for the wave's targets, the estimator
    /// on its estimated caches for every device; this one step is what
    /// keeps them bit for bit.
    ///
    /// The per-pair snapshot builds each non-empty holder's source once
    /// and every target shares the list, skipping its own entry, so a
    /// barrier costs O(holders) sources however many targets ask. Only
    /// the aggregate oracle still folds one union per target.
    pub fn barrier(
        &self,
        mut gossip: Option<&mut GossipPlane>,
        caches: &[&LayerCache],
        targets: impl IntoIterator<Item = usize>,
    ) -> PeerViews {
        if let Some(plane) = gossip.as_deref_mut() {
            plane.barrier_round(caches);
        }
        self.barrier_views(gossip, caches, targets)
    }

    /// The views half of [`PeerPlane::barrier`], without the gossip
    /// round.
    pub(crate) fn barrier_views(
        &self,
        mut gossip: Option<&mut GossipPlane>,
        caches: &[&LayerCache],
        targets: impl IntoIterator<Item = usize>,
    ) -> PeerViews {
        if gossip.is_none() && !self.is_aggregate() {
            return PeerViews(Views::Shared(
                caches
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.is_empty())
                    .map(|(k, c)| {
                        (peer_source_id(DeviceId(k)), PeerCacheSource::for_holder(DeviceId(k), c))
                    })
                    .collect(),
            ));
        }
        let mut lists = vec![Vec::new(); caches.len()];
        for target in targets {
            lists[target] = match gossip.as_deref_mut() {
                Some(plane) => plane.mesh_view(caches, target),
                None => self.snapshot(caches, target),
            };
        }
        PeerViews(Views::PerTarget(lists))
    }

    /// The peer sources a wave barrier advertises to `target`, from the
    /// per-device layer caches (index = device id): the aggregate plane
    /// folds every other device into one [`REGISTRY_PEER`] source; the
    /// per-pair plane yields one [`peer_source_id`] source per other
    /// device with a non-empty cache. [`PeerPlane::barrier`] serves
    /// the per-pair plane from one shared holder list instead; this
    /// per-target rule is the reference it is tested against.
    pub fn snapshot(
        &self,
        caches: &[&LayerCache],
        target: usize,
    ) -> Vec<(RegistryId, PeerCacheSource)> {
        match self {
            PeerPlane::Aggregate => vec![(
                REGISTRY_PEER,
                PeerCacheSource::from_caches(
                    "peer-cache",
                    caches.iter().enumerate().filter(|(k, _)| *k != target).map(|(_, c)| *c),
                ),
            )],
            PeerPlane::PerPair { .. } => caches
                .iter()
                .enumerate()
                .filter(|(k, c)| *k != target && !c.is_empty())
                .map(|(k, c)| {
                    (peer_source_id(DeviceId(k)), PeerCacheSource::for_holder(DeviceId(k), c))
                })
                .collect(),
        }
    }
}

/// The peer sources one wave barrier advertises to each target device
/// ([`PeerPlane::barrier`]). The default holds no source for any
/// device: the view of an executor or estimator without peer sharing.
#[derive(Debug, Clone)]
pub struct PeerViews(Views);

#[derive(Debug, Clone)]
enum Views {
    /// Per-pair snapshot discovery: every non-empty holder's source in
    /// ascending holder order; a target's view is the list minus its own
    /// entry.
    Shared(Vec<(RegistryId, PeerCacheSource)>),
    /// One list per device id (gossip views, the aggregate oracle's
    /// union); devices the barrier was not built for see nothing.
    PerTarget(Vec<Vec<(RegistryId, PeerCacheSource)>>),
}

impl Default for PeerViews {
    fn default() -> Self {
        PeerViews(Views::PerTarget(Vec::new()))
    }
}

impl PeerViews {
    /// The sources `target`'s pulls see this wave, in mesh-registration
    /// order (ascending holder on the per-pair plane).
    pub fn of(&self, target: DeviceId) -> impl Iterator<Item = &(RegistryId, PeerCacheSource)> {
        let (list, own) = match &self.0 {
            Views::Shared(list) => (list.as_slice(), Some(peer_source_id(target))),
            Views::PerTarget(lists) => (lists.get(target.0).map_or(&[][..], Vec::as_slice), None),
        };
        list.iter().filter(move |(id, _)| Some(*id) != own)
    }

    /// Every source of every view, for an in-flight edit such as the
    /// chaos path's retraction. A source shared by the per-pair snapshot
    /// is edited once for every target that sees it.
    pub fn sources_mut(&mut self) -> impl Iterator<Item = &mut (RegistryId, PeerCacheSource)> {
        let lists: &mut [Vec<_>] = match &mut self.0 {
            Views::Shared(list) => std::slice::from_mut(list),
            Views::PerTarget(lists) => lists,
        };
        lists.iter_mut().flatten()
    }
}

/// An additional regional registry in the mesh: a mirror of the regional
/// namespace at another site, registered under a fresh mesh id.
///
/// N regionals are *data*, not API variants: schedulers discover mirrors
/// through [`Testbed::registry_choices`] and the stage game's strategy
/// space widens automatically.
pub struct RegionalMirror {
    /// The mirror's strategy handle (`RegistryChoice::mesh(id)`).
    pub choice: RegistryChoice,
    /// The mirror's registry backend (serves the regional namespace).
    pub registry: RegionalRegistry,
    /// Effective pull bandwidth mirror → any device (the mirror sits at
    /// another site; its route is device-independent).
    pub download_bw: Bandwidth,
    /// Fixed per-pull overhead of the mirror.
    pub overhead: Seconds,
}

impl RegionalMirror {
    /// An independent copy (registry storage forked copy-on-write, never
    /// aliased).
    pub fn fork(&self) -> RegionalMirror {
        RegionalMirror {
            choice: self.choice,
            registry: self.registry.fork(),
            download_bw: self.download_bw,
            overhead: self.overhead,
        }
    }
}

/// The simulated testbed: devices, network, registries.
pub struct Testbed {
    pub devices: Vec<SimDevice>,
    pub hub: HubRegistry,
    pub regional: RegionalRegistry,
    /// Additional regional registries under mesh ids
    /// [`REGISTRY_MIRROR_BASE`]`+ k` (empty on the paper testbed).
    pub mirrors: Vec<RegionalMirror>,
    pub params: TestbedParams,
    /// The peer data plane: per-pair serving links and per-holder
    /// sources by default (uniform `peer_bw`/`peer_overhead` outside the
    /// dented pairs), or the retained scalar [`PeerPlane::Aggregate`]
    /// oracle.
    pub peer_plane: PeerPlane,
    /// Per-source failure probabilities (per-pull fatal + per-fetch
    /// transient rates) and the retry policy absorbing the transients.
    /// Defaults to the fault-free model; the executor injects seeded
    /// samples of it when [`crate::ExecutorConfig::fault_injection`] is
    /// on, and fault-aware schedulers price expected deployment time
    /// under it.
    pub fault_model: FaultModel,
    /// Catalog entries by application, then microservice, for reference
    /// lookup by the executor and the estimator. Shared copy-on-write
    /// between replicas.
    pub(crate) entries: Arc<CatalogEntries>,
}

/// application → microservice → published entry, so a lookup borrows
/// both names.
pub(crate) type CatalogEntries = HashMap<String, HashMap<String, PublishedEntry>>;

/// The entry `entries` publishes for `(application, microservice)`.
pub(crate) fn lookup_entry<'e>(
    entries: &'e CatalogEntries,
    application: &str,
    microservice: &str,
) -> Option<&'e PublishedEntry> {
    entries.get(application)?.get(microservice)
}

/// Insert `entry` under its application and microservice.
fn insert_entry(entries: &mut CatalogEntries, entry: CatalogEntry) {
    let row = entries.entry(entry.application.clone()).or_default();
    row.insert(entry.microservice.clone(), PublishedEntry::new(entry));
}

/// A catalog entry as a testbed publishes it: the entry, plus the four
/// references it resolves under (hub and regional namespace, each per
/// platform). The first pull that names the entry builds all four, out of
/// line, and every later pull borrows one through [`Testbed::reference`];
/// an entry no pull names carries none. Dereferences to the
/// [`CatalogEntry`]; two published entries are equal when their catalog
/// entries are.
#[derive(Debug, Clone)]
pub struct PublishedEntry {
    entry: CatalogEntry,
    /// Hub amd64, hub arm64, regional amd64, regional arm64.
    references: OnceLock<Box<[Reference; 4]>>,
}

impl PublishedEntry {
    fn new(entry: CatalogEntry) -> Self {
        PublishedEntry { entry, references: OnceLock::new() }
    }

    /// The reference of `platform`'s image in the regional namespace, or
    /// in the hub's.
    fn reference(&self, regional: bool, platform: Platform) -> &Reference {
        let arch = match platform {
            Platform::Amd64 => 0,
            Platform::Arm64 => 1,
        };
        let references = self.references.get_or_init(|| {
            Box::new([
                self.entry.hub_reference(Platform::Amd64),
                self.entry.hub_reference(Platform::Arm64),
                self.entry.regional_reference(Platform::Amd64),
                self.entry.regional_reference(Platform::Arm64),
            ])
        });
        &references[2 * usize::from(regional) + arch]
    }
}

impl PartialEq for PublishedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.entry == other.entry
    }
}

impl Deref for PublishedEntry {
    type Target = CatalogEntry;

    fn deref(&self) -> &CatalogEntry {
        &self.entry
    }
}

/// The Table I catalog keyed for [`Testbed::entry`], built once per
/// process and shared by every paper-based testbed until one of them
/// publishes or replaces an entry.
fn paper_entries() -> Arc<CatalogEntries> {
    static ENTRIES: OnceLock<Arc<CatalogEntries>> = OnceLock::new();
    let entries = ENTRIES.get_or_init(|| {
        let mut entries = CatalogEntries::new();
        for entry in deep_registry::paper_catalog() {
            insert_entry(&mut entries, entry);
        }
        Arc::new(entries)
    });
    Arc::clone(entries)
}

impl Testbed {
    /// The paper's testbed with default calibrated parameters and the
    /// Table I catalog published to both registries.
    ///
    /// Power models: the medium device's figures are
    /// RAPL-package-domain (pyRAPL measures only the processor package, so
    /// its idle floor is low and network-bound phases draw little); the
    /// small device's figures are wall-meter whole-board (PSU overhead
    /// raises the static floor).
    pub fn paper() -> Self {
        Self::with_params(TestbedParams::default())
    }

    /// The paper testbed with custom link parameters (for sweeps). Its
    /// registries and catalog entries start as copy-on-write views of
    /// the process-wide catalog prototypes
    /// ([`HubRegistry::with_paper_catalog`],
    /// [`RegionalRegistry::with_paper_catalog`]), so a build publishes
    /// nothing.
    pub fn with_params(params: TestbedParams) -> Self {
        let medium = SimDevice::new(
            DEVICE_MEDIUM,
            "medium",
            deep_registry::Platform::Amd64,
            8,
            Mips::new(40_000.0),
            DataSize::gigabytes(16.0),
            DataSize::gigabytes(64.0),
            DevicePowerModel::per_phase(
                Watts::new(0.3), // RAPL package idle floor
                Watts::new(0.1), // NIC+NVMe during pull (package view)
                Watts::new(0.1), // NIC during dataflow receive
                Watts::new(8.0), // default package draw under load
            ),
            Bandwidth::megabytes_per_sec(12.6),
        );
        let small = SimDevice::new(
            DEVICE_SMALL,
            "small",
            deep_registry::Platform::Arm64,
            4,
            Mips::new(40_000.0),
            DataSize::gigabytes(8.0),
            DataSize::gigabytes(32.0),
            DevicePowerModel::per_phase(
                Watts::new(1.8), // idle board + PSU at the wall
                Watts::new(0.6), // NIC+SD during pull
                Watts::new(0.4), // NIC during dataflow receive
                Watts::new(2.0), // default whole-board delta under load
            ),
            Bandwidth::megabytes_per_sec(11.0),
        )
        .with_base_speed_factor(3.0);

        Testbed {
            devices: vec![medium, small],
            hub: HubRegistry::with_paper_catalog(),
            regional: RegionalRegistry::with_paper_catalog(),
            mirrors: Vec::new(),
            peer_plane: PeerPlane::default(),
            params,
            fault_model: FaultModel::default(),
            entries: paper_entries(),
        }
    }

    /// The cloud–edge continuum testbed: the paper's two edge devices plus
    /// a cloud server — the extension the paper's conclusion announces
    /// ("schedule the computation between cloud and edge").
    ///
    /// The cloud device: 32 amd64 cores at twice the medium device's MI/s,
    /// abundant memory/storage, NVMe-fast extraction, and power figures
    /// that model the *billed/amortised* datacenter draw (PUE-adjusted):
    /// a high static share and a processing draw that beats the medium
    /// device per instruction, but every dataflow to/from the edge pays
    /// the WAN.
    pub fn continuum() -> Self {
        Self::continuum_with_params(TestbedParams::default())
    }

    /// [`Testbed::continuum`] with custom parameters.
    pub fn continuum_with_params(params: TestbedParams) -> Self {
        let mut tb = Self::with_params(params);
        let cloud = SimDevice::new(
            DEVICE_CLOUD,
            "cloud",
            deep_registry::Platform::Amd64,
            32,
            Mips::new(80_000.0),
            DataSize::gigabytes(128.0),
            DataSize::gigabytes(1000.0),
            DevicePowerModel::per_phase(
                Watts::new(4.0),  // amortised idle share of the server
                Watts::new(1.0),  // NIC+NVMe during pull
                Watts::new(1.5),  // NIC during dataflow receive
                Watts::new(10.0), // PUE-adjusted package under load
            ),
            Bandwidth::megabytes_per_sec(400.0),
        )
        .with_class(deep_dataflow::DeviceClass::Cloud);
        tb.devices.push(cloud);
        tb
    }

    /// A seeded synthetic fleet: the calibrated testbed scaled to 10³
    /// devices for the fleet-scale solver.
    ///
    /// Devices 0/1 are the paper pair verbatim (and with `devices ≥ 3`
    /// device 2 is the continuum cloud), so every calibration that
    /// targets the canonical ids applies unchanged. Each further device
    /// clones one of the three archetypes — mostly edge, with every
    /// 16th slot a cloud-tier server — under splitmix64-jittered
    /// compute, extraction and power figures (±15 % MI/s and extract
    /// bandwidth, ±10 % per-phase draw), all drawn from `seed`:
    /// identical `(devices, registries, seed)` triples build identical
    /// testbeds.
    ///
    /// `registries` counts the full mesh sources: the hub + regional
    /// pair plus `registries − 2` regional mirrors at seeded site rates
    /// (7–12 MB/s, 4–6 s overhead). Dataflow links follow the device
    /// classes ([`Testbed::device_bandwidth`]: the paper's LAN between
    /// edge devices, the WAN on any cloud leg). The hub and regional
    /// routes are keyed by device id, not class
    /// ([`TestbedParams::route_bandwidth`] matches the medium and cloud
    /// ids), so every fleet clone, cloud-class ones included, pulls the
    /// base registries at the small-device route rates; per-device
    /// heterogeneity comes from the device figures.
    pub fn synthetic_fleet(devices: usize, registries: usize, seed: u64) -> Self {
        assert!(devices >= 2, "a fleet needs at least the paper's device pair");
        assert!(registries >= 2, "a fleet needs at least the hub + regional pair");
        fn jitter(state: &mut u64, lo: f64, hi: f64) -> f64 {
            let out = deep_netsim::splitmix64(*state);
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            lo + deep_netsim::unit_f64(out) * (hi - lo)
        }
        let mut tb = if devices >= 3 { Self::continuum() } else { Self::paper() };
        let mut state = seed;
        for i in tb.devices.len()..devices {
            // Slot 15 of every 16 is a cloud clone; the rest alternate
            // the two edge archetypes.
            let archetype = match i % 16 {
                15 => DEVICE_CLOUD,
                k if k % 2 == 0 => DEVICE_MEDIUM,
                _ => DEVICE_SMALL,
            };
            let base = &tb.devices[archetype.0];
            let compute = jitter(&mut state, 0.85, 1.15);
            let extract = jitter(&mut state, 0.85, 1.15);
            let power = jitter(&mut state, 0.9, 1.1);
            let device = SimDevice::new(
                DeviceId(i),
                &format!("fleet-{i}-{}", base.name),
                base.arch,
                base.cores,
                base.mips.scale(compute),
                base.memory,
                base.storage,
                DevicePowerModel::per_phase(
                    base.power.static_watts.scale(power),
                    base.power.deploy_watts.scale(power),
                    base.power.transfer_watts.scale(power),
                    base.power.process_watts.scale(power),
                ),
                base.extract_bw.scale(extract),
            )
            .with_base_speed_factor(base.base_speed_factor())
            .with_class(base.class);
            tb.devices.push(device);
        }
        for _ in 2..registries {
            let bw = Bandwidth::megabytes_per_sec(jitter(&mut state, 7.0, 12.0));
            let overhead = Seconds::new(jitter(&mut state, 4.0, 6.0));
            tb.add_regional_mirror(bw, overhead);
        }
        tb
    }

    /// Catalog entry for `(application, microservice)`, if published.
    pub fn entry(&self, application: &str, microservice: &str) -> Option<&PublishedEntry> {
        lookup_entry(&self.entries, application, microservice)
    }

    /// Replace (or insert) the catalog entry used for reference lookup —
    /// ablation hooks re-publish variant images under the same keys.
    pub fn replace_entry(&mut self, entry: CatalogEntry) {
        insert_entry(Arc::make_mut(&mut self.entries), entry);
    }

    /// Publish single-layer images for every microservice of a non-catalog
    /// application (generated workloads) to every full registry in the
    /// mesh (both paper registries plus any mirrors).
    pub fn publish_application(&mut self, app: &Application) {
        for id in app.ids() {
            let ms = app.microservice(id);
            if self.entry(app.name(), &ms.name).is_some() {
                continue;
            }
            let entry = CatalogEntry::single_layer(app.name(), &ms.name, ms.image_size);
            self.hub.publish(&entry);
            self.regional.publish(&entry).expect("synthetic publish fits capacity");
            for mirror in &mut self.mirrors {
                mirror.registry.publish(&entry).expect("synthetic publish fits mirror capacity");
            }
            insert_entry(Arc::make_mut(&mut self.entries), entry);
        }
    }

    /// Register an additional regional registry (a mirror of the regional
    /// namespace, pre-loaded with everything published so far) under the
    /// next mirror mesh id, and return its strategy handle.
    pub fn add_regional_mirror(
        &mut self,
        download_bw: Bandwidth,
        overhead: Seconds,
    ) -> RegistryChoice {
        let id = RegistryId(REGISTRY_MIRROR_BASE.0 + self.mirrors.len());
        assert!(
            id < REGISTRY_PEER_BASE,
            "mirror ids exhausted the range below the per-holder peer sources"
        );
        // The prototype already holds the unmodified Table I entries
        // byte for byte; publish only what differs from it.
        let mut registry = RegionalRegistry::with_paper_catalog();
        let paper = paper_entries();
        for entry in self.entries.values().flat_map(HashMap::values) {
            let published = lookup_entry(&paper, &entry.application, &entry.microservice);
            if !published.is_some_and(|p| std::ptr::eq(p, entry) || p == entry) {
                registry.publish(entry).expect("mirror capacity fits the published catalog");
            }
        }
        let choice = RegistryChoice::mesh(id);
        self.mirrors.push(RegionalMirror { choice, registry, download_bw, overhead });
        choice
    }

    /// The strategy space of the registry side of the game: every mesh
    /// source a scheduler may name as a pull's primary (full registries
    /// only — the paper pair plus any mirrors; peer caches cannot resolve
    /// manifests and ride along via `peer_sharing` instead).
    pub fn registry_choices(&self) -> Vec<RegistryChoice> {
        self.choices().collect()
    }

    /// [`Testbed::registry_choices`], unallocated.
    fn choices(&self) -> impl Iterator<Item = RegistryChoice> + '_ {
        [RegistryChoice::Hub, RegistryChoice::Regional]
            .into_iter()
            .chain(self.mirrors.iter().map(|m| m.choice))
    }

    /// The mirror registered under `choice`, if any.
    pub fn mirror(&self, choice: RegistryChoice) -> Option<&RegionalMirror> {
        self.mirrors.iter().find(|m| m.choice == choice)
    }

    /// [`SourceParams`] for one source→device route (paper registries,
    /// aggregated peer, per-holder peers, or mirrors), with the route
    /// slowed by `slowdown` (contention factor ≥ 1). The mesh-wide
    /// generalization of [`TestbedParams::source_params`].
    pub fn source_params(
        &self,
        choice: RegistryChoice,
        device: DeviceId,
        slowdown: f64,
    ) -> SourceParams {
        if let Some(holder) = peer_holder(choice.registry_id()) {
            return SourceParams {
                download_bw: self.peer_bandwidth(holder, device).scale(1.0 / slowdown),
                overhead: self.params.peer_overhead,
            };
        }
        match self.mirror(choice) {
            Some(m) => SourceParams {
                download_bw: m.download_bw.scale(1.0 / slowdown),
                overhead: m.overhead,
            },
            None => self.params.source_params(choice, device, slowdown),
        }
    }

    /// The serving bandwidth of one `(serving, pulling)` peer pair.
    pub fn peer_bandwidth(&self, serving: DeviceId, pulling: DeviceId) -> Bandwidth {
        self.peer_plane.bandwidth(&self.params, serving, pulling)
    }

    /// Dent one directed peer link (requires the per-pair plane; the
    /// scalar aggregate oracle has no pairs to dent). Both ends must be
    /// devices of this testbed.
    pub fn set_peer_link(&mut self, serving: DeviceId, pulling: DeviceId, bw: Bandwidth) {
        let n = self.devices.len();
        assert!(
            serving.0 < n && pulling.0 < n,
            "peer link {serving} → {pulling} names a device outside the {n}-device fleet"
        );
        match &mut self.peer_plane {
            PeerPlane::PerPair { dents } => {
                dents.insert((serving, pulling), bw);
            }
            PeerPlane::Aggregate => panic!("the aggregate peer plane has no per-pair links"),
        }
    }

    /// Throttle every link *from* `serving` — the hot-peer scenario's
    /// saturated uplink NIC.
    pub fn set_peer_uplink(&mut self, serving: DeviceId, bw: Bandwidth) {
        let n = self.devices.len();
        for j in 0..n {
            if j != serving.0 {
                self.set_peer_link(serving, DeviceId(j), bw);
            }
        }
    }

    /// The full-registry backend for a choice. Panics for handles that
    /// name no full registry — blob-only sources (peers) have no backend
    /// here.
    pub fn registry(&self, choice: RegistryChoice) -> &dyn Registry {
        match choice.registry_id().0 {
            0 => &self.hub,
            1 => &self.regional,
            n => self
                .mirror(choice)
                .map(|m| &m.registry as &dyn Registry)
                .unwrap_or_else(|| panic!("testbed has no full registry under mesh id r{n}")),
        }
    }

    /// The reference `entry` is published under on `choice`'s registry,
    /// lent from the entry (built once, by its first pull). Mirrors serve
    /// the regional namespace.
    pub fn reference<'e>(
        &self,
        entry: &'e PublishedEntry,
        choice: RegistryChoice,
        platform: Platform,
    ) -> &'e Reference {
        match choice.registry_id().0 {
            0 => entry.reference(false, platform),
            1 => entry.reference(true, platform),
            _ if self.mirror(choice).is_some() => entry.reference(true, platform),
            n => panic!("no reference namespace for mesh id r{n}"),
        }
    }

    /// A single-source mesh for pulling from `registry` onto `device`,
    /// with the route slowed by `slowdown` (contention factor ≥ 1): the
    /// seed pull path expressed through the mesh API, for tests and
    /// examples that pull directly.
    pub fn pull_mesh(
        &self,
        registry: RegistryChoice,
        device: DeviceId,
        slowdown: f64,
    ) -> RegistryMesh<'_> {
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(
            registry.registry_id(),
            self.registry(registry),
            self.source_params(registry, device, slowdown),
        );
        mesh
    }

    /// The mesh of one pull at `placement`, the one assembly the executor
    /// realises and the estimator prices: the placement's registry as
    /// primary, then `peers`' sources for the device, then, with
    /// `standbys`, every other full registry as a failover-only standby
    /// ([`RegistryMesh::add_standby_registry`]). Each source is slowed by
    /// the load on its contention resource in `route_load` and, given a
    /// window model and its clock, by the model's degradation windows at
    /// that clock ([`FaultModel::slowdown_at`]).
    pub fn placement_mesh<'a>(
        &'a self,
        placement: Placement,
        peers: &'a PeerViews,
        route_load: &RouteLoads,
        windows: Option<(&FaultModel, Seconds)>,
        standbys: bool,
    ) -> RegistryMesh<'a> {
        let device = placement.device;
        let params = |choice: RegistryChoice| {
            let id = choice.registry_id();
            let contention = route_load.contention(&self.params, id, device);
            let slowdown = match windows {
                Some((model, clock)) => contention * model.slowdown_at(id, clock),
                None => contention,
            };
            self.source_params(choice, device, slowdown)
        };
        let mut mesh = RegistryMesh::new();
        let primary = placement.registry;
        mesh.add_registry(primary.registry_id(), self.registry(primary), params(primary));
        for (id, peer) in peers.of(device) {
            mesh.add_blob_source(*id, peer, params(RegistryChoice::mesh(*id)));
        }
        if standbys {
            for choice in self.choices() {
                if choice != primary {
                    let registry = self.registry(choice);
                    mesh.add_standby_registry(choice.registry_id(), registry, params(choice));
                }
            }
        }
        mesh
    }

    /// The full registry mesh as seen from `device`: every full registry
    /// (paper pair + mirrors) at its calibrated route parameters (no
    /// contention). Split-pull experiments add peer sources on top.
    pub fn mesh(&self, device: DeviceId) -> RegistryMesh<'_> {
        let mut mesh = RegistryMesh::new();
        for choice in self.registry_choices() {
            mesh.add_registry(
                choice.registry_id(),
                self.registry(choice),
                self.source_params(choice, device, 1.0),
            );
        }
        mesh
    }

    /// `BW_kj`, the dataflow bandwidth from device `from` to device `to`:
    /// unbounded on one device (co-located stages exchange data through
    /// the local filesystem), [`TestbedParams::wan`] when either end is a
    /// cloud-class device, [`TestbedParams::lan`] otherwise.
    pub fn device_bandwidth(&self, from: DeviceId, to: DeviceId) -> Bandwidth {
        let cloud = |d: DeviceId| self.device(d).class == deep_dataflow::DeviceClass::Cloud;
        if from == to {
            Bandwidth::infinite()
        } else if cloud(from) || cloud(to) {
            self.params.wan
        } else {
            self.params.lan
        }
    }

    /// `Tc` of one dataflow: the time `size` takes from device `from` to
    /// device `to` over [`Testbed::device_bandwidth`].
    pub fn device_transfer_time(&self, from: DeviceId, to: DeviceId, size: DataSize) -> Seconds {
        deep_netsim::transfer_time(size, self.device_bandwidth(from, to))
    }

    /// `Tc` of `id` on `device`: every incoming dataflow of `app`, in
    /// [`Application::incoming`] order, from the device `producer` names
    /// for its source microservice.
    pub fn transfer_in_time(
        &self,
        app: &Application,
        id: MicroserviceId,
        device: DeviceId,
        producer: impl Fn(MicroserviceId) -> DeviceId,
    ) -> Seconds {
        let mut tc = Seconds::ZERO;
        for flow in app.incoming(id) {
            tc += self.device_transfer_time(producer(flow.from), device, flow.size);
        }
        tc
    }

    /// Device by id.
    pub fn device(&self, id: DeviceId) -> &SimDevice {
        &self.devices[id.0]
    }

    /// Mutable device by id.
    pub fn device_mut(&mut self, id: DeviceId) -> &mut SimDevice {
        &mut self.devices[id.0]
    }

    /// An independent copy of the whole testbed: devices and caches are
    /// deep-copied; registries, mirrors and catalog entries are shared
    /// copy-on-write (registry storage is *forked*, never aliased —
    /// chaos events delete tags and GC blobs, and each such write copies
    /// the touched bucket or map first, so no replica sees another's
    /// writes); peer plane and fault model are cloned. Two replicas
    /// evolve with no cross-talk.
    pub fn replica(&self) -> Testbed {
        Testbed {
            devices: self.devices.clone(),
            hub: self.hub.clone(),
            regional: self.regional.fork(),
            mirrors: self.mirrors.iter().map(RegionalMirror::fork).collect(),
            params: self.params,
            peer_plane: self.peer_plane.clone(),
            fault_model: self.fault_model.clone(),
            entries: Arc::clone(&self.entries),
        }
    }

    /// Reset all device caches (fresh testbed between trials).
    pub fn reset_caches(&mut self) {
        for d in &mut self.devices {
            d.cache.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_registry::{BlobSource, ManifestSource};

    #[test]
    fn paper_testbed_shape() {
        let t = Testbed::paper();
        assert_eq!(t.devices.len(), 2);
        assert_eq!(t.device(DEVICE_MEDIUM).cores, 8);
        assert_eq!(t.device(DEVICE_SMALL).cores, 4);
        assert_eq!(t.device(DEVICE_MEDIUM).memory, DataSize::gigabytes(16.0));
        assert_eq!(t.device(DEVICE_SMALL).memory, DataSize::gigabytes(8.0));
        assert_eq!(t.registry_choices().len(), 2);
    }

    #[test]
    fn registries_serve_the_catalog() {
        let t = Testbed::paper();
        assert_eq!(t.hub.repositories().len(), 12);
        assert_eq!(t.regional.repositories().len(), 12);
        assert_eq!(t.registry(RegistryChoice::Hub).host(), "docker.io");
        assert_eq!(t.registry(RegistryChoice::Regional).host(), "dcloud2.itec.aau.at");
    }

    #[test]
    fn route_bandwidths_favor_hub_on_medium_and_regional_on_small() {
        let p = TestbedParams::default();
        assert!(
            p.route_bandwidth(RegistryChoice::Hub, DEVICE_MEDIUM)
                > p.route_bandwidth(RegistryChoice::Regional, DEVICE_MEDIUM)
        );
        assert!(
            p.route_bandwidth(RegistryChoice::Regional, DEVICE_SMALL)
                > p.route_bandwidth(RegistryChoice::Hub, DEVICE_SMALL)
        );
    }

    #[test]
    fn regional_overhead_is_lower() {
        let p = TestbedParams::default();
        assert!(p.overhead(RegistryChoice::Regional) < p.overhead(RegistryChoice::Hub));
    }

    #[test]
    fn contention_factor_grows_linearly() {
        let p = TestbedParams::default();
        assert_eq!(p.contention_factor(0), 1.0);
        assert!((p.contention_factor(2) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn small_device_is_slower_by_default() {
        let t = Testbed::paper();
        let cpu = deep_dataflow::Mi::new(4_000_000.0);
        let tp_med = t.device(DEVICE_MEDIUM).processing_time("app", "x", cpu);
        let tp_small = t.device(DEVICE_SMALL).processing_time("app", "x", cpu);
        assert!((tp_small.as_f64() / tp_med.as_f64() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn regional_mirrors_widen_the_strategy_space() {
        let mut t = Testbed::paper();
        assert_eq!(t.registry_choices().len(), 2, "paper testbed: hub + regional");
        let mirror = t.add_regional_mirror(Bandwidth::megabytes_per_sec(11.0), Seconds::new(4.0));
        assert_eq!(mirror.registry_id(), REGISTRY_MIRROR_BASE);
        let choices = t.registry_choices();
        assert_eq!(choices, vec![RegistryChoice::Hub, RegistryChoice::Regional, mirror]);
        // The mirror serves the regional namespace through the mesh.
        let mesh = t.pull_mesh(mirror, DEVICE_MEDIUM, 1.0);
        let mut cache = deep_registry::LayerCache::new(DataSize::gigabytes(64.0));
        let r = Reference::new("dcloud2.itec.aau.at", "aau/tp-retrieve", "amd64");
        let out = mesh
            .session(mirror.registry_id())
            .pull(&r, Platform::Amd64, &mut cache)
            .expect("mirror serves the catalog");
        assert!(out.downloaded > DataSize::ZERO);
        assert_eq!(out.per_source[0].source, REGISTRY_MIRROR_BASE);
        // Mirror route parameters are its own, not the regional route's.
        let p = t.source_params(mirror, DEVICE_MEDIUM, 1.0);
        assert_eq!(p.download_bw, Bandwidth::megabytes_per_sec(11.0));
        assert_eq!(p.overhead, Seconds::new(4.0));
        // Contention slows the mirror route like any other.
        let slowed = t.source_params(mirror, DEVICE_MEDIUM, 1.1);
        assert!(slowed.download_bw.as_bytes_per_sec() < p.download_bw.as_bytes_per_sec());
    }

    #[test]
    fn published_applications_reach_mirrors() {
        let mut t = Testbed::paper();
        let mirror = t.add_regional_mirror(Bandwidth::megabytes_per_sec(9.5), Seconds::new(5.0));
        let gen = deep_dataflow::DagGenerator::default();
        let app = gen.generate(7);
        t.publish_application(&app);
        let ms = &app.microservice(deep_dataflow::MicroserviceId(0)).name;
        let entry = t.entry(app.name(), ms).unwrap().clone();
        let reference = t.reference(&entry, mirror, Platform::Amd64);
        let mut cache = deep_registry::LayerCache::new(DataSize::gigabytes(64.0));
        let out = t
            .pull_mesh(mirror, DEVICE_MEDIUM, 1.0)
            .session(mirror.registry_id())
            .pull(reference, Platform::Amd64, &mut cache)
            .expect("mirror serves generated workloads");
        assert!(out.downloaded > DataSize::ZERO);
    }

    /// Every object of a registry's store as `(bucket, key, bytes)`.
    fn objects(reg: &RegionalRegistry) -> Vec<(String, String, Vec<u8>)> {
        let store = reg.store();
        let mut out = Vec::new();
        for bucket in store.list_buckets() {
            for meta in store.list_objects(&bucket, "").unwrap() {
                let data = store.get_object(&bucket, &meta.key).unwrap();
                out.push((bucket.clone(), meta.key, data.to_vec()));
            }
        }
        out
    }

    #[test]
    fn published_references_are_built_once_and_lent() {
        let mut t = Testbed::paper();
        let mirror = t.add_regional_mirror(Bandwidth::megabytes_per_sec(9.5), Seconds::new(5.0));
        let entry = t.entry("text-processing", "retrieve").unwrap();
        for platform in [Platform::Amd64, Platform::Arm64] {
            let hub = t.reference(entry, RegistryChoice::Hub, platform);
            assert_eq!(*hub, entry.hub_reference(platform));
            let regional = t.reference(entry, RegistryChoice::Regional, platform);
            assert_eq!(*regional, entry.regional_reference(platform));
            assert!(std::ptr::eq(hub, t.reference(entry, RegistryChoice::Hub, platform)));
            assert!(std::ptr::eq(regional, t.reference(entry, mirror, platform)));
        }
        // A replica shares the catalog, and with it the built references.
        let replica = t.replica();
        let shared = replica.entry("text-processing", "retrieve").unwrap();
        assert!(std::ptr::eq(
            t.reference(entry, RegistryChoice::Hub, Platform::Arm64),
            replica.reference(shared, RegistryChoice::Hub, Platform::Arm64),
        ));
    }

    #[test]
    fn mirrors_equal_a_full_republication() {
        let mut t = Testbed::paper();
        t.publish_application(&deep_dataflow::DagGenerator::default().generate(7));
        let mut variant = CatalogEntry::clone(t.entry("text-processing", "retrieve").unwrap());
        variant.manifests.iter_mut().for_each(|m| m.layers.truncate(1));
        t.replace_entry(variant);
        let mirror = t.add_regional_mirror(Bandwidth::megabytes_per_sec(9.5), Seconds::new(5.0));
        // The oracle publishes every entry, unmodified catalog rows included.
        let mut scratch = RegionalRegistry::with_paper_catalog();
        for entry in t.entries.values().flat_map(HashMap::values) {
            scratch.publish(entry).unwrap();
        }
        let built = &t.mirror(mirror).unwrap().registry;
        assert_eq!(objects(built), objects(&scratch));
        assert_eq!(built.store().used(), scratch.store().used());
    }

    #[test]
    fn replica_writes_stay_on_the_replica() {
        let source = Testbed::paper();
        let before = objects(&source.regional);
        let sibling = source.replica();
        let mut replica = source.replica();
        let app = deep_dataflow::DagGenerator::default().generate(7);
        replica.publish_application(&app);
        replica.regional.delete_manifest("aau/vp-frame", "amd64").unwrap();
        deep_registry::gc_collect(&mut replica.regional).unwrap();
        let ms = &app.microservice(deep_dataflow::MicroserviceId(0)).name;
        let frame = Reference::new(deep_registry::catalog::REGIONAL_HOST, "aau/vp-frame", "amd64");
        assert!(replica.entry(app.name(), ms).is_some());
        assert!(replica.regional.resolve(&frame, Platform::Amd64).is_err());
        assert_eq!(replica.hub.repositories().len(), 12 + app.ids().count());
        for tb in [&source, &sibling] {
            assert_eq!(objects(&tb.regional), before);
            assert!(tb.regional.resolve(&frame, Platform::Amd64).is_ok());
            assert!(tb.entry(app.name(), ms).is_none());
            assert_eq!(tb.hub.repositories().len(), 12);
        }
    }

    #[test]
    fn full_mesh_includes_mirrors() {
        let mut t = Testbed::paper();
        t.add_regional_mirror(Bandwidth::megabytes_per_sec(9.5), Seconds::new(5.0));
        t.add_regional_mirror(Bandwidth::megabytes_per_sec(7.0), Seconds::new(6.0));
        assert_eq!(t.mesh(DEVICE_MEDIUM).len(), 4, "hub + regional + 2 mirrors");
    }

    #[test]
    fn peer_ids_roundtrip_and_route_keys_pin_the_uplink() {
        let id = peer_source_id(DEVICE_SMALL);
        assert_eq!(id, RegistryId(REGISTRY_PEER_BASE.0 + 1));
        assert_eq!(peer_holder(id), Some(DEVICE_SMALL));
        assert_eq!(peer_holder(RegistryChoice::Hub.registry_id()), None);
        assert_eq!(peer_holder(REGISTRY_PEER), None);
        assert_eq!(peer_holder(REGISTRY_MIRROR_BASE), None);
        // Registry routes contend per pulling device; peer traffic
        // contends on the holder's uplink regardless of who pulls.
        assert_eq!(route_key(RegistryChoice::Hub.registry_id(), DEVICE_SMALL), (RegistryId(0), 1));
        assert_eq!(route_key(id, DEVICE_MEDIUM), (id, 1));
        assert_eq!(route_key(id, DEVICE_CLOUD), (id, 1));
    }

    #[test]
    fn default_peer_plane_is_the_uniform_mesh() {
        let t = Testbed::paper();
        assert!(!t.peer_plane.is_aggregate());
        assert_eq!(t.peer_bandwidth(DEVICE_MEDIUM, DEVICE_SMALL), t.params.peer_bw);
        assert_eq!(t.peer_bandwidth(DEVICE_SMALL, DEVICE_MEDIUM), t.params.peer_bw);
        // Per-holder source params come off the plane, matching the
        // scalar parameters exactly on the uniform default.
        let p =
            t.source_params(RegistryChoice::mesh(peer_source_id(DEVICE_MEDIUM)), DEVICE_SMALL, 1.0);
        assert_eq!(p.download_bw, t.params.peer_bw);
        assert_eq!(p.overhead, t.params.peer_overhead);
        let slowed =
            t.source_params(RegistryChoice::mesh(peer_source_id(DEVICE_MEDIUM)), DEVICE_SMALL, 1.1);
        assert!(slowed.download_bw.as_bytes_per_sec() < p.download_bw.as_bytes_per_sec());
    }

    #[test]
    fn peer_links_and_uplinks_can_be_dented() {
        let mut t = Testbed::continuum();
        t.set_peer_link(DEVICE_MEDIUM, DEVICE_SMALL, Bandwidth::megabytes_per_sec(40.0));
        assert_eq!(
            t.peer_bandwidth(DEVICE_MEDIUM, DEVICE_SMALL),
            Bandwidth::megabytes_per_sec(40.0)
        );
        // Directional: the reverse pair keeps the uniform rate.
        assert_eq!(t.peer_bandwidth(DEVICE_SMALL, DEVICE_MEDIUM), t.params.peer_bw);
        // A throttled uplink dents every link from the holder.
        t.set_peer_uplink(DEVICE_CLOUD, Bandwidth::megabytes_per_sec(10.0));
        assert_eq!(
            t.peer_bandwidth(DEVICE_CLOUD, DEVICE_MEDIUM),
            Bandwidth::megabytes_per_sec(10.0)
        );
        assert_eq!(
            t.peer_bandwidth(DEVICE_CLOUD, DEVICE_SMALL),
            Bandwidth::megabytes_per_sec(10.0)
        );
        // Links *to* the throttled holder are untouched.
        assert_eq!(t.peer_bandwidth(DEVICE_MEDIUM, DEVICE_CLOUD), t.params.peer_bw);
    }

    #[test]
    #[should_panic(expected = "outside the 3-device fleet")]
    fn peer_links_outside_the_fleet_are_rejected() {
        let mut t = Testbed::continuum();
        t.set_peer_link(DEVICE_MEDIUM, DeviceId(3), Bandwidth::megabytes_per_sec(40.0));
    }

    #[test]
    fn per_pair_snapshots_split_by_holder_and_skip_empty_caches() {
        let mut t = Testbed::continuum();
        let digest = deep_registry::Digest::of(b"warm-layer");
        t.device_mut(DEVICE_CLOUD).cache.insert(digest.clone(), DataSize::megabytes(10.0));
        let caches: Vec<&LayerCache> = t.devices.iter().map(|d| &d.cache).collect();
        // Per-pair: only the cloud advertises (medium/small are empty),
        // under its own holder id, excluding itself.
        let sources = t.peer_plane.snapshot(&caches, DEVICE_MEDIUM.0);
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].0, peer_source_id(DEVICE_CLOUD));
        assert_eq!(sources[0].1.holder(), Some(DEVICE_CLOUD));
        assert!(sources[0].1.has_blob(&digest));
        assert!(t.peer_plane.snapshot(&caches, DEVICE_CLOUD.0).is_empty(), "no self-serving");
        // The aggregate oracle folds everyone into one anonymous source.
        t.peer_plane = PeerPlane::Aggregate;
        let folded = t.peer_plane.snapshot(&caches, DEVICE_MEDIUM.0);
        assert_eq!(folded.len(), 1);
        assert_eq!(folded[0].0, REGISTRY_PEER);
        assert_eq!(folded[0].1.holder(), None);
        assert!(folded[0].1.has_blob(&digest));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not a TestbedParams route")]
    fn unknown_route_ids_are_a_debug_assertion() {
        // Regression for the wildcard fallthrough that silently priced
        // any unknown id — mirrors included — as a peer.
        let p = TestbedParams::default();
        let _ = p.route_bandwidth(RegistryChoice::mesh(REGISTRY_MIRROR_BASE), DEVICE_MEDIUM);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "carries no TestbedParams overhead")]
    fn unknown_overhead_ids_are_a_debug_assertion() {
        let p = TestbedParams::default();
        let _ = p.overhead(RegistryChoice::mesh(RegistryId(17)));
    }

    #[test]
    fn cache_reset() {
        let mut t = Testbed::paper();
        t.device_mut(DEVICE_MEDIUM)
            .cache
            .insert(deep_registry::Digest::of(b"x"), DataSize::megabytes(1.0));
        t.reset_caches();
        assert!(t.device(DEVICE_MEDIUM).cache.is_empty());
    }
}

#[cfg(test)]
mod continuum_tests {
    use super::*;
    use deep_dataflow::DeviceClass;

    #[test]
    fn continuum_adds_a_cloud_device() {
        let t = Testbed::continuum();
        assert_eq!(t.devices.len(), 3);
        let cloud = t.device(DEVICE_CLOUD);
        assert_eq!(cloud.class, DeviceClass::Cloud);
        assert_eq!(cloud.cores, 32);
    }

    #[test]
    fn cloud_routes_resolve() {
        let p = TestbedParams::default();
        assert_eq!(p.route_bandwidth(RegistryChoice::Hub, DEVICE_CLOUD), p.hub_to_cloud);
        assert_eq!(p.route_bandwidth(RegistryChoice::Regional, DEVICE_CLOUD), p.regional_to_cloud);
    }

    #[test]
    fn wan_links_are_slower_than_lan() {
        let t = Testbed::continuum();
        let lan = t.device_bandwidth(DEVICE_MEDIUM, DEVICE_SMALL);
        let wan = t.device_bandwidth(DEVICE_MEDIUM, DEVICE_CLOUD);
        assert!(wan.as_bytes_per_sec() < lan.as_bytes_per_sec());
    }

    #[test]
    fn edge_pinned_requirements_rejected_by_cloud() {
        let t = Testbed::continuum();
        let req = deep_dataflow::Requirements::minimal(deep_dataflow::Mi::new(1.0))
            .pinned_to(DeviceClass::Edge);
        assert!(t.device(DEVICE_MEDIUM).admits(&req));
        assert!(!t.device(DEVICE_CLOUD).admits(&req));
    }

    #[test]
    fn cloud_is_faster_per_instruction() {
        let t = Testbed::continuum();
        let cpu = deep_dataflow::Mi::new(4_000_000.0);
        let tp_cloud = t.device(DEVICE_CLOUD).processing_time("app", "x", cpu);
        let tp_medium = t.device(DEVICE_MEDIUM).processing_time("app", "x", cpu);
        assert!(tp_cloud.as_f64() < tp_medium.as_f64());
    }
}
