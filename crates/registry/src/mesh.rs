//! The registry mesh: N sources, per-layer source selection.
//!
//! The paper's hybrid Docker Hub + regional deployment chooses one
//! registry per *image*. The mesh generalizes that to any number of
//! sources and a choice per *layer*: a [`RegistryMesh`] registers full
//! registries ([`crate::Registry`]) and blob-only sources (e.g.
//! [`PeerCacheSource`], other edge devices serving layers out of their
//! caches — the EdgePier direction, arXiv:2109.12983) under typed
//! [`RegistryId`] handles, each with its route cost parameters
//! ([`SourceParams`]). A [`PullSession`] resolves the manifest once from
//! its *primary* source, then fetches every missing layer from the
//! cheapest source that has it.
//!
//! ## Cost model
//!
//! Fetching a layer of size `S` from source `g` costs `S / bw_g` plus,
//! the first time `g` is used in this pull, its fixed per-source overhead
//! (auth + connection negotiation). The primary's overhead is always
//! charged — it resolved the manifest and creates the container — so its
//! marginal layer cost is pure transfer time. Greedy per-layer selection
//! in manifest order keeps the plan deterministic (ties break toward the
//! primary, then the lowest id).
//!
//! A session over a single-source mesh reproduces the seed
//! [`crate::PullPlanner`] pull path byte for byte (property-tested in
//! `tests/mesh_parity.rs`), so the paper's two-registry experiments are
//! unchanged while split pulls open strictly better deployments.

use crate::cache::LayerCache;
use crate::digest::{Digest, DigestSet};
use crate::fault::FaultPlan;
use crate::image::{Platform, Reference};
use crate::manifest::ImageManifest;
use crate::pull::{PullOutcome, RegistryError, SourcePull};
use crate::retry::RetryPolicy;
use crate::{BlobSource, ManifestSource, Registry};
use deep_netsim::{transfer_time, Bandwidth, DataSize, RegistryId, Seconds};
use std::sync::Arc;

/// Route cost parameters for one mesh source, as seen from the pulling
/// device (the netsim cost model: route bandwidth + per-source overhead).
#[derive(Debug, Clone, Copy)]
pub struct SourceParams {
    /// Effective source→device bandwidth.
    pub download_bw: Bandwidth,
    /// Fixed overhead charged the first time the source is used in a pull
    /// (auth, manifest/connection round-trips).
    pub overhead: Seconds,
}

/// One registered source: an id, its capabilities, and its route cost.
pub struct MeshSource<'a> {
    id: RegistryId,
    manifests: Option<&'a dyn ManifestSource>,
    blobs: &'a dyn BlobSource,
    params: SourceParams,
    /// Standby sources are failover targets only: a layer is planned
    /// onto a standby iff no surviving first-class source advertises it.
    standby: bool,
}

impl<'a> MeshSource<'a> {
    /// The source's mesh handle.
    pub fn id(&self) -> RegistryId {
        self.id
    }

    /// Display label ("docker.io", "peer-cache", …).
    pub fn label(&self) -> &str {
        self.blobs.label()
    }

    /// Route cost parameters.
    pub fn params(&self) -> SourceParams {
        self.params
    }

    /// Whether this source can resolve manifests (full registries only).
    pub fn can_resolve(&self) -> bool {
        self.manifests.is_some()
    }

    /// Whether this source is a failover-only standby.
    pub fn is_standby(&self) -> bool {
        self.standby
    }

    /// Blob availability.
    pub fn has_blob(&self, digest: &Digest) -> bool {
        self.blobs.has_blob(digest)
    }
}

/// The mesh: any number of sources under explicit [`RegistryId`] handles.
///
/// Sources are borrowed, so a mesh is cheap to assemble per pull — the
/// testbed's registries stay owned where they are and the mesh is a view
/// with cost parameters for one target device.
#[derive(Default)]
pub struct RegistryMesh<'a> {
    sources: Vec<MeshSource<'a>>,
}

impl<'a> RegistryMesh<'a> {
    /// An empty mesh.
    pub fn new() -> Self {
        RegistryMesh { sources: Vec::new() }
    }

    /// Register a full registry (manifests + blobs) under `id`.
    ///
    /// Panics if `id` is already registered — mesh assembly is
    /// programmer-controlled, so a duplicate is a bug, not a runtime
    /// condition.
    pub fn add_registry(
        &mut self,
        id: RegistryId,
        registry: &'a dyn Registry,
        params: SourceParams,
    ) -> RegistryId {
        self.insert(MeshSource {
            id,
            manifests: Some(registry),
            blobs: registry,
            params,
            standby: false,
        })
    }

    /// Register a blob-only source (peer cache, mirror) under `id`.
    pub fn add_blob_source(
        &mut self,
        id: RegistryId,
        blobs: &'a dyn BlobSource,
        params: SourceParams,
    ) -> RegistryId {
        self.insert(MeshSource { id, manifests: None, blobs, params, standby: false })
    }

    /// Register a full registry as a failover-only *standby*: the
    /// session plans layers onto it only when no surviving first-class
    /// source advertises them (the surviving-source re-fetch of a
    /// mid-pull failover). With every first-class source alive, a mesh
    /// with standbys plans byte-identically to one without.
    pub fn add_standby_registry(
        &mut self,
        id: RegistryId,
        registry: &'a dyn Registry,
        params: SourceParams,
    ) -> RegistryId {
        self.insert(MeshSource {
            id,
            manifests: Some(registry),
            blobs: registry,
            params,
            standby: true,
        })
    }

    fn insert(&mut self, source: MeshSource<'a>) -> RegistryId {
        assert!(self.source(source.id).is_none(), "mesh source {} registered twice", source.id);
        let id = source.id;
        self.sources.push(source);
        id
    }

    /// Look up a source by handle.
    pub fn source(&self, id: RegistryId) -> Option<&MeshSource<'a>> {
        self.sources.iter().find(|s| s.id == id)
    }

    /// Iterate sources in registration order.
    pub fn sources(&self) -> impl Iterator<Item = &MeshSource<'a>> {
        self.sources.iter()
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True when no source is registered.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Start a pull session with `primary` as the manifest resolver.
    pub fn session(&self, primary: RegistryId) -> PullSession<'_, 'a> {
        PullSession::new(self, primary)
    }
}

/// A pull through the mesh: resolve once from the primary, then fetch
/// each missing layer from the cheapest available source.
///
/// Built builder-style:
///
/// ```
/// # use deep_registry::{HubRegistry, LayerCache, Platform, Reference};
/// # use deep_registry::mesh::{RegistryMesh, SourceParams};
/// # use deep_netsim::{Bandwidth, DataSize, RegistryId, Seconds};
/// let hub = HubRegistry::with_paper_catalog();
/// let mut mesh = RegistryMesh::new();
/// let hub_id = mesh.add_registry(
///     RegistryId(0),
///     &hub,
///     SourceParams {
///         download_bw: Bandwidth::megabytes_per_sec(13.0),
///         overhead: Seconds::new(25.0),
///     },
/// );
/// let mut cache = LayerCache::new(DataSize::gigabytes(64.0));
/// let reference = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
/// let outcome = mesh
///     .session(hub_id)
///     .extract_bw(Bandwidth::megabytes_per_sec(12.6))
///     .pull(&reference, Platform::Amd64, &mut cache)
///     .unwrap();
/// assert_eq!(outcome.layers_fetched, 3);
/// ```
pub struct PullSession<'m, 'a> {
    mesh: &'m RegistryMesh<'a>,
    primary: RegistryId,
    extract_bw: Bandwidth,
    retry: Option<RetryPolicy>,
    presumed_dead: Vec<RegistryId>,
    preresolved: Option<&'m ImageManifest>,
    /// The injected plan, the pull's number in it and the clock its
    /// windows are read at ([`PullSession::with_faults`]).
    faults: Option<(&'m FaultPlan, u64, Seconds)>,
}

impl<'m, 'a> PullSession<'m, 'a> {
    /// A session resolving manifests from `primary`.
    ///
    /// Panics if `primary` is not registered or cannot resolve manifests —
    /// both are mesh-assembly bugs.
    pub fn new(mesh: &'m RegistryMesh<'a>, primary: RegistryId) -> Self {
        let source = mesh.source(primary).unwrap_or_else(|| panic!("mesh has no source {primary}"));
        assert!(
            source.can_resolve(),
            "primary source {primary} ({}) cannot resolve manifests",
            source.label()
        );
        PullSession {
            mesh,
            primary,
            extract_bw: Bandwidth::infinite(),
            retry: None,
            presumed_dead: Vec::new(),
            preresolved: None,
            faults: None,
        }
    }

    /// Skip the manifest round-trip: plan against `manifest` as the
    /// primary's resolution. The caller asserts it is exactly what the
    /// primary's `resolve(reference, platform)` would return — schedulers
    /// memoize resolutions across the thousands of counterfactual
    /// estimates of a solve, where re-resolving (store read, integrity
    /// hash, JSON parse) would dominate the estimate itself. Incompatible
    /// with a retry policy: a preresolved session models the retry-free
    /// single-attempt resolve (attempts = 1, no backoff) bit for bit.
    pub fn preresolved(mut self, manifest: &'m ImageManifest) -> Self {
        debug_assert!(self.retry.is_none(), "preresolved manifests bypass the retry channel");
        self.preresolved = Some(manifest);
        self
    }

    /// Device disk bandwidth for layer extraction.
    pub fn extract_bw(mut self, bw: Bandwidth) -> Self {
        self.extract_bw = bw;
        self
    }

    /// Attach a retry policy: transient resolve failures
    /// ([`RegistryError::is_transient`]) are retried with backoff charged
    /// into the outcome's `backoff_total`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.retry = Some(policy);
        self
    }

    /// Treat `source` as fatally dead from the start of the pull:
    /// excluded from every layer's plan exactly as if its first fetch
    /// had failed fatally (it still appears in
    /// [`PullOutcome::failed_sources`]). This is how the failover-aware
    /// estimator prices the death branch of a pull — a counterfactual
    /// "what does this pull cost if its primary is down" — without
    /// injecting a fault plan.
    pub fn presume_dead(mut self, source: RegistryId) -> Self {
        if !self.presumed_dead.contains(&source) {
            self.presumed_dead.push(source);
        }
        self
    }

    /// Inject `plan`'s faults into this pull, number `pull` of the plan,
    /// with its outage windows read at `clock`. At each blob fetch the
    /// source answers as the plan says:
    ///
    /// * a source is dead for the whole pull while a dark window covers
    ///   it at `clock`, and every first-class source (the primary, peer
    ///   holders) is also dead when [`FaultPlan::pull_fatal`] draws it;
    ///   standbys survive the per-pull draw by assumption. A dead source
    ///   fails its fetch with [`RegistryError::Unavailable`] and the
    ///   session fails over;
    /// * a live source fails an attempt with [`RegistryError::Transient`]
    ///   when [`FaultPlan::fetch_transient`] draws it, its attempts
    ///   numbered per source from 0, except that no source sees more
    ///   than [`FaultPlan::transient_cap`] injections in a row.
    ///
    /// Sources keep advertising their blobs, so the plan is made against
    /// the advertisement, as a real mid-pull death is met. Estimates
    /// fetch nothing and are unaffected. Attach a retry policy, or the
    /// first injected transient surfaces.
    pub fn with_faults(mut self, plan: &'m FaultPlan, pull: u64, clock: Seconds) -> Self {
        self.faults = Some((plan, pull, clock));
        self
    }

    /// The primary source handle.
    pub fn primary(&self) -> RegistryId {
        self.primary
    }

    /// Execute the pull against `cache` (fetched layers are inserted).
    pub fn pull(
        &self,
        reference: &Reference,
        platform: Platform,
        cache: &mut LayerCache,
    ) -> Result<PullOutcome, RegistryError> {
        self.run(reference, platform, &mut CacheAccess::Mutate(cache))
    }

    /// Estimate the pull without mutating the cache and without driving
    /// any data-plane fetch — counterfactual evaluation for schedulers,
    /// side-effect-free even against stateful (fault-injecting) sources.
    pub fn estimate(
        &self,
        reference: &Reference,
        platform: Platform,
        cache: &LayerCache,
    ) -> Result<PullOutcome, RegistryError> {
        self.run(reference, platform, &mut CacheAccess::Inspect(cache))
    }

    fn run(
        &self,
        reference: &Reference,
        platform: Platform,
        cache: &mut CacheAccess<'_>,
    ) -> Result<PullOutcome, RegistryError> {
        let resolved;
        let (manifest, attempts, mut backoff_total) = match self.preresolved {
            Some(m) => (m, 1, Seconds::ZERO),
            None => {
                let (m, a, b) = self.resolve(reference, platform)?;
                resolved = m;
                (&*resolved, a, b)
            }
        };

        let mut cached = DataSize::ZERO;
        let mut cache_hits = 0usize;
        // Per-source buckets in order of first use. They also name the
        // sources used so far: the primary's overhead is sunk (it resolved
        // the manifest), and every other source has paid its overhead
        // exactly when it has a bucket. Grown one slot at a time, so the
        // outcome's breakdown is allocated at its exact size.
        let mut buckets: Vec<SourcePull> = Vec::new();
        // Sources that died mid-pull, in order of death: excluded from the
        // plan for every remaining layer. Presumed-dead sources (the
        // estimator's failover branch) start the pull already dead. Grown
        // one slot at a time like `buckets`.
        let mut dead: Vec<RegistryId> = self.presumed_dead.clone();
        // Estimates plan from availability alone — no data-plane fetches,
        // so a counterfactual evaluation stays side-effect-free even
        // against stateful (fault-injecting) sources.
        let fetching = matches!(cache, CacheAccess::Mutate(_));
        let mut injected: Vec<Injected> = Vec::new();

        for layer in &manifest.layers {
            if cache.hit(&layer.digest) {
                cached += layer.size;
                cache_hits += 1;
                continue;
            }
            // Failover loop: fetch from the cheapest surviving source; a
            // fatal failure kills the source and re-plans this (and every
            // later) layer onto the survivors. Transient failures are
            // retried in place under the session's policy — the source is
            // flaky, not gone — and surface if retries exhaust.
            let source = loop {
                let candidate = self
                    .cheapest_source(&layer.digest, layer.size, &buckets, &dead)
                    .ok_or_else(|| RegistryError::MissingBlob(layer.digest.clone()))?;
                if !fetching {
                    break candidate;
                }
                match self.fetch(candidate, &layer.digest, &mut injected, &mut backoff_total) {
                    Ok(()) => break candidate,
                    Err(e) if e.is_transient() => return Err(e),
                    Err(_) => {
                        dead.reserve_exact(1);
                        dead.push(candidate.id);
                        // Death-detection cost: with a retry policy
                        // attached the client cannot tell a dead source
                        // from a transient burst until its whole backoff
                        // budget is spent — only then does it re-plan
                        // this (and every later) layer onto survivors.
                        if let Some(policy) = self.retry {
                            backoff_total += policy.exhausted_backoff();
                        }
                    }
                }
            };
            match buckets.iter_mut().find(|b| b.source == source.id) {
                Some(bucket) => {
                    bucket.downloaded += layer.size;
                    bucket.layers += 1;
                }
                None => {
                    buckets.reserve_exact(1);
                    buckets.push(SourcePull {
                        source: source.id,
                        downloaded: layer.size,
                        layers: 1,
                    })
                }
            }
            cache.store(layer.digest.clone(), layer.size);
        }

        let downloaded = buckets.iter().fold(DataSize::ZERO, |acc, b| acc + b.downloaded);
        let layers_fetched = buckets.iter().map(|b| b.layers).sum();
        // Transfers are sequential per source: the pull's download time is
        // the sum of each source's bucket over its own route.
        let download_time = buckets.iter().fold(Seconds::ZERO, |acc, b| {
            let bw =
                self.mesh.source(b.source).expect("bucket source registered").params.download_bw;
            acc + transfer_time(b.downloaded, bw)
        });
        // Fixed overhead: the primary always pays (manifest negotiation +
        // container create), every additional source used pays once.
        // Summed in bucket order so the float total is deterministic.
        let primary_overhead =
            self.mesh.source(self.primary).expect("validated in new()").params.overhead;
        let overhead = buckets.iter().fold(primary_overhead, |acc, b| {
            if b.source == self.primary {
                acc
            } else {
                acc + self.mesh.source(b.source).expect("bucket source registered").params.overhead
            }
        });

        Ok(PullOutcome {
            downloaded,
            cached,
            layers_fetched,
            cache_hits,
            download_time,
            extract_time: transfer_time(downloaded, self.extract_bw),
            overhead,
            per_source: buckets,
            failed_sources: dead,
            backoff_total,
            attempts,
        })
    }

    /// Fetch one blob from `source`, retrying transient failures under the
    /// session's policy (backoff charged into the pull's `backoff_total`).
    /// Fatal errors and exhausted retries surface to the caller.
    fn fetch(
        &self,
        source: &MeshSource<'a>,
        digest: &Digest,
        injected: &mut Vec<Injected>,
        backoff_total: &mut Seconds,
    ) -> Result<(), RegistryError> {
        let Some(policy) = self.retry else {
            return self.attempt(source, digest, injected);
        };
        for attempt in 1..=policy.max_attempts {
            match self.attempt(source, digest, injected) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < policy.max_attempts => {
                    *backoff_total += policy.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop always returns")
    }

    /// One fetch attempt of `digest` from `source`, failing first as the
    /// injected plan says ([`PullSession::with_faults`]); `injected`
    /// holds the pull's per-source injection state.
    fn attempt(
        &self,
        source: &MeshSource<'a>,
        digest: &Digest,
        injected: &mut Vec<Injected>,
    ) -> Result<(), RegistryError> {
        if let Some((plan, pull, clock)) = self.faults {
            let k = match injected.iter().position(|s| s.source == source.id) {
                Some(k) => k,
                None => {
                    let dead = (!source.standby && plan.pull_fatal(pull, source.id))
                        || plan.dark_at(source.id, clock);
                    injected.push(Injected { source: source.id, dead, fetches: 0, consecutive: 0 });
                    injected.len() - 1
                }
            };
            let state = &mut injected[k];
            if state.dead {
                return Err(RegistryError::Unavailable(format!(
                    "planned death of {} for pull {pull} (before {digest})",
                    source.label()
                )));
            }
            let seq = state.fetches;
            state.fetches += 1;
            if state.consecutive < plan.transient_cap()
                && plan.fetch_transient(pull, source.id, seq)
            {
                state.consecutive += 1;
                return Err(RegistryError::Transient(format!(
                    "planned transient failure of {} (pull {pull}, fetch {seq})",
                    source.label()
                )));
            }
            state.consecutive = 0;
        }
        source.blobs.fetch_blob(digest)
    }

    /// Resolve the manifest from the primary, retrying transients when a
    /// policy is attached.
    fn resolve(
        &self,
        reference: &Reference,
        platform: Platform,
    ) -> Result<(Arc<ImageManifest>, usize, Seconds), RegistryError> {
        let source = self.mesh.source(self.primary).expect("validated in new()");
        let manifests = source.manifests.expect("validated in new()");
        let Some(policy) = self.retry else {
            return manifests.resolve(reference, platform).map(|m| (m, 1, Seconds::ZERO));
        };
        let mut backoff_total = Seconds::ZERO;
        for attempt in 1..=policy.max_attempts {
            match manifests.resolve(reference, platform) {
                Ok(m) => return Ok((m, attempt, backoff_total)),
                Err(e) if e.is_transient() && attempt < policy.max_attempts => {
                    backoff_total += policy.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop always returns")
    }

    /// The cheapest surviving source holding `digest`, under the
    /// marginal-cost model (transfer time + first-use overhead; the
    /// primary and every source with a bucket in `buckets` have paid
    /// theirs). Deterministic tie-break: primary first, then lowest id.
    ///
    /// Standby sources are failover targets only: they are considered
    /// iff no surviving first-class source advertises the blob, so a
    /// mesh carrying standbys plans byte-identically to one without as
    /// long as the first-class sources stay alive.
    fn cheapest_source(
        &self,
        digest: &Digest,
        size: DataSize,
        buckets: &[SourcePull],
        dead: &[RegistryId],
    ) -> Option<&MeshSource<'a>> {
        let used = |id: RegistryId| id == self.primary || buckets.iter().any(|b| b.source == id);
        let cheapest = |standby: bool| {
            self.mesh
                .sources()
                .filter(|s| s.standby == standby && !dead.contains(&s.id) && s.has_blob(digest))
                .min_by(|a, b| {
                    let cost = |s: &MeshSource<'_>| {
                        let mut c = transfer_time(size, s.params.download_bw).as_f64();
                        if !used(s.id) {
                            c += s.params.overhead.as_f64();
                        }
                        c
                    };
                    cost(a)
                        .partial_cmp(&cost(b))
                        .expect("costs are never NaN")
                        .then_with(|| (a.id != self.primary).cmp(&(b.id != self.primary)))
                        .then_with(|| a.id.cmp(&b.id))
                })
        };
        cheapest(false).or_else(|| cheapest(true))
    }
}

/// One source's injected-fault state within a pull: drawn dead or not,
/// attempts so far and the current run of injected transients.
struct Injected {
    source: RegistryId,
    dead: bool,
    fetches: u64,
    consecutive: usize,
}

/// Unified view over mutate-vs-inspect cache access so `pull` and
/// `estimate` share one planning loop (the seed planner duplicated it).
enum CacheAccess<'c> {
    Mutate(&'c mut LayerCache),
    Inspect(&'c LayerCache),
}

impl CacheAccess<'_> {
    fn hit(&mut self, digest: &Digest) -> bool {
        match self {
            CacheAccess::Mutate(cache) => cache.touch(digest),
            CacheAccess::Inspect(cache) => cache.contains(digest),
        }
    }

    fn store(&mut self, digest: Digest, size: DataSize) {
        if let CacheAccess::Mutate(cache) = self {
            cache.insert(digest, size);
        }
    }
}

/// A blob-only mesh source backed by peer devices' layer caches: the
/// content a fleet already holds, served over the local network instead
/// of a registry route.
///
/// The source is a *snapshot* — the executor rebuilds it at each
/// deployment wave barrier, modelling peers that advertise what they held
/// when the wave began (a gossip round per barrier).
///
/// Two granularities exist:
///
/// * [`PeerCacheSource::from_caches`] — the *aggregated* plane: every
///   peer's layers folded into one source (the scalar `peer_bw` model,
///   retained as the regression oracle). The serving device is
///   anonymous, so upload contention cannot be attributed.
/// * [`PeerCacheSource::for_holder`] — one source per *serving device*:
///   the per-pair plane registers one of these per peer, each
///   under its own mesh id, so a [`PullSession`] sees each holder's real
///   per-pair link and the simulator can charge upload contention on the
///   holder's NIC.
///
/// Cloning costs three reference-count bumps: the label, the
/// advertised digest set and the retraction set are all shared
/// (`Arc`), so one wave barrier builds each holder's source once and
/// every device's view hands the same allocation around. Both sets are
/// copy-on-write: the first [`absorb`] or [`retract`] that changes a
/// clone copies the set it changes, so a clone's edits never reach the
/// original, its sibling clones or the plane that built them.
///
/// [`absorb`]: PeerCacheSource::absorb
/// [`retract`]: PeerCacheSource::retract
#[derive(Debug, Clone, Default)]
pub struct PeerCacheSource {
    label: Arc<str>,
    /// The serving device behind this snapshot, when the source models a
    /// single holder rather than the aggregated fleet.
    holder: Option<deep_netsim::DeviceId>,
    /// Every advertised digest, shared between clones until one of them
    /// absorbs more layers.
    blobs: Arc<DigestSet>,
    /// Layers evicted from the holder *after* the snapshot gossip round:
    /// still advertised (`has_blob` is the stale gossip view a session
    /// plans against), but a fetch finds them gone and fails over — the
    /// cache-pressure chaos event of the soak harness. Shared between
    /// clones until one of them retracts or re-validates a layer.
    retracted: Arc<DigestSet>,
}

impl PeerCacheSource {
    /// An empty source with a display label.
    pub fn new(label: &str) -> Self {
        PeerCacheSource { label: label.into(), ..PeerCacheSource::default() }
    }

    /// Snapshot every digest of `caches` into one source.
    pub fn from_caches<'c>(label: &str, caches: impl IntoIterator<Item = &'c LayerCache>) -> Self {
        let mut source = PeerCacheSource::new(label);
        for cache in caches {
            source.absorb(cache);
        }
        source
    }

    /// Snapshot one serving device's cache: the per-holder source of the
    /// per-pair peer plane.
    pub fn for_holder(holder: deep_netsim::DeviceId, cache: &LayerCache) -> Self {
        let mut source = PeerCacheSource::new(&format!("peer-{holder}"));
        source.holder = Some(holder);
        source.absorb(cache);
        source
    }

    /// The serving device, when this source models a single holder.
    pub fn holder(&self) -> Option<deep_netsim::DeviceId> {
        self.holder
    }

    /// Add every layer of `cache` to the snapshot (and re-validate any
    /// earlier retraction the cache has since re-acquired).
    pub fn absorb(&mut self, cache: &LayerCache) {
        let blobs = Arc::make_mut(&mut self.blobs);
        for digest in cache.digests() {
            if self.retracted.contains(digest) {
                Arc::make_mut(&mut self.retracted).remove(digest);
            }
            blobs.insert(digest.clone());
        }
    }

    /// Mark an advertised layer as gone-but-still-advertised: the holder
    /// evicted it after the gossip round. `has_blob` keeps answering
    /// true (sessions plan against the stale advertisement), but the
    /// fetch fails with [`RegistryError::Unavailable`] and the session
    /// fails the layer over mid-pull. Returns whether the layer was
    /// advertised at all.
    pub fn retract(&mut self, digest: &Digest) -> bool {
        if !self.blobs.contains(digest) {
            return false;
        }
        if !self.retracted.contains(digest) {
            Arc::make_mut(&mut self.retracted).insert(digest.clone());
        }
        true
    }

    /// Every advertised digest, retractions included (a retracted layer
    /// is still *advertised* — that is what makes it stale). Iteration
    /// order is unspecified; callers needing determinism must sort.
    pub fn digests(&self) -> impl Iterator<Item = &Digest> {
        self.blobs.iter()
    }

    /// Number of distinct layers the peers can serve.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when no peer holds anything.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }
}

impl BlobSource for PeerCacheSource {
    fn label(&self) -> &str {
        &self.label
    }

    fn has_blob(&self, digest: &Digest) -> bool {
        self.blobs.contains(digest)
    }

    fn fetch_blob(&self, digest: &Digest) -> Result<(), RegistryError> {
        if self.retracted.contains(digest) {
            return Err(RegistryError::Unavailable(format!(
                "{} evicted {digest} after advertising it",
                self.label
            )));
        }
        if self.has_blob(digest) {
            Ok(())
        } else {
            Err(RegistryError::MissingBlob(digest.clone()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::HubRegistry;
    use crate::pull::PullPlanner;
    use crate::regional::RegionalRegistry;
    use crate::retry::FlakyRegistry;

    const HUB: RegistryId = RegistryId(0);
    const REGIONAL: RegistryId = RegistryId(1);
    const PEER: RegistryId = RegistryId(2);

    fn hub_params() -> SourceParams {
        SourceParams {
            download_bw: Bandwidth::megabytes_per_sec(13.0),
            overhead: Seconds::new(25.0),
        }
    }

    fn regional_params() -> SourceParams {
        SourceParams { download_bw: Bandwidth::megabytes_per_sec(8.0), overhead: Seconds::new(5.0) }
    }

    fn peer_params() -> SourceParams {
        SourceParams {
            download_bw: Bandwidth::megabytes_per_sec(80.0),
            overhead: Seconds::new(1.0),
        }
    }

    fn cache() -> LayerCache {
        LayerCache::new(DataSize::gigabytes(64.0))
    }

    #[test]
    fn single_source_mesh_matches_seed_planner() {
        let hub = HubRegistry::with_paper_catalog();
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        let session = mesh.session(HUB).extract_bw(Bandwidth::megabytes_per_sec(12.6));
        let planner = PullPlanner {
            download_bw: hub_params().download_bw,
            extract_bw: Bandwidth::megabytes_per_sec(12.6),
            overhead: hub_params().overhead,
        };
        let r = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
        let mut c1 = cache();
        let mut c2 = cache();
        let mesh_out = session.pull(&r, Platform::Amd64, &mut c1).unwrap();
        let seed_out = planner.pull(&hub, &r, Platform::Amd64, &mut c2).unwrap();
        assert_eq!(mesh_out, seed_out);
        // Warm pulls agree too (overhead-only, empty breakdown).
        let mesh_warm = session.pull(&r, Platform::Amd64, &mut c1).unwrap();
        let seed_warm = planner.pull(&hub, &r, Platform::Amd64, &mut c2).unwrap();
        assert_eq!(mesh_warm, seed_warm);
        assert!(mesh_warm.per_source.is_empty());
    }

    #[test]
    fn split_pull_fetches_each_layer_from_the_cheapest_source() {
        // Peer device already holds the 5.2 GB shared training stack; the
        // 580 MB app layer is only on the registries. The session must
        // split: stack from the peer, app layer from the hub (13 MB/s
        // beats regional 8 MB/s, hub overhead already sunk as primary).
        let hub = HubRegistry::with_paper_catalog();
        let regional = RegionalRegistry::with_paper_catalog();
        let mut peer_cache = cache();
        let warm_planner = PullPlanner {
            download_bw: hub_params().download_bw,
            extract_bw: Bandwidth::infinite(),
            overhead: Seconds::ZERO,
        };
        let la = Reference::new("docker.io", "sina88/vp-la-train", "amd64");
        warm_planner.pull(&hub, &la, Platform::Amd64, &mut peer_cache).unwrap();
        let peer = PeerCacheSource::from_caches("peer-cache", [&peer_cache]);

        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        mesh.add_registry(REGIONAL, &regional, regional_params());
        mesh.add_blob_source(PEER, &peer, peer_params());

        let ha = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
        let mut c = cache();
        let out = mesh.session(HUB).pull(&ha, Platform::Amd64, &mut c).unwrap();
        assert_eq!(out.downloaded, DataSize::gigabytes(5.78), "cold pull moves everything");
        assert_eq!(out.per_source.len(), 2, "{:?}", out.per_source);
        let peer_bucket = out.per_source.iter().find(|b| b.source == PEER).unwrap();
        let hub_bucket = out.per_source.iter().find(|b| b.source == HUB).unwrap();
        assert_eq!(peer_bucket.downloaded, DataSize::megabytes(5200.0));
        assert_eq!(hub_bucket.downloaded, DataSize::megabytes(580.0));
        // Overheads: hub (primary, 25) + peer (first use, 1). Regional
        // unused, unpaid.
        assert!((out.overhead.as_f64() - 26.0).abs() < 1e-12);
        // Download time: 5200/80 + 580/13 = 65 + 44.615…
        assert!((out.download_time.as_f64() - (5200.0 / 80.0 + 580.0 / 13.0)).abs() < 1e-9);
    }

    #[test]
    fn peer_source_clones_copy_the_digest_set_on_write() {
        let (a, b, c) = (Digest::of(b"a"), Digest::of(b"b"), Digest::of(b"c"));
        let mut held = cache();
        held.insert(a.clone(), DataSize::megabytes(10.0));
        held.insert(b.clone(), DataSize::megabytes(10.0));
        let original = PeerCacheSource::for_holder(deep_netsim::DeviceId(3), &held);
        let mut clone = original.clone();
        assert!(Arc::ptr_eq(&original.blobs, &clone.blobs), "a clone shares the set");

        let mut more = cache();
        more.insert(c.clone(), DataSize::megabytes(10.0));
        clone.absorb(&more);
        assert!(clone.retract(&a));
        assert!(!Arc::ptr_eq(&original.blobs, &clone.blobs), "absorb copied the set");
        assert!(clone.has_blob(&c));
        assert!(matches!(clone.fetch_blob(&a), Err(RegistryError::Unavailable(_))));

        let mut digests: Vec<&Digest> = original.digests().collect();
        digests.sort();
        let mut expected = vec![&a, &b];
        expected.sort();
        assert_eq!(digests, expected, "the original's digests are untouched");
        assert_eq!(original.len(), 2);
        assert!(original.has_blob(&a) && original.has_blob(&b) && !original.has_blob(&c));
        assert!(original.fetch_blob(&a).is_ok(), "a clone's retraction stays its own");
        assert!(original.fetch_blob(&b).is_ok());
        assert!(matches!(original.fetch_blob(&c), Err(RegistryError::MissingBlob(_))));
    }

    #[test]
    fn peer_source_retractions_copy_on_write() {
        let (a, b) = (Digest::of(b"a"), Digest::of(b"b"));
        let mut held = cache();
        held.insert(a.clone(), DataSize::megabytes(10.0));
        held.insert(b.clone(), DataSize::megabytes(10.0));
        let original = PeerCacheSource::for_holder(deep_netsim::DeviceId(3), &held);
        let sibling = original.clone();
        let mut clone = original.clone();
        assert!(Arc::ptr_eq(&original.label, &clone.label), "a clone shares the label");
        assert!(Arc::ptr_eq(&original.retracted, &clone.retracted), "and the retractions");

        // A retraction on one clone copies its set and stays its own.
        assert!(clone.retract(&a));
        assert!(!Arc::ptr_eq(&original.retracted, &clone.retracted));
        assert!(Arc::ptr_eq(&original.blobs, &clone.blobs), "the digest set is still shared");
        assert!(matches!(clone.fetch_blob(&a), Err(RegistryError::Unavailable(_))));
        for untouched in [&original, &sibling] {
            assert!(untouched.fetch_blob(&a).is_ok() && untouched.fetch_blob(&b).is_ok());
        }
        // Retracting an already retracted layer copies nothing more, and
        // a digest never advertised is not retracted at all.
        let retracted = Arc::clone(&clone.retracted);
        assert!(clone.retract(&a));
        assert!(Arc::ptr_eq(&retracted, &clone.retracted));
        drop(retracted);
        assert!(!clone.retract(&Digest::of(b"never")));

        // `absorb` re-validates only the clone it runs on: a clone of the
        // retracted source that re-absorbs the layer serves it again,
        // while the retracted source keeps failing it over.
        let mut revalidated = clone.clone();
        revalidated.absorb(&held);
        assert!(revalidated.fetch_blob(&a).is_ok());
        assert!(matches!(clone.fetch_blob(&a), Err(RegistryError::Unavailable(_))));
        assert!(original.fetch_blob(&a).is_ok() && sibling.fetch_blob(&a).is_ok());
    }

    #[test]
    fn retracted_advertisement_fails_over_mid_pull() {
        // The peer advertises the shared stack, then evicts one layer
        // after the gossip round: the session plans the stack onto the
        // peer, hits the stale advertisement mid-pull, and fails the
        // remaining layers over to the hub instead of panicking.
        let hub = HubRegistry::with_paper_catalog();
        let mut peer_cache = cache();
        let warm = PullPlanner {
            download_bw: Bandwidth::infinite(),
            extract_bw: Bandwidth::infinite(),
            overhead: Seconds::ZERO,
        };
        let la = Reference::new("docker.io", "sina88/vp-la-train", "amd64");
        warm.pull(&hub, &la, Platform::Amd64, &mut peer_cache).unwrap();
        let mut peer = PeerCacheSource::from_caches("peer-cache", [&peer_cache]);
        // Retract a shared layer the upcoming pull will actually plan
        // onto the peer (an la-only layer would never be fetched).
        let ha = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
        let manifest = hub.resolve(&ha, Platform::Amd64).unwrap();
        let victim = manifest
            .layers
            .iter()
            .map(|l| l.digest.clone())
            .find(|d| peer_cache.contains(d))
            .expect("the warm peer shares a layer with vp-ha-train");
        assert!(peer.retract(&victim));
        assert!(peer.has_blob(&victim), "still advertised after retraction");
        assert!(matches!(peer.fetch_blob(&victim), Err(RegistryError::Unavailable(_))));

        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        mesh.add_blob_source(PEER, &peer, peer_params());
        let out = mesh.session(HUB).pull(&ha, Platform::Amd64, &mut cache()).unwrap();
        assert!(out.failed_sources.contains(&PEER), "{:?}", out.failed_sources);
        assert_eq!(out.downloaded, DataSize::gigabytes(5.78), "every layer still lands");
        // Re-absorbing a cache that holds the layer clears the retraction.
        peer.absorb(&peer_cache);
        assert!(peer.fetch_blob(&victim).is_ok());
    }

    #[test]
    fn split_pull_beats_every_single_source_pull() {
        let hub = HubRegistry::with_paper_catalog();
        let regional = RegionalRegistry::with_paper_catalog();
        let mut peer_cache = cache();
        let warm = PullPlanner {
            download_bw: Bandwidth::infinite(),
            extract_bw: Bandwidth::infinite(),
            overhead: Seconds::ZERO,
        };
        let la = Reference::new("docker.io", "sina88/vp-la-train", "amd64");
        warm.pull(&hub, &la, Platform::Amd64, &mut peer_cache).unwrap();
        let peer = PeerCacheSource::from_caches("peer-cache", [&peer_cache]);

        let ha = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
        let ha_regional = Reference::new("dcloud2.itec.aau.at", "aau/vp-ha-train", "amd64");
        let single = |params: SourceParams, reg: &dyn Registry, r: &Reference| {
            let mut mesh = RegistryMesh::new();
            mesh.add_registry(HUB, reg, params);
            mesh.session(HUB).pull(r, Platform::Amd64, &mut cache()).unwrap().deployment_time()
        };
        let hub_only = single(hub_params(), &hub, &ha);
        let regional_only = single(regional_params(), &regional, &ha_regional);

        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        mesh.add_registry(REGIONAL, &regional, regional_params());
        mesh.add_blob_source(PEER, &peer, peer_params());
        let split =
            mesh.session(HUB).pull(&ha, Platform::Amd64, &mut cache()).unwrap().deployment_time();

        assert!(
            split.as_f64() < hub_only.as_f64().min(regional_only.as_f64()),
            "split {split} vs hub {hub_only} / regional {regional_only}"
        );
    }

    #[test]
    fn estimate_matches_pull_without_mutation() {
        let hub = HubRegistry::with_paper_catalog();
        let regional = RegionalRegistry::with_paper_catalog();
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        mesh.add_registry(REGIONAL, &regional, regional_params());
        let session = mesh.session(REGIONAL);
        let r = Reference::new("dcloud2.itec.aau.at", "aau/tp-decompress", "amd64");
        let mut c = cache();
        let est = session.estimate(&r, Platform::Amd64, &c).unwrap();
        let real = session.pull(&r, Platform::Amd64, &mut c).unwrap();
        assert_eq!(est, real);
        let est2 = session.estimate(&r, Platform::Amd64, &c).unwrap();
        assert_eq!(est2.downloaded, DataSize::ZERO, "estimate did not mutate");
    }

    /// A registry that resolves manifests but serves no blobs — the state
    /// of a registry mid-replication.
    struct ManifestOnly(HubRegistry);

    impl ManifestSource for ManifestOnly {
        fn host(&self) -> &str {
            self.0.host()
        }

        fn resolve(
            &self,
            reference: &Reference,
            platform: Platform,
        ) -> Result<Arc<ImageManifest>, RegistryError> {
            self.0.resolve(reference, platform)
        }

        fn repositories(&self) -> Vec<String> {
            self.0.repositories()
        }
    }

    impl BlobSource for ManifestOnly {
        fn label(&self) -> &str {
            "manifest-only"
        }

        fn has_blob(&self, _digest: &Digest) -> bool {
            false
        }
    }

    #[test]
    fn missing_blob_errors_when_no_source_serves_it() {
        let stub = ManifestOnly(HubRegistry::with_paper_catalog());
        let peer = PeerCacheSource::new("empty-peer");
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &stub, hub_params());
        mesh.add_blob_source(PEER, &peer, peer_params());
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let err = mesh.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap_err();
        assert!(matches!(err, RegistryError::MissingBlob(_)), "{err}");
        // Adding a blob-capable source heals the pull.
        let hub = HubRegistry::with_paper_catalog();
        let mut healed = RegistryMesh::new();
        healed.add_registry(HUB, &stub, hub_params());
        healed.add_blob_source(REGIONAL, &hub, regional_params());
        let out = healed.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap();
        assert_eq!(out.per_source.len(), 1);
        assert_eq!(out.per_source[0].source, REGIONAL);
    }

    #[test]
    fn retry_policy_attaches_to_the_session() {
        let flaky = FlakyRegistry::new(HubRegistry::with_paper_catalog(), 2);
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &flaky, hub_params());
        let session = mesh.session(HUB).with_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: Seconds::new(2.0),
            ..Default::default()
        });
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let out = session.pull(&r, Platform::Amd64, &mut cache()).unwrap();
        assert_eq!(out.attempts, 3);
        assert!((out.backoff_total.as_f64() - 6.0).abs() < 1e-12);
        // Backoff is charged to Td but not folded into overhead.
        assert!((out.overhead.as_f64() - 25.0).abs() < 1e-12);
        assert!(out.deployment_time().as_f64() >= 6.0 + 25.0);
        assert_eq!(flaky.pending_failures(), 0);
    }

    #[test]
    fn session_without_policy_surfaces_transients() {
        let flaky = FlakyRegistry::new(HubRegistry::with_paper_catalog(), 1);
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &flaky, hub_params());
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let err = mesh.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn peer_cache_source_snapshots_and_absorbs() {
        let mut a = cache();
        let mut b = cache();
        a.insert(Digest::of(b"layer-a"), DataSize::megabytes(10.0));
        b.insert(Digest::of(b"layer-b"), DataSize::megabytes(10.0));
        b.insert(Digest::of(b"layer-a"), DataSize::megabytes(10.0));
        let peer = PeerCacheSource::from_caches("fleet", [&a, &b]);
        assert_eq!(peer.len(), 2, "digests dedup across peers");
        assert!(peer.has_blob(&Digest::of(b"layer-a")));
        assert!(peer.has_blob(&Digest::of(b"layer-b")));
        assert!(!peer.has_blob(&Digest::of(b"layer-c")));
        assert_eq!(peer.label(), "fleet");
        // The snapshot is decoupled from later cache evolution.
        a.insert(Digest::of(b"layer-c"), DataSize::megabytes(10.0));
        assert!(!peer.has_blob(&Digest::of(b"layer-c")));
    }

    #[test]
    fn fatal_mid_pull_fails_over_to_surviving_sources() {
        // The hub serves one layer then dies; the session re-plans the
        // remaining layers onto the regional registry instead of failing
        // the pull.
        let hub = crate::retry::FaultySource::fatal_after(HubRegistry::with_paper_catalog(), 1);
        let regional = RegionalRegistry::with_paper_catalog();
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        mesh.add_registry(REGIONAL, &regional, regional_params());
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let mut c = cache();
        let out = mesh.session(HUB).pull(&r, Platform::Amd64, &mut c).unwrap();
        assert_eq!(out.failed_sources, vec![HUB]);
        assert_eq!(out.layers_fetched, 3, "the pull still completes");
        let hub_bucket = out.per_source.iter().find(|b| b.source == HUB).unwrap();
        let reg_bucket = out.per_source.iter().find(|b| b.source == REGIONAL).unwrap();
        assert_eq!(hub_bucket.layers, 1, "one layer landed before the death");
        assert_eq!(reg_bucket.layers, 2, "survivors carry the rest");
        // Both sources were used, so both overheads are charged.
        assert!((out.overhead.as_f64() - 30.0).abs() < 1e-12);
        // The device cache is complete: a re-pull is fully warm.
        let warm = mesh.session(REGIONAL).pull(
            &Reference::new("dcloud2.itec.aau.at", "aau/vp-transcode", "amd64"),
            Platform::Amd64,
            &mut c,
        );
        assert_eq!(warm.unwrap().downloaded, DataSize::ZERO);
    }

    #[test]
    fn dead_source_stays_dead_for_the_rest_of_the_session_pull() {
        // Death before any successful fetch: every layer fails over, the
        // dead source contributes no bucket and pays no overhead beyond
        // its (sunk) primary share.
        let hub = crate::retry::FaultySource::fatal_after(HubRegistry::with_paper_catalog(), 0);
        let regional = RegionalRegistry::with_paper_catalog();
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        mesh.add_registry(REGIONAL, &regional, regional_params());
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let out = mesh.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap();
        assert_eq!(out.failed_sources, vec![HUB], "killed once, not once per layer");
        assert_eq!(out.per_source.len(), 1);
        assert_eq!(out.per_source[0].source, REGIONAL);
        assert_eq!(out.per_source[0].layers, 3);
    }

    #[test]
    fn transient_blob_failures_retry_in_place_under_the_policy() {
        // A flaky (not dead) source: transient fetch failures back off and
        // retry against the same source — no failover, backoff charged.
        let hub =
            crate::retry::FaultySource::transient_run(HubRegistry::with_paper_catalog(), 1, 2);
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        let session = mesh.session(HUB).with_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: Seconds::new(2.0),
            ..Default::default()
        });
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let out = session.pull(&r, Platform::Amd64, &mut cache()).unwrap();
        assert!(out.failed_sources.is_empty(), "transient ≠ dead");
        assert_eq!(out.layers_fetched, 3);
        // Two injected failures on one layer: 2 + 4 = 6 s of backoff.
        assert!((out.backoff_total.as_f64() - 6.0).abs() < 1e-12);
        assert_eq!(hub.pending_failures(), 0);
    }

    #[test]
    fn transient_blob_failure_without_policy_surfaces() {
        let hub =
            crate::retry::FaultySource::transient_run(HubRegistry::with_paper_catalog(), 0, 1);
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let err = mesh.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn exhausted_transient_retries_surface_the_error() {
        let hub =
            crate::retry::FaultySource::transient_run(HubRegistry::with_paper_catalog(), 0, 10);
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        let session = mesh.session(HUB).with_retry(RetryPolicy {
            max_attempts: 2,
            base_backoff: Seconds::new(1.0),
            ..Default::default()
        });
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let err = session.pull(&r, Platform::Amd64, &mut cache()).unwrap_err();
        assert!(err.is_transient(), "retries exhaust into the transient error");
    }

    #[test]
    fn estimates_perform_no_fetches_against_faulty_sources() {
        // Counterfactual evaluation must be side-effect-free: estimating
        // against a source primed to die consumes none of its failure
        // budget and reports the clean plan; only the real pull trips it.
        let hub = crate::retry::FaultySource::fatal_after(HubRegistry::with_paper_catalog(), 0);
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let est = mesh.session(HUB).estimate(&r, Platform::Amd64, &cache()).unwrap();
        assert!(est.failed_sources.is_empty(), "no fetches, no deaths");
        assert_eq!(est.layers_fetched, 3);
        let est2 = mesh.session(HUB).estimate(&r, Platform::Amd64, &cache()).unwrap();
        assert_eq!(est, est2, "estimates are repeatable");
        // The real pull then hits the injected death (sole source).
        let err = mesh.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap_err();
        assert!(matches!(err, RegistryError::MissingBlob(_)));
    }

    #[test]
    fn every_source_dead_is_a_missing_blob() {
        let hub = crate::retry::FaultySource::fatal_after(HubRegistry::with_paper_catalog(), 0);
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let err = mesh.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap_err();
        assert!(matches!(err, RegistryError::MissingBlob(_)), "{err}");
        assert!(!err.is_transient());
    }

    #[test]
    fn standby_sources_serve_only_when_no_first_class_source_survives() {
        // Alive primary: the standby regional is never planned, even
        // where it would be cheaper — the plan is byte-identical to a
        // standby-free mesh.
        let hub = HubRegistry::with_paper_catalog();
        let regional = RegionalRegistry::with_paper_catalog();
        let r = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
        let mut with_standby = RegistryMesh::new();
        with_standby.add_registry(HUB, &hub, hub_params());
        with_standby.add_standby_registry(REGIONAL, &regional, peer_params());
        assert!(with_standby.source(REGIONAL).unwrap().is_standby());
        let mut without = RegistryMesh::new();
        without.add_registry(HUB, &hub, hub_params());
        let a = with_standby.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap();
        let b = without.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap();
        assert_eq!(a, b, "standby changed an all-alive plan");
        // Dead primary: the standby carries the whole failover.
        let dying = crate::retry::FaultySource::fatal_after(HubRegistry::with_paper_catalog(), 0);
        let mut failing = RegistryMesh::new();
        failing.add_registry(HUB, &dying, hub_params());
        failing.add_standby_registry(REGIONAL, &regional, peer_params());
        let out = failing.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap();
        assert_eq!(out.failed_sources, vec![HUB]);
        assert!(out.per_source.iter().all(|b| b.source == REGIONAL));
    }

    #[test]
    fn presumed_dead_primary_prices_the_failover_branch() {
        // The estimator's counterfactual: presume the primary dead and
        // the estimate equals what a real pull measures when the primary
        // actually dies before its first fetch.
        let hub = HubRegistry::with_paper_catalog();
        let dying = crate::retry::FaultySource::fatal_after(HubRegistry::with_paper_catalog(), 0);
        let regional = RegionalRegistry::with_paper_catalog();
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        mesh.add_standby_registry(REGIONAL, &regional, regional_params());
        let est =
            mesh.session(HUB).presume_dead(HUB).estimate(&r, Platform::Amd64, &cache()).unwrap();
        let mut real_mesh = RegistryMesh::new();
        real_mesh.add_registry(HUB, &dying, hub_params());
        real_mesh.add_standby_registry(REGIONAL, &regional, regional_params());
        let real = real_mesh.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap();
        assert_eq!(est, real, "presumed death prices the realised failover exactly");
        assert_eq!(est.failed_sources, vec![HUB]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_source_ids_are_rejected() {
        let hub = HubRegistry::with_paper_catalog();
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, hub_params());
        mesh.add_registry(HUB, &hub, hub_params());
    }

    #[test]
    #[should_panic(expected = "cannot resolve manifests")]
    fn blob_only_primary_is_rejected() {
        let peer = PeerCacheSource::new("peer");
        let mut mesh = RegistryMesh::new();
        mesh.add_blob_source(PEER, &peer, peer_params());
        let _ = mesh.session(PEER);
    }
}
