//! Gossip-backed peer discovery: the decentralized replacement for the
//! executor's omniscient per-wave peer snapshot.
//!
//! The snapshot plane ([`crate::testbed::PeerPlane::snapshot`]) hands a
//! pulling device the *current* cache of every other device — a central
//! catalog. [`GossipPlane`] replaces it with the epidemic protocol of
//! [`deep_netsim::gossip`]: each device advertises its layer-cache
//! digest set (as a [`PeerCacheSource`]) under an epoch, a seeded
//! push/pull round runs at every wave barrier, and a pull's mesh is
//! assembled from the *puller's partial view* — bounded to `view_size`
//! holders, because the `peer_plane` bench prices every extra holder a
//! session must consider (~0.2 µs each).
//!
//! Two kinds of staleness arise, and both must degrade into the mesh's
//! existing mid-pull failover rather than a wrong answer:
//!
//! * **Lag** — a holder warmed a layer but the epoch hasn't reached the
//!   viewer yet: the viewer simply doesn't count on that holder. The
//!   scheduler prices this correctly for free, because the estimator
//!   runs the *same* plane over its mirrored caches.
//! * **Lies** — a viewer holds an old epoch advertising a layer the
//!   holder has since evicted. [`GossipPlane::mesh_view`] materializes
//!   such entries with the dead digests *retracted*: `has_blob` keeps
//!   answering true (the session plans against the stale advertisement,
//!   exactly like the cache-pressure chaos path), but the fetch fails
//!   and the session fails over. Without this, a stale ad would let a
//!   simulated fetch succeed against bytes that no longer exist.
//!
//! **Empty caches stay silent.** A device that has never advertised
//! does not publish while its cache is empty. Views are unaffected —
//! materialization drops empty advertisements, and skipping them
//! relabels a holder's epochs monotonically (an empty first epoch
//! becomes "absent", later epoch `e` becomes `e - 1`), which commutes
//! with the max-merge — but an idle fleet no longer pays for it: only
//! the holders with something to share own an epoch column or cost an
//! exchange anything. A holder that advertised and then emptied still
//! re-advertises, so its stale ad ages out. Convergence is reached
//! sooner, since empty ads no longer circulate.
//!
//! Materialized views are cached per target and keyed on the gossip
//! state's [generation](deep_netsim::gossip::GossipState::generation):
//! between two barriers of an unchanged fleet no epoch moves, so every
//! re-materialization would rebuild the identical holder list — the
//! cache hands back the stored copy instead. Any advertisement or view
//! movement bumps the generation and invalidates every cached view;
//! out-of-band cache mutations (the chaos path) go through
//! [`GossipPlane::readvertise`], which is itself an epoch bump. Bounded
//! views use an O(n) partial selection (`select_nth_unstable_by`) in
//! place of a full sort — the (len desc, holder asc) comparator is a
//! total order over the unique holders, so the selected top-k set is
//! exactly the full sort's prefix.
//!
//! With `fanout >= devices - 1` and one round per wave, every barrier
//! fully re-converges the views, and an unbounded `view_size` makes
//! `mesh_view` reproduce `PeerPlane::snapshot` holder for holder — the
//! differential bridge `tests/gossip_discovery.rs` locks down byte for
//! byte. The same suite drives the plane call for call against a
//! test-side reference built on the clone-based exchange
//! ([`deep_netsim::gossip::oracle`]) with a full sort-and-truncate view.

use crate::executor::PeerDiscovery;
use crate::testbed::peer_source_id;
use deep_netsim::gossip::GossipState;
use deep_netsim::{DeviceId, RegistryId};
use deep_registry::{BlobSource, LayerCache, PeerCacheSource};

/// A materialized mesh view, remembered until the gossip generation it
/// was built under moves.
type CachedView = Option<(u64, Vec<(RegistryId, PeerCacheSource)>)>;

/// The fleet-wide gossip discovery plane: epidemic state plus the knobs
/// of [`crate::executor::PeerDiscovery::Gossip`].
#[derive(Debug, Clone)]
pub struct GossipPlane {
    state: GossipState<PeerCacheSource>,
    views: Vec<CachedView>,
    fanout: u32,
    view_size: u32,
    rounds_per_wave: u32,
}

impl GossipPlane {
    /// A fresh plane over `devices` nodes. `fanout` is clamped to
    /// `devices - 1` per round; `view_size` bounds how many holder
    /// sources [`Self::mesh_view`] materializes into one pull's mesh.
    pub fn new(
        devices: usize,
        fanout: u32,
        view_size: u32,
        rounds_per_wave: u32,
        seed: u64,
    ) -> Self {
        GossipPlane {
            state: GossipState::new(devices, seed),
            views: vec![None; devices],
            fanout,
            view_size,
            rounds_per_wave,
        }
    }

    /// The plane `discovery` asks for over `devices` nodes, seeded with
    /// `seed`: `None` under [`PeerDiscovery::Snapshot`]. The executor
    /// and the estimator both build their planes here, so the two
    /// partner schedules match whenever their seeds do.
    pub fn for_discovery(discovery: PeerDiscovery, devices: usize, seed: u64) -> Option<Self> {
        match discovery {
            PeerDiscovery::Snapshot => None,
            PeerDiscovery::Gossip { fanout, view_size, rounds_per_wave } => {
                Some(GossipPlane::new(devices, fanout, view_size, rounds_per_wave, seed))
            }
        }
    }

    /// Publish `holder`'s cache when its advertisement is out of date,
    /// or unconditionally with `force` (the chaos re-advertisement).
    /// Empty caches stay silent (see the module doc): a holder that
    /// never advertised does not publish while it holds nothing.
    fn refresh(&mut self, holder: usize, cache: &LayerCache, force: bool) {
        let publish = match self.state.self_ad(holder) {
            Some(ad) => {
                force || ad.len() != cache.len() || cache.digests().any(|d| !ad.has_blob(d))
            }
            None => !cache.is_empty(),
        };
        if publish {
            self.state.advertise(holder, PeerCacheSource::for_holder(DeviceId(holder), cache));
        }
    }

    /// The wave-barrier step, mirroring the snapshot plane's "peers
    /// advertise what they held when the wave began": every device whose
    /// cache diverged from its own last advertisement re-advertises
    /// (epoch bump), then `rounds_per_wave` epidemic rounds spread the
    /// freshest epochs. `caches[j]` is device `j`'s layer cache. A
    /// device that never advertised stays silent while its cache is
    /// empty (views cannot tell the difference). On an unchanged fleet
    /// nothing re-advertises and every round short-circuits — the
    /// barrier allocates nothing and the cached mesh views stay live.
    pub fn barrier_round(&mut self, caches: &[&LayerCache]) {
        for (j, cache) in caches.iter().enumerate() {
            self.refresh(j, cache, false);
        }
        self.state.run_rounds(self.rounds_per_wave, self.fanout);
    }

    /// Immediate re-advertisement after an out-of-band cache change —
    /// the chaos cache-pressure path. The epoch bump makes every remote
    /// copy of the old advertisement stale, so it ages out of the fleet
    /// as subsequent rounds spread the fresh (smaller) one; until then,
    /// viewers acting on the lie pay a failover, never a wrong estimate.
    /// (The bump also moves the generation, invalidating every cached
    /// mesh view — which is why out-of-band mutations must come through
    /// here.) A holder that never advertised and is empty stays silent.
    pub fn readvertise(&mut self, holder: DeviceId, cache: &LayerCache) {
        if holder.0 < self.state.devices() {
            self.refresh(holder.0, cache, true);
        }
    }

    /// Materialize the pulling device's bounded mesh view: the holders
    /// it currently knows of, largest advertisement first, truncated to
    /// `view_size`, returned in ascending holder order under the same
    /// [`peer_source_id`] scheme as the snapshot plane (so route keys,
    /// uplink contention and trace ids are identical across discovery
    /// modes). Digests a holder advertised but no longer actually holds
    /// (per `caches`) are retracted in the materialized source: the
    /// session still *plans* against the stale advertisement, but the
    /// fetch fails over instead of serving vanished bytes.
    ///
    /// Views are cached per target for as long as the gossip generation
    /// holds still: between barriers of an unchanged fleet this is a
    /// clone of the stored vector, not a rebuild — and a cheap one, as
    /// each source shares its digest set with the advertisement.
    ///
    /// **Precondition.** A cached view (and the retractions baked into
    /// it) is valid only if every change to `caches` since that view was
    /// built went through [`Self::barrier_round`] or
    /// [`Self::readvertise`]. A cache mutated behind the plane's back
    /// moves no generation, so the stale copy would be handed back.
    pub fn mesh_view(
        &mut self,
        caches: &[&LayerCache],
        target: usize,
    ) -> Vec<(RegistryId, PeerCacheSource)> {
        let generation = self.state.generation();
        if let Some((built_at, view)) = &self.views[target] {
            if *built_at == generation {
                return view.clone();
            }
        }
        let view = materialize(self.state.known(target), self.view_size, caches, target);
        self.views[target] = Some((generation, view.clone()));
        view
    }

    /// True when every view carries the freshest epoch of every
    /// advertisement — the regime in which `mesh_view` (unbounded)
    /// equals the omniscient snapshot.
    pub fn converged(&self) -> bool {
        self.state.converged()
    }

    /// Epidemic rounds run so far.
    pub fn rounds_run(&self) -> u64 {
        self.state.rounds_run()
    }
}

/// View materialization over the state's `known` iterator: bounded
/// deterministic selection (largest advertisement first, ties to the
/// lower device id), ascending-holder output, stale digests retracted
/// against the live `caches`.
fn materialize<'a>(
    known: impl Iterator<Item = (usize, u64, &'a PeerCacheSource)>,
    view_size: u32,
    caches: &[&LayerCache],
    target: usize,
) -> Vec<(RegistryId, PeerCacheSource)> {
    let mut candidates: Vec<(usize, &PeerCacheSource)> = known
        .filter(|&(holder, _, ad)| holder != target && !ad.is_empty())
        .map(|(holder, _, ad)| (holder, ad))
        .collect();
    // Deterministic bounded selection: prefer the holders advertising
    // the most layers (most likely to cover the pull), break ties on
    // the lower device id. Holders are unique, so the comparator is a
    // total order and an O(n) partial selection keeps exactly the set a
    // full sort-and-truncate would — without sorting the n - k holders
    // the bound is about to discard.
    let k = view_size as usize;
    if k == 0 {
        candidates.clear();
    } else if k < candidates.len() {
        candidates
            .select_nth_unstable_by(k - 1, |a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        candidates.truncate(k);
    }
    // Ascending holder order — the snapshot plane's order — so an
    // unbounded converged view is indistinguishable from it.
    candidates.sort_unstable_by_key(|&(holder, _)| holder);
    candidates
        .into_iter()
        .map(|(holder, ad)| {
            let mut source = ad.clone();
            for digest in ad.digests() {
                if !caches[holder].contains(digest) {
                    source.retract(digest);
                }
            }
            (peer_source_id(DeviceId(holder)), source)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::PeerPlane;
    use deep_netsim::gossip::oracle;
    use deep_netsim::DataSize;
    use deep_registry::Digest;

    fn digest(tag: u8) -> Digest {
        Digest::of(&[tag])
    }

    /// Four devices: 0 and 2 warm with distinct layer sets, 1 and 3 cold.
    fn fleet() -> Vec<LayerCache> {
        let mut caches = vec![LayerCache::new(DataSize::gigabytes(8.0)); 4];
        caches[0].insert(digest(1), DataSize::megabytes(10.0));
        caches[0].insert(digest(2), DataSize::megabytes(10.0));
        caches[2].insert(digest(3), DataSize::megabytes(10.0));
        caches
    }

    fn converged_plane(caches: &[LayerCache]) -> GossipPlane {
        let mut plane = GossipPlane::new(caches.len(), u32::MAX, u32::MAX, 1, 42);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        plane.barrier_round(&refs);
        assert!(plane.converged());
        plane
    }

    #[test]
    fn converged_unbounded_view_matches_the_omniscient_snapshot() {
        let caches = fleet();
        let mut plane = converged_plane(&caches);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let snapshot_plane = PeerPlane::default();
        for target in 0..4 {
            let gossip = plane.mesh_view(&refs, target);
            let snapshot = snapshot_plane.snapshot(&refs, target);
            assert_eq!(gossip.len(), snapshot.len(), "target {target}");
            for ((gid, gsrc), (sid, ssrc)) in gossip.iter().zip(snapshot.iter()) {
                assert_eq!(gid, sid);
                assert_eq!(gsrc.holder(), ssrc.holder());
                assert_eq!(gsrc.len(), ssrc.len());
                for d in ssrc.digests() {
                    assert!(gsrc.has_blob(d));
                    assert!(gsrc.fetch_blob(d).is_ok(), "no spurious retraction");
                }
            }
        }
    }

    #[test]
    fn bounded_view_keeps_the_largest_advertisements() {
        let caches = fleet();
        let mut plane = {
            let mut p = GossipPlane::new(4, u32::MAX, 1, 1, 42);
            let refs: Vec<&LayerCache> = caches.iter().collect();
            p.barrier_round(&refs);
            p
        };
        let refs: Vec<&LayerCache> = caches.iter().collect();
        // Device 1 knows holders 0 (2 layers) and 2 (1 layer); a view of
        // one keeps only the larger advertisement.
        let view = plane.mesh_view(&refs, 1);
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].0, peer_source_id(DeviceId(0)));
        // The full view is a superset of the bounded one.
        let full = converged_plane(&caches).mesh_view(&refs, 1);
        assert_eq!(full.len(), 2);
        assert!(full.iter().any(|(id, _)| *id == view[0].0));
    }

    #[test]
    fn partial_selection_pins_the_full_sorts_view_at_every_bound() {
        // Many holders with colliding advertisement sizes: for every
        // view bound, the O(n) partial selection must keep exactly the
        // holders a stable full sort under (len desc, holder asc) keeps
        // — the PR 9 selection, pinned contents-for-contents.
        let n = 17;
        let mut caches = vec![LayerCache::new(DataSize::gigabytes(8.0)); n];
        for (holder, cache) in caches.iter_mut().enumerate().skip(1) {
            // Sizes 1..=4 repeating, so ties abound.
            for layer in 0..(1 + (holder - 1) % 4) {
                cache.insert(Digest::of(&[holder as u8, layer as u8]), DataSize::megabytes(5.0));
            }
        }
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let target = 0;
        for bound in 0..=n as u32 {
            let mut plane = GossipPlane::new(n, u32::MAX, bound, 1, 7);
            plane.barrier_round(&refs);
            assert!(plane.converged());
            let view = plane.mesh_view(&refs, target);
            // Reference: the PR 9 full sort-and-truncate.
            let mut reference: Vec<(usize, usize)> = caches
                .iter()
                .enumerate()
                .filter(|&(holder, cache)| holder != target && !cache.is_empty())
                .map(|(holder, cache)| (holder, cache.len()))
                .collect();
            reference.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            reference.truncate(bound as usize);
            reference.sort_by_key(|&(holder, _)| holder);
            assert_eq!(
                view.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                reference
                    .iter()
                    .map(|&(holder, _)| peer_source_id(DeviceId(holder)))
                    .collect::<Vec<_>>(),
                "bound {bound}"
            );
            for ((_, src), &(holder, len)) in view.iter().zip(&reference) {
                assert_eq!(src.holder(), Some(DeviceId(holder)));
                assert_eq!(src.len(), len, "bound {bound} holder {holder}");
            }
        }
    }

    #[test]
    fn cached_views_replay_until_an_epoch_moves_then_rebuild() {
        let caches = fleet();
        let mut plane = converged_plane(&caches);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let first = plane.mesh_view(&refs, 1);
        // A barrier over the unchanged fleet moves no epoch: the cached
        // view replays bit-identically.
        plane.barrier_round(&refs);
        let replay = plane.mesh_view(&refs, 1);
        assert_eq!(first.len(), replay.len());
        for ((id_a, src_a), (id_b, src_b)) in first.iter().zip(replay.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(src_a.holder(), src_b.holder());
            assert_eq!(src_a.len(), src_b.len());
        }
        // An out-of-band eviction + readvertise moves the generation;
        // the next materialization must see the fresh state, not the
        // cached copy.
        let mut caches = fleet();
        caches[0].evict_to(DataSize::ZERO);
        plane.readvertise(DeviceId(0), &caches[0]);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        plane.barrier_round(&refs);
        let fresh = plane.mesh_view(&refs, 1);
        assert!(
            fresh.iter().all(|(id, _)| *id != peer_source_id(DeviceId(0))),
            "cached view outlived the epoch movement"
        );
    }

    #[test]
    fn stale_advertisement_is_materialized_as_a_retraction_not_a_serve() {
        let mut caches = fleet();
        let mut plane = converged_plane(&caches);
        // Holder 0 loses a layer *after* the barrier: remote views still
        // advertise it, but materialization must retract the dead digest
        // so the fetch fails over instead of serving vanished bytes.
        caches[0].evict_to(DataSize::megabytes(10.0));
        let survivor: Vec<Digest> = caches[0].digests().cloned().collect();
        assert_eq!(survivor.len(), 1);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let view = plane.mesh_view(&refs, 1);
        let holder0 = &view.iter().find(|(id, _)| *id == peer_source_id(DeviceId(0))).unwrap().1;
        assert_eq!(holder0.len(), 2, "stale ad still advertises both layers");
        for tag in [1u8, 2] {
            let d = digest(tag);
            assert!(holder0.has_blob(&d), "stale ad keeps answering has_blob");
            if survivor.contains(&d) {
                assert!(holder0.fetch_blob(&d).is_ok());
            } else {
                assert!(holder0.fetch_blob(&d).is_err(), "evicted layer fails over");
            }
        }
    }

    #[test]
    fn readvertisement_ages_the_evicted_layer_out_of_remote_views() {
        let mut caches = fleet();
        let mut plane = converged_plane(&caches);
        caches[0].evict_to(DataSize::ZERO);
        plane.readvertise(DeviceId(0), &caches[0]);
        assert!(!plane.converged(), "stale epoch copies remain remote");
        let refs: Vec<&LayerCache> = caches.iter().collect();
        plane.barrier_round(&refs);
        assert!(plane.converged());
        let view = plane.mesh_view(&refs, 1);
        assert!(
            view.iter().all(|(id, _)| *id != peer_source_id(DeviceId(0))),
            "empty holder no longer advertised anywhere"
        );
    }

    #[test]
    fn oracle_backend_materializes_identical_views() {
        // The clone-based exchange, fed the same advertisements and
        // materialized without a view cache, yields the same views.
        let caches = fleet();
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let mut delta = GossipPlane::new(4, 2, 2, 1, 42);
        let mut reference = oracle::GossipState::new(4, 42);
        for (j, cache) in caches.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
            reference.advertise(j, PeerCacheSource::for_holder(DeviceId(j), cache));
        }
        for _ in 0..3 {
            delta.barrier_round(&refs);
            reference.run_rounds(1, 2);
            assert_eq!(delta.converged(), reference.converged());
            for target in 0..4 {
                let d = delta.mesh_view(&refs, target);
                let r = materialize(reference.known(target), 2, &refs, target);
                assert_eq!(d.len(), r.len(), "target {target}");
                for ((id_d, src_d), (id_r, src_r)) in d.iter().zip(r.iter()) {
                    assert_eq!(id_d, id_r);
                    assert_eq!(src_d.holder(), src_r.holder());
                    assert_eq!(src_d.len(), src_r.len());
                }
            }
        }
    }
}
