//! Gossip-backed peer discovery: the decentralized replacement for the
//! executor's omniscient per-wave peer snapshot.
//!
//! The snapshot plane (`crate::testbed::PeerPlane::snapshot`) hands a
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
//! **Each advertisement is retracted once per generation.** A view is a
//! selection of `(holder, epoch)` advertisements, and the retractions
//! of one advertisement depend only on it and on its holder's live
//! cache, not on the viewer. So the plane retracts each selected
//! advertisement once per gossip state
//! [generation](deep_netsim::gossip::GossipState::generation) and hands
//! every view that selects it a clone of the result — three
//! reference-count bumps, no digest copied. Between two barriers of an
//! unchanged fleet no epoch moves, so the retracted sources stay live
//! across barriers. Any advertisement or view movement bumps the
//! generation and drops every retracted source; out-of-band cache
//! mutations (the chaos path) go through [`GossipPlane::readvertise`],
//! which is itself an epoch bump. Bounded views use an O(n) partial
//! selection (`select_nth_unstable_by`) in place of a full sort — the
//! (len desc, holder asc) comparator is a total order over the unique
//! holders, so the selected top-k set is exactly the full sort's
//! prefix.
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
use std::collections::HashMap;

/// The fleet-wide gossip discovery plane: epidemic state plus the knobs
/// of [`crate::executor::PeerDiscovery::Gossip`].
#[derive(Debug, Clone)]
pub struct GossipPlane {
    state: GossipState<PeerCacheSource>,
    /// Every advertisement a view selected under generation
    /// `retracted_at`, keyed `(holder, epoch)`, with the digests its
    /// holder no longer caches retracted. Shared by every view that
    /// selects the same advertisement.
    retracted: HashMap<(usize, u64), PeerCacheSource>,
    retracted_at: u64,
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
            retracted: HashMap::new(),
            retracted_at: 0,
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
    /// barrier allocates nothing and the retracted sources stay live.
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
    /// (The bump also moves the generation, dropping every retracted
    /// source — which is why out-of-band mutations must come through
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
    /// Each selected advertisement is retracted once per gossip
    /// generation, and every view that selects it shares the result:
    /// between barriers of an unchanged fleet a view costs one walk over
    /// the advertisers plus a reference-count bump per selected holder.
    ///
    /// **Precondition.** A retracted source is valid only if every change
    /// to `caches` since it was built went through [`Self::barrier_round`]
    /// or [`Self::readvertise`]. A cache mutated behind the plane's back
    /// moves no generation, so the stale retractions would be handed
    /// back.
    pub fn mesh_view(
        &mut self,
        caches: &[&LayerCache],
        target: usize,
    ) -> Vec<(RegistryId, PeerCacheSource)> {
        let GossipPlane { state, retracted, retracted_at, view_size, .. } = self;
        if *retracted_at != state.generation() {
            retracted.clear();
            *retracted_at = state.generation();
        }
        select(state.known(target), *view_size, target)
            .into_iter()
            .map(|(holder, epoch, ad)| {
                let source = retracted
                    .entry((holder, epoch))
                    .or_insert_with(|| retract_evicted(ad, caches[holder]));
                (peer_source_id(DeviceId(holder)), source.clone())
            })
            .collect()
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

/// The bounded view selection over the state's `known` iterator:
/// non-empty advertisements of holders other than `target`, the
/// `view_size` largest kept (ties to the lower device id), returned in
/// ascending holder order.
fn select<'a>(
    known: impl Iterator<Item = (usize, u64, &'a PeerCacheSource)>,
    view_size: u32,
    target: usize,
) -> Vec<(usize, u64, &'a PeerCacheSource)> {
    let mut candidates: Vec<(usize, u64, &PeerCacheSource)> =
        known.filter(|&(holder, _, ad)| holder != target && !ad.is_empty()).collect();
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
            .select_nth_unstable_by(k - 1, |a, b| b.2.len().cmp(&a.2.len()).then(a.0.cmp(&b.0)));
        candidates.truncate(k);
    }
    // Ascending holder order — the snapshot plane's order — so an
    // unbounded converged view is indistinguishable from it.
    candidates.sort_unstable_by_key(|&(holder, _, _)| holder);
    candidates
}

/// `ad` with every digest its holder's live `cache` no longer holds
/// retracted: still advertised, but the fetch fails over.
fn retract_evicted(ad: &PeerCacheSource, cache: &LayerCache) -> PeerCacheSource {
    let mut source = ad.clone();
    for digest in ad.digests() {
        if !cache.contains(digest) {
            source.retract(digest);
        }
    }
    source
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

    /// The per-viewer reference materialization: bounded selection by a
    /// full sort-and-truncate under (len desc, holder asc), ascending
    /// holder output, and every selected advertisement cloned and
    /// retracted against the live `caches` for this viewer alone — no
    /// source shared between views.
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
        candidates.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        candidates.truncate(view_size as usize);
        candidates.sort_by_key(|&(holder, _)| holder);
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

    /// Assert two peer views agree: holder ids in order, and for every
    /// digest either side advertises, `has_blob` and the `fetch_blob`
    /// result.
    fn assert_same_view(
        got: &[(RegistryId, PeerCacheSource)],
        want: &[(RegistryId, PeerCacheSource)],
        context: &str,
    ) {
        let ids = |view: &[(RegistryId, PeerCacheSource)]| -> Vec<RegistryId> {
            view.iter().map(|(id, _)| *id).collect()
        };
        assert_eq!(ids(got), ids(want), "{context}");
        for ((_, g), (_, w)) in got.iter().zip(want) {
            assert_eq!(g.holder(), w.holder(), "{context}");
            assert_eq!(g.len(), w.len(), "{context}");
            for d in w.digests().chain(g.digests()) {
                assert_eq!(g.has_blob(d), w.has_blob(d), "{context} {d}");
                assert_eq!(
                    format!("{:?}", g.fetch_blob(d)),
                    format!("{:?}", w.fetch_blob(d)),
                    "{context} {d}"
                );
            }
        }
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
        // A barrier over the unchanged fleet moves no epoch: the view
        // replays bit-identically from the shared retracted sources.
        plane.barrier_round(&refs);
        let replay = plane.mesh_view(&refs, 1);
        assert_eq!(first.len(), replay.len());
        for ((id_a, src_a), (id_b, src_b)) in first.iter().zip(replay.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(src_a.holder(), src_b.holder());
            assert_eq!(src_a.len(), src_b.len());
        }
        // An out-of-band eviction + readvertise moves the generation;
        // the next view must see the fresh state, not the shared
        // sources of the old generation.
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
    fn shared_sources_match_per_viewer_materialization_under_churn() {
        // Twelve devices on small LRU caches pull from a 24-layer pool,
        // so inserts evict; a fanout-1 plane with views of four leaves
        // lagging viewers on stale epochs, and out-of-band evictions go
        // through `readvertise`. Every view, through `mesh_view` and
        // through the barrier views, must equal the per-viewer
        // reference, however many views share a retracted source.
        let n = 12;
        let layer =
            |k: u64| (Digest::of(&k.to_le_bytes()), DataSize::megabytes(10.0 * (1 + k % 3) as f64));
        let mut caches = vec![LayerCache::new(DataSize::megabytes(60.0)); n];
        let mut plane = GossipPlane::new(n, 1, 4, 1, 99);
        let (mut stale_epochs, mut retracted) = (0, 0);
        for step in 0..48u64 {
            let draw = |salt: u64| deep_netsim::splitmix64(step.wrapping_mul(0x9e37) ^ salt);
            for k in 0..4 {
                let (d, size) = layer(draw(100 + k) % 24);
                caches[(draw(k) % n as u64) as usize].insert(d, size);
            }
            let refs: Vec<&LayerCache> = caches.iter().collect();
            plane.barrier_round(&refs);
            let mut check = |plane: &mut GossipPlane, refs: &[&LayerCache], phase: &str| {
                let views = PeerPlane::default().barrier_views(Some(plane), refs, 0..n);
                // Reverse order too: the first view to select an
                // advertisement is not always the lowest viewer.
                for target in (0..n).rev() {
                    let reference = materialize(plane.state.known(target), 4, refs, target);
                    let context = format!("step {step} {phase} target {target}");
                    assert_same_view(&plane.mesh_view(refs, target), &reference, &context);
                    let shared: Vec<_> = views.of(DeviceId(target)).cloned().collect();
                    assert_same_view(&shared, &reference, &context);
                    for (holder, epoch, _) in plane.state.known(target) {
                        stale_epochs += usize::from(epoch < plane.state.epoch(holder));
                    }
                    retracted += reference
                        .iter()
                        .flat_map(|(_, src)| src.digests().map(move |d| src.fetch_blob(d)))
                        .filter(Result::is_err)
                        .count();
                }
            };
            check(&mut plane, &refs, "barrier");
            if step % 3 == 0 {
                let device = (draw(7) % n as u64) as usize;
                caches[device].evict_to(DataSize::megabytes(20.0));
                plane.readvertise(DeviceId(device), &caches[device]);
                let refs: Vec<&LayerCache> = caches.iter().collect();
                check(&mut plane, &refs, "readvertised");
            }
        }
        assert!(stale_epochs > 0, "the churn left no viewer on a stale epoch");
        assert!(retracted > 0, "no stale advertisement was ever retracted");
    }

    #[test]
    fn per_pair_barrier_views_match_the_per_target_snapshot() {
        // The shared holder list, minus each target's own entry, is the
        // per-target snapshot source for source; the aggregate oracle
        // keeps its per-target union.
        let mut caches = fleet();
        caches[3].insert(digest(1), DataSize::megabytes(10.0));
        let refs: Vec<&LayerCache> = caches.iter().collect();
        for plane in [PeerPlane::default(), PeerPlane::Aggregate] {
            let views = plane.barrier_views(None, &refs, 0..refs.len());
            for target in 0..refs.len() {
                let shared: Vec<_> = views.of(DeviceId(target)).cloned().collect();
                let context = format!("aggregate {} target {target}", plane.is_aggregate());
                assert_same_view(&shared, &plane.snapshot(&refs, target), &context);
            }
        }
    }

    #[test]
    fn a_retraction_on_one_view_leaves_the_plane_and_other_views_untouched() {
        let caches = fleet();
        let mut plane = converged_plane(&caches);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let holder0 = |view: &mut Vec<(RegistryId, PeerCacheSource)>| {
            let at = view.iter().position(|(id, _)| *id == peer_source_id(DeviceId(0)));
            view.swap_remove(at.expect("holder 0 is in view")).1
        };
        // Devices 1 and 3 select the same advertisement of holder 0.
        let mut one = holder0(&mut plane.mesh_view(&refs, 1));
        let other = holder0(&mut plane.mesh_view(&refs, 3));
        assert!(one.retract(&digest(1)));
        assert!(one.fetch_blob(&digest(1)).is_err());
        assert!(other.fetch_blob(&digest(1)).is_ok(), "a sibling view saw the retraction");
        let again = holder0(&mut plane.mesh_view(&refs, 1));
        assert!(again.fetch_blob(&digest(1)).is_ok(), "the plane's shared source saw it");
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
