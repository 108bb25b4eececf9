//! Seeded push/pull epidemic dissemination of per-device advertisements,
//! exchanged as **epoch-vector deltas**.
//!
//! DEEP's snapshot peer plane hands every pull an *omniscient* view of
//! which devices hold which layers — a central catalog no real edge
//! fleet has. This module provides the decentralized alternative in the
//! EdgePier style (arXiv:2109.12983): each device periodically
//! *advertises* an opaque payload (for DEEP, the digest set of its layer
//! cache) under a monotonically increasing **epoch**, and a seeded
//! push/pull gossip round spreads the freshest epoch of every
//! advertisement through the fleet.
//!
//! ## What an exchange ships
//!
//! A full-view protocol, where every exchange collects the union of both
//! partners' known holders into a fresh key vector and *clones* each
//! winning `(epoch, payload)` entry across, spends a fleet-scale barrier
//! on payload clones (`barrier_round/devices_800` spent ~288 ms copying
//! advertisement maps that way). This protocol is anti-entropy over
//! **version vectors** instead:
//!
//! * each viewer's knowledge is a per-holder epoch vector (0 = never
//!   heard of it) — the version-vector *summary* both sides of an
//!   exchange compare first. It is stored holder-major, one `n`-long
//!   epoch column per *advertiser*, appended on the holder's first
//!   advertisement: a holder that never advertised has epoch 0 in every
//!   view and owns no column. `advertise`, `exchange` and `known` walk
//!   only the advertisers, so an 800-device fleet with a few dozen
//!   holders pays O(advertisers × n) memory and work, not O(n²)
//!   (consumers keep it that way by not advertising empty payloads —
//!   see the simulator's `GossipPlane`);
//! * the *delta* is only the advertisements one side holds strictly
//!   newer than the other: the exchange copies the winning epoch
//!   numbers across (plain `u64` stores, symmetric max-merge) and never
//!   touches a payload, because payloads live once in a shared
//!   per-holder store keyed by epoch;
//! * a per-viewer staleness counter (`# holders whose freshest epoch
//!   this viewer lacks`) short-circuits the exchange entirely when both
//!   partners are fully fresh — a barrier over an unchanged fleet is a
//!   no-op that allocates nothing, with partner selection running out
//!   of the reusable `GossipWorkspace` scratch buffer.
//!
//! Everything observable is unchanged: the same seeded partner schedule
//! (a pure splitmix64 function of `(seed, round, device, probe)`),
//! ascending-id exchange order with immediate visibility, max-epoch
//! merge semantics, and `known()` views in ascending holder order. The
//! clone-based full-view implementation is retained verbatim in [`oracle`]
//! as a test reference: this module's proptest pins the two view
//! sequences byte for byte, and the simulator's differential suite
//! drives its `GossipPlane` call for call against a reference built on
//! it — so convergence behaviour and the snapshot bridge (`fanout >=
//! devices - 1` converges in one round, reproducing the omniscient
//! plane) carry over unchanged.
//!
//! Views remain *eventually* consistent: between the moment a holder's
//! cache changes and the moment the new epoch reaches a viewer, the
//! viewer acts on a **stale advertisement** — a holder whose `has_blob`
//! lies. Higher layers must tolerate that (the registry mesh's mid-pull
//! failover does), which is exactly the failure model the differential
//! test plane locks down; superseded payloads stay addressable in the
//! store for as long as any viewer still references their epoch.

use crate::splitmix64;

/// Reusable per-round scratch buffers for the exchange schedule. One
/// workspace lives inside each [`GossipState`] and is reused across
/// every round: after the first round has sized it, partner selection
/// allocates nothing — which is what makes a steady-state wave barrier
/// over an unchanged fleet allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct GossipWorkspace {
    /// The partner picks of the device currently exchanging.
    partners: Vec<usize>,
}

/// The fleet-wide gossip state: every device's partial view of every
/// advertiser's freshest advertisement, held as per-advertiser epoch
/// columns over a shared payload store.
///
/// `T` is the advertised payload (DEEP advertises layer-cache digest
/// sets; the unit tests use plain integers). Payloads are stored once
/// per `(holder, epoch)` and never cloned by the protocol — `T: Clone`
/// remains on the API only so consumers can materialize owned copies of
/// what [`GossipState::known`] lends them.
#[derive(Debug, Clone)]
pub struct GossipState<T: Clone> {
    /// `store[holder]` — the holder's live advertisement payloads in
    /// ascending epoch order. Superseded epochs are pruned as soon as
    /// no viewer's vector references them (checked on each
    /// re-advertisement, which already scans the holder's column).
    store: Vec<Vec<(u64, T)>>,
    /// Holder-major epoch columns, one `n`-long column per advertiser,
    /// appended when it first advertises: `known[c * n + viewer]` is
    /// the freshest epoch `viewer` holds of column `c`'s holder (0 =
    /// never heard of it). This is the version-vector summary an
    /// exchange compares. Holders that never advertised own no column.
    known: Vec<u64>,
    /// `owners[c]` — the holder behind column `c` (first-advertisement
    /// order).
    owners: Vec<usize>,
    /// `(holder, column)` for every advertiser, in ascending holder
    /// order — the walk order of [`GossipState::known`].
    advertisers: Vec<(usize, usize)>,
    /// `epochs[holder]` — the holder's own advertisement counter;
    /// 0 means it has never advertised.
    epochs: Vec<u64>,
    /// `stale[viewer]` — how many holders have advertised an epoch this
    /// viewer has not yet received. 0 means the viewer is fully fresh;
    /// two fully-fresh partners short-circuit their exchange.
    stale: Vec<u32>,
    /// Rounds run so far (feeds the partner schedule).
    round: u64,
    seed: u64,
    /// Bumped on every observable view movement (an advertisement or an
    /// epoch landing in some viewer's vector) — consumers key
    /// materialized-view caches on it. Deliberately *not* advanced by
    /// no-op rounds.
    generation: u64,
    /// Per-round scratch (partner picks), reused across rounds.
    workspace: GossipWorkspace,
}

impl<T: Clone> GossipState<T> {
    /// A fleet of `devices` nodes with empty views.
    pub fn new(devices: usize, seed: u64) -> Self {
        GossipState {
            store: vec![Vec::new(); devices],
            known: Vec::new(),
            owners: Vec::new(),
            advertisers: Vec::new(),
            epochs: vec![0; devices],
            stale: vec![0; devices],
            round: 0,
            seed,
            generation: 0,
            workspace: GossipWorkspace::default(),
        }
    }

    /// Fleet size.
    pub fn devices(&self) -> usize {
        self.store.len()
    }

    /// Rounds run so far.
    pub fn rounds_run(&self) -> u64 {
        self.round
    }

    /// Monotone counter of observable view movement: advances whenever
    /// an advertisement is published or an exchange lands a fresher
    /// epoch in some viewer's vector, and *only* then. Two equal
    /// generations bracket a span in which every view (and every
    /// payload it references) was bit-identical — the invalidation key
    /// for materialized-view caches.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Publish a fresh advertisement for `holder`: bumps its epoch and
    /// installs the payload in the shared store (and the holder's own
    /// vector), whence gossip spreads it. A first advertisement appends
    /// the holder's epoch column. Returns the new epoch.
    pub fn advertise(&mut self, holder: usize, payload: T) -> u64 {
        let n = self.devices();
        let at = self.advertisers.partition_point(|&(h, _)| h < holder);
        let column = match self.advertisers.get(at) {
            Some(&(h, c)) if h == holder => c,
            _ => {
                let c = self.owners.len();
                self.owners.push(holder);
                self.advertisers.insert(at, (holder, c));
                self.known.resize((c + 1) * n, 0);
                c
            }
        };
        let column = &mut self.known[column * n..(column + 1) * n];
        let previous = self.epochs[holder];
        let epoch = previous + 1;
        self.epochs[holder] = epoch;
        // Every viewer that was fresh on this holder just went stale
        // (viewers already lagging were counted when they fell behind).
        // The same column scan finds the oldest epoch any viewer still
        // references, which bounds what the store must keep.
        let mut min_referenced = epoch;
        for (viewer, &held) in column.iter().enumerate() {
            if viewer == holder {
                continue;
            }
            if held == previous {
                self.stale[viewer] += 1;
            }
            if held > 0 {
                min_referenced = min_referenced.min(held);
            }
        }
        column[holder] = epoch;
        self.store[holder].retain(|&(e, _)| e >= min_referenced);
        self.store[holder].push((epoch, payload));
        self.generation += 1;
        epoch
    }

    /// The holder's own advertisement counter (0 = never advertised).
    pub fn epoch(&self, holder: usize) -> u64 {
        self.epochs[holder]
    }

    /// The holder's own freshest advertisement, if it ever published one.
    pub fn self_ad(&self, holder: usize) -> Option<&T> {
        self.store[holder].last().map(|(_, payload)| payload)
    }

    /// The stored payload of `(holder, epoch)` — present for every epoch
    /// some viewer's vector references.
    fn payload(&self, holder: usize, epoch: u64) -> &T {
        let ads = &self.store[holder];
        match ads.binary_search_by_key(&epoch, |&(e, _)| e) {
            Ok(i) => &ads[i].1,
            Err(_) => unreachable!("viewer references epoch {epoch} pruned from holder {holder}"),
        }
    }

    /// Everything `viewer` currently knows, in ascending holder order:
    /// `(holder, epoch, payload)` triples, the viewer's own entry
    /// included. Walks only the holders that ever advertised.
    pub fn known(&self, viewer: usize) -> impl Iterator<Item = (usize, u64, &T)> {
        let n = self.devices();
        self.advertisers.iter().filter_map(move |&(holder, column)| {
            let epoch = self.known[column * n + viewer];
            (epoch > 0).then(|| (holder, epoch, self.payload(holder, epoch)))
        })
    }

    /// True once every device's view carries the freshest epoch of
    /// every advertisement ever published — from here, further rounds
    /// change nothing until somebody re-advertises. O(devices): the
    /// staleness counters carry the answer.
    pub fn converged(&self) -> bool {
        self.stale.iter().all(|&s| s == 0)
    }

    /// Run `rounds` push/pull rounds at the given fanout.
    pub fn run_rounds(&mut self, rounds: u32, fanout: u32) {
        for _ in 0..rounds {
            self.run_round(fanout);
        }
    }

    /// One epidemic round: every device, in ascending id order, picks
    /// `fanout` seeded partners and does a symmetric push/pull — both
    /// sides end up with the freshest epoch of every advertisement
    /// either knew. Exchanges within a round see each other's effects
    /// (immediate visibility), which keeps the round deterministic
    /// without a message buffer and only speeds convergence up. Partner
    /// selection runs out of the reused `GossipWorkspace`; on an
    /// unchanged fleet (every staleness counter 0) the round performs
    /// no stores and no allocations.
    pub fn run_round(&mut self, fanout: u32) {
        let n = self.devices();
        if n >= 2 {
            let fanout = (fanout as usize).min(n - 1);
            let mut ws = std::mem::take(&mut self.workspace);
            for device in 0..n {
                ws.partners.clear();
                let mut probe = 0u64;
                while ws.partners.len() < fanout {
                    let raw = splitmix64(
                        self.seed
                            ^ self.round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            ^ (device as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
                            ^ probe.wrapping_mul(0x94d0_49bb_1331_11eb),
                    );
                    probe += 1;
                    let partner = (raw % n as u64) as usize;
                    if partner != device && !ws.partners.contains(&partner) {
                        ws.partners.push(partner);
                    }
                }
                for &partner in &ws.partners {
                    self.exchange(device, partner);
                }
            }
            self.workspace = ws;
        }
        self.round += 1;
    }

    /// Symmetric anti-entropy merge: compare the two partners' epochs in
    /// every advertiser's column and copy each higher epoch across —
    /// after the exchange, `a` and `b` both hold the freshest version of
    /// every advertisement either knew. Ships only the delta (holders
    /// whose epochs differ), touches no payload, and short-circuits to a
    /// no-op when both partners are fully fresh.
    fn exchange(&mut self, a: usize, b: usize) {
        debug_assert_ne!(a, b);
        if self.stale[a] == 0 && self.stale[b] == 0 {
            // Both partners already hold every freshest epoch: their
            // vectors are necessarily identical, nothing to ship.
            return;
        }
        let n = self.devices();
        let mut moved = false;
        for (column, &holder) in self.known.chunks_exact_mut(n).zip(&self.owners) {
            let (ea, eb) = (column[a], column[b]);
            if ea == eb {
                continue;
            }
            let freshest = self.epochs[holder];
            if ea > eb {
                column[b] = ea;
                if ea == freshest {
                    self.stale[b] -= 1;
                }
            } else {
                column[a] = eb;
                if eb == freshest {
                    self.stale[a] -= 1;
                }
            }
            moved = true;
        }
        if moved {
            self.generation += 1;
        }
    }
}

/// The clone-based full-view protocol, retained **verbatim** as the
/// differential-test oracle: full-map views merged by cloning winning
/// `(epoch, payload)` entries across on every exchange. Same partner
/// schedule, same merge semantics, same observable view sequence — the
/// delta implementation above must match it byte for byte, which the
/// proptest differential plane (here and in `tests/gossip_discovery.rs`)
/// locks down. Not part of the supported API.
#[doc(hidden)]
pub mod oracle {
    use std::collections::BTreeMap;

    /// One device's knowledge of another's advertisement.
    type Entry<T> = (u64, T);

    /// The clone-based gossip state: one full map per view.
    #[derive(Debug, Clone)]
    pub struct GossipState<T: Clone> {
        views: Vec<BTreeMap<usize, Entry<T>>>,
        epochs: Vec<u64>,
        round: u64,
        seed: u64,
    }

    impl<T: Clone> GossipState<T> {
        pub fn new(devices: usize, seed: u64) -> Self {
            GossipState {
                views: vec![BTreeMap::new(); devices],
                epochs: vec![0; devices],
                round: 0,
                seed,
            }
        }

        pub fn rounds_run(&self) -> u64 {
            self.round
        }

        pub fn advertise(&mut self, holder: usize, payload: T) -> u64 {
            self.epochs[holder] += 1;
            let epoch = self.epochs[holder];
            self.views[holder].insert(holder, (epoch, payload));
            epoch
        }

        #[cfg(test)]
        pub(crate) fn epoch(&self, holder: usize) -> u64 {
            self.epochs[holder]
        }

        pub fn self_ad(&self, holder: usize) -> Option<&T> {
            self.views[holder].get(&holder).map(|(_, payload)| payload)
        }

        pub fn known(&self, viewer: usize) -> impl Iterator<Item = (usize, u64, &T)> {
            self.views[viewer].iter().map(|(&holder, (epoch, payload))| (holder, *epoch, payload))
        }

        pub fn converged(&self) -> bool {
            self.views.iter().all(|view| {
                self.epochs.iter().enumerate().all(|(holder, &epoch)| {
                    epoch == 0 || view.get(&holder).map(|(e, _)| *e) == Some(epoch)
                })
            })
        }

        pub fn run_rounds(&mut self, rounds: u32, fanout: u32) {
            for _ in 0..rounds {
                self.run_round(fanout);
            }
        }

        pub(crate) fn run_round(&mut self, fanout: u32) {
            let n = self.views.len();
            if n >= 2 {
                let fanout = (fanout as usize).min(n - 1);
                for device in 0..n {
                    let mut partners: Vec<usize> = Vec::with_capacity(fanout);
                    let mut probe = 0u64;
                    while partners.len() < fanout {
                        let raw = super::splitmix64(
                            self.seed
                                ^ self.round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                ^ (device as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
                                ^ probe.wrapping_mul(0x94d0_49bb_1331_11eb),
                        );
                        probe += 1;
                        let partner = (raw % n as u64) as usize;
                        if partner != device && !partners.contains(&partner) {
                            partners.push(partner);
                        }
                    }
                    for partner in partners {
                        self.exchange(device, partner);
                    }
                }
            }
            self.round += 1;
        }

        fn exchange(&mut self, a: usize, b: usize) {
            debug_assert_ne!(a, b);
            let holders: Vec<usize> = {
                let mut h: Vec<usize> =
                    self.views[a].keys().chain(self.views[b].keys()).copied().collect();
                h.sort_unstable();
                h.dedup();
                h
            };
            for holder in holders {
                let ea = self.views[a].get(&holder).map(|(e, _)| *e).unwrap_or(0);
                let eb = self.views[b].get(&holder).map(|(e, _)| *e).unwrap_or(0);
                if ea > eb {
                    let entry = self.views[a][&holder].clone();
                    self.views[b].insert(holder, entry);
                } else if eb > ea {
                    let entry = self.views[b][&holder].clone();
                    self.views[a].insert(holder, entry);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fleet where every device has advertised its own id × 100.
    fn advertised_fleet(n: usize, seed: u64) -> GossipState<u32> {
        let mut state = GossipState::new(n, seed);
        for d in 0..n {
            state.advertise(d, d as u32 * 100);
        }
        state
    }

    fn view_snapshot(state: &GossipState<u32>) -> Vec<Vec<(usize, u64, u32)>> {
        (0..state.devices()).map(|v| state.known(v).map(|(h, e, p)| (h, e, *p)).collect()).collect()
    }

    #[test]
    fn same_seed_yields_the_same_view_sequence() {
        let mut a = advertised_fleet(16, 7);
        let mut b = advertised_fleet(16, 7);
        for _ in 0..6 {
            a.run_round(2);
            b.run_round(2);
            assert_eq!(view_snapshot(&a), view_snapshot(&b));
        }
    }

    #[test]
    fn different_seeds_diverge_mid_epidemic() {
        let mut a = advertised_fleet(32, 1);
        let mut b = advertised_fleet(32, 2);
        a.run_round(1);
        b.run_round(1);
        // One fanout-1 round over 32 devices cannot have converged, and
        // the two partner schedules disagree somewhere.
        assert_ne!(view_snapshot(&a), view_snapshot(&b));
    }

    #[test]
    fn views_grow_monotonically_and_epochs_never_regress() {
        let mut state = advertised_fleet(24, 11);
        let mut prev = view_snapshot(&state);
        for _ in 0..8 {
            state.run_round(1);
            let next = view_snapshot(&state);
            for (viewer, before) in prev.iter().enumerate() {
                let after: std::collections::BTreeMap<usize, (u64, u32)> =
                    next[viewer].iter().map(|&(h, e, p)| (h, (e, p))).collect();
                for &(holder, epoch, _) in before {
                    let (e, _) = after[&holder];
                    assert!(e >= epoch, "viewer {viewer} lost epoch on holder {holder}");
                }
                assert!(after.len() >= before.len(), "viewer {viewer}'s view shrank");
            }
            prev = next;
        }
    }

    #[test]
    fn gossip_eventually_converges_to_full_views() {
        let mut state = advertised_fleet(40, 3);
        let mut rounds = 0;
        while !state.converged() {
            state.run_round(2);
            rounds += 1;
            assert!(rounds < 64, "epidemic failed to converge");
        }
        for viewer in 0..40 {
            assert_eq!(state.known(viewer).count(), 40);
        }
    }

    #[test]
    fn all_pairs_fanout_converges_in_one_round() {
        let mut state = advertised_fleet(17, 99);
        state.run_round(u32::MAX); // clamped to n - 1
        assert!(state.converged());
    }

    #[test]
    fn readvertising_bumps_the_epoch_and_spreads_the_fresh_payload() {
        let mut state = advertised_fleet(8, 5);
        state.run_round(u32::MAX);
        assert!(state.converged());
        let epoch = state.advertise(3, 999);
        assert_eq!(epoch, 2);
        assert!(!state.converged(), "stale epoch-1 copies remain remote");
        state.run_round(u32::MAX);
        assert!(state.converged());
        for viewer in 0..8 {
            let (_, epoch, payload) =
                state.known(viewer).find(|&(h, _, _)| h == 3).expect("holder 3 known");
            assert_eq!((epoch, *payload), (2, 999));
        }
    }

    #[test]
    fn empty_and_singleton_fleets_are_inert() {
        let mut empty: GossipState<u32> = GossipState::new(0, 1);
        empty.run_round(4);
        assert!(empty.converged());
        let mut solo = advertised_fleet(1, 1);
        solo.run_round(4);
        assert!(solo.converged());
        assert_eq!(solo.known(0).count(), 1);
    }

    #[test]
    fn superseded_payloads_stay_addressable_while_referenced() {
        // Viewer 1 learns epoch 1 of holder 0, then holder 0
        // re-advertises twice before gossip reaches viewer 1 again: the
        // viewer's view must keep materializing the *old* payload (the
        // stale-advertisement contract) until a round refreshes it.
        let mut state = GossipState::new(4, 21);
        state.advertise(0, 10);
        state.run_round(u32::MAX);
        state.advertise(0, 20);
        state.advertise(0, 30);
        let (_, epoch, payload) = state.known(1).find(|&(h, _, _)| h == 0).unwrap();
        assert_eq!((epoch, *payload), (1, 10), "stale epoch still serves its payload");
        state.run_round(u32::MAX);
        let (_, epoch, payload) = state.known(1).find(|&(h, _, _)| h == 0).unwrap();
        assert_eq!((epoch, *payload), (3, 30));
    }

    #[test]
    fn fully_referenced_readvertisement_prunes_the_store() {
        // Once every viewer has moved past an epoch, the next
        // advertisement drops it from the store.
        let mut state = advertised_fleet(6, 13);
        state.run_round(u32::MAX);
        for _ in 0..3 {
            state.advertise(2, 7);
            state.run_round(u32::MAX);
        }
        assert!(state.converged());
        state.advertise(2, 8);
        assert_eq!(state.store[2].len(), 2, "only the referenced epoch and the fresh one remain");
    }

    #[test]
    fn generation_moves_with_views_and_rests_with_them() {
        let mut state = advertised_fleet(8, 17);
        let g0 = state.generation();
        state.run_round(u32::MAX);
        assert!(state.generation() > g0, "spreading ads moves the generation");
        let g1 = state.generation();
        state.run_round(u32::MAX);
        assert_eq!(state.generation(), g1, "a converged round moves nothing");
        state.advertise(3, 1);
        assert!(state.generation() > g1, "a re-advertisement moves it again");
    }

    #[test]
    fn unchanged_fleet_rounds_reuse_the_workspace_in_place() {
        // The fingerprint idiom of the congestion game's
        // `sparse_descent_reuses_workspace_buffers`: after a warm round has
        // sized the partner scratch, steady-state rounds reuse it in place.
        let mut state = advertised_fleet(32, 9);
        state.run_rounds(16, 3);
        assert!(state.converged());
        let fp = (state.workspace.partners.as_ptr(), state.workspace.partners.capacity());
        state.run_rounds(8, 3);
        assert_eq!(
            fp,
            (state.workspace.partners.as_ptr(), state.workspace.partners.capacity()),
            "steady-state round reallocated the partner scratch"
        );
    }

    /// Drive the delta state and the PR 9 clone-based oracle through the
    /// same script and compare every observable after every step.
    fn assert_matches_oracle(devices: usize, seed: u64, script: &[(u8, usize, u32)]) {
        let mut delta: GossipState<u32> = GossipState::new(devices, seed);
        let mut reference: oracle::GossipState<u32> = oracle::GossipState::new(devices, seed);
        for &(op, device, arg) in script {
            match op {
                0 => {
                    let payload = device as u32 ^ arg;
                    assert_eq!(
                        delta.advertise(device, payload),
                        reference.advertise(device, payload)
                    );
                }
                _ => {
                    delta.run_round(arg);
                    reference.run_round(arg);
                }
            }
            assert_eq!(delta.converged(), reference.converged());
            assert_eq!(delta.rounds_run(), reference.rounds_run());
            for viewer in 0..devices {
                let d: Vec<(usize, u64, u32)> =
                    delta.known(viewer).map(|(h, e, p)| (h, e, *p)).collect();
                let r: Vec<(usize, u64, u32)> =
                    reference.known(viewer).map(|(h, e, p)| (h, e, *p)).collect();
                assert_eq!(d, r, "viewer {viewer} diverged from the clone-based oracle");
                assert_eq!(delta.self_ad(viewer), reference.self_ad(viewer));
                assert_eq!(delta.epoch(viewer), reference.epoch(viewer));
            }
        }
    }

    #[test]
    fn delta_exchange_matches_the_clone_based_oracle_on_a_fixed_script() {
        assert_matches_oracle(
            9,
            42,
            &[(0, 0, 1), (0, 3, 2), (1, 0, 1), (0, 3, 5), (1, 0, 2), (0, 8, 1), (1, 0, u32::MAX)],
        );
    }

    #[test]
    fn late_first_advertisements_in_descending_order_match_the_oracle() {
        // Columns append in first-advertisement order, which here is the
        // reverse of holder order and interleaved with rounds: `known()`
        // must still walk holders ascending, as the oracle's map does.
        assert_matches_oracle(
            10,
            7,
            &[
                (1, 0, 2),
                (1, 0, 1),
                (0, 9, 3),
                (1, 0, 1),
                (0, 6, 4),
                (0, 4, 1),
                (1, 0, 2),
                (0, 1, 8),
                (0, 6, 2),
                (1, 0, 1),
                (0, 0, 5),
                (1, 0, u32::MAX),
            ],
        );
    }

    #[test]
    fn only_advertisers_own_epoch_columns() {
        let n = 5_000;
        let mut state: GossipState<u32> = GossipState::new(n, 3);
        state.run_round(2);
        for holder in [4_321, 17, 2_500] {
            state.advertise(holder, holder as u32);
        }
        state.run_rounds(4, 3);
        assert_eq!(state.owners, [4_321, 17, 2_500], "one column per advertiser");
        assert_eq!(state.known.len(), 3 * n, "exactly three epoch columns");
        for viewer in [0, 17, 1_000, 4_999] {
            let view: Vec<usize> = state.known(viewer).map(|(h, _, _)| h).collect();
            assert!(view.len() <= 3, "viewer {viewer} knows {} holders", view.len());
            assert!(view.windows(2).all(|w| w[0] < w[1]), "ascending holder order");
        }
        assert_eq!(state.known(17).next().map(|(h, e, _)| (h, e)), Some((17, 1)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random advertise/round interleavings: the epoch-vector delta
        /// protocol and the PR 9 clone-based oracle produce identical
        /// view sequences, epochs, self-ads and convergence verdicts at
        /// every step.
        #[test]
        fn delta_exchange_is_byte_identical_to_the_clone_based_oracle(
            devices in 2usize..14,
            seed in any::<u64>(),
            raw in proptest::collection::vec(any::<u64>(), 1..24),
        ) {
            // Decode each word into (op, device, fanout): even words
            // advertise, odd words run a round at fanout 1..=4.
            let script: Vec<(u8, usize, u32)> = raw
                .into_iter()
                .map(|x| {
                    ((x & 1) as u8, ((x >> 1) % devices as u64) as usize, 1 + ((x >> 32) % 4) as u32)
                })
                .collect();
            assert_matches_oracle(devices, seed, &script);
        }
    }
}
