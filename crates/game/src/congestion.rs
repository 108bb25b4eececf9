//! Finite n-player games solved by best-response iteration.
//!
//! The DEEP deployment game is an n-player game: each microservice picks a
//! `(registry, device)` pair and its cost depends on how many siblings
//! share the same registry→device route (bandwidth contention). Such
//! load-dependent-cost games are congestion games, hence exact potential
//! games, hence best-response dynamics terminate at a pure Nash
//! equilibrium (Monderer & Shapley 1996). This module provides the generic
//! machinery at two altitudes:
//!
//! * [`FiniteGame`] — a cost *oracle* over profiles (any finite game),
//!   with round-robin best-response iteration, convergence detection and
//!   exhaustive pure-equilibrium enumeration for small instances;
//! * [`CongestionGame`] — the explicit Rosenthal form: shared *resources*
//!   with load-dependent costs, and per-player strategies that each load a
//!   player-specific resource *subset*. This is the shape of the mesh-wide
//!   deployment wave: resources are source→device routes, and a strategy
//!   (a placement plus its split-pull plan) loads every route its
//!   `SourcePull`s traverse — one player may occupy several routes at
//!   once, another a single one. The explicit form carries its exact
//!   potential, so convergence is a checkable theorem, not a hope.

/// A finite n-player cost game described by an oracle.
///
/// `cost(player, profile)` returns player `player`'s cost under the full
/// pure profile (lower is better — these are costs, not payoffs).
pub struct FiniteGame<'a> {
    /// Number of strategies available to each player.
    pub strategy_counts: Vec<usize>,
    /// Cost oracle.
    pub cost: CostOracle<'a>,
}

/// Boxed cost oracle: `cost(player, profile)`.
pub type CostOracle<'a> = Box<dyn Fn(usize, &[usize]) -> f64 + 'a>;

/// Result of best-response iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BestResponseResult {
    /// Final strategy profile.
    pub profile: Vec<usize>,
    /// Whether no player can improve (pure Nash equilibrium).
    pub converged: bool,
    /// Best-response passes performed.
    pub passes: usize,
}

impl<'a> FiniteGame<'a> {
    /// Build a game from per-player strategy counts and a cost oracle.
    pub fn new(strategy_counts: Vec<usize>, cost: impl Fn(usize, &[usize]) -> f64 + 'a) -> Self {
        assert!(!strategy_counts.is_empty(), "need at least one player");
        assert!(strategy_counts.iter().all(|&c| c > 0), "every player needs a strategy");
        FiniteGame { strategy_counts, cost: Box::new(cost) }
    }

    /// Number of players.
    pub fn players(&self) -> usize {
        self.strategy_counts.len()
    }

    /// Player `p`'s best response to the rest of `profile` (lowest cost,
    /// lowest index on ties).
    pub fn best_response(&self, p: usize, profile: &[usize]) -> usize {
        let mut probe = profile.to_vec();
        let mut best = (f64::INFINITY, 0usize);
        for s in 0..self.strategy_counts[p] {
            probe[p] = s;
            let c = (self.cost)(p, &probe);
            if c < best.0 - 1e-12 {
                best = (c, s);
            }
        }
        best.1
    }

    /// Round-robin best-response dynamics from `start`.
    ///
    /// One *pass* lets every player revise once. Terminates when a full
    /// pass changes nothing (pure NE) or after `max_passes`.
    pub fn best_response_dynamics(
        &self,
        start: Vec<usize>,
        max_passes: usize,
    ) -> BestResponseResult {
        assert_eq!(start.len(), self.players(), "profile length mismatch");
        for (p, &s) in start.iter().enumerate() {
            assert!(s < self.strategy_counts[p], "start strategy out of range for player {p}");
        }
        let mut profile = start;
        for pass in 0..max_passes {
            let mut changed = false;
            for p in 0..self.players() {
                let current_cost = (self.cost)(p, &profile);
                let br = self.best_response(p, &profile);
                let mut probe = profile.clone();
                probe[p] = br;
                if (self.cost)(p, &probe) < current_cost - 1e-12 {
                    profile = probe;
                    changed = true;
                }
            }
            if !changed {
                return BestResponseResult { profile, converged: true, passes: pass + 1 };
            }
        }
        BestResponseResult { profile, converged: false, passes: max_passes }
    }

    /// Is `profile` a pure Nash equilibrium?
    pub fn is_equilibrium(&self, profile: &[usize]) -> bool {
        for p in 0..self.players() {
            let current = (self.cost)(p, profile);
            let mut probe = profile.to_vec();
            for s in 0..self.strategy_counts[p] {
                probe[p] = s;
                if (self.cost)(p, &probe) < current - 1e-9 {
                    return false;
                }
            }
            probe[p] = profile[p];
        }
        true
    }

    /// Exhaustively enumerate all pure equilibria (profile space must be
    /// small; intended for tests and the 2-registry × 2-device games).
    pub fn enumerate_equilibria(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut profile = vec![0usize; self.players()];
        loop {
            if self.is_equilibrium(&profile) {
                out.push(profile.clone());
            }
            // Odometer increment.
            let mut p = 0;
            loop {
                if p == self.players() {
                    return out;
                }
                profile[p] += 1;
                if profile[p] < self.strategy_counts[p] {
                    break;
                }
                profile[p] = 0;
                p += 1;
            }
        }
    }

    /// Total cost of a profile across players (the social objective DEEP
    /// minimises).
    pub fn social_cost(&self, profile: &[usize]) -> f64 {
        (0..self.players()).map(|p| (self.cost)(p, profile)).sum()
    }

    /// The pure equilibrium with minimal social cost, if any exist.
    pub fn best_equilibrium(&self) -> Option<Vec<usize>> {
        self.enumerate_equilibria().into_iter().min_by(|a, b| {
            self.social_cost(a).partial_cmp(&self.social_cost(b)).expect("costs are not NaN")
        })
    }
}

/// An explicit (Rosenthal) congestion game: `resources` shared resources
/// whose cost depends only on their load, and per-player strategies that
/// each use a player-specific subset of resources.
///
/// Player `p` playing strategy `s` pays `Σ_{r ∈ uses[p][s]} cost(r, n_r)`
/// where `n_r` is the number of players whose chosen strategy uses `r`.
/// Rosenthal's potential `Φ = Σ_r Σ_{k=1..n_r} cost(r, k)` decreases by
/// exactly the deviator's improvement on every unilateral improving move,
/// so best-response dynamics terminate at a pure Nash equilibrium
/// regardless of how asymmetric the subsets are.
pub struct CongestionGame<'a> {
    resources: usize,
    /// `uses[p][s]` = the resource subset player `p`'s strategy `s` loads
    /// (strictly increasing within each subset).
    uses: Vec<Vec<Vec<usize>>>,
    /// `cost(resource, load)` with `load ≥ 1`. Must not depend on who the
    /// users are — only how many.
    cost: Box<dyn Fn(usize, usize) -> f64 + 'a>,
}

impl<'a> CongestionGame<'a> {
    /// Build a game from per-player strategy subsets and a resource cost.
    ///
    /// Panics on empty players/strategies, out-of-range resources, or
    /// unsorted/duplicated subsets — all construction bugs.
    pub fn new(
        resources: usize,
        uses: Vec<Vec<Vec<usize>>>,
        cost: impl Fn(usize, usize) -> f64 + 'a,
    ) -> Self {
        assert!(!uses.is_empty(), "need at least one player");
        for (p, strategies) in uses.iter().enumerate() {
            assert!(!strategies.is_empty(), "player {p} needs a strategy");
            for subset in strategies {
                assert!(
                    subset.windows(2).all(|w| w[0] < w[1]),
                    "player {p} has an unsorted or duplicated resource subset"
                );
                assert!(
                    subset.iter().all(|&r| r < resources),
                    "player {p} names a resource out of range"
                );
            }
        }
        CongestionGame { resources, uses, cost: Box::new(cost) }
    }

    /// Number of players.
    pub fn players(&self) -> usize {
        self.uses.len()
    }

    /// Number of strategies available to player `p`.
    pub fn strategy_count(&self, p: usize) -> usize {
        self.uses[p].len()
    }

    /// Per-resource load under a pure profile.
    pub fn loads(&self, profile: &[usize]) -> Vec<usize> {
        assert_eq!(profile.len(), self.players(), "profile length mismatch");
        let mut loads = vec![0usize; self.resources];
        for (p, &s) in profile.iter().enumerate() {
            for &r in &self.uses[p][s] {
                loads[r] += 1;
            }
        }
        loads
    }

    /// Player `p`'s cost under `profile`: the loaded cost of every
    /// resource their chosen strategy uses.
    pub fn player_cost(&self, p: usize, profile: &[usize]) -> f64 {
        let loads = self.loads(profile);
        self.uses[p][profile[p]].iter().map(|&r| (self.cost)(r, loads[r])).sum()
    }

    /// Rosenthal's exact potential `Φ(profile)`.
    pub fn potential(&self, profile: &[usize]) -> f64 {
        self.loads(profile)
            .iter()
            .enumerate()
            .map(|(r, &n)| (1..=n).map(|k| (self.cost)(r, k)).sum::<f64>())
            .sum()
    }

    /// Total cost across players (the social objective).
    pub fn social_cost(&self, profile: &[usize]) -> f64 {
        (0..self.players()).map(|p| self.player_cost(p, profile)).sum()
    }

    /// The oracle form of the same game, for cross-checking against the
    /// generic [`FiniteGame`] machinery.
    pub fn as_finite_game(&self) -> FiniteGame<'_> {
        FiniteGame::new(self.uses.iter().map(Vec::len).collect(), move |p, profile| {
            self.player_cost(p, profile)
        })
    }

    /// Player `p`'s best response to the rest of `profile`: strictly
    /// lowest cost, lowest strategy index on ties (deterministic).
    pub fn best_response(&self, p: usize, profile: &[usize]) -> usize {
        let mut probe = profile.to_vec();
        let mut best = (f64::INFINITY, 0usize);
        for s in 0..self.strategy_count(p) {
            probe[p] = s;
            let c = self.player_cost(p, &probe);
            if c < best.0 - 1e-12 {
                best = (c, s);
            }
        }
        best.1
    }

    /// Round-robin best-response dynamics from `start`. Terminates at a
    /// pure Nash equilibrium within `max_passes` passes whenever the cost
    /// improvements exceed the 1e-12 tolerance — guaranteed by the
    /// potential, which strictly decreases on every revision taken.
    pub fn best_response_dynamics(
        &self,
        start: Vec<usize>,
        max_passes: usize,
    ) -> BestResponseResult {
        assert_eq!(start.len(), self.players(), "profile length mismatch");
        for (p, &s) in start.iter().enumerate() {
            assert!(s < self.strategy_count(p), "start strategy out of range for player {p}");
        }
        let mut profile = start;
        for pass in 0..max_passes {
            let mut changed = false;
            for p in 0..self.players() {
                let current = self.player_cost(p, &profile);
                let br = self.best_response(p, &profile);
                let mut probe = profile.clone();
                probe[p] = br;
                if self.player_cost(p, &probe) < current - 1e-12 {
                    profile = probe;
                    changed = true;
                }
            }
            if !changed {
                return BestResponseResult { profile, converged: true, passes: pass + 1 };
            }
        }
        BestResponseResult { profile, converged: false, passes: max_passes }
    }

    /// Is `profile` a pure Nash equilibrium?
    pub fn is_equilibrium(&self, profile: &[usize]) -> bool {
        (0..self.players()).all(|p| {
            let current = self.player_cost(p, profile);
            let mut probe = profile.to_vec();
            (0..self.strategy_count(p)).all(|s| {
                probe[p] = s;
                self.player_cost(p, &probe) >= current - 1e-9
            })
        })
    }

    /// Sparse potential descent: best-response dynamics over incremental
    /// per-resource load counters, profile-identical to
    /// [`best_response_dynamics`](Self::best_response_dynamics) but scaling
    /// with the deviator's resource *subset* instead of the full profile.
    ///
    /// Three structural shortcuts, none of which change the trajectory:
    ///
    /// * **Incremental ΔΦ.** A unilateral deviation changes Rosenthal's
    ///   potential by exactly the deviator's cost delta, and the deviator's
    ///   candidate cost is `Σ_{r ∈ subset} cost(r, load_without_me(r) + 1)`
    ///   — the live load counters answer that without rebuilding the
    ///   profile-wide load vector per candidate (`player_cost` is
    ///   `O(players)` per call; this is `O(|subset|)`). Same integer loads
    ///   into the same cost closure means bit-identical floats, so every
    ///   accept/reject decision matches the dense scan.
    /// * **Indexed best-response queue.** When `p` moves from subset `A` to
    ///   `B`, only loads on the symmetric difference `A △ B` change, so only
    ///   players indexed as touching those resources can have gained an
    ///   improving deviation; everyone else is skipped. Skipping a clean
    ///   player is a semantic no-op: its candidate landscape is unchanged
    ///   since it last failed to improve (or moved to its best response), so
    ///   the dense pass would evaluate and not move.
    /// * **Early termination on potential convergence.** Once the dirty
    ///   queue drains — no improving deviation can remain, Φ is at a local
    ///   minimum — the pass ends with `changed == false` exactly where the
    ///   dense dynamics would.
    ///
    /// `ws` carries the load counters, dirty flags and the resource→player
    /// index; reusing it across calls on same-shaped games makes the steady
    /// state allocation-free (the dense path clones the profile once per
    /// candidate).
    pub fn sparse_descent(
        &self,
        start: Vec<usize>,
        max_passes: usize,
        ws: &mut DescentWorkspace,
    ) -> BestResponseResult {
        assert_eq!(start.len(), self.players(), "profile length mismatch");
        for (p, &s) in start.iter().enumerate() {
            assert!(s < self.strategy_count(p), "start strategy out of range for player {p}");
        }
        ws.prepare(self, &start);
        let mut profile = start;
        for pass in 0..max_passes {
            let mut changed = false;
            // Indexed loop on purpose: the body reads *and* rewrites
            // `profile[p]` while borrowing `self.uses[p]`, mirroring the
            // dense dynamics' player walk.
            #[allow(clippy::needless_range_loop)]
            for p in 0..self.players() {
                if !ws.dirty[p] {
                    continue;
                }
                let cur = profile[p];
                // Current cost at the live loads (p included) — the same
                // per-subset summation order as `player_cost`.
                let current: f64 =
                    self.uses[p][cur].iter().map(|&r| (self.cost)(r, ws.loads[r])).sum();
                // Lift p out of the counters; every candidate is then
                // priced as Σ cost(r, load_without_me + 1).
                for &r in &self.uses[p][cur] {
                    ws.loads[r] -= 1;
                }
                let mut best = (f64::INFINITY, 0usize);
                for s in 0..self.strategy_count(p) {
                    let c: f64 =
                        self.uses[p][s].iter().map(|&r| (self.cost)(r, ws.loads[r] + 1)).sum();
                    if c < best.0 - 1e-12 {
                        best = (c, s);
                    }
                }
                if best.0 < current - 1e-12 {
                    for &r in &self.uses[p][best.1] {
                        ws.loads[r] += 1;
                    }
                    ws.mark_touchers_of_difference(&self.uses[p][cur], &self.uses[p][best.1]);
                    profile[p] = best.1;
                    changed = true;
                } else {
                    for &r in &self.uses[p][cur] {
                        ws.loads[r] += 1;
                    }
                }
                // Either p failed to improve, or it now sits at its best
                // response — both leave it clean until a neighbour on a
                // shared resource moves.
                ws.dirty[p] = false;
            }
            if !changed {
                return BestResponseResult { profile, converged: true, passes: pass + 1 };
            }
        }
        BestResponseResult { profile, converged: false, passes: max_passes }
    }
}

/// Reusable buffers for [`CongestionGame::sparse_descent`]: per-resource
/// load counters, per-player dirty flags, and a CSR resource→players index
/// (which players touch a resource through *any* of their strategies).
///
/// A fresh default workspace works for any game; reusing one across solves
/// of same-shaped games reaches a zero-allocation steady state (asserted in
/// this module's tests by pinning each buffer's pointer and capacity).
#[derive(Debug, Default)]
pub struct DescentWorkspace {
    /// Live per-resource loads for the current profile.
    loads: Vec<usize>,
    /// Players whose best response may have changed since last evaluated.
    dirty: Vec<bool>,
    /// CSR offsets (length `resources + 1`) into `touchers`.
    toucher_offsets: Vec<usize>,
    /// CSR payload: players touching each resource, deduplicated.
    touchers: Vec<usize>,
    /// Per-resource fill cursor (CSR build) — reused scratch.
    cursor: Vec<usize>,
    /// Per-resource dedup stamp (player id + 1) — reused scratch.
    seen: Vec<usize>,
}

impl DescentWorkspace {
    /// New empty workspace (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Size every buffer for `game`, compute `start`'s loads, mark all
    /// players dirty, and (re)build the resource→players index.
    fn prepare(&mut self, game: &CongestionGame<'_>, start: &[usize]) {
        let resources = game.resources;
        let players = game.players();
        self.loads.clear();
        self.loads.resize(resources, 0);
        for (p, &s) in start.iter().enumerate() {
            for &r in &game.uses[p][s] {
                self.loads[r] += 1;
            }
        }
        self.dirty.clear();
        self.dirty.resize(players, true);
        // Two-pass CSR build with per-player dedup: a player with
        // strategies {0,1} and {0,2} touches {0,1,2} once each.
        self.seen.clear();
        self.seen.resize(resources, 0);
        self.toucher_offsets.clear();
        self.toucher_offsets.resize(resources + 1, 0);
        for (p, strategies) in game.uses.iter().enumerate() {
            for subset in strategies {
                for &r in subset {
                    if self.seen[r] != p + 1 {
                        self.seen[r] = p + 1;
                        self.toucher_offsets[r + 1] += 1;
                    }
                }
            }
        }
        for r in 0..resources {
            self.toucher_offsets[r + 1] += self.toucher_offsets[r];
        }
        self.touchers.clear();
        self.touchers.resize(self.toucher_offsets[resources], 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.toucher_offsets[..resources]);
        self.seen.iter_mut().for_each(|s| *s = 0);
        for (p, strategies) in game.uses.iter().enumerate() {
            for subset in strategies {
                for &r in subset {
                    if self.seen[r] != p + 1 {
                        self.seen[r] = p + 1;
                        self.touchers[self.cursor[r]] = p;
                        self.cursor[r] += 1;
                    }
                }
            }
        }
    }

    /// Mark every indexed toucher of the symmetric difference `a △ b`
    /// dirty (both subsets strictly increasing — a merge walk). Loads on
    /// `a ∩ b` are unchanged by the move, so their touchers stay clean.
    fn mark_touchers_of_difference(&mut self, a: &[usize], b: &[usize]) {
        let (mut i, mut j) = (0, 0);
        loop {
            let changed = match (a.get(i), b.get(j)) {
                (Some(&ra), Some(&rb)) if ra == rb => {
                    i += 1;
                    j += 1;
                    continue;
                }
                (Some(&ra), Some(&rb)) if ra < rb => {
                    i += 1;
                    ra
                }
                (Some(_), Some(&rb)) => {
                    j += 1;
                    rb
                }
                (Some(&ra), None) => {
                    i += 1;
                    ra
                }
                (None, Some(&rb)) => {
                    j += 1;
                    rb
                }
                (None, None) => break,
            };
            for &p in
                &self.touchers[self.toucher_offsets[changed]..self.toucher_offsets[changed + 1]]
            {
                self.dirty[p] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two players, two routes; sharing a route doubles its cost —
    /// a minimal congestion game.
    fn two_route_game() -> FiniteGame<'static> {
        FiniteGame::new(vec![2, 2], |p, profile| {
            let my_route = profile[p];
            let sharers = profile.iter().filter(|&&r| r == my_route).count();
            // Route 0 base cost 1.0, route 1 base cost 1.2; load multiplies.
            let base = if my_route == 0 { 1.0 } else { 1.2 };
            base * sharers as f64
        })
    }

    #[test]
    fn players_split_across_routes() {
        let g = two_route_game();
        let r = g.best_response_dynamics(vec![0, 0], 100);
        assert!(r.converged);
        assert_ne!(r.profile[0], r.profile[1], "sharing is not an equilibrium");
    }

    #[test]
    fn equilibrium_enumeration_matches_dynamics() {
        let g = two_route_game();
        let eqs = g.enumerate_equilibria();
        // (0,1) and (1,0) are the pure equilibria.
        assert_eq!(eqs.len(), 2);
        assert!(eqs.contains(&vec![0, 1]));
        assert!(eqs.contains(&vec![1, 0]));
        let r = g.best_response_dynamics(vec![1, 1], 100);
        assert!(eqs.contains(&r.profile));
    }

    #[test]
    fn is_equilibrium_checks_all_deviations() {
        let g = two_route_game();
        assert!(g.is_equilibrium(&[0, 1]));
        assert!(!g.is_equilibrium(&[0, 0]));
    }

    #[test]
    fn social_cost_and_best_equilibrium() {
        let g = two_route_game();
        // Both equilibria cost 1.0 + 1.2 = 2.2.
        let best = g.best_equilibrium().unwrap();
        assert!((g.social_cost(&best) - 2.2).abs() < 1e-12);
    }

    #[test]
    fn dominant_strategy_game_converges_in_one_pass() {
        // Strategy 0 always costs 1, strategy 1 always 2: BR is trivial.
        let g = FiniteGame::new(vec![2; 5], |p, profile| 1.0 + profile[p] as f64);
        let r = g.best_response_dynamics(vec![1; 5], 10);
        assert!(r.converged);
        assert_eq!(r.profile, vec![0; 5]);
        assert!(r.passes <= 2);
    }

    #[test]
    fn three_player_congestion_spreads_load() {
        // Three players, three routes, cost = sharers² (convex): the unique
        // equilibrium pattern is one player per route.
        let g = FiniteGame::new(vec![3; 3], |p, profile| {
            let my = profile[p];
            let sharers = profile.iter().filter(|&&r| r == my).count() as f64;
            sharers * sharers
        });
        let r = g.best_response_dynamics(vec![0, 0, 0], 100);
        assert!(r.converged);
        let mut sorted = r.profile.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn potential_game_always_converges() {
        // Random-ish congestion costs, many starts: convergence guaranteed
        // by the potential argument; verify empirically.
        let g = FiniteGame::new(vec![2, 2, 2, 2], |p, profile| {
            let my = profile[p];
            let load = profile.iter().filter(|&&r| r == my).count() as f64;
            let base = [1.0, 1.4][my];
            base * load + p as f64 * 0.01 * load
        });
        for start in 0..16 {
            let profile: Vec<usize> = (0..4).map(|i| (start >> i) & 1).collect();
            let r = g.best_response_dynamics(profile, 1000);
            assert!(r.converged, "start {start:04b}");
            assert!(g.is_equilibrium(&r.profile));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn profile_length_validated() {
        two_route_game().best_response_dynamics(vec![0], 10);
    }

    /// The wave shape: player 0 is a split pull loading *two* routes per
    /// strategy, players 1–2 are single-route pulls. Linear load costs.
    fn split_pull_game() -> CongestionGame<'static> {
        // Resources: 0 = hub route, 1 = regional route, 2 = peer route.
        // Player 0: {hub+peer} or {regional+peer} (split pulls).
        // Players 1, 2: {hub} or {regional} (whole-image pulls).
        let uses =
            vec![vec![vec![0, 2], vec![1, 2]], vec![vec![0], vec![1]], vec![vec![0], vec![1]]];
        CongestionGame::new(3, uses, |r, load| {
            let base = [1.0, 0.9, 0.4][r];
            base * load as f64
        })
    }

    #[test]
    fn player_specific_subsets_load_every_route_they_use() {
        let g = split_pull_game();
        let loads = g.loads(&[0, 0, 1]);
        assert_eq!(loads, vec![2, 1, 1], "split pull counts on both its routes");
        // Player 0 pays both routes at their loads: hub 1.0·2 + peer 0.4·1.
        assert!((g.player_cost(0, &[0, 0, 1]) - 2.4).abs() < 1e-12);
        assert!((g.player_cost(1, &[0, 0, 1]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dynamics_converge_and_spread_single_route_players() {
        let g = split_pull_game();
        let r = g.best_response_dynamics(vec![0, 0, 0], 100);
        assert!(r.converged);
        assert!(g.is_equilibrium(&r.profile));
        // The two whole-image players split across hub/regional (sharing
        // the hub with the split pull is dominated).
        assert_ne!(r.profile[1], r.profile[2], "PD outcome: routes split");
    }

    #[test]
    fn rosenthal_potential_tracks_unilateral_improvements_exactly() {
        // The exact-potential property, checked on every unilateral
        // deviation of the asymmetric game: ΔΦ == Δcost(deviator).
        let g = split_pull_game();
        let mut profile = vec![0usize; 3];
        loop {
            for p in 0..g.players() {
                for s in 0..g.strategy_count(p) {
                    let mut probe = profile.clone();
                    probe[p] = s;
                    let d_cost = g.player_cost(p, &probe) - g.player_cost(p, &profile);
                    let d_phi = g.potential(&probe) - g.potential(&profile);
                    assert!(
                        (d_cost - d_phi).abs() < 1e-9,
                        "deviation p{p}→s{s} from {profile:?}: Δcost {d_cost} vs ΔΦ {d_phi}"
                    );
                }
            }
            // Odometer over the 2×2×2 profile space.
            let mut p = 0;
            loop {
                if p == g.players() {
                    return;
                }
                profile[p] += 1;
                if profile[p] < g.strategy_count(p) {
                    break;
                }
                profile[p] = 0;
                p += 1;
            }
        }
    }

    #[test]
    fn explicit_form_agrees_with_the_oracle_form() {
        let g = split_pull_game();
        let oracle = g.as_finite_game();
        // Same costs on every profile, same equilibrium set.
        let mut profile = vec![0usize; 3];
        loop {
            for p in 0..g.players() {
                assert!((g.player_cost(p, &profile) - (oracle.cost)(p, &profile)).abs() < 1e-12);
            }
            assert_eq!(g.is_equilibrium(&profile), oracle.is_equilibrium(&profile));
            let mut p = 0;
            loop {
                if p == g.players() {
                    return;
                }
                profile[p] += 1;
                if profile[p] < g.strategy_count(p) {
                    break;
                }
                profile[p] = 0;
                p += 1;
            }
        }
    }

    #[test]
    fn dynamics_converge_from_every_start_on_randomish_games() {
        // Potential argument, verified empirically over seeded games with
        // asymmetric subsets and convex costs.
        for seed in 0..20u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let resources = 3 + (next() % 3) as usize;
            let players = 2 + (next() % 3) as usize;
            let uses: Vec<Vec<Vec<usize>>> = (0..players)
                .map(|_| {
                    (0..2 + (next() % 2) as usize)
                        .map(|_| {
                            let mut subset: Vec<usize> =
                                (0..resources).filter(|_| next() % 2 == 0).collect();
                            if subset.is_empty() {
                                subset.push((next() % resources as u64) as usize);
                            }
                            subset
                        })
                        .collect()
                })
                .collect();
            let weights: Vec<f64> = (0..resources).map(|r| 0.5 + r as f64 * 0.3).collect();
            let g = CongestionGame::new(resources, uses, move |r, load| {
                weights[r] * (load * load) as f64
            });
            let start: Vec<usize> = (0..players).map(|p| g.strategy_count(p) - 1).collect();
            let r = g.best_response_dynamics(start, 1000);
            assert!(r.converged, "seed {seed}");
            assert!(g.is_equilibrium(&r.profile), "seed {seed}");
            // Determinism: the same start reaches the same equilibrium.
            let start2: Vec<usize> = (0..players).map(|p| g.strategy_count(p) - 1).collect();
            assert_eq!(g.best_response_dynamics(start2, 1000).profile, r.profile);
        }
    }

    #[test]
    fn equilibrium_potential_is_a_local_minimum() {
        let g = split_pull_game();
        let r = g.best_response_dynamics(vec![0, 0, 0], 100);
        let phi = g.potential(&r.profile);
        for p in 0..g.players() {
            for s in 0..g.strategy_count(p) {
                let mut probe = r.profile.clone();
                probe[p] = s;
                assert!(g.potential(&probe) >= phi - 1e-9);
            }
        }
    }

    /// Seeded asymmetric congestion game (same generator as the dense
    /// convergence test) — the fixture for sparse-vs-dense parity.
    fn randomish_game(seed: u64) -> CongestionGame<'static> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let resources = 3 + (next() % 4) as usize;
        let players = 2 + (next() % 4) as usize;
        let uses: Vec<Vec<Vec<usize>>> = (0..players)
            .map(|_| {
                (0..2 + (next() % 3) as usize)
                    .map(|_| {
                        let mut subset: Vec<usize> =
                            (0..resources).filter(|_| next() % 2 == 0).collect();
                        if subset.is_empty() {
                            subset.push((next() % resources as u64) as usize);
                        }
                        subset
                    })
                    .collect()
            })
            .collect();
        let weights: Vec<f64> = (0..resources).map(|r| 0.5 + r as f64 * 0.3).collect();
        CongestionGame::new(resources, uses, move |r, load| weights[r] * (load * load) as f64)
    }

    #[test]
    fn sparse_descent_matches_dense_dynamics_exactly() {
        // The fleet-scale engine must be trajectory-identical to the dense
        // dynamics, not merely equilibrium-equivalent: same profile, same
        // convergence flag, same pass count, from every start of the
        // split-pull fixture and across seeded asymmetric games.
        let g = split_pull_game();
        let mut ws = DescentWorkspace::new();
        for start_code in 0..8 {
            let start: Vec<usize> = (0..3).map(|p| (start_code >> p) & 1).collect();
            let dense = g.best_response_dynamics(start.clone(), 100);
            let sparse = g.sparse_descent(start, 100, &mut ws);
            assert_eq!(sparse.profile, dense.profile, "start {start_code:03b}");
            assert_eq!(sparse.converged, dense.converged);
            assert_eq!(sparse.passes, dense.passes);
            assert!(g.is_equilibrium(&sparse.profile));
        }
        for seed in 0..40u64 {
            let g = randomish_game(seed);
            let start: Vec<usize> = (0..g.players()).map(|p| g.strategy_count(p) - 1).collect();
            let dense = g.best_response_dynamics(start.clone(), 1000);
            let sparse = g.sparse_descent(start, 1000, &mut ws);
            assert_eq!(sparse.profile, dense.profile, "seed {seed}");
            assert_eq!(sparse.converged, dense.converged, "seed {seed}");
            assert_eq!(sparse.passes, dense.passes, "seed {seed}");
        }
    }

    #[test]
    fn sparse_descent_matches_dense_under_a_pass_budget() {
        // Truncated runs must truncate identically (a caller capping
        // passes with `DeepScheduler::max_refine_passes` relies on it).
        for seed in 0..10u64 {
            let g = randomish_game(seed);
            let start: Vec<usize> = vec![0; g.players()];
            for budget in 1..4 {
                let dense = g.best_response_dynamics(start.clone(), budget);
                let mut ws = DescentWorkspace::new();
                let sparse = g.sparse_descent(start.clone(), budget, &mut ws);
                assert_eq!(sparse.profile, dense.profile, "seed {seed} budget {budget}");
                assert_eq!(sparse.converged, dense.converged, "seed {seed} budget {budget}");
            }
        }
    }

    #[test]
    fn sparse_descent_reuses_workspace_buffers() {
        // Steady state must be allocation-free: after a warm-up solve, a
        // second solve on the same-shaped game must leave every workspace
        // buffer's pointer and capacity untouched (capacity/pointer
        // stability instead of an allocator hook).
        let g = randomish_game(7);
        let start: Vec<usize> = vec![0; g.players()];
        let mut ws = DescentWorkspace::new();
        let first = g.sparse_descent(start.clone(), 1000, &mut ws);
        let fingerprint = |ws: &DescentWorkspace| {
            [
                (ws.loads.as_ptr() as usize, ws.loads.capacity()),
                (ws.dirty.as_ptr() as usize, ws.dirty.capacity()),
                (ws.toucher_offsets.as_ptr() as usize, ws.toucher_offsets.capacity()),
                (ws.touchers.as_ptr() as usize, ws.touchers.capacity()),
                (ws.cursor.as_ptr() as usize, ws.cursor.capacity()),
                (ws.seen.as_ptr() as usize, ws.seen.capacity()),
            ]
        };
        let warm = fingerprint(&ws);
        let second = g.sparse_descent(start, 1000, &mut ws);
        assert_eq!(fingerprint(&ws), warm, "steady-state solve must not reallocate");
        assert_eq!(second.profile, first.profile);
    }

    #[test]
    #[should_panic(expected = "unsorted or duplicated")]
    fn unsorted_subsets_are_rejected() {
        CongestionGame::new(3, vec![vec![vec![2, 1]]], |_, _| 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_resources_are_rejected() {
        CongestionGame::new(2, vec![vec![vec![0, 2]]], |_, _| 1.0);
    }
}
