//! The DEEP scheduler: nash-game-based joint registry/device assignment.
//!
//! Per the paper (Section III-E), deployment is "the prisoner dilemma
//! model within the nash equilibrium to optimize energy consumption
//! through cooperation between microservices and devices". Concretely:
//!
//! 1. **Per-microservice stage game** — walking the DAG in barrier order,
//!    each microservice plays a common-interest bimatrix game: the row
//!    player picks the registry `regist(m_i)`, the column player the
//!    device `sched(m_i)`, and both receive `−EC(m_i, r_g, d_j)` under the
//!    current cache/contention state. In a common-interest game the
//!    global payoff maximum is always a pure Nash equilibrium, and DEEP
//!    plays that energy-minimal one: the cell the paper's Nashpy support
//!    enumeration selects, found by one scan of the payoff grid.
//! 2. **The joint deployment game** — the per-stage choices form an
//!    n-player game (same-wave pulls share registry→device routes, and
//!    sibling images share layers). A member's payoff depends only on
//!    the placements committed strictly before it in the barrier walk:
//!    its own wave's earlier members load this wave's routes, and earlier
//!    waves shape the caches, peer snapshots and clock. Its stage game
//!    takes the minimum of its own grid in exactly that state, so no
//!    member gains by deviating alone and the sequential profile is a
//!    pure Nash equilibrium of the joint game by construction. This is
//!    where the prisoner's-dilemma structure bites: a microservice whose
//!    best route an earlier same-wave member already loads is priced the
//!    contention and may split to another registry.
//!
//! Both layers run over the *whole mesh*: the registry side of every
//! strategy ranges over [`Testbed::registry_choices`] (the paper pair plus
//! any regional mirrors), contention is charged per shared contention
//! resource — download routes per `(source, device)`, peer traffic on
//! the serving holder's uplink — a split pull loading each resource its
//! bytes traverse, and with [`DeepScheduler::with_peer_sharing`] the
//! payoffs price the per-holder peer split pulls a `peer_sharing`
//! executor will realise. [`WaveRouteGame`] can write each wave's
//! congestion structure out in Rosenthal form (player-specific resource
//! subsets read off actual split-pull plans), but no solve or repair
//! path plays it: both price the exact payoffs. On the paper's
//! two-registry testbed all of this reduces to the seed hub-vs-regional
//! game exactly (regression-tested in `tests/mesh_equilibria.rs`).
//!
//! ## The solve and repair paths
//!
//! * **Stage games** — each game plays the *last* minimal-energy cell
//!   of its registry × device grid in registry-major order. That rule is
//!   the specification. It is the cell support enumeration selects when
//!   it lists the pure equilibria registry-major and keeps the last
//!   payoff maximum, which this module's oracle test checks member by
//!   member. Only the cells that can win are priced: every cell first
//!   gets an admissible energy floor
//!   (`EstimationContext::energy_floors`: the missing bytes' extract
//!   and fastest-route download time plus the primary's overhead), and
//!   cells are priced exactly in ascending-floor order until the next
//!   floor exceeds the best cost found. A pruned cell costs strictly
//!   more than the minimum, so the pick and its cost bits are those of
//!   the fully priced grid. On a warm 800-device fleet about one cell in
//!   ten or fewer is priced exactly (PERF.md).
//! * **Repair** — [`DeepScheduler::incremental_repair`] walks the
//!   incumbent once in barrier order. Each member's scan starts from its
//!   incumbent cell and prices only the cells whose floor lies more than
//!   the improvement margin below the incumbent's cost. A member that no
//!   cell beats by more than the margin keeps its placement; that is
//!   exactly the equilibrium check's test. Any other member plays its
//!   stage game in the walk's state. So every member of the result is a
//!   best response to the placements before it, and the result is an
//!   exact equilibrium by the same argument as the solve. An incumbent
//!   that already is one comes back unchanged.
//! * **Wave games** — each wave's [`WaveRouteGame`] reads every
//!   strategy's resource subset off its pull plan, but most fleet cells
//!   need no pull session to know it. A cell is *sole-source* when its
//!   manifest is memoized, its registry advertises every layer of it, and
//!   no peer in the device's snapshot advertises a layer the device is
//!   missing. The session only plans a layer onto a source that has it,
//!   so every missing layer of such a cell goes to its registry: the
//!   plan is one bucket of the missing bytes (none when nothing is
//!   missing). Only the other cells, those a peer could serve, run the
//!   session (`EstimationContext::plan_buckets`, pinned to
//!   [`EstimationContext::plan`] by a property test). The wave games
//!   are built only by [`DeepScheduler::wave_route_games`].
//!
//! The equilibrium checks evaluate unilateral deviations
//! *incrementally*: since a member's payoff depends only on the
//! placements committed strictly before it, one walk of the profile
//! prices every member's candidates directly, float-identical to the
//! seed's full-profile replays. The deviation scans skip every candidate
//! whose energy floor is already within the improvement margin of the
//! cost to beat. Each call opens one estimation context —
//! construction plus the first barrier, whose gossip round dominates at
//! fleet scale — and walks it, or clones of it. A
//! 1,000-device, 10-registry synthetic fleet
//! ([`crate::continuum::synthetic_fleet_testbed`]) solves in well under
//! a second (`examples/fleet_scale.rs`, PERF.md).

use crate::model::{EstimationContext, ScenarioPricing};
use crate::Scheduler;
use deep_dataflow::{stages, Application, MicroserviceId};
use deep_game::CongestionGame;
use deep_netsim::{splitmix64, DeviceId, RegistryId, Seconds};
use deep_simulator::{route_key, PeerDiscovery, Placement, RegistryChoice, Schedule, Testbed};

/// One deployment wave of the joint game in explicit Rosenthal form,
/// derived from actual split-pull plans.
///
/// Players are the wave's microservices; a strategy is a
/// `(registry, device)` placement; resources are the contention keys of
/// [`deep_simulator::route_key`] — registry→device download routes plus
/// peer-holder uplinks. Each strategy's resource *subset* is read off
/// the pull plan its bytes would realise
/// ([`EstimationContext::plan`]): the buckets at or above the
/// contention threshold, charged to the route or uplink that carries
/// them — so a split pull occupies several resources at once and a
/// fully-cached strategy occupies none. The per-resource cost is the
/// mean unloaded transfer time of the buckets observed on it, scaled by
/// the testbed's linear contention factor — anonymous in who loads the
/// resource, which is what keeps Rosenthal's exact potential (and hence
/// deterministic best-response convergence) valid. Because those costs
/// are means, not the exact payoffs, neither the solve nor the repair
/// plays this game; [`DeepScheduler::wave_route_games`] builds it for
/// callers that study the congestion structure.
pub struct WaveRouteGame {
    /// The wave's players, in commit order.
    pub members: Vec<MicroserviceId>,
    /// Strategy space per player, registry-major: the order the stage
    /// games break ties in.
    pub strategies: Vec<Vec<Placement>>,
    /// Resource index → contention key.
    pub resources: Vec<(RegistryId, usize)>,
    /// `uses[p][s]` = sorted resource subset strategy `s` of player `p`
    /// loads.
    pub uses: Vec<Vec<Vec<usize>>>,
    /// Mean unloaded transfer seconds observed per resource.
    pub base_cost: Vec<f64>,
    /// The testbed's linear contention coefficient.
    pub alpha: f64,
}

impl WaveRouteGame {
    /// Derive the wave's game from the context's current state (call at
    /// the wave barrier, before committing any member).
    ///
    /// Each placement's bucket bytes come from
    /// [`EstimationContext::plan_buckets`], which answers a sole-source
    /// cell (every missing layer can only come from the primary) from the
    /// missing bytes alone and runs the pull session for every other
    /// cell. The loaded keys land in one flat list in strategy order; the
    /// resources are its sorted distinct keys, and each resource's
    /// observed transfer times are summed in strategy order.
    fn build(ctx: &EstimationContext<'_>, testbed: &Testbed, members: &[MicroserviceId]) -> Self {
        let registries = ctx.registry_choices();
        let threshold = testbed.params.contention_threshold;
        let mut strategies: Vec<Vec<Placement>> = Vec::with_capacity(members.len());
        // Every strategy's loaded keys with their unloaded bucket
        // transfer times, flat in strategy order; `ends[k]` closes
        // strategy k's run.
        let mut loads: Vec<((RegistryId, usize), f64)> = Vec::new();
        let mut ends: Vec<usize> = Vec::new();
        let mut buckets = Vec::new();
        let mut devices = Vec::new();
        for &id in members {
            ctx.admissible_devices_into(id, &mut devices);
            let placements: Vec<Placement> = registries
                .iter()
                .flat_map(|&registry| {
                    devices.iter().map(move |&device| Placement { registry, device })
                })
                .collect();
            for placement in &placements {
                ctx.plan_buckets(id, placement.registry, placement.device, &mut buckets)
                    .expect("catalog images resolve");
                for &(source, downloaded) in &buckets {
                    if downloaded < threshold {
                        continue;
                    }
                    let bw = testbed
                        .source_params(RegistryChoice::mesh(source), placement.device, 1.0)
                        .download_bw;
                    let secs = deep_netsim::transfer_time(downloaded, bw).as_f64();
                    loads.push((route_key(source, placement.device), secs));
                }
                ends.push(loads.len());
            }
            strategies.push(placements);
        }
        let mut resources: Vec<(RegistryId, usize)> = loads.iter().map(|(key, _)| *key).collect();
        resources.sort_unstable();
        resources.dedup();
        let mut observed = vec![(0.0, 0usize); resources.len()];
        let mut uses: Vec<Vec<Vec<usize>>> = Vec::with_capacity(strategies.len());
        let mut runs = ends.into_iter();
        let mut start = 0;
        for placements in &strategies {
            let mut subsets = Vec::with_capacity(placements.len());
            for end in runs.by_ref().take(placements.len()) {
                let mut subset = Vec::with_capacity(end - start);
                for (key, secs) in &loads[start..end] {
                    let r = resources.binary_search(key).expect("every load key is a resource");
                    observed[r].0 += secs;
                    observed[r].1 += 1;
                    subset.push(r);
                }
                subset.sort_unstable();
                subsets.push(subset);
                start = end;
            }
            uses.push(subsets);
        }
        let base_cost: Vec<f64> =
            observed.iter().map(|(sum, count)| sum / (*count).max(1) as f64).collect();
        WaveRouteGame {
            members: members.to_vec(),
            strategies,
            resources,
            uses,
            base_cost,
            alpha: testbed.params.contention_alpha,
        }
    }

    /// The explicit congestion game (borrowing this description).
    pub fn game(&self) -> CongestionGame<'_> {
        CongestionGame::new(self.resources.len(), self.uses.clone(), |r, load| {
            self.base_cost[r] * (1.0 + self.alpha * (load - 1) as f64)
        })
    }
}

/// The result of [`DeepScheduler::incremental_repair`]: either the
/// incumbent schedule with the members that had an improving deviation
/// moved to their stage-game picks, or — when the incumbent no longer
/// fits the mesh or more members move than the budget allows — a full
/// re-solve.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired (or re-solved) schedule.
    pub schedule: Schedule,
    /// Members the repair moved off their incumbent placement. 0 exactly
    /// when the incumbent is an equilibrium of the priced game.
    pub deviations: usize,
    /// Whether the repair abandoned the incumbent and re-solved from
    /// scratch ([`Scheduler::schedule`]).
    pub fell_back: bool,
}

/// Reused buffers for the hot solve loop: per-member admissible-device
/// lists, the flat per-cell energy floors, the stage scan's pricing
/// order and the flat payoff grid. One workspace serves a whole
/// [`Scheduler::schedule`] call across members and waves; steady state
/// allocates nothing (asserted in this module's tests via
/// capacity/pointer stability, the gf256 idiom).
#[derive(Debug, Default)]
struct FleetWorkspace {
    /// Admissible devices of the member being solved.
    devices: Vec<DeviceId>,
    /// Flat energy-floor grid ([`EstimationContext::energy_floors`]),
    /// device-major: `floors[d * R + r]`.
    floors: Vec<f64>,
    /// The stage scan's cells still able to win, in ascending-floor
    /// order.
    order: Vec<usize>,
    /// Flat payoff/cost grid, device-major: `payoffs[d * R + r]`; `+∞`
    /// at cells the stage scan pruned.
    payoffs: Vec<f64>,
    /// Cells the stage scans priced with an exact estimate.
    exact_cells: usize,
    /// Grid cells the stage scans faced.
    grid_cells: usize,
}

/// The energy margin a deviation must beat to count as an improvement,
/// in the equilibrium checks and the repair's keep-or-move test.
const MARGIN: f64 = 1e-9;

/// The DEEP scheduler.
#[derive(Debug, Clone)]
pub struct DeepScheduler {
    /// Cap on best-response passes per wave game (each pass lets every
    /// wave member revise once). No solve or repair path reads it: it
    /// only caps the descent a caller runs on
    /// [`DeepScheduler::wave_route_games`], which perfbench's wave-game
    /// probe does.
    pub max_refine_passes: usize,
    /// Price peer-cache split pulls in the payoffs — set this iff the
    /// executor will run with
    /// [`deep_simulator::ExecutorConfig::peer_sharing`], so predictions
    /// keep matching measurements.
    pub peer_sharing: bool,
    /// Price expected deployment time under the testbed's fault model:
    /// every payoff folds failure probability × failover re-plan cost
    /// (surviving-source re-fetch + expected retry backoff) into `Td`,
    /// so the stage games optimise `E[Td]` instead of best-case `Td`.
    /// Pair with a `fault_injection` executor; with a zero fault model
    /// the payoffs — and therefore the schedules — are byte-identical to
    /// the happy-path ones.
    pub price_faults: bool,
    /// Price scripted scenarios: payoffs become the Monte-Carlo `E[Td]`
    /// of [`ScenarioPricing`] — death frequency drawn over the
    /// scenario's replication seed stream at the executor's pull
    /// numbering, clock-gated on its scripted outage windows, so the
    /// equilibrium routes *around a window* instead of averaging over
    /// it. Supersedes `price_faults` when set; `None` preserves the
    /// closed-form pricing paths.
    pub scenario: Option<ScenarioPricing>,
    /// The estimator clock at which the deployment starts. An online
    /// plane admitting applications mid-soak sets this to the
    /// executor's wave clock so scenario-priced payoffs gate outage
    /// windows against *admission* time rather than t = 0. At
    /// [`Seconds::ZERO`] (the default) pricing is byte-identical to the
    /// one-shot path.
    pub start_clock: Seconds,
    /// The executor pull number the deployment starts at — the online
    /// analogue of `start_clock` for the per-pull fault seed stream.
    /// At 0 (the default) pricing is byte-identical to the one-shot
    /// path.
    pub start_pull: u64,
    /// How the executor will discover peer holders — mirror of
    /// [`deep_simulator::ExecutorConfig::peer_discovery`]. Under
    /// [`PeerDiscovery::Gossip`] the payoffs run the same seeded
    /// epidemic over the estimated caches: a layer gossip hasn't
    /// propagated to a puller's (bounded) view is a layer the scheduler
    /// cannot count on. Only read when `peer_sharing` is on; the
    /// default ([`PeerDiscovery::Snapshot`]) preserves the omniscient
    /// pricing byte for byte.
    pub peer_discovery: PeerDiscovery,
    /// Seed of the priced gossip plane — must equal the executor's
    /// [`deep_simulator::ExecutorConfig::seed`] so both partner
    /// schedules (and therefore both view sequences) match exactly.
    pub discovery_seed: u64,
}

impl Default for DeepScheduler {
    fn default() -> Self {
        DeepScheduler {
            max_refine_passes: 32,
            peer_sharing: false,
            price_faults: false,
            scenario: None,
            start_clock: Seconds::ZERO,
            start_pull: 0,
            peer_discovery: PeerDiscovery::Snapshot,
            discovery_seed: 0,
        }
    }
}

impl DeepScheduler {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Peer-aware variant: payoffs price split pulls through the fleet's
    /// peer caches (pair with a `peer_sharing` executor).
    pub fn with_peer_sharing() -> Self {
        DeepScheduler { peer_sharing: true, ..Self::default() }
    }

    /// Failover-aware variant: payoffs price `E[Td]` under the testbed's
    /// fault model (pair with a `fault_injection` executor). Under churn
    /// the equilibrium reroutes risk-weighted bytes away from lossy
    /// sources; with a zero fault model it reproduces
    /// [`DeepScheduler::paper`] byte for byte.
    pub fn fault_aware() -> Self {
        DeepScheduler { price_faults: true, ..Self::default() }
    }

    /// Scenario-priced variant: payoffs are simulation-in-the-loop
    /// `E[Td]` under the testbed's full fault model *including its
    /// scripted outage windows*, Monte-Carlo averaged over the exact
    /// fault plans `draws` replications will realise (seeds
    /// `seed..seed + draws` — match the scenario's own seed stream).
    /// Pair with a `fault_injection` executor replaying the scenario;
    /// with no windows and zero rates the payoffs — and therefore the
    /// schedules — are byte-identical to [`DeepScheduler::paper`].
    pub fn scenario_priced(draws: u32, seed: u64) -> Self {
        DeepScheduler { scenario: Some(ScenarioPricing { draws, seed }), ..Self::default() }
    }

    /// An estimation context under this scheduler's configuration,
    /// opened at the first barrier with every member's manifests
    /// memoized. A barrier walk from it (or from a clone) therefore
    /// opens every wave but the first.
    fn open<'t>(&self, testbed: &'t Testbed, app: &'t Application) -> EstimationContext<'t> {
        // Discovery before sharing: each builder re-snapshots the peers
        // once sharing is on, so this order builds only the views the
        // configured discovery serves. The gossip plane sees the same
        // `mesh_view` calls in the same order either way.
        let mut ctx = EstimationContext::new(testbed, app)
            .peer_discovery(self.peer_discovery, self.discovery_seed)
            .peer_sharing(self.peer_sharing)
            .price_faults(self.price_faults)
            .scenario_pricing(self.scenario)
            .at_clock(self.start_clock)
            .starting_pull(self.start_pull);
        ctx.begin_wave();
        for id in app.ids() {
            ctx.prefetch_manifests(id);
        }
        ctx
    }

    /// Play the per-microservice stage games in barrier order on a clone
    /// of `opened`. Every pick is the minimum of its member's grid in the
    /// state the profile's own walk reaches, so the profile is a pure
    /// Nash equilibrium of the joint game.
    fn sequential_assignment(
        opened: &EstimationContext<'_>,
        app: &Application,
        ws: &mut FleetWorkspace,
    ) -> Vec<Placement> {
        let mut ctx = opened.clone();
        let mut placements: Vec<Option<Placement>> = vec![None; app.len()];
        for (w, stage) in stages(app).iter().enumerate() {
            if w > 0 {
                ctx.begin_wave();
            }
            for &id in &stage.members {
                let (placement, _) = Self::stage_game(&ctx, id, ws);
                ctx.commit(id, placement);
                placements[id.0] = Some(placement);
            }
        }
        placements.into_iter().map(|p| p.expect("all stages visited")).collect()
    }

    /// Solve one microservice's |R|×|D| common-interest game over every
    /// mesh registry × admissible device and play its *last*
    /// minimal-energy cell in registry-major order. Returns the pick with
    /// the member's estimated energy there.
    ///
    /// In a common-interest game the global payoff maximum is always a
    /// pure Nash equilibrium, so the scanned cell is an equilibrium of
    /// the stage game and a best response on the member's grid. The
    /// tie-break is the specification: it is the cell Nashpy-style
    /// support enumeration selects when it lists the pure equilibria
    /// registry-major and keeps the last payoff maximum (this module's
    /// oracle test checks the two member by member, pick and cost bits).
    ///
    /// Only the cells that can win are priced exactly. Every cell first
    /// gets its admissible energy floor
    /// ([`EstimationContext::energy_floors`]), which is far cheaper than
    /// an estimate. The scan starts from the lowest-floor cell
    /// ([`DeepScheduler::scan_from`]).
    fn stage_game(
        ctx: &EstimationContext<'_>,
        id: MicroserviceId,
        ws: &mut FleetWorkspace,
    ) -> (Placement, f64) {
        let registries = ctx.registry_choices();
        Self::fill_floors(ctx, id, &registries, ws);
        let lowest = (0..ws.floors.len())
            .min_by(|&a, &b| ws.floors[a].total_cmp(&ws.floors[b]))
            .expect("the grid is non-empty");
        Self::scan_from(ctx, id, &registries, ws, lowest, 0.0);
        Self::last_minimum(&registries, ws)
    }

    /// Price the filled grid's `seed` cell, then, in ascending-floor
    /// order, the cells whose floor is at most the seed's cost less
    /// `margin`, until the next floor exceeds the best cost so far.
    /// Returns the seed's cost. Unpriced cells stay at `+∞` in
    /// `ws.payoffs`.
    ///
    /// A cell's exact cost is at least its floor, so a pruned cell costs
    /// strictly more than the best cost found or than the seed's cost
    /// less `margin`. With `margin` 0, and whenever the best cost ends
    /// below the seed's cost less `margin`, no pruned cell can win or
    /// tie: the last minimum of `ws.payoffs` is that of the fully priced
    /// grid, pick and cost bits. Otherwise no cell beats the seed by more
    /// than `margin`.
    fn scan_from(
        ctx: &EstimationContext<'_>,
        id: MicroserviceId,
        registries: &[RegistryChoice],
        ws: &mut FleetWorkspace,
        seed: usize,
        margin: f64,
    ) -> f64 {
        let r_count = registries.len();
        let FleetWorkspace { devices, floors, order, payoffs, exact_cells, grid_cells, .. } = ws;
        let price = |cell: usize| {
            let cost =
                ctx.estimate(id, registries[cell % r_count], devices[cell / r_count]).ec.as_f64();
            debug_assert!(floors[cell] <= cost, "energy floor above the exact cost");
            cost
        };
        let bound = price(seed);
        payoffs.clear();
        payoffs.resize(floors.len(), f64::INFINITY);
        payoffs[seed] = bound;
        order.clear();
        order.extend(
            (0..floors.len()).filter(|&cell| cell != seed && floors[cell] <= bound - margin),
        );
        order.sort_unstable_by(|&a, &b| floors[a].total_cmp(&floors[b]));
        let mut best = bound;
        let mut priced = 1;
        for &cell in order.iter() {
            if floors[cell] > best {
                break;
            }
            payoffs[cell] = price(cell);
            best = best.min(payoffs[cell]);
            priced += 1;
        }
        *exact_cells += priced;
        *grid_cells += floors.len();
        bound
    }

    /// The last minimal-energy cell of `ws.payoffs` in registry-major
    /// order, with its cost.
    fn last_minimum(registries: &[RegistryChoice], ws: &FleetWorkspace) -> (Placement, f64) {
        let r_count = registries.len();
        let mut best = (f64::INFINITY, 0usize, 0usize);
        for ri in 0..r_count {
            for di in 0..ws.devices.len() {
                let cost = ws.payoffs[di * r_count + ri];
                if cost <= best.0 {
                    best = (cost, ri, di);
                }
            }
        }
        (Placement { registry: registries[best.1], device: ws.devices[best.2] }, best.0)
    }

    /// The per-wave explicit Rosenthal games of a profile: each wave's
    /// [`WaveRouteGame`] built at its barrier with every earlier wave of
    /// `profile` committed (so cache state and therefore the split-pull
    /// plans are the ones the profile realises).
    pub fn wave_route_games(
        &self,
        app: &Application,
        testbed: &Testbed,
        profile: &[Placement],
    ) -> Vec<WaveRouteGame> {
        let mut ctx = self.open(testbed, app);
        let mut out = Vec::new();
        for (w, stage) in stages(app).iter().enumerate() {
            if w > 0 {
                ctx.begin_wave();
            }
            out.push(WaveRouteGame::build(&ctx, testbed, &stage.members));
            for &id in &stage.members {
                ctx.commit(id, profile[id.0]);
            }
        }
        out
    }

    /// Incrementally re-equilibrate from an incumbent schedule.
    ///
    /// The continuous-arrival analogue of [`Scheduler::schedule`]: when
    /// the world shifts under a running deployment — a new application
    /// admitted, caches warmed by an earlier run — the incumbent is
    /// usually *almost* an equilibrium, and only the members the change
    /// touches need to decide again. The repair opens one context and
    /// walks the incumbent once in barrier order. At each member it fills
    /// the energy floors, prices the incumbent cell exactly, and prices
    /// only the cells whose floor lies more than the improvement margin
    /// (1e-9 J) below that cost. If none of them beats the incumbent by
    /// more than the margin, the member keeps it: exactly the test the
    /// equilibrium check makes. Otherwise the member plays its stage game
    /// in the walk's state and counts as moved. Either way its placement
    /// is committed before the next member. Every member of the result is
    /// then a best response to the placements committed before it, so the
    /// result is an exact pure Nash equilibrium of the priced game by the
    /// same argument as the solve (module doc), and an incumbent that
    /// already is one comes back unchanged with 0 moved.
    ///
    /// Falls back to a full re-solve (`fell_back = true`) when the
    /// incumbent no longer fits the mesh (length mismatch, a registry
    /// that left the strategy space, an inadmissible device) or when more
    /// than `budget` members move. The re-solve runs the full
    /// [`Scheduler::schedule`].
    pub fn incremental_repair(
        &self,
        app: &Application,
        testbed: &Testbed,
        incumbent: &Schedule,
        budget: usize,
    ) -> RepairOutcome {
        let full = |deviations| RepairOutcome {
            schedule: self.schedule(app, testbed),
            deviations,
            fell_back: true,
        };
        if incumbent.len() != app.len() {
            return full(0);
        }
        let profile: Vec<Placement> = app.ids().map(|id| incumbent.placement(id)).collect();
        // The incumbent must live inside today's strategy space: mirrors
        // may have joined or retired and admissibility may have shifted
        // since it was solved.
        let registries = testbed.registry_choices();
        let fits = app.ids().all(|id| {
            let p = profile[id.0];
            let req = &app.microservice(id).requirements;
            registries.contains(&p.registry)
                && testbed.devices.iter().any(|d| d.id == p.device && d.admits(req))
        });
        if !fits {
            return full(0);
        }
        // The walk's context is gone before a fallback opens its own.
        match self.repair_walk(app, testbed, profile, budget) {
            Ok((out, moved)) => {
                RepairOutcome { schedule: Schedule::new(out), deviations: moved, fell_back: false }
            }
            Err(moved) => full(moved),
        }
    }

    /// The walk of [`DeepScheduler::incremental_repair`] over an
    /// incumbent that fits the mesh: the repaired profile with the
    /// number of members moved, or `Err(moved)` once more than `budget`
    /// members moved.
    fn repair_walk(
        &self,
        app: &Application,
        testbed: &Testbed,
        mut profile: Vec<Placement>,
        budget: usize,
    ) -> Result<(Vec<Placement>, usize), usize> {
        let mut ctx = self.open(testbed, app);
        let registries = ctx.registry_choices();
        let mut ws = FleetWorkspace::default();
        let mut moved = 0usize;
        for (w, stage) in stages(app).iter().enumerate() {
            if w > 0 {
                ctx.begin_wave();
            }
            for &id in &stage.members {
                let kept = profile[id.0];
                Self::fill_floors(&ctx, id, &registries, &mut ws);
                let fits = "the incumbent fits the mesh";
                let d = ws.devices.iter().position(|&d| d == kept.device).expect(fits);
                let r = registries.iter().position(|&r| r == kept.registry).expect(fits);
                // The incumbent is the scan's seed: a member no cell beats
                // by more than the margin keeps it, which is exactly the
                // equilibrium check's test over the full grid.
                let seed = d * registries.len() + r;
                let current = Self::scan_from(&ctx, id, &registries, &mut ws, seed, MARGIN);
                let (pick, cost) = Self::last_minimum(&registries, &ws);
                if cost < current - MARGIN {
                    moved += 1;
                    if moved > budget {
                        return Err(moved);
                    }
                    profile[id.0] = pick;
                }
                ctx.commit(id, profile[id.0]);
            }
        }
        Ok((profile, moved))
    }

    /// Refresh `ws.devices` with `id`'s admissible devices and fill
    /// `ws.floors` (device-major) with the energy floor of every
    /// registry × device cell under `ctx`'s committed prefix.
    fn fill_floors(
        ctx: &EstimationContext<'_>,
        id: MicroserviceId,
        registries: &[RegistryChoice],
        ws: &mut FleetWorkspace,
    ) {
        ctx.admissible_devices_into(id, &mut ws.devices);
        assert!(
            !ws.devices.is_empty(),
            "no device admits microservice {id}: the testbed cannot host the application"
        );
        let r_count = registries.len();
        ws.floors.clear();
        ws.floors.resize(r_count * ws.devices.len(), 0.0);
        for (row, &device) in ws.floors.chunks_mut(r_count).zip(&ws.devices) {
            ctx.energy_floors(id, device, registries, row);
        }
    }

    /// Is `schedule` a pure Nash equilibrium of the joint deployment game
    /// under *this* scheduler's configuration (mesh strategy space,
    /// peer-aware payoffs when enabled)?
    pub fn is_equilibrium(
        &self,
        app: &Application,
        testbed: &Testbed,
        schedule: &Schedule,
    ) -> bool {
        let registries = testbed.registry_choices();
        let opened = self.open(testbed, app);
        Self::no_improving_deviation(opened, app, schedule, |ctx, id| {
            let devices = ctx.admissible_devices(id);
            registries
                .iter()
                .flat_map(|&registry| {
                    devices.iter().map(move |&device| Placement { registry, device })
                })
                .collect()
        })
    }

    /// Equilibrium check over a seeded sample of unilateral deviations
    /// instead of the full `registries × devices` grid — the fleet-scale
    /// verification: at 10³ devices the exhaustive check prices ~10⁴
    /// candidates per member, while a few dozen seeded samples per
    /// member already catch a non-equilibrium with overwhelming
    /// probability (any improving deviation that exists is sampled
    /// uniformly). Deterministic in `seed` (splitmix64 stream, drawn
    /// member by member in id order); the member's current placement
    /// resamples to a no-op.
    pub fn is_equilibrium_sampled(
        &self,
        app: &Application,
        testbed: &Testbed,
        schedule: &Schedule,
        deviations_per_member: usize,
        seed: u64,
    ) -> bool {
        let registries = testbed.registry_choices();
        let opened = self.open(testbed, app);
        let mut state = seed;
        let mut draw = |n: usize| {
            let out = splitmix64(state);
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            (out % n as u64) as usize
        };
        let mut sampled: Vec<Vec<Placement>> = Vec::with_capacity(app.len());
        let mut devices = Vec::new();
        for id in app.ids() {
            opened.admissible_devices_into(id, &mut devices);
            let draws = (0..deviations_per_member).map(|_| {
                let registry = registries[draw(registries.len())];
                let device = devices[draw(devices.len())];
                Placement { registry, device }
            });
            sampled.push(draws.collect());
        }
        Self::no_improving_deviation(opened, app, schedule, |_, id| {
            std::mem::take(&mut sampled[id.0])
        })
    }

    /// Walk `schedule` once from the opened `ctx`, barrier by barrier,
    /// and check that none of the `candidates` of each member improves on
    /// its placement by more than [`MARGIN`]. A member's payoff depends
    /// only on placements committed strictly before it (its own deviation
    /// never changes that prefix), so the walk's context at each member
    /// prices its deviations exactly; the profile never moves, so
    /// one walk serves every member, and the verdict does not depend on
    /// the order members are checked in.
    fn no_improving_deviation(
        mut ctx: EstimationContext<'_>,
        app: &Application,
        schedule: &Schedule,
        mut candidates: impl FnMut(&EstimationContext<'_>, MicroserviceId) -> Vec<Placement>,
    ) -> bool {
        for (w, stage) in stages(app).iter().enumerate() {
            if w > 0 {
                ctx.begin_wave();
            }
            for &id in &stage.members {
                let p = schedule.placement(id);
                let current = ctx.estimate(id, p.registry, p.device).ec.as_f64();
                for candidate in candidates(&ctx, id) {
                    // The floor screens out candidates that cannot beat
                    // the margin before any exact estimate runs.
                    if candidate != p
                        && ctx.energy_floor(id, candidate.registry, candidate.device)
                            < current - MARGIN
                        && ctx.estimate(id, candidate.registry, candidate.device).ec.as_f64()
                            < current - MARGIN
                    {
                        return false;
                    }
                }
                ctx.commit(id, p);
            }
        }
        true
    }

    /// Is `profile` a pure Nash equilibrium of the joint deployment game
    /// under the paper configuration? (Kept for tests and the experiment
    /// drivers; see [`DeepScheduler::is_equilibrium`] for peer-aware
    /// checks.)
    pub fn is_joint_equilibrium(app: &Application, testbed: &Testbed, schedule: &Schedule) -> bool {
        Self::paper().is_equilibrium(app, testbed, schedule)
    }
}

impl Scheduler for DeepScheduler {
    fn name(&self) -> &str {
        "DEEP"
    }

    /// The sequential stage games' profile: an exact pure Nash
    /// equilibrium of the joint game by construction (module doc).
    fn schedule(&self, app: &Application, testbed: &Testbed) -> Schedule {
        let mut ws = FleetWorkspace::default();
        let opened = self.open(testbed, app);
        Schedule::new(Self::sequential_assignment(&opened, app, &mut ws))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::calibrated_testbed;
    use crate::model::Estimate;
    use deep_dataflow::apps;
    use deep_netsim::Bandwidth;
    use deep_simulator::{RegistryChoice, DEVICE_MEDIUM, DEVICE_SMALL};

    fn placements(app: &Application, s: &Schedule) -> Vec<(String, Placement)> {
        app.ids().map(|id| (app.microservice(id).name.clone(), s.placement(id))).collect()
    }

    #[test]
    fn video_reproduces_table_iii() {
        // Table III, video processing: 83 % medium/Docker-Hub,
        // 17 % small/regional — i.e. transcode on the small device from
        // the regional registry, everything else medium from the Hub.
        let tb = calibrated_testbed();
        let app = apps::video_processing();
        let schedule = DeepScheduler::paper().schedule(&app, &tb);
        for (name, p) in placements(&app, &schedule) {
            if name == "transcode" {
                assert_eq!(p.device, DEVICE_SMALL, "{name}");
                assert_eq!(p.registry, RegistryChoice::Regional, "{name}");
            } else {
                assert_eq!(p.device, DEVICE_MEDIUM, "{name}");
                assert_eq!(p.registry, RegistryChoice::Hub, "{name}");
            }
        }
    }

    #[test]
    fn text_reproduces_table_iii() {
        // Table III, text processing: 17 % medium/Hub, 17 % medium/
        // regional, 66 % small/regional.
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let schedule = DeepScheduler::paper().schedule(&app, &tb);
        let by_name: std::collections::HashMap<String, Placement> =
            placements(&app, &schedule).into_iter().collect();
        // retrieve and decompress stay on the medium device, split across
        // registries (the PD outcome of the contended medium routes).
        let retrieve = by_name["retrieve"];
        let decompress = by_name["decompress"];
        assert_eq!(retrieve.device, DEVICE_MEDIUM);
        assert_eq!(decompress.device, DEVICE_MEDIUM);
        assert_ne!(retrieve.registry, decompress.registry, "one Hub, one regional");
        // Trainers and scorers run on the small device from the regional
        // registry.
        for name in ["ha-train", "la-train", "ha-score", "la-score"] {
            let p = by_name[name];
            assert_eq!(p.device, DEVICE_SMALL, "{name}");
            assert_eq!(p.registry, RegistryChoice::Regional, "{name}");
        }
    }

    #[test]
    fn deep_output_is_a_joint_nash_equilibrium() {
        let tb = calibrated_testbed();
        for app in apps::case_studies() {
            let schedule = DeepScheduler::paper().schedule(&app, &tb);
            assert!(
                DeepScheduler::is_joint_equilibrium(&app, &tb, &schedule),
                "{} schedule is not an equilibrium",
                app.name()
            );
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let a = DeepScheduler::paper().schedule(&app, &tb);
        let b = DeepScheduler::paper().schedule(&app, &tb);
        assert_eq!(a, b);
    }

    #[test]
    fn wave_route_game_subsets_come_from_split_pull_plans() {
        use deep_simulator::{peer_source_id, DEVICE_CLOUD};
        // Warm continuum fleet: the medium device already ran the video
        // app, so a cloud pull's plan rides the medium holder's uplink.
        let mut tb = crate::continuum::continuum_testbed();
        let app = apps::video_processing();
        let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        deep_simulator::execute(&mut tb, &app, &warm, &deep_simulator::ExecutorConfig::default())
            .unwrap();
        let sched = DeepScheduler::with_peer_sharing();
        let profile =
            vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_CLOUD }; app.len()];
        let games = sched.wave_route_games(&app, &tb, &profile);
        let ha = app.by_name("ha-train").unwrap();
        let wave = games.iter().find(|g| g.members.contains(&ha)).unwrap();
        let p = wave.members.iter().position(|&m| m == ha).unwrap();
        let uplink = (peer_source_id(DEVICE_MEDIUM), DEVICE_MEDIUM.0);
        assert!(wave.resources.contains(&uplink), "uplink resource derived: {:?}", wave.resources);
        let uplink_idx = wave.resources.iter().position(|r| *r == uplink).unwrap();
        let strategy = |registry, device| {
            wave.strategies[p].iter().position(|pl| *pl == Placement { registry, device }).unwrap()
        };
        // (Hub, cloud): a genuine split plan — the big fleet-resident
        // layers load the medium holder's uplink while the small ones
        // ride the fast hub→cloud route (60 MB/s beats the peer's
        // first-use overhead below the break-even size), so the
        // strategy occupies BOTH resources at once: the player-specific
        // subset shape hand-built test games only imitated.
        let hub_cloud = (RegistryChoice::Hub.registry_id(), DEVICE_CLOUD.0);
        let hub_cloud_idx = wave.resources.iter().position(|r| *r == hub_cloud).unwrap();
        assert_eq!(
            wave.uses[p][strategy(RegistryChoice::Hub, DEVICE_CLOUD)],
            vec![hub_cloud_idx, uplink_idx]
        );
        // (Hub, medium): fully cached on the warm device — loads nothing.
        assert!(wave.uses[p][strategy(RegistryChoice::Hub, DEVICE_MEDIUM)].is_empty());
        // (Hub, small): an arm64 pull no amd64 holder can serve — the
        // whole image loads the hub→small download route.
        let hub_small = (RegistryChoice::Hub.registry_id(), DEVICE_SMALL.0);
        let hub_small_idx = wave.resources.iter().position(|r| *r == hub_small).unwrap();
        assert_eq!(wave.uses[p][strategy(RegistryChoice::Hub, DEVICE_SMALL)], vec![hub_small_idx]);
        // The derived game carries Rosenthal's exact potential: on every
        // unilateral deviation ΔΦ equals the deviator's Δcost, and
        // best-response dynamics converge deterministically.
        let game = wave.game();
        let mut profile = vec![0usize; wave.members.len()];
        loop {
            for q in 0..game.players() {
                for s in 0..game.strategy_count(q) {
                    let mut probe = profile.clone();
                    probe[q] = s;
                    let d_cost = game.player_cost(q, &probe) - game.player_cost(q, &profile);
                    let d_phi = game.potential(&probe) - game.potential(&profile);
                    assert!((d_cost - d_phi).abs() < 1e-9, "ΔΦ ≠ Δcost at {profile:?}");
                }
            }
            let mut q = 0;
            loop {
                if q == game.players() {
                    let a = game.best_response_dynamics(vec![0; game.players()], 64);
                    let b = game.best_response_dynamics(vec![0; game.players()], 64);
                    assert!(a.converged, "potential descent terminates");
                    assert!(game.is_equilibrium(&a.profile));
                    assert_eq!(a.profile, b.profile, "deterministic");
                    return;
                }
                profile[q] += 1;
                if profile[q] < game.strategy_count(q) {
                    break;
                }
                profile[q] = 0;
                q += 1;
            }
        }
    }

    #[test]
    fn repair_of_an_incumbent_equilibrium_is_a_no_op() {
        let tb = calibrated_testbed();
        for app in apps::case_studies() {
            let sched = DeepScheduler::paper();
            let incumbent = sched.schedule(&app, &tb);
            let out = sched.incremental_repair(&app, &tb, &incumbent, usize::MAX);
            assert!(!out.fell_back, "{}", app.name());
            assert_eq!(out.deviations, 0, "{}", app.name());
            assert_eq!(out.schedule, incumbent, "{}", app.name());
        }
    }

    #[test]
    fn repair_recovers_a_perturbed_incumbent_without_a_full_resolve() {
        // On the calibrated testbed contention is mild (alpha 0.1):
        // sharing the fast hub route at load 2 still beats any slower
        // exclusive route. Crank alpha until same-wave sharing genuinely
        // hurts.
        let mut tb = calibrated_testbed();
        tb.params.contention_alpha = 2.0;
        let app = apps::text_processing();
        let sched = DeepScheduler::paper();
        // Everything on one route: the contended waves want to split.
        let contended = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        let out = sched.incremental_repair(&app, &tb, &contended, usize::MAX);
        assert!(!out.fell_back);
        assert!(out.deviations > 0, "repair must move off the contended profile");
        assert!(sched.is_equilibrium(&app, &tb, &out.schedule), "the repair is an equilibrium");
        assert_eq!(out.schedule, sched.schedule(&app, &tb), "here it reaches the full solve");
        let exact = |s: &Schedule| -> f64 {
            let p: Vec<Placement> = app.ids().map(|id| s.placement(id)).collect();
            profile_costs(&sched.open(&tb, &app), &app, &p).iter().sum()
        };
        assert!(
            exact(&out.schedule) < exact(&contended) - 1e-9,
            "repaired {} vs contended {}",
            exact(&out.schedule),
            exact(&contended)
        );
    }

    #[test]
    fn repair_falls_back_when_the_incumbent_does_not_fit_the_mesh() {
        let tb = calibrated_testbed();
        let app = apps::video_processing();
        let sched = DeepScheduler::paper();
        // Wrong length: stale incumbent from a different application.
        let stale = Schedule::uniform(app.len() + 1, RegistryChoice::Hub, DEVICE_MEDIUM);
        let out = sched.incremental_repair(&app, &tb, &stale, usize::MAX);
        assert!(out.fell_back);
        assert_eq!(out.schedule, sched.schedule(&app, &tb), "fallback is the full solve");
    }

    #[test]
    fn repair_with_a_zero_budget_falls_back_on_a_contended_incumbent() {
        let mut tb = calibrated_testbed();
        tb.params.contention_alpha = 2.0;
        let app = apps::text_processing();
        let sched = DeepScheduler::paper();
        // Everything on one route: some member must move off it, and a
        // zero budget forbids every move.
        let uniform = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        let out = sched.incremental_repair(&app, &tb, &uniform, 0);
        assert!(out.fell_back, "a zero budget must reject the first move");
        assert_eq!(out.schedule, sched.schedule(&app, &tb));
    }

    #[test]
    fn fleet_workspace_reuses_buffers_across_solves() {
        // The hot fleet loop must not allocate in steady state: after a
        // warm solve has sized the workspace, a second solve through the
        // same workspace reuses every buffer in place (the `gf256`
        // fingerprint idiom — pointer and capacity both pinned). The
        // warm fleet's pruned scans fill the floor and order buffers too.
        let (fleet, fleet_app, fleet_sched) = admit_shaped_fleet(40);
        let cases = [
            (calibrated_testbed(), apps::text_processing(), DeepScheduler::paper(), false),
            (fleet, fleet_app, fleet_sched, true),
        ];
        let fingerprint = |ws: &FleetWorkspace| {
            [
                (ws.payoffs.as_ptr() as usize, ws.payoffs.capacity()),
                (ws.devices.as_ptr() as usize, ws.devices.capacity()),
                (ws.floors.as_ptr() as usize, ws.floors.capacity()),
                (ws.order.as_ptr() as usize, ws.order.capacity()),
            ]
        };
        for (tb, app, sched, pruned) in &cases {
            let opened = sched.open(tb, app);
            let mut ws = FleetWorkspace::default();
            let warm = DeepScheduler::sequential_assignment(&opened, app, &mut ws);
            assert!(!pruned || ws.order.capacity() > 0, "the fleet scan ordered no candidate");
            let fp = fingerprint(&ws);
            let again = DeepScheduler::sequential_assignment(&opened, app, &mut ws);
            assert_eq!(warm, again, "workspace reuse must not change the schedule");
            assert_eq!(fp, fingerprint(&ws), "steady-state solve reallocated a workspace buffer");
        }
    }

    #[test]
    fn sampled_equilibrium_check_agrees_with_exhaustive() {
        let mut tb = calibrated_testbed();
        tb.params.contention_alpha = 2.0;
        let app = apps::text_processing();
        let sched = DeepScheduler::paper();
        let equilibrium = sched.schedule(&app, &tb);
        assert!(sched.is_equilibrium(&app, &tb, &equilibrium));
        assert!(sched.is_equilibrium_sampled(&app, &tb, &equilibrium, 16, 7));
        // Everything piled on one contended route: improving deviations
        // exist for several members, so a 64-draw sample over the small
        // candidate grid cannot miss all of them.
        let contended = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        assert!(!sched.is_equilibrium(&app, &tb, &contended));
        assert!(!sched.is_equilibrium_sampled(&app, &tb, &contended, 64, 7));
    }

    #[test]
    fn generated_apps_schedule_without_panicking() {
        let mut tb = calibrated_testbed();
        let gen = deep_dataflow::DagGenerator::default();
        for seed in 0..5 {
            let app = gen.generate(seed);
            tb.publish_application(&app);
            let schedule = DeepScheduler::paper().schedule(&app, &tb);
            assert_eq!(schedule.len(), app.len(), "seed {seed}");
        }
    }

    /// Every member's estimated energy under a full profile, in one
    /// barrier walk of a clone of `opened`.
    fn profile_costs(
        opened: &EstimationContext<'_>,
        app: &Application,
        profile: &[Placement],
    ) -> Vec<f64> {
        let mut ctx = opened.clone();
        let mut costs = vec![0.0; app.len()];
        for (w, stage) in stages(app).iter().enumerate() {
            if w > 0 {
                ctx.begin_wave();
            }
            for &id in &stage.members {
                let p = profile[id.0];
                costs[id.0] = ctx.estimate(id, p.registry, p.device).ec.as_f64();
                ctx.commit(id, p);
            }
        }
        costs
    }

    /// Walk the stage games like `sequential_assignment` and return the
    /// profile with each pick's cost.
    fn stage_walk(
        opened: &EstimationContext<'_>,
        app: &Application,
        ws: &mut FleetWorkspace,
    ) -> (Vec<Placement>, Vec<f64>) {
        let mut ctx = opened.clone();
        let mut profile =
            vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM }; app.len()];
        let mut costs = vec![0.0; app.len()];
        for (w, stage) in stages(app).iter().enumerate() {
            if w > 0 {
                ctx.begin_wave();
            }
            for &id in &stage.members {
                (profile[id.0], costs[id.0]) = DeepScheduler::stage_game(&ctx, id, ws);
                ctx.commit(id, profile[id.0]);
            }
        }
        (profile, costs)
    }

    #[test]
    fn stage_game_costs_are_the_profiles_exact_costs() {
        // Each stage game prices its member in the state the profile's
        // own walk reaches, which is what makes the sequential profile
        // an equilibrium of the joint game.
        let fleet = || {
            let mut tb = crate::continuum::synthetic_fleet_testbed(200, 2, 42);
            apps::case_studies().iter().for_each(|app| tb.publish_application(app));
            tb
        };
        let testbeds = [
            ("calibrated", calibrated_testbed()),
            ("continuum", crate::continuum::continuum_testbed()),
            ("fleet-200", fleet()),
        ];
        let sched = DeepScheduler::paper();
        for (name, tb) in &testbeds {
            for app in apps::case_studies() {
                let opened = sched.open(tb, &app);
                let mut ws = FleetWorkspace::default();
                let (profile, costs) = stage_walk(&opened, &app, &mut ws);
                let at = format!("{name}/{}", app.name());
                let solved = DeepScheduler::sequential_assignment(&opened, &app, &mut ws);
                assert_eq!(profile, solved, "{at}");
                assert_eq!(
                    costs,
                    profile_costs(&opened, &app, &profile),
                    "{at}: stage-game costs are the profile's exact costs"
                );
            }
        }
    }

    /// Walk `sched`'s sequential stage games and, at every member, check
    /// the scan's pick against Nashpy-style support enumeration over the
    /// member's fully priced payoff bimatrix: among all equilibria keep
    /// the last one with the best expected shared payoff and round it to
    /// its modal pure strategies.
    fn assert_stage_games_match_support_enumeration(
        at: &str,
        app: &Application,
        tb: &Testbed,
        sched: &DeepScheduler,
    ) {
        use deep_game::{support_enumeration, Bimatrix, Matrix};
        let mut ctx = sched.open(tb, app);
        let registries = ctx.registry_choices();
        let mut ws = FleetWorkspace::default();
        for (w, stage) in stages(app).iter().enumerate() {
            if w > 0 {
                ctx.begin_wave();
            }
            for &id in &stage.members {
                let devices = ctx.admissible_devices(id);
                let payoff = Matrix::from_fn(registries.len(), devices.len(), |r, c| {
                    -ctx.estimate(id, registries[r], devices[c]).ec.as_f64()
                });
                let game = Bimatrix::common_interest(payoff);
                let (x, y) = support_enumeration(&game)
                    .into_iter()
                    .max_by(|a, b| {
                        let pa = game.expected_payoffs(&a.0, &a.1).0;
                        let pb = game.expected_payoffs(&b.0, &b.1).0;
                        pa.partial_cmp(&pb).expect("payoffs are not NaN")
                    })
                    .expect("common-interest games always have a pure equilibrium");
                let oracle =
                    Placement { registry: registries[x.mode()], device: devices[y.mode()] };
                let (pick, cost) = DeepScheduler::stage_game(&ctx, id, &mut ws);
                assert_eq!(pick, oracle, "{at}: {id:?}");
                assert_eq!(cost.to_bits(), (-game.a[(x.mode(), y.mode())]).to_bits(), "{at}");
                ctx.commit(id, pick);
            }
        }
    }

    #[test]
    fn stage_game_picks_match_the_support_enumeration_oracle() {
        let mirrored = || {
            let mut tb = calibrated_testbed();
            tb.add_regional_mirror(Bandwidth::megabytes_per_sec(9.0), Seconds::new(4.0));
            tb.add_regional_mirror(Bandwidth::megabytes_per_sec(11.0), Seconds::new(6.0));
            tb
        };
        let testbeds = [
            ("calibrated", calibrated_testbed()),
            ("continuum", crate::continuum::continuum_testbed()),
            ("calibrated+2 mirrors", mirrored()),
        ];
        let paper = DeepScheduler::paper();
        for (name, tb) in &testbeds {
            for app in apps::case_studies() {
                assert_stage_games_match_support_enumeration(
                    &format!("{name}/{}", app.name()),
                    &app,
                    tb,
                    &paper,
                );
            }
        }
        // 40 devices × 2 registries: a fleet-shaped grid.
        let mut fleet = crate::continuum::synthetic_fleet_testbed(40, 2, 11);
        let gen = deep_dataflow::DagGenerator::default();
        for seed in 0..3u64 {
            let app = gen.generate(seed);
            fleet.publish_application(&app);
            assert_stage_games_match_support_enumeration(
                &format!("fleet-40/{seed}"),
                &app,
                &fleet,
                &paper,
            );
        }
        // Closed-form fault pricing on the mirrored pair with a flaky
        // regional.
        let mut faulty = mirrored();
        faulty.fault_model = faulty.fault_model.clone().with_source(
            RegistryChoice::Regional.registry_id(),
            deep_registry::FaultRates { fatal_per_pull: 0.2, transient_per_fetch: 0.1 },
        );
        for app in apps::case_studies() {
            assert_stage_games_match_support_enumeration(
                &format!("fault-aware mirrored/{}", app.name()),
                &app,
                &faulty,
                &DeepScheduler::fault_aware(),
            );
        }
        // The fleet-admit shape: scenario-priced draws, a flaky regional,
        // a warm holder and peer sharing over gossip views.
        let (fleet, app, sched) = admit_shaped_fleet(40);
        assert_stage_games_match_support_enumeration("fleet-admit-40", &app, &fleet, &sched);
    }

    /// A warm `devices`-device, 3-registry fleet in the fleet-admit shape,
    /// with the scheduler that admits into it: a flaky regional, one holder
    /// of every layer of the returned two-wave dataflow, peer sharing over
    /// gossip views and 16-draw scenario pricing.
    fn admit_shaped_fleet(devices: usize) -> (Testbed, Application, DeepScheduler) {
        use deep_registry::FaultRates;
        let mut tb = crate::continuum::synthetic_fleet_testbed(devices, 3, 5);
        tb.fault_model = tb.fault_model.clone().with_source(
            RegistryChoice::Regional.registry_id(),
            FaultRates { fatal_per_pull: 0.2, transient_per_fetch: 0.1 },
        );
        let gen = deep_dataflow::DagGenerator {
            stages: 2,
            width: (2, 2),
            ..deep_dataflow::DagGenerator::default()
        };
        let app = gen.generate(4);
        tb.publish_application(&app);
        let discovery = PeerDiscovery::Gossip { fanout: 3, view_size: 8, rounds_per_wave: 1 };
        let cfg = deep_simulator::ExecutorConfig {
            seed: 9,
            peer_sharing: true,
            peer_discovery: discovery,
            ..deep_simulator::ExecutorConfig::default()
        };
        let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        deep_simulator::execute(&mut tb, &app, &warm, &cfg).unwrap();
        let sched = DeepScheduler {
            peer_sharing: true,
            peer_discovery: discovery,
            discovery_seed: 9,
            ..DeepScheduler::scenario_priced(16, 9)
        };
        (tb, app, sched)
    }

    #[test]
    fn stage_scan_prices_a_fraction_of_a_warm_fleet_grid() {
        // One holder already runs the dataflow: its cached layers undercut
        // every cold device's floor, so most of the grid is pruned.
        let (tb, app, sched) = admit_shaped_fleet(200);
        let opened = sched.open(&tb, &app);
        let mut ws = FleetWorkspace::default();
        let (profile, costs) = stage_walk(&opened, &app, &mut ws);
        assert_eq!(
            costs,
            profile_costs(&opened, &app, &profile),
            "pruned stage games price their picks exactly"
        );
        assert_eq!(ws.grid_cells, app.len() * 3 * 200, "every member faced the whole grid");
        assert!(
            ws.exact_cells * 5 <= ws.grid_cells,
            "{} of {} cells priced exactly",
            ws.exact_cells,
            ws.grid_cells
        );
    }

    #[test]
    fn cloned_opened_context_walks_like_a_freshly_opened_one() {
        // Gossip discovery and scenario pricing carry the most walk
        // state: a gossip plane, per-device peer views, the estimator
        // clock, the pull numbering and the draw memo.
        let (tb, app, sched) = admit_shaped_fleet(40);
        let schedule = sched.schedule(&app, &tb);
        let stages = stages(&app);
        assert_eq!(stages.len(), 2, "a two-wave walk");
        let registries = tb.registry_choices();
        // Walk the original, its clone and a freshly opened context in
        // lockstep: a clone sharing state with its original would see
        // every commit twice. A fourth context turns peer sharing on
        // before choosing the discovery, so its first snapshot is the
        // omniscient one `open` no longer builds; it must walk the same.
        let mut original = sched.open(&tb, &app);
        let mut cloned = original.clone();
        let mut fresh = sched.open(&tb, &app);
        let mut sharing_first = EstimationContext::new(&tb, &app)
            .peer_sharing(sched.peer_sharing)
            .peer_discovery(sched.peer_discovery, sched.discovery_seed)
            .scenario_pricing(sched.scenario);
        sharing_first.begin_wave();
        for id in app.ids() {
            sharing_first.prefetch_manifests(id);
        }
        let mut peer_planned = false;
        let bits = |e: Estimate| {
            (e.td.as_f64().to_bits(), e.tc.as_f64().to_bits(), e.tp.as_f64().to_bits())
        };
        for (w, stage) in stages.iter().enumerate() {
            for ctx in [&mut original, &mut cloned, &mut fresh, &mut sharing_first] {
                if w > 0 {
                    ctx.begin_wave();
                }
            }
            for &id in &stage.members {
                for &registry in &registries {
                    for device in fresh.admissible_devices(id) {
                        let want = fresh.estimate(id, registry, device);
                        peer_planned |= fresh
                            .plan(id, registry, device)
                            .per_source
                            .iter()
                            .any(|b| b.source >= deep_simulator::REGISTRY_PEER_BASE);
                        for ctx in [&original, &cloned, &sharing_first] {
                            let got = ctx.estimate(id, registry, device);
                            assert_eq!(bits(got), bits(want), "{id:?} on {registry}/{device:?}");
                            assert_eq!(got.ec.as_f64().to_bits(), want.ec.as_f64().to_bits());
                            assert_eq!(got.downloaded, want.downloaded);
                        }
                    }
                }
                for ctx in [&mut original, &mut cloned, &mut fresh, &mut sharing_first] {
                    ctx.commit(id, schedule.placement(id));
                }
            }
        }
        assert!(peer_planned, "the gossip views never priced a peer holder");
    }
}
