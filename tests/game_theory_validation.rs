//! Cross-validation of the game-theory toolkit: support enumeration
//! against independent checks on random games, and the deployment
//! waves' congestion games against the generic oracle form — the
//! confidence basis for trusting DEEP's scheduler.

use deep::game::{support_enumeration, Bimatrix, Matrix, MixedStrategy};
use proptest::prelude::*;
// Explicit trait imports: proptest's prelude globs its own (rand 0.9)
// `Rng`, which would otherwise shadow the workspace rand 0.8 traits.
use rand::Rng as _;
use rand::SeedableRng as _;
use rand_chacha::ChaCha8Rng;

fn random_game(rows: usize, cols: usize, seed: u64) -> Bimatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = Matrix::from_fn(rows, cols, |_, _| (rng.gen_range(0..200) as f64) / 10.0);
    let b = Matrix::from_fn(rows, cols, |_, _| (rng.gen_range(0..200) as f64) / 10.0);
    Bimatrix::new(a, b)
}

#[test]
fn support_enumeration_finds_odd_number_of_equilibria() {
    // Wilson's oddness theorem: almost every game has an odd number of
    // equilibria. Random continuous draws are almost surely
    // nondegenerate.
    let mut odd = 0;
    let mut total = 0;
    for seed in 100..140u64 {
        let game = random_game(2, 2, seed * 7 + 1);
        let n = support_enumeration(&game).len();
        if n > 0 {
            total += 1;
            if n % 2 == 1 {
                odd += 1;
            }
        }
    }
    assert!(odd * 10 >= total * 9, "oddness violated too often: {odd}/{total}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The scheduler-shaped 2×2 common-interest game always has a pure
    /// equilibrium at the payoff maximum — the property DEEP's stage game
    /// relies on.
    #[test]
    fn team_games_have_argmax_equilibrium(
        p in proptest::collection::vec(-1000.0f64..1000.0, 4)
    ) {
        let a = Matrix::from_fn(2, 2, |i, j| p[i * 2 + j]);
        let game = Bimatrix::common_interest(a.clone());
        // The global argmax cell is a pure Nash equilibrium.
        let mut best = (0, 0);
        for i in 0..2 {
            for j in 0..2 {
                if a[(i, j)] > a[best] {
                    best = (i, j);
                }
            }
        }
        let pure = |i| MixedStrategy::pure(i, 2);
        prop_assert!(game.is_nash(&pure(best.0), &pure(best.1)));
        // And support enumeration reports at least one equilibrium whose
        // value equals the argmax payoff.
        let eqs = support_enumeration(&game);
        let attained = eqs.iter().any(|(x, y)| {
            (a.quad(x.probs(), y.probs()) - a[best]).abs() < 1e-6
        });
        prop_assert!(attained);
    }
}

/// The deployment wave as an explicit Rosenthal congestion game: players
/// are same-wave pulls, resources are the calibrated source→device routes
/// of the testbed, and a *split* pull loads every route its bytes ride —
/// a player-specific resource subset, not one route per player. The
/// explicit form must agree with the generic oracle machinery and settle
/// into the routes-split (prisoner's-dilemma) equilibrium.
#[test]
fn wave_route_contention_is_a_rosenthal_congestion_game() {
    use deep::game::{CongestionGame, FiniteGame};
    use deep::simulator::{RegistryChoice, TestbedParams, DEVICE_MEDIUM};

    // A saturated wave: the calibrated alpha (0.1) is mild enough that
    // piling onto the fastest route stays optimal; the 8x coefficient
    // models the congestion regime the contention-5x ablation probes.
    let params = TestbedParams { contention_alpha: 0.8, ..TestbedParams::default() };
    // Resources: hub→medium, regional→medium, peer→medium at calibrated
    // bandwidths; cost of a route = transfer of a 580 MB app layer slowed
    // by the route's load (the executor's linear contention model).
    let bw = [
        params.route_bandwidth(RegistryChoice::Hub, DEVICE_MEDIUM).as_bytes_per_sec(),
        params.route_bandwidth(RegistryChoice::Regional, DEVICE_MEDIUM).as_bytes_per_sec(),
        params.peer_bw.as_bytes_per_sec(),
    ];
    let cost = move |r: usize, load: usize| (580e6 / bw[r]) * params.contention_factor(load - 1);
    // Player 0 is a split pull (stack from the peer + app layer from a
    // registry); players 1–2 are whole-image single-route pulls.
    let uses = vec![vec![vec![0, 2], vec![1, 2]], vec![vec![0], vec![1]], vec![vec![0], vec![1]]];
    let game = CongestionGame::new(3, uses.clone(), cost);
    let r = game.best_response_dynamics(vec![0, 0, 0], 100);
    assert!(r.converged, "potential game must converge");
    assert!(game.is_equilibrium(&r.profile));
    // The oracle form agrees profile-by-profile and on the equilibrium.
    let oracle = FiniteGame::new(vec![2, 2, 2], |p, profile| game.player_cost(p, profile));
    assert!(oracle.is_equilibrium(&r.profile));
    // Determinism and the potential as a Lyapunov function along the
    // dynamics: replays land on the same equilibrium.
    let again = game.best_response_dynamics(vec![0, 0, 0], 100);
    assert_eq!(again.profile, r.profile);
    // The PD structure under saturation: the split pull concedes the hub
    // route (13 MB/s) to the whole-image pulls and takes its app layer
    // regionally — players spread instead of all piling onto the fastest
    // route (which IS the equilibrium at the mild calibrated alpha).
    assert_eq!(r.profile, vec![1, 0, 0], "split pull's registry leg concedes the hub");
    let mild = CongestionGame::new(3, uses, move |r: usize, load: usize| {
        (580e6 / bw[r]) * (1.0 + 0.1 * (load - 1) as f64)
    });
    let mild_eq = mild.best_response_dynamics(vec![0, 0, 0], 100);
    assert!(mild_eq.converged);
    assert_eq!(mild_eq.profile, vec![0, 0, 0], "mild contention: everyone rides the hub");
}

/// Expected-cost payoffs stay inside the Rosenthal form. A lossy route's
/// cost is replaced by its *expectation* under the fault model —
/// `(1−p)·happy(load) + p·(detection + failover re-fetch)` — which is
/// still a pure per-resource load function, so the exact potential, the
/// convergence theorem and the best-response machinery apply unchanged
/// to E[Td] payoffs. This is the game-theoretic backbone of
/// `DeepScheduler::fault_aware`: risk-weighting moves the equilibrium
/// off the lossy route without leaving the class of congestion games.
#[test]
fn expected_cost_payoffs_stay_a_rosenthal_congestion_game() {
    use deep::game::CongestionGame;

    // Two whole-image pulls choosing between the hub route (44.6 s for
    // the 580 MB layer at 13 MB/s) and a slightly faster regional leg
    // (40 s), under saturated contention (alpha = 0.3). The regional is
    // lossy: with probability `p` the pull loses it mid-flight and pays
    // death detection (exhausted retry budget) plus the hub re-fetch —
    // priced at the hub's uncontended rate, the same per-resource
    // approximation the closed-form estimator makes for its failover
    // branch.
    let t_hub = 44.6;
    let t_reg = 40.0;
    let failover_penalty = 70.0 + 25.0 + t_hub; // detection + overhead + re-fetch
    let alpha = 0.3;
    let uses = vec![vec![vec![0], vec![1]]; 2];
    let game_at = move |p: f64| {
        CongestionGame::new(2, uses.clone(), move |r: usize, load: usize| {
            let f = 1.0 + alpha * (load - 1) as f64;
            match r {
                0 => t_hub * f,
                _ => (1.0 - p) * t_reg * f + p * failover_penalty,
            }
        })
    };

    // Happy path (p = 0): contention splits the players, one per route.
    let happy = game_at(0.0);
    let eq = happy.best_response_dynamics(vec![1, 1], 100);
    assert!(eq.converged);
    assert!(happy.is_equilibrium(&eq.profile));
    assert_ne!(eq.profile[0], eq.profile[1], "happy path: routes split");

    // Lossy regional (p = 0.25): the expected cost of the regional leg
    // exceeds even a *shared* hub route, so the equilibrium piles both
    // players onto the hub — risk-weighted bytes reroute.
    let lossy = game_at(0.25);
    let shifted = lossy.best_response_dynamics(vec![1, 1], 100);
    assert!(shifted.converged, "expected costs keep the potential argument");
    assert!(lossy.is_equilibrium(&shifted.profile));
    assert_eq!(shifted.profile, vec![0, 0], "both pulls abandon the lossy regional");

    // The exact-potential identity ΔΦ == Δcost holds on every
    // unilateral deviation of the expected-cost game — Rosenthal's
    // theorem never needed the costs to be deterministic, only
    // per-resource and load-dependent.
    for profile in [[0, 0], [0, 1], [1, 0], [1, 1]] {
        for player in 0..2 {
            for s in 0..2 {
                let mut probe = profile;
                probe[player] = s;
                let d_cost =
                    lossy.player_cost(player, &probe) - lossy.player_cost(player, &profile);
                let d_phi = lossy.potential(&probe) - lossy.potential(&profile);
                assert!(
                    (d_cost - d_phi).abs() < 1e-9,
                    "deviation p{player}→s{s} from {profile:?}: Δcost {d_cost} vs ΔΦ {d_phi}"
                );
            }
        }
    }
}
