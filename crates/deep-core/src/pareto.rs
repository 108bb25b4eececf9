//! Multi-objective analysis: the energy/makespan Pareto front of the
//! deployment space.
//!
//! DEEP optimises energy alone; the related work it builds on (MAPO,
//! HEFTLess) is bi-objective. This module enumerates the *entire* joint
//! assignment space of a case study (4 strategies per microservice on the
//! paper testbed → 4^6 = 4 096 profiles), evaluates each with the
//! scheduler's estimation model, extracts the energy/makespan Pareto
//! front, and locates DEEP's equilibrium relative to it. Small enough to
//! brute-force exactly — which turns "is the game solution any good?"
//! into a checkable property instead of a hope.

use crate::model::EstimationContext;
use deep_dataflow::{stages, Application};
use deep_netsim::DeviceId;
use deep_simulator::{Placement, Schedule, Testbed};
use serde::{Deserialize, Serialize};

/// One evaluated profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedProfile {
    /// Per-microservice placements (index = microservice id).
    pub placements: Vec<Placement>,
    /// Estimated total energy `EC_total` (J).
    pub energy: f64,
    /// Estimated makespan: per stage, max deployment + sequential
    /// execution (s) — the executor's clock model.
    pub makespan: f64,
}

/// Evaluate one profile with the estimation model (energy + makespan) in
/// one barrier walk. Each wave adds its longest `Td` and its members'
/// serial `Tc + Tp` to the makespan.
pub fn evaluate_profile(
    app: &Application,
    testbed: &Testbed,
    placements: &[Placement],
) -> EvaluatedProfile {
    let waves = stages(app);
    let mut wave_of = vec![0; app.len()];
    for (w, stage) in waves.iter().enumerate() {
        stage.members.iter().for_each(|id| wave_of[id.0] = w);
    }
    // Per wave: (longest deployment, serial execution).
    let mut spans = vec![(0.0f64, 0.0); waves.len()];
    let mut energy = 0.0;
    EstimationContext::new(testbed, app).walk(|ctx, id| {
        let p = placements[id.0];
        let est = ctx.estimate(id, p.registry, p.device);
        energy += est.ec.as_f64();
        let (deploy, exec) = &mut spans[wave_of[id.0]];
        *deploy = deploy.max(est.td.as_f64());
        *exec += est.tc.as_f64() + est.tp.as_f64();
        Some(p)
    });
    let makespan = spans.iter().fold(0.0, |acc, (deploy, exec)| acc + (deploy + exec));
    EvaluatedProfile { placements: placements.to_vec(), energy, makespan }
}

/// All admissible strategies per microservice on this testbed: every full
/// mesh registry × every admitting device.
fn strategy_space(app: &Application, testbed: &Testbed) -> Vec<Vec<Placement>> {
    let registries = testbed.registry_choices();
    app.ids()
        .map(|id| {
            let req = &app.microservice(id).requirements;
            let mut out = Vec::new();
            for device in testbed.devices.iter().filter(|d| d.admits(req)) {
                for &registry in &registries {
                    out.push(Placement { registry, device: device.id });
                }
            }
            assert!(!out.is_empty(), "no admissible strategy for {id}");
            out
        })
        .collect()
}

/// Exhaustively evaluate the full joint space, one odometer per first
/// microservice strategy. Practical for the 6-microservice
/// case studies (4^6 = 4 096 profiles); panics above a safety cap.
pub fn enumerate_profiles(app: &Application, testbed: &Testbed) -> Vec<EvaluatedProfile> {
    let space = strategy_space(app, testbed);
    let total: usize = space.iter().map(Vec::len).product();
    assert!(total <= 1 << 20, "joint space too large to brute-force ({total})");
    let head = &space[0];
    head.iter()
        .flat_map(|&first| {
            // Odometer over the remaining microservices.
            let mut profiles = Vec::new();
            let rest = &space[1..];
            let mut idx = vec![0usize; rest.len()];
            loop {
                let mut placements = Vec::with_capacity(space.len());
                placements.push(first);
                for (k, &i) in idx.iter().enumerate() {
                    placements.push(rest[k][i]);
                }
                profiles.push(evaluate_profile(app, testbed, &placements));
                // Increment odometer.
                let mut k = 0;
                loop {
                    if k == idx.len() {
                        return profiles;
                    }
                    idx[k] += 1;
                    if idx[k] < rest[k].len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
            }
        })
        .collect()
}

/// The Pareto-efficient subset (minimising both energy and makespan),
/// sorted by energy.
pub fn pareto_front(mut profiles: Vec<EvaluatedProfile>) -> Vec<EvaluatedProfile> {
    profiles.sort_by(|a, b| {
        a.energy
            .partial_cmp(&b.energy)
            .expect("energies are not NaN")
            .then(a.makespan.partial_cmp(&b.makespan).expect("not NaN"))
    });
    let mut front: Vec<EvaluatedProfile> = Vec::new();
    let mut best_makespan = f64::INFINITY;
    for p in profiles {
        if p.makespan < best_makespan - 1e-9 {
            best_makespan = p.makespan;
            front.push(p);
        }
    }
    front
}

/// Where a schedule sits relative to the front: its objectives plus the
/// smallest energy excess over any front point that is at least as fast.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontDistance {
    pub energy: f64,
    pub makespan: f64,
    /// 0.0 iff the schedule is itself Pareto-efficient.
    pub energy_excess: f64,
}

/// Assess a schedule against the exhaustive front.
pub fn distance_to_front(
    app: &Application,
    testbed: &Testbed,
    schedule: &Schedule,
    front: &[EvaluatedProfile],
) -> FrontDistance {
    let placements: Vec<Placement> = app.ids().map(|id| schedule.placement(id)).collect();
    let me = evaluate_profile(app, testbed, &placements);
    // Dominating-or-equal front points: at least as fast.
    let excess = front
        .iter()
        .filter(|p| p.makespan <= me.makespan + 1e-9)
        .map(|p| me.energy - p.energy)
        .fold(f64::INFINITY, f64::min);
    FrontDistance { energy: me.energy, makespan: me.makespan, energy_excess: excess.max(0.0) }
}

/// Devices used along the front — which trade-offs the hardware offers.
pub fn front_devices(front: &[EvaluatedProfile]) -> Vec<Vec<DeviceId>> {
    front.iter().map(|p| p.placements.iter().map(|pl| pl.device).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::calibrated_testbed;
    use crate::nash::DeepScheduler;
    use crate::Scheduler;
    use deep_dataflow::apps;

    #[test]
    fn full_space_has_expected_cardinality() {
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let profiles = enumerate_profiles(&app, &tb);
        // 2 registries × 2 devices per microservice, 6 microservices.
        assert_eq!(profiles.len(), 4096);
    }

    #[test]
    fn front_is_mutually_nondominated() {
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let front = pareto_front(enumerate_profiles(&app, &tb));
        assert!(!front.is_empty());
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominates = b.energy <= a.energy + 1e-9
                    && b.makespan <= a.makespan + 1e-9
                    && (b.energy < a.energy - 1e-9 || b.makespan < a.makespan - 1e-9);
                assert!(!dominates, "front point {j} dominates {i}");
            }
        }
        // Sorted by energy, makespan strictly decreasing.
        for w in front.windows(2) {
            assert!(w[0].energy <= w[1].energy + 1e-9);
            assert!(w[0].makespan > w[1].makespan - 1e-9);
        }
    }

    #[test]
    fn deep_is_energy_optimal_over_the_entire_space() {
        // The strongest statement the brute force allows: no joint
        // assignment has lower estimated energy than DEEP's equilibrium
        // on either case study.
        let tb = calibrated_testbed();
        for app in apps::case_studies() {
            let profiles = enumerate_profiles(&app, &tb);
            let min_energy = profiles.iter().map(|p| p.energy).fold(f64::INFINITY, f64::min);
            let schedule = DeepScheduler::paper().schedule(&app, &tb);
            let front = pareto_front(profiles);
            let d = distance_to_front(&app, &tb, &schedule, &front);
            assert!(
                d.energy <= min_energy + 1e-6,
                "{}: DEEP {} vs optimum {}",
                app.name(),
                d.energy,
                min_energy
            );
            // Energy-optimal implies on-front at the energy end.
            assert!(d.energy_excess < 1e-6, "{}: excess {}", app.name(), d.energy_excess);
        }
    }

    #[test]
    fn front_offers_a_real_tradeoff() {
        // The front must contain more than one point: the testbed offers
        // a faster-but-hungrier option (everything on medium) vs DEEP's
        // energy-minimal split.
        let tb = calibrated_testbed();
        let app = apps::text_processing();
        let front = pareto_front(enumerate_profiles(&app, &tb));
        assert!(front.len() >= 2, "degenerate front: {}", front.len());
        let slowest = &front[0];
        let fastest = front.last().unwrap();
        assert!(fastest.makespan < slowest.makespan);
        assert!(fastest.energy > slowest.energy);
    }

    #[test]
    fn front_devices_reports_placements() {
        let tb = calibrated_testbed();
        let app = apps::video_processing();
        let front = pareto_front(enumerate_profiles(&app, &tb));
        let devices = front_devices(&front);
        assert_eq!(devices.len(), front.len());
        assert!(devices.iter().all(|d| d.len() == app.len()));
    }
}
