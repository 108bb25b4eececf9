//! Scenario soak harness: schedule once against a scripted testbed,
//! replay the chaos/outage timeline across the scenario's replication
//! seed stream, and report realized deployment statistics.
//!
//! This is where the `deep-scenario` DSL meets the game: a scenario
//! fixes the fleet, the workload, the fault model (rates + scripted
//! windows) and the chaos-event timeline; the harness runs any
//! [`Scheduler`] through it — typically comparing
//! [`DeepScheduler::fault_aware`] (per-pull rates only) against
//! [`scenario_scheduler`] (Monte-Carlo `E[Td]` over the replication
//! seeds, clock-gated on the windows) on realized mean `Td`.

use crate::calibration::calibrate;
use crate::continuum::calibrate_continuum;
use crate::nash::DeepScheduler;
use crate::Scheduler;
use deep_scenario::{Scenario, TestbedBase};
use deep_simulator::{execute_monitored, RunReport, Schedule, Testbed};
use serde::{Deserialize, Serialize};

/// Realized statistics of one scheduler over every replication of a
/// scenario: one schedule, `replications` seeded executor runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The scenario's name (grid-expanded names keep their axis
    /// suffixes, e.g. `soak/fault-rate=0.2`).
    pub scenario: String,
    /// The scheduler's [`Scheduler::name`].
    pub scheduler: String,
    /// The single schedule every replication replays.
    pub schedule: Schedule,
    /// One report per replication, in seed-stream order.
    pub reports: Vec<RunReport>,
}

impl ScenarioOutcome {
    /// Mean realized per-microservice deployment time across every
    /// replication — the soak headline metric.
    pub fn mean_td(&self) -> f64 {
        let (sum, n) = self
            .reports
            .iter()
            .flat_map(|r| r.microservices.iter())
            .fold((0.0, 0usize), |(s, n), m| (s + m.td.as_f64(), n + 1));
        sum / n.max(1) as f64
    }

    /// Mean realized total energy across every replication (J).
    pub fn mean_energy(&self) -> f64 {
        let sum: f64 = self.reports.iter().map(|r| r.total_energy().as_f64()).sum();
        sum / self.reports.len().max(1) as f64
    }

    /// Pulls that lost a source fatally (scripted or sampled) across
    /// every replication — how much failover the soak actually drove.
    pub fn failovers(&self) -> usize {
        self.reports
            .iter()
            .flat_map(|r| r.microservices.iter())
            .filter(|m| !m.failed_sources.is_empty())
            .count()
    }
}

/// The `p`-th percentile (0–100) of `samples` by linear interpolation
/// between closest ranks (the numpy default). Returns 0.0 on an empty
/// slice; `p` is clamped to [0, 100].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Build the scenario's testbed with deep-core's calibration applied:
/// the Table II calibration for the paper base, the full continuum
/// calibration (cloud tier included) for the continuum base. This is
/// the closure-injection point `deep-scenario` leaves open to stay
/// independent of this crate.
pub fn scenario_testbed(scenario: &Scenario) -> Testbed {
    scenario.build_testbed_with(|tb| match scenario.testbed.base {
        TestbedBase::Paper => {
            calibrate(tb);
        }
        TestbedBase::Continuum => calibrate_continuum(tb),
    })
}

/// The DEEP scheduler a scenario calls for: scenario-priced payoffs
/// drawn over the scenario's own `(seed, replications)` stream — so the
/// Monte-Carlo expectation enumerates exactly the fault plans
/// [`run_scenario`] will inject — with peer sharing matched to the
/// executor's.
pub fn scenario_scheduler(scenario: &Scenario) -> DeepScheduler {
    DeepScheduler {
        peer_sharing: scenario.peer_sharing,
        // Mirror the executor's discovery mode (the `[gossip]` section);
        // `discovery_seed` stays at the default 0, matching the
        // `ExecutorConfig::seed` that `Scenario::executor_config` leaves
        // untouched.
        peer_discovery: scenario.peer_discovery(),
        ..DeepScheduler::scenario_priced(scenario.replications, scenario.seed)
    }
}

/// Run `scheduler` through every replication of `scenario`: compute one
/// schedule against the scripted testbed, then execute it
/// `scenario.replications` times over the fault-seed stream with the
/// scenario's chaos-event timeline. Replications run one after the
/// other and reports come back in seed order, so the outcome is
/// deterministic.
///
/// Each replication executes against a *replica of the scheduling
/// testbed* rather than a from-scratch rebuild: `scheduler.schedule`
/// takes the testbed by shared reference, so it is still pristine when
/// the replications start, and the scenario build is deterministic —
/// a replica and a rebuild are the same bytes (the differential test
/// below keeps the rebuild as its oracle). [`Testbed::replica`] forks
/// registry storage rather than sharing handles, so chaos events
/// (tag deletes, GC sweeps, cache pressure) in one replication never
/// leak into another. At fleet scale the rebuild (TOML walk, catalog
/// publication, calibration) dominated every replication's
/// profile; the replica copies only devices and caches and shares
/// registry storage, catalog entries and device tables copy-on-write,
/// so a replication that writes no registry copies none.
///
/// The outcome keeps only the reports, so every replication executes
/// with the `()` monitor ([`execute_monitored`]): no trace is recorded
/// and no label is formatted. The reports are the bytes
/// [`deep_simulator::execute_with_events`] returns.
pub fn run_scenario(scenario: &Scenario, scheduler: &dyn Scheduler) -> ScenarioOutcome {
    let tb = scenario_testbed(scenario);
    let app = scenario.application();
    let schedule = scheduler.schedule(&app, &tb);
    let events = scenario.chaos_events();
    let reports: Vec<RunReport> = (0..scenario.replications)
        .map(|r| {
            let mut run_tb = tb.replica();
            let cfg = scenario.executor_config(r);
            let (report, ()) = execute_monitored(&mut run_tb, &app, &schedule, &cfg, &events, ())
                .expect("scenario executes");
            report
        })
        .collect();
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        scheduler: scheduler.name().to_string(),
        schedule,
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_simulator::{execute, ExecutorConfig, RegistryChoice};

    fn zero_event_scenario() -> Scenario {
        Scenario::parse(
            "name = \"plain\"\napp = \"text-processing\"\nreplications = 2\n\
             [testbed]\nbase = \"paper\"\ncalibrate = true\n",
        )
        .unwrap()
    }

    #[test]
    fn percentile_interpolates_between_closest_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 4.0);
        assert!((percentile(&samples, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&samples, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn zero_event_scenarios_reproduce_the_plain_path_byte_for_byte() {
        // A scenario with no rates, no windows and no chaos events must
        // yield the same schedule AND the same serialized RunReports as
        // the pre-scenario pipeline: calibrated testbed, paper
        // scheduler, default executor.
        let scenario = zero_event_scenario();
        let outcome = run_scenario(&scenario, &scenario_scheduler(&scenario));
        let mut tb = crate::calibration::calibrated_testbed();
        let app = scenario.application();
        let baseline_schedule = DeepScheduler::paper().schedule(&app, &tb);
        assert_eq!(
            serde_json::to_string(&outcome.schedule).unwrap(),
            serde_json::to_string(&baseline_schedule).unwrap()
        );
        let (baseline_report, _) =
            execute(&mut tb, &app, &baseline_schedule, &ExecutorConfig::default()).unwrap();
        for report in &outcome.reports {
            assert_eq!(
                serde_json::to_string(report).unwrap(),
                serde_json::to_string(&baseline_report).unwrap()
            );
        }
    }

    #[test]
    fn cloned_replication_testbeds_match_per_replication_rebuilds_byte_for_byte() {
        // The replication fan-out clones the scheduling testbed instead
        // of rebuilding it per replication; this oracle IS the rebuild
        // — same scenario, same scheduler, fresh `scenario_testbed` per
        // replication — and every serialized report must agree byte for
        // byte. A chaos-heavy scenario so the runs exercise eviction,
        // windows and fault sampling, not just the happy path (the hub
        // window is a degradation, not a blackout: with the regional
        // fatally flaky, pricing still needs one live failover source).
        let scenario = Scenario::parse(
            "name = \"chaotic\"\napp = \"text-processing\"\nreplications = 3\nseed = 7\n\
             peer_sharing = true\n\
             [testbed]\nbase = \"paper\"\ncalibrate = true\n\
             [[rates]]\ntarget = \"regional\"\nfatal_per_pull = 0.4\ntransient_per_fetch = 0.2\n\
             [[events]]\nkind = \"degrade\"\ntarget = \"hub\"\nstart = 0.0\nduration = 30.0\n\
             factor = 0.3\n\
             [[events]]\nkind = \"cache-pressure\"\ndevice = 0\nat = 1.0\nkeep_mb = 0.0\n",
        )
        .unwrap();
        let scheduler = scenario_scheduler(&scenario);
        let fast = run_scenario(&scenario, &scheduler);
        // The rebuild oracle (the pre-PR-10 implementation, verbatim).
        let tb = scenario_testbed(&scenario);
        let app = scenario.application();
        let schedule = scheduler.schedule(&app, &tb);
        let events = scenario.chaos_events();
        assert_eq!(
            serde_json::to_string(&fast.schedule).unwrap(),
            serde_json::to_string(&schedule).unwrap()
        );
        for r in 0..scenario.replications {
            let mut run_tb = scenario_testbed(&scenario);
            let cfg = scenario.executor_config(r);
            let (report, _) =
                deep_simulator::execute_with_events(&mut run_tb, &app, &schedule, &cfg, &events)
                    .unwrap();
            assert_eq!(
                serde_json::to_string(&fast.reports[r as usize]).unwrap(),
                serde_json::to_string(&report).unwrap(),
                "replication {r} diverged from the rebuild oracle"
            );
        }
    }

    #[test]
    fn scripted_outage_drives_failover_and_the_priced_scheduler_avoids_it() {
        // A sticky regional outage covering the whole run: the
        // scenario-priced scheduler must keep every pull off the
        // regional registry, while the realized runs confirm the
        // window actually bites a regional-bound baseline.
        let scenario = Scenario::parse(
            "name = \"sticky\"\napp = \"text-processing\"\nreplications = 2\n\
             [testbed]\nbase = \"paper\"\ncalibrate = true\n\
             [[events]]\nkind = \"outage\"\ntarget = \"regional\"\nstart = 0.0\nduration = 1e6\n",
        )
        .unwrap();
        let priced = run_scenario(&scenario, &scenario_scheduler(&scenario));
        for id in scenario.application().ids() {
            assert_eq!(
                priced.schedule.placement(id).registry,
                RegistryChoice::Hub,
                "dark regional priced out of the equilibrium"
            );
        }
        assert_eq!(priced.failovers(), 0, "routing around the window avoids all failover");
        // The blind baseline pays the window: regional pulls die and
        // fail over, so its realized mean Td is strictly worse.
        let blind = run_scenario(&scenario, &crate::baselines::ExclusiveRegistry::regional());
        assert!(blind.failovers() > 0, "regional-bound pulls hit the window");
        assert!(
            blind.mean_td() > priced.mean_td(),
            "blind {} vs priced {}",
            blind.mean_td(),
            priced.mean_td()
        );
    }
}
