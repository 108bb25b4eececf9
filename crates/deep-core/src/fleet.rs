//! Fleet-scale scheduling: many applications over one testbed.
//!
//! The paper evaluates two applications; real edge sites schedule
//! streams of them. This module runs a seeded fleet of generated
//! dataflow applications through DEEP (scheduling parallelised with
//! rayon — schedulers are read-only over the testbed) and executes them
//! sequentially on a shared testbed whose layer caches warm up across
//! arrivals, measuring how dedup amortises deployment energy over the
//! fleet.

use crate::nash::DeepScheduler;
use crate::Scheduler;
use deep_dataflow::{Application, DagGenerator};
use deep_energy::Joules;
use deep_netsim::Seconds;
use deep_simulator::{execute, ExecutorConfig, Schedule};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of applications.
    pub apps: usize,
    /// Generator shaping each application.
    pub generator: DagGenerator,
    /// Base seed; app `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Executor settings per run.
    pub executor: ExecutorConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            apps: 8,
            generator: DagGenerator::default(),
            base_seed: 1000,
            executor: ExecutorConfig::default(),
        }
    }
}

/// Per-application fleet outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetEntry {
    pub application: String,
    pub microservices: usize,
    pub energy: Joules,
    pub makespan: Seconds,
    /// Bytes actually downloaded (after cross-application dedup).
    pub downloaded_mb: f64,
}

/// Whole-fleet outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    pub entries: Vec<FleetEntry>,
}

impl FleetReport {
    pub fn total_energy(&self) -> Joules {
        self.entries.iter().map(|e| e.energy).sum()
    }

    pub fn total_downloaded_mb(&self) -> f64 {
        self.entries.iter().map(|e| e.downloaded_mb).sum()
    }
}

/// Generate, schedule (in parallel) and execute (sequentially, sharing
/// caches) a fleet of applications.
pub fn run_fleet(config: &FleetConfig) -> FleetReport {
    // Generate the fleet.
    let apps: Vec<Application> =
        (0..config.apps).map(|i| config.generator.generate(config.base_seed + i as u64)).collect();

    // Publish all images once, so scheduling sees the full catalog.
    let mut testbed = crate::calibration::calibrated_testbed();
    for app in &apps {
        testbed.publish_application(app);
    }

    // Schedule in parallel: schedulers never mutate the testbed.
    let schedules: Vec<Schedule> = {
        let tb = &testbed;
        apps.par_iter().map(|app| DeepScheduler::without_refinement().schedule(app, tb)).collect()
    };

    // Execute sequentially on the shared testbed: caches warm across
    // arrivals exactly as a long-lived site would.
    let mut entries = Vec::with_capacity(apps.len());
    for (app, schedule) in apps.iter().zip(&schedules) {
        let (report, _) = execute(&mut testbed, app, schedule, &config.executor)
            .expect("generated apps are admissible");
        entries.push(FleetEntry {
            application: app.name().to_string(),
            microservices: app.len(),
            energy: report.total_energy(),
            makespan: report.makespan,
            downloaded_mb: report.microservices.iter().map(|m| m.downloaded_mb).sum(),
        });
    }
    FleetReport { entries }
}

/// Run the same fleet with caches wiped between applications — the
/// no-dedup counterfactual quantifying what cross-application layer
/// sharing buys.
pub fn run_fleet_cold(config: &FleetConfig) -> FleetReport {
    let apps: Vec<Application> =
        (0..config.apps).map(|i| config.generator.generate(config.base_seed + i as u64)).collect();
    let mut testbed = crate::calibration::calibrated_testbed();
    for app in &apps {
        testbed.publish_application(app);
    }
    let schedules: Vec<Schedule> = {
        let tb = &testbed;
        apps.par_iter().map(|app| DeepScheduler::without_refinement().schedule(app, tb)).collect()
    };
    let mut entries = Vec::with_capacity(apps.len());
    for (app, schedule) in apps.iter().zip(&schedules) {
        testbed.reset_caches();
        let (report, _) = execute(&mut testbed, app, schedule, &config.executor)
            .expect("generated apps are admissible");
        entries.push(FleetEntry {
            application: app.name().to_string(),
            microservices: app.len(),
            energy: report.total_energy(),
            makespan: report.makespan,
            downloaded_mb: report.microservices.iter().map(|m| m.downloaded_mb).sum(),
        });
    }
    FleetReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet() -> FleetConfig {
        FleetConfig { apps: 5, ..Default::default() }
    }

    #[test]
    fn fleet_runs_every_application() {
        let report = run_fleet(&small_fleet());
        assert_eq!(report.entries.len(), 5);
        for e in &report.entries {
            assert!(e.energy.as_f64() > 0.0, "{}", e.application);
            assert!(e.microservices >= 4);
        }
    }

    #[test]
    fn fleet_is_deterministic() {
        let a = run_fleet(&small_fleet());
        let b = run_fleet(&small_fleet());
        assert_eq!(a, b);
    }

    #[test]
    fn warm_fleet_downloads_no_more_than_cold() {
        // Generated apps share no layers by construction (unique layer
        // names per app/microservice), so warm == cold on *generated*
        // fleets; the case-study fleet below shows real savings. This
        // test pins the invariant that caching never *increases* traffic.
        let cfg = small_fleet();
        let warm = run_fleet(&cfg);
        let cold = run_fleet_cold(&cfg);
        assert!(warm.total_downloaded_mb() <= cold.total_downloaded_mb() + 1e-9);
    }

    #[test]
    fn repeated_case_study_fleet_amortises_deployment() {
        // A fleet of identical text-processing deployments: after the
        // first arrival, everything is cached.
        let mut testbed = crate::calibration::calibrated_testbed();
        let app = deep_dataflow::apps::text_processing();
        let schedule = DeepScheduler::paper().schedule(&app, &testbed);
        let cfg = ExecutorConfig::default();
        let mut downloads = Vec::new();
        for _ in 0..4 {
            let (report, _) = execute(&mut testbed, &app, &schedule, &cfg).unwrap();
            downloads.push(report.microservices.iter().map(|m| m.downloaded_mb).sum::<f64>());
        }
        assert!(downloads[0] > 3000.0);
        assert_eq!(downloads[1], 0.0);
        assert_eq!(downloads[3], 0.0);
    }

    #[test]
    fn parallel_scheduling_matches_sequential() {
        // rayon must not change results: compare against a serial map.
        let cfg = small_fleet();
        let apps: Vec<Application> =
            (0..cfg.apps).map(|i| cfg.generator.generate(cfg.base_seed + i as u64)).collect();
        let mut tb = crate::calibration::calibrated_testbed();
        for app in &apps {
            tb.publish_application(app);
        }
        let parallel: Vec<Schedule> = apps
            .par_iter()
            .map(|app| DeepScheduler::without_refinement().schedule(app, &tb))
            .collect();
        let serial: Vec<Schedule> =
            apps.iter().map(|app| DeepScheduler::without_refinement().schedule(app, &tb)).collect();
        assert_eq!(parallel, serial);
    }
}
