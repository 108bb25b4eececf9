//! The one solve path, from the paper testbeds to seeded fleets.
//!
//! `DeepScheduler` solves every stage game by a payoff scan and every
//! wave warm start by sparse potential descent, whatever the testbed's
//! size (the scan's equivalence to support enumeration is checked member
//! by member in `nash.rs`'s oracle test). These tests pin the two
//! contracts that make it safe on every testbed:
//!
//! 1. **Executed as priced** — on the paper case studies over the
//!    calibrated testbed, the continuum and a mirrored mesh, the
//!    executed `RunReport` measures exactly the `(Td, Tc, Tp, EC)` the
//!    scheduler's estimator priced for the schedule it chose.
//! 2. **Fleet equilibria** — on seeded synthetic fleets the solver lands
//!    on a verified pure Nash equilibrium (exhaustive and sampled
//!    deviation checks).

use deep::core::{calibration, continuum, DeepScheduler, EstimationContext, Scheduler};
use deep::dataflow::{apps, stages, DagGenerator};
use deep::simulator::{execute, ExecutorConfig, Testbed};

fn assert_executed_as_priced(name: &str, build: &dyn Fn() -> Testbed) {
    let tb = build();
    for app in apps::case_studies() {
        let schedule = DeepScheduler::paper().schedule(&app, &tb);
        let mut predictions = Vec::new();
        {
            let mut ctx = EstimationContext::new(&tb, &app);
            for stage in stages(&app) {
                ctx.begin_wave();
                for &id in &stage.members {
                    let p = schedule.placement(id);
                    predictions.push(ctx.estimate(id, p.registry, p.device));
                    ctx.commit(id, p);
                }
            }
        }
        let mut run_tb = build();
        run_tb.publish_application(&app);
        let (report, _) = execute(&mut run_tb, &app, &schedule, &ExecutorConfig::default())
            .expect("execution succeeds");
        assert_eq!(predictions.len(), report.microservices.len());
        for (est, measured) in predictions.iter().zip(&report.microservices) {
            let at = format!("{name}/{}/{}", app.name(), measured.name);
            assert_eq!(est.td, measured.td, "{at}: td");
            assert_eq!(est.tc, measured.tc, "{at}: tc");
            assert_eq!(est.tp, measured.tp, "{at}: tp");
            assert_eq!(est.ec, measured.energy, "{at}: ec");
        }
    }
}

#[test]
fn case_study_schedules_execute_exactly_as_priced() {
    assert_executed_as_priced("calibrated", &calibration::calibrated_testbed);
    assert_executed_as_priced("continuum", &continuum::continuum_testbed);
}

#[test]
fn mirrored_mesh_schedules_execute_exactly_as_priced() {
    use deep::netsim::{Bandwidth, Seconds};
    assert_executed_as_priced("calibrated+2 mirrors", &|| {
        let mut tb = calibration::calibrated_testbed();
        tb.add_regional_mirror(Bandwidth::megabytes_per_sec(9.0), Seconds::new(4.0));
        tb.add_regional_mirror(Bandwidth::megabytes_per_sec(11.0), Seconds::new(6.0));
        tb
    });
}

#[test]
fn fleet_equilibria_verify_exhaustively_and_by_sampling() {
    let mut tb = continuum::synthetic_fleet_testbed(30, 3, 7);
    let sched = DeepScheduler::paper();
    let gen = DagGenerator::default();
    for seed in [1u64, 17] {
        let app = gen.generate(seed);
        tb.publish_application(&app);
        let schedule = sched.schedule(&app, &tb);
        assert!(sched.is_equilibrium(&app, &tb, &schedule), "seed {seed}");
        assert!(sched.is_equilibrium_sampled(&app, &tb, &schedule, 32, seed), "seed {seed}");
    }
}
