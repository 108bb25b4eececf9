//! End-to-end reproduction of the paper's evaluation on both case-study
//! applications: schedule with DEEP, execute on the calibrated testbed,
//! and check every published observable's shape.

use deep::core::{calibration, distribution, DeepScheduler, ExclusiveRegistry, Scheduler};
use deep::dataflow::apps;
use deep::simulator::{
    execute, ExecutorConfig, RegistryChoice, TraceKind, DEVICE_MEDIUM, DEVICE_SMALL,
};

#[test]
fn full_pipeline_video() {
    let mut tb = calibration::calibrated_testbed();
    let app = apps::video_processing();
    let schedule = DeepScheduler::paper().schedule(&app, &tb);
    let (report, trace) = execute(&mut tb, &app, &schedule, &ExecutorConfig::default()).unwrap();

    // Table III shape.
    let rows = distribution::distribution_table(&app, &schedule);
    assert!((rows[0].hub_share - 5.0 / 6.0).abs() < 1e-9);
    assert!((rows[1].regional_share - 1.0 / 6.0).abs() < 1e-9);

    // Total energy is in the paper's kJ regime (Fig. 3b video bars sit
    // between 5 and 14 kJ).
    let total = report.total_energy().as_f64();
    assert!((5_000.0..14_000.0).contains(&total), "video total {total} J");

    // Training dominates (Fig. 3a).
    assert_eq!(report.max_energy_microservice().unwrap().name, "ha-train");

    // Monitoring captured the full lifecycle.
    assert_eq!(trace.of_kind(TraceKind::ProcessingFinished).count(), 6);
}

#[test]
fn full_pipeline_text() {
    let mut tb = calibration::calibrated_testbed();
    let app = apps::text_processing();
    let schedule = DeepScheduler::paper().schedule(&app, &tb);
    let (report, _) = execute(&mut tb, &app, &schedule, &ExecutorConfig::default()).unwrap();

    // Table III: 2 microservices on medium split across registries, 4 on
    // small from the regional registry.
    let on_medium = schedule.iter().filter(|(_, p)| p.device == DEVICE_MEDIUM).count();
    let on_small = schedule.iter().filter(|(_, p)| p.device == DEVICE_SMALL).count();
    assert_eq!((on_medium, on_small), (2, 4));
    let regional = schedule.iter().filter(|(_, p)| p.registry == RegistryChoice::Regional).count();
    assert_eq!(regional, 5, "83 % of text images pulled regionally");

    let total = report.total_energy().as_f64();
    assert!((3_000.0..9_000.0).contains(&total), "text total {total} J");
}

#[test]
fn deep_energy_ordering_holds_end_to_end() {
    // Fig. 3b: DEEP ≤ exclusively-regional and ≤ exclusively-hub, measured
    // by actual simulated execution (not just scheduler estimates).
    for app in apps::case_studies() {
        let scheduler_tb = calibration::calibrated_testbed();
        let mut totals = Vec::new();
        let schedules = [
            DeepScheduler::paper().schedule(&app, &scheduler_tb),
            ExclusiveRegistry::regional().schedule(&app, &scheduler_tb),
            ExclusiveRegistry::hub().schedule(&app, &scheduler_tb),
        ];
        for schedule in &schedules {
            let mut tb = calibration::calibrated_testbed();
            let (report, _) = execute(&mut tb, &app, schedule, &ExecutorConfig::default()).unwrap();
            totals.push(report.total_energy().as_f64());
        }
        assert!(totals[0] <= totals[1] + 1e-6, "{}: deep vs regional {totals:?}", app.name());
        assert!(totals[0] <= totals[2] + 1e-6, "{}: deep vs hub {totals:?}", app.name());
    }
}

#[test]
fn deep_schedule_is_nash_equilibrium_of_deployment_game() {
    let tb = calibration::calibrated_testbed();
    for app in apps::case_studies() {
        let schedule = DeepScheduler::paper().schedule(&app, &tb);
        assert!(DeepScheduler::paper().is_equilibrium(&app, &tb, &schedule), "{}", app.name());
    }
}

#[test]
fn processing_respects_dag_barriers() {
    // A consumer starts processing only once every producer feeding it
    // has finished: the stage barrier, read off the monitoring trace.
    for app in apps::case_studies() {
        let mut tb = calibration::calibrated_testbed();
        let schedule = DeepScheduler::paper().schedule(&app, &tb);
        let (_, trace) = execute(&mut tb, &app, &schedule, &ExecutorConfig::default()).unwrap();
        let at = |kind: TraceKind, id| {
            let name = &app.microservice(id).name;
            let mut events = trace.of_kind(kind).filter(|e| &e.label == name);
            let event = events.next().unwrap_or_else(|| panic!("no {kind:?} for {name}"));
            assert!(events.next().is_none(), "{name} has two {kind:?} events");
            event.at.as_f64()
        };
        assert!(!app.flows().is_empty());
        for flow in app.flows() {
            let finished = at(TraceKind::ProcessingFinished, flow.from);
            let started = at(TraceKind::ProcessingStarted, flow.to);
            assert!(
                started >= finished,
                "{}: {} started at {started} before {} finished at {finished}",
                app.name(),
                app.microservice(flow.to).name,
                app.microservice(flow.from).name,
            );
        }
    }
}

#[test]
fn makespan_dominated_by_deployment_and_training() {
    let mut tb = calibration::calibrated_testbed();
    let app = apps::video_processing();
    let schedule = DeepScheduler::paper().schedule(&app, &tb);
    let (report, _) = execute(&mut tb, &app, &schedule, &ExecutorConfig::default()).unwrap();
    // The 5.78 GB training image dominates the timeline; makespan must
    // exceed its deployment alone but stay within the CT sum.
    let ha = report.metrics("ha-train").unwrap();
    assert!(report.makespan >= ha.td);
    let ct_sum: f64 = report.microservices.iter().map(|m| m.ct().as_f64()).sum();
    assert!(report.makespan.as_f64() <= ct_sum, "concurrent waves shorten the run");
}

/// Each microservice's reported `energy` is the paper's Section III-D2
/// model over the report's own phases, written out here:
/// `EC = P_deploy·Td + P_transfer·Tc + P_proc(m)·Tp + P_static·CT`, with
/// the device's calibrated draws. The makespan is the stamp of the last
/// stage barrier, bit for bit.
#[test]
fn energy_is_the_analytic_model_over_the_reported_phases() {
    let mut transferred = false;
    for scheduler in [DeepScheduler::paper(), DeepScheduler::fault_aware()] {
        for jitter in [0.0, 0.05] {
            let mut tb = calibration::calibrated_testbed();
            let cfg = ExecutorConfig { seed: 7, jitter, ..Default::default() };
            for app in apps::case_studies() {
                let schedule = scheduler.schedule(&app, &tb);
                let (report, trace) = execute(&mut tb, &app, &schedule, &cfg).unwrap();
                for m in &report.microservices {
                    let device = tb.device(m.placement.device);
                    let power = &device.power;
                    let process = device.process_watts(app.name(), &m.name);
                    let (td, tc, tp) = (m.td.as_f64(), m.tc.as_f64(), m.tp.as_f64());
                    let want = power.deploy_watts.as_f64() * td
                        + power.transfer_watts.as_f64() * tc
                        + process.as_f64() * tp
                        + power.static_watts.as_f64() * (td + tc + tp);
                    let got = m.energy.as_f64();
                    assert!(
                        (got - want).abs() <= want.abs() * 1e-12,
                        "{} {} (jitter {jitter}): energy {got}, model {want}",
                        app.name(),
                        m.name
                    );
                    transferred |= tc > 0.0;
                }
                let barrier = trace.of_kind(TraceKind::StageBarrierReleased).last().unwrap();
                assert_eq!(
                    report.makespan.as_f64().to_bits(),
                    barrier.at.as_f64().to_bits(),
                    "{} (jitter {jitter}): makespan {} vs last barrier {}",
                    app.name(),
                    report.makespan,
                    barrier.at
                );
                tb.reset_caches();
            }
        }
    }
    // Some dataflow crosses devices, so the transfer draw is exercised.
    assert!(transferred);
}
