//! Monitoring is opt-in, and opting out changes nothing a report holds.
//! The executor reports its events to the monitor its caller passes: `()`
//! keeps nothing, a `Trace` keeps the log. These differentials pin that
//! every serialized `RunReport` is the same bytes either way: on both case
//! studies, on the first and last replication of every checked-in
//! scenario cell, through `run_scenario`, and stepwise through an
//! unmonitored `OnlineExecutor`.

use deep::core::{
    calibration, run_scenario, scenario_scheduler, scenario_testbed, DeepScheduler, Scheduler,
};
use deep::dataflow::apps;
use deep::netsim::{DataSize, Seconds};
use deep::scenario::Scenario;
use deep::simulator::{
    execute, execute_monitored, execute_with_events, plan_waves, validate_schedule, ChaosEvent,
    ExecutorConfig, OnlineExecutor, RunReport, DEVICE_MEDIUM,
};

const SCENARIOS: [&str; 7] = [
    "fault_sweep.toml",
    "registry_sweep.toml",
    "n_regional_sweep.toml",
    "soak_sticky_outage.toml",
    "soak_smoke.toml",
    "arrival_soak.toml",
    "gossip_frontier.toml",
];

fn load(file: &str) -> Scenario {
    let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    Scenario::load(&path).expect("checked-in scenario parses")
}

fn json(report: &RunReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

#[test]
fn both_case_studies_report_the_same_bytes_with_or_without_a_trace() {
    let tb = calibration::calibrated_testbed();
    let chaos = [
        ChaosEvent::cache_pressure(Seconds::new(50.0), DEVICE_MEDIUM, DataSize::ZERO),
        ChaosEvent::delete_tag(Seconds::new(60.0), "aau/vp-transcode", "amd64"),
        ChaosEvent::registry_gc(Seconds::new(70.0)),
    ];
    let plain = ExecutorConfig::default();
    let noisy = ExecutorConfig { seed: 3, jitter: 0.05, fault_injection: true, ..plain };
    for app in apps::case_studies() {
        let schedule = DeepScheduler::paper().schedule(&app, &tb);
        for cfg in [plain, noisy] {
            for events in [&[][..], &chaos[..]] {
                let (traced, trace) =
                    execute_with_events(&mut tb.replica(), &app, &schedule, &cfg, events).unwrap();
                let (untraced, ()) =
                    execute_monitored(&mut tb.replica(), &app, &schedule, &cfg, events, ())
                        .unwrap();
                assert_eq!(json(&traced), json(&untraced), "{}", app.name());
                assert!(trace.len() >= 6 * app.len(), "the traced run kept its log");
            }
        }
    }
}

#[test]
fn every_checked_in_scenario_cell_reports_the_same_bytes_with_or_without_a_trace() {
    for file in SCENARIOS {
        for cell in load(file).expand() {
            let tb = scenario_testbed(&cell);
            let app = cell.application();
            let schedule = DeepScheduler::fault_aware().schedule(&app, &tb);
            let events = cell.chaos_events();
            for r in [0, cell.replications - 1] {
                let cfg = cell.executor_config(r);
                let (traced, _) =
                    execute_with_events(&mut tb.replica(), &app, &schedule, &cfg, &events).unwrap();
                let (untraced, ()) =
                    execute_monitored(&mut tb.replica(), &app, &schedule, &cfg, &events, ())
                        .unwrap();
                assert_eq!(json(&traced), json(&untraced), "{} replication {r}", cell.name);
            }
        }
    }
}

#[test]
fn run_scenario_is_the_explicit_traced_loop() {
    let smoke = load("soak_smoke.toml");
    let fault_cell = load("fault_sweep.toml")
        .expand()
        .into_iter()
        .find(|s| s.name == "fault-sweep/mirror-count=1/fault-rate=0.2")
        .expect("the grid has the cell");
    let cases: [(Scenario, Box<dyn Scheduler>); 2] = [
        (smoke.clone(), Box::new(scenario_scheduler(&smoke))),
        (fault_cell, Box::new(DeepScheduler::fault_aware())),
    ];
    for (scenario, scheduler) in &cases {
        let outcome = run_scenario(scenario, scheduler.as_ref());
        let tb = scenario_testbed(scenario);
        let app = scenario.application();
        let schedule = scheduler.schedule(&app, &tb);
        let events = scenario.chaos_events();
        assert_eq!(outcome.reports.len(), scenario.replications as usize);
        for (r, report) in (0..scenario.replications).zip(&outcome.reports) {
            let cfg = scenario.executor_config(r);
            let (traced, _) =
                execute_with_events(&mut tb.replica(), &app, &schedule, &cfg, &events).unwrap();
            assert_eq!(json(report), json(&traced), "{} replication {r}", scenario.name);
        }
    }
}

#[test]
fn a_stepwise_unmonitored_session_is_execute() {
    let tb = calibration::calibrated_testbed();
    let cfg =
        ExecutorConfig { seed: 11, jitter: 0.03, fault_injection: true, ..Default::default() };
    for app in apps::case_studies() {
        let schedule = DeepScheduler::paper().schedule(&app, &tb);
        let (reference, _) = execute(&mut tb.replica(), &app, &schedule, &cfg).unwrap();
        let mut run_tb = tb.replica();
        validate_schedule(&run_tb, &app, &schedule).unwrap();
        let mut exec = OnlineExecutor::with_monitor(&run_tb, &cfg, &[], ());
        let mut run = exec.begin_job(&app);
        for (i, wave) in plan_waves(&app, cfg.staged_deployment).iter().enumerate() {
            exec.run_wave(&mut run_tb, &app, &schedule, wave, i, &mut run).unwrap();
        }
        assert_eq!(exec.clock(), reference.makespan);
        assert_eq!(exec.pulls(), app.len() as u64);
        let report = run.into_report(&app, &schedule, exec.clock());
        assert_eq!(json(&reference), json(&report), "{}", app.name());
    }
}
