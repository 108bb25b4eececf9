//! DEEP against the baseline schedulers across generated workloads and
//! ablation variants.

use deep::core::{
    calibration, DeepScheduler, ExclusiveRegistry, GreedyDecoupled, RandomScheduler, RoundRobin,
    Scheduler,
};
use deep::dataflow::DagGenerator;
use deep::simulator::{execute, ExecutorConfig, Schedule, Testbed};

// Local helper trait to keep the test body terse.
trait RunTotal {
    fn total_energy_of(&mut self, app: &deep::dataflow::Application, s: &Schedule) -> f64;
}

impl RunTotal for Testbed {
    fn total_energy_of(&mut self, app: &deep::dataflow::Application, s: &Schedule) -> f64 {
        self.reset_caches();
        let (report, _) = execute(self, app, s, &ExecutorConfig::default()).unwrap();
        report.total_energy().as_f64()
    }
}

#[test]
fn deep_never_loses_to_exclusive_methods_on_generated_apps() {
    let generator = DagGenerator::default();
    for seed in 0..8u64 {
        let app = generator.generate(seed);
        let mut tb = calibration::calibrated_testbed();
        tb.publish_application(&app);
        let deep_s = DeepScheduler::paper().schedule(&app, &tb);
        let hub_s = ExclusiveRegistry::hub().schedule(&app, &tb);
        let reg_s = ExclusiveRegistry::regional().schedule(&app, &tb);
        let deep = tb.total_energy_of(&app, &deep_s);
        let hub = tb.total_energy_of(&app, &hub_s);
        let reg = tb.total_energy_of(&app, &reg_s);
        assert!(deep <= hub * 1.0 + 1e-6, "seed {seed}: deep {deep} vs hub {hub}");
        assert!(deep <= reg + 1e-6, "seed {seed}: deep {deep} vs regional {reg}");
    }
}

#[test]
fn deep_beats_random_and_round_robin_decisively_on_average() {
    let generator = DagGenerator::default();
    let mut deep_sum = 0.0;
    let mut naive_sum = 0.0;
    for seed in 0..6u64 {
        let app = generator.generate(100 + seed);
        let mut tb = calibration::calibrated_testbed();
        tb.publish_application(&app);
        let deep_s = DeepScheduler::paper().schedule(&app, &tb);
        deep_sum += tb.total_energy_of(&app, &deep_s);
        let rr = RoundRobin.schedule(&app, &tb);
        let rnd = RandomScheduler { seed }.schedule(&app, &tb);
        naive_sum += tb.total_energy_of(&app, &rr).min(tb.total_energy_of(&app, &rnd));
    }
    assert!(
        deep_sum < naive_sum,
        "deep total {deep_sum} must undercut best-naive total {naive_sum}"
    );
}

#[test]
fn greedy_decoupled_pays_for_ignoring_deployment() {
    // On the case studies, the decoupled heuristic must not beat DEEP;
    // on workloads with big sibling images it strictly loses.
    let app = deep::dataflow::apps::video_processing();
    let mut tb = calibration::calibrated_testbed();
    let deep_s = DeepScheduler::paper().schedule(&app, &tb);
    let greedy_s = GreedyDecoupled.schedule(&app, &tb);
    let deep = tb.total_energy_of(&app, &deep_s);
    let greedy = tb.total_energy_of(&app, &greedy_s);
    assert!(deep <= greedy + 1e-6, "deep {deep} vs greedy {greedy}");
}
