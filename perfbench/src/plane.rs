//! `run_plane` re-issued public call by public call, each in a span, for
//! the traced run: sampling the arrivals, building each replication's
//! testbed and online executor, every admission's solve or repair, every
//! wave, chaos barrier and outage inference. The re-issued outcome must
//! equal the library's, which the traced round checks through its digest.

use crate::measure::{set_request, span, Digest};
use deep::arrival::{
    sample_arrivals, Arrival, ArrivalOutcome, ArrivalPlane, InferenceState, JobRecord,
    RepairPolicy, RepairStats,
};
use deep::core::{scenario_scheduler, scenario_testbed, DeepScheduler, Scheduler};
use deep::dataflow::Application;
use deep::netsim::Seconds;
use deep::registry::FaultModel;
use deep::scenario::Scenario;
use deep::simulator::{plan_waves, OnlineExecutor, Schedule, Testbed};
use std::time::Instant;

/// Fold a plane outcome into `digest`: every job's schedule, report and
/// timeline, leaving out the wall-clock solve times.
pub fn digest_jobs(digest: &mut Digest, outcome: &ArrivalOutcome) {
    for job in &outcome.jobs {
        digest.add(&job.schedule);
        digest.add(&job.report);
        digest.add(&format!(
            "{} {} {} {} {:?} {:?} {:?} {:?} {} {} {} {}",
            job.replication,
            job.stream,
            job.arrival_index,
            job.warmup,
            job.arrived,
            job.admitted,
            job.started,
            job.completed,
            job.queue_depth,
            job.repair.full_solve,
            job.repair.fell_back,
            job.repair.deviations
        ));
    }
}

/// A request admitted (schedule in hand) but not yet executed.
struct Pending {
    arrival: Arrival,
    schedule: Schedule,
    admitted: Seconds,
    queue_depth: usize,
    repair: RepairStats,
}

/// Per-replication admission state.
struct Replication {
    incumbent: Option<(Schedule, Seconds)>,
    queue: Vec<Pending>,
    next: usize,
}

pub fn traced_plane(scenario: &Scenario, plane: &ArrivalPlane) -> ArrivalOutcome {
    span("arrival.run_plane", || {
        let mut arrivals = span("arrival.sample_arrivals", || sample_arrivals(scenario));
        if arrivals.is_empty() {
            arrivals.push(Arrival { time: Seconds::ZERO, warmup: false, stream: 0, index: 0 });
        }
        let jobs = (0..scenario.replications)
            .flat_map(|r| traced_replication(scenario, plane, &arrivals, r))
            .collect();
        ArrivalOutcome {
            scenario: scenario.name.clone(),
            policy: plane.policy.name().to_string(),
            jobs,
        }
    })
}

/// Whether a scripted window starts or ends in `(from, to]`.
fn boundary_crossed(model: &FaultModel, from: Seconds, to: Seconds) -> bool {
    let (from, to) = (from.as_f64(), to.as_f64());
    model.windows().iter().any(|w| {
        let (start, end) = (w.start.as_f64(), w.end().as_f64());
        (start > from && start <= to) || (end > from && end <= to)
    })
}

impl Replication {
    fn admit(
        &mut self,
        scenario: &Scenario,
        plane: &ArrivalPlane,
        app: &Application,
        tb: &Testbed,
        exec: &OnlineExecutor,
        arrivals: &[Arrival],
    ) {
        while self.next < arrivals.len()
            && arrivals[self.next].time.as_f64() <= exec.clock().as_f64()
        {
            if let Some((_, solved_at)) = self.incumbent {
                if boundary_crossed(&tb.fault_model, solved_at, exec.clock()) {
                    self.incumbent = None;
                }
            }
            let incumbent = self.incumbent.as_ref().map(|(s, _)| s);
            let (schedule, repair) = solve(scenario, plane, app, tb, exec, incumbent);
            self.incumbent = Some((schedule.clone(), exec.clock()));
            let arrival = arrivals[self.next].clone();
            self.next += 1;
            let queue_depth = self.queue.len() + 1;
            self.queue.push(Pending {
                arrival,
                schedule,
                admitted: exec.clock(),
                queue_depth,
                repair,
            });
        }
    }
}

fn traced_replication(
    scenario: &Scenario,
    plane: &ArrivalPlane,
    arrivals: &[Arrival],
    replication: u32,
) -> Vec<JobRecord> {
    let mut tb = span("simulator.testbed_build", || scenario_testbed(scenario));
    let app = scenario.application();
    let cfg = scenario.executor_config(replication);
    let events = scenario.chaos_events();
    let mut exec = span("simulator.online_executor", || OnlineExecutor::new(&tb, &cfg, &events));
    if plane.blind {
        tb.fault_model = tb.fault_model.without_windows();
    }
    let visible_base = tb.fault_model.clone();
    let waves = plan_waves(&app, cfg.staged_deployment);
    let mut inference = InferenceState::default();
    let mut state = Replication { incumbent: None, queue: Vec::new(), next: 0 };
    let mut records = Vec::new();
    while state.next < arrivals.len() || !state.queue.is_empty() {
        if state.queue.is_empty() {
            exec.advance_to(arrivals[state.next].time);
            span("simulator.fire_due_events", || exec.fire_due_events(&mut tb))
                .expect("scripted chaos applies");
            state.admit(scenario, plane, &app, &tb, &exec, arrivals);
            continue;
        }
        let mut pending = state.queue.remove(0);
        set_request(u64::from(replication) << 32 | pending.arrival.index as u64);
        if boundary_crossed(&tb.fault_model, pending.admitted, exec.clock()) {
            let (schedule, repair) = solve(scenario, plane, &app, &tb, &exec, None);
            state.incumbent = Some((schedule.clone(), exec.clock()));
            pending.schedule = schedule;
            pending.repair.micros += repair.micros;
            pending.repair.deviations += repair.deviations;
            pending.repair.fell_back |= repair.fell_back;
            pending.repair.full_solve |= repair.full_solve;
        }
        let started = exec.clock();
        let mut run = exec.begin_job(&app);
        for (w, wave) in waves.iter().enumerate() {
            state.admit(scenario, plane, &app, &tb, &exec, arrivals);
            span("simulator.run_wave", || {
                exec.run_wave(&mut tb, &app, &pending.schedule, wave, w, &mut run)
            })
            .expect("arrival plane executes");
        }
        let report = run.into_report(&app, &pending.schedule, exec.clock());
        if let Some(cfg) = &plane.inference {
            if span("arrival.inference", || inference.observe(cfg, &report, exec.clock())) {
                tb.fault_model = inference.apply(&visible_base);
                state.incumbent = None;
            }
        }
        state.admit(scenario, plane, &app, &tb, &exec, arrivals);
        records.push(JobRecord {
            replication,
            stream: pending.arrival.stream,
            arrival_index: pending.arrival.index,
            warmup: pending.arrival.warmup,
            arrived: pending.arrival.time.as_f64(),
            admitted: pending.admitted.as_f64(),
            started: started.as_f64(),
            completed: exec.clock().as_f64(),
            queue_depth: pending.queue_depth,
            repair: pending.repair,
            schedule: pending.schedule,
            report,
        });
    }
    records
}

/// A schedule at the executor's clock under the plane's policy, timed.
fn solve(
    scenario: &Scenario,
    plane: &ArrivalPlane,
    app: &Application,
    tb: &Testbed,
    exec: &OnlineExecutor,
    incumbent: Option<&Schedule>,
) -> (Schedule, RepairStats) {
    let scheduler = DeepScheduler {
        start_clock: exec.clock(),
        start_pull: exec.pulls(),
        ..scenario_scheduler(scenario)
    };
    let begin = Instant::now();
    let (schedule, mut stats) = match (plane.policy, incumbent) {
        (RepairPolicy::Incremental { budget }, Some(incumbent)) => {
            let outcome =
                span("core.repair", || scheduler.incremental_repair(app, tb, incumbent, budget));
            let stats = RepairStats {
                full_solve: outcome.fell_back,
                fell_back: outcome.fell_back,
                deviations: outcome.deviations,
                micros: 0,
            };
            (outcome.schedule, stats)
        }
        _ => (
            span("core.schedule", || scheduler.schedule(app, tb)),
            RepairStats { full_solve: true, ..RepairStats::default() },
        ),
    };
    stats.micros = begin.elapsed().as_micros() as u64;
    (schedule, stats)
}
