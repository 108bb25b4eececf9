//! The arrival plane: an event-driven online executor timeline that
//! admits deployment requests mid-flight and re-enters the mesh game
//! incrementally on each admission.
//!
//! One plane run drives the scenario's [`OnlineExecutor`] per
//! replication: arrivals advance the clock, each admission prices the
//! game *at the current clock* (windows that have passed no longer
//! scare the scheduler; windows ahead do) and repairs the incumbent
//! equilibrium under those exact payoffs via
//! [`DeepScheduler::incremental_repair`]. Queued jobs interleave at
//! wave barriers — the executor's wave clock is the only admission
//! point during execution; idle gaps become explicit barriers
//! ([`OnlineExecutor::fire_due_events`]) so gap chaos is priced, not
//! discovered one wave late.
//!
//! **When repair is allowed.** The repair prices the exact payoffs at
//! the admission clock, fault landscape included, so what it returns is
//! an equilibrium of the game as priced then, whatever moved. The plane
//! still retires the incumbent whenever the scheduler-visible landscape
//! changes between solves — a scripted outage window opens or clears,
//! or online inference adds/retracts a window — and the next admission
//! re-solves the full game. Correctness no longer needs that
//! retirement; it stays so that recorded soaks keep their schedules and
//! full-solve counts. Repair is the fast path for the common case:
//! sustained arrivals into an unchanged landscape.

use crate::inference::{InferenceState, OutageInference};
use crate::metrics::{ArrivalOutcome, JobRecord, RepairStats};
use crate::models::{sample_arrivals, Arrival};
use deep_core::{scenario_scheduler, scenario_testbed, DeepScheduler, Scheduler};
use deep_dataflow::Application;
use deep_netsim::Seconds;
use deep_registry::FaultModel;
use deep_scenario::Scenario;
use deep_simulator::{plan_waves, OnlineExecutor, Schedule, Testbed};

/// Members an [`ArrivalPlane`] lets each incremental repair move before
/// it falls back to a full re-solve.
pub const DEFAULT_DEVIATION_BUDGET: usize = 16;

/// How the plane re-equilibrates on each admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepairPolicy {
    /// Re-solve the full game from scratch on every admission — the
    /// periodic-re-solve baseline.
    Full,
    /// Repair the incumbent equilibrium
    /// ([`DeepScheduler::incremental_repair`]): members with an
    /// improving deviation move to their stage-game picks, and more than
    /// `budget` moved members fall back to a full re-solve. A moved
    /// fault landscape retires the incumbent first.
    Incremental { budget: usize },
}

impl RepairPolicy {
    /// Stable name for reports and PERF tables.
    pub fn name(&self) -> &'static str {
        match self {
            RepairPolicy::Full => "full-resolve",
            RepairPolicy::Incremental { .. } => "incremental-repair",
        }
    }
}

/// Configuration of one online run over a scenario's arrival timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalPlane {
    /// Re-equilibration policy per admission.
    pub policy: RepairPolicy,
    /// Strip scripted outage windows from the *scheduler's* view (the
    /// executor still injects them): the operator flying blind.
    /// Pair with `inference` to measure online window recovery.
    pub blind: bool,
    /// Streak-detect fatal pulls and feed inferred windows back into
    /// the next admission's pricing.
    pub inference: Option<OutageInference>,
}

impl Default for ArrivalPlane {
    fn default() -> Self {
        ArrivalPlane {
            policy: RepairPolicy::Incremental { budget: DEFAULT_DEVIATION_BUDGET },
            blind: false,
            inference: None,
        }
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

/// True when any scripted-window boundary (start or end) lies in
/// `(from, to]`: the priced landscape changed, so an equilibrium from
/// before the boundary may be stale.
fn boundary_crossed(model: &FaultModel, from: Seconds, to: Seconds) -> bool {
    model.windows().iter().any(|w| {
        let (start, end) = (w.start.as_f64(), w.end().as_f64());
        (start > from.as_f64() && start <= to.as_f64())
            || (end > from.as_f64() && end <= to.as_f64())
    })
}

/// Run the plane over every replication of `scenario`, one after the
/// other; jobs come back replication-major in arrival order, so the
/// outcome is deterministic (up to wall-clock repair timings).
pub fn run_plane(scenario: &Scenario, plane: &ArrivalPlane) -> ArrivalOutcome {
    let mut arrivals = sample_arrivals(scenario);
    if arrivals.is_empty() {
        // No [[arrivals]] section: the plane degenerates to the
        // one-shot soak — a single measured request at t = 0.
        arrivals.push(Arrival { time: Seconds::ZERO, warmup: false, stream: 0, index: 0 });
    }
    let jobs: Vec<Vec<JobRecord>> = (0..scenario.replications)
        .map(|r| run_replication(scenario, plane, &arrivals, r))
        .collect();
    ArrivalOutcome {
        scenario: scenario.name.clone(),
        policy: plane.policy.name().to_string(),
        jobs: jobs.into_iter().flatten().collect(),
    }
}

/// The per-replication state the admission path threads through.
struct Replication {
    incumbent: Option<(Schedule, Seconds)>,
    queue: Vec<Pending>,
    next: usize,
}

impl Replication {
    /// Admit every arrival due at the executor's clock: invalidate the
    /// incumbent if a window boundary passed since it was solved, then
    /// price a schedule per request and enqueue it.
    fn admit(
        &mut self,
        scenario: &Scenario,
        plane: &ArrivalPlane,
        app: &Application,
        tb: &Testbed,
        exec: &OnlineExecutor<()>,
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

fn run_replication(
    scenario: &Scenario,
    plane: &ArrivalPlane,
    arrivals: &[Arrival],
    replication: u32,
) -> Vec<JobRecord> {
    let mut tb = scenario_testbed(scenario);
    let app = scenario.application();
    let cfg = scenario.executor_config(replication);
    let events = scenario.chaos_events();
    // The executor samples its fault plan from the testbed up front;
    // stripping windows *afterwards* blinds only the scheduler's view,
    // never the injection. Job records keep reports, not traces: the
    // session monitors nothing.
    let mut exec = OnlineExecutor::with_monitor(&tb, &cfg, &events, ());
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
            // Idle: jump the clock to the next request and make the gap
            // an explicit barrier so pending chaos is priced.
            exec.advance_to(arrivals[state.next].time);
            exec.fire_due_events(&mut tb).expect("scripted chaos applies");
            state.admit(scenario, plane, &app, &tb, &exec, arrivals);
            continue;
        }
        let mut pending = state.queue.remove(0);
        // Queued schedules can go stale while earlier jobs execute: if
        // a window boundary passed between admission and now, re-solve
        // the full game before committing pulls to a re-priced mesh.
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
            // Wave barrier: requests that arrived while the previous
            // wave executed are admitted (and priced) here, mid-flight.
            state.admit(scenario, plane, &app, &tb, &exec, arrivals);
            exec.run_wave(&mut tb, &app, &pending.schedule, wave, w, &mut run)
                .expect("arrival plane executes");
        }
        let report = run.into_report(&app, &pending.schedule, exec.clock());
        if let Some(cfg) = &plane.inference {
            if inference.observe(cfg, &report, exec.clock()) {
                // The visible landscape moved: rebuild the scheduler's
                // fault view and retire the incumbent equilibrium.
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

/// Produce a schedule at the executor's current clock under the plane's
/// policy, timing the solve. `incumbent: None` forces a full re-solve.
fn solve(
    scenario: &Scenario,
    plane: &ArrivalPlane,
    app: &Application,
    tb: &Testbed,
    exec: &OnlineExecutor<()>,
    incumbent: Option<&Schedule>,
) -> (Schedule, RepairStats) {
    let scheduler = DeepScheduler {
        start_clock: exec.clock(),
        start_pull: exec.pulls(),
        ..scenario_scheduler(scenario)
    };
    let begin = std::time::Instant::now();
    let (schedule, mut stats) = match (plane.policy, incumbent) {
        (RepairPolicy::Incremental { budget }, Some(incumbent)) => {
            let outcome = scheduler.incremental_repair(app, tb, incumbent, budget);
            let stats = RepairStats {
                full_solve: outcome.fell_back,
                fell_back: outcome.fell_back,
                deviations: outcome.deviations,
                micros: 0,
            };
            (outcome.schedule, stats)
        }
        _ => (
            scheduler.schedule(app, tb),
            RepairStats { full_solve: true, ..RepairStats::default() },
        ),
    };
    stats.micros = begin.elapsed().as_micros() as u64;
    (schedule, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soak_scenario(arrivals: &str) -> Scenario {
        Scenario::parse(&format!(
            "name = \"plane\"\napp = \"text-processing\"\nreplications = 2\n\
             [testbed]\nbase = \"paper\"\ncalibrate = true\n{arrivals}"
        ))
        .unwrap()
    }

    #[test]
    fn the_plane_executes_every_arrival_in_order() {
        let scenario = soak_scenario(
            "[[arrivals]]\nmodel = \"deterministic\"\ninterval = 40.0\ncount = 4\nwarmup = 1\n",
        );
        let outcome = run_plane(&scenario, &ArrivalPlane::default());
        assert_eq!(outcome.jobs.len(), 8, "4 arrivals x 2 replications");
        assert_eq!(outcome.measured().count(), 6);
        for pair in outcome.jobs.chunks(4) {
            for w in pair.windows(2) {
                assert!(w[0].completed <= w[1].started + 1e-9, "jobs execute FIFO");
            }
        }
        for job in &outcome.jobs {
            assert!(job.admitted >= job.arrived - 1e-9, "admission never precedes arrival");
            assert!(job.started >= job.admitted - 1e-9);
            assert!(job.completed > job.started);
            assert!(job.queue_depth >= 1);
        }
        // Deterministic up to wall-clock solve timings.
        let stable = |mut o: ArrivalOutcome| {
            o.jobs.iter_mut().for_each(|j| j.repair.micros = 0);
            o
        };
        let again = run_plane(&scenario, &ArrivalPlane::default());
        assert_eq!(stable(outcome), stable(again), "the plane is deterministic");
    }

    #[test]
    fn a_fast_burst_builds_queue_and_the_first_admission_full_solves() {
        let scenario = soak_scenario("[[arrivals]]\nmodel = \"trace\"\ntimes = [0.0, 1.0, 2.0]\n");
        let outcome = run_plane(&scenario, &ArrivalPlane::default());
        let first = &outcome.jobs[0];
        assert!(first.repair.full_solve, "no incumbent yet: first admission re-solves");
        assert!(!first.repair.fell_back);
        // Later burst arrivals land while job 0 executes, so depth grows.
        let deepest = outcome.measured().map(|j| j.queue_depth).max();
        assert!(deepest >= Some(2), "burst stacks the queue");
        // With a stable mesh the incumbent stays an equilibrium: every
        // later admission repairs with zero deviations.
        for job in &outcome.jobs[1..3] {
            assert!(!job.repair.full_solve, "incumbent warm-start, not a re-solve");
            assert_eq!(job.repair.deviations, 0, "stable mesh keeps the incumbent");
        }
    }

    #[test]
    fn full_policy_resolves_every_admission() {
        let scenario =
            soak_scenario("[[arrivals]]\nmodel = \"deterministic\"\ninterval = 100.0\ncount = 3\n");
        let outcome = run_plane(
            &scenario,
            &ArrivalPlane { policy: RepairPolicy::Full, ..ArrivalPlane::default() },
        );
        assert_eq!(outcome.policy, "full-resolve");
        assert!(outcome.jobs.iter().all(|j| j.repair.full_solve));
        assert_eq!(outcome.fallbacks(), 0);
    }

    #[test]
    fn a_window_boundary_between_admissions_retires_the_incumbent() {
        // Two arrivals straddle a scripted outage boundary (start =
        // 500): the second admission must re-solve the full game, not
        // warm-start from a stale incumbent.
        let scenario = soak_scenario(
            "[[events]]\nkind = \"outage\"\ntarget = \"regional\"\nstart = 500.0\n\
             duration = 10000.0\n\
             [[arrivals]]\nmodel = \"trace\"\ntimes = [0.0, 2000.0]\n",
        );
        let outcome = run_plane(&scenario, &ArrivalPlane::default());
        for pair in outcome.jobs.chunks(2) {
            assert!(pair[0].repair.full_solve, "first admission always re-solves");
            assert!(pair[1].repair.full_solve, "the boundary at t=500 must retire the incumbent");
        }
    }
}
