//! Failover-aware scheduling under the seeded fault-injection harness.
//!
//! The contracts that make fault pricing safe and worth having:
//!
//! 1. **Zero-fault parity** — with every failure probability at zero,
//!    fault-aware schedulers and a fault-injecting executor are
//!    *byte-identical* (serialized comparison) to the happy-path stack:
//!    schedules and RunReports alike, over the case studies and a
//!    proptest population of generated applications.
//! 2. **Closed-form `E[Td]`** — the estimator's two-branch expectation
//!    (`(1−p)·(Td_happy+B_h) + p·(Td_failover+B_f+detection)`) matches
//!    the Monte-Carlo mean of seeded executor runs, per registry
//!    choice. The comparison runs with route contention off
//!    (`contention_alpha = 0`): same-wave contention couples pulls
//!    through the *realised* (random) routes, which the per-pull closed
//!    form deliberately prices at the happy-path mode; with it off the
//!    form is exact and the only residual is sampling error.
//! 3. **Retry-path accounting** — injected transient bursts charge
//!    exactly the policy's backoff schedule (jittered and unjittered),
//!    resolve bursts count `attempts`, and a fatal death burns the
//!    exhausted retry budget before the failover re-plan.
//! 4. **The headline** — under a 20 % lossy regional the fault-aware
//!    equilibrium reroutes risk-weighted bytes toward the hub and beats
//!    the happy-path scheduler's realized mean Td over 200 seeded fault
//!    plans (numbers recorded in PERF.md).

use deep::core::{calibrate, calibration, DeepScheduler, EstimationContext, Scheduler};
use deep::dataflow::{self, apps, Application};
use deep::netsim::Seconds;
use deep::registry::{FaultModel, FaultRates, FlakyRegistry, HubRegistry, RetryPolicy};
use deep::registry::{RegionalRegistry, RegistryMesh, SourceParams};
use deep::simulator::{
    execute, ExecutorConfig, RegistryChoice, RunReport, Schedule, Testbed, TestbedParams,
    DEVICE_MEDIUM,
};
use proptest::prelude::*;

/// A Docker-ish retry policy for the fault scenarios: a dead registry
/// costs `10 + 20 + 40 = 70 s` of exhausted backoff before the client
/// gives up on it and fails over.
fn scenario_retry() -> RetryPolicy {
    RetryPolicy { max_attempts: 4, base_backoff: Seconds::new(10.0), ..Default::default() }
}

/// The ISSUE's lossy-regional model: the paper regional registry fails
/// fatally per pull with `fatal` and transiently per fetch with
/// `transient`; the hub stays reliable.
fn lossy_regional(fatal: f64, transient: f64) -> FaultModel {
    FaultModel::default()
        .with_source(
            RegistryChoice::Regional.registry_id(),
            FaultRates { fatal_per_pull: fatal, transient_per_fetch: transient },
        )
        .with_retry(scenario_retry())
}

fn faulty_testbed(alpha: f64, model: &FaultModel) -> Testbed {
    let mut tb =
        Testbed::with_params(TestbedParams { contention_alpha: alpha, ..TestbedParams::default() });
    calibrate(&mut tb);
    tb.fault_model = model.clone();
    tb
}

fn total_td(report: &RunReport) -> f64 {
    report.microservices.iter().map(|m| m.td.as_f64()).sum()
}

/// Replay `schedule` through a fault-pricing estimation context and sum
/// the per-microservice `E[Td]` — the closed form under test.
fn expected_total_td(tb: &Testbed, app: &Application, schedule: &Schedule) -> f64 {
    let mut ctx = EstimationContext::new(tb, app).price_faults(true);
    let mut total = 0.0;
    for stage in dataflow::stages(app) {
        ctx.begin_wave();
        for &id in &stage.members {
            let p = schedule.placement(id);
            total += ctx.estimate(id, p.registry, p.device).td.as_f64();
            ctx.commit(id, p);
        }
    }
    total
}

// ---------------------------------------------------------------------
// 1. Zero-fault parity: probabilities at zero ⇒ byte-identical stack.
// ---------------------------------------------------------------------

fn assert_zero_fault_parity(app: &Application, tb: &Testbed) {
    // Scheduler parity: pricing a zero model changes no payoff.
    let happy = DeepScheduler::paper().schedule(app, tb);
    let aware = DeepScheduler::fault_aware().schedule(app, tb);
    assert_eq!(
        serde_json::to_string(&happy).unwrap(),
        serde_json::to_string(&aware).unwrap(),
        "{}: fault-aware schedule diverged under a zero fault model",
        app.name()
    );
    // Executor parity: injecting a zero plan (standby sources, retry
    // policy and the session fault policy all attached) realises the
    // same run.
    let mut plain_tb = calibration::calibrated_testbed();
    plain_tb.publish_application(app);
    let (plain, _) = execute(&mut plain_tb, app, &happy, &ExecutorConfig::default()).unwrap();
    let mut injected_tb = calibration::calibrated_testbed();
    injected_tb.publish_application(app);
    // A zero-rate model with a non-trivial retry policy: attaching the
    // policy must not change a failure-free run either.
    injected_tb.fault_model = FaultModel::default().with_retry(scenario_retry());
    let cfg = ExecutorConfig { fault_injection: true, fault_seed: 7, ..Default::default() };
    let (injected, _) = execute(&mut injected_tb, app, &happy, &cfg).unwrap();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&injected).unwrap(),
        "{}: zero-fault injection changed the RunReport",
        app.name()
    );
}

#[test]
fn case_studies_zero_fault_parity() {
    let tb = calibration::calibrated_testbed();
    for app in apps::case_studies() {
        assert_zero_fault_parity(&app, &tb);
    }
}

#[test]
fn zero_fault_parity_holds_with_peer_sharing() {
    // Warm continuum fleet, peer-sharing executor: the fault path wraps
    // the peer snapshot and registers standbys — still byte-identical.
    let app = apps::video_processing();
    let run = |fault_injection: bool| -> RunReport {
        let mut tb = deep::core::continuum_testbed();
        let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
        execute(&mut tb, &app, &warm, &ExecutorConfig::default()).unwrap();
        let cloud =
            Schedule::uniform(app.len(), RegistryChoice::Hub, deep::simulator::DEVICE_CLOUD);
        let cfg = ExecutorConfig { peer_sharing: true, fault_injection, ..Default::default() };
        execute(&mut tb, &app, &cloud, &cfg).unwrap().0
    };
    assert_eq!(
        serde_json::to_string(&run(false)).unwrap(),
        serde_json::to_string(&run(true)).unwrap()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Zero-probability fault models reproduce the PR 3 schedules and
    /// RunReports byte for byte across generated applications. (The
    /// vendored proptest seeds each case deterministically from the
    /// test name, so this sweep is fixed-seed in CI.)
    #[test]
    fn generated_apps_zero_fault_parity(seed in 0u64..500) {
        let mut tb = calibration::calibrated_testbed();
        let app = dataflow::DagGenerator::default().generate(seed);
        tb.publish_application(&app);
        assert_zero_fault_parity(&app, &tb);
    }
}

// ---------------------------------------------------------------------
// 2. Closed-form E[Td] vs the Monte-Carlo mean of seeded runs.
// ---------------------------------------------------------------------

#[test]
fn closed_form_expected_td_matches_monte_carlo_mean_per_registry_choice() {
    // Both registries carry faults so either primary exercises both the
    // fatal (failover + detection) and transient (backoff) channels.
    let model = lossy_regional(0.2, 0.15).with_source(
        RegistryChoice::Hub.registry_id(),
        FaultRates { fatal_per_pull: 0.05, transient_per_fetch: 0.1 },
    );
    let app = apps::text_processing();
    const PLANS: u64 = 400;
    for choice in [RegistryChoice::Hub, RegistryChoice::Regional] {
        let schedule = Schedule::uniform(app.len(), choice, DEVICE_MEDIUM);
        let expected = expected_total_td(&faulty_testbed(0.0, &model), &app, &schedule);
        let mut total = 0.0;
        let mut failovers = 0usize;
        let mut backoff = 0.0;
        for seed in 0..PLANS {
            let mut tb = faulty_testbed(0.0, &model);
            let cfg =
                ExecutorConfig { fault_injection: true, fault_seed: seed, ..Default::default() };
            let (report, _) = execute(&mut tb, &app, &schedule, &cfg).unwrap();
            total += total_td(&report);
            failovers +=
                report.microservices.iter().filter(|m| !m.failed_sources.is_empty()).count();
            backoff += report.microservices.iter().map(|m| m.backoff_total.as_f64()).sum::<f64>();
        }
        let mean = total / PLANS as f64;
        // 400 plans put the standard error of the mean well under 0.5 %
        // of E[Td] here; 1.5 % gives deterministic-seed headroom.
        assert!(
            (mean - expected).abs() / expected < 0.015,
            "{choice}: closed form {expected:.2} vs MC mean {mean:.2}"
        );
        // Non-vacuity: the sweep actually exercised both fault channels,
        // and pricing them moved the estimate off the happy path.
        assert!(failovers > 0, "{choice}: no pull ever failed over");
        assert!(backoff > 0.0, "{choice}: no transient backoff charged");
        let happy: f64 = {
            let tb = faulty_testbed(0.0, &model);
            let mut ctx = EstimationContext::new(&tb, &app);
            let mut sum = 0.0;
            for stage in dataflow::stages(&app) {
                ctx.begin_wave();
                for &id in &stage.members {
                    let p = schedule.placement(id);
                    sum += ctx.estimate(id, p.registry, p.device).td.as_f64();
                    ctx.commit(id, p);
                }
            }
            sum
        };
        assert!(expected > happy + 1.0, "{choice}: E[Td] {expected} vs happy {happy}");
    }
}

// ---------------------------------------------------------------------
// 3. Retry-path accounting under injected bursts.
// ---------------------------------------------------------------------

const HUB_ID: deep::registry::RegistryId = deep::registry::RegistryId(0);

fn session_params() -> SourceParams {
    SourceParams {
        download_bw: deep::netsim::Bandwidth::megabytes_per_sec(13.0),
        overhead: Seconds::new(25.0),
    }
}

fn fresh_cache() -> deep::registry::LayerCache {
    deep::registry::LayerCache::new(deep::netsim::DataSize::gigabytes(64.0))
}

#[test]
fn injected_transient_bursts_charge_exact_backoff() {
    // q = 1 with the consecutive-injection cap makes every layer's
    // chain deterministic: max_attempts − 1 failures then success, so
    // backoff_total is exactly layers × Σ backoff(k) — for jittered and
    // unjittered policies alike.
    for policy in [
        RetryPolicy { max_attempts: 4, base_backoff: Seconds::new(2.0), ..Default::default() },
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Seconds::new(2.0),
            jitter: 0.4,
            seed: 99,
            ..Default::default()
        },
    ] {
        let model = FaultModel::default()
            .with_source(HUB_ID, FaultRates { fatal_per_pull: 0.0, transient_per_fetch: 1.0 })
            .with_retry(policy);
        let plan = model.plan(5);
        let hub = HubRegistry::with_paper_catalog();
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB_ID, &hub, session_params());
        let r = deep::registry::Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let out = mesh
            .session(HUB_ID)
            .with_retry(policy)
            .with_faults(&plan, 0, Seconds::ZERO)
            .pull(&r, deep::registry::Platform::Amd64, &mut fresh_cache())
            .unwrap();
        assert_eq!(out.layers_fetched, 3);
        assert!(out.failed_sources.is_empty(), "transient ≠ dead");
        assert_eq!(out.attempts, 1, "resolve is not injected");
        let per_layer = policy.exhausted_backoff().as_f64();
        assert!(
            (out.backoff_total.as_f64() - 3.0 * per_layer).abs() < 1e-9,
            "jitter {}: backoff {} vs {} per layer",
            policy.jitter,
            out.backoff_total,
            per_layer
        );
    }
}

#[test]
fn resolve_bursts_count_attempts_under_jittered_policies() {
    let policy = RetryPolicy {
        max_attempts: 5,
        base_backoff: Seconds::new(2.0),
        jitter: 0.3,
        seed: 7,
        ..Default::default()
    };
    let flaky = FlakyRegistry::new(HubRegistry::with_paper_catalog(), 3);
    let mut mesh = RegistryMesh::new();
    mesh.add_registry(HUB_ID, &flaky, session_params());
    let r = deep::registry::Reference::new("docker.io", "sina88/vp-transcode", "amd64");
    let out = mesh
        .session(HUB_ID)
        .with_retry(policy)
        .pull(&r, deep::registry::Platform::Amd64, &mut fresh_cache())
        .unwrap();
    assert_eq!(out.attempts, 4, "3 injected resolve failures, then success");
    let expected: f64 = (1..=3).map(|k| policy.backoff(k).as_f64()).sum();
    assert!((out.backoff_total.as_f64() - expected).abs() < 1e-12);
    assert_eq!(flaky.pending_failures(), 0);
}

#[test]
fn fatal_death_burns_the_retry_budget_before_failover() {
    // With a retry policy attached, declaring a source dead costs the
    // exhausted backoff (the client cannot tell death from a transient
    // burst) — charged once per dead source, then the survivors carry
    // the remaining layers.
    let policy = scenario_retry();
    let hub = deep::registry::FaultySource::fatal_after(HubRegistry::with_paper_catalog(), 1);
    let regional = RegionalRegistry::with_paper_catalog();
    let mut mesh = RegistryMesh::new();
    mesh.add_registry(HUB_ID, &hub, session_params());
    mesh.add_registry(
        deep::registry::RegistryId(1),
        &regional,
        SourceParams {
            download_bw: deep::netsim::Bandwidth::megabytes_per_sec(8.0),
            overhead: Seconds::new(5.0),
        },
    );
    let r = deep::registry::Reference::new("docker.io", "sina88/vp-transcode", "amd64");
    let out = mesh
        .session(HUB_ID)
        .with_retry(policy)
        .pull(&r, deep::registry::Platform::Amd64, &mut fresh_cache())
        .unwrap();
    assert_eq!(out.failed_sources, vec![HUB_ID]);
    assert_eq!(out.layers_fetched, 3, "failover completes the pull");
    assert!(
        (out.backoff_total.as_f64() - policy.exhausted_backoff().as_f64()).abs() < 1e-12,
        "death detection charged once: {}",
        out.backoff_total
    );
    // Without a policy the failover is immediate (PR 3 behaviour).
    let hub2 = deep::registry::FaultySource::fatal_after(HubRegistry::with_paper_catalog(), 1);
    let mut mesh2 = RegistryMesh::new();
    mesh2.add_registry(HUB_ID, &hub2, session_params());
    mesh2.add_registry(
        deep::registry::RegistryId(1),
        &regional,
        SourceParams {
            download_bw: deep::netsim::Bandwidth::megabytes_per_sec(8.0),
            overhead: Seconds::new(5.0),
        },
    );
    let out2 = mesh2
        .session(HUB_ID)
        .pull(&r, deep::registry::Platform::Amd64, &mut fresh_cache())
        .unwrap();
    assert_eq!(out2.backoff_total, Seconds::ZERO);
}

// ---------------------------------------------------------------------
// 4. Failover exclusion of dead sources, per pull, across waves.
// ---------------------------------------------------------------------

#[test]
fn failover_excludes_dead_sources_per_pull_across_waves() {
    // A regional that is *always* dead: every fetching pull discovers
    // the death, fails over to the standby hub, and reports both the
    // exclusion and the detection backoff in its metrics — in every
    // wave of the staged deployment.
    let model = lossy_regional(1.0, 0.0);
    let app = apps::text_processing();
    let schedule = Schedule::uniform(app.len(), RegistryChoice::Regional, DEVICE_MEDIUM);
    let mut tb = faulty_testbed(0.1, &model);
    let cfg = ExecutorConfig { fault_injection: true, fault_seed: 3, ..Default::default() };
    let (report, _) = execute(&mut tb, &app, &schedule, &cfg).unwrap();
    let regional = RegistryChoice::Regional.registry_id();
    let hub = RegistryChoice::Hub.registry_id();
    let mut fetching = 0;
    for m in &report.microservices {
        if m.downloaded_mb > 0.0 {
            fetching += 1;
            assert_eq!(m.failed_sources, vec![regional], "{}", m.name);
            assert!(m.sources.iter().all(|s| s.source == hub), "{}: {:?}", m.name, m.sources);
            assert!(
                (m.backoff_total.as_f64() - scenario_retry().exhausted_backoff().as_f64()).abs()
                    < 1e-9,
                "{}: detection backoff",
                m.name
            );
        } else {
            assert!(m.failed_sources.is_empty(), "{}: cached pulls discover nothing", m.name);
        }
    }
    assert!(fetching >= 3, "the run exercised multiple waves of fetching pulls");

    // Per-pull churn at fatal = 0.5: within one run some pulls lose the
    // regional and some keep it — a source dead for one pull serves a
    // later one (EdgePier-style churn, not a permanent outage).
    let churn = lossy_regional(0.5, 0.0);
    let mut saw_both = false;
    for seed in 0..32 {
        let mut tb = faulty_testbed(0.1, &churn);
        let cfg = ExecutorConfig { fault_injection: true, fault_seed: seed, ..Default::default() };
        let (report, _) = execute(&mut tb, &app, &schedule, &cfg).unwrap();
        let fetched: Vec<_> =
            report.microservices.iter().filter(|m| m.downloaded_mb > 0.0).collect();
        let died = fetched.iter().filter(|m| !m.failed_sources.is_empty()).count();
        if died > 0 && died < fetched.len() {
            // The pulls that kept the regional really used it.
            assert!(fetched
                .iter()
                .filter(|m| m.failed_sources.is_empty())
                .all(|m| m.sources.iter().all(|s| s.source == regional)));
            saw_both = true;
            break;
        }
    }
    assert!(saw_both, "no seed mixed dead and alive pulls — churn is not per-pull");
}

// ---------------------------------------------------------------------
// 5. The headline: a 20 % lossy regional shifts the equilibrium and
//    the shift pays off in realized mean Td.
// ---------------------------------------------------------------------

#[test]
fn fault_aware_equilibrium_beats_happy_path_under_lossy_regional() {
    let model = lossy_regional(0.2, 0.2);
    let app = apps::text_processing();
    let tb = faulty_testbed(0.1, &model);
    let happy = DeepScheduler::paper().schedule(&app, &tb);
    let aware = DeepScheduler::fault_aware().schedule(&app, &tb);
    assert_ne!(happy, aware, "pricing a 20 % lossy regional must move the equilibrium");
    // Risk-weighted bytes move off the lossy regional, toward the hub.
    let regional_share = |s: &Schedule| {
        s.iter().filter(|(_, p)| p.registry == RegistryChoice::Regional).count() as f64
            / app.len() as f64
    };
    assert!(
        regional_share(&aware) < regional_share(&happy),
        "aware {} vs happy {}",
        regional_share(&aware),
        regional_share(&happy)
    );
    // Realized mean Td over 200 seeded fault plans, same plans for both
    // schedules: the failover-aware equilibrium wins by a measured
    // margin (recorded in PERF.md).
    const PLANS: u64 = 200;
    let mean = |schedule: &Schedule| -> f64 {
        let mut total = 0.0;
        for seed in 0..PLANS {
            let mut tb = faulty_testbed(0.1, &model);
            let cfg =
                ExecutorConfig { fault_injection: true, fault_seed: seed, ..Default::default() };
            let (report, _) = execute(&mut tb, &app, schedule, &cfg).unwrap();
            total += total_td(&report);
        }
        total / PLANS as f64
    };
    let happy_mean = mean(&happy);
    let aware_mean = mean(&aware);
    let margin = 1.0 - aware_mean / happy_mean;
    println!(
        "lossy-regional headline: happy {happy_mean:.1} s, fault-aware {aware_mean:.1} s, \
         margin {:.1} %",
        margin * 100.0
    );
    assert!(
        margin > 0.01,
        "fault-aware mean {aware_mean:.1} vs happy-path mean {happy_mean:.1} ({margin:.3})"
    );
}

// ---------------------------------------------------------------------
// 6. The fault-aware schedule is still an equilibrium of its own game.
// ---------------------------------------------------------------------

#[test]
fn fault_aware_schedule_is_an_equilibrium_of_the_expected_cost_game() {
    let model = lossy_regional(0.2, 0.2);
    let app = apps::text_processing();
    let tb = faulty_testbed(0.1, &model);
    let sched = DeepScheduler::fault_aware();
    let schedule = sched.schedule(&app, &tb);
    assert!(sched.is_equilibrium(&app, &tb, &schedule));
}
