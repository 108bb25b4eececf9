//! The one solve path, from the paper testbeds to seeded fleets.
//!
//! `DeepScheduler` solves every stage game by a payoff scan, whatever
//! the testbed's size, and returns the stage games' sequential profile
//! (the scan's equivalence to support enumeration is checked member by
//! member in `nash.rs`'s oracle test). These tests pin the two contracts
//! that make it safe on every testbed:
//!
//! 1. **Executed as priced** — on the paper case studies over the
//!    calibrated testbed, the continuum and a mirrored mesh, the
//!    executed `RunReport` measures exactly the `(Td, Tc, Tp, EC)` the
//!    scheduler's estimator priced for the schedule it chose; on
//!    generated fleets, apps, discovery modes, pricings and random
//!    schedules, it measures exactly what the estimator priced for them.
//! 2. **Equilibria** — on seeded synthetic fleets the solver lands on a
//!    verified pure Nash equilibrium (exhaustive and sampled deviation
//!    checks). On every generated case of the parity fuzz, under that
//!    case's peer sharing, discovery, pricing and online start, a
//!    brute-force oracle that prices every cell of every member accepts
//!    the solve and the repair of a random schedule, and agrees with
//!    `is_equilibrium` on the solve and on the random schedule.

use deep::core::{
    calibration, continuum, DeepScheduler, EstimationContext, ScenarioPricing, Scheduler,
};
use deep::dataflow::{apps, stages, Application, DagGenerator};
use deep::netsim::{splitmix64, Seconds};
use deep::simulator::{
    execute, plan_waves, validate_schedule, ExecutorConfig, OnlineExecutor, PeerDiscovery,
    Placement, Schedule, Testbed,
};
use proptest::prelude::*;

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

/// A splitmix64 stream: every choice of one generated case comes from
/// its seed.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random schedule of `app` on `tb`: every member on a random
/// admissible device, pulling from a random full registry. `None` when
/// some member fits no device.
fn random_schedule(app: &Application, tb: &Testbed, draws: &mut Draws) -> Option<Schedule> {
    let registries = tb.registry_choices();
    app.ids()
        .map(|id| {
            let req = &app.microservice(id).requirements;
            let devices: Vec<_> =
                tb.devices.iter().filter(|d| d.admits(req)).map(|d| d.id).collect();
            (!devices.is_empty()).then(|| Placement {
                registry: registries[draws.below(registries.len())],
                device: devices[draws.below(devices.len())],
            })
        })
        .collect::<Option<Vec<_>>>()
        .map(Schedule::new)
}

/// Brute-force equilibrium oracle: walk `schedule` through a context
/// built like `sched`'s and price every registry × admissible-device cell
/// of every member. `schedule` is an equilibrium when no cell beats a
/// member's placement by more than 1e-9 J.
fn brute_force_equilibrium(
    sched: &DeepScheduler,
    app: &Application,
    tb: &Testbed,
    schedule: &Schedule,
) -> bool {
    let mut ctx = EstimationContext::new(tb, app)
        .peer_discovery(sched.peer_discovery, sched.discovery_seed)
        .peer_sharing(sched.peer_sharing)
        .price_faults(sched.price_faults)
        .scenario_pricing(sched.scenario)
        .at_clock(sched.start_clock)
        .starting_pull(sched.start_pull);
    let registries = tb.registry_choices();
    for stage in stages(app) {
        ctx.begin_wave();
        for &id in &stage.members {
            let p = schedule.placement(id);
            let bound = ctx.estimate(id, p.registry, p.device).ec.as_f64() - 1e-9;
            for &registry in &registries {
                for device in ctx.admissible_devices(id) {
                    if ctx.estimate(id, registry, device).ec.as_f64() < bound {
                        return false;
                    }
                }
            }
            ctx.commit(id, p);
        }
    }
    true
}

/// One generated case of the differential parity fuzz: a seeded fleet
/// warmed by a random prior run, a random peer-sharing and discovery
/// setup, one of the three pricings under the zero fault model (with or
/// without fault injection), an online start clock and pull number
/// (under the zero model neither may move a price), and a random
/// schedule. The estimator walks the schedule, the online executor runs
/// it, and every member's `(Td, Tc, Tp, EC)` must agree bit for bit.
/// A scheduler configured like the case must also solve the app to a
/// schedule the brute-force oracle accepts as an equilibrium, repair the
/// random schedule to one, and repair its own solve to itself; its
/// `is_equilibrium` must agree with the oracle on the solve and on the
/// random schedule.
fn assert_generated_case_executes_as_priced(seed: u64) {
    let mut draws = Draws(seed);
    let mut tb =
        continuum::synthetic_fleet_testbed(2 + draws.below(23), 2 + draws.below(3), draws.next());
    // Generated apps pull single-layer images; a case study one time in
    // eight brings multi-layer images, and with them split pulls.
    let gen = DagGenerator::default();
    let app = match draws.below(8) {
        0 => apps::case_studies().swap_remove(draws.below(2)),
        _ => gen.generate(draws.next()),
    };
    let prior_app = if draws.below(4) == 0 { gen.generate(draws.next()) } else { app.clone() };
    tb.publish_application(&app);
    tb.publish_application(&prior_app);
    let peer_discovery = match draws.below(2) {
        0 => PeerDiscovery::Snapshot,
        _ => PeerDiscovery::Gossip {
            fanout: 1 + draws.below(8) as u32,
            view_size: 1 + draws.below(8) as u32,
            rounds_per_wave: 1 + draws.below(3) as u32,
        },
    };
    let cfg = ExecutorConfig {
        seed: draws.next(),
        peer_sharing: draws.below(2) == 1,
        peer_discovery,
        fault_injection: draws.below(2) == 1,
        fault_seed: draws.next(),
        ..ExecutorConfig::default()
    };
    let at = format!("seed {seed}: {} devices, {cfg:?}", tb.devices.len());
    if let Some(prior) = random_schedule(&prior_app, &tb, &mut draws) {
        execute(&mut tb, &prior_app, &prior, &cfg).expect("the warm-up run executes");
    }
    let Some(schedule) = random_schedule(&app, &tb, &mut draws) else { return };
    let pricing = draws.below(3);
    let clock = Seconds::new(draws.below(10_000) as f64 * 0.25);
    let pull = draws.next() % 1_000;
    let scenario = (pricing == 2).then_some(ScenarioPricing { draws: 8, seed: cfg.fault_seed });

    let sched = DeepScheduler {
        peer_sharing: cfg.peer_sharing,
        price_faults: pricing == 1,
        scenario,
        start_clock: clock,
        start_pull: pull,
        peer_discovery: cfg.peer_discovery,
        discovery_seed: cfg.seed,
        ..DeepScheduler::paper()
    };
    let solved = sched.schedule(&app, &tb);
    assert!(
        brute_force_equilibrium(&sched, &app, &tb, &solved),
        "{at}, pricing {pricing}: not an equilibrium"
    );
    assert!(sched.is_equilibrium(&app, &tb, &solved), "{at}, pricing {pricing}: solve rejected");
    assert_eq!(
        sched.is_equilibrium(&app, &tb, &schedule),
        brute_force_equilibrium(&sched, &app, &tb, &schedule),
        "{at}, pricing {pricing}: the checks disagree on the random schedule"
    );
    // The same scheduler repairs the random schedule to an equilibrium
    // without a fallback, and keeps its own solve unchanged.
    let repaired = sched.incremental_repair(&app, &tb, &schedule, usize::MAX);
    assert!(!repaired.fell_back, "{at}, pricing {pricing}: the repair fell back");
    assert!(
        brute_force_equilibrium(&sched, &app, &tb, &repaired.schedule),
        "{at}, pricing {pricing}: the repair moved {} members to a non-equilibrium",
        repaired.deviations
    );
    let kept = sched.incremental_repair(&app, &tb, &solved, usize::MAX);
    assert_eq!(kept.schedule, solved, "{at}, pricing {pricing}: the repair moved the solve");
    assert_eq!(kept.deviations, 0, "{at}, pricing {pricing}");

    let mut predictions = Vec::new();
    {
        let mut ctx = EstimationContext::new(&tb, &app)
            .peer_sharing(cfg.peer_sharing)
            .peer_discovery(cfg.peer_discovery, cfg.seed)
            .price_faults(pricing == 1)
            .scenario_pricing(scenario)
            .at_clock(clock)
            .starting_pull(pull);
        for stage in stages(&app) {
            ctx.begin_wave();
            for &id in &stage.members {
                let p = schedule.placement(id);
                predictions.push(ctx.estimate(id, p.registry, p.device));
                ctx.commit(id, p);
            }
        }
    }

    validate_schedule(&tb, &app, &schedule).expect("random schedules are admissible");
    let mut exec = OnlineExecutor::new(&tb, &cfg, &[]);
    exec.advance_to(clock);
    let mut run = exec.begin_job(&app);
    for (wave_idx, wave) in plan_waves(&app, cfg.staged_deployment).iter().enumerate() {
        exec.run_wave(&mut tb, &app, &schedule, wave, wave_idx, &mut run)
            .expect("the run executes");
    }
    let report = run.into_report(&app, &schedule, exec.clock());
    assert_eq!(predictions.len(), report.microservices.len(), "{at}");
    let bits = |t: Seconds| t.as_f64().to_bits();
    for (est, measured) in predictions.iter().zip(&report.microservices) {
        let at = format!("{at}, pricing {pricing}: {}", measured.name);
        assert_eq!(bits(est.td), bits(measured.td), "{at}: td {} vs {}", est.td, measured.td);
        assert_eq!(bits(est.tc), bits(measured.tc), "{at}: tc");
        assert_eq!(bits(est.tp), bits(measured.tp), "{at}: tp");
        assert_eq!(est.ec.as_f64().to_bits(), measured.energy.as_f64().to_bits(), "{at}: ec");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Differential parity fuzz: generated fleets (2–24 devices, 2–4
    /// registries), apps, warm caches, peer planes, discovery modes,
    /// pricings and online starts execute exactly as priced.
    #[test]
    fn generated_meshes_execute_exactly_as_priced(seed in any::<u64>()) {
        assert_generated_case_executes_as_priced(seed);
    }
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
