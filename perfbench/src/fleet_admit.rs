//! `fleet-admit`: admissions at fleet scale. An 800-device, 3-registry
//! synthetic fleet with a flaky regional (fatal 0.2, transient 0.1), peer
//! sharing and gossip discovery (fanout 3, view 8) admits generated
//! dataflows one at a time under the scenario-priced scheduler (64
//! draws). One operator in a closed loop: each admission is a full
//! solve, an incremental repair of that incumbent and an execution on
//! the live fleet, so the next admission prices the caches the last one
//! filled. The sparse payoff scan, the Monte-Carlo draw memo, the
//! estimator's gossip plane and the joint refinement do almost all the
//! work; execution does little.

use crate::driver::{drive, Pass, RoundOut};
use crate::measure::{append_spans, derive, set_request, span, take_spans};
use crate::measure::{Digest, Ledger, Tally};
use crate::probes::{self, Probed, Subject};
use crate::{Args, Report, Size};
use deep::arrival::DEFAULT_DEVIATION_BUDGET;
use deep::core::{synthetic_fleet_testbed, DeepScheduler, Scheduler};
use deep::dataflow::{Application, DagGenerator};
use deep::scenario::Scenario;
use deep::simulator::{
    execute, ExecutorConfig, PeerDiscovery, RegistryChoice, RunReport, Schedule, Testbed,
    DEVICE_MEDIUM,
};
use std::time::Instant;

/// Devices in the fleet: the ROADMAP's 800-device rung.
const DEVICES: usize = 800;
/// Full mesh sources: the hub, the regional and one mirror.
const REGISTRIES: usize = 3;
/// Monte-Carlo draws of the scenario-priced scheduler.
const DRAWS: u32 = 64;
/// Generated dataflows the operator admits, round robin; the first one
/// also warms the fleet.
const POOL: usize = 8;
/// Admissions per round: enough dataflows that a round's cost varies
/// little from seed to seed.
const ADMISSIONS: usize = 8;
/// Sampled unilateral deviations per member in the equilibrium check.
const VERIFY_DEVIATIONS: usize = 8;
/// The self-test's tiny fleet and round.
const TINY_DEVICES: usize = 40;
const TINY_ADMISSIONS: usize = 2;

/// The operator's fleet configuration as a scenario document: the flaky
/// regional's fault rates, a mirror with rare transient faults (so the
/// retry path runs even when pricing keeps pulls off the regional) and
/// the gossip discovery knobs.
const CONFIG: &str = r#"name = "fleet-admit"
app = "text-processing"
peer_sharing = true

[testbed]
base = "continuum"
mirrors = 1

[gossip]
fanout = 3
view_size = 8
rounds_per_wave = 1

[[rates]]
target = "regional"
fatal_per_pull = 0.2
transient_per_fetch = 0.1

[[rates]]
target = "mirror-0"
fatal_per_pull = 0.0
transient_per_fetch = 0.1
"#;

/// The warmed fleet every round starts from.
struct Fleet {
    tb: Testbed,
    pool: Vec<Application>,
    discovery: PeerDiscovery,
}

/// One admission's outputs.
struct Admitted {
    report: Option<RunReport>,
    deviations: usize,
    fell_back: bool,
}

fn scheduler(seed: u64, discovery: PeerDiscovery) -> DeepScheduler {
    DeepScheduler {
        peer_sharing: true,
        peer_discovery: discovery,
        discovery_seed: seed,
        ..DeepScheduler::scenario_priced(DRAWS, seed)
    }
}

fn executor(seed: u64, discovery: PeerDiscovery) -> ExecutorConfig {
    ExecutorConfig {
        seed,
        peer_sharing: true,
        peer_discovery: discovery,
        fault_injection: true,
        fault_seed: seed,
        ..ExecutorConfig::default()
    }
}

/// Set-up: parse the configuration, build the fleet, publish the pool
/// and warm the fleet with one executed deployment, which leaves layer
/// caches for gossip to advertise and the first admissions to price.
fn setup(seed: u64, size: Size, ledger: &mut Ledger) -> Option<Fleet> {
    let config = ledger.attempt("parse the fleet configuration", || {
        span("scenario.parse", || Scenario::parse(CONFIG))
    })?;
    let discovery = config.peer_discovery();
    // Small fixed-shape dataflows keep each timed call short (a solve
    // takes about a third of a second), so the fastest of a run's
    // repetitions escapes the host's bursts of interference; fixed shape
    // and narrowed size ranges keep a round's cost and simulated outcomes
    // comparable across seeds. The seed still draws every image, load
    // and flow.
    let generator = DagGenerator {
        stages: 2,
        width: (2, 2),
        image_gb: (0.5, 2.5),
        cpu_mi: (1e6, 3e6),
        ..DagGenerator::default()
    };
    let pool: Vec<Application> =
        (0..POOL).map(|i| generator.generate(derive(seed, 10 + i as u64))).collect();
    let devices = if size == Size::Tiny { TINY_DEVICES } else { DEVICES };
    let mut tb = ledger.call("build and publish the fleet", || {
        span("simulator.testbed_build", || {
            let mut tb = synthetic_fleet_testbed(devices, REGISTRIES, derive(seed, 1));
            tb.fault_model = config.fault_model();
            pool.iter().for_each(|app| tb.publish_application(app));
            tb
        })
    })?;
    let warm = Schedule::uniform(pool[0].len(), RegistryChoice::Hub, DEVICE_MEDIUM);
    let cfg = executor(derive(seed, 2), discovery);
    ledger.attempt("warm-up execute", || {
        span("simulator.execute", || execute(&mut tb, &pool[0], &warm, &cfg))
    })?;
    Some(Fleet { tb, pool, discovery })
}

/// Admit `admissions` dataflows one at a time on a replica of the warmed
/// fleet. Only the solve, the repair and the execution are timed; the
/// replica and the correctness gate (first round only: later rounds must
/// reproduce its outputs byte for byte) are not.
fn round(
    fleet: &Fleet,
    seed: u64,
    admissions: usize,
    ledger: &mut Ledger,
    pass: Pass,
) -> RoundOut<Vec<Admitted>> {
    let mut out: RoundOut<Vec<_>> = RoundOut::default();
    let mut digest = Digest::default();
    let mut tb = span("simulator.replica", || fleet.tb.replica());
    for k in 0..admissions {
        set_request(k as u64);
        let app = &fleet.pool[(k + 1) % POOL];
        let s = derive(seed, 100 + k as u64);
        let scheduler = scheduler(s, fleet.discovery);
        let t = Instant::now();
        let solved =
            ledger.call("schedule", || span("core.schedule", || scheduler.schedule(app, &tb)));
        let solve_s = t.elapsed().as_secs_f64();
        let Some(solved) = solved else { continue };
        let t = Instant::now();
        let repaired = ledger.call("incremental_repair", || {
            span("core.repair", || {
                scheduler.incremental_repair(app, &tb, &solved, DEFAULT_DEVIATION_BUDGET)
            })
        });
        let repair_s = t.elapsed().as_secs_f64();
        let Some(repaired) = repaired else { continue };
        if pass.first {
            let covers = repaired.schedule.len() == app.len();
            ledger.check("the schedule covers its application", covers);
            let equilibrium = ledger.call("is_equilibrium_sampled", || {
                span("core.verify", || {
                    let schedule = &repaired.schedule;
                    scheduler.is_equilibrium_sampled(app, &tb, schedule, VERIFY_DEVIATIONS, s)
                })
            });
            if let Some(ok) = equilibrium {
                ledger.check("the admission is a sampled equilibrium", ok);
            }
        }
        let cfg = executor(s, fleet.discovery);
        let t = Instant::now();
        let report = ledger.attempt("execute", || {
            span("simulator.execute", || execute(&mut tb, app, &repaired.schedule, &cfg))
        });
        let execute_s = t.elapsed().as_secs_f64();
        let report = report.map(|(report, _trace)| report);
        let admission_s = solve_s + repair_s + execute_s;
        out.busy_s += admission_s;
        out.op_ms.push(vec![solve_s * 1e3, repair_s * 1e3, execute_s * 1e3]);
        out.sample("solve_ms", solve_s * 1e3);
        out.sample("repair_ms", repair_s * 1e3);
        out.sample("execute_ms", execute_s * 1e3);
        digest.add(&solved);
        digest.add(&repaired.schedule);
        if let Some(r) = &report {
            digest.add(r);
            out.jobs += 1;
        }
        out.data.push(Admitted {
            report,
            deviations: repaired.deviations,
            fell_back: repaired.fell_back,
        });
    }
    out.digest = digest.value();
    out
}

/// Layer probes on the next admission: the second pool dataflow solved
/// on a fresh replica of the warmed fleet.
fn probe(fleet: &Fleet, seed: u64, reports: &[&RunReport], ledger: &mut Ledger) -> Option<Probed> {
    let app = &fleet.pool[1];
    let s = derive(seed, 99);
    let scheduler = scheduler(s, fleet.discovery);
    let tb = ledger.call("replica", || span("simulator.replica", || fleet.tb.replica()))?;
    let schedule =
        ledger.call("schedule", || span("core.schedule", || scheduler.schedule(app, &tb)))?;
    let equilibrium = ledger.call("is_equilibrium_sampled", || {
        span("core.verify", || {
            scheduler.is_equilibrium_sampled(app, &tb, &schedule, VERIFY_DEVIATIONS, s)
        })
    });
    if let Some(ok) = equilibrium {
        ledger.check("the probed admission is a sampled equilibrium", ok);
    }
    ledger.call("layer probes", || {
        let subject = Subject {
            tb,
            app,
            scheduler: &scheduler,
            schedule: &schedule,
            cfg: executor(s, fleet.discovery),
            events: &[],
            gossip: (3, 8),
            seed: s,
        };
        probes::run(subject, reports)
    })
}

pub fn run(args: &Args, size: Size) -> Result<Report, String> {
    let admissions = if size == Size::Tiny { TINY_ADMISSIONS } else { ADMISSIONS };
    let mut report = Report::default();
    let driven = drive(
        args,
        &mut report.ledger,
        |ledger| setup(args.seed, size, ledger),
        |fleet, ledger, pass| round(fleet, args.seed, admissions, ledger, pass),
    );
    let Some(mut d) = driven else { return Err(report.ledger.failures.join("; ")) };
    let mut tally = Tally::default();
    let reports: Vec<&RunReport> = d.first.iter().filter_map(|a| a.report.as_ref()).collect();
    reports.iter().for_each(|r| tally.add(r));

    report.end_to_end(&d, &tally);
    for (name, key) in [
        ("solve_p50_ms", "solve_ms"),
        ("repair_p50_ms", "repair_ms"),
        ("execute_p50_ms", "execute_ms"),
    ] {
        report.median_note(name, d.samples.get(key).map_or(&[][..], Vec::as_slice), "ms");
    }
    if args.trace {
        let t = Instant::now();
        let probed = probe(&d.state, args.seed, &reports, &mut report.ledger);
        let tail_s = t.elapsed().as_secs_f64();
        let mut spans = std::mem::take(&mut d.traced.spans);
        append_spans(&mut spans, take_spans());
        report.per_layer(&spans, d.traced.wall_s + tail_s, &d.traced, &tally, probed.as_ref());
        let repairs: Vec<(usize, bool)> =
            d.first.iter().map(|a| (a.deviations, a.fell_back)).collect();
        report.repairs(&repairs);
        let fallbacks = repairs.iter().filter(|r| r.1).count();
        report.set("arrival.full_solves", (d.first.len() + fallbacks) as f64);
        let priced: f64 =
            ["solve_ms", "repair_ms"].iter().filter_map(|key| d.samples.get(key)).flatten().sum();
        report.set("arrival.solve_share", priced / d.op_ms.iter().sum::<f64>());
        // Closed loop: one admission in flight at a time.
        report.set("arrival.queue_depth_mean", 1.0);
        report.spans = spans;
    }
    Ok(report)
}
