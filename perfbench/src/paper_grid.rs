//! `paper-grid`: the paper's own regime. The calibrated two-device
//! testbed (Hub, regional, 0–3 mirrors) replays the checked-in scenario
//! grids through `run_scenario`, every cell once under
//! `DeepScheduler::fault_aware` and once under `scenario_scheduler`, and
//! the checked-in arrival soak through `run_plane` with incremental
//! repair and outage inference, with cell seeds derived from the
//! workload seed. Dense support-enumeration stage games, closed-form and
//! windowed pricing, many short chaos replays and paper-sized online
//! admissions do the work; the sparse scan and gossip stay idle, so a
//! fleet-scale optimisation should leave this workload unchanged.

use crate::driver::{drive, Pass, RoundOut};
use crate::measure::{append_spans, derive, mean, set_request, span, take_spans};
use crate::measure::{Digest, Ledger, Tally};
use crate::plane::{digest_jobs, traced_plane};
use crate::probes::{self, Probed, Subject};
use crate::{Args, Report, Size};
use deep::arrival::{
    run_plane, ArrivalOutcome, ArrivalPlane, OutageInference, DEFAULT_DEVIATION_BUDGET,
};
use deep::core::calibration::calibrated_testbed;
use deep::core::{
    distribution_table, run_scenario, scenario_scheduler, scenario_testbed, DeepScheduler,
    ScenarioOutcome, Scheduler,
};
use deep::dataflow::apps;
use deep::scenario::Scenario;
use deep::simulator::{execute_with_events, RunReport};
use std::hint::black_box;
use std::time::Instant;

/// The replayed grids, as checked in under `scenarios/`.
const GRIDS: [(&str, &str); 5] = [
    ("fault_sweep", include_str!("../../scenarios/fault_sweep.toml")),
    ("n_regional_sweep", include_str!("../../scenarios/n_regional_sweep.toml")),
    ("registry_sweep", include_str!("../../scenarios/registry_sweep.toml")),
    ("soak_sticky_outage", include_str!("../../scenarios/soak_sticky_outage.toml")),
    ("soak_smoke", include_str!("../../scenarios/soak_smoke.toml")),
];

/// The arrival soak replayed through the arrival plane, as checked in.
const ARRIVAL_SOAK: &str = include_str!("../../scenarios/arrival_soak.toml");

/// Replications per cell in the self-test's tiny pass.
const TINY_REPLICATIONS: u32 = 2;

/// One expanded grid cell.
struct Cell {
    grid: &'static str,
    scenario: Scenario,
}

/// The grid cells and the arrival soak's cells.
struct Grid {
    cells: Vec<Cell>,
    soaks: Vec<Scenario>,
}

/// One round's outputs: per grid cell and scheduler, then per soak cell
/// with its `run_plane` wall seconds.
#[derive(Default)]
struct Outputs {
    cells: Vec<Option<ScenarioOutcome>>,
    soaks: Vec<Option<(ArrivalOutcome, f64)>>,
}

/// The arrival plane the soak runs under.
fn arrival_plane() -> ArrivalPlane {
    ArrivalPlane { inference: Some(OutageInference::default()), ..ArrivalPlane::default() }
}

/// The two schedulers every cell runs under, fault-aware first.
fn schedulers(cell: &Scenario) -> [DeepScheduler; 2] {
    [DeepScheduler::fault_aware(), scenario_scheduler(cell)]
}

/// Parse and expand every grid and the arrival soak, giving each cell a
/// seed derived from the workload seed.
fn load(seed: u64, size: Size) -> Result<Grid, String> {
    let mut cells = Vec::new();
    for (g, (grid, text)) in GRIDS.into_iter().enumerate() {
        let parsed =
            span("scenario.parse", || Scenario::parse(text)).map_err(|e| format!("{grid}: {e}"))?;
        for (c, mut scenario) in span("scenario.expand", || parsed.expand()).into_iter().enumerate()
        {
            scenario.seed = derive(seed, (100 * g + c) as u64);
            if size == Size::Tiny {
                scenario.replications = scenario.replications.min(TINY_REPLICATIONS);
            }
            cells.push(Cell { grid, scenario });
        }
    }
    let soak = span("scenario.parse", || Scenario::parse(ARRIVAL_SOAK))
        .map_err(|e| format!("arrival_soak: {e}"))?;
    let mut soaks = span("scenario.expand", || soak.expand());
    for (c, scenario) in soaks.iter_mut().enumerate() {
        scenario.seed = derive(seed, (100 * GRIDS.len() + c) as u64);
    }
    Ok(Grid { cells, soaks })
}

/// Set-up: parse the grids and build every cell's testbed once.
fn setup(seed: u64, size: Size, ledger: &mut Ledger) -> Option<Grid> {
    let grid = ledger.attempt("parse and expand the grids", || load(seed, size))?;
    for scenario in grid.cells.iter().map(|c| &c.scenario).chain(&grid.soaks) {
        ledger.call("scenario_testbed", || {
            span("simulator.testbed_build", || black_box(scenario_testbed(scenario)))
        })?;
    }
    Some(grid)
}

/// One pass over every cell under both schedulers, then over the soak.
fn round(grid: &Grid, ledger: &mut Ledger, pass: Pass) -> RoundOut<Outputs> {
    let mut out: RoundOut<Outputs> = RoundOut::default();
    let mut digest = Digest::default();
    for (i, cell) in grid.cells.iter().enumerate() {
        for (k, scheduler) in schedulers(&cell.scenario).iter().enumerate() {
            set_request((2 * i + k) as u64);
            let t = Instant::now();
            let outcome = ledger.call("run_scenario", || {
                if pass.traced {
                    traced_run_scenario(&cell.scenario, scheduler)
                } else {
                    run_scenario(&cell.scenario, scheduler)
                }
            });
            let seconds = t.elapsed().as_secs_f64();
            out.busy_s += seconds;
            out.op_ms.push(vec![seconds * 1e3]);
            if let Some(o) = &outcome {
                out.jobs += o.reports.len();
                digest.add(&o.schedule);
                o.reports.iter().for_each(|r| digest.add(r));
            }
            out.data.cells.push(outcome);
        }
    }
    let plane = arrival_plane();
    for (j, soak) in grid.soaks.iter().enumerate() {
        set_request((2 * grid.cells.len() + j) as u64);
        let t = Instant::now();
        let outcome = ledger.call("run_plane", || {
            if pass.traced {
                traced_plane(soak, &plane)
            } else {
                run_plane(soak, &plane)
            }
        });
        let seconds = t.elapsed().as_secs_f64();
        out.busy_s += seconds;
        out.op_ms.push(vec![seconds * 1e3]);
        if let Some(o) = &outcome {
            out.jobs += o.jobs.len();
            digest_jobs(&mut digest, o);
            if pass.first {
                let arrivals: usize = soak.arrivals.iter().map(|a| a.count).sum();
                ledger.check(
                    "every arrival of every soak replication completes",
                    o.jobs.len() == arrivals * soak.replications as usize,
                );
            }
        }
        out.data.soaks.push(outcome.map(|o| (o, seconds)));
    }
    out.digest = digest.value();
    out
}

/// `run_scenario` re-issued public call by public call, each in a span.
fn traced_run_scenario(scenario: &Scenario, scheduler: &DeepScheduler) -> ScenarioOutcome {
    span("core.run_scenario", || {
        let tb = span("simulator.testbed_build", || scenario_testbed(scenario));
        let app = scenario.application();
        let schedule = span("core.schedule", || scheduler.schedule(&app, &tb));
        let events = scenario.chaos_events();
        let reports: Vec<RunReport> = (0..scenario.replications)
            .map(|r| {
                let mut run_tb = span("simulator.replica", || tb.replica());
                let cfg = scenario.executor_config(r);
                span("simulator.execute", || {
                    execute_with_events(&mut run_tb, &app, &schedule, &cfg, &events)
                })
                .expect("scenario executes")
                .0
            })
            .collect();
        ScenarioOutcome {
            scenario: scenario.name.clone(),
            scheduler: scheduler.name().to_string(),
            schedule,
            reports,
        }
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

/// Output checks on the first round: Table III on the calibrated paper
/// testbed, an equilibrium on every schedule, and the sticky soak's
/// priced schedule never failing over while beating `fault_aware`. A
/// traced run also repairs every schedule and returns the repairs'
/// deviations and fallbacks.
fn check(
    cells: &[Cell],
    outcomes: &[Option<ScenarioOutcome>],
    ledger: &mut Ledger,
    trace: bool,
) -> Vec<(usize, bool)> {
    let tb = calibrated_testbed();
    let table3 = [
        // Paper Table III: text-processing 17 % Hub + 17 % regional on the
        // medium device and 66 % regional on the small one (83 %
        // regional); video-processing 83 % Hub on medium, 17 % regional
        // on small.
        (apps::text_processing(), [(1.0 / 6.0, 1.0 / 6.0), (0.0, 4.0 / 6.0)]),
        (apps::video_processing(), [(5.0 / 6.0, 0.0), (0.0, 1.0 / 6.0)]),
    ];
    for (app, expected) in table3 {
        let schedule = ledger.call("Table III schedule", || {
            span("core.schedule", || DeepScheduler::paper().schedule(&app, &tb))
        });
        if let Some(schedule) = schedule {
            let rows = distribution_table(&app, &schedule);
            let ok = rows.len() == 2
                && rows.iter().zip(expected).all(|(row, (hub, regional))| {
                    close(row.hub_share, hub) && close(row.regional_share, regional)
                });
            ledger.check(&format!("Table III distribution of {}", app.name()), ok);
        }
    }
    let mut repairs = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let Some(tb) = ledger.call("scenario_testbed", || {
            span("simulator.testbed_build", || scenario_testbed(&cell.scenario))
        }) else {
            continue;
        };
        let app = cell.scenario.application();
        for (k, scheduler) in schedulers(&cell.scenario).iter().enumerate() {
            let Some(outcome) = &outcomes[2 * i + k] else { continue };
            let equilibrium = ledger.call("is_equilibrium", || {
                span("core.verify", || scheduler.is_equilibrium(&app, &tb, &outcome.schedule))
            });
            if let Some(ok) = equilibrium {
                ledger.check(&format!("{} schedule {k} is an equilibrium", cell.scenario.name), ok);
            }
            if trace {
                let repaired = ledger.call("incremental_repair", || {
                    span("core.repair", || {
                        scheduler.incremental_repair(
                            &app,
                            &tb,
                            &outcome.schedule,
                            DEFAULT_DEVIATION_BUDGET,
                        )
                    })
                });
                if let Some(r) = repaired {
                    repairs.push((r.deviations, r.fell_back));
                }
            }
        }
        if cell.grid == "soak_sticky_outage" {
            if let (Some(aware), Some(priced)) = (&outcomes[2 * i], &outcomes[2 * i + 1]) {
                ledger.check(
                    "sticky soak: the priced schedule never fails over and beats fault_aware",
                    priced.failovers() == 0 && priced.mean_td() < aware.mean_td(),
                );
            }
        }
    }
    repairs
}

/// Layer probes on the smoke soak (rates, a mirror outage, degradation,
/// cache pressure and a registry GC) under its scenario-priced schedule.
fn probe(
    cells: &[Cell],
    outcomes: &[Option<ScenarioOutcome>],
    ledger: &mut Ledger,
    seed: u64,
) -> Option<Probed> {
    let i = cells.iter().position(|c| c.grid == "soak_smoke")?;
    let cell = &cells[i].scenario;
    let outcome = outcomes[2 * i + 1].as_ref()?;
    let scheduler = scenario_scheduler(cell);
    let app = cell.application();
    let events = cell.chaos_events();
    let reports: Vec<&RunReport> = outcomes.iter().flatten().flat_map(|o| &o.reports).collect();
    ledger.call("layer probes", || {
        let subject = Subject {
            tb: span("simulator.testbed_build", || scenario_testbed(cell)),
            app: &app,
            scheduler: &scheduler,
            schedule: &outcome.schedule,
            cfg: cell.executor_config(0),
            events: &events,
            gossip: (1, 8),
            seed,
        };
        probes::run(subject, &reports)
    })
}

pub fn run(args: &Args, size: Size) -> Result<Report, String> {
    let mut report = Report::default();
    let driven = drive(args, &mut report.ledger, |ledger| setup(args.seed, size, ledger), round);
    let Some(mut d) = driven else { return Err(report.ledger.failures.join("; ")) };
    let soaks: Vec<&(ArrivalOutcome, f64)> = d.first.soaks.iter().flatten().collect();
    let mut tally = Tally::default();
    for outcome in d.first.cells.iter().flatten() {
        outcome.reports.iter().for_each(|r| tally.add(r));
    }
    let mut react_s = Vec::new();
    for job in soaks.iter().flat_map(|(o, _)| o.measured()) {
        tally.add(&job.report);
        react_s.push(job.time_to_react());
    }
    let t = Instant::now();
    let mut repairs = check(&d.state.cells, &d.first.cells, &mut report.ledger, args.trace);
    let probed = if args.trace {
        probe(&d.state.cells, &d.first.cells, &mut report.ledger, args.seed)
    } else {
        None
    };
    let tail_s = t.elapsed().as_secs_f64();

    report.end_to_end(&d, &tally);
    report.median_note("cell_p50_ms", &d.op_ms, "ms");
    report.tail_note("cell_p90_ms", &d.op_ms, 90.0, "ms");
    report.note(format!("sim_react_mean_s = {} s (n={})", mean(&react_s), react_s.len()));
    if args.trace {
        let mut spans = std::mem::take(&mut d.traced.spans);
        append_spans(&mut spans, take_spans());
        report.per_layer(&spans, d.traced.wall_s + tail_s, &d.traced, &tally, probed.as_ref());
        // Every soak admission with an incumbent attempted a repair; a
        // fallback also counts as a full solve.
        let stats: Vec<_> = soaks.iter().flat_map(|(o, _)| &o.jobs).map(|j| &j.repair).collect();
        repairs.extend(
            stats
                .iter()
                .filter(|s| !s.full_solve || s.fell_back)
                .map(|s| (s.deviations, s.fell_back)),
        );
        report.repairs(&repairs);
        let solves =
            d.first.cells.iter().flatten().count() + stats.iter().filter(|s| s.full_solve).count();
        report.set("arrival.full_solves", solves as f64);
        let priced_s = stats.iter().map(|s| s.micros as f64).sum::<f64>() / 1e6;
        let plane_s: f64 = soaks.iter().map(|(_, wall_s)| wall_s).sum();
        report.set("arrival.solve_share", priced_s / plane_s);
        let depths: Vec<f64> = soaks.iter().map(|(o, _)| o.mean_queue_depth()).collect();
        report.set("arrival.queue_depth_mean", mean(&depths));
        report.spans = spans;
    }
    Ok(report)
}
