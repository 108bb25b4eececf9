//! Layer probes: timed direct calls into one layer's public functions on
//! a workload's own testbed, application and schedule. Every call runs
//! in a span, so the probes also feed the traced run's self times.

use crate::measure::{mean, median, span};
use deep::arrival::{InferenceState, OutageInference};
use deep::core::{DeepScheduler, EstimationContext};
use deep::dataflow::{stages, Application};
use deep::game::DescentWorkspace;
use deep::netsim::Seconds;
use deep::registry::{LayerCache, ManifestSource, Platform};
use deep::simulator::{
    execute_with_events, ChaosEvent, ExecutorConfig, GossipPlane, Placement, RegistryChoice,
    RunReport, Schedule, Testbed,
};
use std::hint::black_box;
use std::time::Instant;

/// Per-call probes repeat over the application until they hold this
/// many samples.
const MIN_SAMPLES: usize = 64;
/// Cap on barrier rounds while waiting for gossip to converge.
const MAX_GOSSIP_ROUNDS: usize = 64;
/// Barrier rounds timed after convergence.
const STEADY_ROUNDS: usize = 32;
/// Devices whose first mesh view is timed.
const MAX_VIEWS: usize = 256;
/// Testbed replicas timed.
const REPLICAS: usize = 3;

/// What the probes run on: `tb` with `schedule` solved on it but not yet
/// executed, the scheduler that solved it, and how to execute it.
pub struct Subject<'a> {
    pub tb: Testbed,
    pub app: &'a Application,
    pub scheduler: &'a DeepScheduler,
    pub schedule: &'a Schedule,
    pub cfg: ExecutorConfig,
    pub events: &'a [ChaosEvent],
    /// Fanout and view size of the probed gossip plane.
    pub gossip: (u32, u32),
    pub seed: u64,
}

/// What the probes measured.
#[derive(Debug, Default)]
pub struct Probed {
    pub prefetch_us: f64,
    pub estimate_us: f64,
    pub stage_cells: usize,
    pub wave_games_ms: f64,
    pub descent_passes: usize,
    pub descent_converged: f64,
    pub resolve_us: f64,
    pub pull_estimate_us: f64,
    pub barrier_converging_us: f64,
    pub barrier_steady_us: f64,
    pub rounds_to_converge: usize,
    pub mesh_view_us: f64,
}

/// Probe the model and game layers on the solved testbed, execute the
/// schedule, then probe the registry and gossip layers on the caches the
/// execution filled. `reports` feed the arrival layer's outage inference.
pub fn run(mut s: Subject<'_>, reports: &[&RunReport]) -> Probed {
    let mut p = Probed::default();
    (p.prefetch_us, p.estimate_us, p.stage_cells) = stage_rows(&s);
    (p.wave_games_ms, p.descent_passes, p.descent_converged) = wave_games(&s);
    span("simulator.execute", || {
        execute_with_events(&mut s.tb, s.app, s.schedule, &s.cfg, s.events)
    })
    .expect("the probed schedule executes");
    p.resolve_us = resolve(&s.tb, s.app);
    p.pull_estimate_us = pull_estimate(&s.tb, s.app, s.schedule);
    (p.barrier_converging_us, p.barrier_steady_us, p.rounds_to_converge, p.mesh_view_us) =
        gossip(&s.tb, s.gossip, s.seed);
    for _ in 0..REPLICAS {
        black_box(span("simulator.replica", || s.tb.replica()));
    }
    inference(reports);
    p
}

/// An estimation context under `scheduler`'s configuration, as its
/// solves build one.
fn context<'t>(
    scheduler: &DeepScheduler,
    tb: &'t Testbed,
    app: &'t Application,
) -> EstimationContext<'t> {
    EstimationContext::new(tb, app)
        .peer_sharing(scheduler.peer_sharing)
        .peer_discovery(scheduler.peer_discovery, scheduler.discovery_seed)
        .price_faults(scheduler.price_faults)
        .scenario_pricing(scheduler.scenario)
        .at_clock(scheduler.start_clock)
        .starting_pull(scheduler.start_pull)
}

/// One sequential pass over the stage games: time each member's manifest
/// prefetch and its full payoff row (every registry × admissible device),
/// committing the scheduled placement before the next member. Returns
/// the median prefetch (µs), the mean estimate (µs) and the cell count.
fn stage_rows(s: &Subject<'_>) -> (f64, f64, usize) {
    let mut ctx = context(s.scheduler, &s.tb, s.app);
    let registries = ctx.registry_choices();
    let (mut prefetch_us, mut rows_s, mut cells) = (Vec::new(), 0.0, 0);
    for stage in stages(s.app) {
        ctx.begin_wave();
        for &id in &stage.members {
            let t = Instant::now();
            span("core.prefetch", || ctx.prefetch_manifests(id));
            prefetch_us.push(t.elapsed().as_secs_f64() * 1e6);
            let devices = ctx.admissible_devices(id);
            cells += registries.len() * devices.len();
            let t = Instant::now();
            span("core.estimate_row", || {
                for &registry in &registries {
                    for &device in &devices {
                        black_box(ctx.estimate(id, registry, device));
                    }
                }
            });
            rows_s += t.elapsed().as_secs_f64();
            ctx.commit(id, s.schedule.placement(id));
        }
    }
    (median(&prefetch_us), rows_s * 1e6 / cells as f64, cells)
}

/// Build the schedule's per-wave congestion games, then drive each one
/// by sparse potential descent from the scheduled profile. Returns the
/// build time (ms), the descent passes and the converged share.
fn wave_games(s: &Subject<'_>) -> (f64, usize, f64) {
    let profile: Vec<Placement> = s.app.ids().map(|id| s.schedule.placement(id)).collect();
    let t = Instant::now();
    let games = span("core.wave_games", || s.scheduler.wave_route_games(s.app, &s.tb, &profile));
    let games_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut ws = DescentWorkspace::new();
    let (mut passes, mut converged, mut played) = (0, 0, 0);
    for wave in games.iter().filter(|w| !w.resources.is_empty()) {
        let start: Vec<usize> = wave
            .members
            .iter()
            .enumerate()
            .map(|(p, id)| wave.strategies[p].iter().position(|&x| x == profile[id.0]).unwrap_or(0))
            .collect();
        let game = wave.game();
        let result = span("game.sparse_descent", || {
            game.sparse_descent(start, s.scheduler.max_refine_passes, &mut ws)
        });
        passes += result.passes;
        converged += usize::from(result.converged);
        played += 1;
    }
    (games_ms, passes, converged as f64 / played as f64)
}

/// Every platform the fleet runs, in device order.
fn platforms(tb: &Testbed) -> Vec<Platform> {
    let mut out = Vec::new();
    for device in &tb.devices {
        if !out.contains(&device.arch) {
            out.push(device.arch);
        }
    }
    out
}

/// Median regional `ManifestSource::resolve` (store read, integrity
/// SHA-256, manifest parse) over the application's images (µs).
fn resolve(tb: &Testbed, app: &Application) -> f64 {
    let archs = platforms(tb);
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES {
        let before = samples.len();
        for id in app.ids() {
            let Some(entry) = tb.entry(app.name(), &app.microservice(id).name) else { continue };
            for &arch in &archs {
                let reference = tb.reference(entry, RegistryChoice::Regional, arch);
                let t = Instant::now();
                black_box(span("registry.resolve", || tb.regional.resolve(&reference, arch)).ok());
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        if samples.len() == before {
            break;
        }
    }
    median(&samples)
}

/// Median `PullSession::estimate` of each scheduled pull over the
/// pulling device's `Testbed::mesh` (µs).
fn pull_estimate(tb: &Testbed, app: &Application, schedule: &Schedule) -> f64 {
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES {
        let before = samples.len();
        for id in app.ids() {
            let Some(entry) = tb.entry(app.name(), &app.microservice(id).name) else { continue };
            let placement = schedule.placement(id);
            let device = tb.device(placement.device);
            let reference = tb.reference(entry, placement.registry, device.arch);
            let mesh = tb.mesh(placement.device);
            let t = Instant::now();
            let outcome = span("registry.pull_estimate", || {
                mesh.session(placement.registry.registry_id())
                    .extract_bw(device.extract_bw)
                    .estimate(&reference, device.arch, &device.cache)
            });
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            black_box(outcome.ok());
        }
        if samples.len() == before {
            break;
        }
    }
    median(&samples)
}

/// A fresh gossip plane over the testbed's caches: barrier rounds until
/// it converges (mean µs per round, and the round count), barriers on the
/// unchanged fleet after that (median µs), and each device's first mesh
/// view (mean µs).
fn gossip(tb: &Testbed, (fanout, view_size): (u32, u32), seed: u64) -> (f64, f64, usize, f64) {
    let caches: Vec<&LayerCache> = tb.devices.iter().map(|d| &d.cache).collect();
    let mut plane = GossipPlane::new(caches.len(), fanout, view_size, 1, seed);
    let mut converging = Vec::new();
    while converging.len() < MAX_GOSSIP_ROUNDS {
        let t = Instant::now();
        span("simulator.gossip_barrier", || plane.barrier_round(&caches));
        converging.push(t.elapsed().as_secs_f64() * 1e6);
        if plane.converged() {
            break;
        }
    }
    let mut steady = Vec::with_capacity(STEADY_ROUNDS);
    for _ in 0..STEADY_ROUNDS {
        let t = Instant::now();
        span("simulator.gossip_barrier", || plane.barrier_round(&caches));
        steady.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut views = Vec::new();
    for target in 0..caches.len().min(MAX_VIEWS) {
        let t = Instant::now();
        black_box(span("simulator.mesh_view", || plane.mesh_view(&caches, target)));
        views.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (mean(&converging), median(&steady), converging.len(), mean(&views))
}

/// Fold the workload's reports through online outage inference.
fn inference(reports: &[&RunReport]) {
    let cfg = OutageInference::default();
    let mut state = InferenceState::default();
    span("arrival.inference", || {
        for report in reports {
            state.observe(&cfg, report, Seconds::ZERO);
        }
    });
    black_box(state.windows());
}
