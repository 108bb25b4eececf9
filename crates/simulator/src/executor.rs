//! Execute an application under a schedule on the simulated testbed.
//!
//! Faithful to the paper's execution model:
//!
//! * **Staged deployment waves** — each stage's images are pulled when the
//!   stage is reached; pulls within a wave are concurrent and contend on
//!   shared registry→device routes (the prisoner's-dilemma mechanism of
//!   the deployment game). Layer-cache state carries across waves and
//!   applications, so sibling images dedup.
//! * **Barrier-ordered, non-concurrent execution** — the paper measures
//!   `EC(m_i, d_j)` "during each microservice (non-concurrently)
//!   execution"; stage members execute sequentially in id order.
//! * **Analytic energy** — each microservice's energy is the paper's
//!   Section III-D2 model over its measured phases:
//!   `EC = P_deploy·Td + P_transfer·Tc + P_proc(m)·Tp + P_static·CT`.

use crate::chaos::{ChaosEvent, ChaosKind};
use crate::jitter::Jitter;
use crate::metrics::{MicroserviceMetrics, RunReport};
use crate::schedule::{Placement, RegistryChoice, Schedule};
use crate::testbed::{lookup_entry, peer_holder, PeerViews, RouteLoads, Testbed};
use crate::trace::{ChaosEffect, Monitor, Recorder, Subject, Trace, TraceKind};
use deep_dataflow::{stages, Application, MicroserviceId};
use deep_energy::Joules;
use deep_netsim::{DataSize, DeviceId, RegistryId, Seconds};
use deep_registry::{FaultPlan, LayerCache, PullOutcome, PullSession, Reference, RegistryError};
use std::fmt;
use std::sync::Arc;

/// How pulls discover which fleet peers hold which layers (only
/// consulted when [`ExecutorConfig::peer_sharing`] is on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerDiscovery {
    /// The omniscient catalog, and the default discovery mode: every
    /// wave barrier snapshots every *other* device's current cache
    /// ([`crate::PeerPlane::snapshot`]), served from one source per
    /// non-empty holder that every puller shares
    /// ([`crate::PeerPlane::barrier`]).
    #[default]
    Snapshot,
    /// Decentralized epidemic discovery ([`crate::GossipPlane`]): each
    /// device advertises its cache under an epoch, `rounds_per_wave`
    /// seeded push/pull rounds (at `fanout` partners per device) run at
    /// every wave barrier, and a pull's mesh carries at most
    /// `view_size` holder sources from the *puller's partial view*.
    /// Layers gossip hasn't propagated are simply absent (and priced as
    /// absent by the estimator); stale advertisements fail over
    /// mid-pull. With `fanout >= devices - 1`, one round per wave and
    /// an unbounded view this reproduces [`PeerDiscovery::Snapshot`]
    /// byte for byte.
    Gossip {
        /// Exchange partners per device per round (clamped to
        /// `devices - 1`).
        fanout: u32,
        /// Max holder sources one pull's mesh may carry.
        view_size: u32,
        /// Epidemic rounds per wave barrier.
        rounds_per_wave: u32,
    },
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Seed for the run's jitter stream.
    pub seed: u64,
    /// Relative jitter amplitude on every phase duration (0 = exact).
    pub jitter: f64,
    /// `true` (paper behaviour): pull images per stage wave. `false`
    /// (ablation): pull everything in a single wave at t = 0.
    pub staged_deployment: bool,
    /// Register the testbed's peer plane in each pull's mesh,
    /// snapshotting the *other* devices' layer caches at the wave
    /// barrier: layers a fleet peer already holds are fetched over the
    /// peer links instead of the registry route. Under the default
    /// [`crate::PeerPlane::PerPair`] plane each serving device becomes
    /// its own blob source (mesh ids [`crate::REGISTRY_PEER_BASE`]`+ j`)
    /// at its per-pair link rate, and concurrent same-wave pulls it
    /// serves contend on *its* uplink ([`crate::route_key`]); the
    /// retained [`crate::PeerPlane::Aggregate`] oracle registers the
    /// single anonymous [`crate::REGISTRY_PEER`] source of the scalar
    /// model. `false` (paper behaviour) keeps every pull on its
    /// placement's single registry.
    pub peer_sharing: bool,
    /// How peers are discovered when `peer_sharing` is on: the
    /// omniscient snapshot catalog (default) or seeded epidemic gossip
    /// with bounded views. Ignored without `peer_sharing`.
    pub peer_discovery: PeerDiscovery,
    /// Inject seeded faults sampled from the testbed's
    /// [`Testbed::fault_model`] into every pull's session
    /// ([`deep_registry::PullSession::with_faults`]): the primary and each
    /// peer holder are drawn dead with their per-pull fatal probability
    /// (the session fails the remaining layers over to survivors — every
    /// other full registry rides along as a standby source), and each
    /// blob fetch draws transient failures retried under the model's
    /// policy. Pulls are numbered in execution order (wave order, then
    /// member order), so [`deep_registry::FaultPlan`] queries predict a
    /// run's faults exactly. With a zero fault model this path is byte-identical to
    /// the uninjected one (regression-tested).
    pub fault_injection: bool,
    /// Seed of the injected [`deep_registry::FaultPlan`] — sweep it for
    /// Monte-Carlo realisations of the same model.
    pub fault_seed: u64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            seed: 0,
            jitter: 0.0,
            staged_deployment: true,
            peer_sharing: false,
            peer_discovery: PeerDiscovery::Snapshot,
            fault_injection: false,
            fault_seed: 0,
        }
    }
}

/// Executor failures.
#[derive(Debug)]
pub enum ExecError {
    /// Schedule length doesn't match the application.
    ScheduleMismatch { app: usize, schedule: usize },
    /// A microservice's requirements don't fit its assigned device.
    Inadmissible { microservice: String, device: DeviceId },
    /// Image missing from the chosen registry.
    Registry(deep_registry::RegistryError),
    /// No catalog entry for a microservice (publish the app first).
    UnknownImage { application: String, microservice: String },
    /// A placement names a device the testbed does not have.
    UnknownDevice { microservice: String, device: DeviceId },
    /// A placement names a primary that is no full registry of the
    /// testbed ([`Testbed::registry_choices`]).
    UnknownRegistry { microservice: String, registry: RegistryChoice },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ScheduleMismatch { app, schedule } => {
                write!(f, "schedule covers {schedule} microservices, app has {app}")
            }
            ExecError::Inadmissible { microservice, device } => {
                write!(f, "{microservice} does not fit on {device}")
            }
            ExecError::Registry(e) => write!(f, "registry: {e}"),
            ExecError::UnknownImage { application, microservice } => {
                write!(f, "no published image for {application}/{microservice}")
            }
            ExecError::UnknownDevice { microservice, device } => {
                write!(f, "{microservice} is placed on {device}, which the testbed lacks")
            }
            ExecError::UnknownRegistry { microservice, registry } => {
                write!(f, "{microservice} pulls from {registry}, which is no testbed registry")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<deep_registry::RegistryError> for ExecError {
    fn from(e: deep_registry::RegistryError) -> Self {
        ExecError::Registry(e)
    }
}

/// Run `app` under `schedule` on `testbed`. Mutates device caches (images
/// stay cached across runs unless [`Testbed::reset_caches`] is called) and
/// returns the run report plus the monitoring trace. A caller that drops
/// the trace runs [`execute_monitored`] with `()` instead and records
/// nothing.
pub fn execute(
    testbed: &mut Testbed,
    app: &Application,
    schedule: &Schedule,
    cfg: &ExecutorConfig,
) -> Result<(RunReport, Trace), ExecError> {
    execute_with_events(testbed, app, schedule, cfg, &[])
}

/// [`execute`], replaying a scripted [`ChaosEvent`] timeline alongside
/// the run: every event whose time has been reached fires at the next
/// wave barrier, after the wave's peer gossip round (see the
/// [`crate::chaos`] module docs for the semantics). An empty timeline
/// is byte-identical to [`execute`]. The testbed fault model's
/// [`deep_registry::OutageWindow`]s are also gated here, on the same
/// clock — they require `cfg.fault_injection` (windows are read from the
/// session's fault plan). Returns the monitoring trace with the report;
/// [`execute_monitored`] with `()` runs the same computation and keeps
/// none.
pub fn execute_with_events(
    testbed: &mut Testbed,
    app: &Application,
    schedule: &Schedule,
    cfg: &ExecutorConfig,
    events: &[ChaosEvent],
) -> Result<(RunReport, Trace), ExecError> {
    execute_monitored(testbed, app, schedule, cfg, events, Trace::new())
}

/// [`execute_with_events`], reporting every event to `monitor` and
/// handing it back with the report: pass `()` to keep nothing (the
/// report is the same bytes either way) or a [`Trace`] to keep the log.
pub fn execute_monitored<M: Monitor>(
    testbed: &mut Testbed,
    app: &Application,
    schedule: &Schedule,
    cfg: &ExecutorConfig,
    events: &[ChaosEvent],
    monitor: M,
) -> Result<(RunReport, M), ExecError> {
    validate_schedule(testbed, app, schedule)?;
    let mut exec = OnlineExecutor::with_monitor(testbed, cfg, events, monitor);
    let waves = plan_waves(app, cfg.staged_deployment);
    let mut run = exec.begin_job(app);
    for (wave_idx, wave) in waves.iter().enumerate() {
        exec.run_wave(testbed, app, schedule, wave, wave_idx, &mut run)?;
    }
    let report = run.into_report(app, schedule, exec.clock());
    Ok((report, exec.into_monitor()))
}

/// Check that `schedule` covers `app`, that every placement names a
/// testbed device and full registry, and that its device admits its
/// microservice — the up-front validation [`execute`] runs before
/// touching any state, exposed so the arrival plane can vet each
/// admission the same way.
pub fn validate_schedule(
    testbed: &Testbed,
    app: &Application,
    schedule: &Schedule,
) -> Result<(), ExecError> {
    if schedule.len() != app.len() {
        return Err(ExecError::ScheduleMismatch { app: app.len(), schedule: schedule.len() });
    }
    let registries = testbed.registry_choices();
    for id in app.ids() {
        let ms = app.microservice(id);
        let placement = schedule.placement(id);
        if placement.device.0 >= testbed.devices.len() {
            return Err(ExecError::UnknownDevice {
                microservice: ms.name.clone(),
                device: placement.device,
            });
        }
        if !registries.contains(&placement.registry) {
            return Err(ExecError::UnknownRegistry {
                microservice: ms.name.clone(),
                registry: placement.registry,
            });
        }
        if !testbed.device(placement.device).admits(&ms.requirements) {
            return Err(ExecError::Inadmissible {
                microservice: ms.name.clone(),
                device: placement.device,
            });
        }
    }
    Ok(())
}

/// The deployment waves of `app`: the stage member lists under staged
/// deployment (paper behaviour), one flat wave otherwise.
pub fn plan_waves(app: &Application, staged: bool) -> Vec<Vec<MicroserviceId>> {
    if staged {
        stages(app).into_iter().map(|s| s.members).collect()
    } else {
        vec![app.ids().collect()]
    }
}

/// Per-job measurement accumulator for one application run on an
/// [`OnlineExecutor`] timeline. Created at admission via
/// [`OnlineExecutor::begin_job`], filled wave by wave, and folded into a
/// [`RunReport`] whose makespan is measured relative to the job's own
/// start — so a job admitted mid-soak reports the same spans it would
/// report alone.
#[derive(Debug)]
pub struct JobRun {
    /// The job's number in its session, naming its monitored events.
    job: usize,
    started: Seconds,
    /// Per microservice, by id.
    members: Vec<MemberRun>,
}

/// One microservice's measurements within a [`JobRun`].
#[derive(Debug, Clone, Default)]
struct MemberRun {
    td: Seconds,
    tc: Seconds,
    tp: Seconds,
    downloaded_mb: f64,
    sources: Vec<deep_registry::SourcePull>,
    failed_sources: Vec<RegistryId>,
    backoff: Seconds,
    energy: Joules,
}

impl JobRun {
    fn new(job: usize, len: usize, started: Seconds) -> JobRun {
        JobRun { job, started, members: vec![MemberRun::default(); len] }
    }

    /// Executor clock when the job began.
    pub fn started(&self) -> Seconds {
        self.started
    }

    /// Fold the accumulated measurements into a [`RunReport`]; `end` is
    /// the executor clock after the job's last wave. The per-member source
    /// lists move in as the pull built them, at exact size.
    pub fn into_report(
        mut self,
        app: &Application,
        schedule: &Schedule,
        end: Seconds,
    ) -> RunReport {
        let microservices = app
            .ids()
            .map(|id| {
                let ms = app.microservice(id);
                let member = &mut self.members[id.0];
                MicroserviceMetrics {
                    name: ms.name.clone(),
                    placement: schedule.placement(id),
                    td: member.td,
                    tc: member.tc,
                    tp: member.tp,
                    downloaded_mb: member.downloaded_mb,
                    sources: std::mem::take(&mut member.sources),
                    failed_sources: std::mem::take(&mut member.failed_sources),
                    backoff_total: member.backoff,
                    energy: member.energy,
                }
            })
            .collect();
        RunReport {
            application: app.name().to_string(),
            microservices,
            makespan: end - self.started,
        }
    }
}

/// The executor's persistent cross-wave state, split out of
/// [`execute_with_events`] so the arrival plane (the `deep-arrival`
/// crate) can interleave *multiple* jobs on one continuous timeline:
/// jitter stream, monitor, the wave clock,
/// the execution-order pull counter the fault plan indexes, and the
/// scripted chaos timeline all survive across [`OnlineExecutor::run_wave`]
/// calls. The fault plan is sampled **once** at session start, so
/// mutating `testbed.fault_model` between waves (e.g. feeding inferred
/// outage windows back to the scheduler) never changes what the session
/// injects. Driving one job's waves straight through reproduces
/// [`execute_with_events`] byte for byte — the static-parity contract
/// the arrival plane's regression tests pin.
///
/// The session reports its events to a [`Monitor`]: the `Trace` that
/// [`OnlineExecutor::new`] opens with keeps the log, and `()` (passed to
/// [`OnlineExecutor::with_monitor`]) keeps nothing. Both run the same
/// computation.
pub struct OnlineExecutor<M = Trace> {
    cfg: ExecutorConfig,
    jitter: Jitter,
    recorder: Recorder<M>,
    /// Jobs begun so far (the next job's number).
    jobs: usize,
    clock: Seconds,
    pull_counter: u64,
    fault_plan: Option<FaultPlan>,
    timeline: Vec<ChaosEvent>,
    next_event: usize,
    /// The same-wave route ledger, zeroed at each wave barrier and kept
    /// across waves, so a wave allocates no lanes its predecessors made.
    route_load: RouteLoads,
    /// The epidemic discovery plane, present iff `cfg.peer_sharing` with
    /// [`PeerDiscovery::Gossip`]. Session-scoped, like the fault plan:
    /// views persist across waves (and across jobs in an online
    /// session), so discovery lag carries over exactly as it would in a
    /// long-lived fleet.
    gossip: Option<crate::gossip::GossipPlane>,
}

/// Fire every scripted event due at or before `clock` against the
/// testbed. `peer_views` holds the in-flight wave's barrier views (an
/// eviction retracts the holder's own stale advertisements); callers
/// firing between waves pass empty views.
#[allow(clippy::too_many_arguments)]
fn fire_scripted_events(
    timeline: &[ChaosEvent],
    next_event: &mut usize,
    clock: Seconds,
    testbed: &mut Testbed,
    peer_views: &mut PeerViews,
    mut gossip: Option<&mut crate::gossip::GossipPlane>,
    recorder: &mut Recorder<impl Monitor>,
) -> Result<(), ExecError> {
    while *next_event < timeline.len() && timeline[*next_event].at.as_f64() <= clock.as_f64() {
        let event = &timeline[*next_event];
        *next_event += 1;
        let gc;
        let effect = match &event.kind {
            ChaosKind::CachePressure { device, keep } => {
                let evicted = testbed.device_mut(*device).cache.evict_to(*keep);
                for victim in &evicted {
                    for (id, src) in peer_views.sources_mut() {
                        match peer_holder(*id) {
                            // The holder's own source: the layer is gone.
                            Some(holder) if holder == *device => {
                                src.retract(victim);
                            }
                            Some(_) => {}
                            // Aggregate plane: anonymous fleet source —
                            // retract only when no other device still
                            // holds the layer.
                            None => {
                                let held_elsewhere = testbed
                                    .devices
                                    .iter()
                                    .any(|d| d.id != *device && d.cache.contains(victim));
                                if !held_elsewhere {
                                    src.retract(victim);
                                }
                            }
                        }
                    }
                }
                // Gossip discovery: the holder re-advertises its shrunk
                // cache *now* (epoch bump), so the stale advertisement
                // ages out of remote views as later rounds spread the
                // fresh epoch. The in-flight views above stay stale
                // on purpose — those pulls pay a failover, never a wrong
                // estimate.
                if !evicted.is_empty() {
                    if let Some(plane) = gossip.as_mut() {
                        plane.readvertise(*device, &testbed.device(*device).cache);
                    }
                }
                ChaosEffect::Evicted { device: *device, layers: evicted.len() }
            }
            ChaosKind::DeleteTag { repository, tag } => {
                testbed.regional.delete_manifest(repository, tag)?;
                ChaosEffect::TagDeleted { repository, tag }
            }
            ChaosKind::RegistryGc => {
                gc = deep_registry::gc_collect(&mut testbed.regional)?;
                ChaosEffect::Collected(&gc)
            }
        };
        let subject = Subject::Chaos { scripted: event.at, effect };
        recorder.record(clock, TraceKind::ChaosEventFired, event.device(), subject);
    }
    Ok(())
}

/// Realise one wave member's pull of `reference` into `cache` (the
/// pulling device's cache, taken out of `testbed`) through
/// [`Testbed::placement_mesh`]. Under fault injection (`faults`: the
/// session's plan, the pull's execution-order number and the clock) every
/// other full registry rides along as a standby, the plan's windows slow
/// and darken sources at the clock, and the session injects the plan's
/// draws and retries under the plan's policy, which the plan's transient
/// cap keeps from running out.
fn pull_through(
    testbed: &Testbed,
    placement: Placement,
    reference: &Reference,
    cache: &mut LayerCache,
    route_load: &RouteLoads,
    peers: &PeerViews,
    faults: Option<(&FaultPlan, u64, Seconds)>,
) -> Result<PullOutcome, RegistryError> {
    let device = testbed.device(placement.device);
    let windows = faults.map(|(plan, _, clock)| (plan.model(), clock));
    let mesh = testbed.placement_mesh(placement, peers, route_load, windows, faults.is_some());
    let mut session =
        PullSession::new(&mesh, placement.registry.registry_id()).extract_bw(device.extract_bw);
    if let Some((plan, pull_idx, clock)) = faults {
        session = session.with_retry(plan.model().retry).with_faults(plan, pull_idx, clock);
    }
    session.pull(reference, device.arch, cache)
}

impl OnlineExecutor {
    /// Open a session on `testbed` that keeps its [`Trace`]; see
    /// [`OnlineExecutor::with_monitor`].
    pub fn new(testbed: &Testbed, cfg: &ExecutorConfig, events: &[ChaosEvent]) -> OnlineExecutor {
        OnlineExecutor::with_monitor(testbed, cfg, events, Trace::new())
    }

    /// Consume the session, returning its monitoring trace.
    pub fn into_trace(self) -> Trace {
        self.into_monitor()
    }
}

impl<M: Monitor> OnlineExecutor<M> {
    /// Open a session on `testbed` that reports its events to `monitor`.
    /// Samples the fault plan from the *current* `testbed.fault_model`
    /// (when `cfg.fault_injection` is on) and sorts the chaos timeline;
    /// neither is re-read later.
    pub fn with_monitor(
        testbed: &Testbed,
        cfg: &ExecutorConfig,
        events: &[ChaosEvent],
        monitor: M,
    ) -> OnlineExecutor<M> {
        let fault_plan: Option<FaultPlan> =
            if cfg.fault_injection { Some(testbed.fault_model.plan(cfg.fault_seed)) } else { None };
        let mut timeline: Vec<ChaosEvent> = events.to_vec();
        timeline.sort_by(|a, b| a.at.as_f64().total_cmp(&b.at.as_f64()));
        let gossip = if cfg.peer_sharing {
            crate::gossip::GossipPlane::for_discovery(
                cfg.peer_discovery,
                testbed.devices.len(),
                cfg.seed,
            )
        } else {
            None
        };
        OnlineExecutor {
            cfg: *cfg,
            jitter: Jitter::new(cfg.seed, cfg.jitter),
            recorder: Recorder::new(monitor),
            jobs: 0,
            clock: Seconds::ZERO,
            pull_counter: 0,
            fault_plan,
            timeline,
            next_event: 0,
            route_load: RouteLoads::new(testbed.devices.len()),
            gossip,
        }
    }

    /// The session clock (advanced by each wave's pull span and
    /// execution phases, and by [`OnlineExecutor::advance_to`]).
    pub fn clock(&self) -> Seconds {
        self.clock
    }

    /// Pulls committed so far, in execution order — the index the fault
    /// plan (and an online [`crate::Schedule`] estimator) continues from.
    pub fn pulls(&self) -> u64 {
        self.pull_counter
    }

    /// Idle fast-forward: advance the clock to `t` (never backwards).
    /// Chaos events falling in the gap fire at the next wave barrier,
    /// exactly as they would inside a long wave — or earlier, if the
    /// caller makes the gap an explicit barrier with
    /// [`OnlineExecutor::fire_due_events`].
    pub fn advance_to(&mut self, t: Seconds) {
        self.clock = self.clock.max(t);
    }

    /// Fire every scripted chaos event due at or before the current
    /// clock, outside any wave — an explicit barrier. The arrival plane
    /// calls this after an idle fast-forward so gap chaos (cache
    /// evictions, tag deletes, GC) is visible to the next admission's
    /// scheduling pass instead of landing one wave barrier late.
    /// Within-wave semantics (gossip-then-fire, stale peer
    /// advertisements) are unchanged: with no wave in flight there are
    /// no views to go stale.
    pub fn fire_due_events(&mut self, testbed: &mut Testbed) -> Result<(), ExecError> {
        fire_scripted_events(
            &self.timeline,
            &mut self.next_event,
            self.clock,
            testbed,
            &mut PeerViews::default(),
            self.gossip.as_mut(),
            &mut self.recorder,
        )
    }

    /// Start a measurement accumulator for a job admitted *now*.
    pub fn begin_job(&mut self, app: &Application) -> JobRun {
        self.recorder.monitor.begin_job(app);
        self.jobs += 1;
        JobRun::new(self.jobs - 1, app.len(), self.clock)
    }

    /// Consume the session, returning its monitor.
    pub fn into_monitor(self) -> M {
        self.recorder.monitor
    }

    /// Run one deployment wave of `app` under `schedule` and then its
    /// members' barrier-ordered execution phases, accumulating
    /// measurements into `run`. `wave_idx` names the stage-barrier
    /// event. Callers interleave scheduling between calls — the
    /// testbed is only borrowed for the duration of the wave.
    pub fn run_wave(
        &mut self,
        testbed: &mut Testbed,
        app: &Application,
        schedule: &Schedule,
        wave: &[MicroserviceId],
        wave_idx: usize,
        run: &mut JobRun,
    ) -> Result<(), ExecError> {
        // The session's sampled plan is read while its clock, monitor and
        // counters advance.
        let OnlineExecutor {
            ref cfg,
            ref mut jitter,
            ref mut recorder,
            jobs: _,
            ref mut clock,
            ref mut pull_counter,
            ref fault_plan,
            ref timeline,
            ref mut next_event,
            ref mut route_load,
            ref mut gossip,
        } = *self;

        // ---- Deployment wave: concurrent contended pulls. --------------
        // Same-wave contention is charged per *contention resource*
        // (`route_key`): a split pull loads every route its bytes
        // actually traverse — registry routes per (source, pulling
        // device), peer traffic on the serving device's uplink. Zeroed
        // per wave, so no load outlives its wave.
        route_load.reset(testbed.devices.len());
        // Peer views taken at the wave barrier: peers advertise what they
        // held when the wave began (a gossip round per barrier),
        // decoupling the views from the per-pull cache updates below.
        // Views are built only for devices this wave actually deploys to,
        // and each holder's source is built once and shared by every
        // target that sees it — a fleet wave touching a handful of
        // devices must not pay O(devices²) digest clones.
        let mut peer_views = if cfg.peer_sharing {
            let mut targets: Vec<usize> =
                wave.iter().map(|&id| schedule.placement(id).device.0).collect();
            targets.sort_unstable();
            targets.dedup();
            let caches: Vec<&LayerCache> = testbed.devices.iter().map(|d| &d.cache).collect();
            testbed.peer_plane.barrier(gossip.as_mut(), &caches, targets)
        } else {
            PeerViews::default()
        };
        // ---- Scripted chaos: fire every event whose time has come. -----
        // Events fire *after* the gossip round above, so an eviction
        // leaves the wave's views advertising layers the holder no
        // longer has — the stale-advertisement incident sessions must
        // fail over from mid-pull.
        fire_scripted_events(
            timeline,
            next_event,
            *clock,
            testbed,
            &mut peer_views,
            gossip.as_mut(),
            recorder,
        )?;
        let job = run.job;
        // The catalog, held apart from the testbed the pulls mutate: each
        // pull borrows its image's reference from it.
        let entries = Arc::clone(&testbed.entries);
        // The wave's pull completions, in pull order.
        let mut completions: Vec<(Seconds, MicroserviceId)> = Vec::with_capacity(wave.len());
        for &id in wave {
            let ms = app.microservice(id);
            let placement = schedule.placement(id);
            let entry = lookup_entry(&entries, app.name(), &ms.name).ok_or_else(|| {
                ExecError::UnknownImage {
                    application: app.name().to_string(),
                    microservice: ms.name.clone(),
                }
            })?;
            let reference =
                testbed.reference(entry, placement.registry, testbed.device(placement.device).arch);
            let pull_idx = *pull_counter;
            *pull_counter += 1;
            let subject = Subject::Microservice { job, id };
            recorder.record(*clock, TraceKind::DeploymentStarted, placement.device, subject);
            let faults = fault_plan.as_ref().map(|plan| (plan, pull_idx, *clock));
            // The pull fills the device's cache while its mesh reads the
            // rest of the testbed: take the cache out for the pull and put
            // it back before any error propagates.
            let mut cache = std::mem::replace(
                &mut testbed.device_mut(placement.device).cache,
                LayerCache::new(DataSize::ZERO),
            );
            let pulled = pull_through(
                testbed,
                placement,
                reference,
                &mut cache,
                route_load,
                &peer_views,
                faults,
            );
            testbed.device_mut(placement.device).cache = cache;
            let outcome = pulled?;
            // Charge each contention resource the bytes it actually
            // served: a split pull no longer over-penalizes its primary
            // route, and peer buckets land on the serving device's
            // uplink rather than the puller's download route.
            route_load.charge_pull(testbed.params.contention_threshold, &outcome, placement.device);
            let t = jitter.apply(outcome.deployment_time());
            let member = &mut run.members[id.0];
            member.td = t;
            member.downloaded_mb = outcome.downloaded.as_megabytes();
            member.sources = outcome.per_source;
            member.failed_sources = outcome.failed_sources;
            member.backoff = outcome.backoff_total;
            completions.push((t, id));
        }
        // Deployment is concurrent: record the completions in time order
        // (each finish stamped when its pull actually ends; the stable
        // sort keeps pull order among ties), then advance the clock by
        // the wave's longest pull.
        completions.sort_by(|a, b| a.0.as_f64().total_cmp(&b.0.as_f64()));
        let wave_start = *clock;
        let mut wave_span = Seconds::ZERO;
        for (t, id) in completions {
            wave_span = wave_span.max(t);
            recorder.record(
                wave_start + t,
                TraceKind::DeploymentFinished,
                schedule.placement(id).device,
                Subject::Microservice { job, id },
            );
        }
        *clock += wave_span;

        // ---- Execution: stage members sequential (non-concurrent). -----
        for &id in wave {
            let ms = app.microservice(id);
            let placement = schedule.placement(id);
            let device = testbed.device(placement.device);

            // Tc: receive every incoming dataflow; co-located producers
            // transfer over loopback (free).
            let transfer = testbed.transfer_in_time(app, id, placement.device, |from| {
                schedule.placement(from).device
            });
            let transfer = jitter.apply(transfer);
            let subject = Subject::Microservice { job, id };
            recorder.record(*clock, TraceKind::TransferStarted, placement.device, subject);
            *clock += transfer;
            recorder.record(*clock, TraceKind::TransferFinished, placement.device, subject);

            // Tp. Device parameters are scoped by application because the
            // case studies share microservice names.
            let process_watts = device.process_watts(app.name(), &ms.name);
            let proc =
                jitter.apply(device.processing_time(app.name(), &ms.name, ms.requirements.cpu));
            recorder.record(*clock, TraceKind::ProcessingStarted, placement.device, subject);
            *clock += proc;
            recorder.record(*clock, TraceKind::ProcessingFinished, placement.device, subject);

            let member = &mut run.members[id.0];
            member.tc = transfer;
            member.tp = proc;

            // Analytic energy over all three phases of this microservice.
            member.energy = device.phase_energy(process_watts, member.td, transfer, proc);
        }
        recorder.record(
            *clock,
            TraceKind::StageBarrierReleased,
            DeviceId(0),
            Subject::Stage(wave_idx),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Placement;
    use crate::testbed::{DEVICE_MEDIUM, DEVICE_SMALL};
    use deep_dataflow::apps;
    use deep_registry::Platform;

    fn all_hub_medium(app: &Application) -> Schedule {
        Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM)
    }

    #[test]
    fn video_runs_end_to_end() {
        let mut tb = Testbed::paper();
        let app = apps::video_processing();
        let (report, trace) =
            execute(&mut tb, &app, &all_hub_medium(&app), &ExecutorConfig::default()).unwrap();
        assert_eq!(report.microservices.len(), 6);
        assert!(report.total_energy().as_f64() > 0.0);
        assert!(report.makespan.as_f64() > 0.0);
        // Every microservice was deployed and processed.
        assert_eq!(trace.of_kind(TraceKind::DeploymentFinished).count(), 6);
        assert_eq!(trace.of_kind(TraceKind::ProcessingFinished).count(), 6);
    }

    #[test]
    fn tp_matches_calibrated_medium_values() {
        let mut tb = Testbed::paper();
        let app = apps::text_processing();
        let (report, _) =
            execute(&mut tb, &app, &all_hub_medium(&app), &ExecutorConfig::default()).unwrap();
        // No jitter: Tp on medium = Table II midpoints exactly.
        let m = report.metrics("ha-train").unwrap();
        assert!((m.tp.as_f64() - 141.5).abs() < 1e-9, "{}", m.tp);
        let m = report.metrics("retrieve").unwrap();
        assert!((m.tp.as_f64() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn colocated_flows_are_free_cross_device_cost() {
        let mut tb = Testbed::paper();
        let app = apps::video_processing();
        // transcode on small, rest on medium: frame pays a LAN transfer.
        let mut placements =
            vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM }; app.len()];
        placements[app.by_name("transcode").unwrap().0] =
            Placement { registry: RegistryChoice::Regional, device: DEVICE_SMALL };
        let schedule = Schedule::new(placements);
        let (report, _) = execute(&mut tb, &app, &schedule, &ExecutorConfig::default()).unwrap();
        // 300 MB at 100 MB/s LAN = 3 s.
        let frame = report.metrics("frame").unwrap();
        assert!((frame.tc.as_f64() - 3.0).abs() < 1e-9, "{}", frame.tc);
        // ha-train receives from co-located frame: free.
        let ha = report.metrics("ha-train").unwrap();
        assert_eq!(ha.tc, Seconds::ZERO);
    }

    #[test]
    fn sibling_dedup_shrinks_second_pull() {
        let mut tb = Testbed::paper();
        let app = apps::video_processing();
        let (report, _) =
            execute(&mut tb, &app, &all_hub_medium(&app), &ExecutorConfig::default()).unwrap();
        let ha = report.metrics("ha-train").unwrap();
        let la = report.metrics("la-train").unwrap();
        // ha-train (lower id) pulls the full 5.78 GB; la-train only its
        // unique 580 MB.
        assert!((ha.downloaded_mb - 5780.0).abs() < 1.0);
        assert!((la.downloaded_mb - 580.0).abs() < 1.0);
        assert!(la.td < ha.td);
    }

    #[test]
    fn contention_slows_same_route_wave_peers() {
        let mut tb = Testbed::paper();
        let app = apps::video_processing();
        // Staged: trains share a wave and the hub→medium route.
        let (staged, _) =
            execute(&mut tb, &app, &all_hub_medium(&app), &ExecutorConfig::default()).unwrap();
        tb.reset_caches();
        // Compare the same pull without contention by putting la-train on
        // the regional route.
        let mut placements =
            vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM }; app.len()];
        placements[app.by_name("la-train").unwrap().0] =
            Placement { registry: RegistryChoice::Regional, device: DEVICE_MEDIUM };
        let (split, _) =
            execute(&mut tb, &app, &Schedule::new(placements), &ExecutorConfig::default()).unwrap();
        let contended = staged.metrics("la-train").unwrap().td;
        let hub_uncontended_dl = 580.0 / 13.0;
        let contended_dl = 580.0 * 1.1 / 13.0;
        assert!(
            (contended.as_f64() - (contended_dl + 580.0 / 12.6 + 25.0)).abs() < 1e-6,
            "contended td = {contended}, expected {}",
            contended_dl + 580.0 / 12.6 + 25.0
        );
        let _ = (split, hub_uncontended_dl);
    }

    /// On the uncalibrated paper testbed, with every microservice on one
    /// device (so `Tc` is zero), the reported energy is the Section III-D2
    /// model written out over the report's own phases.
    #[test]
    fn energy_is_the_analytic_model_on_a_uniform_schedule() {
        let mut tb = Testbed::paper();
        let app = apps::text_processing();
        let sched = Schedule::uniform(app.len(), RegistryChoice::Regional, DEVICE_SMALL);
        let (report, _) = execute(&mut tb, &app, &sched, &ExecutorConfig::default()).unwrap();
        let device = tb.device(DEVICE_SMALL);
        let power = &device.power;
        for m in &report.microservices {
            assert_eq!(m.tc, Seconds::ZERO, "{}: one device moves no data", m.name);
            let process = device.process_watts(app.name(), &m.name);
            let (td, tp) = (m.td.as_f64(), m.tp.as_f64());
            let want = power.deploy_watts.as_f64() * td
                + process.as_f64() * tp
                + power.static_watts.as_f64() * (td + tp);
            let got = m.energy.as_f64();
            assert!(
                (got - want).abs() <= want.abs() * 1e-12,
                "{}: energy {got}, model {want}",
                m.name
            );
        }
    }

    #[test]
    fn jitter_produces_ranges_deterministically() {
        let app = apps::video_processing();
        let cfg = ExecutorConfig { seed: 42, jitter: 0.02, ..Default::default() };
        let mut tb1 = Testbed::paper();
        let (a, _) = execute(&mut tb1, &app, &all_hub_medium(&app), &cfg).unwrap();
        let mut tb2 = Testbed::paper();
        let (b, _) = execute(&mut tb2, &app, &all_hub_medium(&app), &cfg).unwrap();
        assert_eq!(a, b, "same seed, same run");
        let cfg2 = ExecutorConfig { seed: 43, ..cfg };
        let mut tb3 = Testbed::paper();
        let (c, _) = execute(&mut tb3, &app, &all_hub_medium(&app), &cfg2).unwrap();
        assert_ne!(a, c, "different seed, different run");
    }

    #[test]
    fn warm_cache_second_run_is_much_faster() {
        let mut tb = Testbed::paper();
        let app = apps::text_processing();
        let sched = all_hub_medium(&app);
        let cfg = ExecutorConfig::default();
        let (cold, _) = execute(&mut tb, &app, &sched, &cfg).unwrap();
        let (warm, _) = execute(&mut tb, &app, &sched, &cfg).unwrap();
        for (c, w) in cold.microservices.iter().zip(&warm.microservices) {
            assert!(w.td <= c.td, "{}", c.name);
        }
        let warm_dl: f64 = warm.microservices.iter().map(|m| m.downloaded_mb).sum();
        assert_eq!(warm_dl, 0.0, "everything cached");
    }

    #[test]
    fn schedule_mismatch_rejected() {
        let mut tb = Testbed::paper();
        let app = apps::video_processing();
        let bad = Schedule::uniform(3, RegistryChoice::Hub, DEVICE_MEDIUM);
        assert!(matches!(
            execute(&mut tb, &app, &bad, &ExecutorConfig::default()),
            Err(ExecError::ScheduleMismatch { .. })
        ));
    }

    #[test]
    fn unknown_devices_and_registries_are_rejected_before_any_pull() {
        let app = apps::text_processing();
        let last = MicroserviceId(app.len() - 1);
        let run = |placement: Placement| {
            let mut tb = Testbed::paper();
            let mut placements =
                vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM }; app.len()];
            placements[last.0] = placement;
            let result =
                execute(&mut tb, &app, &Schedule::new(placements), &ExecutorConfig::default());
            assert!(tb.devices.iter().all(|d| d.cache.is_empty()), "no layer was pulled");
            result
        };
        let off_testbed = run(Placement { registry: RegistryChoice::Hub, device: DeviceId(99) });
        assert!(
            matches!(off_testbed, Err(ExecError::UnknownDevice { device: DeviceId(99), .. })),
            "{off_testbed:?}"
        );
        let unknown = RegistryChoice::mesh(RegistryId(7));
        let no_such_mirror = run(Placement { registry: unknown, device: DEVICE_MEDIUM });
        assert!(
            matches!(no_such_mirror, Err(ExecError::UnknownRegistry { registry, .. }) if registry == unknown),
            "{no_such_mirror:?}"
        );
    }

    #[test]
    fn peer_sharing_splits_pulls_across_the_fleet() {
        // The continuum testbed has two amd64 devices (medium, cloud).
        // After the medium device deploys the video app, a cloud
        // deployment with peer sharing fetches the already-fleet-resident
        // layers from the medium peer's link (80 MB/s, 1 s overhead)
        // instead of the hub route (60 MB/s) — strictly faster, and
        // attributed to the medium device in the per-holder breakdown.
        let app = apps::video_processing();
        let all_hub = |device| Schedule::uniform(app.len(), RegistryChoice::Hub, device);
        let run = |peer_sharing: bool| {
            let mut tb = Testbed::continuum();
            let cfg = ExecutorConfig::default();
            execute(&mut tb, &app, &all_hub(DEVICE_MEDIUM), &cfg).unwrap();
            let cloud_cfg = ExecutorConfig { peer_sharing, ..cfg };
            let (report, _) =
                execute(&mut tb, &app, &all_hub(crate::testbed::DEVICE_CLOUD), &cloud_cfg).unwrap();
            report
        };
        let without = run(false);
        let with = run(true);
        let by_peer = with.downloaded_by_peer();
        assert_eq!(by_peer.len(), 1, "exactly one holder served: {by_peer:?}");
        assert_eq!(by_peer[0].0, DEVICE_MEDIUM, "the warm medium device is the holder");
        assert!(by_peer[0].1 > 1_000.0, "fleet-resident layers served by the peer: {by_peer:?}");
        assert_eq!(with.peer_downloaded_mb(), by_peer[0].1);
        // The raw breakdown names the holder's own mesh id.
        assert!(with
            .downloaded_by_source()
            .iter()
            .any(|(id, _)| *id == crate::testbed::peer_source_id(DEVICE_MEDIUM)));
        assert!(without.downloaded_by_peer().is_empty(), "no peer source without the flag");
        let td_with: f64 = with.microservices.iter().map(|m| m.td.as_f64()).sum();
        let td_without: f64 = without.microservices.iter().map(|m| m.td.as_f64()).sum();
        assert!(td_with < td_without, "peer-served pulls are faster: {td_with} vs {td_without}");
        // Bytes moved are identical — only the source changed.
        let dl = |r: &RunReport| -> f64 { r.microservices.iter().map(|m| m.downloaded_mb).sum() };
        assert!((dl(&with) - dl(&without)).abs() < 1e-6);
    }

    #[test]
    fn same_wave_pulls_to_different_devices_contend_on_the_holders_uplink() {
        // One warm holder (cloud), two cold devices pulling in the same
        // wave: under the per-pair plane both pulls ride the cloud's
        // uplink, so the second one (in execution order) sees the uplink
        // already loaded and slows by the contention factor. Under the
        // aggregate oracle the pulls contend on separate
        // (REGISTRY_PEER, puller) routes — pulling onto different
        // devices hides the shared NIC entirely, the blindness this PR
        // removes.
        let app = apps::video_processing();
        let run = |aggregate: bool| {
            let mut tb = Testbed::continuum();
            if aggregate {
                tb.peer_plane = crate::testbed::PeerPlane::Aggregate;
            }
            // Warm the cloud holder with everything — both platforms, a
            // fleet cache able to serve the amd64 medium AND the arm64
            // small device (layer digests are arch-specific).
            let warm =
                Schedule::uniform(app.len(), RegistryChoice::Hub, crate::testbed::DEVICE_CLOUD);
            execute(&mut tb, &app, &warm, &ExecutorConfig::default()).unwrap();
            let mut cache = tb.device(crate::testbed::DEVICE_CLOUD).cache.clone();
            for id in app.ids() {
                let ms = app.microservice(id);
                let entry = tb.entry(app.name(), &ms.name).unwrap();
                let reference = tb.reference(entry, RegistryChoice::Hub, Platform::Arm64);
                tb.pull_mesh(RegistryChoice::Hub, crate::testbed::DEVICE_CLOUD, 1.0)
                    .session(RegistryChoice::Hub.registry_id())
                    .pull(reference, Platform::Arm64, &mut cache)
                    .unwrap();
            }
            tb.device_mut(crate::testbed::DEVICE_CLOUD).cache = cache;
            // ha-train and la-train share the training wave but land on
            // different devices; both images are served entirely by the
            // cloud holder, so both pulls load the same uplink.
            let mut placements =
                vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM }; app.len()];
            placements[app.by_name("la-train").unwrap().0] =
                Placement { registry: RegistryChoice::Hub, device: DEVICE_SMALL };
            let cfg = ExecutorConfig { peer_sharing: true, ..Default::default() };
            execute(&mut tb, &app, &Schedule::new(placements), &cfg).unwrap().0
        };
        let per_pair = run(false);
        let aggregate = run(true);
        // ha-train (lower id) pulls first: uplink unloaded, identical td
        // in both models. la-train on the small device pulls its full
        // 5.78 GB (nothing cached there) over the same uplink, which
        // already carries ha-train's bytes: slowed by 1 + alpha under
        // the per-pair plane only.
        let ha = |r: &RunReport| r.metrics("ha-train").unwrap().td.as_f64();
        let la = |r: &RunReport| r.metrics("la-train").unwrap().td.as_f64();
        assert!((ha(&per_pair) - ha(&aggregate)).abs() < 1e-12, "first pull sees no load");
        let slowed = 5780.0 * 1.1 / 80.0 + 5780.0 / 11.0 + 26.0;
        let blind = 5780.0 / 80.0 + 5780.0 / 11.0 + 26.0;
        assert!(
            (la(&per_pair) - slowed).abs() < 1e-9,
            "uplink-contended la-train: {} vs {slowed}",
            la(&per_pair)
        );
        assert!(
            (la(&aggregate) - blind).abs() < 1e-9,
            "aggregate-blind la-train: {} vs {blind}",
            la(&aggregate)
        );
    }

    #[test]
    fn cache_pressure_mid_soak_triggers_mid_pull_failover_not_a_panic() {
        // Warm the medium device, then redeploy onto the cloud with peer
        // sharing while a scripted cache-pressure event wipes the medium
        // cache *after* the gossip round: the wave's pulls planned onto
        // the now-stale peer advertisement must fail over mid-pull to
        // the registry and still land every layer.
        let app = apps::video_processing();
        let all_hub = |device| Schedule::uniform(app.len(), RegistryChoice::Hub, device);
        let run = |events: &[ChaosEvent]| {
            let mut tb = Testbed::continuum();
            execute(&mut tb, &app, &all_hub(DEVICE_MEDIUM), &ExecutorConfig::default()).unwrap();
            let cfg = ExecutorConfig { peer_sharing: true, ..Default::default() };
            let out = execute_with_events(
                &mut tb,
                &app,
                &all_hub(crate::testbed::DEVICE_CLOUD),
                &cfg,
                events,
            )
            .unwrap();
            (out, tb)
        };
        // Baseline: the peer serves the fleet-resident training stack;
        // its trace locates the training wave's start on the clock.
        let ((baseline, trace), _) = run(&[]);
        assert!(!baseline.downloaded_by_peer().is_empty(), "baseline rides the peer");
        let train_wave = trace
            .of_kind(TraceKind::DeploymentStarted)
            .find(|e| e.label == "ha-train")
            .expect("training wave traced")
            .at;
        // Chaos: wipe the holder at that exact barrier — after the
        // gossip round, so the wave pulls against a stale advertisement.
        let events =
            [ChaosEvent::cache_pressure(train_wave, DEVICE_MEDIUM, deep_netsim::DataSize::ZERO)];
        let ((report, chaos_trace), tb) = run(&events);
        let peer_id = crate::testbed::peer_source_id(DEVICE_MEDIUM);
        assert!(
            report.microservices.iter().any(|m| m.failed_sources.contains(&peer_id)),
            "some pull hit the stale advertisement and failed over"
        );
        // The training wave itself got nothing from the evicted peer
        // (waves before the event rode it legitimately).
        let ha = report.metrics("ha-train").unwrap();
        assert!(ha.failed_sources.contains(&peer_id), "{:?}", ha.failed_sources);
        assert!(ha.sources.iter().all(|b| b.source != peer_id), "{:?}", ha.sources);
        let dl = |r: &RunReport| -> f64 { r.microservices.iter().map(|m| m.downloaded_mb).sum() };
        assert!((dl(&report) - dl(&baseline)).abs() < 1e-6, "every layer still landed");
        let td = |r: &RunReport| -> f64 { r.microservices.iter().map(|m| m.td.as_f64()).sum() };
        assert!(td(&report) > td(&baseline), "failover cost is visible in Td");
        assert_eq!(chaos_trace.of_kind(TraceKind::ChaosEventFired).count(), 1);
        assert!(tb.device(DEVICE_MEDIUM).cache.is_empty(), "the eviction really happened");
    }

    #[test]
    fn mid_wave_retractions_stay_in_the_views_they_edit() {
        use deep_registry::BlobSource;
        // The cloud holds layers a (older) and b; the medium and small
        // devices are one wave's two targets and both see the cloud
        // through gossip, as clones of one shared source.
        let (a, b) = (deep_registry::Digest::of(b"a"), deep_registry::Digest::of(b"b"));
        let cloud = crate::testbed::DEVICE_CLOUD;
        let mut tb = Testbed::continuum();
        tb.device_mut(cloud).cache.insert(a.clone(), DataSize::megabytes(10.0));
        tb.device_mut(cloud).cache.insert(b.clone(), DataSize::megabytes(10.0));
        let mut plane = crate::gossip::GossipPlane::new(3, u32::MAX, u32::MAX, 1, 7);
        let (mut views, shared) = {
            let caches: Vec<&LayerCache> = tb.devices.iter().map(|d| &d.cache).collect();
            plane.barrier_round(&caches);
            let targets = [DEVICE_MEDIUM.0, DEVICE_SMALL.0];
            let views = tb.peer_plane.barrier_views(Some(&mut plane), &caches, targets);
            (views, plane.mesh_view(&caches, DEVICE_MEDIUM.0))
        };
        let cloud_id = crate::testbed::peer_source_id(cloud);
        let seen_by = |views: &PeerViews, target| -> deep_registry::PeerCacheSource {
            views.of(target).find(|(id, _)| *id == cloud_id).expect("cloud in view").1.clone()
        };
        // Mid-wave pressure evicts a: both targets' views retract it.
        let events = [ChaosEvent::cache_pressure(Seconds::ZERO, cloud, DataSize::megabytes(10.0))];
        let mut next = 0;
        fire_scripted_events(
            &events,
            &mut next,
            Seconds::ZERO,
            &mut tb,
            &mut views,
            Some(&mut plane),
            &mut Recorder::new(()),
        )
        .unwrap();
        for target in [DEVICE_MEDIUM, DEVICE_SMALL] {
            let source = seen_by(&views, target);
            assert!(source.has_blob(&a), "still advertised");
            assert!(source.fetch_blob(&a).is_err(), "evicted layer fails over");
            assert!(source.fetch_blob(&b).is_ok(), "kept layer still serves");
        }
        let (_, untouched) = shared.iter().find(|(id, _)| *id == cloud_id).unwrap();
        assert!(untouched.fetch_blob(&a).is_ok(), "the plane's shared source saw the retraction");
        // A retraction in the medium device's view (the first list) does
        // not reach the small device's.
        let (_, medium_view) = views.sources_mut().find(|(id, _)| *id == cloud_id).unwrap();
        assert!(medium_view.retract(&b));
        assert!(seen_by(&views, DEVICE_MEDIUM).fetch_blob(&b).is_err());
        assert!(seen_by(&views, DEVICE_SMALL).fetch_blob(&b).is_ok(), "leaked across targets");
    }

    #[test]
    fn registry_gc_event_sweeps_orphans_mid_run() {
        // An operator un-publishes vp-transcode mid-soak, then the
        // scripted GC pass sweeps its orphaned layers — while an
        // unrelated deployment keeps running against the same registry.
        let mut tb = Testbed::paper();
        let app = apps::text_processing();
        let events = [
            ChaosEvent::delete_tag(Seconds::ZERO, "aau/vp-transcode", "amd64"),
            ChaosEvent::delete_tag(Seconds::ZERO, "aau/vp-transcode", "arm64"),
            ChaosEvent::registry_gc(Seconds::ZERO),
        ];
        let (report, trace) = execute_with_events(
            &mut tb,
            &app,
            &all_hub_medium(&app),
            &ExecutorConfig::default(),
            &events,
        )
        .unwrap();
        assert_eq!(report.microservices.len(), app.len());
        let gc = trace
            .of_kind(TraceKind::ChaosEventFired)
            .find(|e| e.label.starts_with("registry-gc"))
            .expect("gc event traced");
        assert!(gc.label.contains("swept 6"), "vp-transcode's six unique layers: {}", gc.label);
    }

    /// One chaos run's events, captured as the executor recorded them when
    /// every label was a string: a `Trace` that stores ids must read back
    /// the same kinds, devices, stamps (bit for bit) and labels.
    #[test]
    fn trace_reads_back_a_chaos_run_as_recorded() {
        use TraceKind::*;
        let app = apps::text_processing();
        let mut placements =
            vec![Placement { registry: RegistryChoice::Hub, device: DEVICE_MEDIUM }; app.len()];
        for name in ["ha-train", "ha-score"] {
            placements[app.by_name(name).unwrap().0] =
                Placement { registry: RegistryChoice::Regional, device: DEVICE_SMALL };
        }
        let cfg = ExecutorConfig { seed: 3, jitter: 0.02, ..Default::default() };
        let events = [
            ChaosEvent::delete_tag(Seconds::ZERO, "aau/vp-transcode", "amd64"),
            ChaosEvent::delete_tag(Seconds::ZERO, "aau/vp-transcode", "arm64"),
            ChaosEvent::cache_pressure(
                Seconds::new(100.0),
                DEVICE_MEDIUM,
                DataSize::megabytes(500.0),
            ),
            ChaosEvent::registry_gc(Seconds::new(150.0)),
        ];
        let mut tb = Testbed::paper();
        let (_, trace) =
            execute_with_events(&mut tb, &app, &Schedule::new(placements), &cfg, &events).unwrap();
        let recorded: [(f64, TraceKind, usize, &str); 44] = [
            (0.0, ChaosEventFired, 0, "delete-tag aau/vp-transcode:amd64 (scripted t=0.000 s)"),
            (0.0, ChaosEventFired, 0, "delete-tag aau/vp-transcode:arm64 (scripted t=0.000 s)"),
            (0.0, DeploymentStarted, 0, "retrieve"),
            (46.453996292715104, DeploymentFinished, 0, "retrieve"),
            (46.453996292715104, TransferStarted, 0, "retrieve"),
            (46.453996292715104, TransferFinished, 0, "retrieve"),
            (46.453996292715104, ProcessingStarted, 0, "retrieve"),
            (95.82025615237211, ProcessingFinished, 0, "retrieve"),
            (95.82025615237211, StageBarrierReleased, 0, "stage-0"),
            (95.82025615237211, DeploymentStarted, 0, "decompress"),
            (226.2898525844355, DeploymentFinished, 0, "decompress"),
            (226.2898525844355, TransferStarted, 0, "decompress"),
            (226.2898525844355, TransferFinished, 0, "decompress"),
            (226.2898525844355, ProcessingStarted, 0, "decompress"),
            (266.955140316891, ProcessingFinished, 0, "decompress"),
            (266.955140316891, StageBarrierReleased, 0, "stage-1"),
            (
                266.955140316891,
                ChaosEventFired,
                0,
                "cache-pressure d0 evicted 4 layer(s) (scripted t=100.000 s)",
            ),
            (
                266.955140316891,
                ChaosEventFired,
                0,
                "registry-gc marked 66 swept 6 released 340000000 B (scripted t=150.000 s)",
            ),
            (266.955140316891, DeploymentStarted, 1, "ha-train"),
            (266.955140316891, DeploymentStarted, 0, "la-train"),
            (663.4538183654006, DeploymentFinished, 0, "la-train"),
            (741.3296644465007, DeploymentFinished, 1, "ha-train"),
            (741.3296644465007, TransferStarted, 1, "ha-train"),
            (747.3340930048124, TransferFinished, 1, "ha-train"),
            (747.3340930048124, ProcessingStarted, 1, "ha-train"),
            (1166.3446564835267, ProcessingFinished, 1, "ha-train"),
            (1166.3446564835267, TransferStarted, 0, "la-train"),
            (1166.3446564835267, TransferFinished, 0, "la-train"),
            (1166.3446564835267, ProcessingStarted, 0, "la-train"),
            (1253.1009585807149, ProcessingFinished, 0, "la-train"),
            (1253.1009585807149, StageBarrierReleased, 0, "stage-2"),
            (1253.1009585807149, DeploymentStarted, 1, "ha-score"),
            (1253.1009585807149, DeploymentStarted, 0, "la-score"),
            (1376.7257741581777, DeploymentFinished, 0, "la-score"),
            (1380.5937082313412, DeploymentFinished, 1, "ha-score"),
            (1380.5937082313412, TransferStarted, 1, "ha-score"),
            (1380.5937082313412, TransferFinished, 1, "ha-score"),
            (1380.5937082313412, ProcessingStarted, 1, "ha-score"),
            (1607.536833733822, ProcessingFinished, 1, "ha-score"),
            (1607.536833733822, TransferStarted, 0, "la-score"),
            (1607.536833733822, TransferFinished, 0, "la-score"),
            (1607.536833733822, ProcessingStarted, 0, "la-score"),
            (1684.369410241131, ProcessingFinished, 0, "la-score"),
            (1684.369410241131, StageBarrierReleased, 0, "stage-3"),
        ];
        assert_eq!(trace.len(), recorded.len());
        for (event, (at, kind, device, label)) in trace.events().zip(recorded) {
            assert_eq!(event.at.as_f64().to_bits(), at.to_bits(), "{label} at {at}");
            assert_eq!(
                (event.kind, event.device, event.label.as_str()),
                (kind, DeviceId(device), label)
            );
        }
    }

    #[test]
    fn dark_window_reroutes_wave_pulls_to_survivors() {
        // The regional registry is scripted dark across the whole run:
        // every regional-primary pull fails over to the hub standby.
        let mut tb = Testbed::paper();
        tb.fault_model = tb.fault_model.clone().with_window(deep_registry::OutageWindow::dark(
            RegistryChoice::Regional.registry_id(),
            Seconds::ZERO,
            Seconds::new(1e9),
        ));
        let app = apps::text_processing();
        let sched = Schedule::uniform(app.len(), RegistryChoice::Regional, DEVICE_MEDIUM);
        let cfg = ExecutorConfig { fault_injection: true, ..Default::default() };
        let (report, _) = execute(&mut tb, &app, &sched, &cfg).unwrap();
        for m in &report.microservices {
            assert_eq!(
                m.failed_sources,
                vec![RegistryChoice::Regional.registry_id()],
                "{} failed over",
                m.name
            );
            assert!(m.sources.iter().all(|b| b.source == RegistryChoice::Hub.registry_id()));
        }
    }

    #[test]
    fn window_clears_on_the_executor_clock() {
        // A short dark window covers only the first deployment wave: the
        // later waves' regional pulls go through untouched.
        let app = apps::text_processing();
        let sched = |app: &Application| {
            Schedule::uniform(app.len(), RegistryChoice::Regional, DEVICE_MEDIUM)
        };
        let cfg = ExecutorConfig { fault_injection: true, ..Default::default() };
        let run = |duration: f64| {
            let mut tb = Testbed::paper();
            tb.fault_model = tb.fault_model.clone().with_window(deep_registry::OutageWindow::dark(
                RegistryChoice::Regional.registry_id(),
                Seconds::ZERO,
                Seconds::new(duration),
            ));
            execute(&mut tb, &app, &sched(&app), &cfg).unwrap().0
        };
        let brief = run(1.0);
        let failed: Vec<&str> = brief
            .microservices
            .iter()
            .filter(|m| !m.failed_sources.is_empty())
            .map(|m| m.name.as_str())
            .collect();
        assert!(!failed.is_empty(), "the first wave hits the window");
        assert!(
            failed.len() < brief.microservices.len(),
            "later waves are past the window: {failed:?}"
        );
        // A window that opens after the run ends changes nothing.
        let mut baseline_tb = Testbed::paper();
        let (baseline, _) = execute(&mut baseline_tb, &app, &sched(&app), &cfg).unwrap();
        let late = run(0.0); // zero-duration: never active
        assert_eq!(baseline, late, "inactive windows are byte-identical");
    }

    #[test]
    fn online_executor_stepwise_matches_execute_byte_for_byte() {
        // Driving one job's waves by hand through the session API is the
        // same computation `execute` runs — reports, traces, and final
        // clock all agree exactly.
        let app = apps::video_processing();
        let sched = all_hub_medium(&app);
        let cfg = ExecutorConfig { seed: 7, jitter: 0.01, ..Default::default() };
        let mut tb1 = Testbed::paper();
        let (reference, ref_trace) = execute(&mut tb1, &app, &sched, &cfg).unwrap();
        let mut tb2 = Testbed::paper();
        validate_schedule(&tb2, &app, &sched).unwrap();
        let mut exec = OnlineExecutor::new(&tb2, &cfg, &[]);
        let mut run = exec.begin_job(&app);
        for (i, wave) in plan_waves(&app, true).iter().enumerate() {
            exec.run_wave(&mut tb2, &app, &sched, wave, i, &mut run).unwrap();
        }
        assert_eq!(exec.clock(), reference.makespan);
        assert_eq!(exec.pulls(), app.len() as u64);
        let report = run.into_report(&app, &sched, exec.clock());
        assert_eq!(reference, report);
        let trace = exec.into_trace();
        assert_eq!(
            ref_trace.of_kind(TraceKind::DeploymentFinished).count(),
            trace.of_kind(TraceKind::DeploymentFinished).count()
        );
    }

    #[test]
    fn idle_advance_shifts_the_clock_but_not_job_metrics() {
        // A job admitted after an idle gap reports the same relative
        // spans it would report at t = 0: JobRun measures makespan from
        // its own start, and nothing in a window-free run reads the
        // absolute clock.
        let app = apps::text_processing();
        let sched = all_hub_medium(&app);
        let cfg = ExecutorConfig::default();
        let mut tb1 = Testbed::paper();
        let (reference, _) = execute(&mut tb1, &app, &sched, &cfg).unwrap();
        let mut tb2 = Testbed::paper();
        let mut exec = OnlineExecutor::new(&tb2, &cfg, &[]);
        exec.advance_to(Seconds::new(500.0));
        assert_eq!(exec.clock(), Seconds::new(500.0));
        exec.advance_to(Seconds::new(10.0));
        assert_eq!(exec.clock(), Seconds::new(500.0), "the clock never runs backwards");
        let mut run = exec.begin_job(&app);
        assert_eq!(run.started(), Seconds::new(500.0));
        for (i, wave) in plan_waves(&app, true).iter().enumerate() {
            exec.run_wave(&mut tb2, &app, &sched, wave, i, &mut run).unwrap();
        }
        let report = run.into_report(&app, &sched, exec.clock());
        assert_eq!(reference, report);
    }

    #[test]
    fn fault_plan_is_snapshotted_at_session_start() {
        // Stripping the scripted window from the testbed's model *after*
        // the session opened changes nothing about injection: the plan
        // was sampled at `OnlineExecutor::new`. This is the mechanism the
        // arrival plane's outage inference relies on — the scheduler's
        // view of `fault_model` can be edited mid-soak without touching
        // the incident being injected. A retry budget cut mid-session
        // changes nothing either: injected transients are retried under
        // the plan's policy, which their cap fits.
        let app = apps::text_processing();
        let sched = Schedule::uniform(app.len(), RegistryChoice::Regional, DEVICE_MEDIUM);
        let cfg = ExecutorConfig { fault_injection: true, ..Default::default() };
        let window = deep_registry::OutageWindow::dark(
            RegistryChoice::Regional.registry_id(),
            Seconds::ZERO,
            Seconds::new(1e9),
        );
        // The standby hub fails every attempt it may: three in a row
        // under a four-attempt policy.
        let flaky_hub = RegistryChoice::Hub.registry_id();
        let always = deep_registry::FaultRates { fatal_per_pull: 0.0, transient_per_fetch: 1.0 };
        let retry = deep_registry::RetryPolicy { max_attempts: 4, ..Default::default() };
        let model = Testbed::paper()
            .fault_model
            .with_window(window)
            .with_source(flaky_hub, always)
            .with_retry(retry);
        let mut reference_tb = Testbed::paper();
        reference_tb.fault_model = model.clone();
        let (reference, _) = execute(&mut reference_tb, &app, &sched, &cfg).unwrap();
        let mut tb = Testbed::paper();
        tb.fault_model = model;
        let mut exec = OnlineExecutor::new(&tb, &cfg, &[]);
        tb.fault_model = tb
            .fault_model
            .without_windows()
            .with_retry(deep_registry::RetryPolicy { max_attempts: 2, ..retry });
        let mut run = exec.begin_job(&app);
        for (i, wave) in plan_waves(&app, true).iter().enumerate() {
            exec.run_wave(&mut tb, &app, &sched, wave, i, &mut run).unwrap();
        }
        let report = run.into_report(&app, &sched, exec.clock());
        assert_eq!(reference, report, "injection rides the session's snapshot, not the model");
        assert!(report.microservices.iter().all(|m| !m.failed_sources.is_empty()));
        assert!(report.microservices.iter().all(|m| m.backoff_total > Seconds::ZERO));
    }

    #[test]
    fn unstaged_deployment_is_single_wave() {
        let mut tb = Testbed::paper();
        let app = apps::text_processing();
        let cfg = ExecutorConfig { staged_deployment: false, ..Default::default() };
        let (_, trace) = execute(&mut tb, &app, &all_hub_medium(&app), &cfg).unwrap();
        assert_eq!(trace.of_kind(TraceKind::StageBarrierReleased).count(), 1);
    }
}
