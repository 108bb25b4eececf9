//! The Monitoring component of Figure 1: an event log of service
//! executions on the computing devices.
//!
//! Monitoring is opt-in. The executor reports every event to the
//! [`Monitor`] its caller hands it: `()` keeps nothing, and a [`Trace`]
//! keeps the log. Events name their subject by id (a job's
//! [`MicroserviceId`], a wave index, a fired chaos event's outcome), and a
//! [`Trace`] turns ids into names only when it is read, so a run whose
//! caller keeps no log formats no label at all.

use deep_dataflow::{Application, MicroserviceId};
use deep_netsim::{DeviceId, Seconds};
use deep_registry::GcReport;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Kinds of monitored events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    DeploymentStarted,
    DeploymentFinished,
    TransferStarted,
    TransferFinished,
    ProcessingStarted,
    ProcessingFinished,
    StageBarrierReleased,
    /// A scripted [`crate::ChaosEvent`] fired at a wave barrier; the
    /// label records what it did (victims evicted, blobs swept).
    ChaosEventFired,
}

/// One monitored event, as a [`Trace`] reads it back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    pub at: Seconds,
    pub kind: TraceKind,
    pub device: DeviceId,
    /// Microservice name, or stage label for barrier events.
    pub label: String,
}

/// What a monitored event is about, as the executor reports it.
#[derive(Debug, Clone, Copy)]
pub enum Subject<'a> {
    /// Microservice `id` of the `job`-th job the session began
    /// (counting from 0, in [`Monitor::begin_job`] order).
    Microservice { job: usize, id: MicroserviceId },
    /// The barrier closing deployment wave `wave` (read as `stage-{wave}`).
    Stage(usize),
    /// A scripted chaos event scheduled at `scripted` fired and did
    /// `effect`.
    Chaos { scripted: Seconds, effect: ChaosEffect<'a> },
}

/// What a fired [`crate::ChaosEvent`] did.
#[derive(Debug, Clone, Copy)]
pub enum ChaosEffect<'a> {
    /// Cache pressure on `device` evicted `layers` layers.
    Evicted { device: DeviceId, layers: usize },
    /// `repository:tag` was deleted from the regional registry.
    TagDeleted { repository: &'a str, tag: &'a str },
    /// The regional registry was garbage-collected.
    Collected(&'a GcReport),
}

impl fmt::Display for ChaosEffect<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosEffect::Evicted { device, layers } => {
                write!(f, "cache-pressure d{} evicted {layers} layer(s)", device.0)
            }
            ChaosEffect::TagDeleted { repository, tag } => {
                write!(f, "delete-tag {repository}:{tag}")
            }
            ChaosEffect::Collected(gc) => write!(
                f,
                "registry-gc marked {} swept {} released {} B",
                gc.marked, gc.swept, gc.declared_bytes_released
            ),
        }
    }
}

/// Where the executor reports what it does. `()` drops every event;
/// [`Trace`] keeps them.
pub trait Monitor {
    /// A job of `app` begins; its events name microservices by id.
    fn begin_job(&mut self, app: &Application);

    /// One event, stamped `at` on the session clock.
    fn record(&mut self, at: Seconds, kind: TraceKind, device: DeviceId, subject: Subject<'_>);
}

impl Monitor for () {
    fn begin_job(&mut self, _: &Application) {}

    fn record(&mut self, _: Seconds, _: TraceKind, _: DeviceId, _: Subject<'_>) {}
}

/// An event as a [`Trace`] stores it: the subject by id, except a chaos
/// label, formatted once when the event fires.
#[derive(Debug, Clone)]
struct Stored {
    at: Seconds,
    kind: TraceKind,
    device: DeviceId,
    label: Label,
}

#[derive(Debug, Clone)]
enum Label {
    Microservice { job: usize, id: MicroserviceId },
    Stage(usize),
    Chaos(String),
}

/// An append-only monitoring log.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Each begun job's microservice names, indexed by id.
    jobs: Vec<Vec<String>>,
    events: Vec<Stored>,
}

impl Monitor for Trace {
    fn begin_job(&mut self, app: &Application) {
        self.jobs.push(app.ids().map(|id| app.microservice(id).name.clone()).collect());
    }

    fn record(&mut self, at: Seconds, kind: TraceKind, device: DeviceId, subject: Subject<'_>) {
        let label = match subject {
            Subject::Microservice { job, id } => Label::Microservice { job, id },
            Subject::Stage(wave) => Label::Stage(wave),
            Subject::Chaos { scripted, effect } => {
                Label::Chaos(format!("{effect} (scripted t={scripted})"))
            }
        };
        self.events.push(Stored { at, kind, device, label });
    }
}

impl Trace {
    pub fn new() -> Self {
        Self::default()
    }

    fn label<'a>(&'a self, event: &'a Stored) -> Cow<'a, str> {
        match &event.label {
            Label::Microservice { job, id } => Cow::Borrowed(&self.jobs[*job][id.0]),
            Label::Stage(wave) => Cow::Owned(format!("stage-{wave}")),
            Label::Chaos(text) => Cow::Borrowed(text),
        }
    }

    fn read(&self, event: &Stored) -> TraceEvent {
        TraceEvent {
            at: event.at,
            kind: event.kind,
            device: event.device,
            label: self.label(event).into_owned(),
        }
    }

    /// All events in time order.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.events.iter().map(|e| self.read(e))
    }

    /// Events of one kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = TraceEvent> + '_ {
        self.events.iter().filter(move |e| e.kind == kind).map(|e| self.read(e))
    }

    /// Events touching one microservice.
    pub fn for_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = TraceEvent> + 'a {
        self.events.iter().filter(move |e| self.label(e) == label).map(|e| self.read(e))
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The executor's end of monitoring: it checks that stamps never run
/// backwards — one compare per event, whether or not the monitor keeps
/// anything (the check catches executor bugs) — and passes each event on.
#[derive(Debug)]
pub(crate) struct Recorder<M> {
    pub(crate) monitor: M,
    last: Seconds,
}

impl<M: Monitor> Recorder<M> {
    pub(crate) fn new(monitor: M) -> Self {
        Recorder { monitor, last: Seconds::ZERO }
    }

    pub(crate) fn record(
        &mut self,
        at: Seconds,
        kind: TraceKind,
        device: DeviceId,
        subject: Subject<'_>,
    ) {
        assert!(
            at.as_f64() >= self.last.as_f64() - 1e-9,
            "trace went backwards: {at} after {}",
            self.last
        );
        self.last = at;
        self.monitor.record(at, kind, device, subject);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_dataflow::{ApplicationBuilder, Mi, Requirements};
    use deep_netsim::DataSize;

    /// A two-microservice job: `a` is id 0, `b` id 1.
    fn recorder() -> Recorder<Trace> {
        let mut b = ApplicationBuilder::new("t");
        let req = Requirements::new(1, Mi::new(1.0), DataSize::ZERO, DataSize::ZERO);
        b.microservice("a", DataSize::ZERO, req);
        b.microservice("b", DataSize::ZERO, req);
        let mut r = Recorder::new(Trace::new());
        r.monitor.begin_job(&b.build().unwrap());
        r
    }

    fn ms(id: usize) -> Subject<'static> {
        Subject::Microservice { job: 0, id: MicroserviceId(id) }
    }

    #[test]
    fn records_in_order() {
        let mut r = recorder();
        r.record(Seconds::new(0.0), TraceKind::DeploymentStarted, DeviceId(0), ms(0));
        r.record(Seconds::new(5.0), TraceKind::DeploymentFinished, DeviceId(0), ms(0));
        let t = r.monitor;
        assert_eq!(t.len(), 2);
        let second = t.events().nth(1).unwrap();
        assert_eq!(second.kind, TraceKind::DeploymentFinished);
        assert_eq!(second.label, "a");
    }

    #[test]
    fn filters_by_kind_and_label() {
        let mut r = recorder();
        r.record(Seconds::new(0.0), TraceKind::DeploymentStarted, DeviceId(0), ms(0));
        r.record(Seconds::new(1.0), TraceKind::DeploymentStarted, DeviceId(1), ms(1));
        r.record(Seconds::new(2.0), TraceKind::ProcessingStarted, DeviceId(0), ms(0));
        r.record(
            Seconds::new(2.0),
            TraceKind::StageBarrierReleased,
            DeviceId(0),
            Subject::Stage(3),
        );
        let t = r.monitor;
        assert_eq!(t.of_kind(TraceKind::DeploymentStarted).count(), 2);
        assert_eq!(t.for_label("a").count(), 2);
        assert_eq!(t.for_label("b").count(), 1);
        assert_eq!(t.for_label("stage-3").count(), 1);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn out_of_order_rejected() {
        let mut r = recorder();
        r.record(Seconds::new(5.0), TraceKind::DeploymentStarted, DeviceId(0), ms(0));
        r.record(Seconds::new(1.0), TraceKind::DeploymentFinished, DeviceId(0), ms(0));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn out_of_order_rejected_without_a_log() {
        let mut r = Recorder::new(());
        r.record(Seconds::new(5.0), TraceKind::DeploymentStarted, DeviceId(0), ms(0));
        r.record(Seconds::new(1.0), TraceKind::DeploymentFinished, DeviceId(0), ms(0));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
