//! Measurement plumbing shared by the workloads: the in-memory span
//! recorder, the failure ledger, sample statistics, the determinism
//! digest, run-report tallies and peak memory.

use deep::netsim::RegistryId;
use deep::simulator::{peer_holder, RunReport, REGISTRY_PEER};
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One recorded span around a public call, named `layer.call`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// The request (cell, admission or job) the span served.
    pub request: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
    });
}

/// Switch span recording on or off; when off, [`span`] only runs its body.
pub fn set_tracing(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Tag the spans that follow with request `id`.
pub fn set_request(id: u64) {
    RECORDER.with(|r| r.borrow_mut().request = id);
}

/// Remove and return every span recorded so far. Call it with no span
/// open: parent indices refer into the returned vector.
pub fn take_spans() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Ends its span when dropped, so a panicking body still closes it.
struct Open(Option<usize>);

impl Drop for Open {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            RECORDER.with(|r| {
                let mut r = r.borrow_mut();
                let now = r.epoch.elapsed().as_nanos() as u64;
                r.spans[index].end_ns = now;
                r.open.pop();
            });
        }
    }
}

/// Run `body` inside a span called `name`.
pub fn span<T>(name: &'static str, body: impl FnOnce() -> T) -> T {
    let _open = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Open(None);
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let request = r.request;
        r.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        let index = r.spans.len() - 1;
        r.open.push(index);
        Open(Some(index))
    });
    body()
}

/// Append `more` to `all`, re-basing its parent indices.
pub fn append_spans(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Durations (ms) of the spans called `name`.
pub fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Per-layer self time and the time the root spans cover.
pub struct Breakdown {
    /// Per layer: span durations minus the part their children cover.
    pub self_ms: BTreeMap<&'static str, f64>,
    pub covered_ms: f64,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.ms();
        }
    }
    let mut self_ms = BTreeMap::new();
    let mut covered_ms = 0.0;
    for (s, child) in spans.iter().zip(&children) {
        *self_ms.entry(s.layer()).or_insert(0.0) += s.ms() - child;
        if s.parent.is_none() {
            covered_ms += s.ms();
        }
    }
    Breakdown { self_ms, covered_ms }
}

/// Write the spans as JSON lines to `path`, creating its directory.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"request\": {}}}\n",
            s.name, s.start_ns, s.end_ns, s.request
        ));
    }
    std::fs::write(path, text)
}

// ---------------------------------------------------------------------
// Failure accounting
// ---------------------------------------------------------------------

/// Failed operations against attempted ones. A failure is an `Err`, a
/// caught panic or a failed output check; the run goes on past it.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Run one operation, counting a panic as a failure.
    pub fn call<T>(&mut self, what: &str, op: impl FnOnce() -> T) -> Option<T> {
        self.attempt(what, || Ok::<T, String>(op()))
    }

    /// Run one fallible operation, counting an `Err` or a panic as a
    /// failure.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        op: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(e)) => {
                self.fail(what, &e.to_string());
                None
            }
            Err(payload) => {
                self.fail(what, &format!("panicked: {}", panic_text(&*payload)));
                None
            }
        }
    }

    /// Record one output check.
    pub fn check(&mut self, what: &str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what, "output check failed");
        }
        ok
    }

    /// Record a failure of something already counted as attempted.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(format!("{what}: {why}"));
        }
    }
}

fn panic_text(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Linear-interpolated percentile, `p` in 0–100; NaN without samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; NaN without samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The `p`-th percentile, only when at least ten samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    let beyond = (samples.len() as f64 * (100.0 - p) / 100.0).floor();
    (beyond >= 10.0).then(|| percentile(samples, p))
}

// ---------------------------------------------------------------------
// Outputs
// ---------------------------------------------------------------------

/// FNV-1a over serialized outputs: equal digests mean byte-identical
/// schedules and reports.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add<T: serde::Serialize + ?Sized>(&mut self, value: &T) {
        let text = serde_json::to_string(value).expect("library outputs serialize");
        for byte in text.bytes().chain([b'\n']) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Simulated outcomes of a set of executed deployments.
#[derive(Debug, Default)]
pub struct Tally {
    /// Executed application deployments (`RunReport`s).
    pub deployments: usize,
    /// Realized `Td` of every microservice deployment (s).
    pub td: Vec<f64>,
    pub energy_j: f64,
    /// Microservice deployments that lost a source fatally.
    pub failovers: usize,
    /// Microservice deployments that fetched at least one layer.
    pub pulls: usize,
    pub failed_sources: usize,
    pub backoff_s: f64,
    /// Megabytes served by the hub, the regional, mirrors and peers.
    pub bytes_mb: [f64; 4],
}

impl Tally {
    pub fn add(&mut self, report: &RunReport) {
        self.deployments += 1;
        self.energy_j += report.total_energy().as_f64();
        for m in &report.microservices {
            self.td.push(m.td.as_f64());
            self.failovers += usize::from(!m.failed_sources.is_empty());
            self.pulls += usize::from(!m.sources.is_empty());
            self.failed_sources += m.failed_sources.len();
            self.backoff_s += m.backoff_total.as_f64();
        }
        for (source, mb) in report.downloaded_by_source() {
            self.bytes_mb[source_class(source)] += mb;
        }
    }

    /// Mean energy per executed deployment (J), the paper's metric.
    pub fn energy_per_deployment(&self) -> f64 {
        self.energy_j / self.deployments as f64
    }

    pub fn failover_rate(&self) -> f64 {
        self.failovers as f64 / self.td.len() as f64
    }
}

/// Index into [`Tally::bytes_mb`]: hub, regional, mirror or peer.
fn source_class(source: RegistryId) -> usize {
    match source.0 {
        0 => 0,
        1 => 1,
        _ if source == REGISTRY_PEER || peer_holder(source).is_some() => 3,
        _ => 2,
    }
}

/// Peak resident memory of this process (VmHWM) in MB; NaN where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A sub-seed of the workload seed (splitmix64 of `seed` and `salt`),
/// kept below 2^40 so scenario documents can carry it as an integer.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 24
}
