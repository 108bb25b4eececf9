//! Seeded, deterministic chaos/soak scenarios: a TOML DSL for fleet,
//! workload, and scripted fault timelines.
//!
//! A scenario file describes one reproducible experiment end to end —
//! the testbed (base fleet, mirrors, link overrides), the application
//! workload, the per-source [`deep_registry::FaultRates`], and a
//! timeline of scripted events: sticky source outages and correlated
//! multi-mirror incidents ([`Event::Outage`]), bandwidth degradations
//! ([`Event::Degrade`]), peer-uplink kills ([`Event::PeerUplinkKill`]),
//! and chaos actions the executor fires on its wave clock
//! ([`Event::CachePressure`], [`Event::DeleteTag`],
//! [`Event::RegistryGc`]). Time-indexed events become
//! [`deep_registry::OutageWindow`]s on the testbed's fault model or
//! [`deep_simulator::ChaosEvent`]s for
//! [`deep_simulator::execute_with_events`]; faults activate and clear
//! at scripted times, not per-pull draws.
//!
//! The format is the small TOML subset of [`toml`] (hand-rolled — the
//! workspace vendors no TOML crate); `docs/SCENARIOS.md` documents the
//! schema with a commented example. Parsing is strict: unknown keys,
//! unknown targets, zero-duration events, and overlapping same-target
//! dark windows are rejected with the offending key and a reason.
//! [`Scenario::to_toml`] emits a canonical form such that
//! parse → serialize → parse is the identity (pinned by proptests).
//!
//! A `[gossip]` table switches both the scheduler and the executor
//! from the omniscient peer snapshot to
//! [`deep_simulator::PeerDiscovery::Gossip`] (fanout, bounded view
//! size, epidemic rounds per wave); it requires `peer_sharing = true`
//! and unlocks the `gossip-view-size` / `gossip-rounds` sweep axes.
//!
//! Scenarios also express *sweeps*: [`SweepAxis`] entries expand one
//! file into the cartesian grid of concrete scenarios
//! ([`Scenario::expand`]), which is how `examples/fault_sweep.rs` and
//! `examples/registry_sweep.rs` drive their grids from checked-in
//! files.
//!
//! This crate deliberately does not depend on `deep-core`:
//! [`Scenario::build_testbed_with`] takes the calibrator as a closure,
//! so deep-core (and the root facade) can hand in `calibrate` without a
//! dependency cycle.

#![forbid(unsafe_code)]

pub mod toml;

use deep_dataflow::{apps, Application};
use deep_netsim::{Bandwidth, DataSize, DeviceId, RegistryId, Seconds};
use deep_registry::{FaultModel, FaultRates, OutageWindow, RetryPolicy};
use deep_simulator::{
    peer_source_id, ChaosEvent, ExecutorConfig, PeerDiscovery, Testbed, TestbedParams,
    REGISTRY_MIRROR_BASE,
};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::toml::Value;

/// Scenario loading / validation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The file could not be read.
    Io(String),
    /// The TOML layer rejected the document.
    Parse(toml::ParseError),
    /// The document is well-formed TOML but not a valid scenario.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io(m) => write!(f, "{m}"),
            ScenarioError::Parse(e) => write!(f, "{e}"),
            ScenarioError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<toml::ParseError> for ScenarioError {
    fn from(e: toml::ParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

fn invalid<T>(message: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError::Invalid(message.into()))
}

/// A mesh source a scenario can name: the paper registries or the k-th
/// regional mirror (`"hub"`, `"regional"`, `"mirror-K"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Hub,
    Regional,
    Mirror(usize),
}

impl Target {
    fn parse(text: &str) -> Result<Self, ScenarioError> {
        match text {
            "hub" => Ok(Target::Hub),
            "regional" => Ok(Target::Regional),
            _ => match text.strip_prefix("mirror-").and_then(|k| k.parse::<usize>().ok()) {
                Some(k) => Ok(Target::Mirror(k)),
                None => invalid(format!(
                    "unknown target `{text}` (expected `hub`, `regional`, or `mirror-K`)"
                )),
            },
        }
    }

    /// The mesh id the target resolves to.
    pub fn registry_id(&self) -> RegistryId {
        match self {
            Target::Hub => RegistryId(0),
            Target::Regional => RegistryId(1),
            Target::Mirror(k) => RegistryId(REGISTRY_MIRROR_BASE.0 + k),
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Hub => write!(f, "hub"),
            Target::Regional => write!(f, "regional"),
            Target::Mirror(k) => write!(f, "mirror-{k}"),
        }
    }
}

/// Which fleet the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestbedBase {
    /// The paper's two-device testbed ([`Testbed::paper`]).
    Paper,
    /// The cloud–edge continuum ([`Testbed::continuum`]).
    Continuum,
}

impl TestbedBase {
    fn as_str(&self) -> &'static str {
        match self {
            TestbedBase::Paper => "paper",
            TestbedBase::Continuum => "continuum",
        }
    }

    /// Devices in the fleet (bounds-checks `device = N` fields).
    fn device_count(&self) -> usize {
        match self {
            TestbedBase::Paper => 2,
            TestbedBase::Continuum => 3,
        }
    }
}

/// The `[testbed]` table: fleet shape and link overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedSpec {
    pub base: TestbedBase,
    /// Apply the calibrator closure handed to
    /// [`Scenario::build_testbed_with`] (deep-core's `calibrate`).
    pub calibrate: bool,
    /// Regional mirrors to register, k-th at `10 + k` MB/s and 5 s
    /// overhead — the canonical sweep mirrors of the examples.
    pub mirrors: usize,
    /// Override [`TestbedParams::regional_to_small`] (MB/s).
    pub regional_to_small_mbps: Option<f64>,
}

impl Default for TestbedSpec {
    fn default() -> Self {
        TestbedSpec {
            base: TestbedBase::Paper,
            calibrate: true,
            mirrors: 0,
            regional_to_small_mbps: None,
        }
    }
}

/// The `[retry]` table: the policy transient injections back off under.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrySpec {
    pub max_attempts: usize,
    /// Base backoff in seconds (doubles per retry).
    pub base_backoff: f64,
}

/// The `[gossip]` table: epidemic peer discovery with bounded views
/// ([`PeerDiscovery::Gossip`]) instead of the omniscient per-wave
/// snapshot. Requires `peer_sharing = true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipSpec {
    /// Exchange partners per device per round (clamped to the fleet
    /// size minus one at runtime).
    pub fanout: u32,
    /// Max holder sources one pull's mesh may carry.
    pub view_size: u32,
    /// Epidemic rounds per wave barrier.
    pub rounds_per_wave: u32,
}

/// One `[[rates]]` entry: a source's sampled failure probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSpec {
    pub target: Target,
    pub fatal_per_pull: f64,
    pub transient_per_fetch: f64,
}

/// One `[[events]]` entry: a scripted fault or chaos action. Times are
/// scenario seconds, multiplied by [`Scenario::time_scale`] at build.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A sticky outage: `target` is dark over `[start, start+duration)`.
    Outage { target: Target, start: f64, duration: f64 },
    /// A bandwidth degradation: `target` serves at `factor` × nominal.
    Degrade { target: Target, start: f64, duration: f64, factor: f64 },
    /// Kill device `device`'s peer-serving uplink: its per-holder peer
    /// source goes dark for the window (the device still *pulls*).
    PeerUplinkKill { device: usize, start: f64, duration: f64 },
    /// Storage pressure at time `at`: LRU-evict `device`'s cache down to
    /// `keep_mb` MB, retracting the victims' peer advertisements.
    CachePressure { device: usize, at: f64, keep_mb: f64 },
    /// Delete `repository:tag` from the regional registry at `at`.
    DeleteTag { at: f64, repository: String, tag: String },
    /// Garbage-collect the regional registry at `at`.
    RegistryGc { at: f64 },
}

/// The inter-arrival law of one `[[arrivals]]` stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalModel {
    /// Poisson process: exponential inter-arrival times at `rate`
    /// arrivals per scenario second (sampled from the scenario's
    /// splitmix64 seed stream by the arrival plane).
    Poisson { rate: f64 },
    /// Fixed inter-arrival gap of `interval` scenario seconds.
    Deterministic { interval: f64 },
    /// Explicit arrival times in scenario seconds (sorted,
    /// non-negative).
    Trace { times: Vec<f64> },
}

/// One `[[arrivals]]` entry: a stream of deployment requests for the
/// scenario's application, admitted by the online arrival plane
/// (`deep-arrival`) at executor wave barriers. Times are scenario
/// seconds, multiplied by [`Scenario::time_scale`] like event times.
/// Multiple entries are merged into one time-ordered request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSpec {
    pub model: ArrivalModel,
    /// Arrivals the stream emits (trace streams derive it from the
    /// list).
    pub count: usize,
    /// Leading arrivals excluded from steady-state statistics (still
    /// executed — they warm caches and queues).
    pub warmup: usize,
}

/// A sweepable scenario parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Regional mirror count (values must be small non-negative
    /// integers).
    MirrorCount,
    /// Sets the regional registry's `fatal_per_pull` *and*
    /// `transient_per_fetch` to the value — the examples' lossy-regional
    /// knob.
    FaultRate,
    /// Overrides [`TestbedParams::regional_to_small`] (MB/s).
    RegionalToSmallMbps,
    /// Overrides [`GossipSpec::view_size`] — sweep the bounded-view ×
    /// propagation frontier. Requires a `[gossip]` section.
    GossipViewSize,
    /// Overrides [`GossipSpec::rounds_per_wave`]. Requires a `[gossip]`
    /// section.
    GossipRounds,
}

impl Axis {
    fn as_str(&self) -> &'static str {
        match self {
            Axis::MirrorCount => "mirror-count",
            Axis::FaultRate => "fault-rate",
            Axis::RegionalToSmallMbps => "regional-to-small-mbps",
            Axis::GossipViewSize => "gossip-view-size",
            Axis::GossipRounds => "gossip-rounds",
        }
    }

    fn parse(text: &str) -> Result<Self, ScenarioError> {
        match text {
            "mirror-count" => Ok(Axis::MirrorCount),
            "fault-rate" => Ok(Axis::FaultRate),
            "regional-to-small-mbps" => Ok(Axis::RegionalToSmallMbps),
            "gossip-view-size" => Ok(Axis::GossipViewSize),
            "gossip-rounds" => Ok(Axis::GossipRounds),
            _ => invalid(format!(
                "unknown sweep axis `{text}` (expected `mirror-count`, `fault-rate`, \
                 `regional-to-small-mbps`, `gossip-view-size`, or `gossip-rounds`)"
            )),
        }
    }
}

/// One `[[sweep]]` entry: expand the scenario over these values of one
/// axis (cartesian product across entries, in file order).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    pub axis: Axis,
    pub values: Vec<f64>,
}

/// A parsed, validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    /// Workload: `"video-processing"` or `"text-processing"`.
    pub app: String,
    /// Base of the replication seed stream: replication `r` runs under
    /// fault seed `seed + r`.
    pub seed: u64,
    /// Seeded replications per scenario (the Monte-Carlo width).
    pub replications: u32,
    /// Multiplier on every scripted event time — smoke runs compress a
    /// soak timeline without editing the file.
    pub time_scale: f64,
    /// Register the peer plane in each pull's mesh
    /// ([`ExecutorConfig::peer_sharing`]).
    pub peer_sharing: bool,
    pub testbed: TestbedSpec,
    pub retry: Option<RetrySpec>,
    /// Gossip-based peer discovery (`[gossip]`); `None` keeps the
    /// omniscient snapshot catalog.
    pub gossip: Option<GossipSpec>,
    pub rates: Vec<RateSpec>,
    pub events: Vec<Event>,
    pub arrivals: Vec<ArrivalSpec>,
    pub sweep: Vec<SweepAxis>,
}

// ---------------------------------------------------------------------
// Decoding helpers: strict field access over the parsed Value tree.
// ---------------------------------------------------------------------

fn check_keys(
    table: &BTreeMap<String, Value>,
    allowed: &[&str],
    ctx: &str,
) -> Result<(), ScenarioError> {
    for key in table.keys() {
        if !allowed.contains(&key.as_str()) {
            return invalid(format!(
                "unknown key `{key}` in {ctx} (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn req_str(table: &BTreeMap<String, Value>, key: &str, ctx: &str) -> Result<String, ScenarioError> {
    match table.get(key) {
        Some(v) => match v.as_str() {
            Some(s) => Ok(s.to_string()),
            None => invalid(format!("`{key}` in {ctx} must be a string")),
        },
        None => invalid(format!("{ctx} is missing required key `{key}`")),
    }
}

fn req_float(table: &BTreeMap<String, Value>, key: &str, ctx: &str) -> Result<f64, ScenarioError> {
    match table.get(key) {
        Some(v) => match v.as_float() {
            Some(x) => Ok(x),
            None => invalid(format!("`{key}` in {ctx} must be a number")),
        },
        None => invalid(format!("{ctx} is missing required key `{key}`")),
    }
}

fn opt_float(
    table: &BTreeMap<String, Value>,
    key: &str,
    ctx: &str,
) -> Result<Option<f64>, ScenarioError> {
    match table.get(key) {
        Some(v) => match v.as_float() {
            Some(x) => Ok(Some(x)),
            None => invalid(format!("`{key}` in {ctx} must be a number")),
        },
        None => Ok(None),
    }
}

fn req_index(
    table: &BTreeMap<String, Value>,
    key: &str,
    ctx: &str,
) -> Result<usize, ScenarioError> {
    match table.get(key) {
        Some(v) => match v.as_int() {
            Some(n) if n >= 0 => Ok(n as usize),
            _ => invalid(format!("`{key}` in {ctx} must be a non-negative integer")),
        },
        None => invalid(format!("{ctx} is missing required key `{key}`")),
    }
}

/// `n` as a `u32`, or an `Invalid` error naming `key` when it does not
/// fit — a bare `as` cast would wrap past the caller's range checks.
fn to_u32(n: usize, key: &str, ctx: &str) -> Result<u32, ScenarioError> {
    u32::try_from(n).or_else(|_| invalid(format!("`{key}` in {ctx} must be at most {}", u32::MAX)))
}

fn opt_index(
    table: &BTreeMap<String, Value>,
    key: &str,
    ctx: &str,
) -> Result<Option<usize>, ScenarioError> {
    match table.get(key) {
        Some(v) => match v.as_int() {
            Some(n) if n >= 0 => Ok(Some(n as usize)),
            _ => invalid(format!("`{key}` in {ctx} must be a non-negative integer")),
        },
        None => Ok(None),
    }
}

fn opt_bool(
    table: &BTreeMap<String, Value>,
    key: &str,
    ctx: &str,
) -> Result<Option<bool>, ScenarioError> {
    match table.get(key) {
        Some(v) => match v.as_bool() {
            Some(b) => Ok(Some(b)),
            None => invalid(format!("`{key}` in {ctx} must be a boolean")),
        },
        None => Ok(None),
    }
}

fn sub_tables<'t>(
    root: &'t BTreeMap<String, Value>,
    key: &str,
) -> Result<Vec<&'t BTreeMap<String, Value>>, ScenarioError> {
    match root.get(key) {
        None => Ok(Vec::new()),
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v.as_table() {
                Some(t) => Ok(t),
                None => invalid(format!("`[[{key}]]` entries must be tables")),
            })
            .collect(),
        Some(_) => invalid(format!("`{key}` must be an array of tables (`[[{key}]]`)")),
    }
}

impl Scenario {
    /// Parse and validate a scenario document.
    pub fn parse(input: &str) -> Result<Scenario, ScenarioError> {
        let root = toml::parse(input)?;
        check_keys(
            &root,
            &[
                "name",
                "app",
                "seed",
                "replications",
                "time_scale",
                "peer_sharing",
                "testbed",
                "retry",
                "gossip",
                "rates",
                "events",
                "arrivals",
                "sweep",
            ],
            "the scenario root",
        )?;

        let name = req_str(&root, "name", "the scenario root")?;
        if name.is_empty() {
            return invalid("`name` must be non-empty");
        }
        let app = req_str(&root, "app", "the scenario root")?;
        if !matches!(app.as_str(), "video-processing" | "text-processing") {
            return invalid(format!(
                "unknown app `{app}` (expected `video-processing` or `text-processing`)"
            ));
        }
        let seed = match root.get("seed") {
            Some(v) => match v.as_int() {
                Some(n) if n >= 0 => n as u64,
                _ => return invalid("`seed` must be a non-negative integer"),
            },
            None => 0,
        };
        let replications = match opt_index(&root, "replications", "the scenario root")? {
            Some(0) => return invalid("`replications` must be at least 1"),
            Some(n) => to_u32(n, "replications", "the scenario root")?,
            None => 1,
        };
        let time_scale = opt_float(&root, "time_scale", "the scenario root")?.unwrap_or(1.0);
        if time_scale <= 0.0 {
            return invalid(format!("`time_scale` must be positive, got {time_scale}"));
        }
        let peer_sharing = opt_bool(&root, "peer_sharing", "the scenario root")?.unwrap_or(false);

        let testbed = Self::parse_testbed(&root)?;
        let retry = Self::parse_retry(&root)?;
        let gossip = Self::parse_gossip(&root)?;
        let rates = Self::parse_rates(&root)?;
        let events = Self::parse_events(&root, &testbed)?;
        let arrivals = Self::parse_arrivals(&root)?;
        let sweep = Self::parse_sweep(&root)?;

        let scenario = Scenario {
            name,
            app,
            seed,
            replications,
            time_scale,
            peer_sharing,
            testbed,
            retry,
            gossip,
            rates,
            events,
            arrivals,
            sweep,
        };
        scenario.validate_cross_refs()?;
        Ok(scenario)
    }

    /// Read and parse a scenario file.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
        Self::parse(&text)
    }

    fn parse_testbed(root: &BTreeMap<String, Value>) -> Result<TestbedSpec, ScenarioError> {
        let Some(v) = root.get("testbed") else {
            return Ok(TestbedSpec::default());
        };
        let Some(table) = v.as_table() else {
            return invalid("`testbed` must be a table (`[testbed]`)");
        };
        check_keys(
            table,
            &["base", "calibrate", "mirrors", "regional_to_small_mbps"],
            "[testbed]",
        )?;
        let base = match table.get("base").map(|v| v.as_str()) {
            None => TestbedBase::Paper,
            Some(Some("paper")) => TestbedBase::Paper,
            Some(Some("continuum")) => TestbedBase::Continuum,
            Some(other) => {
                return invalid(format!(
                    "`base` in [testbed] must be `paper` or `continuum`, got {other:?}"
                ))
            }
        };
        let calibrate = opt_bool(table, "calibrate", "[testbed]")?.unwrap_or(true);
        let mirrors = opt_index(table, "mirrors", "[testbed]")?.unwrap_or(0);
        if mirrors > 64 {
            return invalid(format!("`mirrors` in [testbed] is implausibly large ({mirrors})"));
        }
        let regional_to_small_mbps = opt_float(table, "regional_to_small_mbps", "[testbed]")?;
        if let Some(mbps) = regional_to_small_mbps {
            if mbps <= 0.0 {
                return invalid(format!("`regional_to_small_mbps` must be positive, got {mbps}"));
            }
        }
        Ok(TestbedSpec { base, calibrate, mirrors, regional_to_small_mbps })
    }

    fn parse_retry(root: &BTreeMap<String, Value>) -> Result<Option<RetrySpec>, ScenarioError> {
        let Some(v) = root.get("retry") else {
            return Ok(None);
        };
        let Some(table) = v.as_table() else {
            return invalid("`retry` must be a table (`[retry]`)");
        };
        check_keys(table, &["max_attempts", "base_backoff"], "[retry]")?;
        let max_attempts = req_index(table, "max_attempts", "[retry]")?;
        if max_attempts == 0 {
            return invalid("`max_attempts` in [retry] must be at least 1");
        }
        let base_backoff = req_float(table, "base_backoff", "[retry]")?;
        if base_backoff < 0.0 {
            return invalid("`base_backoff` in [retry] must be non-negative");
        }
        Ok(Some(RetrySpec { max_attempts, base_backoff }))
    }

    fn parse_gossip(root: &BTreeMap<String, Value>) -> Result<Option<GossipSpec>, ScenarioError> {
        let Some(v) = root.get("gossip") else {
            return Ok(None);
        };
        let Some(table) = v.as_table() else {
            return invalid("`gossip` must be a table (`[gossip]`)");
        };
        check_keys(table, &["fanout", "view_size", "rounds_per_wave"], "[gossip]")?;
        let fanout = to_u32(req_index(table, "fanout", "[gossip]")?, "fanout", "[gossip]")?;
        if fanout == 0 {
            return invalid("`fanout` in [gossip] must be at least 1");
        }
        let view_size =
            to_u32(req_index(table, "view_size", "[gossip]")?, "view_size", "[gossip]")?;
        if view_size == 0 {
            return invalid(
                "`view_size` in [gossip] must be at least 1 (a zero view disables peer \
                 discovery entirely — drop `peer_sharing` instead)",
            );
        }
        let rounds_per_wave = to_u32(
            req_index(table, "rounds_per_wave", "[gossip]")?,
            "rounds_per_wave",
            "[gossip]",
        )?;
        if rounds_per_wave == 0 {
            return invalid("`rounds_per_wave` in [gossip] must be at least 1");
        }
        Ok(Some(GossipSpec { fanout, view_size, rounds_per_wave }))
    }

    fn parse_rates(root: &BTreeMap<String, Value>) -> Result<Vec<RateSpec>, ScenarioError> {
        let mut out = Vec::new();
        for table in sub_tables(root, "rates")? {
            check_keys(table, &["target", "fatal_per_pull", "transient_per_fetch"], "[[rates]]")?;
            let target = Target::parse(&req_str(table, "target", "[[rates]]")?)?;
            let fatal_per_pull = req_float(table, "fatal_per_pull", "[[rates]]")?;
            let transient_per_fetch = req_float(table, "transient_per_fetch", "[[rates]]")?;
            for (key, p) in
                [("fatal_per_pull", fatal_per_pull), ("transient_per_fetch", transient_per_fetch)]
            {
                if !(0.0..=1.0).contains(&p) {
                    return invalid(format!("`{key}` in [[rates]] must be in [0, 1], got {p}"));
                }
            }
            if out.iter().any(|r: &RateSpec| r.target == target) {
                return invalid(format!("duplicate [[rates]] entry for target `{target}`"));
            }
            out.push(RateSpec { target, fatal_per_pull, transient_per_fetch });
        }
        Ok(out)
    }

    fn parse_events(
        root: &BTreeMap<String, Value>,
        testbed: &TestbedSpec,
    ) -> Result<Vec<Event>, ScenarioError> {
        let mut out = Vec::new();
        for table in sub_tables(root, "events")? {
            let kind = req_str(table, "kind", "[[events]]")?;
            let ctx = format!("[[events]] kind = \"{kind}\"");
            let device = |key: &str| -> Result<usize, ScenarioError> {
                let d = req_index(table, key, &ctx)?;
                if d >= testbed.base.device_count() {
                    return invalid(format!(
                        "`{key}` = {d} in {ctx} is out of range: the {} testbed has {} devices",
                        testbed.base.as_str(),
                        testbed.base.device_count()
                    ));
                }
                Ok(d)
            };
            let window = || -> Result<(f64, f64), ScenarioError> {
                let start = req_float(table, "start", &ctx)?;
                let duration = req_float(table, "duration", &ctx)?;
                if start < 0.0 {
                    return invalid(format!("`start` in {ctx} must be non-negative, got {start}"));
                }
                if duration <= 0.0 {
                    return invalid(format!(
                        "`duration` in {ctx} must be positive, got {duration} \
                         (zero-duration events never fire — delete the entry instead)"
                    ));
                }
                Ok((start, duration))
            };
            let at = || -> Result<f64, ScenarioError> {
                let at = req_float(table, "at", &ctx)?;
                if at < 0.0 {
                    return invalid(format!("`at` in {ctx} must be non-negative, got {at}"));
                }
                Ok(at)
            };
            let event = match kind.as_str() {
                "outage" => {
                    check_keys(table, &["kind", "target", "start", "duration"], &ctx)?;
                    let target = Target::parse(&req_str(table, "target", &ctx)?)?;
                    let (start, duration) = window()?;
                    Event::Outage { target, start, duration }
                }
                "degrade" => {
                    check_keys(table, &["kind", "target", "start", "duration", "factor"], &ctx)?;
                    let target = Target::parse(&req_str(table, "target", &ctx)?)?;
                    let (start, duration) = window()?;
                    let factor = req_float(table, "factor", &ctx)?;
                    if factor <= 0.0 || factor >= 1.0 {
                        return invalid(format!(
                            "`factor` in {ctx} must be in (0, 1), got {factor} \
                             (use kind = \"outage\" for a full outage)"
                        ));
                    }
                    Event::Degrade { target, start, duration, factor }
                }
                "peer-uplink-kill" => {
                    check_keys(table, &["kind", "device", "start", "duration"], &ctx)?;
                    let device = device("device")?;
                    let (start, duration) = window()?;
                    Event::PeerUplinkKill { device, start, duration }
                }
                "cache-pressure" => {
                    check_keys(table, &["kind", "device", "at", "keep_mb"], &ctx)?;
                    let device = device("device")?;
                    let at = at()?;
                    let keep_mb = req_float(table, "keep_mb", &ctx)?;
                    if keep_mb < 0.0 {
                        return invalid(format!(
                            "`keep_mb` in {ctx} must be non-negative, got {keep_mb}"
                        ));
                    }
                    Event::CachePressure { device, at, keep_mb }
                }
                "delete-tag" => {
                    check_keys(table, &["kind", "at", "repository", "tag"], &ctx)?;
                    let repository = req_str(table, "repository", &ctx)?;
                    let tag = req_str(table, "tag", &ctx)?;
                    if repository.is_empty() || tag.is_empty() {
                        return invalid(format!("`repository`/`tag` in {ctx} must be non-empty"));
                    }
                    Event::DeleteTag { at: at()?, repository, tag }
                }
                "registry-gc" => {
                    check_keys(table, &["kind", "at"], &ctx)?;
                    Event::RegistryGc { at: at()? }
                }
                other => {
                    return invalid(format!(
                        "unknown event kind `{other}` (expected `outage`, `degrade`, \
                         `peer-uplink-kill`, `cache-pressure`, `delete-tag`, or `registry-gc`)"
                    ))
                }
            };
            out.push(event);
        }
        Ok(out)
    }

    fn parse_arrivals(root: &BTreeMap<String, Value>) -> Result<Vec<ArrivalSpec>, ScenarioError> {
        let mut out = Vec::new();
        for table in sub_tables(root, "arrivals")? {
            let model = req_str(table, "model", "[[arrivals]]")?;
            let ctx = format!("[[arrivals]] model = \"{model}\"");
            let count_warmup = |count: usize| -> Result<(usize, usize), ScenarioError> {
                if count == 0 {
                    return invalid(format!("`count` in {ctx} must be at least 1"));
                }
                let warmup = opt_index(table, "warmup", &ctx)?.unwrap_or(0);
                if warmup >= count {
                    return invalid(format!(
                        "`warmup` = {warmup} in {ctx} must be below `count` = {count}: at least \
                         one arrival has to land in the measurement phase"
                    ));
                }
                Ok((count, warmup))
            };
            let spec = match model.as_str() {
                "poisson" => {
                    check_keys(table, &["model", "rate", "count", "warmup"], &ctx)?;
                    let rate = req_float(table, "rate", &ctx)?;
                    if !(rate > 0.0 && rate.is_finite()) {
                        return invalid(format!(
                            "`rate` in {ctx} must be a positive finite arrival rate, got {rate}"
                        ));
                    }
                    let (count, warmup) = count_warmup(req_index(table, "count", &ctx)?)?;
                    ArrivalSpec { model: ArrivalModel::Poisson { rate }, count, warmup }
                }
                "deterministic" => {
                    check_keys(table, &["model", "interval", "count", "warmup"], &ctx)?;
                    let interval = req_float(table, "interval", &ctx)?;
                    if !(interval > 0.0 && interval.is_finite()) {
                        return invalid(format!(
                            "`interval` in {ctx} must be a positive finite gap, got {interval}"
                        ));
                    }
                    let (count, warmup) = count_warmup(req_index(table, "count", &ctx)?)?;
                    ArrivalSpec { model: ArrivalModel::Deterministic { interval }, count, warmup }
                }
                "trace" => {
                    check_keys(table, &["model", "times", "warmup"], &ctx)?;
                    let Some(values) = table.get("times").and_then(|v| v.as_array()) else {
                        return invalid(format!("`times` in {ctx} must be an array of numbers"));
                    };
                    let times: Vec<f64> = values
                        .iter()
                        .map(|v| {
                            v.as_float().ok_or_else(|| {
                                ScenarioError::Invalid(format!("`times` in {ctx} must be numbers"))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    if times.is_empty() {
                        return invalid(format!("`times` in {ctx} must be non-empty"));
                    }
                    if times.iter().any(|t| !(t.is_finite() && *t >= 0.0)) {
                        return invalid(format!(
                            "`times` in {ctx} must be non-negative finite seconds"
                        ));
                    }
                    if times.windows(2).any(|w| w[1] < w[0]) {
                        return invalid(format!("`times` in {ctx} must be sorted ascending"));
                    }
                    let (count, warmup) = count_warmup(times.len())?;
                    ArrivalSpec { model: ArrivalModel::Trace { times }, count, warmup }
                }
                other => {
                    return invalid(format!(
                        "unknown arrival model `{other}` (expected `poisson`, `deterministic`, \
                         or `trace`)"
                    ))
                }
            };
            out.push(spec);
        }
        Ok(out)
    }

    fn parse_sweep(root: &BTreeMap<String, Value>) -> Result<Vec<SweepAxis>, ScenarioError> {
        let mut out: Vec<SweepAxis> = Vec::new();
        for table in sub_tables(root, "sweep")? {
            check_keys(table, &["axis", "values"], "[[sweep]]")?;
            let axis = Axis::parse(&req_str(table, "axis", "[[sweep]]")?)?;
            let Some(values) = table.get("values").and_then(|v| v.as_array()) else {
                return invalid("`values` in [[sweep]] must be an array of numbers");
            };
            let values: Vec<f64> = values
                .iter()
                .map(|v| {
                    v.as_float().ok_or_else(|| {
                        ScenarioError::Invalid("`values` in [[sweep]] must be numbers".into())
                    })
                })
                .collect::<Result<_, _>>()?;
            if values.is_empty() {
                return invalid(format!("sweep axis `{}` has no values", axis.as_str()));
            }
            for &v in &values {
                let ok = match axis {
                    Axis::MirrorCount => v >= 0.0 && v.fract() == 0.0 && v <= 64.0,
                    Axis::FaultRate => (0.0..=1.0).contains(&v),
                    Axis::RegionalToSmallMbps => v > 0.0,
                    Axis::GossipViewSize => v >= 1.0 && v.fract() == 0.0 && v <= 4096.0,
                    Axis::GossipRounds => v >= 1.0 && v.fract() == 0.0 && v <= 256.0,
                };
                if !ok {
                    return invalid(format!(
                        "sweep axis `{}` has an out-of-range value {v}",
                        axis.as_str()
                    ));
                }
            }
            if out.iter().any(|s| s.axis == axis) {
                return invalid(format!("duplicate sweep axis `{}`", axis.as_str()));
            }
            out.push(SweepAxis { axis, values });
        }
        Ok(out)
    }

    /// Checks that need the whole document: mirror references vs. the
    /// mirror count, and overlapping same-target dark windows.
    fn validate_cross_refs(&self) -> Result<(), ScenarioError> {
        // Gossip discovery only does anything on the peer plane; a
        // `[gossip]` section without `peer_sharing` is dead config and
        // almost certainly a mistake.
        if self.gossip.is_some() && !self.peer_sharing {
            return invalid("[gossip] requires `peer_sharing = true`");
        }
        // The gossip sweep axes mutate the `[gossip]` section — without
        // one there is nothing to sweep.
        for sweep in &self.sweep {
            if matches!(sweep.axis, Axis::GossipViewSize | Axis::GossipRounds)
                && self.gossip.is_none()
            {
                return invalid(format!(
                    "sweep axis `{}` requires a [gossip] section",
                    sweep.axis.as_str()
                ));
            }
        }
        // Mirror targets must exist on every expanded scenario: against
        // the swept counts when a mirror-count axis exists, else against
        // the [testbed] count.
        let max_mirrors = self
            .sweep
            .iter()
            .find(|s| s.axis == Axis::MirrorCount)
            .map(|s| s.values.iter().fold(0usize, |acc, &v| acc.max(v as usize)))
            .unwrap_or(self.testbed.mirrors);
        let check_target = |target: &Target, ctx: &str| -> Result<(), ScenarioError> {
            if let Target::Mirror(k) = target {
                if *k >= max_mirrors {
                    return invalid(format!(
                        "{ctx} names `mirror-{k}` but the scenario registers only {max_mirrors} \
                         mirror(s) (`mirrors` in [testbed], or the `mirror-count` sweep)"
                    ));
                }
            }
            Ok(())
        };
        for rate in &self.rates {
            check_target(&rate.target, "[[rates]]")?;
        }
        // Dark windows on the same source must not overlap: two scripted
        // total outages over one interval is almost always a typo (use a
        // single longer window), and rejecting it keeps "the outage" of
        // a window unambiguous in reports. Degradations may overlap
        // (they stack multiplicatively).
        let mut dark: Vec<(RegistryId, f64, f64, String)> = Vec::new();
        for event in &self.events {
            match event {
                Event::Outage { target, start, duration } => {
                    check_target(target, "[[events]]")?;
                    dark.push((target.registry_id(), *start, start + duration, target.to_string()));
                }
                Event::Degrade { target, .. } => check_target(target, "[[events]]")?,
                Event::PeerUplinkKill { device, start, duration } => {
                    dark.push((
                        peer_source_id(DeviceId(*device)),
                        *start,
                        start + duration,
                        format!("device {device}'s peer uplink"),
                    ));
                }
                _ => {}
            }
        }
        dark.sort_by(|a, b| (a.0 .0, a.1).partial_cmp(&(b.0 .0, b.1)).expect("finite times"));
        for pair in dark.windows(2) {
            let (id_a, _, end_a, ref label) = pair[0];
            let (id_b, start_b, _, _) = pair[1];
            if id_a == id_b && start_b < end_a {
                return invalid(format!(
                    "overlapping dark windows on {label}: one ends at {end_a} s, the next starts \
                     at {start_b} s — merge them into a single window"
                ));
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Canonical serialization.
    // -----------------------------------------------------------------

    /// Serialize in canonical form: fixed key order, floats in Rust's
    /// shortest exact representation. `parse(s.to_toml()) == s`.
    pub fn to_toml(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let f = |x: f64| toml::format_value(&Value::Float(x));
        let q = |s: &str| toml::format_value(&Value::Str(s.to_string()));
        writeln!(out, "name = {}", q(&self.name)).unwrap();
        writeln!(out, "app = {}", q(&self.app)).unwrap();
        writeln!(out, "seed = {}", self.seed).unwrap();
        writeln!(out, "replications = {}", self.replications).unwrap();
        writeln!(out, "time_scale = {}", f(self.time_scale)).unwrap();
        writeln!(out, "peer_sharing = {}", self.peer_sharing).unwrap();
        writeln!(out, "\n[testbed]").unwrap();
        writeln!(out, "base = {}", q(self.testbed.base.as_str())).unwrap();
        writeln!(out, "calibrate = {}", self.testbed.calibrate).unwrap();
        writeln!(out, "mirrors = {}", self.testbed.mirrors).unwrap();
        if let Some(mbps) = self.testbed.regional_to_small_mbps {
            writeln!(out, "regional_to_small_mbps = {}", f(mbps)).unwrap();
        }
        if let Some(retry) = &self.retry {
            writeln!(out, "\n[retry]").unwrap();
            writeln!(out, "max_attempts = {}", retry.max_attempts).unwrap();
            writeln!(out, "base_backoff = {}", f(retry.base_backoff)).unwrap();
        }
        if let Some(gossip) = &self.gossip {
            writeln!(out, "\n[gossip]").unwrap();
            writeln!(out, "fanout = {}", gossip.fanout).unwrap();
            writeln!(out, "view_size = {}", gossip.view_size).unwrap();
            writeln!(out, "rounds_per_wave = {}", gossip.rounds_per_wave).unwrap();
        }
        for rate in &self.rates {
            writeln!(out, "\n[[rates]]").unwrap();
            writeln!(out, "target = {}", q(&rate.target.to_string())).unwrap();
            writeln!(out, "fatal_per_pull = {}", f(rate.fatal_per_pull)).unwrap();
            writeln!(out, "transient_per_fetch = {}", f(rate.transient_per_fetch)).unwrap();
        }
        for event in &self.events {
            writeln!(out, "\n[[events]]").unwrap();
            match event {
                Event::Outage { target, start, duration } => {
                    writeln!(out, "kind = \"outage\"").unwrap();
                    writeln!(out, "target = {}", q(&target.to_string())).unwrap();
                    writeln!(out, "start = {}", f(*start)).unwrap();
                    writeln!(out, "duration = {}", f(*duration)).unwrap();
                }
                Event::Degrade { target, start, duration, factor } => {
                    writeln!(out, "kind = \"degrade\"").unwrap();
                    writeln!(out, "target = {}", q(&target.to_string())).unwrap();
                    writeln!(out, "start = {}", f(*start)).unwrap();
                    writeln!(out, "duration = {}", f(*duration)).unwrap();
                    writeln!(out, "factor = {}", f(*factor)).unwrap();
                }
                Event::PeerUplinkKill { device, start, duration } => {
                    writeln!(out, "kind = \"peer-uplink-kill\"").unwrap();
                    writeln!(out, "device = {device}").unwrap();
                    writeln!(out, "start = {}", f(*start)).unwrap();
                    writeln!(out, "duration = {}", f(*duration)).unwrap();
                }
                Event::CachePressure { device, at, keep_mb } => {
                    writeln!(out, "kind = \"cache-pressure\"").unwrap();
                    writeln!(out, "device = {device}").unwrap();
                    writeln!(out, "at = {}", f(*at)).unwrap();
                    writeln!(out, "keep_mb = {}", f(*keep_mb)).unwrap();
                }
                Event::DeleteTag { at, repository, tag } => {
                    writeln!(out, "kind = \"delete-tag\"").unwrap();
                    writeln!(out, "at = {}", f(*at)).unwrap();
                    writeln!(out, "repository = {}", q(repository)).unwrap();
                    writeln!(out, "tag = {}", q(tag)).unwrap();
                }
                Event::RegistryGc { at } => {
                    writeln!(out, "kind = \"registry-gc\"").unwrap();
                    writeln!(out, "at = {}", f(*at)).unwrap();
                }
            }
        }
        for arrival in &self.arrivals {
            writeln!(out, "\n[[arrivals]]").unwrap();
            match &arrival.model {
                ArrivalModel::Poisson { rate } => {
                    writeln!(out, "model = \"poisson\"").unwrap();
                    writeln!(out, "rate = {}", f(*rate)).unwrap();
                    writeln!(out, "count = {}", arrival.count).unwrap();
                }
                ArrivalModel::Deterministic { interval } => {
                    writeln!(out, "model = \"deterministic\"").unwrap();
                    writeln!(out, "interval = {}", f(*interval)).unwrap();
                    writeln!(out, "count = {}", arrival.count).unwrap();
                }
                ArrivalModel::Trace { times } => {
                    writeln!(out, "model = \"trace\"").unwrap();
                    let times: Vec<String> = times.iter().map(|&t| f(t)).collect();
                    writeln!(out, "times = [{}]", times.join(", ")).unwrap();
                }
            }
            writeln!(out, "warmup = {}", arrival.warmup).unwrap();
        }
        for sweep in &self.sweep {
            writeln!(out, "\n[[sweep]]").unwrap();
            writeln!(out, "axis = {}", q(sweep.axis.as_str())).unwrap();
            let values: Vec<String> = sweep.values.iter().map(|&v| f(v)).collect();
            writeln!(out, "values = [{}]", values.join(", ")).unwrap();
        }
        out
    }

    // -----------------------------------------------------------------
    // Sweep expansion.
    // -----------------------------------------------------------------

    /// Expand the sweep axes into the cartesian grid of concrete
    /// scenarios (file order: the first axis varies slowest, matching
    /// the examples' loop nesting). A sweep-free scenario expands to
    /// itself. Expanded scenarios carry `name/axis=value` names and an
    /// empty sweep.
    pub fn expand(&self) -> Vec<Scenario> {
        let mut grid = vec![Scenario { sweep: Vec::new(), ..self.clone() }];
        for axis in &self.sweep {
            grid = grid
                .iter()
                .flat_map(|base| axis.values.iter().map(|&v| base.with_axis(axis.axis, v)))
                .collect();
        }
        grid
    }

    fn with_axis(&self, axis: Axis, value: f64) -> Scenario {
        let mut s = self.clone();
        let label = if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{}", value as i64)
        } else {
            format!("{value}")
        };
        s.name = format!("{}/{}={}", self.name, axis.as_str(), label);
        match axis {
            Axis::MirrorCount => s.testbed.mirrors = value as usize,
            Axis::FaultRate => {
                let rate = RateSpec {
                    target: Target::Regional,
                    fatal_per_pull: value,
                    transient_per_fetch: value,
                };
                match s.rates.iter_mut().find(|r| r.target == Target::Regional) {
                    Some(entry) => *entry = rate,
                    None => s.rates.push(rate),
                }
            }
            Axis::RegionalToSmallMbps => s.testbed.regional_to_small_mbps = Some(value),
            Axis::GossipViewSize => {
                s.gossip.as_mut().expect("validated: gossip axes require [gossip]").view_size =
                    value as u32;
            }
            Axis::GossipRounds => {
                s.gossip
                    .as_mut()
                    .expect("validated: gossip axes require [gossip]")
                    .rounds_per_wave = value as u32;
            }
        }
        s
    }

    // -----------------------------------------------------------------
    // Building the experiment.
    // -----------------------------------------------------------------

    /// A scripted time in executor seconds (`time_scale` applied).
    fn scaled(&self, t: f64) -> Seconds {
        Seconds::new(t * self.time_scale)
    }

    /// The fault model the scenario scripts: per-source rates, outage /
    /// degradation / uplink-kill windows (times scaled), and the retry
    /// policy.
    pub fn fault_model(&self) -> FaultModel {
        let mut model = FaultModel::default();
        for rate in &self.rates {
            model = model.with_source(
                rate.target.registry_id(),
                FaultRates {
                    fatal_per_pull: rate.fatal_per_pull,
                    transient_per_fetch: rate.transient_per_fetch,
                },
            );
        }
        for event in &self.events {
            match event {
                Event::Outage { target, start, duration } => {
                    model = model.with_window(OutageWindow::dark(
                        target.registry_id(),
                        self.scaled(*start),
                        self.scaled(*duration),
                    ));
                }
                Event::Degrade { target, start, duration, factor } => {
                    model = model.with_window(OutageWindow::degraded(
                        target.registry_id(),
                        self.scaled(*start),
                        self.scaled(*duration),
                        *factor,
                    ));
                }
                Event::PeerUplinkKill { device, start, duration } => {
                    model = model.with_window(OutageWindow::dark(
                        peer_source_id(DeviceId(*device)),
                        self.scaled(*start),
                        self.scaled(*duration),
                    ));
                }
                _ => {}
            }
        }
        if let Some(retry) = &self.retry {
            model = model.with_retry(RetryPolicy {
                max_attempts: retry.max_attempts,
                base_backoff: Seconds::new(retry.base_backoff),
                ..Default::default()
            });
        }
        model
    }

    /// Build the scenario's testbed. `calibrator` is applied when
    /// `[testbed] calibrate = true` — pass deep-core's `calibrate` (the
    /// closure indirection keeps this crate independent of deep-core),
    /// or `|_| {}` for the uncalibrated defaults.
    pub fn build_testbed_with(&self, calibrator: impl FnOnce(&mut Testbed)) -> Testbed {
        let mut params = TestbedParams::default();
        if let Some(mbps) = self.testbed.regional_to_small_mbps {
            params.regional_to_small = Bandwidth::megabytes_per_sec(mbps);
        }
        let mut tb = match self.testbed.base {
            TestbedBase::Paper => Testbed::with_params(params),
            TestbedBase::Continuum => Testbed::continuum_with_params(params),
        };
        if self.testbed.calibrate {
            calibrator(&mut tb);
        }
        for k in 0..self.testbed.mirrors {
            tb.add_regional_mirror(
                Bandwidth::megabytes_per_sec(10.0 + k as f64),
                Seconds::new(5.0),
            );
        }
        tb.fault_model = self.fault_model();
        tb
    }

    /// The chaos-event timeline for
    /// [`deep_simulator::execute_with_events`] (times scaled; outages /
    /// degradations are *not* chaos events — they ride the fault model).
    pub fn chaos_events(&self) -> Vec<ChaosEvent> {
        self.events
            .iter()
            .filter_map(|event| match event {
                Event::CachePressure { device, at, keep_mb } => Some(ChaosEvent::cache_pressure(
                    self.scaled(*at),
                    DeviceId(*device),
                    DataSize::megabytes(*keep_mb),
                )),
                Event::DeleteTag { at, repository, tag } => {
                    Some(ChaosEvent::delete_tag(self.scaled(*at), repository, tag))
                }
                Event::RegistryGc { at } => Some(ChaosEvent::registry_gc(self.scaled(*at))),
                _ => None,
            })
            .collect()
    }

    /// Executor configuration for replication `r` of the seed stream:
    /// fault injection iff the scenario scripts any fault, under seed
    /// `seed + r`.
    pub fn executor_config(&self, replication: u32) -> ExecutorConfig {
        ExecutorConfig {
            fault_injection: !self.fault_model().is_zero(),
            fault_seed: self.seed.wrapping_add(replication as u64),
            peer_sharing: self.peer_sharing,
            peer_discovery: self.peer_discovery(),
            ..Default::default()
        }
    }

    /// The discovery mode the `[gossip]` section asks for —
    /// [`PeerDiscovery::Snapshot`] without one.
    pub fn peer_discovery(&self) -> PeerDiscovery {
        match &self.gossip {
            Some(g) => PeerDiscovery::Gossip {
                fanout: g.fanout,
                view_size: g.view_size,
                rounds_per_wave: g.rounds_per_wave,
            },
            None => PeerDiscovery::Snapshot,
        }
    }

    /// The scenario's workload.
    pub fn application(&self) -> Application {
        match self.app.as_str() {
            "video-processing" => apps::video_processing(),
            "text-processing" => apps::text_processing(),
            other => unreachable!("app `{other}` was validated at parse time"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOAK: &str = r#"
name = "soak"
app = "video-processing"
seed = 7
replications = 3
time_scale = 0.5
peer_sharing = true

[testbed]
base = "continuum"
calibrate = false
mirrors = 2

[retry]
max_attempts = 4
base_backoff = 10.0

[[rates]]
target = "regional"
fatal_per_pull = 0.1
transient_per_fetch = 0.2

[[events]]
kind = "outage"
target = "mirror-1"
start = 100.0
duration = 60.0

[[events]]
kind = "degrade"
target = "regional"
start = 0.0
duration = 400.0
factor = 0.5

[[events]]
kind = "peer-uplink-kill"
device = 2
start = 50.0
duration = 25.0

[[events]]
kind = "cache-pressure"
device = 0
at = 200.0
keep_mb = 512.0

[[events]]
kind = "delete-tag"
at = 10.0
repository = "aau/vp-transcode"
tag = "amd64"

[[events]]
kind = "registry-gc"
at = 20.0

[[arrivals]]
model = "poisson"
rate = 0.004
count = 5
warmup = 1

[[arrivals]]
model = "deterministic"
interval = 250.0
count = 3
warmup = 0

[[arrivals]]
model = "trace"
times = [0.0, 30.0, 30.0]
warmup = 1
"#;

    #[test]
    fn parses_the_full_schema() {
        let s = Scenario::parse(SOAK).unwrap();
        assert_eq!(s.name, "soak");
        assert_eq!(s.seed, 7);
        assert_eq!(s.replications, 3);
        assert_eq!(s.time_scale, 0.5);
        assert!(s.peer_sharing);
        assert_eq!(s.testbed.base, TestbedBase::Continuum);
        assert!(!s.testbed.calibrate);
        assert_eq!(s.testbed.mirrors, 2);
        assert_eq!(s.retry.as_ref().unwrap().max_attempts, 4);
        assert_eq!(s.rates.len(), 1);
        assert_eq!(s.events.len(), 6);
        assert_eq!(s.arrivals.len(), 3);
        assert_eq!(s.arrivals[0].model, ArrivalModel::Poisson { rate: 0.004 });
        assert_eq!((s.arrivals[0].count, s.arrivals[0].warmup), (5, 1));
        assert_eq!(s.arrivals[1].model, ArrivalModel::Deterministic { interval: 250.0 });
        // Trace streams derive their count from the list (simultaneous
        // arrivals are legal — the queue absorbs them).
        assert_eq!(s.arrivals[2].model, ArrivalModel::Trace { times: vec![0.0, 30.0, 30.0] });
        assert_eq!((s.arrivals[2].count, s.arrivals[2].warmup), (3, 1));
        assert!(s.sweep.is_empty());
    }

    #[test]
    fn round_trips_through_canonical_toml() {
        let s = Scenario::parse(SOAK).unwrap();
        let text = s.to_toml();
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(back, s);
        // Canonical form is a fixed point.
        assert_eq!(back.to_toml(), text);
    }

    #[test]
    fn fault_model_carries_scaled_windows_and_rates() {
        let s = Scenario::parse(SOAK).unwrap();
        let model = s.fault_model();
        let rates = model.rates(RegistryId(1));
        assert_eq!(rates.fatal_per_pull, 0.1);
        assert_eq!(rates.transient_per_fetch, 0.2);
        assert_eq!(model.retry.max_attempts, 4);
        // time_scale = 0.5: the mirror-1 outage [100, 160) → [50, 80).
        let mirror1 = RegistryId(REGISTRY_MIRROR_BASE.0 + 1);
        assert!(model.dark_at(mirror1, Seconds::new(50.0)));
        assert!(!model.dark_at(mirror1, Seconds::new(80.0)));
        assert!(!model.dark_at(mirror1, Seconds::new(49.9)));
        // The degrade window halves the regional's rate over [0, 200).
        assert!((model.slowdown_at(RegistryId(1), Seconds::new(10.0)) - 2.0).abs() < 1e-12);
        // The uplink kill darkens the cloud's peer source over [25, 37.5).
        assert!(model.dark_at(peer_source_id(DeviceId(2)), Seconds::new(30.0)));
        assert!(!model.dark_at(peer_source_id(DeviceId(2)), Seconds::new(40.0)));
    }

    #[test]
    fn chaos_events_are_scaled_and_ordered_as_written() {
        let s = Scenario::parse(SOAK).unwrap();
        let events = s.chaos_events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0],
            ChaosEvent::cache_pressure(
                Seconds::new(100.0),
                DeviceId(0),
                DataSize::megabytes(512.0)
            )
        );
        assert_eq!(
            events[1],
            ChaosEvent::delete_tag(Seconds::new(5.0), "aau/vp-transcode", "amd64")
        );
        assert_eq!(events[2], ChaosEvent::registry_gc(Seconds::new(10.0)));
    }

    #[test]
    fn executor_config_tracks_the_seed_stream_and_fault_presence() {
        let s = Scenario::parse(SOAK).unwrap();
        let cfg = s.executor_config(2);
        assert!(cfg.fault_injection);
        assert_eq!(cfg.fault_seed, 9);
        assert!(cfg.peer_sharing);
        let quiet = Scenario::parse("name = \"quiet\"\napp = \"text-processing\"\n").unwrap();
        assert!(!quiet.executor_config(0).fault_injection);
        assert_eq!(quiet.replications, 1);
        assert_eq!(quiet.time_scale, 1.0);
    }

    #[test]
    fn builds_the_testbed_with_mirrors_and_fault_model() {
        let s = Scenario::parse(SOAK).unwrap();
        let mut called = false;
        let tb = s.build_testbed_with(|_| called = true);
        assert!(!called, "calibrate = false skips the calibrator");
        assert_eq!(tb.devices.len(), 3, "continuum base");
        assert_eq!(tb.mirrors.len(), 2);
        assert!(!tb.fault_model.is_zero());
        let calibrated = Scenario::parse(
            "name = \"c\"\napp = \"text-processing\"\n[testbed]\ncalibrate = true\n",
        )
        .unwrap();
        let mut called = false;
        calibrated.build_testbed_with(|_| called = true);
        assert!(called);
    }

    #[test]
    fn regional_to_small_override_applies() {
        let s = Scenario::parse(
            "name = \"bw\"\napp = \"text-processing\"\n[testbed]\ncalibrate = false\nregional_to_small_mbps = 4.0\n",
        )
        .unwrap();
        let tb = s.build_testbed_with(|_| {});
        assert_eq!(tb.params.regional_to_small, Bandwidth::megabytes_per_sec(4.0));
    }

    #[test]
    fn expand_is_the_cartesian_grid_in_file_order() {
        let s = Scenario::parse(
            r#"
name = "grid"
app = "text-processing"

[[sweep]]
axis = "mirror-count"
values = [0, 2]

[[sweep]]
axis = "fault-rate"
values = [0.0, 0.1, 0.4]
"#,
        )
        .unwrap();
        let grid = s.expand();
        assert_eq!(grid.len(), 6);
        // First axis varies slowest.
        assert_eq!(grid[0].testbed.mirrors, 0);
        assert_eq!(grid[0].rates[0].fatal_per_pull, 0.0);
        assert_eq!(grid[1].rates[0].fatal_per_pull, 0.1);
        assert_eq!(grid[3].testbed.mirrors, 2);
        assert_eq!(grid[5].rates[0].transient_per_fetch, 0.4);
        assert_eq!(grid[5].name, "grid/mirror-count=2/fault-rate=0.4");
        assert!(grid.iter().all(|g| g.sweep.is_empty()));
        // A sweep-free scenario expands to itself.
        let quiet = Scenario::parse("name = \"q\"\napp = \"text-processing\"\n").unwrap();
        assert_eq!(quiet.expand(), vec![quiet]);
    }

    #[test]
    fn integers_past_u32_are_rejected_not_wrapped() {
        // 2^32 would wrap to 0 under an `as u32` cast: a zero
        // replication count or a zero view the parser itself forbids.
        let base = "name = \"x\"\napp = \"text-processing\"\npeer_sharing = true\n";
        let gossip = |key: &str| {
            let mut keys = [("fanout", "2"), ("view_size", "8"), ("rounds_per_wave", "1")];
            keys.iter_mut().find(|(k, _)| *k == key).unwrap().1 = "4294967296";
            let body: String = keys.iter().map(|(k, v)| format!("{k} = {v}\n")).collect();
            format!("{base}[gossip]\n{body}")
        };
        for (doc, key) in [
            (format!("{base}replications = 4294967296\n"), "replications"),
            (gossip("fanout"), "fanout"),
            (gossip("view_size"), "view_size"),
            (gossip("rounds_per_wave"), "rounds_per_wave"),
        ] {
            match Scenario::parse(&doc) {
                Err(ScenarioError::Invalid(msg)) => {
                    assert!(msg.contains(&format!("`{key}`")), "{key}: {msg}")
                }
                other => panic!("{key} = 2^32 was not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_inputs_are_rejected_with_useful_errors() {
        let expect = |doc: &str, needle: &str| {
            let err = Scenario::parse(doc).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "error for {doc:?} was {msg:?}, wanted {needle:?}");
        };
        let base = "name = \"x\"\napp = \"text-processing\"\n";
        // Unknown registry / target ids.
        expect(
            &format!("{base}[[rates]]\ntarget = \"dockerhub\"\nfatal_per_pull = 0.1\ntransient_per_fetch = 0.0\n"),
            "unknown target `dockerhub`",
        );
        expect(
            &format!("{base}[[events]]\nkind = \"outage\"\ntarget = \"mirror-3\"\nstart = 0.0\nduration = 10.0\n"),
            "only 0 mirror(s)",
        );
        // Zero-duration events.
        expect(
            &format!("{base}[[events]]\nkind = \"outage\"\ntarget = \"regional\"\nstart = 5.0\nduration = 0.0\n"),
            "must be positive",
        );
        // Overlapping dark windows on one target.
        expect(
            &format!(
                "{base}[[events]]\nkind = \"outage\"\ntarget = \"regional\"\nstart = 0.0\nduration = 100.0\n\
                 [[events]]\nkind = \"outage\"\ntarget = \"regional\"\nstart = 50.0\nduration = 100.0\n"
            ),
            "overlapping dark windows",
        );
        // Unknown keys anywhere.
        expect(&format!("{base}typo = 1\n"), "unknown key `typo`");
        expect(&format!("{base}[testbed]\nbase = \"paper\"\nmirors = 2\n"), "unknown key `mirors`");
        // Out-of-range scalars.
        expect(&format!("{base}time_scale = 0.0"), "must be positive");
        expect(&format!("{base}replications = 0"), "at least 1");
        expect(
            &format!("{base}[[rates]]\ntarget = \"hub\"\nfatal_per_pull = 1.5\ntransient_per_fetch = 0.0\n"),
            "must be in [0, 1]",
        );
        expect(
            &format!("{base}[[events]]\nkind = \"degrade\"\ntarget = \"hub\"\nstart = 0.0\nduration = 1.0\nfactor = 1.0\n"),
            "must be in (0, 1)",
        );
        expect(
            &format!("{base}[[events]]\nkind = \"cache-pressure\"\ndevice = 5\nat = 0.0\nkeep_mb = 0.0\n"),
            "out of range",
        );
        expect(
            &format!("{base}[[sweep]]\naxis = \"warp\"\nvalues = [1.0]\n"),
            "unknown sweep axis",
        );
        // Unknown app / missing name.
        expect("name = \"x\"\napp = \"mining\"\n", "unknown app");
        expect("app = \"text-processing\"\n", "missing required key `name`");
        // Arrival streams: unknown model, degenerate laws, warmup that
        // swallows the measurement phase, unsorted traces.
        expect(
            &format!("{base}[[arrivals]]\nmodel = \"bursty\"\ncount = 2\n"),
            "unknown arrival model",
        );
        expect(
            &format!("{base}[[arrivals]]\nmodel = \"poisson\"\nrate = 0.0\ncount = 2\n"),
            "must be a positive finite arrival rate",
        );
        expect(
            &format!("{base}[[arrivals]]\nmodel = \"deterministic\"\ninterval = -5.0\ncount = 2\n"),
            "must be a positive finite gap",
        );
        expect(
            &format!("{base}[[arrivals]]\nmodel = \"poisson\"\nrate = 0.1\ncount = 0\n"),
            "must be at least 1",
        );
        expect(
            &format!(
                "{base}[[arrivals]]\nmodel = \"poisson\"\nrate = 0.1\ncount = 3\nwarmup = 3\n"
            ),
            "must be below `count`",
        );
        expect(
            &format!("{base}[[arrivals]]\nmodel = \"trace\"\ntimes = []\n"),
            "must be non-empty",
        );
        expect(
            &format!("{base}[[arrivals]]\nmodel = \"trace\"\ntimes = [10.0, 5.0]\n"),
            "must be sorted ascending",
        );
        expect(
            &format!("{base}[[arrivals]]\nmodel = \"trace\"\ntimes = [-1.0, 5.0]\n"),
            "must be non-negative",
        );
        expect(
            &format!("{base}[[arrivals]]\nmodel = \"trace\"\ntimes = [0.0]\ncount = 1\n"),
            "unknown key `count`",
        );
    }

    #[test]
    fn adjacent_dark_windows_do_not_overlap() {
        // Half-open windows: [0, 100) then [100, 200) is legal — the
        // source clears and darkens again on the same tick.
        let s = Scenario::parse(
            r#"
name = "adjacent"
app = "text-processing"

[[events]]
kind = "outage"
target = "regional"
start = 0.0
duration = 100.0

[[events]]
kind = "outage"
target = "regional"
start = 100.0
duration = 100.0
"#,
        );
        assert!(s.is_ok(), "{s:?}");
        // Same interval on *different* targets is fine too.
        let t = Scenario::parse(
            r#"
name = "correlated"
app = "text-processing"

[testbed]
mirrors = 1

[[events]]
kind = "outage"
target = "regional"
start = 0.0
duration = 100.0

[[events]]
kind = "outage"
target = "mirror-0"
start = 50.0
duration = 100.0
"#,
        );
        assert!(t.is_ok(), "{t:?}");
    }

    #[test]
    fn mirror_targets_validate_against_the_sweep_maximum() {
        let s = Scenario::parse(
            r#"
name = "swept"
app = "text-processing"

[[rates]]
target = "mirror-1"
fatal_per_pull = 0.1
transient_per_fetch = 0.0

[[sweep]]
axis = "mirror-count"
values = [0, 2]
"#,
        );
        assert!(s.is_ok(), "mirror-1 exists at the sweep maximum: {s:?}");
    }
}
