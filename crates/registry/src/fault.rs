//! Seeded fault injection and the probabilistic fault model it samples.
//!
//! PR 3 taught [`crate::mesh::PullSession`] to survive mid-pull source
//! death with [`crate::retry::FaultySource`] as a counter-based test
//! double. This module promotes that machinery into a first-class
//! harness usable from tests, examples, and the executor:
//!
//! * [`FaultModel`] — the probabilistic model: each mesh source gets
//!   [`FaultRates`] (a per-pull *fatal* failure probability and a
//!   per-fetch-attempt *transient* error rate), plus the
//!   [`RetryPolicy`] whose backoff the transient channel feeds. The
//!   per-source availability assumptions mirror the peer-churn model
//!   EdgePier makes for edge image distribution (arXiv:2109.12983).
//! * [`FaultPlan`] — a deterministic, splitmix64-seeded sampling of the
//!   model: for every `(pull, source)` it decides whether the source is
//!   dead for that pull, and for every `(pull, source, fetch)` whether
//!   the attempt fails transiently. Same seed ⇒ same schedule, so a
//!   Monte-Carlo sweep over seeds is exactly reproducible.
//! * [`PlannedFaults`] — the injecting wrapper: wraps any source and
//!   fails its blob fetches according to the plan. A *dead* source
//!   returns [`RegistryError::Unavailable`] on every fetch (the session
//!   fails the remaining layers over to survivors); a transient
//!   injection returns [`RegistryError::Transient`] (the session backs
//!   off and retries in place).
//! * [`OutageWindow`] — the scripted, time-indexed channel alongside
//!   the sampled rates: a source dark (or degraded) over a half-open
//!   interval of executor-clock time. Windows model *sticky* incidents
//!   — a mirror down for minutes, a correlated multi-regional outage —
//!   that a per-pull rate cannot express. The executor gates wrappers
//!   on the clock via [`PlannedFaults::at`]; scenario files (see the
//!   `deep-scenario` crate) script the timeline.
//!
//! ## The closed-form expectation contract
//!
//! The whole point of a *model* separate from a *plan* is that
//! schedulers can price expected deployment time analytically while the
//! executor realises seeded samples of the same distribution — and the
//! two must agree. Two design choices keep `E[Td]` in closed form:
//!
//! * **Fatal failures are per pull and primary-only.** A pull's primary
//!   source is drawn dead with its `fatal_per_pull` probability *before
//!   the first fetch*; failover targets (peer caches, standby
//!   registries) are assumed to survive the pull — the "surviving
//!   source" of the failover re-plan. `E[Td]` is then a two-branch mix:
//!   `(1−p)·Td_happy + p·Td_failover`, each branch a deterministic
//!   [`crate::mesh::PullSession`] plan.
//! * **Transient injections are capped below the retry budget.** Each
//!   fetch attempt fails independently with probability `q`, except
//!   that a layer never sees more than `max_attempts − 1` consecutive
//!   injections — the last allowed attempt always goes through, so an
//!   injected run can never exhaust the policy and kill the pull. The
//!   expected backoff per fetched layer is the truncated geometric sum
//!   `Σ_{k=1}^{A−1} q^k · backoff(k)` ([`FaultModel::expected_backoff_per_fetch`]),
//!   exact under the cap.
//!
//! With every rate at zero the plan injects nothing and wrapped sources
//! behave byte-identically to bare ones — the invariant the
//! fault-injection differential tests pin.

use crate::digest::Digest;
use crate::image::{Platform, Reference};
use crate::manifest::ImageManifest;
use crate::pull::{PullOutcome, RegistryError};
use crate::retry::RetryPolicy;
use crate::{BlobSource, ManifestSource};
use deep_netsim::{splitmix64, RegistryId, Seconds};
use std::cell::Cell;

/// Failure rates of one mesh source.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRates {
    /// Probability that the source is fatally dead for a whole pull in
    /// which it is the *primary* (drawn once per pull, before the first
    /// fetch). A dead source fails every fetch with
    /// [`RegistryError::Unavailable`] and the session fails over.
    pub fatal_per_pull: f64,
    /// Probability that any single blob-fetch attempt against the source
    /// fails transiently (drawn independently per attempt, capped so a
    /// retry chain never exhausts — see the module docs).
    pub transient_per_fetch: f64,
}

impl FaultRates {
    /// No injected failures.
    pub const ZERO: FaultRates = FaultRates { fatal_per_pull: 0.0, transient_per_fetch: 0.0 };

    /// True when both channels are off.
    pub fn is_zero(&self) -> bool {
        self.fatal_per_pull == 0.0 && self.transient_per_fetch == 0.0
    }
}

/// A scripted, time-indexed fault: one source unavailable (or degraded)
/// over the half-open interval `[start, start + duration)` of simulated
/// time. Unlike [`FaultRates`] — which a [`FaultPlan`] samples per pull
/// — a window is *sticky*: it activates and clears at scripted times on
/// the executor clock, modelling real registry incidents (a mirror dark
/// for minutes, a correlated multi-regional outage, a throttled uplink).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// The source the window applies to.
    pub source: RegistryId,
    /// Window start on the executor clock.
    pub start: Seconds,
    /// Window length; zero-duration windows are never active.
    pub duration: Seconds,
    /// Residual capacity during the window: `0.0` means the source is
    /// dark (every fetch fails fatally, the session fails over);
    /// `0 < factor < 1` means bandwidth degradation — transfers through
    /// the source run at `factor` times the nominal rate.
    pub factor: f64,
}

impl OutageWindow {
    /// A full outage: the source is dark for the window.
    pub fn dark(source: RegistryId, start: Seconds, duration: Seconds) -> Self {
        OutageWindow { source, start, duration, factor: 0.0 }
    }

    /// A bandwidth degradation: the source serves at `factor` times its
    /// nominal rate for the window.
    pub fn degraded(source: RegistryId, start: Seconds, duration: Seconds, factor: f64) -> Self {
        assert!(factor > 0.0 && factor < 1.0, "degradation factor must be in (0, 1)");
        OutageWindow { source, start, duration, factor }
    }

    /// Window end (exclusive) on the executor clock.
    pub fn end(&self) -> Seconds {
        self.start + self.duration
    }

    /// Is the window active at clock time `at`? Half-open `[start, end)`
    /// — a zero-duration window is never active.
    pub fn active_at(&self, at: Seconds) -> bool {
        at.as_f64() >= self.start.as_f64() && at.as_f64() < self.end().as_f64()
    }

    /// True for a full outage (`factor == 0`), false for a degradation.
    pub fn is_dark(&self) -> bool {
        self.factor == 0.0
    }
}

/// The per-source fault model of a testbed: which sources are flaky, how
/// flaky, and under which retry policy the flakiness is absorbed.
///
/// Sources without an entry are perfectly reliable, so the default model
/// is the fault-free PR 3 world (under the default [`RetryPolicy`]).
#[derive(Debug, Clone, Default)]
pub struct FaultModel {
    rates: Vec<(RegistryId, FaultRates)>,
    /// Scripted time-indexed outages, alongside the sampled rates.
    windows: Vec<OutageWindow>,
    /// The retry policy a fault-injecting executor attaches to every
    /// pull session — the backoff schedule the transient channel feeds.
    pub retry: RetryPolicy,
}

impl FaultModel {
    /// The fault-free model (every source perfectly reliable).
    pub fn reliable() -> Self {
        Self::default()
    }

    /// Set one source's rates (builder-style; replaces a prior entry).
    pub fn with_source(mut self, source: RegistryId, rates: FaultRates) -> Self {
        assert!(
            (0.0..=1.0).contains(&rates.fatal_per_pull)
                && (0.0..=1.0).contains(&rates.transient_per_fetch),
            "fault rates are probabilities"
        );
        match self.rates.iter_mut().find(|(id, _)| *id == source) {
            Some(entry) => entry.1 = rates,
            None => self.rates.push((source, rates)),
        }
        self
    }

    /// Set the retry policy injected transients are retried under
    /// (builder-style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        assert!(retry.max_attempts >= 1, "need at least one attempt");
        self.retry = retry;
        self
    }

    /// Add one scripted outage window (builder-style; windows stack —
    /// several may cover the same source, as in a correlated incident).
    pub fn with_window(mut self, window: OutageWindow) -> Self {
        assert!(window.factor >= 0.0 && window.factor < 1.0, "window factor must be in [0, 1)");
        self.windows.push(window);
        self
    }

    /// The model with every scripted window dropped — rates and retry
    /// policy intact. This is the "blind scheduler" view of a scripted
    /// incident: an executor session that sampled its plan from the full
    /// model keeps injecting the windows, while estimators reading the
    /// stripped model price only the rates until the outage is inferred
    /// from observed failures (the arrival plane's online inference).
    pub fn without_windows(&self) -> FaultModel {
        FaultModel { rates: self.rates.clone(), windows: Vec::new(), retry: self.retry }
    }

    /// The rates assigned to `source` (zero when unlisted).
    pub fn rates(&self, source: RegistryId) -> FaultRates {
        self.rates.iter().find(|(id, _)| *id == source).map(|(_, r)| *r).unwrap_or(FaultRates::ZERO)
    }

    /// The scripted outage windows.
    pub fn windows(&self) -> &[OutageWindow] {
        &self.windows
    }

    /// True when any scripted window exists.
    pub fn has_windows(&self) -> bool {
        !self.windows.is_empty()
    }

    /// Is `source` inside a dark window at clock time `at`?
    pub fn dark_at(&self, source: RegistryId, at: Seconds) -> bool {
        self.windows.iter().any(|w| w.source == source && w.is_dark() && w.active_at(at))
    }

    /// Bandwidth slowdown multiplier for `source` at clock time `at`:
    /// the product of `1 / factor` over active degradation windows
    /// (`1.0` outside every window). Multiplies into the executor's
    /// contention slowdown, which divides the route bandwidth.
    pub fn slowdown_at(&self, source: RegistryId, at: Seconds) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.source == source && !w.is_dark() && w.active_at(at))
            .fold(1.0, |acc, w| acc / w.factor)
    }

    /// True when no source has any failure probability and no window is
    /// scripted — the model under which injection is a byte-identical
    /// no-op.
    pub fn is_zero(&self) -> bool {
        self.rates.iter().all(|(_, r)| r.is_zero()) && self.windows.is_empty()
    }

    /// Count how many of `draws` seeded realisations draw `source`
    /// fatally dead for pull number `pull`, where realisation `d` is the
    /// plan sampled with seed `seed + d` — bit-identical to building
    /// each [`FaultPlan`] and asking [`FaultPlan::pull_fatal`], because
    /// both run the same keyed hash chain, but without cloning the
    /// model's rate and window tables `draws` times. This is the batch
    /// query behind scenario-priced scheduling: the Monte-Carlo death
    /// probability of a candidate primary is `fatal_draws / draws`.
    pub fn fatal_draws(&self, seed: u64, draws: u32, pull: u64, source: RegistryId) -> u32 {
        let p = self.rates(source).fatal_per_pull;
        if p == 0.0 {
            return 0;
        }
        (0..draws)
            .filter(|&d| {
                keyed_unit(seed.wrapping_add(u64::from(d)), SALT_FATAL, pull, source, 0) < p
            })
            .count() as u32
    }

    /// Sample the model into a reproducible fault schedule. The plan
    /// keeps a snapshot of the model: later edits to `self` do not reach
    /// it.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        FaultPlan { seed, model: self.clone() }
    }

    /// Expected injected backoff per layer fetched from `source`: the
    /// truncated geometric sum `Σ_{k=1}^{A−1} q^k · backoff(k)` under
    /// the model's retry policy. Exact for the capped injection scheme
    /// a [`FaultPlan`] realises.
    pub fn expected_backoff_per_fetch(&self, source: RegistryId) -> Seconds {
        let q = self.rates(source).transient_per_fetch;
        if q == 0.0 {
            return Seconds::ZERO;
        }
        let mut total = 0.0;
        for k in 1..self.retry.max_attempts {
            total += q.powi(k as i32) * self.retry.backoff(k).as_f64();
        }
        Seconds::new(total)
    }

    /// Expected injected backoff over a whole planned pull: each source
    /// bucket contributes `layers × E[backoff per fetch]`.
    pub fn expected_transient_backoff(&self, outcome: &PullOutcome) -> Seconds {
        outcome.per_source.iter().fold(Seconds::ZERO, |acc, b| {
            acc + Seconds::new(self.expected_backoff_per_fetch(b.source).as_f64() * b.layers as f64)
        })
    }
}

/// Salt separating the fatal draw stream from the transient one.
const SALT_FATAL: u64 = 0xF417_A1D0_0DEA_D5ED;
const SALT_TRANSIENT: u64 = 0x7247_51E7_0B0F_FED5;

/// The keyed unit draw in `[0, 1)` both [`FaultPlan::unit`] and the
/// planless batch query [`FaultModel::fatal_draws`] run — one hash
/// chain, so the two paths are bit-identical by construction.
fn keyed_unit(seed: u64, salt: u64, pull: u64, source: RegistryId, fetch: u64) -> f64 {
    let mut h = splitmix64(seed ^ salt);
    h = splitmix64(h ^ pull.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h = splitmix64(h ^ (source.0 as u64));
    h = splitmix64(h ^ fetch);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic seeded sampling of a [`FaultModel`]: the reproducible
/// fault schedule one run injects. Queries are pure functions of
/// `(seed, pull, source, fetch)` — any subset of the schedule can be
/// inspected without replaying a run, which is how tests pick seeds with
/// known fault patterns.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// The model the plan was sampled from. Its scripted windows are not
    /// seed-dependent: every plan of a model shares the same outage
    /// timeline.
    model: FaultModel,
}

impl FaultPlan {
    /// The seed the plan was drawn with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Is `source` inside a dark window at clock time `at`?
    pub fn dark_at(&self, source: RegistryId, at: Seconds) -> bool {
        self.model.dark_at(source, at)
    }

    /// Bandwidth slowdown multiplier for `source` at clock time `at`
    /// (see [`FaultModel::slowdown_at`]).
    pub fn slowdown_at(&self, source: RegistryId, at: Seconds) -> f64 {
        self.model.slowdown_at(source, at)
    }

    /// Max consecutive transient injections a retry chain can see
    /// (`max_attempts − 1`): the last allowed attempt always succeeds, so
    /// injected transients can never exhaust the retry budget.
    /// Saturating: the model's `retry` field is pub, so a zero-attempt
    /// policy written directly must degrade to "no injections", not
    /// underflow.
    pub fn transient_cap(&self) -> usize {
        self.model.retry.max_attempts.saturating_sub(1)
    }

    /// A unit draw in `[0, 1)` from the keyed splitmix64 stream.
    fn unit(&self, salt: u64, pull: u64, source: RegistryId, fetch: u64) -> f64 {
        keyed_unit(self.seed, salt, pull, source, fetch)
    }

    /// Is `source` fatally dead for pull number `pull` (when primary)?
    pub fn pull_fatal(&self, pull: u64, source: RegistryId) -> bool {
        let p = self.model.rates(source).fatal_per_pull;
        p > 0.0 && self.unit(SALT_FATAL, pull, source, 0) < p
    }

    /// Raw transient draw for the `fetch`-th blob-fetch attempt of pull
    /// `pull` against `source` (before the consecutive-injection cap a
    /// [`PlannedFaults`] wrapper applies).
    pub fn fetch_transient(&self, pull: u64, source: RegistryId, fetch: u64) -> bool {
        let q = self.model.rates(source).transient_per_fetch;
        q > 0.0 && self.unit(SALT_TRANSIENT, pull, source, fetch) < q
    }
}

/// The injecting wrapper: any blob source, failing per a [`FaultPlan`].
///
/// The wrapped source keeps *advertising* its blobs (`has_blob` is
/// untouched) — that is exactly the mid-pull state a
/// [`crate::mesh::PullSession`] must fail over from, since the plan was
/// built against the advertisement. Construct with
/// [`PlannedFaults::primary`] (fatal draw consulted — the pull's primary
/// is the one source whose per-pull death the model prices) or
/// [`PlannedFaults::survivor`] (transient channel only — failover
/// targets are assumed to survive the pull).
pub struct PlannedFaults<'p, S> {
    inner: S,
    plan: &'p FaultPlan,
    source: RegistryId,
    pull: u64,
    /// Drawn once at construction: dead sources fail every fetch.
    dead: bool,
    fetch_seq: Cell<u64>,
    consecutive: Cell<usize>,
}

impl<'p, S> PlannedFaults<'p, S> {
    /// Wrap the pull's primary source: the fatal per-pull draw applies,
    /// plus the transient channel.
    pub fn primary(inner: S, plan: &'p FaultPlan, source: RegistryId, pull: u64) -> Self {
        let dead = plan.pull_fatal(pull, source);
        PlannedFaults {
            inner,
            plan,
            source,
            pull,
            dead,
            fetch_seq: Cell::new(0),
            consecutive: Cell::new(0),
        }
    }

    /// Wrap one peer *holder*: the fatal per-pull draw applies (churn
    /// kills this holder alone — the rest of the peer plane and the
    /// registries keep serving, so a [`crate::mesh::PullSession`] fails
    /// the holder's layers over to the survivors), plus the transient
    /// channel. Identical draws to [`PlannedFaults::primary`]; the
    /// separate constructor documents that a holder's death is *not*
    /// part of the closed-form `E[Td]` (which prices primary death only
    /// — per-holder churn pricing is future work under the
    /// correlated-failures roadmap item).
    pub fn holder(inner: S, plan: &'p FaultPlan, source: RegistryId, pull: u64) -> Self {
        Self::primary(inner, plan, source, pull)
    }

    /// Wrap a failover target (peer cache, standby registry): transient
    /// channel only — survivors survive the pull by assumption.
    pub fn survivor(inner: S, plan: &'p FaultPlan, source: RegistryId, pull: u64) -> Self {
        PlannedFaults {
            inner,
            plan,
            source,
            pull,
            dead: false,
            fetch_seq: Cell::new(0),
            consecutive: Cell::new(0),
        }
    }

    /// Gate the wrapper on the executor clock: if the plan scripts the
    /// source dark at `clock`, the source is dead for this pull —
    /// whether it was wrapped as primary, holder, or survivor (a
    /// scripted incident takes standbys down too, unlike the sampled
    /// per-pull channel whose survivors survive by assumption). With no
    /// active window this is a no-op, preserving byte-identity.
    pub fn at(mut self, clock: Seconds) -> Self {
        if self.plan.dark_at(self.source, clock) {
            self.dead = true;
        }
        self
    }

    /// Whether the fatal draw killed this source for the whole pull.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Blob-fetch attempts performed against the wrapper so far.
    pub fn fetches(&self) -> u64 {
        self.fetch_seq.get()
    }
}

impl<S: ManifestSource> ManifestSource for PlannedFaults<'_, S> {
    fn host(&self) -> &str {
        self.inner.host()
    }

    fn resolve(
        &self,
        reference: &Reference,
        platform: Platform,
    ) -> Result<ImageManifest, RegistryError> {
        self.inner.resolve(reference, platform)
    }

    fn repositories(&self) -> Vec<String> {
        self.inner.repositories()
    }
}

impl<S: BlobSource> BlobSource for PlannedFaults<'_, S> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn has_blob(&self, digest: &Digest) -> bool {
        self.inner.has_blob(digest)
    }

    fn fetch_blob(&self, digest: &Digest) -> Result<(), RegistryError> {
        if self.dead {
            return Err(RegistryError::Unavailable(format!(
                "planned death of {} for pull {} (before {digest})",
                self.inner.label(),
                self.pull
            )));
        }
        let seq = self.fetch_seq.get();
        self.fetch_seq.set(seq + 1);
        if self.consecutive.get() < self.plan.transient_cap()
            && self.plan.fetch_transient(self.pull, self.source, seq)
        {
            self.consecutive.set(self.consecutive.get() + 1);
            return Err(RegistryError::Transient(format!(
                "planned transient failure of {} (pull {}, fetch {seq})",
                self.inner.label(),
                self.pull
            )));
        }
        self.consecutive.set(0);
        self.inner.fetch_blob(digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LayerCache;
    use crate::hub::HubRegistry;
    use crate::mesh::{RegistryMesh, SourceParams};
    use crate::regional::RegionalRegistry;
    use deep_netsim::{Bandwidth, DataSize};

    const HUB: RegistryId = RegistryId(0);
    const REGIONAL: RegistryId = RegistryId(1);

    fn params() -> SourceParams {
        SourceParams {
            download_bw: Bandwidth::megabytes_per_sec(10.0),
            overhead: Seconds::new(5.0),
        }
    }

    fn cache() -> LayerCache {
        LayerCache::new(DataSize::gigabytes(64.0))
    }

    #[test]
    fn zero_model_plans_inject_nothing() {
        let plan = FaultModel::default().plan(7);
        for pull in 0..50 {
            for source in [HUB, REGIONAL] {
                assert!(!plan.pull_fatal(pull, source));
                for fetch in 0..10 {
                    assert!(!plan.fetch_transient(pull, source, fetch));
                }
            }
        }
    }

    #[test]
    fn plans_keep_the_model_they_were_sampled_from() {
        let mut model = FaultModel::default();
        let plan = model.plan(7);
        model = model
            .with_source(REGIONAL, FaultRates { fatal_per_pull: 1.0, transient_per_fetch: 1.0 })
            .with_window(OutageWindow::dark(HUB, Seconds::ZERO, Seconds::new(10.0)))
            .with_retry(RetryPolicy { max_attempts: 9, ..Default::default() });
        assert!(model.plan(7).pull_fatal(0, REGIONAL), "the edited model injects");
        assert!(!plan.pull_fatal(0, REGIONAL));
        assert!(!plan.fetch_transient(0, REGIONAL, 0));
        assert!(!plan.dark_at(HUB, Seconds::new(1.0)));
        assert_eq!(plan.transient_cap(), RetryPolicy::default().max_attempts - 1);
    }

    #[test]
    fn plans_are_deterministic_per_seed_and_decorrelated_across_seeds() {
        let model = FaultModel::default()
            .with_source(REGIONAL, FaultRates { fatal_per_pull: 0.3, transient_per_fetch: 0.3 });
        let a = model.plan(1);
        let b = model.plan(1);
        let c = model.plan(2);
        let schedule = |plan: &FaultPlan| -> Vec<bool> {
            (0..64)
                .flat_map(|pull| {
                    [plan.pull_fatal(pull, REGIONAL), plan.fetch_transient(pull, REGIONAL, 0)]
                })
                .collect()
        };
        assert_eq!(schedule(&a), schedule(&b), "same seed, same schedule");
        assert_ne!(schedule(&a), schedule(&c), "different seed, different schedule");
    }

    #[test]
    fn draw_frequencies_track_the_rates() {
        let model = FaultModel::default()
            .with_source(REGIONAL, FaultRates { fatal_per_pull: 0.2, transient_per_fetch: 0.5 });
        let plan = model.plan(42);
        let n = 4000;
        let fatal = (0..n).filter(|&p| plan.pull_fatal(p, REGIONAL)).count() as f64 / n as f64;
        let transient =
            (0..n).filter(|&f| plan.fetch_transient(0, REGIONAL, f)).count() as f64 / n as f64;
        assert!((fatal - 0.2).abs() < 0.03, "fatal frequency {fatal}");
        assert!((transient - 0.5).abs() < 0.03, "transient frequency {transient}");
        // Unlisted sources never fail.
        assert!((0..n).all(|p| !plan.pull_fatal(p, HUB)));
    }

    #[test]
    fn expected_backoff_is_the_truncated_geometric_sum() {
        let policy =
            RetryPolicy { max_attempts: 4, base_backoff: Seconds::new(2.0), ..Default::default() };
        let model = FaultModel::default()
            .with_source(HUB, FaultRates { fatal_per_pull: 0.0, transient_per_fetch: 0.5 })
            .with_retry(policy);
        // Σ_{k=1}^{3} 0.5^k·b(k) with b = 2, 4, 8 → 1 + 1 + 1 = 3.
        assert!((model.expected_backoff_per_fetch(HUB).as_f64() - 3.0).abs() < 1e-12);
        assert_eq!(model.expected_backoff_per_fetch(REGIONAL), Seconds::ZERO);
        // max_attempts = 1 leaves no room to retry, so no injections.
        let one_shot =
            model.clone().with_retry(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
        assert_eq!(one_shot.expected_backoff_per_fetch(HUB), Seconds::ZERO);
        assert_eq!(one_shot.plan(0).transient_cap(), 0);
    }

    #[test]
    fn dead_primary_fails_every_fetch_and_survivor_never_dies() {
        let model = FaultModel::default()
            .with_source(HUB, FaultRates { fatal_per_pull: 1.0, transient_per_fetch: 0.0 });
        let plan = model.plan(0);
        let hub = HubRegistry::with_paper_catalog();
        let dead = PlannedFaults::primary(&hub, &plan, HUB, 0);
        assert!(dead.is_dead());
        let digest = Digest::of(b"whatever");
        for _ in 0..3 {
            let err = dead.fetch_blob(&digest).unwrap_err();
            assert!(matches!(err, RegistryError::Unavailable(_)));
        }
        // The same source wrapped as a survivor ignores the fatal draw.
        let survivor = PlannedFaults::survivor(&hub, &plan, HUB, 0);
        assert!(!survivor.is_dead());
    }

    #[test]
    fn consecutive_transients_are_capped_below_the_retry_budget() {
        // q = 1: every draw says "fail", so the cap is what terminates
        // each retry chain — exactly max_attempts − 1 injections, then a
        // forced success.
        let policy =
            RetryPolicy { max_attempts: 3, base_backoff: Seconds::new(1.0), ..Default::default() };
        let model = FaultModel::default()
            .with_source(HUB, FaultRates { fatal_per_pull: 0.0, transient_per_fetch: 1.0 })
            .with_retry(policy);
        let plan = model.plan(9);
        let hub = HubRegistry::with_paper_catalog();
        let wrapped = PlannedFaults::primary(&hub, &plan, HUB, 0);
        let manifest = hub
            .resolve(&Reference::new("docker.io", "sina88/vp-transcode", "amd64"), Platform::Amd64)
            .unwrap();
        let digest = manifest.layers[0].digest.clone();
        assert!(wrapped.fetch_blob(&digest).unwrap_err().is_transient());
        assert!(wrapped.fetch_blob(&digest).unwrap_err().is_transient());
        assert!(wrapped.fetch_blob(&digest).is_ok(), "cap forces the 3rd attempt through");
        // The next chain starts fresh.
        assert!(wrapped.fetch_blob(&digest).unwrap_err().is_transient());
    }

    #[test]
    fn wrapped_pull_through_the_mesh_fails_over_per_the_plan() {
        // Primary drawn dead: the session re-plans every layer onto the
        // standby regional — end to end through the public mesh API.
        let model = FaultModel::default()
            .with_source(HUB, FaultRates { fatal_per_pull: 1.0, transient_per_fetch: 0.0 });
        let plan = model.plan(3);
        let hub = HubRegistry::with_paper_catalog();
        let regional = RegionalRegistry::with_paper_catalog();
        let wrapped = PlannedFaults::primary(&hub, &plan, HUB, 0);
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &wrapped, params());
        mesh.add_standby_registry(REGIONAL, &regional, params());
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let out = mesh.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap();
        assert_eq!(out.failed_sources, vec![HUB]);
        assert_eq!(out.per_source.len(), 1);
        assert_eq!(out.per_source[0].source, REGIONAL);
    }

    #[test]
    fn outage_windows_activate_and_clear_at_scripted_bounds() {
        let w = OutageWindow::dark(REGIONAL, Seconds::new(100.0), Seconds::new(50.0));
        assert!(!w.active_at(Seconds::new(99.9)));
        assert!(w.active_at(Seconds::new(100.0)), "start is inclusive");
        assert!(w.active_at(Seconds::new(149.9)));
        assert!(!w.active_at(Seconds::new(150.0)), "end is exclusive");
        // Zero-duration windows never fire.
        let z = OutageWindow::dark(REGIONAL, Seconds::new(10.0), Seconds::ZERO);
        assert!(!z.active_at(Seconds::new(10.0)));

        let model = FaultModel::default().with_window(w);
        assert!(!model.is_zero(), "a scripted window is a fault");
        assert!(model.dark_at(REGIONAL, Seconds::new(120.0)));
        assert!(!model.dark_at(REGIONAL, Seconds::new(200.0)));
        assert!(!model.dark_at(HUB, Seconds::new(120.0)), "other sources unaffected");
        // The plan carries the same timeline regardless of seed.
        for seed in [0, 1, 99] {
            let plan = model.plan(seed);
            assert!(plan.dark_at(REGIONAL, Seconds::new(120.0)));
            assert!(!plan.dark_at(REGIONAL, Seconds::new(150.0)));
        }
    }

    #[test]
    fn degradation_windows_stack_into_a_slowdown_product() {
        let model = FaultModel::default()
            .with_window(OutageWindow::degraded(REGIONAL, Seconds::ZERO, Seconds::new(100.0), 0.5))
            .with_window(OutageWindow::degraded(
                REGIONAL,
                Seconds::new(50.0),
                Seconds::new(100.0),
                0.25,
            ));
        assert!((model.slowdown_at(REGIONAL, Seconds::new(10.0)) - 2.0).abs() < 1e-12);
        assert!((model.slowdown_at(REGIONAL, Seconds::new(75.0)) - 8.0).abs() < 1e-12);
        assert!((model.slowdown_at(REGIONAL, Seconds::new(120.0)) - 4.0).abs() < 1e-12);
        assert!((model.slowdown_at(REGIONAL, Seconds::new(200.0)) - 1.0).abs() < 1e-12);
        assert!((model.slowdown_at(HUB, Seconds::new(75.0)) - 1.0).abs() < 1e-12);
        // Degradations never register as dark.
        assert!(!model.dark_at(REGIONAL, Seconds::new(75.0)));
    }

    #[test]
    fn clock_gated_wrapper_dies_inside_the_window_even_as_survivor() {
        let model = FaultModel::default().with_window(OutageWindow::dark(
            HUB,
            Seconds::new(100.0),
            Seconds::new(50.0),
        ));
        let plan = model.plan(0);
        let hub = HubRegistry::with_paper_catalog();
        let digest = Digest::of(b"whatever");
        // Outside the window: alive, byte-identical to the bare source.
        let before = PlannedFaults::primary(&hub, &plan, HUB, 0).at(Seconds::new(50.0));
        assert!(!before.is_dead());
        // Inside: dead for the whole pull — and scripted incidents take
        // survivors down too, unlike the sampled per-pull channel.
        let during = PlannedFaults::primary(&hub, &plan, HUB, 1).at(Seconds::new(120.0));
        assert!(during.is_dead());
        assert!(matches!(during.fetch_blob(&digest).unwrap_err(), RegistryError::Unavailable(_)));
        let survivor = PlannedFaults::survivor(&hub, &plan, HUB, 1).at(Seconds::new(120.0));
        assert!(survivor.is_dead());
        // After: the incident has cleared.
        let after = PlannedFaults::primary(&hub, &plan, HUB, 2).at(Seconds::new(150.0));
        assert!(!after.is_dead());
    }

    #[test]
    fn windowed_pull_through_the_mesh_fails_over_to_a_standby() {
        let model = FaultModel::default().with_window(OutageWindow::dark(
            HUB,
            Seconds::ZERO,
            Seconds::new(300.0),
        ));
        let plan = model.plan(3);
        let hub = HubRegistry::with_paper_catalog();
        let regional = RegionalRegistry::with_paper_catalog();
        let wrapped = PlannedFaults::primary(&hub, &plan, HUB, 0).at(Seconds::new(100.0));
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &wrapped, params());
        mesh.add_standby_registry(REGIONAL, &regional, params());
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let out = mesh.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap();
        assert_eq!(out.failed_sources, vec![HUB]);
        assert_eq!(out.per_source.len(), 1);
        assert_eq!(out.per_source[0].source, REGIONAL);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The planless batch query counts exactly what a per-draw loop
        /// over freshly-sampled plans counts — the bit-identity the
        /// scenario-priced scheduler's memoized pricing rests on.
        #[test]
        fn fatal_draws_matches_the_per_draw_plan_loop(
            seed in proptest::prelude::any::<u64>(),
            draws in 0u32..96,
            pull in 0u64..512,
            fatal in 0.0f64..=1.0,
        ) {
            let model = FaultModel::default().with_source(
                REGIONAL,
                FaultRates { fatal_per_pull: fatal, transient_per_fetch: 0.1 },
            );
            for source in [REGIONAL, HUB] {
                let naive = (0..draws)
                    .filter(|&d| {
                        model.plan(seed.wrapping_add(u64::from(d))).pull_fatal(pull, source)
                    })
                    .count() as u32;
                assert_eq!(model.fatal_draws(seed, draws, pull, source), naive);
            }
        }
    }

    #[test]
    fn zero_rate_wrapper_is_byte_identical_to_the_bare_source() {
        let plan = FaultModel::default().plan(11);
        let hub = HubRegistry::with_paper_catalog();
        let wrapped = PlannedFaults::primary(&hub, &plan, HUB, 0);
        let r = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
        let pull = |mesh: &RegistryMesh<'_>| {
            mesh.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap()
        };
        let mut bare_mesh = RegistryMesh::new();
        bare_mesh.add_registry(HUB, &hub, params());
        let mut wrapped_mesh = RegistryMesh::new();
        wrapped_mesh.add_registry(HUB, &wrapped, params());
        assert_eq!(pull(&bare_mesh), pull(&wrapped_mesh));
    }
}
