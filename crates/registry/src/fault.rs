//! Seeded fault injection and the probabilistic fault model it samples.
//!
//! A [`crate::mesh::PullSession`] survives mid-pull source death by
//! failing the remaining layers over to surviving sources. This module
//! decides *when* sources die or flake, reproducibly:
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
//!   Monte-Carlo sweep over seeds is exactly reproducible. A session
//!   injects a plan through [`crate::mesh::PullSession::with_faults`]: a
//!   *dead* source fails its fetches with
//!   [`Unavailable`](crate::RegistryError::Unavailable) (the session fails
//!   the remaining layers over to survivors), a transient injection with
//!   [`Transient`](crate::RegistryError::Transient) (the session backs
//!   off and retries in place).
//! * [`OutageWindow`] — the scripted, time-indexed channel alongside
//!   the sampled rates: a source dark (or degraded) over a half-open
//!   interval of executor-clock time. Windows model *sticky* incidents
//!   — a mirror down for minutes, a correlated multi-regional outage —
//!   that a per-pull rate cannot express. A fault-injecting session
//!   reads them at the clock it was given; scenario files (see the
//!   `deep-scenario` crate) script the timeline.
//!
//! ## The closed-form expectation contract
//!
//! The whole point of a *model* separate from a *plan* is that
//! schedulers can price expected deployment time analytically while the
//! executor realises seeded samples of the same distribution — and the
//! two must agree. Two design choices keep `E[Td]` in closed form:
//!
//! * **Fatal failures are per pull and priced for the primary only.** A
//!   pull's primary source is drawn dead with its `fatal_per_pull`
//!   probability *before the first fetch*; standby registries are
//!   assumed to survive the pull — the "surviving source" of the
//!   failover re-plan. `E[Td]` is then a two-branch mix:
//!   `(1−p)·Td_happy + p·Td_failover`, each branch a deterministic
//!   [`crate::mesh::PullSession`] plan. Per-holder peer sources draw
//!   their own deaths too (a dead holder fails over alone); that churn
//!   is realised but not part of the closed form.
//! * **Transient injections are capped below the retry budget.** Each
//!   fetch attempt fails independently with probability `q`, except
//!   that a layer never sees more than `max_attempts − 1` consecutive
//!   injections — the last allowed attempt always goes through, so an
//!   injected run can never exhaust the policy and kill the pull. The
//!   expected backoff per fetched layer is the truncated geometric sum
//!   `Σ_{k=1}^{A−1} q^k · backoff(k)` (`FaultModel::expected_backoff_per_fetch`),
//!   exact under the cap.
//!
//! With every rate at zero and no window the plan injects nothing, and a
//! session with the plan attached pulls byte-identically to one without
//! — the invariant the fault-injection differential tests pin.

use crate::pull::PullOutcome;
use crate::retry::RetryPolicy;
use deep_netsim::{splitmix64, unit_f64, RegistryId, Seconds};
use std::sync::Arc;

/// Failure rates of one mesh source.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultRates {
    /// Probability that the source is fatally dead for a whole pull in
    /// which it is first-class — the *primary* or a peer holder, not a
    /// standby (drawn once per pull, before the first fetch). A dead
    /// source fails every fetch with
    /// [`Unavailable`](crate::RegistryError::Unavailable) and the session
    /// fails over.
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
    pub(crate) fn is_zero(&self) -> bool {
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
/// injects nothing: every pull succeeds on its first attempt at every
/// source (under the default [`RetryPolicy`]).
///
/// The rate and window tables are shared, never edited in place: a
/// builder call replaces the table it changes. A clone (and so a
/// [`FaultModel::plan`], which snapshots the model) costs two reference
/// counts and copies no table.
#[derive(Debug, Clone, Default)]
pub struct FaultModel {
    rates: Arc<[(RegistryId, FaultRates)]>,
    /// Scripted time-indexed outages, alongside the sampled rates.
    windows: Arc<[OutageWindow]>,
    /// The retry policy a fault-injecting executor attaches to every
    /// pull session — the backoff schedule the transient channel feeds.
    pub retry: RetryPolicy,
}

impl FaultModel {
    /// Set one source's rates (builder-style; replaces a prior entry).
    pub fn with_source(mut self, source: RegistryId, rates: FaultRates) -> Self {
        assert!(
            (0.0..=1.0).contains(&rates.fatal_per_pull)
                && (0.0..=1.0).contains(&rates.transient_per_fetch),
            "fault rates are probabilities"
        );
        self.rates = if self.rates.iter().any(|(id, _)| *id == source) {
            self.rates.iter().map(|&(id, r)| (id, if id == source { rates } else { r })).collect()
        } else {
            self.rates.iter().copied().chain([(source, rates)]).collect()
        };
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
        self.windows = self.windows.iter().copied().chain([window]).collect();
        self
    }

    /// The model with every scripted window dropped — rates and retry
    /// policy intact. This is the "blind scheduler" view of a scripted
    /// incident: an executor session that sampled its plan from the full
    /// model keeps injecting the windows, while estimators reading the
    /// stripped model price only the rates until the outage is inferred
    /// from observed failures (the arrival plane's online inference).
    pub fn without_windows(&self) -> FaultModel {
        FaultModel { rates: Arc::clone(&self.rates), windows: Arc::default(), retry: self.retry }
    }

    /// The rates assigned to `source` (zero when unlisted).
    pub fn rates(&self, source: RegistryId) -> FaultRates {
        self.rates.iter().find(|(id, _)| *id == source).map(|(_, r)| *r).unwrap_or(FaultRates::ZERO)
    }

    /// The scripted outage windows.
    pub fn windows(&self) -> &[OutageWindow] {
        &self.windows
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
    /// it. The snapshot shares the model's tables, so sampling copies
    /// none of them.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        FaultPlan { seed, model: self.clone() }
    }

    /// Expected injected backoff per layer fetched from `source`: the
    /// truncated geometric sum `Σ_{k=1}^{A−1} q^k · backoff(k)` under
    /// the model's retry policy. Exact for the capped injection scheme
    /// a [`FaultPlan`] realises.
    pub(crate) fn expected_backoff_per_fetch(&self, source: RegistryId) -> Seconds {
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
    unit_f64(splitmix64(h ^ fetch))
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
    /// Is `source` inside a dark window at clock time `at`?
    pub(crate) fn dark_at(&self, source: RegistryId, at: Seconds) -> bool {
        self.model.dark_at(source, at)
    }

    /// The model the plan was sampled from: its windows are the plan's
    /// outage timeline.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Max consecutive transient injections a retry chain can see
    /// (`max_attempts − 1`): the last allowed attempt always succeeds, so
    /// injected transients can never exhaust the retry budget.
    /// Saturating: the model's `retry` field is pub, so a zero-attempt
    /// policy written directly must degrade to "no injections", not
    /// underflow.
    pub(crate) fn transient_cap(&self) -> usize {
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
    /// `pull` against `source` (before the consecutive-injection cap
    /// [`FaultPlan::transient_cap`] that a fault-injecting session
    /// applies per source).
    pub(crate) fn fetch_transient(&self, pull: u64, source: RegistryId, fetch: u64) -> bool {
        let q = self.model.rates(source).transient_per_fetch;
        q > 0.0 && self.unit(SALT_TRANSIENT, pull, source, fetch) < q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LayerCache;
    use crate::hub::HubRegistry;
    use crate::image::{Platform, Reference};
    use crate::mesh::{PeerCacheSource, RegistryMesh, SourceParams};
    use crate::pull::{PullOutcome, RegistryError};
    use crate::regional::RegionalRegistry;
    use crate::ManifestSource;
    use deep_netsim::{Bandwidth, DataSize, DeviceId};

    const HUB: RegistryId = RegistryId(0);
    const REGIONAL: RegistryId = RegistryId(1);
    const PEER: RegistryId = RegistryId(2);

    fn params() -> SourceParams {
        SourceParams {
            download_bw: Bandwidth::megabytes_per_sec(10.0),
            overhead: Seconds::new(5.0),
        }
    }

    fn cache() -> LayerCache {
        LayerCache::new(DataSize::gigabytes(64.0))
    }

    fn transcode() -> Reference {
        Reference::new("docker.io", "sina88/vp-transcode", "amd64")
    }

    /// Pull vp-transcode through `mesh` from `primary` (in the regional
    /// namespace when it is `REGIONAL`), injecting `plan` as pull number
    /// `pull` at `clock` under `plan`'s retry policy.
    fn injected_pull(
        mesh: &RegistryMesh<'_>,
        primary: RegistryId,
        plan: &FaultPlan,
        pull: u64,
        clock: Seconds,
    ) -> Result<PullOutcome, RegistryError> {
        let reference = match primary {
            REGIONAL => Reference::new("dcloud2.itec.aau.at", "aau/vp-transcode", "amd64"),
            _ => transcode(),
        };
        mesh.session(primary).with_retry(plan.model().retry).with_faults(plan, pull, clock).pull(
            &reference,
            Platform::Amd64,
            &mut cache(),
        )
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
    fn plans_share_the_tables_of_the_model_they_snapshot() {
        let model = FaultModel::default()
            .with_source(REGIONAL, FaultRates { fatal_per_pull: 0.5, transient_per_fetch: 0.1 })
            .with_window(OutageWindow::dark(HUB, Seconds::ZERO, Seconds::new(10.0)));
        let plan = model.plan(7);
        assert!(Arc::ptr_eq(&plan.model().rates, &model.rates));
        assert!(Arc::ptr_eq(&plan.model().windows, &model.windows));
        // A builder call replaces only the table it changes, and a
        // replaced rate keeps its slot.
        let edited = model.clone().with_source(REGIONAL, FaultRates::ZERO);
        assert!(!Arc::ptr_eq(&edited.rates, &model.rates));
        assert!(Arc::ptr_eq(&edited.windows, &model.windows));
        assert_eq!(edited.rates.len(), 1);
        assert!(edited.rates(REGIONAL).is_zero() && !plan.model().rates(REGIONAL).is_zero());
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
        // Both registries draw a certain death; only the first-class
        // primary consults the draw, so the standby survives the pull.
        let certain = FaultRates { fatal_per_pull: 1.0, transient_per_fetch: 0.0 };
        let plan =
            FaultModel::default().with_source(HUB, certain).with_source(REGIONAL, certain).plan(0);
        let hub = HubRegistry::with_paper_catalog();
        let regional = RegionalRegistry::with_paper_catalog();
        let mut alone = RegistryMesh::new();
        alone.add_registry(HUB, &hub, params());
        let err = injected_pull(&alone, HUB, &plan, 0, Seconds::ZERO).unwrap_err();
        assert!(matches!(err, RegistryError::MissingBlob(_)), "no fetch went through: {err}");

        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, params());
        mesh.add_standby_registry(REGIONAL, &regional, params());
        let out = injected_pull(&mesh, HUB, &plan, 0, Seconds::ZERO).unwrap();
        assert_eq!(out.failed_sources, vec![HUB], "killed once, the standby never");
        assert_eq!(out.per_source.len(), 1);
        assert_eq!(out.per_source[0].source, REGIONAL);
        assert_eq!(out.per_source[0].layers, 3, "the dead primary served nothing");
    }

    #[test]
    fn consecutive_transients_are_capped_below_the_retry_budget() {
        // q = 1: every draw says "fail", so the plan's cap (max_attempts
        // − 1 = 2) is what ends each layer's retry chain, and the next
        // layer's chain starts fresh. The session retries under a larger
        // budget, so only the cap can stop the injections.
        let policy =
            RetryPolicy { max_attempts: 3, base_backoff: Seconds::new(1.0), ..Default::default() };
        let model = FaultModel::default()
            .with_source(HUB, FaultRates { fatal_per_pull: 0.0, transient_per_fetch: 1.0 })
            .with_retry(policy);
        let plan = model.plan(9);
        let hub = HubRegistry::with_paper_catalog();
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, params());
        let out = mesh
            .session(HUB)
            .with_retry(RetryPolicy { max_attempts: 6, ..policy })
            .with_faults(&plan, 0, Seconds::ZERO)
            .pull(&transcode(), Platform::Amd64, &mut cache())
            .unwrap();
        assert!(out.failed_sources.is_empty(), "transient ≠ dead");
        assert_eq!(out.layers_fetched, 3);
        // Two injections per layer, backing off 1 + 2 s each time.
        assert!((out.backoff_total.as_f64() - 3.0 * 3.0).abs() < 1e-12, "{}", out.backoff_total);
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
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, params());
        mesh.add_standby_registry(REGIONAL, &regional, params());
        let out = injected_pull(&mesh, HUB, &plan, 0, Seconds::ZERO).unwrap();
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
        // The hub is dark over [100, 150); the regional always draws a
        // per-pull death, which only a first-class regional consults.
        let model = FaultModel::default()
            .with_window(OutageWindow::dark(HUB, Seconds::new(100.0), Seconds::new(50.0)))
            .with_source(REGIONAL, FaultRates { fatal_per_pull: 1.0, transient_per_fetch: 0.0 });
        let plan = model.plan(0);
        let hub = HubRegistry::with_paper_catalog();
        let regional = RegionalRegistry::with_paper_catalog();
        let served_by = |out: PullOutcome| -> Vec<RegistryId> {
            out.per_source.iter().map(|b| b.source).collect()
        };
        let mut hub_first = RegistryMesh::new();
        hub_first.add_registry(HUB, &hub, params());
        hub_first.add_standby_registry(REGIONAL, &regional, params());
        // Before and after the window the hub serves every layer.
        for (pull, clock) in [(0, 50.0), (2, 150.0)] {
            let out = injected_pull(&hub_first, HUB, &plan, pull, Seconds::new(clock)).unwrap();
            assert!(out.failed_sources.is_empty(), "t = {clock}");
            assert_eq!(served_by(out), vec![HUB]);
        }
        // Inside it the hub is dead for the whole pull.
        let during = injected_pull(&hub_first, HUB, &plan, 1, Seconds::new(120.0)).unwrap();
        assert_eq!(during.failed_sources, vec![HUB]);
        assert_eq!(served_by(during), vec![REGIONAL]);
        // A scripted incident takes a standby down too, unlike the
        // sampled per-pull channel: with the primary dead as well, no
        // source is left inside the window.
        let mut regional_first = RegistryMesh::new();
        regional_first.add_registry(REGIONAL, &regional, params());
        regional_first.add_standby_registry(HUB, &hub, params());
        let out = injected_pull(&regional_first, REGIONAL, &plan, 0, Seconds::new(50.0)).unwrap();
        assert_eq!(out.failed_sources, vec![REGIONAL]);
        assert_eq!(served_by(out), vec![HUB]);
        let err =
            injected_pull(&regional_first, REGIONAL, &plan, 1, Seconds::new(120.0)).unwrap_err();
        assert!(matches!(err, RegistryError::MissingBlob(_)), "{err}");
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
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, params());
        mesh.add_standby_registry(REGIONAL, &regional, params());
        let out = injected_pull(&mesh, HUB, &plan, 0, Seconds::new(100.0)).unwrap();
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
        let regional = RegionalRegistry::with_paper_catalog();
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, params());
        mesh.add_standby_registry(REGIONAL, &regional, params());
        let r = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
        let bare = mesh.session(HUB).pull(&r, Platform::Amd64, &mut cache()).unwrap();
        let injected = mesh
            .session(HUB)
            .with_faults(&plan, 0, Seconds::ZERO)
            .pull(&r, Platform::Amd64, &mut cache())
            .unwrap();
        assert_eq!(bare, injected);
    }

    /// What `plan` predicts for pull `pull` of `transcode()` at `clock`
    /// through the mesh of
    /// `injected_sessions_fail_and_back_off_as_the_plan_predicts`, whose
    /// peer holds the layers flagged in `on_peer`: the sources that die,
    /// in order of death, and the backoff the session charges. The
    /// primary and the peer are first-class and draw the per-pull death;
    /// the standby draws only windows. A live source's attempts are
    /// numbered per source, and no chain sees more than the cap of
    /// injections in a row.
    fn predicted(
        plan: &FaultPlan,
        pull: u64,
        clock: Seconds,
        on_peer: &[bool],
    ) -> (Vec<RegistryId>, Seconds) {
        let policy = plan.model().retry;
        let dead = |source: RegistryId, first_class: bool| {
            (first_class && plan.pull_fatal(pull, source)) || plan.dark_at(source, clock)
        };
        let mut failed = Vec::new();
        let mut backoff = Seconds::ZERO;
        // Attempts so far per source, indexed by id.
        let mut fetches = [0u64; 3];
        for &held in on_peer {
            // Cheapest first: the peer where it holds the layer, then the
            // primary, then the standby.
            let mut candidates = vec![(HUB, true), (REGIONAL, false)];
            if held {
                candidates.insert(0, (PEER, true));
            }
            let (source, _) = candidates
                .into_iter()
                .find(|&(source, first_class)| {
                    if failed.contains(&source) {
                        return false;
                    }
                    let dies = dead(source, first_class);
                    if dies {
                        failed.push(source);
                        backoff += policy.exhausted_backoff();
                    }
                    !dies
                })
                .expect("a survivor serves every layer");
            let seq = &mut fetches[source.0];
            let mut run = 0;
            while run < plan.transient_cap() && plan.fetch_transient(pull, source, *seq) {
                run += 1;
                *seq += 1;
                backoff += policy.backoff(run);
            }
            *seq += 1;
        }
        (failed, backoff)
    }

    #[test]
    fn injected_sessions_fail_and_back_off_as_the_plan_predicts() {
        let policy =
            RetryPolicy { max_attempts: 3, base_backoff: Seconds::new(2.0), ..Default::default() };
        let flaky = |fatal_per_pull| FaultRates { fatal_per_pull, transient_per_fetch: 0.5 };
        // The standby's certain death must never be drawn; the peer is
        // also dark before t = 10.
        let model = FaultModel::default()
            .with_source(HUB, flaky(0.4))
            .with_source(PEER, flaky(0.4))
            .with_source(REGIONAL, flaky(1.0))
            .with_window(OutageWindow::dark(PEER, Seconds::ZERO, Seconds::new(10.0)))
            .with_retry(policy);
        let hub = HubRegistry::with_paper_catalog();
        let regional = RegionalRegistry::with_paper_catalog();
        let manifest = hub.resolve(&transcode(), Platform::Amd64).unwrap();
        // The peer holds the first and the last layer; the hub alone
        // (of the first-class sources) serves the middle one.
        let mut held = cache();
        for layer in [&manifest.layers[0], &manifest.layers[2]] {
            held.insert(layer.digest.clone(), layer.size);
        }
        let peer = PeerCacheSource::for_holder(DeviceId(0), &held);
        let on_peer: Vec<bool> = manifest.layers.iter().map(|l| held.contains(&l.digest)).collect();
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, &hub, params());
        // Faster than the primary and free to open: the peer serves every
        // layer it holds while it lives.
        let fast = SourceParams {
            download_bw: Bandwidth::megabytes_per_sec(80.0),
            overhead: Seconds::ZERO,
        };
        mesh.add_blob_source(PEER, &peer, fast);
        mesh.add_standby_registry(REGIONAL, &regional, params());

        let (mut hub_deaths, mut peer_draws, mut standby_serves, mut backed_off) = (0, 0, 0, 0);
        for seed in 0..96u64 {
            let plan = model.plan(seed);
            let pull = seed % 5;
            let clock = Seconds::new(if seed % 4 == 0 { 5.0 } else { 50.0 });
            let out = injected_pull(&mesh, HUB, &plan, pull, clock).unwrap();
            let (failed, backoff) = predicted(&plan, pull, clock, &on_peer);
            assert_eq!(out.failed_sources, failed, "seed {seed}");
            assert_eq!(out.backoff_total, backoff, "seed {seed}");
            assert_eq!(out.layers_fetched, 3, "seed {seed}");
            hub_deaths += usize::from(failed.contains(&HUB));
            peer_draws += usize::from(plan.pull_fatal(pull, PEER) && !plan.dark_at(PEER, clock));
            standby_serves += usize::from(out.per_source.iter().any(|b| b.source == REGIONAL));
            backed_off += usize::from(backoff > Seconds::ZERO);
        }
        // The seeds cover every branch: primary deaths the standby
        // absorbs, drawn (not scripted) peer deaths, and transients.
        assert!(hub_deaths > 0 && standby_serves > 0, "{hub_deaths} {standby_serves}");
        assert!(peer_draws > 0 && backed_off > 0, "{peer_draws} {backed_off}");
    }
}
