//! Pull retries and failure injection.
//!
//! Real pulls fail: Docker Hub rate-limits, WANs drop, registries restart.
//! [`RetryPolicy`] is an exponential-backoff schedule with a per-retry cap
//! and deterministic seeded jitter (decorrelating synchronized retry
//! storms without sacrificing reproducibility). The policy attaches to a
//! [`crate::mesh::PullSession`] via
//! [`with_retry`](crate::mesh::PullSession::with_retry); waiting time is
//! *charged to the deployment time* (reported separately as
//! [`crate::pull::PullOutcome::backoff_total`]) — a retried pull is a
//! slower pull, which the energy model then prices. [`FlakyRegistry`]
//! injects deterministic transient *resolve*
//! failures, [`FaultySource`] deterministic *blob-fetch* failures
//! (transient or fatal) — the fatal kind is what drives the session's
//! mid-pull failover onto surviving mesh sources. The counter-based
//! doubles here inject *fixed* schedules; the probabilistic, seeded
//! generalization lives in [`crate::fault`] ([`crate::fault::FaultPlan`],
//! injected by [`crate::mesh::PullSession::with_faults`]).

use crate::digest::Digest;
use crate::image::{Platform, Reference};
use crate::manifest::ImageManifest;
use crate::pull::RegistryError;
use crate::{BlobSource, ManifestSource, Registry};
use deep_netsim::{splitmix64, unit_f64, Seconds};
use std::cell::Cell;
use std::sync::Arc;

/// Retry policy: exponential backoff with a cap and seeded jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (≥ 1); the first attempt is not a retry.
    pub max_attempts: usize,
    /// Backoff before retry `k` (1-based) is `base · 2^(k-1)`.
    pub base_backoff: Seconds,
    /// Per-retry cap applied to the exponential term before jitter — deep
    /// retry chains wait `max_backoff`, not unbounded doublings.
    pub max_backoff: Seconds,
    /// Relative jitter amplitude in `[0, 1)`: retry `k`'s backoff is
    /// scaled by `1 + jitter · u_k` with `u_k ∈ [-1, 1)` drawn
    /// deterministically from `seed`. Zero disables jitter.
    pub jitter: f64,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Seconds::new(2.0),
            max_backoff: Seconds::new(60.0),
            jitter: 0.0,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Enable seeded jitter (builder-style).
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter amplitude must be in [0, 1)");
        self.jitter = jitter;
        self.seed = seed;
        self
    }

    /// Backoff charged before the `k`-th retry (1-based): capped
    /// exponential, then jittered.
    pub fn backoff(&self, retry: usize) -> Seconds {
        assert!(retry >= 1, "the first attempt has no backoff");
        let exponential = self.base_backoff.as_f64() * 2f64.powi(retry as i32 - 1);
        let capped = exponential.min(self.max_backoff.as_f64());
        if self.jitter == 0.0 {
            return Seconds::new(capped);
        }
        // Unit draw in [-1, 1) from a splitmix64 stream keyed by (seed,
        // retry): deterministic per policy, decorrelated across retries.
        let bits = splitmix64(self.seed ^ (retry as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let unit = unit_f64(bits);
        Seconds::new(capped * (1.0 + self.jitter * (2.0 * unit - 1.0)))
    }

    /// Total backoff a client burns exhausting the policy against a
    /// source that never answers: `Σ_{k=1}^{max_attempts−1} backoff(k)`.
    /// This is the *death-detection cost* a
    /// [`crate::mesh::PullSession`] charges when a source fails fatally
    /// mid-pull — the client cannot distinguish death from a transient
    /// burst until its retry budget is spent, only then does it re-plan
    /// onto survivors.
    pub fn exhausted_backoff(&self) -> Seconds {
        let mut total = Seconds::ZERO;
        for k in 1..self.max_attempts {
            total += self.backoff(k);
        }
        total
    }
}

/// A registry wrapper that fails its first `failures` resolves with a
/// transient error, then behaves normally. Deterministic failure
/// injection for resilience tests.
pub struct FlakyRegistry<R> {
    inner: R,
    remaining_failures: Cell<usize>,
}

impl<R: Registry> FlakyRegistry<R> {
    pub fn new(inner: R, failures: usize) -> Self {
        FlakyRegistry { inner, remaining_failures: Cell::new(failures) }
    }

    /// Failures still pending.
    pub fn pending_failures(&self) -> usize {
        self.remaining_failures.get()
    }
}

impl<R: Registry> ManifestSource for FlakyRegistry<R> {
    fn host(&self) -> &str {
        self.inner.host()
    }

    fn resolve(
        &self,
        reference: &Reference,
        platform: Platform,
    ) -> Result<Arc<ImageManifest>, RegistryError> {
        let left = self.remaining_failures.get();
        if left > 0 {
            self.remaining_failures.set(left - 1);
            return Err(RegistryError::Transient(format!(
                "injected failure ({left} remaining) for {reference}"
            )));
        }
        self.inner.resolve(reference, platform)
    }

    fn repositories(&self) -> Vec<String> {
        self.inner.repositories()
    }
}

impl<R: Registry> BlobSource for FlakyRegistry<R> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn has_blob(&self, digest: &Digest) -> bool {
        self.inner.has_blob(digest)
    }
}

/// A registry wrapper that injects *blob-fetch* failures: the first
/// `healthy` fetches succeed, then every fetch fails — transiently (the
/// source is flaky and recovers after `failures` injections) or fatally
/// (the source died mid-pull and never comes back). Availability
/// (`has_blob`) keeps advertising the blobs throughout: that is exactly
/// the mid-pull state a [`crate::mesh::PullSession`] must fail over from,
/// since the plan was built against the advertisement.
pub struct FaultySource<R> {
    inner: R,
    healthy: Cell<usize>,
    failures: Cell<usize>,
    transient: bool,
}

impl<R: Registry> FaultySource<R> {
    /// Die fatally after `healthy` successful blob fetches; every later
    /// fetch returns [`RegistryError::Unavailable`].
    pub fn fatal_after(inner: R, healthy: usize) -> Self {
        FaultySource {
            inner,
            healthy: Cell::new(healthy),
            failures: Cell::new(usize::MAX),
            transient: false,
        }
    }

    /// Fail `failures` blob fetches transiently after `healthy` successes,
    /// then recover.
    pub fn transient_run(inner: R, healthy: usize, failures: usize) -> Self {
        FaultySource {
            inner,
            healthy: Cell::new(healthy),
            failures: Cell::new(failures),
            transient: true,
        }
    }

    /// Injected failures still pending (`usize::MAX` = fails forever).
    pub fn pending_failures(&self) -> usize {
        self.failures.get()
    }
}

impl<R: Registry> ManifestSource for FaultySource<R> {
    fn host(&self) -> &str {
        self.inner.host()
    }

    fn resolve(
        &self,
        reference: &Reference,
        platform: Platform,
    ) -> Result<Arc<ImageManifest>, RegistryError> {
        self.inner.resolve(reference, platform)
    }

    fn repositories(&self) -> Vec<String> {
        self.inner.repositories()
    }
}

impl<R: Registry> BlobSource for FaultySource<R> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn has_blob(&self, digest: &Digest) -> bool {
        self.inner.has_blob(digest)
    }

    fn fetch_blob(&self, digest: &Digest) -> Result<(), RegistryError> {
        let healthy = self.healthy.get();
        if healthy > 0 {
            self.healthy.set(healthy - 1);
            return self.inner.fetch_blob(digest);
        }
        let left = self.failures.get();
        if left == 0 {
            return self.inner.fetch_blob(digest);
        }
        if left != usize::MAX {
            self.failures.set(left - 1);
        }
        if self.transient {
            Err(RegistryError::Transient(format!("injected blob failure for {digest}")))
        } else {
            Err(RegistryError::Unavailable(format!("injected source death before {digest}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LayerCache;
    use crate::hub::HubRegistry;
    use crate::mesh::{RegistryMesh, SourceParams};
    use crate::pull::PullOutcome;
    use crate::RegistryId;
    use deep_netsim::{Bandwidth, DataSize};

    const HUB: RegistryId = RegistryId(0);

    fn cache() -> LayerCache {
        LayerCache::new(DataSize::gigabytes(64.0))
    }

    /// Pull `repository` through a single-source session over `registry`
    /// under the default retry policy.
    fn pull(
        registry: &FlakyRegistry<HubRegistry>,
        repository: &str,
        cache: &mut LayerCache,
    ) -> Result<PullOutcome, RegistryError> {
        let params = SourceParams {
            download_bw: Bandwidth::megabytes_per_sec(10.0),
            overhead: Seconds::new(5.0),
        };
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(HUB, registry, params);
        let reference = Reference::new("docker.io", repository, "amd64");
        mesh.session(HUB).with_retry(RetryPolicy::default()).pull(
            &reference,
            Platform::Amd64,
            cache,
        )
    }

    #[test]
    fn retries_exhaust_into_the_transient_error() {
        let flaky = FlakyRegistry::new(HubRegistry::with_paper_catalog(), 10);
        let err = pull(&flaky, "sina88/vp-transcode", &mut cache()).unwrap_err();
        assert!(err.is_transient());
        // The default policy spends its three resolve attempts, no more.
        assert_eq!(flaky.pending_failures(), 7);
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let flaky = FlakyRegistry::new(HubRegistry::with_paper_catalog(), 0);
        let err = pull(&flaky, "sina88/ghost", &mut cache()).unwrap_err();
        assert!(matches!(err, RegistryError::ManifestNotFound(_)));
        assert!(!err.is_transient());
    }

    #[test]
    fn retried_pull_still_updates_cache_once() {
        let flaky = FlakyRegistry::new(HubRegistry::with_paper_catalog(), 1);
        let mut c = cache();
        let out = pull(&flaky, "sina88/vp-transcode", &mut c).unwrap();
        assert_eq!(out.attempts, 2);
        assert_eq!(out.layers_fetched, 3);
        assert_eq!(c.len(), 3);
        // A second pull hits the cache completely.
        let again = pull(&flaky, "sina88/vp-transcode", &mut c).unwrap();
        assert_eq!(again.downloaded, DataSize::ZERO);
    }

    #[test]
    fn backoff_schedule_doubles() {
        let p =
            RetryPolicy { max_attempts: 5, base_backoff: Seconds::new(1.5), ..Default::default() };
        assert!((p.backoff(1).as_f64() - 1.5).abs() < 1e-12);
        assert!((p.backoff(2).as_f64() - 3.0).abs() < 1e-12);
        assert!((p.backoff(3).as_f64() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn backoff_is_capped() {
        let p = RetryPolicy {
            max_attempts: 16,
            base_backoff: Seconds::new(2.0),
            max_backoff: Seconds::new(30.0),
            ..Default::default()
        };
        assert!((p.backoff(4).as_f64() - 16.0).abs() < 1e-12, "below the cap");
        assert!((p.backoff(5).as_f64() - 30.0).abs() < 1e-12, "capped");
        assert!((p.backoff(12).as_f64() - 30.0).abs() < 1e-12, "stays capped");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: Seconds::new(2.0),
            max_backoff: Seconds::new(60.0),
            ..Default::default()
        }
        .with_jitter(0.25, 42);
        for retry in 1..=7 {
            let nominal = (2.0 * 2f64.powi(retry as i32 - 1)).min(60.0);
            let b = p.backoff(retry).as_f64();
            assert!(
                b >= nominal * 0.75 - 1e-12 && b <= nominal * 1.25 + 1e-12,
                "retry {retry}: {b} outside ±25 % of {nominal}"
            );
            // Deterministic: same (seed, retry) ⇒ same backoff.
            assert_eq!(p.backoff(retry), p.backoff(retry));
        }
        // Different seeds decorrelate.
        let other = p.with_jitter(0.25, 43);
        assert!((1..=7).any(|k| p.backoff(k) != other.backoff(k)));
    }
}
