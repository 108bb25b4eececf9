//! The pull protocol: resolve → diff → fetch → extract.
//!
//! Produces the deployment time `Td` of the paper's completion-time model.
//! `Td` is not just `Size_mi / BW_gj`: layers already cached on the device
//! are skipped, and fetched layers must also be *extracted* onto the
//! device's disk (the dominant cost of large pulls on slow storage — which
//! is how Table II's multi-hundred-second deployments of 5.78 GB images
//! arise on the testbed). A fixed per-pull overhead models registry
//! negotiation and container creation.
//!
//! [`PullPlanner`] is the seed single-registry pull path, retained as the
//! parity oracle for the mesh: a [`crate::mesh::PullSession`] over a
//! single-source mesh must reproduce its [`PullOutcome`] byte for byte
//! (see the `mesh_parity` property tests). New code should pull through a
//! session; the planner remains the reference semantics.

use crate::cache::LayerCache;
use crate::digest::Digest;
use crate::image::{Platform, Reference};
use crate::Registry;
use deep_netsim::{transfer_time, Bandwidth, DataSize, RegistryId, Seconds};
use deep_objectstore::StoreError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors across the registry substrate.
#[derive(Debug)]
pub enum RegistryError {
    /// The reference names a different registry host.
    WrongRegistry { expected: String, got: String },
    /// No manifest under the reference.
    ManifestNotFound(String),
    /// Manifest exists but for another platform.
    PlatformMismatch { reference: String, requested: Platform, available: Platform },
    /// Stored manifest failed to deserialize.
    CorruptManifest(String),
    /// Object-store failure (regional registry backend).
    Storage(StoreError),
    /// A layer referenced by the manifest is not served by the registry.
    MissingBlob(Digest),
    /// A transient network/registry failure — retryable (see
    /// [`crate::retry`]).
    Transient(String),
    /// A permanent refusal from an otherwise-reachable source (auth
    /// revoked, registry decommissioned, or a death injected by
    /// [`crate::mesh::PullSession::with_faults`]). Not retryable; a
    /// [`crate::mesh::PullSession`] reacts by failing the remaining
    /// layers over to surviving sources, charging the exhausted retry
    /// budget as the death-detection cost when a policy is attached.
    Unavailable(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::WrongRegistry { expected, got } => {
                write!(f, "reference targets {got:?}, registry is {expected:?}")
            }
            RegistryError::ManifestNotFound(r) => write!(f, "manifest not found: {r}"),
            RegistryError::PlatformMismatch { reference, requested, available } => {
                write!(f, "{reference}: requested platform {requested}, available {available}")
            }
            RegistryError::CorruptManifest(e) => write!(f, "corrupt manifest: {e}"),
            RegistryError::Storage(e) => write!(f, "storage: {e}"),
            RegistryError::MissingBlob(d) => write!(f, "missing blob {d}"),
            RegistryError::Transient(msg) => write!(f, "transient registry failure: {msg}"),
            RegistryError::Unavailable(msg) => write!(f, "source unavailable: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl RegistryError {
    /// Whether retrying the operation may succeed. Retry policies (see
    /// [`crate::retry`] and [`crate::mesh::PullSession::with_retry`]) only
    /// re-attempt transient failures; permanent errors (missing manifest,
    /// wrong platform, corruption) surface immediately.
    pub(crate) fn is_transient(&self) -> bool {
        matches!(self, RegistryError::Transient(_))
    }
}

/// Link/device parameters for one pull.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PullPlanner {
    /// Effective registry→device bandwidth (`BW_gj`).
    pub download_bw: Bandwidth,
    /// Device disk bandwidth for layer extraction (SD cards are slow).
    pub extract_bw: Bandwidth,
    /// Fixed per-pull overhead: auth, manifest round-trips, container
    /// create/start.
    pub overhead: Seconds,
}

/// Bytes and layers one mesh source contributed to a pull.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourcePull {
    /// The contributing source's mesh handle.
    pub source: RegistryId,
    /// Bytes fetched from this source.
    pub downloaded: DataSize,
    /// Layers fetched from this source.
    pub layers: usize,
}

/// What a pull did and how long it took: bytes moved and served from
/// cache, the phase times behind `Td`, and which sources carried the
/// bytes or died. The image itself is identified by the reference the
/// pull resolved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PullOutcome {
    /// Bytes fetched over the network.
    pub downloaded: DataSize,
    /// Bytes served from the device's layer cache.
    pub cached: DataSize,
    /// Layers fetched / layers skipped.
    pub layers_fetched: usize,
    pub cache_hits: usize,
    /// Network transfer time.
    pub download_time: Seconds,
    /// Extraction time for fetched layers.
    pub extract_time: Seconds,
    /// Fixed overhead charged.
    pub overhead: Seconds,
    /// Per-source breakdown, in order of first use (only sources that
    /// fetched at least one layer appear; empty for fully-warm pulls).
    pub per_source: Vec<SourcePull>,
    /// Sources that failed fatally mid-pull, in order of death; the
    /// remaining layers were re-planned onto survivors (empty on the
    /// happy path).
    pub failed_sources: Vec<RegistryId>,
    /// Retry backoff charged by the session's retry policy: transient
    /// re-attempts plus, per fatally-dead source, the exhausted retry
    /// budget burnt detecting the death before failing over
    /// ([`crate::retry::RetryPolicy::exhausted_backoff`]). Zero when no
    /// policy is attached or nothing failed. Reported separately from
    /// `overhead`; included in [`PullOutcome::deployment_time`].
    pub backoff_total: Seconds,
    /// Manifest-resolve attempts performed (1 = first try succeeded).
    pub attempts: usize,
}

impl PullOutcome {
    /// Total deployment time `Td`.
    pub fn deployment_time(&self) -> Seconds {
        self.download_time + self.extract_time + self.overhead + self.backoff_total
    }
}

impl PullPlanner {
    /// Plan (and execute against `cache`) a pull of `reference` for
    /// `platform` from `registry`.
    pub fn pull(
        &self,
        registry: &dyn Registry,
        reference: &Reference,
        platform: Platform,
        cache: &mut LayerCache,
    ) -> Result<PullOutcome, RegistryError> {
        let manifest = registry.resolve(reference, platform)?;
        let mut downloaded = DataSize::ZERO;
        let mut cached = DataSize::ZERO;
        let mut layers_fetched = 0usize;
        let mut cache_hits = 0usize;
        for layer in &manifest.layers {
            if cache.touch(&layer.digest) {
                cached += layer.size;
                cache_hits += 1;
            } else {
                if !registry.has_blob(&layer.digest) {
                    return Err(RegistryError::MissingBlob(layer.digest.clone()));
                }
                downloaded += layer.size;
                layers_fetched += 1;
                cache.insert(layer.digest.clone(), layer.size);
            }
        }
        Ok(self.outcome(downloaded, cached, layers_fetched, cache_hits))
    }

    /// Estimate a pull without mutating the cache — used by the scheduler
    /// to evaluate counterfactual `(registry, device)` assignments.
    pub fn estimate(
        &self,
        registry: &dyn Registry,
        reference: &Reference,
        platform: Platform,
        cache: &LayerCache,
    ) -> Result<PullOutcome, RegistryError> {
        let manifest = registry.resolve(reference, platform)?;
        let mut downloaded = DataSize::ZERO;
        let mut cached = DataSize::ZERO;
        let mut layers_fetched = 0usize;
        let mut cache_hits = 0usize;
        for layer in &manifest.layers {
            if cache.contains(&layer.digest) {
                cached += layer.size;
                cache_hits += 1;
            } else {
                downloaded += layer.size;
                layers_fetched += 1;
            }
        }
        Ok(self.outcome(downloaded, cached, layers_fetched, cache_hits))
    }

    /// Assemble the single-source outcome. The planner has no mesh, so the
    /// breakdown attributes everything fetched to [`PullPlanner::SOURCE`].
    fn outcome(
        &self,
        downloaded: DataSize,
        cached: DataSize,
        layers_fetched: usize,
        cache_hits: usize,
    ) -> PullOutcome {
        let per_source = if layers_fetched > 0 {
            vec![SourcePull { source: Self::SOURCE, downloaded, layers: layers_fetched }]
        } else {
            Vec::new()
        };
        PullOutcome {
            downloaded,
            cached,
            layers_fetched,
            cache_hits,
            download_time: transfer_time(downloaded, self.download_bw),
            extract_time: transfer_time(downloaded, self.extract_bw),
            overhead: self.overhead,
            per_source,
            failed_sources: Vec::new(),
            backoff_total: Seconds::ZERO,
            attempts: 1,
        }
    }
}

impl PullPlanner {
    /// The mesh handle a planner pull reports in its breakdown: the
    /// planner always fetches from the one registry it was handed, which a
    /// single-source mesh registers under id 0.
    pub const SOURCE: RegistryId = RegistryId(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::HubRegistry;
    use crate::regional::RegionalRegistry;

    fn planner() -> PullPlanner {
        PullPlanner {
            download_bw: Bandwidth::megabytes_per_sec(10.0),
            extract_bw: Bandwidth::megabytes_per_sec(50.0),
            overhead: Seconds::new(5.0),
        }
    }

    fn cache() -> LayerCache {
        LayerCache::new(DataSize::gigabytes(64.0))
    }

    #[test]
    fn cold_pull_fetches_everything() {
        let hub = HubRegistry::with_paper_catalog();
        let mut cache = cache();
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let out = planner().pull(&hub, &r, Platform::Amd64, &mut cache).unwrap();
        assert_eq!(out.downloaded, DataSize::gigabytes(0.17));
        assert_eq!(out.cached, DataSize::ZERO);
        assert_eq!(out.layers_fetched, 3);
        // 170 MB at 10 MB/s = 17 s download, at 50 MB/s = 3.4 s extract.
        assert!((out.download_time.as_f64() - 17.0).abs() < 1e-9);
        assert!((out.extract_time.as_f64() - 3.4).abs() < 1e-9);
        assert!((out.deployment_time().as_f64() - 25.4).abs() < 1e-9);
    }

    #[test]
    fn warm_pull_is_overhead_only() {
        let hub = HubRegistry::with_paper_catalog();
        let mut cache = cache();
        let r = Reference::new("docker.io", "sina88/vp-transcode", "amd64");
        let p = planner();
        p.pull(&hub, &r, Platform::Amd64, &mut cache).unwrap();
        let again = p.pull(&hub, &r, Platform::Amd64, &mut cache).unwrap();
        assert_eq!(again.downloaded, DataSize::ZERO);
        assert_eq!(again.cache_hits, 3);
        assert!((again.deployment_time().as_f64() - 5.0).abs() < 1e-9);
        assert!(again.cached > DataSize::ZERO);
    }

    #[test]
    fn sibling_image_pull_transfers_only_unique_layers() {
        // The crux of layer-aware deployment: after vp-la-train, pulling
        // vp-ha-train moves only its unique app layer (580 MB of 5.78 GB).
        let hub = HubRegistry::with_paper_catalog();
        let mut cache = cache();
        let p = planner();
        let la = Reference::new("docker.io", "sina88/vp-la-train", "amd64");
        let ha = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
        p.pull(&hub, &la, Platform::Amd64, &mut cache).unwrap();
        let out = p.pull(&hub, &ha, Platform::Amd64, &mut cache).unwrap();
        assert_eq!(out.downloaded, DataSize::megabytes(580.0));
        assert_eq!(out.cached, DataSize::megabytes(5200.0));
        let cached_share =
            out.cached.as_bytes() as f64 / (out.downloaded + out.cached).as_bytes() as f64;
        assert!(cached_share > 0.89);
    }

    #[test]
    fn cross_registry_cache_hits() {
        // Layers are content-addressed: a layer pulled from the Hub is a
        // cache hit when the same image is later pulled regionally.
        let hub = HubRegistry::with_paper_catalog();
        let regional = RegionalRegistry::with_paper_catalog();
        let mut cache = cache();
        let p = planner();
        let hub_ref = Reference::new("docker.io", "sina88/tp-ha-train", "arm64");
        p.pull(&hub, &hub_ref, Platform::Arm64, &mut cache).unwrap();
        let reg_ref = Reference::new("dcloud2.itec.aau.at", "aau/tp-ha-train", "arm64");
        let out = p.pull(&regional, &reg_ref, Platform::Arm64, &mut cache).unwrap();
        assert_eq!(out.downloaded, DataSize::ZERO, "all layers already present");
    }

    #[test]
    fn estimate_matches_pull_without_mutation() {
        let hub = HubRegistry::with_paper_catalog();
        let mut cache = cache();
        let p = planner();
        let r = Reference::new("docker.io", "sina88/tp-decompress", "amd64");
        let est = p.estimate(&hub, &r, Platform::Amd64, &cache).unwrap();
        let real = p.pull(&hub, &r, Platform::Amd64, &mut cache).unwrap();
        assert_eq!(est, real);
        // Estimating again now sees the cache hit; the first estimate did
        // not mutate anything.
        let est2 = p.estimate(&hub, &r, Platform::Amd64, &cache).unwrap();
        assert_eq!(est2.downloaded, DataSize::ZERO);
    }

    #[test]
    fn platform_variants_do_not_cross_pollinate() {
        let hub = HubRegistry::with_paper_catalog();
        let mut cache = cache();
        let p = planner();
        let amd = Reference::new("docker.io", "sina88/tp-retrieve", "amd64");
        let arm = Reference::new("docker.io", "sina88/tp-retrieve", "arm64");
        p.pull(&hub, &amd, Platform::Amd64, &mut cache).unwrap();
        let out = p.pull(&hub, &arm, Platform::Arm64, &mut cache).unwrap();
        assert_eq!(out.cached, DataSize::ZERO, "arm64 blobs differ from amd64");
    }

    #[test]
    fn deployment_time_scales_with_bandwidth() {
        // Td = Size/BW shape check at the pull level.
        let hub = HubRegistry::with_paper_catalog();
        let r = Reference::new("docker.io", "sina88/vp-ha-infer", "amd64");
        let fast = PullPlanner {
            download_bw: Bandwidth::megabytes_per_sec(100.0),
            extract_bw: Bandwidth::infinite(),
            overhead: Seconds::ZERO,
        };
        let slow = PullPlanner { download_bw: Bandwidth::megabytes_per_sec(10.0), ..fast };
        let tf = fast.pull(&hub, &r, Platform::Amd64, &mut cache()).unwrap().deployment_time();
        let ts = slow.pull(&hub, &r, Platform::Amd64, &mut cache()).unwrap().deployment_time();
        assert!((ts.as_f64() / tf.as_f64() - 10.0).abs() < 1e-9);
    }
}
