//! Docker registry substrate for the DEEP reproduction — an open
//! multi-registry **mesh** with per-layer source selection.
//!
//! The paper deploys microservice images from two registries: the public
//! Docker Hub (CDN-backed) and a regional MinIO-based registry on the lab
//! LAN (Table I lists the image catalog on both). The seed reproduction
//! froze that hybrid into a closed two-variant API; this crate now models
//! the general mechanism the paper's hybrid is one instance of: any number
//! of *sources* — full registries, extra regionals, or peer devices
//! serving blobs out of their layer caches (EdgePier-style) — registered
//! in a [`RegistryMesh`] under typed [`RegistryId`] handles, with every
//! missing layer of a pull fetched from the cheapest available source.
//!
//! The registry interface is split along the two halves of the Docker
//! distribution protocol:
//!
//! * [`ManifestSource`] — resolves a reference + platform to a manifest
//!   (only full registries can do this);
//! * [`BlobSource`] — answers per-blob availability (full registries *and*
//!   peer caches can do this);
//! * [`Registry`] — the conjunction, implemented automatically for any
//!   type providing both halves.
//!
//! Modules:
//!
//! * [`sha256`] — from-scratch SHA-256 (FIPS 180-4), validated against the
//!   NIST test vectors; the content-address function of everything below;
//! * [`digest`] — `sha256:<hex>` content digests;
//! * [`image`] — image references (`registry/repo:tag`) and platforms
//!   (`amd64` / `arm64`, the two tags the paper publishes);
//! * [`manifest`] — layered image manifests with per-layer digests and
//!   sizes, enabling cross-image layer dedup (the `ha-*`/`la-*` sibling
//!   images of the case studies share most of their bytes);
//! * [`hub`] / [`regional`] — the two paper registry backends: an
//!   in-memory catalog vs. an object-store-backed regional registry;
//! * [`mesh`] — the registry mesh: [`RegistryMesh`] source registration,
//!   [`PullSession`] (resolve the manifest once, then fetch each missing
//!   layer from the cheapest source under the route-bandwidth +
//!   per-source-overhead cost model), and [`PeerCacheSource`] (a blob
//!   source backed by other devices' layer caches);
//! * [`catalog`] — Table I: all twelve images published to both registries;
//! * [`cache`] — per-device layer cache with LRU eviction under a storage
//!   quota;
//! * [`pull`] — the seed single-registry pull path ([`PullPlanner`]) kept
//!   as the parity oracle: a [`PullSession`] over a single-source mesh
//!   reproduces it byte-for-byte (property-tested), plus the
//!   [`PullOutcome`] record with its per-source breakdown;
//! * [`retry`] — [`RetryPolicy`] (exponential backoff with a cap and
//!   deterministic seeded jitter) consumed by [`PullSession::with_retry`],
//!   plus the failure-injecting test doubles [`FaultySource`] and
//!   [`FlakyRegistry`] the failover tests pull through;
//! * [`fault`] — the seeded fault-injection harness: [`FaultModel`]
//!   (per-source per-pull fatal probability + per-fetch transient rate),
//!   [`FaultPlan`] (a splitmix64-seeded reproducible sampling of the
//!   model, injected into a pull by [`PullSession::with_faults`]). Fatal
//!   deaths trigger the session's failover onto surviving sources —
//!   including *standby*
//!   mesh sources registered with
//!   [`RegistryMesh::add_standby_registry`](mesh::RegistryMesh::add_standby_registry),
//!   which are planned only when no first-class source survives, so the
//!   fault-free plan stays byte-identical.

#![forbid(unsafe_code)]

pub mod cache;
pub mod catalog;
pub mod digest;
pub mod fault;
pub mod gc;
pub mod hub;
pub mod image;
pub mod manifest;
pub mod mesh;
pub mod pull;
pub mod regional;
pub mod retry;
pub mod sha256;

pub use cache::LayerCache;
pub use catalog::{paper_catalog, CatalogEntry};
pub use digest::Digest;
pub use fault::{FaultModel, FaultPlan, FaultRates, OutageWindow};
pub use gc::{collect as gc_collect, GcReport};
pub use hub::HubRegistry;
pub use image::{Platform, Reference};
pub use manifest::{ImageManifest, LayerDescriptor};
pub use mesh::{MeshSource, PeerCacheSource, PullSession, RegistryMesh, SourceParams};
pub use pull::{PullOutcome, PullPlanner, RegistryError, SourcePull};
pub use regional::RegionalRegistry;
pub use retry::{FaultySource, FlakyRegistry, RetryPolicy};

use std::sync::Arc;

/// Typed handle for a mesh source (`r_g` in the paper), shared with the
/// netsim crate.
pub use deep_netsim::RegistryId;

/// The manifest half of the registry protocol: resolve a tagged reference
/// to a platform manifest. Only full registries implement this.
pub trait ManifestSource {
    /// Registry display name ("docker.io", "dcloud2.itec.aau.at").
    fn host(&self) -> &str;

    /// Resolve a reference + platform to its manifest.
    ///
    /// The manifest is shared, not copied: a registry keeps one
    /// allocation per stored manifest and every resolve hands out a
    /// reference count to it, so a pull pays for its layers, not for a
    /// deep copy of their descriptors.
    fn resolve(
        &self,
        reference: &Reference,
        platform: Platform,
    ) -> Result<Arc<ImageManifest>, RegistryError>;

    /// Repositories the registry hosts (for Table I regeneration).
    fn repositories(&self) -> Vec<String>;
}

/// The blob half of the registry protocol: per-blob availability and the
/// fetch itself. Full registries and peer-device caches both implement
/// this.
pub trait BlobSource {
    /// Display label for per-source reporting ("docker.io", "peer-cache").
    fn label(&self) -> &str;

    /// Whether the source can serve a blob right now.
    fn has_blob(&self, digest: &Digest) -> bool;

    /// Perform the fetch of an advertised blob — the data-plane operation
    /// a [`mesh::PullSession`] drives per layer. The default succeeds
    /// whenever [`BlobSource::has_blob`] does; fault-injecting doubles
    /// (see [`retry::FaultySource`]) override it to model sources that
    /// die *mid-pull*, after availability was already advertised.
    fn fetch_blob(&self, digest: &Digest) -> Result<(), RegistryError> {
        if self.has_blob(digest) {
            Ok(())
        } else {
            Err(RegistryError::MissingBlob(digest.clone()))
        }
    }
}

/// A full registry: both protocol halves. Blanket-implemented, so any
/// `ManifestSource + BlobSource` is a `Registry` for free.
pub trait Registry: ManifestSource + BlobSource {}

impl<T: ManifestSource + BlobSource + ?Sized> Registry for T {}
