//! The Docker Hub backend: an in-memory catalog.
//!
//! "While the locations of Docker Hub's servers remain undisclosed, its
//! CDN-based distribution model enables Docker images to be served
//! geographically closer to end users" (paper, Section I). That is why the
//! hub's routes are calibrated as effective pull rates per device class
//! (the simulator's `TestbedParams`) rather than modelled here: this type
//! only stores what the hub serves.

use crate::catalog::CatalogEntry;
use crate::digest::{Digest, DigestSet};
use crate::image::{Platform, Reference};
use crate::manifest::ImageManifest;
use crate::pull::RegistryError;
use crate::{BlobSource, ManifestSource};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Docker Hub: manifests by repository, then tag; blobs by digest.
///
/// `Clone` yields an independent hub: both maps are shared
/// copy-on-write, so a clone costs two reference counts and the first
/// push on either side copies the maps it writes ([`Arc::make_mut`]).
/// Each pushed manifest is one shared allocation: a resolve looks it up
/// by the reference's borrowed repository and tag and hands out a
/// reference count to it.
#[derive(Clone)]
pub struct HubRegistry {
    host: String,
    manifests: Arc<HashMap<String, HashMap<String, Arc<ImageManifest>>>>,
    blobs: Arc<DigestSet>,
}

impl HubRegistry {
    /// A hub pre-loaded with the full Table I catalog. The catalog is
    /// published once per process; every call clones that prototype.
    pub fn with_paper_catalog() -> Self {
        static PROTOTYPE: OnceLock<HubRegistry> = OnceLock::new();
        PROTOTYPE.get_or_init(Self::publish_paper_catalog).clone()
    }

    /// A from-scratch build of [`HubRegistry::with_paper_catalog`].
    fn publish_paper_catalog() -> Self {
        let mut hub = HubRegistry {
            host: crate::catalog::HUB_HOST.to_string(),
            manifests: Arc::default(),
            blobs: Arc::default(),
        };
        for entry in crate::catalog::paper_catalog() {
            hub.publish(&entry);
        }
        hub
    }

    /// Publish a catalog entry (both platform manifests).
    pub fn publish(&mut self, entry: &CatalogEntry) {
        for m in &entry.manifests {
            self.push_manifest(&entry.hub_repository, m.platform.tag(), m.clone());
        }
    }

    /// Push a single manifest under `repository:tag`.
    pub fn push_manifest(&mut self, repository: &str, tag: &str, manifest: ImageManifest) {
        let blobs = Arc::make_mut(&mut self.blobs);
        for l in &manifest.layers {
            blobs.insert(l.digest.clone());
        }
        blobs.insert(manifest.config.clone());
        Arc::make_mut(&mut self.manifests)
            .entry(repository.to_string())
            .or_default()
            .insert(tag.to_string(), Arc::new(manifest));
    }
}

impl BlobSource for HubRegistry {
    fn label(&self) -> &str {
        &self.host
    }

    fn has_blob(&self, digest: &Digest) -> bool {
        self.blobs.contains(digest)
    }
}

impl ManifestSource for HubRegistry {
    fn host(&self) -> &str {
        &self.host
    }

    fn resolve(
        &self,
        reference: &Reference,
        platform: Platform,
    ) -> Result<Arc<ImageManifest>, RegistryError> {
        if reference.host != self.host {
            return Err(RegistryError::WrongRegistry {
                expected: self.host.clone(),
                got: reference.host.clone(),
            });
        }
        // Docker Hub resolves the platform either via the tag (the paper
        // tags amd64/arm64 explicitly) or via a manifest list; we accept a
        // platform-tagged reference and verify it matches.
        let m = self
            .manifests
            .get(reference.repository.as_str())
            .and_then(|tags| tags.get(reference.tag.as_str()))
            .ok_or_else(|| RegistryError::ManifestNotFound(reference.canonical()))?;
        if m.platform != platform {
            return Err(RegistryError::PlatformMismatch {
                reference: reference.canonical(),
                requested: platform,
                available: m.platform,
            });
        }
        Ok(Arc::clone(m))
    }

    fn repositories(&self) -> Vec<String> {
        let mut repos: Vec<String> = self.manifests.keys().cloned().collect();
        repos.sort_unstable();
        repos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_netsim::DataSize;

    #[test]
    fn catalog_is_resolvable_for_both_platforms() {
        let hub = HubRegistry::with_paper_catalog();
        for tag in ["amd64", "arm64"] {
            let r = Reference::new("docker.io", "sina88/vp-transcode", tag);
            let platform = if tag == "amd64" { Platform::Amd64 } else { Platform::Arm64 };
            let m = hub.resolve(&r, platform).unwrap();
            assert_eq!(m.total_size(), DataSize::gigabytes(0.17));
        }
    }

    #[test]
    fn unknown_repository_errors() {
        let hub = HubRegistry::with_paper_catalog();
        let r = Reference::new("docker.io", "sina88/ghost", "amd64");
        assert!(matches!(
            hub.resolve(&r, Platform::Amd64).unwrap_err(),
            RegistryError::ManifestNotFound(_)
        ));
    }

    #[test]
    fn wrong_host_rejected() {
        let hub = HubRegistry::with_paper_catalog();
        let r = Reference::new("dcloud2.itec.aau.at", "aau/vp-frame", "amd64");
        assert!(matches!(
            hub.resolve(&r, Platform::Amd64).unwrap_err(),
            RegistryError::WrongRegistry { .. }
        ));
    }

    #[test]
    fn platform_mismatch_detected() {
        let hub = HubRegistry::with_paper_catalog();
        let r = Reference::new("docker.io", "sina88/vp-frame", "amd64");
        assert!(matches!(
            hub.resolve(&r, Platform::Arm64).unwrap_err(),
            RegistryError::PlatformMismatch { .. }
        ));
    }

    #[test]
    fn blobs_are_registered_on_publish() {
        let hub = HubRegistry::with_paper_catalog();
        let r = Reference::new("docker.io", "sina88/tp-ha-train", "amd64");
        let m = hub.resolve(&r, Platform::Amd64).unwrap();
        for l in &m.layers {
            assert!(hub.has_blob(&l.digest));
        }
        assert!(hub.has_blob(&m.config));
        assert!(!hub.has_blob(&Digest::of(b"never published")));
    }

    #[test]
    fn resolves_share_one_manifest_allocation() {
        let hub = HubRegistry::with_paper_catalog();
        let r = Reference::new("docker.io", "sina88/vp-frame", "amd64");
        let first = hub.resolve(&r, Platform::Amd64).unwrap();
        let second = hub.resolve(&r, Platform::Amd64).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&first, &hub.clone().resolve(&r, Platform::Amd64).unwrap()));
        // A re-push replaces the allocation the next resolve hands out;
        // handed-out manifests keep the bytes they were resolved with.
        let mut hub = hub;
        let other = Reference::new("docker.io", "sina88/tp-la-score", "amd64");
        let replacement = hub.resolve(&other, Platform::Amd64).unwrap();
        hub.push_manifest("sina88/vp-frame", "amd64", (*replacement).clone());
        let third = hub.resolve(&r, Platform::Amd64).unwrap();
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(*third, *replacement);
        assert_ne!(*first, *third);
    }

    #[test]
    fn twelve_repositories_listed() {
        let hub = HubRegistry::with_paper_catalog();
        let repos = hub.repositories();
        assert_eq!(repos.len(), 12);
        assert!(repos.iter().all(|r| r.starts_with("sina88/")));
    }

    #[test]
    fn build_once_catalog_equals_a_from_scratch_build() {
        let scratch = HubRegistry::publish_paper_catalog();
        let hub = HubRegistry::with_paper_catalog();
        assert_eq!(hub.host, scratch.host);
        assert_eq!(hub.manifests, scratch.manifests);
        assert_eq!(hub.blobs, scratch.blobs);
    }

    #[test]
    fn a_clones_pushes_stay_on_the_clone() {
        let source = HubRegistry::with_paper_catalog();
        let mut clone = source.clone();
        let r = Reference::new("docker.io", "sina88/vp-frame", "amd64");
        let pushed = source.resolve(&r, Platform::Amd64).unwrap();
        let other = Reference::new("docker.io", "sina88/tp-la-score", "amd64");
        let replacement = source.resolve(&other, Platform::Amd64).unwrap();
        clone.push_manifest("sina88/vp-frame", "amd64", (*replacement).clone());
        clone.push_manifest("sina88/new", "amd64", (*replacement).clone());
        assert_eq!(*clone.resolve(&r, Platform::Amd64).unwrap(), *replacement);
        assert_eq!(source.resolve(&r, Platform::Amd64).unwrap(), pushed);
        assert_eq!(source.repositories().len(), 12);
        assert_eq!(clone.repositories().len(), 13);
        assert_eq!(HubRegistry::with_paper_catalog().manifests, source.manifests);
    }
}
