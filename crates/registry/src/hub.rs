//! The Docker Hub backend: an in-memory catalog.
//!
//! "While the locations of Docker Hub's servers remain undisclosed, its
//! CDN-based distribution model enables Docker images to be served
//! geographically closer to end users" (paper, Section I). That is why the
//! hub's routes are calibrated as effective pull rates per device class
//! (the simulator's `TestbedParams`) rather than modelled here: this type
//! only stores what the hub serves.

use crate::catalog::CatalogEntry;
use crate::digest::Digest;
use crate::image::{Platform, Reference};
use crate::manifest::ImageManifest;
use crate::pull::RegistryError;
use crate::{BlobSource, ManifestSource};
use std::collections::{HashMap, HashSet};

/// Docker Hub: manifests by `(repository, tag)`, blobs by digest. `Clone` is a true deep copy (plain maps, no shared handles).
#[derive(Clone)]
pub struct HubRegistry {
    host: String,
    manifests: HashMap<(String, String), ImageManifest>,
    blobs: HashSet<Digest>,
}

impl HubRegistry {
    /// A hub pre-loaded with the full Table I catalog.
    pub fn with_paper_catalog() -> Self {
        let mut hub = HubRegistry {
            host: crate::catalog::HUB_HOST.to_string(),
            manifests: HashMap::new(),
            blobs: HashSet::new(),
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
        for l in &manifest.layers {
            self.blobs.insert(l.digest.clone());
        }
        self.blobs.insert(manifest.config.clone());
        // Manifests are content-addressable blobs in their own right
        // (clients may pull by digest instead of tag).
        self.blobs.insert(manifest.digest());
        self.manifests.insert((repository.to_string(), tag.to_string()), manifest);
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
    ) -> Result<ImageManifest, RegistryError> {
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
            .get(&(reference.repository.clone(), reference.tag.clone()))
            .ok_or_else(|| RegistryError::ManifestNotFound(reference.canonical()))?;
        if m.platform != platform {
            return Err(RegistryError::PlatformMismatch {
                reference: reference.canonical(),
                requested: platform,
                available: m.platform,
            });
        }
        Ok(m.clone())
    }

    fn repositories(&self) -> Vec<String> {
        let mut repos: Vec<String> = self.manifests.keys().map(|(r, _)| r.clone()).collect();
        repos.sort_unstable();
        repos.dedup();
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
        assert!(hub.has_blob(&m.digest()), "manifest itself is content-addressable");
        assert!(!hub.has_blob(&Digest::of(b"never published")));
    }

    #[test]
    fn twelve_repositories_listed() {
        let hub = HubRegistry::with_paper_catalog();
        let repos = hub.repositories();
        assert_eq!(repos.len(), 12);
        assert!(repos.iter().all(|r| r.starts_with("sina88/")));
    }
}
