//! Registry garbage collection: mark-and-sweep over the regional
//! registry's object store.
//!
//! Registries accumulate unreferenced blobs when tags are deleted or
//! re-pushed (the regional registry's 100 GB provisioning makes this a
//! real operational concern — the paper sizes it "according to the user's
//! requirements"). The collector marks every blob reachable from a live
//! manifest and sweeps the rest, exactly like `registry garbage-collect`
//! in the reference Docker registry.
//!
//! Its one product caller is the executor's `ChaosKind::RegistryGc` chaos
//! event (in `deep-simulator`), which `scenarios/soak_smoke.toml` scripts
//! as a `registry-gc` event of its chaos timeline.

use crate::digest::{Digest, DigestSet};
use crate::pull::RegistryError;
use crate::regional::{blob_hexes, tags, RegionalRegistry};

/// What a collection pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Blobs referenced by at least one manifest (kept).
    pub marked: usize,
    /// Unreferenced blobs deleted.
    pub swept: usize,
    /// Bytes of *declared* layer content released (the simulation stores
    /// descriptors; a physical registry would release these bytes).
    pub declared_bytes_released: u64,
}

/// Run mark-and-sweep on a regional registry.
///
/// Both listings borrow their keys from a snapshot of the bucket they
/// list, so a pass allocates per marked digest and per swept blob, not
/// per stored object.
pub fn collect(registry: &mut RegionalRegistry) -> Result<GcReport, RegistryError> {
    // Mark: walk every manifest and record referenced digests.
    let mut live = DigestSet::default();
    let manifests = registry.manifest_bucket()?;
    for (repo, tag) in tags(&manifests) {
        let manifest = registry.load_manifest(repo, tag)?;
        let layers = manifest.layers.iter().map(|l| &l.digest);
        for digest in std::iter::once(&manifest.config).chain(layers) {
            if !live.contains(digest) {
                live.insert(digest.clone());
            }
        }
    }
    drop(manifests);
    // Sweep: delete blob records whose digest is not marked. The listing
    // snapshot is dropped before the first delete, which would otherwise
    // copy the bucket it shares.
    let unmarked: Vec<Digest> = {
        let blobs = registry.blob_bucket()?;
        blob_hexes(&blobs).filter(|hex| !live.contains(*hex)).filter_map(Digest::from_hex).collect()
    };
    let mut released = 0u64;
    for digest in &unmarked {
        if let Some(size) = registry.blob_size(digest) {
            released += size.as_bytes();
        }
        registry.delete_blob(digest)?;
    }
    Ok(GcReport { marked: live.len(), swept: unmarked.len(), declared_bytes_released: released })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::paper_catalog;
    use crate::catalog::tests::find_entry;
    use crate::image::Platform;

    #[test]
    fn fresh_catalog_has_nothing_to_sweep() {
        let mut reg = RegionalRegistry::with_paper_catalog();
        let report = collect(&mut reg).unwrap();
        assert_eq!(report.swept, 0);
        assert!(report.marked > 0);
    }

    #[test]
    fn deleting_a_tag_orphans_its_unique_layers() {
        let mut reg = RegionalRegistry::with_paper_catalog();
        // vp-transcode's three layers are unique to it (alpine base is not
        // shared by any other catalog image).
        reg.delete_manifest("aau/vp-transcode", "amd64").unwrap();
        reg.delete_manifest("aau/vp-transcode", "arm64").unwrap();
        let report = collect(&mut reg).unwrap();
        // 3 layers + (config blobs are not stored as blobs in this layout,
        // only layer descriptors) per platform = 6 swept.
        assert_eq!(report.swept, 6, "{report:?}");
        assert!(report.declared_bytes_released >= 2 * 170_000_000);
        // The image is gone; everything else still resolves.
        let cat = paper_catalog();
        let frame = find_entry(&cat, "video-processing", "frame").unwrap();
        for l in &frame.manifest(Platform::Amd64).layers {
            assert!(crate::BlobSource::has_blob(&reg, &l.digest));
        }
    }

    #[test]
    fn shared_layers_survive_while_any_referent_lives() {
        let mut reg = RegionalRegistry::with_paper_catalog();
        // Delete vp-ha-train: its big ml-stack layers are shared with
        // vp-la-train, so only the unique app layer may be swept.
        reg.delete_manifest("aau/vp-ha-train", "amd64").unwrap();
        reg.delete_manifest("aau/vp-ha-train", "arm64").unwrap();
        let report = collect(&mut reg).unwrap();
        assert_eq!(report.swept, 2, "only the per-platform unique app layers: {report:?}");
        let cat = paper_catalog();
        let la = find_entry(&cat, "video-processing", "la-train").unwrap();
        for l in &la.manifest(Platform::Amd64).layers {
            assert!(crate::BlobSource::has_blob(&reg, &l.digest), "shared layer swept");
        }
    }

    #[test]
    fn gc_is_idempotent() {
        let mut reg = RegionalRegistry::with_paper_catalog();
        reg.delete_manifest("aau/tp-retrieve", "amd64").unwrap();
        let first = collect(&mut reg).unwrap();
        let second = collect(&mut reg).unwrap();
        assert!(first.swept > 0);
        assert_eq!(second.swept, 0);
        assert_eq!(second.marked, first.marked);
    }

    #[test]
    fn gc_frees_store_capacity() {
        let mut reg = RegionalRegistry::with_paper_catalog();
        let before = reg.store().used();
        reg.delete_manifest("aau/vp-ha-infer", "amd64").unwrap();
        reg.delete_manifest("aau/vp-ha-infer", "arm64").unwrap();
        collect(&mut reg).unwrap();
        assert!(reg.store().used() < before, "descriptor records released");
    }
}
