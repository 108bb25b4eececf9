//! The regional registry: a Docker registry backed by the MinIO-like
//! object store.
//!
//! Mirrors the paper's deployment (footnotes 3–5): a registry service whose
//! blob and manifest storage lives in S3-compatible buckets on a local
//! server with a provisioned capacity (e.g. 100 GB). Manifests are stored
//! as JSON objects under `manifests/<repo>/<tag>`; blob *descriptors* under
//! `blobs/<digest>` (the simulation stores descriptor records, not
//! gigabytes of layer bytes — see `manifest` module docs).
//!
//! Every resolve reads the stored manifest body and its digest sidecar.
//! Verifying and parsing them (SHA-256 plus JSON) is the expensive part,
//! so each registry lineage — a registry and every [`RegionalRegistry::fork`]
//! of it — shares a parse memo keyed by manifest object. A memo entry
//! keeps the exact body and sidecar bytes it was verified from, and a
//! resolve reuses its parse only when both stored objects are byte-equal
//! to them; any other read (a first resolve, a re-pushed tag, bitrot, a
//! removed or rewritten sidecar) verifies and parses from scratch.
//! Publishing reads the memo too: a push whose body is byte-equal to a
//! memoized one with a sidecar stores that sidecar instead of hashing
//! the body again.
//!
//! A memo entry holds its parse as one shared allocation, and every
//! resolve it serves hands out a reference count to it: a pull copies no
//! manifest. A resolve builds both object keys on the stack.
//!
//! Garbage collection marks through the same memo:
//! `RegionalRegistry::load_manifest` reuses a memoized parse whenever the
//! stored body is byte-equal to the memoized one, and adds a parse of its
//! own only when the body verifies against its digest sidecar, so GC never
//! makes a rotted body resolvable.

use crate::catalog::CatalogEntry;
use crate::digest::{is_hex, Digest};
use crate::image::{Platform, Reference};
use crate::manifest::ImageManifest;
use crate::pull::RegistryError;
use crate::{BlobSource, ManifestSource};
use bytes::Bytes;
use deep_netsim::DataSize;
use deep_objectstore::{Bucket, ObjectStore, StoreError};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Bucket names used by the registry layout.
const MANIFEST_BUCKET: &str = "registry-manifests";
const BLOB_BUCKET: &str = "registry-blobs";

/// Most manifest keys one parse memo holds. Every paper-catalog registry
/// in a process shares one lineage, so a run that publishes fresh
/// generated applications without end would otherwise grow it without
/// end; at the cap the memo starts over (about 1 KB an entry).
const PARSE_MEMO_KEYS: usize = 1024;

/// Longest object key built on the stack; a longer one (a long
/// repository name or a long deserialized digest) goes to the heap.
const STACK_KEY: usize = 160;

/// Run `f` on the object key `parts` concatenate to, built on the stack
/// when it fits. The keys are `manifests/<repository>/<tag>` (a tag's
/// manifest body), `digests/<repository>/<tag>` (its digest sidecar) and
/// `blobs/<hex>` (a blob descriptor).
fn with_key<R>(parts: &[&str], f: impl FnOnce(&str) -> R) -> R {
    let len = parts.iter().map(|p| p.len()).sum();
    let mut buf = [0u8; STACK_KEY];
    let Some(key) = buf.get_mut(..len) else {
        return f(&parts.concat());
    };
    let mut at = 0;
    for part in parts {
        key[at..at + part.len()].copy_from_slice(part.as_bytes());
        at += part.len();
    }
    f(std::str::from_utf8(key).expect("a concatenation of strs is UTF-8"))
}

/// Every `(repository, tag)` a snapshot of the manifest bucket stores a
/// manifest under, borrowed from it.
pub(crate) fn tags(manifests: &Bucket) -> impl Iterator<Item = (&str, &str)> {
    manifests.keys("manifests/").filter_map(|key| key.strip_prefix("manifests/")?.rsplit_once('/'))
}

/// Every digest hex a snapshot of the blob bucket stores a descriptor
/// under, borrowed from it. Keys that are no digest's hex are skipped.
pub(crate) fn blob_hexes(blobs: &Bucket) -> impl Iterator<Item = &str> {
    blobs.keys("blobs/").filter_map(|key| key.strip_prefix("blobs/")).filter(|hex| is_hex(hex))
}

/// One memoized manifest parse: the stored body and digest sidecar it
/// was read with, and the manifest the body parses to, shared with every
/// resolve the entry serves. A present sidecar is by construction the hex
/// SHA-256 of `body`; an entry without one was read unverified.
struct ParsedManifest {
    body: Bytes,
    sidecar: Option<Bytes>,
    manifest: Arc<ImageManifest>,
}

/// The MinIO-backed regional registry.
pub struct RegionalRegistry {
    host: String,
    store: ObjectStore,
    /// Parses by manifest object key, shared by every fork of this
    /// registry (see the module docs).
    parsed: Arc<RwLock<HashMap<String, ParsedManifest>>>,
}

impl RegionalRegistry {
    /// Create the registry layout on `store` (idempotent on bucket
    /// existence).
    pub fn new(host: &str, store: ObjectStore) -> Self {
        for bucket in [MANIFEST_BUCKET, BLOB_BUCKET] {
            match store.create_bucket(bucket) {
                Ok(()) | Err(StoreError::BucketExists(_)) => {}
                Err(e) => panic!("registry bucket setup failed: {e}"),
            }
        }
        RegionalRegistry { host: host.to_string(), store, parsed: Arc::default() }
    }

    /// The AAU registry of the paper, on a 100 GB store, pre-loaded with
    /// the Table I catalog. The catalog is published once per process;
    /// every call returns a [`RegionalRegistry::fork`] of that prototype.
    pub fn with_paper_catalog() -> Self {
        static PROTOTYPE: OnceLock<RegionalRegistry> = OnceLock::new();
        PROTOTYPE.get_or_init(Self::publish_paper_catalog).fork()
    }

    /// A from-scratch build of [`RegionalRegistry::with_paper_catalog`].
    fn publish_paper_catalog() -> Self {
        let store = ObjectStore::paper_default();
        let mut reg = RegionalRegistry::new(crate::catalog::REGIONAL_HOST, store);
        for entry in crate::catalog::paper_catalog() {
            reg.publish(&entry).expect("catalog fits in 100 GB of descriptors");
        }
        reg
    }

    /// Backing object store handle.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// An independent copy of this registry: same host, same objects,
    /// but a forked store (copy-on-write, see [`ObjectStore::fork`]).
    /// Mutations (tag deletes, GC sweeps) on either side never leak to
    /// the other — unlike cloning the store handle, which shares
    /// storage. The fork joins this registry's parse memo, which serves
    /// a parse only for byte-equal stored objects, so neither side can
    /// read the other's manifests through it.
    pub fn fork(&self) -> RegionalRegistry {
        RegionalRegistry {
            host: self.host.clone(),
            store: self.store.fork(),
            parsed: Arc::clone(&self.parsed),
        }
    }

    /// Publish a catalog entry (both platform manifests, amd64 first).
    ///
    /// Not atomic: an error (say [`StoreError::QuotaExceeded`]) on the
    /// second manifest leaves the first one's tag published and
    /// resolvable, and an error inside a push leaves what
    /// `RegionalRegistry::push_manifest` describes.
    pub fn publish(&mut self, entry: &CatalogEntry) -> Result<(), RegistryError> {
        for m in &entry.manifests {
            self.push_manifest(&entry.regional_repository, m.platform.tag(), m)?;
        }
        Ok(())
    }

    /// Push one manifest plus its blob descriptors.
    ///
    /// Not atomic: an error (say [`StoreError::QuotaExceeded`]) can leave
    /// part of the push stored. Blob descriptors written before the error
    /// stay until GC. A push that fails on the digest sidecar, after the
    /// body was written, leaves the tag resolvable to the new manifest
    /// *unverified* (no sidecar), while the call returns the error.
    pub(crate) fn push_manifest(
        &mut self,
        repository: &str,
        tag: &str,
        manifest: &ImageManifest,
    ) -> Result<(), RegistryError> {
        // Blob descriptors first (a real registry uploads layers before the
        // manifest so the manifest never dangles).
        for l in &manifest.layers {
            let record = serde_json::to_vec(l).expect("descriptor serializes");
            with_key(&["blobs/", l.digest.hex()], |key| {
                self.store.put_object(BLOB_BUCKET, key, Bytes::from(record))
            })
            .map_err(RegistryError::Storage)?;
        }
        let body = serde_json::to_vec(manifest).expect("manifest serializes");
        with_key(&["manifests/", repository, "/", tag], |key| {
            // Record the body's content digest alongside it so reads can
            // detect storage bitrot on the manifest path — the same
            // integrity model registries apply to layer blobs. A memo
            // entry with a sidecar was verified against it, so when its
            // body is byte-equal to this one its sidecar bytes are this
            // body's digest already.
            let sidecar = self
                .parsed
                .read()
                .get(key)
                .filter(|p| p.body == body)
                .and_then(|p| p.sidecar.clone())
                .unwrap_or_else(|| Bytes::from(Digest::of(&body).hex().to_string()));
            with_key(&["digests/", repository, "/", tag], |digest_key| {
                // Write order keeps every partial-failure state
                // resolvable: drop the old sidecar first (resolve treats a
                // missing record as "verification unavailable", never as
                // corruption), then the body, then the fresh sidecar.
                match self.store.delete_object(MANIFEST_BUCKET, digest_key) {
                    Ok(()) | Err(StoreError::NoSuchKey(_)) => {}
                    Err(e) => return Err(e),
                }
                self.store.put_object(MANIFEST_BUCKET, key, Bytes::from(body))?;
                self.store.put_object(MANIFEST_BUCKET, digest_key, sidecar).map(drop)
            })
        })
        .map_err(RegistryError::Storage)
    }

    /// A snapshot of the manifest bucket, listed by [`tags`] without
    /// copying a key. Drop it before writing a manifest.
    pub(crate) fn manifest_bucket(&self) -> Result<Arc<Bucket>, RegistryError> {
        self.store.bucket_snapshot(MANIFEST_BUCKET).map_err(RegistryError::Storage)
    }

    /// A snapshot of the blob bucket, listed by [`blob_hexes`] without
    /// copying a key. Drop it before deleting a blob.
    pub(crate) fn blob_bucket(&self) -> Result<Arc<Bucket>, RegistryError> {
        self.store.bucket_snapshot(BLOB_BUCKET).map_err(RegistryError::Storage)
    }

    /// Load a manifest directly by repository and tag (GC path; bypasses
    /// host/platform checks and does not verify the body).
    ///
    /// Reads through the lineage's parse memo: a stored body byte-equal
    /// to a memoized one reuses that parse (a parse depends on the body
    /// alone), whether or not the entry was verified. Any other body is
    /// parsed, and its parse joins the memo only if the body verifies
    /// against its digest sidecar. Only memo entries with a sidecar are
    /// verified reads ([`ManifestSource::resolve`] also memoizes a body
    /// read without one), and a GC pass adds no entry without one, so it
    /// never makes a rotted or unverified body resolvable.
    pub(crate) fn load_manifest(
        &self,
        repository: &str,
        tag: &str,
    ) -> Result<Arc<ImageManifest>, RegistryError> {
        with_key(&["manifests/", repository, "/", tag], |key| {
            let body =
                self.store.get_object(MANIFEST_BUCKET, key).map_err(RegistryError::Storage)?;
            if let Some(p) = self.parsed.read().get(key).filter(|p| p.body == body) {
                return Ok(Arc::clone(&p.manifest));
            }
            let manifest: Arc<ImageManifest> = serde_json::from_slice(&body)
                .map(Arc::new)
                .map_err(|e| RegistryError::CorruptManifest(e.to_string()))?;
            let sidecar = self.sidecar(repository, tag);
            if sidecar.as_ref().is_some_and(|s| Digest::of(&body).hex().as_bytes() == &s[..]) {
                self.memoize(key, body, sidecar, Arc::clone(&manifest));
            }
            Ok(manifest)
        })
    }

    /// The stored digest sidecar of `repository:tag`, if any.
    fn sidecar(&self, repository: &str, tag: &str) -> Option<Bytes> {
        with_key(&["digests/", repository, "/", tag], |key| {
            self.store.get_object(MANIFEST_BUCKET, key).ok()
        })
    }

    /// Insert a parse into the memo under `key`. At [`PARSE_MEMO_KEYS`]
    /// keys the memo starts over.
    fn memoize(
        &self,
        key: &str,
        body: Bytes,
        sidecar: Option<Bytes>,
        manifest: Arc<ImageManifest>,
    ) {
        let parsed = ParsedManifest { body, sidecar, manifest };
        let mut memo = self.parsed.write();
        if memo.len() >= PARSE_MEMO_KEYS && !memo.contains_key(key) {
            memo.clear();
        }
        memo.insert(key.to_string(), parsed);
    }

    /// Delete a manifest (the tag disappears; blobs stay until GC).
    pub fn delete_manifest(&mut self, repository: &str, tag: &str) -> Result<(), RegistryError> {
        with_key(&["manifests/", repository, "/", tag], |key| {
            self.store.delete_object(MANIFEST_BUCKET, key)
        })
        .map_err(RegistryError::Storage)?;
        // Integrity sidecar goes with it (absent for pre-digest pushes).
        with_key(&["digests/", repository, "/", tag], |key| {
            match self.store.delete_object(MANIFEST_BUCKET, key) {
                Ok(()) | Err(StoreError::NoSuchKey(_)) => Ok(()),
                Err(e) => Err(RegistryError::Storage(e)),
            }
        })
    }

    /// Delete one blob record (GC sweep).
    pub fn delete_blob(&mut self, digest: &Digest) -> Result<(), RegistryError> {
        with_key(&["blobs/", digest.hex()], |key| self.store.delete_object(BLOB_BUCKET, key))
            .map_err(RegistryError::Storage)
    }

    /// Declared size of a stored blob, if present.
    pub(crate) fn blob_size(&self, digest: &Digest) -> Option<DataSize> {
        let bytes = with_key(&["blobs/", digest.hex()], |key| {
            self.store.get_object(BLOB_BUCKET, key).ok()
        })?;
        let desc: crate::manifest::LayerDescriptor = serde_json::from_slice(&bytes).ok()?;
        Some(desc.size)
    }
}

impl BlobSource for RegionalRegistry {
    fn label(&self) -> &str {
        &self.host
    }

    /// A presence check on `blobs/<hex>`, with the key built on the stack:
    /// pulls ask it for every layer, and it allocates nothing.
    fn has_blob(&self, digest: &Digest) -> bool {
        with_key(&["blobs/", digest.hex()], |key| self.store.contains_object(BLOB_BUCKET, key))
    }
}

impl ManifestSource for RegionalRegistry {
    fn host(&self) -> &str {
        &self.host
    }

    /// Read the stored manifest and its digest sidecar, verify the body
    /// against the sidecar (when one is recorded) and parse it. The
    /// verify-and-parse step is skipped only when both objects are
    /// byte-equal to a read this lineage already made; errors are never
    /// memoized, and the platform is checked on every call. A memoized
    /// read hands out the memo entry's shared manifest, so two resolves
    /// of an unchanged tag return one allocation.
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
        let (repository, tag) = (reference.repository.as_str(), reference.tag.as_str());
        let manifest = with_key(&["manifests/", repository, "/", tag], |key| {
            let body = self.store.get_object(MANIFEST_BUCKET, key).map_err(|e| match e {
                StoreError::NoSuchKey(_) => RegistryError::ManifestNotFound(reference.canonical()),
                other => RegistryError::Storage(other),
            })?;
            let sidecar = self.sidecar(repository, tag);
            // Both objects byte-equal to a memoized read: hashing and
            // parsing them again would give the same result.
            let memoized = self
                .parsed
                .read()
                .get(key)
                .filter(|p| p.body == body && p.sidecar == sidecar)
                .map(|p| Arc::clone(&p.manifest));
            if let Some(manifest) = memoized {
                return Ok(manifest);
            }
            // Verify the stored body against its recorded content digest
            // — a rotted manifest must surface as corruption, not parse
            // garbage. No sidecar means verification is unavailable,
            // never corruption.
            if let Some(recorded) = &sidecar {
                let actual = Digest::of(&body);
                if actual.hex().as_bytes() != &recorded[..] {
                    return Err(RegistryError::CorruptManifest(format!(
                        "manifest {key} digest mismatch: stored body hashes to {actual}"
                    )));
                }
            }
            let manifest: Arc<ImageManifest> = serde_json::from_slice(&body)
                .map(Arc::new)
                .map_err(|e| RegistryError::CorruptManifest(e.to_string()))?;
            self.memoize(key, body, sidecar, Arc::clone(&manifest));
            Ok(manifest)
        })?;
        if manifest.platform != platform {
            return Err(RegistryError::PlatformMismatch {
                reference: reference.canonical(),
                requested: platform,
                available: manifest.platform,
            });
        }
        Ok(manifest)
    }

    fn repositories(&self) -> Vec<String> {
        let Ok(manifests) = self.manifest_bucket() else { return Vec::new() };
        let mut repos: Vec<String> = tags(&manifests).map(|(repo, _)| repo.to_string()).collect();
        repos.sort_unstable();
        repos.dedup();
        repos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::tests::find_entry;
    use crate::catalog::{paper_catalog, REGIONAL_HOST};
    use crate::manifest::tests::digest_of;

    #[test]
    fn resolve_round_trips_through_object_store() {
        let reg = RegionalRegistry::with_paper_catalog();
        let r = Reference::new("dcloud2.itec.aau.at", "aau/tp-retrieve", "arm64");
        let m = reg.resolve(&r, Platform::Arm64).unwrap();
        assert_eq!(m.total_size(), DataSize::gigabytes(0.14));
        assert_eq!(m.platform, Platform::Arm64);
    }

    #[test]
    fn blobs_queryable_with_sizes() {
        let reg = RegionalRegistry::with_paper_catalog();
        let cat = paper_catalog();
        let entry = find_entry(&cat, "video-processing", "ha-train").unwrap();
        for l in &entry.manifest(Platform::Amd64).layers {
            assert!(reg.has_blob(&l.digest));
            assert_eq!(reg.blob_size(&l.digest), Some(l.size));
        }
    }

    #[test]
    fn shared_layers_stored_once() {
        // vp-ha-train and vp-la-train share 3 of 4 layers; the blob bucket
        // must hold one descriptor per unique digest.
        let reg = RegionalRegistry::with_paper_catalog();
        let view = reg.store().bucket_snapshot(BLOB_BUCKET).unwrap();
        let blobs: Vec<&str> = view.keys("blobs/").collect();
        let unique: std::collections::HashSet<&str> = blobs.iter().copied().collect();
        assert_eq!(blobs.len(), unique.len());
        // 12 images × 2 platforms, heavily deduped: far fewer blobs than
        // 12 × 2 × ~3.3 layers.
        assert!(blobs.len() < 70, "got {} blobs", blobs.len());
    }

    #[test]
    fn wrong_host_and_missing_manifest_errors() {
        let reg = RegionalRegistry::with_paper_catalog();
        let wrong = Reference::new("docker.io", "sina88/vp-frame", "amd64");
        assert!(matches!(
            reg.resolve(&wrong, Platform::Amd64).unwrap_err(),
            RegistryError::WrongRegistry { .. }
        ));
        let ghost = Reference::new("dcloud2.itec.aau.at", "aau/ghost", "amd64");
        assert!(matches!(
            reg.resolve(&ghost, Platform::Amd64).unwrap_err(),
            RegistryError::ManifestNotFound(_)
        ));
    }

    #[test]
    fn repositories_list_matches_catalog() {
        let reg = RegionalRegistry::with_paper_catalog();
        let repos = reg.repositories();
        assert_eq!(repos.len(), 12);
        assert!(repos.iter().all(|r| r.starts_with("aau/")));
    }

    const FRAME_KEY: &str = "manifests/aau/vp-frame/amd64";
    const FRAME_SIDECAR: &str = "digests/aau/vp-frame/amd64";

    fn frame() -> Reference {
        Reference::new("dcloud2.itec.aau.at", "aau/vp-frame", "amd64")
    }

    /// Rewrite vp-frame's stored amd64 body with one hex digit of a
    /// digest flipped: still valid JSON, so only the digest check can
    /// tell it from the pushed body.
    fn rot_frame_body(reg: &RegionalRegistry) {
        let body = reg.store().get_object(MANIFEST_BUCKET, FRAME_KEY).unwrap();
        let mut rotted = body.to_vec();
        let flip = rotted.iter().position(|&b| b == b'a').unwrap();
        rotted[flip] = b'b';
        reg.store().put_object(MANIFEST_BUCKET, FRAME_KEY, Bytes::from(rotted)).unwrap();
    }

    /// Resolve vp-frame twice and check the second read found a memo
    /// entry for the stored bytes.
    fn warm_frame(reg: &RegionalRegistry) -> Arc<ImageManifest> {
        let cold = reg.resolve(&frame(), Platform::Amd64).unwrap();
        assert!(reg.parsed.read().contains_key(FRAME_KEY), "first resolve memoizes its parse");
        let warm = reg.resolve(&frame(), Platform::Amd64).unwrap();
        assert_eq!(warm, cold);
        warm
    }

    /// Every object of every bucket of `reg`'s store as
    /// `(bucket, key, bytes)`.
    fn objects(reg: &RegionalRegistry) -> Vec<(String, String, Bytes)> {
        store_objects(reg.store())
    }

    fn store_objects(store: &ObjectStore) -> Vec<(String, String, Bytes)> {
        let mut out = Vec::new();
        for bucket in [BLOB_BUCKET, MANIFEST_BUCKET] {
            for key in store.bucket_snapshot(bucket).unwrap().keys("") {
                let data = store.get_object(bucket, key).unwrap();
                out.push((bucket.to_string(), key.to_string(), data));
            }
        }
        out
    }

    #[test]
    fn resolves_share_one_manifest_allocation() {
        let reg = own_lineage();
        let first = warm_frame(&reg);
        let second = reg.resolve(&frame(), Platform::Amd64).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        // A fork reads through the same memo, and so does GC's load.
        assert!(Arc::ptr_eq(&first, &reg.fork().resolve(&frame(), Platform::Amd64).unwrap()));
        assert!(Arc::ptr_eq(&first, &reg.load_manifest("aau/vp-frame", "amd64").unwrap()));
    }

    #[test]
    fn shared_resolves_still_see_every_tag_change() {
        let cat = paper_catalog();
        let transcode = find_entry(&cat, "video-processing", "transcode").unwrap();
        let retagged = transcode.manifest(Platform::Amd64).clone();
        // A deleted tag.
        let mut reg = own_lineage();
        let shared = warm_frame(&reg);
        reg.delete_manifest("aau/vp-frame", "amd64").unwrap();
        assert!(matches!(
            reg.resolve(&frame(), Platform::Amd64).unwrap_err(),
            RegistryError::ManifestNotFound(_)
        ));
        // A re-push of another manifest under the tag.
        reg.push_manifest("aau/vp-frame", "amd64", &retagged).unwrap();
        let repushed = reg.resolve(&frame(), Platform::Amd64).unwrap();
        assert!(!Arc::ptr_eq(&repushed, &shared));
        assert_eq!(*repushed, retagged);
        assert_ne!(*shared, retagged, "a handed-out manifest keeps its bytes");
        // Bitrot under a warm memo entry.
        let reg = own_lineage();
        warm_frame(&reg);
        rot_frame_body(&reg);
        assert!(matches!(
            reg.resolve(&frame(), Platform::Amd64).unwrap_err(),
            RegistryError::CorruptManifest(_)
        ));
    }

    #[test]
    fn long_keys_take_the_heap_path() {
        let mut reg = own_lineage();
        let repo = format!("aau/{}", "x".repeat(STACK_KEY));
        let m = ImageManifest::synthetic(&repo, Platform::Amd64, &[(&repo, DataSize::bytes(9))]);
        reg.push_manifest(&repo, "amd64", &m).unwrap();
        let r = Reference::new(REGIONAL_HOST, &repo, "amd64");
        assert_eq!(*reg.resolve(&r, Platform::Amd64).unwrap(), m);
        assert!(tags(&reg.manifest_bucket().unwrap()).any(|listed| listed == (&repo, "amd64")));
        reg.delete_manifest(&repo, "amd64").unwrap();
        assert!(reg.resolve(&r, Platform::Amd64).is_err());
        with_key(&["ab", "", "c"], |key| assert_eq!(key, "abc"));
        let long = "y".repeat(STACK_KEY + 1);
        with_key(&[&long], |key| assert_eq!(key, long));
    }

    #[test]
    fn resolve_detects_manifest_bitrot() {
        let reg = RegionalRegistry::with_paper_catalog();
        // Healthy resolves first: the second is served by the memo.
        warm_frame(&reg);
        rot_frame_body(&reg);
        assert!(matches!(
            reg.resolve(&frame(), Platform::Amd64).unwrap_err(),
            RegistryError::CorruptManifest(_)
        ));
        // The error was not memoized, and neither was the rotted body.
        assert!(reg.resolve(&frame(), Platform::Amd64).is_err());
    }

    #[test]
    fn removed_sidecar_after_a_hit_is_honoured() {
        let reg = RegionalRegistry::with_paper_catalog();
        let pushed = warm_frame(&reg);
        reg.store().delete_object(MANIFEST_BUCKET, FRAME_SIDECAR).unwrap();
        assert_eq!(reg.resolve(&frame(), Platform::Amd64).unwrap(), pushed);
        // Without a sidecar the rotted body resolves unverified — as the
        // rotted manifest, never as the memoized parse of the old body.
        rot_frame_body(&reg);
        let unverified = reg.resolve(&frame(), Platform::Amd64).unwrap();
        assert_ne!(unverified, pushed);
        let body = reg.store().get_object(MANIFEST_BUCKET, FRAME_KEY).unwrap();
        assert_eq!(*unverified, serde_json::from_slice::<ImageManifest>(&body).unwrap());
    }

    #[test]
    fn rewritten_sidecar_after_a_hit_is_honoured() {
        let reg = RegionalRegistry::with_paper_catalog();
        let pushed = warm_frame(&reg);
        let recorded = reg.store().get_object(MANIFEST_BUCKET, FRAME_SIDECAR).unwrap();
        let wrong = Digest::of(b"some other body").hex().as_bytes().to_vec();
        reg.store().put_object(MANIFEST_BUCKET, FRAME_SIDECAR, Bytes::from(wrong)).unwrap();
        assert!(matches!(
            reg.resolve(&frame(), Platform::Amd64).unwrap_err(),
            RegistryError::CorruptManifest(_)
        ));
        // Restoring the recorded digest verifies again.
        reg.store().put_object(MANIFEST_BUCKET, FRAME_SIDECAR, recorded).unwrap();
        assert_eq!(reg.resolve(&frame(), Platform::Amd64).unwrap(), pushed);
    }

    #[test]
    fn a_forks_tag_changes_neither_serve_nor_poison_the_original() {
        let original = RegionalRegistry::with_paper_catalog();
        let pushed = warm_frame(&original);
        let mut deleting = original.fork();
        deleting.resolve(&frame(), Platform::Amd64).unwrap();
        deleting.delete_manifest("aau/vp-frame", "amd64").unwrap();
        assert!(matches!(
            deleting.resolve(&frame(), Platform::Amd64).unwrap_err(),
            RegistryError::ManifestNotFound(_)
        ));
        assert_eq!(original.resolve(&frame(), Platform::Amd64).unwrap(), pushed);

        // Re-push the tag with another image's amd64 manifest.
        let cat = paper_catalog();
        let other = find_entry(&cat, "text-processing", "la-score").unwrap();
        let replacement = other.manifest(Platform::Amd64).clone();
        let mut repushing = original.fork();
        repushing.push_manifest("aau/vp-frame", "amd64", &replacement).unwrap();
        for _ in 0..2 {
            assert_eq!(*repushing.resolve(&frame(), Platform::Amd64).unwrap(), replacement);
            assert_eq!(original.resolve(&frame(), Platform::Amd64).unwrap(), pushed);
        }
    }

    #[test]
    fn gc_on_a_fork_leaves_source_and_sibling_unchanged() {
        let source = RegionalRegistry::with_paper_catalog();
        let before = objects(&source);
        let sibling = source.fork();
        let mut fork = source.fork();
        fork.delete_manifest("aau/vp-transcode", "amd64").unwrap();
        fork.delete_manifest("aau/vp-transcode", "arm64").unwrap();
        let report = crate::gc::collect(&mut fork).unwrap();
        assert!(report.swept > 0);
        assert_ne!(objects(&fork), before);
        assert_eq!(objects(&source), before);
        assert_eq!(objects(&sibling), before);
        assert_eq!(source.store().used(), sibling.store().used());
        assert!(fork.store().used() < source.store().used());
    }

    #[test]
    fn memo_hits_carry_the_digest_of_the_stored_body() {
        let reg = RegionalRegistry::with_paper_catalog();
        let warm = warm_frame(&reg);
        let body = reg.store().get_object(MANIFEST_BUCKET, FRAME_KEY).unwrap();
        let fresh: ImageManifest = serde_json::from_slice(&body).unwrap();
        assert_eq!(digest_of(&warm), Digest::of(&body));
        assert_eq!(digest_of(&warm), digest_of(&fresh));
        // GC's reads hit the same entry.
        let loaded = reg.load_manifest("aau/vp-frame", "amd64").unwrap();
        assert_eq!(digest_of(&loaded), Digest::of(&body));

        // A body that is not canonical JSON (here stored without a
        // sidecar, so it resolves unverified) still carries the digest of
        // its canonical form, as a fresh parse does, not of its bytes.
        let spaced = format!(" {}", std::str::from_utf8(&body).unwrap());
        let key = "manifests/aau/vp-frame/spaced";
        reg.store().put_object(MANIFEST_BUCKET, key, Bytes::from(spaced.clone())).unwrap();
        let r = Reference::new(REGIONAL_HOST, "aau/vp-frame", "spaced");
        reg.resolve(&r, Platform::Amd64).unwrap();
        assert!(reg.parsed.read().contains_key(key));
        let hit = reg.resolve(&r, Platform::Amd64).unwrap();
        assert_eq!(digest_of(&hit), digest_of(&fresh));
        assert_ne!(digest_of(&hit), Digest::of(spaced.as_bytes()));
    }

    /// A registry with a parse memo of its own, so that no concurrently
    /// running test replaces its memo entries.
    fn own_lineage() -> RegionalRegistry {
        RegionalRegistry::publish_paper_catalog()
    }

    #[test]
    fn a_republish_after_a_verified_resolve_stores_the_memoized_sidecar() {
        let mut reg = own_lineage();
        let pushed = warm_frame(&reg);
        let memoized = reg.parsed.read()[FRAME_KEY].sidecar.clone().expect("a verified read");
        reg.push_manifest("aau/vp-frame", "amd64", &pushed).unwrap();
        assert_eq!(objects(&reg), objects(&own_lineage()), "as a from-scratch push");
        // The stored sidecar is the memo's buffer: the push hashed nothing.
        let stored = reg.store().get_object(MANIFEST_BUCKET, FRAME_SIDECAR).unwrap();
        assert!(std::ptr::eq(stored.as_ptr(), memoized.as_ptr()));
        // The next resolve is a memo hit: a miss would re-memoize the
        // newly stored body buffer.
        let memo_body = reg.parsed.read()[FRAME_KEY].body.clone();
        assert_eq!(reg.resolve(&frame(), Platform::Amd64).unwrap(), pushed);
        assert!(std::ptr::eq(reg.parsed.read()[FRAME_KEY].body.as_ptr(), memo_body.as_ptr()));
    }

    #[test]
    fn a_different_manifest_under_a_memoized_key_gets_its_own_digest() {
        let mut reg = own_lineage();
        warm_frame(&reg);
        let cat = paper_catalog();
        let transcode = find_entry(&cat, "video-processing", "transcode").unwrap();
        let retagged = transcode.manifest(Platform::Amd64).clone();
        reg.push_manifest("aau/vp-frame", "amd64", &retagged).unwrap();
        let body = reg.store().get_object(MANIFEST_BUCKET, FRAME_KEY).unwrap();
        let sidecar = reg.store().get_object(MANIFEST_BUCKET, FRAME_SIDECAR).unwrap();
        assert_eq!(&sidecar[..], Digest::of(&body).hex().as_bytes());
        assert_eq!(*reg.resolve(&frame(), Platform::Amd64).unwrap(), retagged);
    }

    #[test]
    fn bitrot_after_a_memo_served_push_is_detected() {
        let mut reg = own_lineage();
        let pushed = warm_frame(&reg);
        reg.push_manifest("aau/vp-frame", "amd64", &pushed).unwrap();
        rot_frame_body(&reg);
        assert!(matches!(
            reg.resolve(&frame(), Platform::Amd64).unwrap_err(),
            RegistryError::CorruptManifest(_)
        ));
    }

    #[test]
    fn gc_never_launders_a_rotted_body() {
        for warm in [false, true] {
            let mut reg = RegionalRegistry::with_paper_catalog();
            if warm {
                warm_frame(&reg);
            }
            rot_frame_body(&reg);
            let rotted = reg.store().get_object(MANIFEST_BUCKET, FRAME_KEY).unwrap();
            // The rotted body still parses, so GC marks through it.
            for _ in 0..2 {
                crate::gc::collect(&mut reg).unwrap();
                assert!(reg.parsed.read().get(FRAME_KEY).is_none_or(|p| p.body != rotted));
                assert!(matches!(
                    reg.resolve(&frame(), Platform::Amd64).unwrap_err(),
                    RegistryError::CorruptManifest(_)
                ));
            }
        }
    }

    /// Mark-and-sweep recomputed from the raw store: every manifest body
    /// parsed from scratch, no memo.
    fn reference_gc(store: &ObjectStore) -> crate::gc::GcReport {
        let mut live = std::collections::HashSet::new();
        for key in store.bucket_snapshot(MANIFEST_BUCKET).unwrap().keys("manifests/") {
            let body = store.get_object(MANIFEST_BUCKET, key).unwrap();
            let manifest: ImageManifest = serde_json::from_slice(&body).unwrap();
            live.insert(manifest.config.clone());
            live.extend(manifest.layers.iter().map(|l| l.digest.clone()));
        }
        let (mut swept, mut released) = (0, 0);
        for key in store.bucket_snapshot(BLOB_BUCKET).unwrap().keys("blobs/") {
            let digest: Digest = format!("sha256:{}", &key["blobs/".len()..]).parse().unwrap();
            if !live.contains(&digest) {
                let record = store.get_object(BLOB_BUCKET, key).unwrap();
                let desc: crate::manifest::LayerDescriptor =
                    serde_json::from_slice(&record).unwrap();
                released += desc.size.as_bytes();
                store.delete_object(BLOB_BUCKET, key).unwrap();
                swept += 1;
            }
        }
        crate::gc::GcReport { marked: live.len(), swept, declared_bytes_released: released }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Random tag deletes, re-pushes (another catalog image's manifest
        /// or a generated one under an existing tag), resolves and forks
        /// on forks of one lineage, with a GC pass every few steps: each
        /// pass reports what a from-scratch mark-and-sweep reports and
        /// leaves exactly the objects it leaves.
        #[test]
        fn gc_through_the_memo_equals_a_from_scratch_gc(
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..48),
        ) {
            let cat = paper_catalog();
            let tags: Vec<(&str, Platform)> = cat
                .iter()
                .flat_map(|e| e.manifests.iter().map(|m| (e.regional_repository.as_str(), m.platform)))
                .collect();
            let mut pool: Vec<ImageManifest> =
                cat.iter().flat_map(|e| e.manifests.iter().cloned()).collect();
            for i in 0..4 {
                let name = format!("gen-{i}");
                let layers = [(name.as_str(), DataSize::megabytes(1.0 + i as f64))];
                pool.push(ImageManifest::synthetic(&name, Platform::Amd64, &layers));
            }
            let mut regs = vec![RegionalRegistry::with_paper_catalog()];
            for op in ops {
                let target = (op >> 8) as usize % regs.len();
                let (repo, platform) = tags[(op >> 16) as usize % tags.len()];
                let reg = &mut regs[target];
                match op % 6 {
                    0 => {
                        let _ = reg.delete_manifest(repo, platform.tag());
                    }
                    1 => {
                        let manifest = &pool[(op >> 24) as usize % pool.len()];
                        reg.push_manifest(repo, platform.tag(), manifest).unwrap();
                    }
                    2 => {
                        let _ = reg.resolve(&Reference::new(REGIONAL_HOST, repo, platform.tag()), platform);
                    }
                    3 => {
                        let fork = reg.fork();
                        regs.push(fork);
                    }
                    _ => {
                        let reference = reg.store().fork();
                        let want = reference_gc(&reference);
                        proptest::prop_assert_eq!(crate::gc::collect(reg).unwrap(), want);
                        proptest::prop_assert_eq!(objects(reg), store_objects(&reference));
                    }
                }
            }
        }
    }

    #[test]
    fn parse_memo_stays_bounded() {
        let mut reg = RegionalRegistry::new(REGIONAL_HOST, ObjectStore::paper_default());
        for i in 0..PARSE_MEMO_KEYS + 8 {
            let repo = format!("gen/app-{i}");
            let size = DataSize::megabytes(1.0);
            let manifest = ImageManifest::synthetic(&repo, Platform::Amd64, &[(&repo, size)]);
            reg.push_manifest(&repo, "amd64", &manifest).unwrap();
            let r = Reference::new(REGIONAL_HOST, &repo, "amd64");
            assert_eq!(*reg.resolve(&r, Platform::Amd64).unwrap(), manifest);
            assert!(reg.parsed.read().len() <= PARSE_MEMO_KEYS);
        }
        // GC's verified parses follow the same rule.
        crate::gc::collect(&mut reg).unwrap();
        assert!(reg.parsed.read().len() <= PARSE_MEMO_KEYS);
    }

    #[test]
    fn build_once_catalog_equals_a_from_scratch_build() {
        let scratch = RegionalRegistry::publish_paper_catalog();
        for reg in [RegionalRegistry::with_paper_catalog(), RegionalRegistry::with_paper_catalog()]
        {
            assert_eq!(reg.host, scratch.host);
            assert_eq!(objects(&reg), objects(&scratch));
            assert_eq!(reg.store().used(), scratch.store().used());
            assert_eq!(reg.store().capacity(), scratch.store().capacity());
        }
    }

    #[test]
    fn sidecar_digest_equals_manifest_digest() {
        // One identity everywhere: the recorded integrity digest is the
        // manifest's own digest (hash of the stored bytes, OCI-style).
        let reg = RegionalRegistry::with_paper_catalog();
        let r = Reference::new("dcloud2.itec.aau.at", "aau/tp-retrieve", "amd64");
        let m = reg.resolve(&r, Platform::Amd64).unwrap();
        let recorded =
            reg.store().get_object("registry-manifests", "digests/aau/tp-retrieve/amd64").unwrap();
        assert_eq!(&recorded[..], digest_of(&m).hex().as_bytes());
    }

    #[test]
    fn missing_digest_record_degrades_to_unverified_resolve() {
        // A push interrupted between sidecar delete and sidecar rewrite
        // leaves no record; resolve must treat that as "verification
        // unavailable", never as corruption.
        let reg = RegionalRegistry::with_paper_catalog();
        reg.store().delete_object("registry-manifests", "digests/aau/vp-frame/amd64").unwrap();
        let r = Reference::new("dcloud2.itec.aau.at", "aau/vp-frame", "amd64");
        assert!(reg.resolve(&r, Platform::Amd64).is_ok());
    }

    #[test]
    fn push_is_idempotent_per_key() {
        let mut reg = RegionalRegistry::with_paper_catalog();
        let cat = paper_catalog();
        let entry = find_entry(&cat, "text-processing", "la-score").unwrap();
        let before = reg.store().used();
        reg.publish(entry).unwrap();
        assert_eq!(reg.store().used(), before, "re-publish replaces, not duplicates");
    }

    #[test]
    fn quota_exceeded_surfaces_through_publish_and_keeps_earlier_tags() {
        // A store of a few KB fills within the first Table I entries. The
        // sweep moves the point where the quota bites across blob
        // descriptors, manifest bodies and digest sidecars.
        let cat = paper_catalog();
        for capacity in (1_024..8_192).step_by(97) {
            let store = ObjectStore::with_capacity(DataSize::bytes(capacity));
            let mut reg = RegionalRegistry::new(REGIONAL_HOST, store);
            let mut published = Vec::new();
            let (failed, err) = cat
                .iter()
                .find_map(|entry| match reg.publish(entry) {
                    Ok(()) => {
                        published.push(entry);
                        None
                    }
                    Err(e) => Some((entry, e)),
                })
                .expect("a few KB cannot hold the Table I catalog");
            assert!(
                matches!(err, RegistryError::Storage(StoreError::QuotaExceeded { .. })),
                "capacity {capacity}: {err:?}"
            );
            for entry in &published {
                for m in &entry.manifests {
                    let r =
                        Reference::new(REGIONAL_HOST, &entry.regional_repository, m.platform.tag());
                    assert_eq!(*reg.resolve(&r, m.platform).unwrap(), *m, "capacity {capacity}");
                }
            }
            // The failed publish never leaves a tag that reads as anything
            // but its complete pushed manifest.
            for m in &failed.manifests {
                let r =
                    Reference::new(REGIONAL_HOST, &failed.regional_repository, m.platform.tag());
                match reg.resolve(&r, m.platform) {
                    Ok(got) => assert_eq!(*got, *m, "capacity {capacity}"),
                    Err(e) => {
                        assert!(matches!(e, RegistryError::ManifestNotFound(_)), "{e:?}")
                    }
                }
            }
            assert!(reg.store().used() <= reg.store().capacity(), "capacity {capacity}");
        }
    }
}
