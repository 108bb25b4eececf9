//! Layered image manifests.
//!
//! A Docker image is a config blob plus an ordered list of layer blobs,
//! each identified by digest. Pulls transfer only the layers missing from
//! the client's local store — which is why the `ha-*`/`la-*` sibling images
//! of the case studies (identical published sizes in Table II) deploy
//! almost for free once their sibling is cached.
//!
//! Layer *bytes* at gigabyte scale are not materialised; each layer carries
//! a small synthetic seed (from which its digest is computed) plus its
//! declared size. The simulation only ever needs (digest, size), exactly
//! what the real distribution spec's descriptors carry.

use crate::digest::Digest;
use crate::image::Platform;
use deep_netsim::DataSize;
use serde::{Deserialize, Serialize};

/// A layer descriptor: content address + size, as in the OCI distribution
/// spec.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerDescriptor {
    pub digest: Digest,
    pub size: DataSize,
}

impl LayerDescriptor {
    /// Build a descriptor for a synthetic layer: the digest is the SHA-256
    /// of a deterministic seed string, so equal `(name, size)` pairs yield
    /// equal digests — the dedup mechanism.
    pub(crate) fn synthetic(name: &str, size: DataSize) -> Self {
        // Streamed parts: no concatenated seed string is materialised.
        let size_dec = size.as_bytes().to_string();
        let digest =
            Digest::of_parts([b"layer:".as_slice(), name.as_bytes(), b":", size_dec.as_bytes()]);
        LayerDescriptor { digest, size }
    }
}

/// A platform-specific image manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageManifest {
    /// Config blob digest (distinct per image+platform).
    pub config: Digest,
    /// Ordered layers, base first.
    pub layers: Vec<LayerDescriptor>,
    /// Target platform.
    pub platform: Platform,
}

impl ImageManifest {
    /// Build a manifest from named synthetic layers.
    pub(crate) fn synthetic(
        image_name: &str,
        platform: Platform,
        layers: &[(&str, DataSize)],
    ) -> Self {
        let config = Digest::of(format!("config:{image_name}:{platform}").as_bytes());
        ImageManifest {
            config,
            layers: layers
                .iter()
                .map(|(name, size)| LayerDescriptor::synthetic(name, *size))
                .collect(),
            platform,
        }
    }

    /// Total compressed size `Size_mi` — the Table II column.
    pub(crate) fn total_size(&self) -> DataSize {
        self.layers.iter().map(|l| l.size).sum()
    }

    /// Layers of this manifest absent from `present` (the pull diff).
    pub fn missing_layers<'a>(
        &'a self,
        present: impl Fn(&Digest) -> bool + 'a,
    ) -> impl Iterator<Item = &'a LayerDescriptor> {
        self.layers.iter().filter(move |l| !present(&l.digest))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The manifest's own digest: the SHA-256 of its canonical JSON, which
    /// is the body a registry stores for it.
    pub(crate) fn digest_of(manifest: &ImageManifest) -> Digest {
        Digest::of(serde_json::to_string(manifest).unwrap().as_bytes())
    }

    /// Bytes of `a`'s layers that `b` also has (layer-digest intersection).
    pub(crate) fn shared_bytes(a: &ImageManifest, b: &ImageManifest) -> DataSize {
        a.layers
            .iter()
            .filter(|l| b.layers.iter().any(|m| m.digest == l.digest))
            .map(|l| l.size)
            .sum()
    }

    fn mb(v: f64) -> DataSize {
        DataSize::megabytes(v)
    }

    #[test]
    fn synthetic_layers_dedup_by_name_and_size() {
        let a = LayerDescriptor::synthetic("python:3.9", mb(150.0));
        let b = LayerDescriptor::synthetic("python:3.9", mb(150.0));
        let c = LayerDescriptor::synthetic("python:3.9", mb(151.0));
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn total_size_sums_layers() {
        let m = ImageManifest::synthetic(
            "vp-transcode",
            Platform::Amd64,
            &[("alpine", mb(50.0)), ("ffmpeg", mb(100.0)), ("app", mb(20.0))],
        );
        assert_eq!(m.total_size(), mb(170.0));
    }

    #[test]
    fn platforms_get_distinct_configs() {
        let a = ImageManifest::synthetic("img", Platform::Amd64, &[("l", mb(1.0))]);
        let b = ImageManifest::synthetic("img", Platform::Arm64, &[("l", mb(1.0))]);
        assert_ne!(a.config, b.config);
        assert_ne!(digest_of(&a), digest_of(&b));
    }

    #[test]
    fn missing_layers_diff() {
        let m = ImageManifest::synthetic(
            "img",
            Platform::Amd64,
            &[("base", mb(10.0)), ("mid", mb(20.0)), ("app", mb(5.0))],
        );
        let cached = LayerDescriptor::synthetic("mid", mb(20.0)).digest;
        let missing: Vec<_> = m.missing_layers(|d| *d == cached).collect();
        assert_eq!(missing.len(), 2);
        let total: DataSize = missing.iter().map(|l| l.size).sum();
        assert_eq!(total, mb(15.0));
    }

    #[test]
    fn sibling_images_share_base_bytes() {
        let ha = ImageManifest::synthetic(
            "ha-train",
            Platform::Amd64,
            &[("python", mb(150.0)), ("ml-stack", mb(1900.0)), ("ha-app", mb(310.0))],
        );
        let la = ImageManifest::synthetic(
            "la-train",
            Platform::Amd64,
            &[("python", mb(150.0)), ("ml-stack", mb(1900.0)), ("la-app", mb(310.0))],
        );
        assert_eq!(shared_bytes(&ha, &la), mb(2050.0));
        assert_eq!(ha.total_size(), la.total_size());
    }

    #[test]
    fn manifest_digest_is_content_address() {
        let a = ImageManifest::synthetic("x", Platform::Amd64, &[("l", mb(1.0))]);
        let b = ImageManifest::synthetic("x", Platform::Amd64, &[("l", mb(1.0))]);
        assert_eq!(digest_of(&a), digest_of(&b));
        let c = ImageManifest::synthetic("x", Platform::Amd64, &[("l", mb(2.0))]);
        assert_ne!(digest_of(&a), digest_of(&c));
    }
}
