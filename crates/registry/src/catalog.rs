//! Table I: the image catalog published to both registries.
//!
//! Twelve microservice images (six per application), each published under
//! `sina88/<name>` on Docker Hub and `aau/<name>` on the AAU regional
//! registry, tagged `amd64` and `arm64`. Layer stacks reflect the paper's
//! base images (`amd64/ubuntu:18.04`, `ubuntu:24.10`, `alpine:3`,
//! `python:3.9-slim`, `python:3.9`); sibling `ha-*`/`la-*` images share
//! their heavy ML stacks, which is what Table II's identical sibling sizes
//! imply and what makes layer-aware deployment cheap for the second
//! sibling.

use crate::image::{Platform, Reference};
use crate::manifest::ImageManifest;
use deep_netsim::DataSize;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Host name of Docker Hub.
pub(crate) const HUB_HOST: &str = "docker.io";
/// Host name of the AAU regional registry (footnote 3 of the paper).
pub const REGIONAL_HOST: &str = "dcloud2.itec.aau.at";

/// One catalog row: an image with its Hub and regional repositories.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// Application ("video-processing" / "text-processing").
    pub application: String,
    /// Microservice name as used in the DAGs ("transcode", "ha-train", ...).
    pub microservice: String,
    /// Docker Hub repository (`sina88/...`).
    pub hub_repository: String,
    /// Regional repository (`aau/...`).
    pub regional_repository: String,
    /// Per-platform manifests (amd64, arm64) — identical layer geometry.
    pub manifests: Vec<ImageManifest>,
}

impl CatalogEntry {
    fn new(application: &str, microservice: &str, prefix: &str, layers: &[(&str, f64)]) -> Self {
        let short = format!("{prefix}-{microservice}");
        let layer_sizes: Vec<(String, DataSize)> =
            layers.iter().map(|(name, mb)| (name.to_string(), DataSize::megabytes(*mb))).collect();
        let manifests = Platform::all()
            .into_iter()
            .map(|p| {
                // Per-platform layers: same logical stack, platform-suffixed
                // digest seeds (arm64 and amd64 blobs differ in reality).
                let named: Vec<(String, DataSize)> =
                    layer_sizes.iter().map(|(n, s)| (format!("{n}@{p}"), *s)).collect();
                let refs: Vec<(&str, DataSize)> =
                    named.iter().map(|(n, s)| (n.as_str(), *s)).collect();
                ImageManifest::synthetic(&short, p, &refs)
            })
            .collect();
        CatalogEntry {
            application: application.to_string(),
            microservice: microservice.to_string(),
            hub_repository: format!("sina88/{short}"),
            regional_repository: format!("aau/{short}"),
            manifests,
        }
    }

    /// A synthetic single-layer entry for non-catalog applications
    /// (generated workloads published on the fly by the simulator).
    pub fn single_layer(application: &str, microservice: &str, size: DataSize) -> Self {
        let layer_name = format!("{application}/{microservice}");
        let layers: [(&str, f64); 1] = [(layer_name.as_str(), size.as_megabytes())];
        let mut entry = CatalogEntry::new(application, microservice, "gen", &layers);
        entry.hub_repository = format!("synthetic/{application}-{microservice}");
        entry.regional_repository = format!("aau-synthetic/{application}-{microservice}");
        entry
    }

    /// The manifest for one platform.
    pub fn manifest(&self, platform: Platform) -> &ImageManifest {
        self.manifests
            .iter()
            .find(|m| m.platform == platform)
            .expect("catalog entries carry both platforms")
    }

    /// Hub-side reference for a platform tag.
    pub fn hub_reference(&self, platform: Platform) -> Reference {
        Reference::new(HUB_HOST, &self.hub_repository, platform.tag())
    }

    /// Regional-side reference for a platform tag.
    pub fn regional_reference(&self, platform: Platform) -> Reference {
        Reference::new(REGIONAL_HOST, &self.regional_repository, platform.tag())
    }

    /// Declared image size (identical across platforms by construction).
    pub fn size(&self) -> DataSize {
        self.manifests[0].total_size()
    }
}

/// The full Table I catalog.
///
/// Layer budgets sum exactly to Table II's `Size_mi` per image; shared
/// stacks are named identically so their digests coincide across sibling
/// images. The catalog is built once per process and cloned out.
pub fn paper_catalog() -> Vec<CatalogEntry> {
    static CATALOG: OnceLock<Vec<CatalogEntry>> = OnceLock::new();
    CATALOG.get_or_init(build_paper_catalog).clone()
}

/// A from-scratch build of [`paper_catalog`].
fn build_paper_catalog() -> Vec<CatalogEntry> {
    vec![
        // ---- video processing (vp-*) -------------------------------
        CatalogEntry::new(
            "video-processing",
            "transcode",
            "vp",
            &[("alpine:3", 50.0), ("vp-ffmpeg", 100.0), ("vp-transcode-app", 20.0)],
        ),
        CatalogEntry::new(
            "video-processing",
            "frame",
            "vp",
            &[("ubuntu:24.10", 80.0), ("vp-opencv", 500.0), ("vp-frame-app", 120.0)],
        ),
        CatalogEntry::new(
            "video-processing",
            "ha-train",
            "vp",
            &[
                ("python:3.9", 150.0),
                ("vp-ml-stack", 4500.0),
                ("vp-train-common", 550.0),
                ("vp-ha-train-app", 580.0),
            ],
        ),
        CatalogEntry::new(
            "video-processing",
            "la-train",
            "vp",
            &[
                ("python:3.9", 150.0),
                ("vp-ml-stack", 4500.0),
                ("vp-train-common", 550.0),
                ("vp-la-train-app", 580.0),
            ],
        ),
        CatalogEntry::new(
            "video-processing",
            "ha-infer",
            "vp",
            &[("python:3.9-slim", 120.0), ("vp-infer-stack", 2800.0), ("vp-ha-model", 610.0)],
        ),
        CatalogEntry::new(
            "video-processing",
            "la-infer",
            "vp",
            &[("python:3.9-slim", 120.0), ("vp-infer-stack", 2800.0), ("vp-la-model", 620.0)],
        ),
        // ---- text processing (tp-*) --------------------------------
        CatalogEntry::new(
            "text-processing",
            "retrieve",
            "tp",
            &[("python:3.9-slim", 120.0), ("tp-aws-sdk", 15.0), ("tp-retrieve-app", 5.0)],
        ),
        CatalogEntry::new(
            "text-processing",
            "decompress",
            "tp",
            &[("python:3.9-slim", 120.0), ("tp-zlib-tools", 640.0), ("tp-decompress-app", 20.0)],
        ),
        CatalogEntry::new(
            "text-processing",
            "ha-train",
            "tp",
            &[("python:3.9", 150.0), ("tp-sklearn-stack", 1900.0), ("tp-ha-train-app", 310.0)],
        ),
        CatalogEntry::new(
            "text-processing",
            "la-train",
            "tp",
            &[("python:3.9", 150.0), ("tp-sklearn-stack", 1900.0), ("tp-la-train-app", 310.0)],
        ),
        CatalogEntry::new(
            "text-processing",
            "ha-score",
            "tp",
            &[("python:3.9-slim", 120.0), ("tp-score-stack", 450.0), ("tp-ha-score-app", 60.0)],
        ),
        CatalogEntry::new(
            "text-processing",
            "la-score",
            "tp",
            &[("python:3.9-slim", 120.0), ("tp-score-stack", 450.0), ("tp-la-score-app", 60.0)],
        ),
    ]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::manifest::tests::shared_bytes;

    /// Find a catalog entry by application and microservice name.
    pub(crate) fn find_entry<'a>(
        catalog: &'a [CatalogEntry],
        application: &str,
        microservice: &str,
    ) -> Option<&'a CatalogEntry> {
        catalog.iter().find(|e| e.application == application && e.microservice == microservice)
    }

    #[test]
    fn build_once_catalog_equals_a_from_scratch_build() {
        assert_eq!(paper_catalog(), build_paper_catalog());
        assert_eq!(paper_catalog(), paper_catalog());
    }

    #[test]
    fn twelve_images_six_per_application() {
        let cat = paper_catalog();
        assert_eq!(cat.len(), 12);
        assert_eq!(cat.iter().filter(|e| e.application == "video-processing").count(), 6);
        assert_eq!(cat.iter().filter(|e| e.application == "text-processing").count(), 6);
    }

    #[test]
    fn sizes_match_table_ii_exactly() {
        let cat = paper_catalog();
        let expected = [
            ("video-processing", "transcode", 0.17),
            ("video-processing", "frame", 0.70),
            ("video-processing", "ha-train", 5.78),
            ("video-processing", "la-train", 5.78),
            ("video-processing", "ha-infer", 3.53),
            ("video-processing", "la-infer", 3.54),
            ("text-processing", "retrieve", 0.14),
            ("text-processing", "decompress", 0.78),
            ("text-processing", "ha-train", 2.36),
            ("text-processing", "la-train", 2.36),
            ("text-processing", "ha-score", 0.63),
            ("text-processing", "la-score", 0.63),
        ];
        for (app, ms, gb) in expected {
            let e = find_entry(&cat, app, ms).unwrap_or_else(|| panic!("{app}/{ms}"));
            assert!(
                (e.size().as_gigabytes() - gb).abs() < 1e-9,
                "{app}/{ms}: {} != {gb}",
                e.size().as_gigabytes()
            );
        }
    }

    #[test]
    fn repositories_follow_table_i_naming() {
        let cat = paper_catalog();
        let e = find_entry(&cat, "video-processing", "transcode").unwrap();
        assert_eq!(e.hub_repository, "sina88/vp-transcode");
        assert_eq!(e.regional_repository, "aau/vp-transcode");
        assert_eq!(
            e.hub_reference(Platform::Amd64).canonical(),
            "docker.io/sina88/vp-transcode:amd64"
        );
        assert_eq!(
            e.regional_reference(Platform::Arm64).canonical(),
            "dcloud2.itec.aau.at/aau/vp-transcode:arm64"
        );
    }

    #[test]
    fn sibling_trainers_share_most_layers() {
        let cat = paper_catalog();
        for app in ["video-processing", "text-processing"] {
            let ha = find_entry(&cat, app, "ha-train").unwrap().manifest(Platform::Amd64);
            let la = find_entry(&cat, app, "la-train").unwrap().manifest(Platform::Amd64);
            let shared = shared_bytes(ha, la).as_bytes() as f64 / ha.total_size().as_bytes() as f64;
            assert!(shared > 0.85, "{app} trainers share only {shared:.2}");
        }
    }

    #[test]
    fn platforms_do_not_share_blobs() {
        // amd64 and arm64 binaries differ; their layers must not dedup.
        let cat = paper_catalog();
        let e = find_entry(&cat, "text-processing", "retrieve").unwrap();
        let amd = e.manifest(Platform::Amd64);
        let arm = e.manifest(Platform::Arm64);
        assert_eq!(shared_bytes(amd, arm), DataSize::ZERO);
        assert_eq!(amd.total_size(), arm.total_size());
    }

    #[test]
    fn slim_base_shared_across_applications() {
        // python:3.9-slim appears in vp-infer and tp-retrieve stacks alike.
        let cat = paper_catalog();
        let infer =
            find_entry(&cat, "video-processing", "ha-infer").unwrap().manifest(Platform::Amd64);
        let retrieve =
            find_entry(&cat, "text-processing", "retrieve").unwrap().manifest(Platform::Amd64);
        assert_eq!(shared_bytes(infer, retrieve), DataSize::megabytes(120.0));
    }
}
