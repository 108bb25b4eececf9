//! The two case-study applications of Figure 2, parameterised from
//! Tables I–II.
//!
//! * **Video processing** (Fig. 2a): `transcode → frame → {HA/LA train} →
//!   {HA/LA infer}` — road-sign recognition on a camera feed.
//! * **Text processing** (Fig. 2b): `retrieve → decompress → {HA/LA train}
//!   → {HA/LA score}` — Amazon review classification from an S3 bucket.
//!
//! Image sizes are Table II's `Size_mi` column verbatim. Processing loads
//! `CPU(m_i)` are calibrated so that `Tp = CPU(m_i) / CPU_medium` with
//! [`medium_mips`] reproduces Table II's `Tp` mid-points on the medium
//! device (the small device's per-microservice slowdowns live in
//! `deep-core`'s calibration database, because they are *measured* rather
//! than modelled quantities).
//!
//! Dataflow sizes are not printed in the paper; the values here are chosen
//! so that cross-device transmission times stay small relative to
//! deployment and processing, which matches Table II (its `CT` ranges
//! decompose into `Td + Tp` with only a minor residual).

use crate::builder::ApplicationBuilder;
use crate::compute::{Mi, Mips};
use crate::dag::Application;
use crate::requirements::Requirements;
use deep_netsim::DataSize;

/// Calibration speed of the medium device (Intel i7-7700 class) in MI/s.
/// All `CPU(m_i)` loads below are expressed against this reference.
pub fn medium_mips() -> Mips {
    Mips::new(40_000.0)
}

/// Per-microservice parameter record used to build the case-study apps.
struct MsSpec {
    name: &'static str,
    /// `Size_mi` from Table II, in GB.
    size_gb: f64,
    /// `Tp` midpoint on the medium device, in seconds (Table II).
    tp_medium_s: f64,
    cores: u32,
    mem_gb: f64,
    stor_gb: f64,
}

impl MsSpec {
    fn cpu(&self) -> Mi {
        Mi::new(self.tp_medium_s * medium_mips().as_f64())
    }

    fn requirements(&self) -> Requirements {
        Requirements::new(
            self.cores,
            self.cpu(),
            DataSize::gigabytes(self.mem_gb),
            DataSize::gigabytes(self.stor_gb),
        )
    }
}

const VIDEO_SPECS: [MsSpec; 6] = [
    MsSpec {
        name: "transcode",
        size_gb: 0.17,
        tp_medium_s: 18.25,
        cores: 1,
        mem_gb: 1.0,
        stor_gb: 2.0,
    },
    MsSpec { name: "frame", size_gb: 0.70, tp_medium_s: 15.0, cores: 1, mem_gb: 1.0, stor_gb: 4.0 },
    MsSpec {
        name: "ha-train",
        size_gb: 5.78,
        tp_medium_s: 122.5,
        cores: 4,
        mem_gb: 4.0,
        stor_gb: 16.0,
    },
    MsSpec {
        name: "la-train",
        size_gb: 5.78,
        tp_medium_s: 92.0,
        cores: 2,
        mem_gb: 2.0,
        stor_gb: 16.0,
    },
    MsSpec {
        name: "ha-infer",
        size_gb: 3.53,
        tp_medium_s: 39.5,
        cores: 2,
        mem_gb: 2.0,
        stor_gb: 10.0,
    },
    MsSpec {
        name: "la-infer",
        size_gb: 3.54,
        tp_medium_s: 39.0,
        cores: 1,
        mem_gb: 1.0,
        stor_gb: 10.0,
    },
];

const TEXT_SPECS: [MsSpec; 6] = [
    MsSpec {
        name: "retrieve",
        size_gb: 0.14,
        tp_medium_s: 50.0,
        cores: 1,
        mem_gb: 0.5,
        stor_gb: 2.0,
    },
    MsSpec {
        name: "decompress",
        size_gb: 0.78,
        tp_medium_s: 41.0,
        cores: 1,
        mem_gb: 1.0,
        stor_gb: 4.0,
    },
    MsSpec {
        name: "ha-train",
        size_gb: 2.36,
        tp_medium_s: 141.5,
        cores: 4,
        mem_gb: 4.0,
        stor_gb: 8.0,
    },
    MsSpec {
        name: "la-train",
        size_gb: 2.36,
        tp_medium_s: 88.0,
        cores: 2,
        mem_gb: 2.0,
        stor_gb: 8.0,
    },
    MsSpec {
        name: "ha-score",
        size_gb: 0.63,
        tp_medium_s: 75.0,
        cores: 2,
        mem_gb: 1.0,
        stor_gb: 3.0,
    },
    MsSpec {
        name: "la-score",
        size_gb: 0.63,
        tp_medium_s: 76.5,
        cores: 1,
        mem_gb: 1.0,
        stor_gb: 3.0,
    },
];

/// Build the video-processing application (Figure 2a).
pub fn video_processing() -> Application {
    let mut b = ApplicationBuilder::new("video-processing");
    for spec in &VIDEO_SPECS {
        b.microservice(spec.name, DataSize::gigabytes(spec.size_gb), spec.requirements());
    }
    b.flow("transcode", "frame", DataSize::megabytes(300.0));
    b.flow("frame", "ha-train", DataSize::megabytes(800.0));
    b.flow("frame", "la-train", DataSize::megabytes(800.0));
    b.flow("ha-train", "ha-infer", DataSize::megabytes(150.0));
    b.flow("la-train", "la-infer", DataSize::megabytes(150.0));
    b.build().expect("video-processing app is a valid DAG")
}

/// Build the text-processing application (Figure 2b).
pub fn text_processing() -> Application {
    let mut b = ApplicationBuilder::new("text-processing");
    for spec in &TEXT_SPECS {
        b.microservice(spec.name, DataSize::gigabytes(spec.size_gb), spec.requirements());
    }
    b.flow("retrieve", "decompress", DataSize::megabytes(250.0));
    b.flow("decompress", "ha-train", DataSize::megabytes(600.0));
    b.flow("decompress", "la-train", DataSize::megabytes(600.0));
    b.flow("ha-train", "ha-score", DataSize::megabytes(120.0));
    b.flow("la-train", "la-score", DataSize::megabytes(120.0));
    b.build().expect("text-processing app is a valid DAG")
}

/// Both case-study applications, in the order the paper presents them.
pub fn case_studies() -> Vec<Application> {
    vec![video_processing(), text_processing()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::tests::named;
    use crate::stages::stages;
    use crate::MicroserviceId;

    fn consumers(app: &Application, id: MicroserviceId) -> Vec<MicroserviceId> {
        app.flows().iter().filter(|f| f.from == id).map(|f| f.to).collect()
    }

    #[test]
    fn both_apps_have_six_microservices() {
        assert_eq!(video_processing().len(), 6);
        assert_eq!(text_processing().len(), 6);
    }

    #[test]
    fn image_sizes_match_table_ii() {
        let video = video_processing();
        let check = |name: &str, gb: f64| {
            let id = named(&video, name);
            assert!(
                (video.microservice(id).image_size.as_gigabytes() - gb).abs() < 1e-9,
                "{name} size mismatch"
            );
        };
        check("transcode", 0.17);
        check("frame", 0.70);
        check("ha-train", 5.78);
        check("la-train", 5.78);
        check("ha-infer", 3.53);
        check("la-infer", 3.54);

        let text = text_processing();
        let id = named(&text, "ha-train");
        assert!((text.microservice(id).image_size.as_gigabytes() - 2.36).abs() < 1e-9);
    }

    #[test]
    fn cpu_loads_reproduce_table_ii_tp_on_medium() {
        let video = video_processing();
        let id = named(&video, "ha-train");
        let tp = video.microservice(id).requirements.cpu / medium_mips();
        assert!((tp.as_f64() - 122.5).abs() < 1e-9, "got {tp}");

        let text = text_processing();
        let id = named(&text, "la-score");
        let tp = text.microservice(id).requirements.cpu / medium_mips();
        assert!((tp.as_f64() - 76.5).abs() < 1e-9, "got {tp}");
    }

    #[test]
    fn video_dag_shape_matches_figure_2a() {
        let app = video_processing();
        assert_eq!(app.sources(), vec![named(&app, "transcode")]);
        let sinks: Vec<_> = app.ids().filter(|&id| consumers(&app, id).is_empty()).collect();
        assert_eq!(sinks, vec![named(&app, "ha-infer"), named(&app, "la-infer")]);
        // frame fans out to both trainers.
        assert_eq!(consumers(&app, named(&app, "frame")).len(), 2);
    }

    #[test]
    fn text_dag_shape_matches_figure_2b() {
        let app = text_processing();
        assert_eq!(app.sources(), vec![named(&app, "retrieve")]);
        let dec = named(&app, "decompress");
        let succ = consumers(&app, dec);
        assert_eq!(succ.len(), 2);
        assert!(succ.contains(&named(&app, "ha-train")));
        assert!(succ.contains(&named(&app, "la-train")));
    }

    #[test]
    fn apps_have_four_stages_and_synchronization_barriers() {
        // The paper speaks of two *synchronization* barriers (the fan-out
        // joins); topologically the apps have four stages, i.e. three
        // boundaries, two of which are true multi-member barriers.
        for app in case_studies() {
            let st = stages(&app);
            assert_eq!(st.len(), 4, "{} stages", app.name());
            let multi = st.iter().filter(|s| s.members.len() > 1).count();
            assert_eq!(multi, 2, "{} multi-member stages", app.name());
        }
    }

    #[test]
    fn training_dominates_compute() {
        // Figure 3a's observation: HA/LA training are the heaviest.
        for app in case_studies() {
            let max = app
                .ids()
                .max_by(|&a, &b| {
                    let ca = app.microservice(a).requirements.cpu;
                    let cb = app.microservice(b).requirements.cpu;
                    ca.partial_cmp(&cb).unwrap()
                })
                .unwrap();
            assert_eq!(app.microservice(max).name, "ha-train", "{}", app.name());
        }
    }

    #[test]
    fn sibling_images_have_matching_size_for_layer_sharing() {
        // ha-train / la-train (and the scorers) ship the same stack; their
        // equal Table II sizes are what makes cross-image layer dedup
        // effective in the registry substrate.
        let text = text_processing();
        let ha = text.microservice(named(&text, "ha-train")).image_size;
        let la = text.microservice(named(&text, "la-train")).image_size;
        assert_eq!(ha, la);
    }

    #[test]
    fn total_image_sizes() {
        let total = |app: Application| -> f64 {
            app.ids().map(|id| app.microservice(id).image_size.as_gigabytes()).sum()
        };
        let v = total(video_processing());
        assert!((v - 19.5).abs() < 1e-6, "video total {v}");
        let t = total(text_processing());
        assert!((t - 6.9).abs() < 1e-6, "text total {t}");
    }
}
