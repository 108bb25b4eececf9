//! Cloud–edge continuum scheduling — the extension the paper's conclusion
//! announces ("we plan to extend this energy-aware nash-based model to
//! schedule the computation between cloud and edge").
//!
//! The continuum testbed adds a cloud server to the paper's two edge
//! devices. Nothing in DEEP's formulation changes: the per-microservice
//! stage game simply gains a third column, and the joint equilibrium
//! ranges over the enlarged strategy space. Two physical realities shape the
//! outcome:
//!
//! * the cloud is faster and (per instruction) cheaper, but every
//!   dataflow crossing the edge/cloud boundary pays the WAN;
//! * data sources are pinned — a camera feed cannot leave the edge
//!   ([`deep_dataflow::DeviceClass`] constraints), while an S3-resident
//!   dataset is *already* in the cloud.

use crate::calibration::{calibrate, paper_rows};
use crate::nash::DeepScheduler;
use crate::Scheduler;
use deep_dataflow::{apps, Application, ApplicationBuilder, DeviceClass};
use deep_energy::Joules;
use deep_netsim::Seconds;
use deep_simulator::{execute_monitored, ExecutorConfig, Testbed, DEVICE_CLOUD};
use serde::{Deserialize, Serialize};

/// A calibrated continuum testbed: the paper's calibration applied to the
/// edge devices, plus cloud-tier parameters for every microservice.
///
/// Cloud processing draw is modelled as 1.25× the medium device's measured
/// package draw (denser server silicon billed at datacenter PUE), and the
/// cloud runs amd64-native at nominal speed — with its 2× MI/s, cloud
/// `Tp` halves and processing *energy* drops to ≈0.63× the medium
/// device's.
pub fn continuum_testbed() -> Testbed {
    let mut tb = Testbed::continuum();
    calibrate_continuum(&mut tb);
    tb
}

/// Apply the full continuum calibration to an already-built three-device
/// testbed: the Table II edge calibration plus the cloud-tier parameters
/// above. Factored out of [`continuum_testbed`] so scenario-built
/// testbeds ([`crate::soak::scenario_testbed`]) calibrate identically.
pub(crate) fn calibrate_continuum(tb: &mut Testbed) {
    let rows = calibrate(tb);
    for (paper, cal) in paper_rows().iter().zip(&rows) {
        let (app, ms) = (paper.application, paper.microservice);
        let cloud = tb.device_mut(DEVICE_CLOUD);
        cloud.set_speed_factor(app, ms, 1.0);
        cloud.set_process_power(app, ms, cal.p_medium.scale(1.25));
    }
}

/// A calibrated synthetic fleet: [`Testbed::synthetic_fleet`] under the
/// paper calibration — the continuum calibration when the fleet has the
/// cloud tier (`devices ≥ 3`), the edge-only Table II calibration on the
/// bare paper pair. The canonical archetypes sit at ids 0/1/2, so the
/// calibration keys land exactly as on the paper testbeds; fleet clones
/// inherit their archetype's base speed factor and jittered figures.
pub fn synthetic_fleet_testbed(devices: usize, registries: usize, seed: u64) -> Testbed {
    let mut tb = Testbed::synthetic_fleet(devices, registries, seed);
    if devices >= 3 {
        calibrate_continuum(&mut tb);
    } else {
        calibrate(&mut tb);
    }
    tb
}

/// Rebuild `app` with the given microservices pinned to a device class.
pub fn pin_microservices(app: &Application, pins: &[(&str, DeviceClass)]) -> Application {
    let mut b = ApplicationBuilder::new(app.name());
    for id in app.ids() {
        let ms = app.microservice(id);
        let mut req = ms.requirements;
        if let Some((_, class)) = pins.iter().find(|(n, _)| *n == ms.name) {
            req = req.pinned_to(*class);
        }
        b.microservice(&ms.name, ms.image_size, req);
    }
    for f in app.flows() {
        let from = app.microservice(f.from).name.clone();
        let to = app.microservice(f.to).name.clone();
        b.flow(&from, &to, f.size);
    }
    b.build().expect("rebuilding a valid application preserves validity")
}

/// The case studies with physically-motivated pins: the video camera feed
/// enters at the edge (`transcode` pinned), while the text pipeline's S3
/// source is cloud-resident (no pin — the cloud is where the data lives).
pub fn continuum_case_studies() -> Vec<Application> {
    vec![
        pin_microservices(&apps::video_processing(), &[("transcode", DeviceClass::Edge)]),
        apps::text_processing(),
    ]
}

/// One application's edge-only vs continuum comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContinuumRow {
    pub application: String,
    /// Microservices DEEP moved to the cloud.
    pub offloaded: Vec<String>,
    pub edge_energy: Joules,
    pub continuum_energy: Joules,
    pub edge_makespan: Seconds,
    pub continuum_makespan: Seconds,
}

impl ContinuumRow {
    /// Relative energy change (negative = continuum saves energy).
    pub(crate) fn energy_delta(&self) -> f64 {
        (self.continuum_energy.as_f64() - self.edge_energy.as_f64()) / self.edge_energy.as_f64()
    }
}

/// Run DEEP on the edge-only paper testbed and on the continuum testbed,
/// with the pinned case studies.
pub fn compare(cfg: &ExecutorConfig) -> Vec<ContinuumRow> {
    let mut rows = Vec::new();
    for app in continuum_case_studies() {
        // Edge-only.
        let edge_tb = crate::calibration::calibrated_testbed();
        let edge_schedule = DeepScheduler::paper().schedule(&app, &edge_tb);
        let mut run_tb = crate::calibration::calibrated_testbed();
        let (edge_report, ()) = execute_monitored(&mut run_tb, &app, &edge_schedule, cfg, &[], ())
            .expect("edge schedule executes");

        // Continuum.
        let cont_tb = continuum_testbed();
        let cont_schedule = DeepScheduler::paper().schedule(&app, &cont_tb);
        let mut run_tb = continuum_testbed();
        let (cont_report, ()) = execute_monitored(&mut run_tb, &app, &cont_schedule, cfg, &[], ())
            .expect("continuum schedule executes");

        let offloaded = cont_schedule
            .iter()
            .filter(|(_, p)| p.device == DEVICE_CLOUD)
            .map(|(id, _)| app.microservice(id).name.clone())
            .collect();
        rows.push(ContinuumRow {
            application: app.name().to_string(),
            offloaded,
            edge_energy: edge_report.total_energy(),
            continuum_energy: cont_report.total_energy(),
            edge_makespan: edge_report.makespan,
            continuum_makespan: cont_report.makespan,
        });
    }
    rows
}

/// Render the comparison as a text table.
pub fn render(rows: &[ContinuumRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.application.clone(),
                if r.offloaded.is_empty() { "-".into() } else { r.offloaded.join(", ") },
                format!("{:.3}", r.edge_energy.as_kilojoules()),
                format!("{:.3}", r.continuum_energy.as_kilojoules()),
                format!("{:+.1} %", r.energy_delta() * 100.0),
                format!("{:.0}", r.edge_makespan.as_f64()),
                format!("{:.0}", r.continuum_makespan.as_f64()),
            ]
        })
        .collect();
    crate::report::render_table(
        &[
            "Application",
            "Offloaded to cloud",
            "Edge [kJ]",
            "Continuum [kJ]",
            "ΔE",
            "Edge makespan [s]",
            "Continuum [s]",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::named;
    use deep_dataflow::MicroserviceId;
    use deep_simulator::{Placement, RegistryChoice};

    #[test]
    fn pinned_transcode_never_reaches_the_cloud() {
        let tb = continuum_testbed();
        let app = &continuum_case_studies()[0];
        let schedule = DeepScheduler::paper().schedule(app, &tb);
        let transcode = named(app, "transcode");
        assert_ne!(schedule.placement(transcode).device, DEVICE_CLOUD);
        let admitted = |(id, p): (MicroserviceId, Placement)| {
            tb.device(p.device).admits(&app.microservice(id).requirements)
        };
        assert!(schedule.iter().all(admitted), "every placement respects its pin");
    }

    #[test]
    fn video_training_offloads_to_the_cloud() {
        // The heavy ML stages are exactly where the cloud's
        // per-instruction advantage beats the WAN cost.
        let tb = continuum_testbed();
        let app = &continuum_case_studies()[0];
        let schedule = DeepScheduler::paper().schedule(app, &tb);
        let ha = named(app, "ha-train");
        assert_eq!(schedule.placement(ha).device, DEVICE_CLOUD, "{schedule:?}");
    }

    #[test]
    fn continuum_saves_energy_on_video() {
        let rows = compare(&ExecutorConfig::default());
        let video = rows.iter().find(|r| r.application == "video-processing").unwrap();
        assert!(!video.offloaded.is_empty(), "something moved to the cloud");
        assert!(
            video.continuum_energy < video.edge_energy,
            "continuum {} vs edge {}",
            video.continuum_energy,
            video.edge_energy
        );
    }

    #[test]
    fn continuum_never_worse_than_edge_only() {
        // The edge-only assignment is still available in the continuum
        // strategy space, so DEEP can only improve (estimates are
        // consistent with execution).
        for row in compare(&ExecutorConfig::default()) {
            assert!(
                row.continuum_energy.as_f64() <= row.edge_energy.as_f64() * 1.01,
                "{}: {} vs {}",
                row.application,
                row.continuum_energy,
                row.edge_energy
            );
        }
    }

    #[test]
    fn cloud_pulls_prefer_the_hub() {
        // The CDN peers with cloud datacenters (60 MB/s) while the lab's
        // regional registry is across a thin uplink (4 MB/s).
        let tb = continuum_testbed();
        let app = &continuum_case_studies()[0];
        let schedule = DeepScheduler::paper().schedule(app, &tb);
        for (id, p) in schedule.iter() {
            if p.device == DEVICE_CLOUD {
                assert_eq!(
                    p.registry,
                    RegistryChoice::Hub,
                    "{} pulled regionally onto the cloud",
                    app.microservice(id).name
                );
            }
        }
    }

    #[test]
    fn schedule_remains_joint_equilibrium_on_continuum() {
        let tb = continuum_testbed();
        for app in continuum_case_studies() {
            let schedule = DeepScheduler::paper().schedule(&app, &tb);
            assert!(DeepScheduler::paper().is_equilibrium(&app, &tb, &schedule), "{}", app.name());
        }
    }

    #[test]
    fn rendering_mentions_every_application() {
        let rows = compare(&ExecutorConfig::default());
        let s = render(&rows);
        assert!(s.contains("video-processing"));
        assert!(s.contains("text-processing"));
    }

    #[test]
    fn edge_only_devices_unchanged_by_pin_rebuild() {
        let original = apps::video_processing();
        let pinned = pin_microservices(&original, &[("transcode", DeviceClass::Edge)]);
        assert_eq!(original.len(), pinned.len());
        assert_eq!(original.flows().len(), pinned.flows().len());
        let t = named(&pinned, "transcode");
        assert_eq!(pinned.microservice(t).requirements.class, Some(DeviceClass::Edge));
        let f = named(&pinned, "frame");
        assert_eq!(pinned.microservice(f).requirements.class, None);
    }
}
