//! Ablation suite for DEEP's design choices.
//!
//! Each ablation runs the full pipeline (schedule → execute) with one
//! mechanism changed and reports the energy consequence:
//!
//! 1. **Joint vs. decoupled** — DEEP's joint (registry, device) game vs.
//!    the greedy scheduler that picks devices ignoring deployment.
//! 2. **Cache-aware vs. cache-blind payoffs** — DEEP on the real testbed
//!    vs. DEEP whose estimates see empty caches only (layer dedup off in
//!    the *scheduler*, still on in reality).
//! 3. **Staged vs. upfront deployment** — executor pulls per stage wave
//!    (paper) vs. everything at t = 0.
//! 4. **Contention coefficient sweep** — how sensitive the schedule and
//!    the energy gap are to the route-contention model.

use crate::baselines::GreedyDecoupled;
use crate::calibration::calibrated_testbed;
use crate::nash::DeepScheduler;
use crate::Scheduler;
use deep_dataflow::{apps, Application};
use deep_simulator::{execute_monitored, ExecutorConfig, Schedule, Testbed, TestbedParams};
use serde::{Deserialize, Serialize};

/// One ablation outcome: the variant's total energy per application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    pub ablation: String,
    pub application: String,
    pub baseline_j: f64,
    pub variant_j: f64,
}

impl AblationRow {
    /// Relative penalty of the variant (positive = variant is worse).
    pub fn penalty(&self) -> f64 {
        (self.variant_j - self.baseline_j) / self.baseline_j
    }
}

fn run_energy(
    tb_builder: impl Fn() -> Testbed,
    app: &Application,
    schedule: &Schedule,
    cfg: &ExecutorConfig,
) -> f64 {
    let mut tb = tb_builder();
    let (report, ()) = execute_monitored(&mut tb, app, schedule, cfg, &[], ())
        .expect("ablation schedule executes");
    report.total_energy().as_f64()
}

/// Run the full ablation suite on both case studies.
pub fn run_all(cfg: &ExecutorConfig) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for app in apps::case_studies() {
        let tb = calibrated_testbed();
        let deep_schedule = DeepScheduler::paper().schedule(&app, &tb);
        let deep_energy = run_energy(calibrated_testbed, &app, &deep_schedule, cfg);

        // 1. Joint vs decoupled.
        let greedy = GreedyDecoupled.schedule(&app, &tb);
        rows.push(AblationRow {
            ablation: "decoupled-greedy".into(),
            application: app.name().into(),
            baseline_j: deep_energy,
            variant_j: run_energy(calibrated_testbed, &app, &greedy, cfg),
        });

        // 2. Cache-blind scheduling: estimates against a testbed whose
        // images dedup nothing (every layer unique per image).
        let blind_schedule = {
            let blind_tb = cache_blind_testbed();
            DeepScheduler::paper().schedule(&app, &blind_tb)
        };
        rows.push(AblationRow {
            ablation: "cache-blind-payoffs".into(),
            application: app.name().into(),
            baseline_j: deep_energy,
            variant_j: run_energy(calibrated_testbed, &app, &blind_schedule, cfg),
        });

        // 3. Upfront (unstaged) deployment of the DEEP schedule.
        let unstaged_cfg = ExecutorConfig { staged_deployment: false, ..*cfg };
        rows.push(AblationRow {
            ablation: "unstaged-deployment".into(),
            application: app.name().into(),
            baseline_j: deep_energy,
            variant_j: run_energy(calibrated_testbed, &app, &deep_schedule, &unstaged_cfg),
        });

        // 4. Contention sweep: schedule under 0× and 5× the calibrated
        // coefficient, execute on the calibrated testbed.
        for (label, alpha) in [("contention-off", 0.0), ("contention-5x", 0.5)] {
            let alt_tb = {
                let params = TestbedParams { contention_alpha: alpha, ..TestbedParams::default() };
                let mut t = Testbed::with_params(params);
                crate::calibration::calibrate(&mut t);
                t
            };
            let alt_schedule = DeepScheduler::paper().schedule(&app, &alt_tb);
            rows.push(AblationRow {
                ablation: label.into(),
                application: app.name().into(),
                baseline_j: deep_energy,
                variant_j: run_energy(calibrated_testbed, &app, &alt_schedule, cfg),
            });
        }
    }
    rows
}

/// A testbed whose catalog has no shared layers: used to make DEEP's
/// *payoff estimation* blind to dedup while execution still sees the real
/// catalog.
fn cache_blind_testbed() -> Testbed {
    let mut tb = Testbed::paper();
    crate::calibration::calibrate(&mut tb);
    // Republish every catalog image as a single opaque layer: no digests
    // shared between images, so estimated pulls never hit the cache via
    // siblings.
    for entry in deep_registry::paper_catalog() {
        let opaque = deep_registry::CatalogEntry::single_layer(
            &entry.application,
            &entry.microservice,
            entry.size(),
        );
        // Keep the original repositories so references still resolve.
        let mut opaque = opaque;
        opaque.hub_repository = entry.hub_repository.clone();
        opaque.regional_repository = entry.regional_repository.clone();
        tb.hub.publish(&opaque);
        tb.regional.publish(&opaque).expect("fits capacity");
        tb.replace_entry(opaque);
    }
    tb
}

/// Render the suite.
pub fn render(rows: &[AblationRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.ablation.clone(),
                r.application.clone(),
                format!("{:.1}", r.baseline_j),
                format!("{:.1}", r.variant_j),
                format!("{:+.2} %", r.penalty() * 100.0),
            ]
        })
        .collect();
    crate::report::render_table(
        &["Ablation", "Application", "DEEP [J]", "Variant [J]", "Penalty"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> Vec<AblationRow> {
        run_all(&ExecutorConfig::default())
    }

    #[test]
    fn every_ablation_covers_both_applications() {
        let rows = suite();
        for ablation in [
            "decoupled-greedy",
            "cache-blind-payoffs",
            "unstaged-deployment",
            "contention-off",
            "contention-5x",
        ] {
            let count = rows.iter().filter(|r| r.ablation == ablation).count();
            assert_eq!(count, 2, "{ablation}");
        }
    }

    #[test]
    fn no_variant_beats_deep_meaningfully() {
        // Variants may tie (the mechanism wasn't load-bearing for that
        // app) but must not beat DEEP by more than numerical noise.
        for r in suite() {
            assert!(
                r.penalty() > -0.01,
                "{} on {} beat DEEP: {} vs {}",
                r.ablation,
                r.application,
                r.variant_j,
                r.baseline_j
            );
        }
    }

    #[test]
    fn decoupled_greedy_pays_on_video() {
        let rows = suite();
        let r = rows
            .iter()
            .find(|r| r.ablation == "decoupled-greedy" && r.application == "video-processing")
            .unwrap();
        assert!(r.penalty() > 0.01, "greedy should pay visibly: {:+.3}", r.penalty());
    }

    #[test]
    fn rendering_is_complete() {
        let s = render(&suite());
        assert!(s.contains("contention-5x"));
        assert!(s.contains('%'));
    }
}
