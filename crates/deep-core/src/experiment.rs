//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each driver returns structured results plus a text rendering; the
//! `deep-bench` repro binaries print them beside the paper's values
//! (`repro_all` runs every one).

use crate::baselines::ExclusiveRegistry;
use crate::calibration::{calibrated_testbed, paper_rows};
use crate::distribution::{distribution_table, render_distribution, DistributionRow};
use crate::nash::DeepScheduler;
use crate::report::{fmt_j, fmt_s, render_table};
use crate::Scheduler;
use deep_dataflow::apps;
use deep_simulator::{
    execute_monitored, ExecutorConfig, RegistryChoice, Schedule, DEVICE_MEDIUM, DEVICE_SMALL,
};
use serde::{Deserialize, Serialize};

/// Experiment configuration: number of seeded trials for range-style
/// tables and the base seed.
#[derive(Debug, Clone, Copy)]
pub struct Experiments {
    pub trials: usize,
    pub base_seed: u64,
    pub jitter: f64,
}

impl Default for Experiments {
    fn default() -> Self {
        Experiments { trials: 10, base_seed: 0xD33F, jitter: 0.02 }
    }
}

/// An observed `[lo, hi]` range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Range {
    pub lo: f64,
    pub hi: f64,
}

impl Range {
    fn from_samples(samples: impl IntoIterator<Item = f64>) -> Range {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in samples {
            lo = lo.min(s);
            hi = hi.max(s);
        }
        assert!(lo.is_finite() && hi.is_finite(), "empty sample set");
        Range { lo, hi }
    }

    fn fmt(&self) -> String {
        format!("{}-{}", fmt_s(self.lo), fmt_s(self.hi))
    }
}

/// One regenerated Table II row (per-device columns; the paper folds both
/// devices into single Tp/CT ranges, which `repro_table2` prints beside
/// them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    pub application: String,
    pub microservice: String,
    pub size_gb: f64,
    pub tp_medium: Range,
    pub ct_medium: Range,
    pub ec_medium: Range,
    pub tp_small: Range,
    pub ct_small: Range,
    pub ec_small: Range,
}

/// Figure 3a: energy per microservice under the DEEP schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3aResult {
    /// `(application, microservice, energy)` in DAG order.
    pub rows: Vec<(String, String, f64)>,
}

/// Figure 3b: total energy per application per deployment method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3bResult {
    /// `(application, method, total energy J)`.
    pub entries: Vec<(String, String, f64)>,
}

impl Fig3bResult {
    /// Total for `(application, method)`.
    pub(crate) fn total(&self, application: &str, method: &str) -> Option<f64> {
        self.entries.iter().find(|(a, m, _)| a == application && m == method).map(|(_, _, e)| *e)
    }
}

/// The paper's headline numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadlineResult {
    /// Energy saved by DEEP vs exclusively-Docker-Hub, per app (J).
    pub savings_vs_hub_j: Vec<(String, f64)>,
    /// Relative savings vs exclusively-Docker-Hub, per app.
    pub savings_vs_hub_frac: Vec<(String, f64)>,
    /// Share of text-processing images pulled regionally (paper: 83 %).
    pub text_regional_share: f64,
}

impl Experiments {
    fn executor_cfg(&self, trial: usize) -> ExecutorConfig {
        ExecutorConfig {
            seed: self.base_seed.wrapping_add(trial as u64),
            jitter: self.jitter,
            ..Default::default()
        }
    }

    /// Table I: the image catalog on both registries.
    pub fn table1(&self) -> String {
        let catalog = deep_registry::paper_catalog();
        let rows: Vec<Vec<String>> = catalog
            .iter()
            .map(|e| {
                vec![
                    e.application.clone(),
                    format!("docker.io/{}", e.hub_repository),
                    format!("dcloud2.itec.aau.at/{}", e.regional_repository),
                ]
            })
            .collect();
        render_table(&["Application", "Docker Hub", "AAU Regional Registry"], &rows)
    }

    /// Table II: seeded benchmark trials of every microservice on both
    /// devices (pulled from both registries across trials).
    pub fn table2(&self) -> Vec<Table2Row> {
        let applications = apps::case_studies();
        let mut rows = Vec::new();
        for app in &applications {
            // samples[device][ms] -> (tp, ct, ec) sample vectors.
            let collect = |device| -> Vec<Vec<(f64, f64, f64)>> {
                (0..self.trials)
                    .map(|trial| {
                        // Alternate the source registry across trials, as
                        // the paper benchmarks both.
                        let registry = if trial % 2 == 0 {
                            RegistryChoice::Hub
                        } else {
                            RegistryChoice::Regional
                        };
                        let mut tb = calibrated_testbed();
                        let schedule = Schedule::uniform(app.len(), registry, device);
                        let cfg = self.executor_cfg(trial);
                        let (report, ()) =
                            execute_monitored(&mut tb, app, &schedule, &cfg, &[], ())
                                .expect("benchmark run succeeds");
                        report
                            .microservices
                            .iter()
                            .map(|m| (m.tp.as_f64(), m.ct().as_f64(), m.energy.as_f64()))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            let med_samples = collect(DEVICE_MEDIUM);
            let small_samples = collect(DEVICE_SMALL);
            for id in app.ids() {
                let ms = app.microservice(id);
                let med: Vec<(f64, f64, f64)> = med_samples.iter().map(|t| t[id.0]).collect();
                let small: Vec<(f64, f64, f64)> = small_samples.iter().map(|t| t[id.0]).collect();
                rows.push(Table2Row {
                    application: app.name().to_string(),
                    microservice: ms.name.clone(),
                    size_gb: ms.image_size.as_gigabytes(),
                    tp_medium: Range::from_samples(med.iter().map(|s| s.0)),
                    ct_medium: Range::from_samples(med.iter().map(|s| s.1)),
                    ec_medium: Range::from_samples(med.iter().map(|s| s.2)),
                    tp_small: Range::from_samples(small.iter().map(|s| s.0)),
                    ct_small: Range::from_samples(small.iter().map(|s| s.1)),
                    ec_small: Range::from_samples(small.iter().map(|s| s.2)),
                });
            }
        }
        rows
    }

    /// Render Table II with the paper's published values alongside.
    pub fn render_table2(&self, rows: &[Table2Row]) -> String {
        let paper = paper_rows();
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let p = paper
                    .iter()
                    .find(|p| p.application == r.application && p.microservice == r.microservice)
                    .expect("every row has a paper counterpart");
                vec![
                    r.application.clone(),
                    r.microservice.clone(),
                    format!("{:.2}", r.size_gb),
                    r.tp_medium.fmt(),
                    format!("{}-{}", p.tp_lo, p.tp_hi),
                    r.ec_medium.fmt(),
                    format!("{}-{}", p.ec_medium_lo, p.ec_medium_hi),
                    r.ec_small.fmt(),
                    format!("{}-{}", p.ec_small_lo, p.ec_small_hi),
                ]
            })
            .collect();
        render_table(
            &[
                "Application",
                "Microservice",
                "Size GB",
                "Tp med [s]",
                "Tp paper",
                "EC med [J]",
                "EC med paper",
                "EC small [J]",
                "EC small paper",
            ],
            &body,
        )
    }

    /// Table III: DEEP's deployment/placement distribution for both apps.
    pub fn table3(&self) -> Vec<DistributionRow> {
        let tb = calibrated_testbed();
        let mut rows = Vec::new();
        for app in apps::case_studies() {
            let schedule = DeepScheduler::paper().schedule(&app, &tb);
            rows.extend(distribution_table(&app, &schedule));
        }
        rows
    }

    /// Render Table III.
    pub fn render_table3(&self, rows: &[DistributionRow]) -> String {
        render_distribution(rows)
    }

    /// Figure 2: the case-study DAGs in DOT format.
    pub fn fig2(&self) -> String {
        let mut out = String::new();
        for app in apps::case_studies() {
            out.push_str(&app.to_dot());
            out.push('\n');
        }
        out
    }

    /// Figure 3a: per-microservice energy under the DEEP schedule.
    pub fn fig3a(&self) -> Fig3aResult {
        let tb = calibrated_testbed();
        let mut rows = Vec::new();
        for app in apps::case_studies() {
            let schedule = DeepScheduler::paper().schedule(&app, &tb);
            let mut run_tb = calibrated_testbed();
            let cfg = self.executor_cfg(0);
            let (report, ()) = execute_monitored(&mut run_tb, &app, &schedule, &cfg, &[], ())
                .expect("DEEP schedule executes");
            for m in &report.microservices {
                rows.push((app.name().to_string(), m.name.clone(), m.energy.as_f64()));
            }
        }
        Fig3aResult { rows }
    }

    /// Render Figure 3a as a text bar chart.
    pub fn render_fig3a(&self, result: &Fig3aResult) -> String {
        let max = result.rows.iter().map(|(_, _, e)| *e).fold(f64::NEG_INFINITY, f64::max);
        let mut out = String::from("Figure 3a — energy per microservice under DEEP [J]\n");
        for (app, ms, e) in &result.rows {
            let bar = "#".repeat(((e / max) * 40.0).round() as usize);
            out.push_str(&format!("{app:18} {ms:12} {:>7} {bar}\n", fmt_j(*e)));
        }
        out
    }

    /// Figure 3b: total energy per application under the three deployment
    /// methods.
    pub fn fig3b(&self) -> Fig3bResult {
        let tb = calibrated_testbed();
        let mut entries = Vec::new();
        for app in apps::case_studies() {
            let methods: Vec<(String, Schedule)> = vec![
                ("DEEP".to_string(), DeepScheduler::paper().schedule(&app, &tb)),
                (
                    "Exclusively Regional Hub".to_string(),
                    ExclusiveRegistry::regional().schedule(&app, &tb),
                ),
                (
                    "Exclusively Docker Hub".to_string(),
                    ExclusiveRegistry::hub().schedule(&app, &tb),
                ),
            ];
            for (name, schedule) in methods {
                // Fresh testbed per method: cold caches, fair comparison.
                let mut run_tb = calibrated_testbed();
                let cfg = self.executor_cfg(0);
                let (report, ()) = execute_monitored(&mut run_tb, &app, &schedule, &cfg, &[], ())
                    .expect("method schedule executes");
                entries.push((app.name().to_string(), name, report.total_energy().as_f64()));
            }
        }
        Fig3bResult { entries }
    }

    /// Render Figure 3b.
    pub fn render_fig3b(&self, result: &Fig3bResult) -> String {
        let body: Vec<Vec<String>> = result
            .entries
            .iter()
            .map(|(app, method, e)| vec![app.clone(), method.clone(), format!("{:.3}", e / 1000.0)])
            .collect();
        render_table(&["Application", "Method", "Energy [kJ]"], &body)
    }

    /// The paper's headline claims, measured.
    pub fn headline(&self) -> HeadlineResult {
        let fig3b = self.fig3b();
        let mut savings_j = Vec::new();
        let mut savings_frac = Vec::new();
        for app in ["video-processing", "text-processing"] {
            let deep = fig3b.total(app, "DEEP").expect("deep entry");
            let hub = fig3b.total(app, "Exclusively Docker Hub").expect("hub entry");
            savings_j.push((app.to_string(), hub - deep));
            savings_frac.push((app.to_string(), (hub - deep) / hub));
        }
        let table3 = self.table3();
        let text_regional_share = table3
            .iter()
            .filter(|r| r.application == "text-processing")
            .map(|r| r.regional_share)
            .sum();
        HeadlineResult {
            savings_vs_hub_j: savings_j,
            savings_vs_hub_frac: savings_frac,
            text_regional_share,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Experiments {
        Experiments { trials: 4, base_seed: 7, jitter: 0.02 }
    }

    #[test]
    fn table1_lists_all_24_repositories() {
        let t = quick().table1();
        assert_eq!(t.matches("sina88/").count(), 12);
        assert_eq!(t.matches("/aau/").count(), 12);
    }

    #[test]
    fn table2_covers_twelve_microservices_with_sane_ranges() {
        let e = quick();
        let rows = e.table2();
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.tp_medium.lo <= r.tp_medium.hi);
            assert!(r.tp_medium.lo > 0.0, "{}", r.microservice);
            assert!(r.ec_medium.lo > 0.0);
            assert!(r.ec_small.lo > 0.0);
            // Jittered ranges bracket the calibrated midpoints.
            assert!(r.ct_medium.hi > r.tp_medium.lo, "{}", r.microservice);
        }
        let rendered = e.render_table2(&rows);
        assert!(rendered.contains("ha-train"));
    }

    #[test]
    fn table2_tp_medium_brackets_paper_midpoint() {
        // Jittered samples stay within the ±2 % band around the calibrated
        // midpoint (a small trial count need not straddle it exactly).
        let e = quick();
        let rows = e.table2();
        for (row, paper) in rows.iter().zip(paper_rows()) {
            let mid = paper.tp_mid();
            assert!(
                row.tp_medium.lo >= mid * (1.0 - e.jitter - 1e-9)
                    && row.tp_medium.hi <= mid * (1.0 + e.jitter + 1e-9),
                "{}: measured {:?} vs paper mid {mid}",
                row.microservice,
                row.tp_medium
            );
        }
    }

    #[test]
    fn fig3a_training_dominates() {
        // The paper's observation: HA/LA training consume the most.
        let result = quick().fig3a();
        for app in ["video-processing", "text-processing"] {
            let max = result
                .rows
                .iter()
                .filter(|(a, _, _)| a == app)
                .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
                .unwrap();
            assert!(max.1.contains("train"), "{app}: max is {}", max.1);
        }
        let rendered = quick().render_fig3a(&result);
        assert!(rendered.contains('#'));
    }

    #[test]
    fn fig3b_deep_is_minimal_for_both_apps() {
        let e = quick();
        let result = e.fig3b();
        assert_eq!(result.entries.len(), 6);
        for app in ["video-processing", "text-processing"] {
            let deep = result.total(app, "DEEP").unwrap();
            let hub = result.total(app, "Exclusively Docker Hub").unwrap();
            let regional = result.total(app, "Exclusively Regional Hub").unwrap();
            assert!(deep <= hub, "{app}");
            assert!(deep <= regional, "{app}");
        }
        let rendered = e.render_fig3b(&result);
        assert!(rendered.contains("DEEP"));
    }

    #[test]
    fn headline_matches_paper_shape() {
        let h = quick().headline();
        // 83 % of text images pulled regionally (5/6 in our run: the paper
        // rounds 66+17).
        assert!(
            (h.text_regional_share - 5.0 / 6.0).abs() < 1e-9,
            "regional share {}",
            h.text_regional_share
        );
        // Positive, sub-10 % savings for both apps; text saves more than
        // video relative to the hub method, as in the paper.
        for (app, frac) in &h.savings_vs_hub_frac {
            assert!(*frac >= 0.0 && *frac < 0.10, "{app}: {frac}");
        }
        let video = h.savings_vs_hub_frac[0].1;
        let text = h.savings_vs_hub_frac[1].1;
        assert!(text > video, "text {text} vs video {video}");
    }
}
