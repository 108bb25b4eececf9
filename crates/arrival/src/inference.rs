//! Online outage inference: watch realized pull failures per source
//! and synthesize [`OutageWindow`]s the next repair can price, closing
//! the loop for operators whose scripted windows are *not* known ahead
//! of time.
//!
//! The rule is deliberately simple — `threshold` consecutive fatal
//! pulls on one source opens a dark window from "now" over a horizon,
//! and a single successful serve from that source clears it. It is the
//! streak detector a registry health-checker would run, not a
//! statistical estimator; the point is feeding *something* back into
//! the game so a blind scheduler stops routing into a dead registry.

use deep_netsim::{RegistryId, Seconds};
use deep_registry::{FaultModel, OutageWindow};
use deep_simulator::RunReport;
use std::collections::BTreeMap;

/// Streak-detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageInference {
    /// Consecutive fatal pulls on one source before a window is
    /// inferred.
    pub threshold: usize,
    /// How long an inferred window is assumed to last; effectively
    /// "until proven otherwise" at the default.
    pub horizon: Seconds,
}

impl Default for OutageInference {
    fn default() -> Self {
        OutageInference { threshold: 3, horizon: Seconds::new(1e9) }
    }
}

/// Running per-source failure streaks and the windows inferred so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InferenceState {
    consecutive: BTreeMap<RegistryId, usize>,
    inferred: BTreeMap<RegistryId, OutageWindow>,
}

impl InferenceState {
    /// The windows currently inferred, source-ordered.
    pub fn windows(&self) -> Vec<OutageWindow> {
        self.inferred.values().cloned().collect()
    }

    /// Fold one realized job report into the streaks at executor time
    /// `now`. Returns `true` when the inferred window set changed (the
    /// caller should rebuild the scheduler's fault view).
    pub fn observe(&mut self, cfg: &OutageInference, report: &RunReport, now: Seconds) -> bool {
        let mut changed = false;
        for m in &report.microservices {
            for &source in &m.failed_sources {
                let streak = self.consecutive.entry(source).or_insert(0);
                *streak += 1;
                if *streak >= cfg.threshold && !self.inferred.contains_key(&source) {
                    self.inferred.insert(source, OutageWindow::dark(source, now, cfg.horizon));
                    changed = true;
                }
            }
            // A source that actually served bytes is demonstrably up:
            // reset its streak and retract any window pinned on it.
            for pull in &m.sources {
                self.consecutive.insert(pull.source, 0);
                if self.inferred.remove(&pull.source).is_some() {
                    changed = true;
                }
            }
        }
        changed
    }

    /// The scheduler-visible fault model: `base` plus every inferred
    /// window. `base` is the operator's prior (rates, any windows they
    /// *did* script), kept pristine so retracting an inference never
    /// loses scripted knowledge.
    pub fn apply(&self, base: &FaultModel) -> FaultModel {
        let mut model = base.clone();
        for window in self.inferred.values() {
            model = model.with_window(*window);
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_energy::Joules;
    use deep_netsim::{DataSize, DeviceId, Seconds};
    use deep_registry::SourcePull;
    use deep_simulator::{MicroserviceMetrics, Placement, RegistryChoice, RunReport};

    fn report(failed: &[RegistryId], served: &[RegistryId]) -> RunReport {
        RunReport {
            application: "t".into(),
            microservices: vec![MicroserviceMetrics {
                name: "m".into(),
                placement: Placement { registry: RegistryChoice::Hub, device: DeviceId(0) },
                td: Seconds::ZERO,
                tc: Seconds::ZERO,
                tp: Seconds::ZERO,
                downloaded_mb: 0.0,
                sources: served
                    .iter()
                    .map(|&source| SourcePull { source, downloaded: DataSize::ZERO, layers: 1 })
                    .collect(),
                failed_sources: failed.to_vec(),
                backoff_total: Seconds::ZERO,
                energy: Joules::ZERO,
            }],
            makespan: Seconds::ZERO,
        }
    }

    #[test]
    fn a_streak_opens_a_window_and_a_serve_clears_it() {
        let cfg = OutageInference { threshold: 3, horizon: Seconds::new(100.0) };
        let mut state = InferenceState::default();
        let hub = RegistryId(0);
        assert!(!state.observe(&cfg, &report(&[hub], &[]), Seconds::new(1.0)));
        assert!(!state.observe(&cfg, &report(&[hub], &[]), Seconds::new(2.0)));
        assert!(
            state.observe(&cfg, &report(&[hub], &[]), Seconds::new(3.0)),
            "third strike infers"
        );
        let windows = state.windows();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].source, hub);
        assert!(windows[0].is_dark());
        assert!(windows[0].active_at(Seconds::new(50.0)));
        // The inferred window lands in the scheduler's fault view.
        let model = state.apply(&FaultModel::default());
        assert!(model.dark_at(hub, Seconds::new(50.0)));
        // One successful serve retracts the inference.
        assert!(state.observe(&cfg, &report(&[], &[hub]), Seconds::new(60.0)));
        assert!(state.windows().is_empty());
        assert!(state.apply(&FaultModel::default()).windows().is_empty());
    }

    #[test]
    fn streaks_are_per_source_and_interleaving_success_resets() {
        let cfg = OutageInference { threshold: 2, horizon: Seconds::new(10.0) };
        let mut state = InferenceState::default();
        let (a, b) = (RegistryId(1), RegistryId(2));
        state.observe(&cfg, &report(&[a, b], &[]), Seconds::ZERO);
        // `a` serves successfully before striking again: streak resets,
        // so its second failure alone cannot cross the threshold.
        state.observe(&cfg, &report(&[], &[a]), Seconds::new(1.0));
        assert!(state.observe(&cfg, &report(&[a, b], &[]), Seconds::new(2.0)));
        let windows = state.windows();
        assert_eq!(windows.len(), 1, "only b crossed the threshold");
        assert_eq!(windows[0].source, b);
    }
}
