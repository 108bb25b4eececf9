//! Per-microservice measurements and run reports.

use crate::schedule::Placement;
use crate::testbed::{peer_holder, REGISTRY_PEER};
use deep_energy::Joules;
use deep_netsim::{DeviceId, RegistryId, Seconds};
use deep_registry::SourcePull;
use serde::{Deserialize, Serialize};

/// What the testbed measured for one microservice — one Table II row's
/// worth of data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroserviceMetrics {
    pub name: String,
    pub placement: Placement,
    /// Deployment time `Td` (pull + extract + overhead).
    pub td: Seconds,
    /// Dataflow transmission time `Tc`.
    pub tc: Seconds,
    /// Processing time `Tp`.
    pub tp: Seconds,
    /// Bytes actually downloaded (after cache dedup).
    pub downloaded_mb: f64,
    /// Which mesh sources served the pull (bytes/layers per source, in
    /// order of first use; empty when everything was cached).
    pub sources: Vec<SourcePull>,
    /// Sources that died fatally during the pull (failover re-planned
    /// the remaining layers onto survivors). Empty on the happy path.
    pub failed_sources: Vec<RegistryId>,
    /// Retry backoff charged into `td` by injected transient failures
    /// (zero without fault injection).
    pub backoff_total: Seconds,
    /// Energy `EC` from the paper's Section III-D2 model over `td`, `tc`
    /// and `tp` ([`crate::SimDevice::energy`]).
    pub energy: Joules,
}

impl MicroserviceMetrics {
    /// Completion time `CT = Td + Tc + Tp`.
    pub fn ct(&self) -> Seconds {
        self.td + self.tc + self.tp
    }

    /// Megabytes of this pull served by each peer device, in order of
    /// first use — the per-holder breakdown of the per-pair peer
    /// plane (empty when nothing rode a peer link, or under the
    /// anonymous aggregate plane).
    pub fn peer_downloads(&self) -> Vec<(DeviceId, f64)> {
        self.sources
            .iter()
            .filter_map(|s| peer_holder(s.source).map(|h| (h, s.downloaded.as_megabytes())))
            .collect()
    }

    /// Megabytes of this pull that rode the peer plane, under either
    /// plane (per-holder sources or the aggregate [`REGISTRY_PEER`]).
    pub fn peer_downloaded_mb(&self) -> f64 {
        self.sources
            .iter()
            .filter(|s| s.source == REGISTRY_PEER || peer_holder(s.source).is_some())
            .map(|s| s.downloaded.as_megabytes())
            .sum()
    }
}

/// A full application run under one schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    pub application: String,
    pub microservices: Vec<MicroserviceMetrics>,
    /// Simulated wall-clock length of the run.
    pub makespan: Seconds,
}

impl RunReport {
    /// `EC_total(A, R, D)`: sum of per-microservice energies.
    pub fn total_energy(&self) -> Joules {
        self.microservices.iter().map(|m| m.energy).sum()
    }

    /// Metrics for one microservice by name.
    pub fn metrics(&self, name: &str) -> Option<&MicroserviceMetrics> {
        self.microservices.iter().find(|m| m.name == name)
    }

    /// The microservice consuming the most energy (Figure 3a's headline).
    pub fn max_energy_microservice(&self) -> Option<&MicroserviceMetrics> {
        self.microservices
            .iter()
            .max_by(|a, b| a.energy.partial_cmp(&b.energy).expect("energy is never NaN"))
    }

    /// Total megabytes fetched per mesh source across the run, sorted by
    /// source id — where the run's bytes actually came from.
    pub fn downloaded_by_source(&self) -> Vec<(RegistryId, f64)> {
        let mut totals: std::collections::BTreeMap<RegistryId, f64> =
            std::collections::BTreeMap::new();
        for m in &self.microservices {
            for s in &m.sources {
                *totals.entry(s.source).or_insert(0.0) += s.downloaded.as_megabytes();
            }
        }
        totals.into_iter().collect()
    }

    /// Total megabytes each *peer device* served across the run, sorted
    /// by device — which holders carried the fleet's peer traffic.
    pub fn downloaded_by_peer(&self) -> Vec<(DeviceId, f64)> {
        let mut totals: std::collections::BTreeMap<DeviceId, f64> =
            std::collections::BTreeMap::new();
        for m in &self.microservices {
            for (holder, mb) in m.peer_downloads() {
                *totals.entry(holder).or_insert(0.0) += mb;
            }
        }
        totals.into_iter().collect()
    }

    /// Total megabytes the peer plane served across the run, under
    /// either plane representation.
    pub fn peer_downloaded_mb(&self) -> f64 {
        self.microservices.iter().map(|m| m.peer_downloaded_mb()).sum()
    }

    /// The report with every per-holder peer bucket folded under the
    /// aggregate [`REGISTRY_PEER`] id (merged at the position of first
    /// peer use; dead per-holder sources fold likewise) — the scalar
    /// view of a per-pair run. The peer-plane parity regression uses
    /// this to compare the per-pair plane against the retained
    /// [`crate::PeerPlane::Aggregate`] oracle byte for byte: holder ids
    /// are labels, every measured quantity (times, bytes, energies,
    /// bucket order) must match bitwise.
    pub fn with_aggregated_peer_sources(&self) -> RunReport {
        let mut out = self.clone();
        for m in &mut out.microservices {
            let mut folded: Vec<SourcePull> = Vec::with_capacity(m.sources.len());
            for s in &m.sources {
                if peer_holder(s.source).is_none() {
                    folded.push(s.clone());
                    continue;
                }
                match folded.iter_mut().find(|f| f.source == REGISTRY_PEER) {
                    Some(f) => {
                        f.downloaded += s.downloaded;
                        f.layers += s.layers;
                    }
                    None => folded.push(SourcePull {
                        source: REGISTRY_PEER,
                        downloaded: s.downloaded,
                        layers: s.layers,
                    }),
                }
            }
            m.sources = folded;
            let mut failed: Vec<RegistryId> = Vec::with_capacity(m.failed_sources.len());
            for &f in &m.failed_sources {
                let id = if peer_holder(f).is_some() { REGISTRY_PEER } else { f };
                if !failed.contains(&id) {
                    failed.push(id);
                }
            }
            m.failed_sources = failed;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::RegistryChoice;
    use deep_netsim::DeviceId;

    fn metric(name: &str, td: f64, tc: f64, tp: f64, e: f64) -> MicroserviceMetrics {
        MicroserviceMetrics {
            name: name.to_string(),
            placement: Placement { registry: RegistryChoice::Hub, device: DeviceId(0) },
            td: Seconds::new(td),
            tc: Seconds::new(tc),
            tp: Seconds::new(tp),
            downloaded_mb: 0.0,
            sources: Vec::new(),
            failed_sources: Vec::new(),
            backoff_total: Seconds::ZERO,
            energy: Joules::new(e),
        }
    }

    #[test]
    fn ct_is_phase_sum() {
        let m = metric("x", 10.0, 2.0, 30.0, 100.0);
        assert!((m.ct().as_f64() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn report_totals_and_lookup() {
        let r = RunReport {
            application: "demo".into(),
            microservices: vec![metric("a", 1.0, 0.0, 1.0, 10.0), metric("b", 1.0, 0.0, 1.0, 30.0)],
            makespan: Seconds::new(4.0),
        };
        assert!((r.total_energy().as_f64() - 40.0).abs() < 1e-12);
        assert!(r.metrics("a").is_some());
        assert!(r.metrics("zzz").is_none());
        assert_eq!(r.max_energy_microservice().unwrap().name, "b");
    }
}
