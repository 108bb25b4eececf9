//! Schedules: the joint assignment `(regist(m_i), sched(m_i))`.

use deep_netsim::{DeviceId, RegistryId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which mesh source a microservice's image is pulled from: a thin typed
/// handle into the registry mesh.
///
/// The paper's testbed registers exactly two sources —
/// [`RegistryChoice::Hub`] (id 0) and [`RegistryChoice::Regional`] (id 1)
/// by workspace convention — but a schedule can name any mesh source via
/// [`RegistryChoice::mesh`]; N regional registries are additional ids,
/// not new enum variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegistryChoice(RegistryId);

impl RegistryChoice {
    /// Public Docker Hub (mesh id 0).
    #[allow(non_upper_case_globals)]
    pub const Hub: RegistryChoice = RegistryChoice(RegistryId(0));

    /// The regional MinIO-backed registry (mesh id 1).
    #[allow(non_upper_case_globals)]
    pub const Regional: RegistryChoice = RegistryChoice(RegistryId(1));

    /// A handle to an arbitrary mesh source.
    pub fn mesh(id: RegistryId) -> Self {
        RegistryChoice(id)
    }

    /// The paper testbed's strategy set: the two sources every scheduler
    /// chooses between.
    pub fn all() -> [RegistryChoice; 2] {
        [RegistryChoice::Hub, RegistryChoice::Regional]
    }

    /// The underlying mesh registry id.
    pub fn registry_id(self) -> RegistryId {
        self.0
    }
}

impl fmt::Display for RegistryChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 .0 {
            0 => f.write_str("docker-hub"),
            1 => f.write_str("regional"),
            n if n >= crate::testbed::REGISTRY_PEER_BASE.0 => {
                write!(f, "peer-d{}", n - crate::testbed::REGISTRY_PEER_BASE.0)
            }
            n => write!(f, "mesh-r{n}"),
        }
    }
}

/// One microservice's placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    pub registry: RegistryChoice,
    pub device: DeviceId,
}

/// A full schedule: placement per microservice, indexed by
/// `MicroserviceId`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    placements: Vec<Placement>,
}

impl Schedule {
    /// Build from per-microservice placements (index = microservice id).
    pub fn new(placements: Vec<Placement>) -> Self {
        assert!(!placements.is_empty(), "schedules cover at least one microservice");
        Schedule { placements }
    }

    /// The uniform schedule: every microservice from `registry` onto
    /// `device`.
    pub fn uniform(n: usize, registry: RegistryChoice, device: DeviceId) -> Self {
        Schedule::new(vec![Placement { registry, device }; n])
    }

    /// Placement of microservice `i`.
    pub fn placement(&self, i: deep_dataflow::MicroserviceId) -> Placement {
        self.placements[i.0]
    }

    /// Number of microservices covered.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// True when the schedule covers no microservices (unreachable by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Iterate placements in microservice order.
    pub fn iter(&self) -> impl Iterator<Item = (deep_dataflow::MicroserviceId, Placement)> + '_ {
        self.placements.iter().enumerate().map(|(i, p)| (deep_dataflow::MicroserviceId(i), *p))
    }

    /// Fraction of microservices pulled from each registry onto each
    /// device — the quantity Table III reports. Covers every mesh source
    /// a placement names, not just the paper pair.
    pub fn distribution(&self) -> Vec<((RegistryChoice, DeviceId), f64)> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<(RegistryChoice, DeviceId), usize> = BTreeMap::new();
        for p in &self.placements {
            *counts.entry((p.registry, p.device)).or_insert(0) += 1;
        }
        let n = self.placements.len() as f64;
        counts.into_iter().map(|(key, c)| (key, c as f64 / n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_dataflow::MicroserviceId;

    #[test]
    fn uniform_schedule() {
        let s = Schedule::uniform(6, RegistryChoice::Hub, DeviceId(0));
        assert_eq!(s.len(), 6);
        assert_eq!(
            s.placement(MicroserviceId(3)),
            Placement { registry: RegistryChoice::Hub, device: DeviceId(0) }
        );
    }

    #[test]
    fn distribution_fractions_sum_to_one() {
        let s = Schedule::new(vec![
            Placement { registry: RegistryChoice::Hub, device: DeviceId(0) },
            Placement { registry: RegistryChoice::Hub, device: DeviceId(0) },
            Placement { registry: RegistryChoice::Regional, device: DeviceId(1) },
        ]);
        let dist = s.distribution();
        let total: f64 = dist.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(dist.len(), 2);
        let hub_med = dist
            .iter()
            .find(|((r, d), _)| *r == RegistryChoice::Hub && *d == DeviceId(0))
            .unwrap()
            .1;
        assert!((hub_med - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn registry_ids_are_stable() {
        assert_eq!(RegistryChoice::Hub.registry_id(), RegistryId(0));
        assert_eq!(RegistryChoice::Regional.registry_id(), RegistryId(1));
        assert_eq!(RegistryChoice::mesh(RegistryId(7)).registry_id(), RegistryId(7));
    }

    #[test]
    fn mesh_choices_distribute_alongside_paper_pair() {
        let extra = RegistryChoice::mesh(RegistryId(3));
        let s = Schedule::new(vec![
            Placement { registry: RegistryChoice::Hub, device: DeviceId(0) },
            Placement { registry: extra, device: DeviceId(0) },
        ]);
        let dist = s.distribution();
        assert_eq!(dist.len(), 2);
        assert!(dist.iter().any(|((r, _), f)| *r == extra && (*f - 0.5).abs() < 1e-12));
    }

    #[test]
    fn iteration_covers_all() {
        let s = Schedule::uniform(4, RegistryChoice::Regional, DeviceId(1));
        assert_eq!(s.iter().count(), 4);
        for (id, p) in s.iter() {
            assert!(id.0 < 4);
            assert_eq!(p.registry, RegistryChoice::Regional);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(RegistryChoice::Hub.to_string(), "docker-hub");
        assert_eq!(RegistryChoice::Regional.to_string(), "regional");
        assert_eq!(RegistryChoice::mesh(RegistryId(4)).to_string(), "mesh-r4");
        let peer = crate::testbed::peer_source_id(DeviceId(2));
        assert_eq!(RegistryChoice::mesh(peer).to_string(), "peer-d2");
    }
}
