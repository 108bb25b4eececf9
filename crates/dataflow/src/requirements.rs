//! Microservice resource requirements.
//!
//! The paper's `req(m_i) = ⟨CORE(m_i), CPU(m_i), MEM(m_i), STOR(m_i)⟩`
//! (Section III-A): minimum core count, processing load in MI, and memory /
//! storage floors a hosting device must satisfy.

use crate::compute::Mi;
use deep_netsim::DataSize;
use serde::{Deserialize, Serialize};

/// Where in the computing continuum a device sits.
///
/// The paper's evaluation is edge-only; its conclusion announces extending
/// "the computation between cloud and edge". The class lets microservices
/// whose *data source* is physically located somewhere (a camera at the
/// edge, an S3 bucket in the cloud) constrain their placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// An edge device near the data producers.
    Edge,
    /// A cloud server reached over the WAN.
    Cloud,
}

/// Resource requirements of one microservice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Requirements {
    /// Minimum number of cores, `CORE(m_i)`.
    pub cores: u32,
    /// Processing load in millions of instructions, `CPU(m_i)`.
    pub cpu: Mi,
    /// Minimum memory, `MEM(m_i)`.
    pub memory: DataSize,
    /// Minimum storage, `STOR(m_i)` (must hold the unpacked image plus
    /// working data).
    pub storage: DataSize,
    /// Optional continuum constraint: `Some(Edge)` pins the microservice
    /// to edge devices (e.g. it reads a physical camera). `None` runs
    /// anywhere.
    pub class: Option<DeviceClass>,
}

impl Requirements {
    /// Build a requirement tuple (no continuum constraint).
    pub fn new(cores: u32, cpu: Mi, memory: DataSize, storage: DataSize) -> Self {
        Requirements { cores, cpu, memory, storage, class: None }
    }

    /// A minimal requirement for tests and generators: one core, tiny
    /// footprint.
    pub fn minimal(cpu: Mi) -> Self {
        Requirements {
            cores: 1,
            cpu,
            memory: DataSize::megabytes(128.0),
            storage: DataSize::megabytes(256.0),
            class: None,
        }
    }

    /// Constrain placement to one device class.
    pub fn pinned_to(mut self, class: DeviceClass) -> Self {
        self.class = Some(class);
        self
    }

    /// True when a device offering `(cores, memory, storage)` can host this
    /// microservice — the admission predicate the executor checks before
    /// it deploys anything (via [`fits_class`](Self::fits_class)).
    pub fn fits(&self, cores: u32, memory: DataSize, storage: DataSize) -> bool {
        self.cores <= cores && self.memory <= memory && self.storage <= storage
    }

    /// [`fits`](Self::fits) plus the continuum constraint.
    pub fn fits_class(
        &self,
        cores: u32,
        memory: DataSize,
        storage: DataSize,
        class: DeviceClass,
    ) -> bool {
        self.fits(cores, memory, storage) && self.class.is_none_or(|c| c == class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_requires_every_dimension() {
        let req = Requirements::new(
            2,
            Mi::new(1000.0),
            DataSize::gigabytes(2.0),
            DataSize::gigabytes(8.0),
        );
        assert!(req.fits(4, DataSize::gigabytes(16.0), DataSize::gigabytes(64.0)));
        assert!(!req.fits(1, DataSize::gigabytes(16.0), DataSize::gigabytes(64.0)));
        assert!(!req.fits(4, DataSize::gigabytes(1.0), DataSize::gigabytes(64.0)));
        assert!(!req.fits(4, DataSize::gigabytes(16.0), DataSize::gigabytes(4.0)));
    }

    #[test]
    fn boundary_is_inclusive() {
        let req =
            Requirements::new(4, Mi::new(1.0), DataSize::gigabytes(8.0), DataSize::gigabytes(32.0));
        // The small testbed device exactly: 4 cores, 8 GB, 32 GB.
        assert!(req.fits(4, DataSize::gigabytes(8.0), DataSize::gigabytes(32.0)));
    }

    #[test]
    fn minimal_fits_small_device() {
        let req = Requirements::minimal(Mi::new(100.0));
        assert!(req.fits(1, DataSize::megabytes(128.0), DataSize::megabytes(256.0)));
    }
}

#[cfg(test)]
mod class_tests {
    use super::*;
    use crate::compute::Mi;

    #[test]
    fn unconstrained_requirements_fit_any_class() {
        let req = Requirements::minimal(Mi::new(1.0));
        for class in [DeviceClass::Edge, DeviceClass::Cloud] {
            assert!(req.fits_class(
                1,
                DataSize::megabytes(128.0),
                DataSize::megabytes(256.0),
                class
            ));
        }
    }

    #[test]
    fn pinned_requirements_reject_other_classes() {
        let req = Requirements::minimal(Mi::new(1.0)).pinned_to(DeviceClass::Edge);
        assert!(req.fits_class(
            4,
            DataSize::gigabytes(1.0),
            DataSize::gigabytes(1.0),
            DeviceClass::Edge
        ));
        assert!(!req.fits_class(
            4,
            DataSize::gigabytes(1.0),
            DataSize::gigabytes(1.0),
            DeviceClass::Cloud
        ));
    }

    #[test]
    fn class_constraint_does_not_bypass_resources() {
        let req =
            Requirements::new(8, Mi::new(1.0), DataSize::gigabytes(1.0), DataSize::gigabytes(1.0))
                .pinned_to(DeviceClass::Cloud);
        assert!(!req.fits_class(
            4,
            DataSize::gigabytes(16.0),
            DataSize::gigabytes(64.0),
            DeviceClass::Cloud
        ));
    }
}
