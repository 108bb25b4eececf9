//! The microservice record `(m_i, Size_mi)` plus its requirement tuple.

use crate::requirements::Requirements;
use deep_netsim::DataSize;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A containerised microservice: node of the application DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Microservice {
    /// Human-readable name ("transcode", "ha-train", ...). Unique within an
    /// application.
    pub name: String,
    /// Container image size `Size_mi` (GB in the paper's tables).
    pub image_size: DataSize,
    /// Resource requirement tuple `req(m_i)`.
    pub requirements: Requirements,
}

impl Microservice {
    pub(crate) fn new(
        name: impl Into<String>,
        image_size: DataSize,
        requirements: Requirements,
    ) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "microservice name must be non-empty");
        Microservice { name, image_size, requirements }
    }
}

impl fmt::Display for Microservice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.image_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::Mi;

    #[test]
    fn construction_and_display() {
        let m = Microservice::new(
            "transcode",
            DataSize::gigabytes(0.17),
            Requirements::minimal(Mi::new(730_000.0)),
        );
        assert_eq!(m.name, "transcode");
        assert_eq!(format!("{m}"), "transcode (170.00 MB)");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_name_rejected() {
        Microservice::new("", DataSize::ZERO, Requirements::minimal(Mi::ZERO));
    }
}
