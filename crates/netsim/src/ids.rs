//! Device and registry handles.
//!
//! A device `d_j` and a registry `r_g` of the paper (Section III-B) are
//! plain indices. The simulator's testbed derives the bandwidth between
//! them from device class and its calibrated parameters.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an edge device (`d_j` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId(pub usize);

/// Index of a Docker registry (`r_g` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegistryId(pub usize);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Display for RegistryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}
