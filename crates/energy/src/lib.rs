//! Energy substrate for the DEEP reproduction.
//!
//! The paper measured energy with pyRAPL on the medium device and a
//! Ketotek wall-power meter on the ARM small device, and fitted those
//! readings with an analytic model (Section III-D2): active energy
//! `Ea(m_i, r_g, d_j)`, proportional to the completion time `CT`, plus the
//! static energy `Es(d_j)` of keeping the device up. Every energy figure
//! this workspace reports comes from that model:
//!
//! * [`units`] — [`Watts`]/[`Joules`] newtypes with dimensional arithmetic;
//! * [`power`] — per-device power models with per-phase active draw
//!   (deployment, dataflow transfer, processing) plus static draw.

#![forbid(unsafe_code)]

pub mod power;
pub mod units;

pub use power::DevicePowerModel;
pub use units::{Joules, Watts};
