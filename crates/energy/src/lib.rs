//! Energy substrate for the DEEP reproduction.
//!
//! The paper measures energy with two instruments: pyRAPL reading Intel RAPL
//! MSR counters on the medium device, and a Ketotek wall-power meter on the
//! ARM small device. Its model (Section III-D2) splits consumption into
//! active energy `Ea(m_i, r_g, d_j)` — proportional to the completion time
//! `CT` — and static energy `Es(d_j)` for keeping the device up.
//!
//! This crate provides all of that as reusable pieces:
//!
//! * [`units`] — [`Watts`]/[`Joules`] newtypes with dimensional arithmetic;
//! * [`power`] — per-device power models with per-phase active draw
//!   (deployment, dataflow transfer, processing) plus static draw;
//! * [`rapl`] — an emulated RAPL counter bank with the real MSR's 32-bit
//!   wraparound semantics and a pyRAPL-style measurement API;
//! * [`meter`] — a sampling wall-power meter in the spirit of the Ketotek
//!   unit, integrating instantaneous power at a finite sample rate.

#![forbid(unsafe_code)]

pub mod meter;
pub mod power;
pub mod rapl;
pub mod units;

pub use meter::PowerMeter;
pub use power::{DevicePowerModel, ExecutionPhase};
pub use rapl::{RaplBank, RaplDomain, RaplMeasurement};
pub use units::{Joules, Watts};
