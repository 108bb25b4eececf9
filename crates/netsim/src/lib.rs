//! Network substrate for the DEEP reproduction.
//!
//! The paper's device/network model (Section III-B) is deliberately simple:
//! devices are interconnected by channels characterized only by bandwidth
//! (`h_kj = BW_kj`; round-trip time is explicitly neglected), and registries
//! reach devices through links `BW_gj`. This crate provides:
//!
//! * strongly-typed physical units ([`DataSize`], [`Bandwidth`], [`Seconds`])
//!   so that "GB divided by MB/s" mistakes are compile errors rather than
//!   silent unit bugs;
//! * device and registry handles ([`DeviceId`], [`RegistryId`]); the
//!   simulator's testbed derives the links between them from device
//!   class;
//! * transfer-time math shared by every higher layer ([`transfer`]);
//! * a seeded push/pull epidemic ([`gossip`]) for decentralized holder
//!   advertisement — the substrate the simulator's gossip discovery
//!   plane builds on;
//! * [`splitmix64`], the seed-stream mixer behind the workspace's fault
//!   plans, retry jitter, gossip partners, arrivals and synthetic fleets,
//!   and [`unit_f64`], the one `[0, 1)` draw from its output.
//!
//! All quantities are deterministic; stochastic jitter is layered on by the
//! simulator crate, never here.

#![forbid(unsafe_code)]

pub mod gossip;
mod ids;
mod splitmix;
pub mod transfer;
pub mod units;

pub use gossip::GossipState;
pub use ids::{DeviceId, RegistryId};
pub use splitmix::{splitmix64, unit_f64};
pub use transfer::transfer_time;
pub use units::{Bandwidth, DataSize, Seconds};
