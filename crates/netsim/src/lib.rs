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
//! * a [`Topology`] holding the device-to-device bandwidth matrix `H` and
//!   the registry-to-device bandwidth matrix;
//! * a [`cdn`] module modelling Docker Hub's CDN-backed distribution
//!   (geographically-classed points of presence), which is how the paper
//!   explains Docker Hub's delivery performance;
//! * transfer-time math shared by every higher layer ([`transfer`]);
//! * a seeded push/pull epidemic ([`gossip`]) for decentralized holder
//!   advertisement — the substrate the simulator's gossip discovery
//!   plane builds on;
//! * [`splitmix64`], the seed-stream mixer behind the workspace's fault
//!   plans, retry jitter, gossip partners, arrivals and synthetic fleets.
//!
//! All quantities are deterministic; stochastic jitter is layered on by the
//! simulator crate, never here.

pub mod cdn;
pub mod gossip;
mod splitmix;
pub mod topology;
pub mod transfer;
pub mod units;

pub use cdn::{CdnModel, PopClass};
pub use gossip::GossipState;
pub use splitmix::splitmix64;
pub use topology::{DeviceId, RegistryId, Topology, TopologyBuilder, TopologyError};
pub use transfer::transfer_time;
pub use units::{Bandwidth, DataSize, Seconds};
