//! Discrete-event testbed simulator — the physical-testbed substitution.
//!
//! The paper benchmarks on two physical devices (an 8-core Intel i7-7700
//! "medium" and a 4-core Raspberry Pi 4 "small"); this crate reproduces
//! that testbed as a deterministic, seeded simulation:
//!
//! * [`device`] — simulated edge devices: cores, MI/s speed with
//!   per-microservice architecture factors, memory/storage, per-phase power
//!   models, layer cache, extraction bandwidth;
//! * [`testbed`] — the two-device, two-registry testbed of Section IV with
//!   calibrated link parameters;
//! * [`schedule`] — the assignment type produced by schedulers and consumed
//!   by the executor: per-microservice `(registry, device)`;
//! * [`executor`] — runs an application under a schedule: staged
//!   deployments with route contention and layer dedup, barrier-ordered
//!   non-concurrent execution, per-phase energy from the paper's analytic
//!   model (Section III-D2), and optional seeded fault injection
//!   ([`ExecutorConfig::fault_injection`]) sampling the testbed's
//!   [`Testbed::fault_model`](testbed::Testbed::fault_model) — dead
//!   primaries fail over onto standby mesh sources, transient bursts
//!   retry under the model's policy;
//! * [`gossip`] — the decentralized discovery plane
//!   ([`GossipPlane`]): epoch-versioned holder advertisements spread by
//!   seeded epidemic rounds at every wave barrier, bounded per-pull
//!   views ([`executor::PeerDiscovery::Gossip`]), and stale-ad
//!   retraction so an evicted layer fails over mid-pull instead of
//!   serving; with fanout ≥ devices − 1 it reproduces the omniscient
//!   snapshot byte for byte;
//! * [`jitter`] — seeded multiplicative noise reproducing run-to-run
//!   variance (Table II reports ranges, not points);
//! * [`metrics`] — per-microservice `Td/Tc/Tp/CT/EC` records and run
//!   reports;
//! * [`trace`] — the Monitoring component of Figure 1, opt-in: the
//!   executor reports every deployment and execution step to the
//!   [`Monitor`] its caller passes — `()` keeps nothing, a [`Trace`]
//!   keeps the event log.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod device;
pub mod executor;
pub mod gossip;
pub mod jitter;
pub mod metrics;
pub mod schedule;
pub mod testbed;
#[cfg(test)]
mod topology;
pub mod trace;

pub use chaos::{ChaosEvent, ChaosKind};
pub use device::SimDevice;
pub use executor::{
    execute, execute_monitored, execute_with_events, plan_waves, validate_schedule, ExecError,
    ExecutorConfig, JobRun, OnlineExecutor, PeerDiscovery,
};
pub use gossip::GossipPlane;
pub use jitter::Jitter;
pub use metrics::{MicroserviceMetrics, RunReport};
pub use schedule::{Placement, RegistryChoice, Schedule};
pub use testbed::{
    peer_holder, peer_source_id, route_key, PeerPlane, PeerViews, PublishedEntry, RegionalMirror,
    RouteLoads, Testbed, TestbedParams, DEVICE_CLOUD, DEVICE_MEDIUM, DEVICE_SMALL,
    REGISTRY_MIRROR_BASE, REGISTRY_PEER, REGISTRY_PEER_BASE,
};
pub use trace::{ChaosEffect, Monitor, Subject, Trace, TraceEvent, TraceKind};
