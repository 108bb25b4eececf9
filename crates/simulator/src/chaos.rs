//! Scripted chaos events the executor fires on its wave clock.
//!
//! [`crate::execute_with_events`] replays a timeline of [`ChaosEvent`]s
//! alongside a deployment: every event whose scripted time has been
//! reached fires at the next wave barrier, *after* the wave's peer
//! gossip round — so a cache eviction lands as a stale advertisement
//! the wave's pulls must fail over from mid-pull, exactly the incident
//! shape a soak test wants to survive. Source outages and degradations
//! are not chaos events: they are [`deep_registry::OutageWindow`]s on
//! the testbed's fault model, gated by the same clock.
//!
//! Timelines come from scenario files (the `deep-scenario` crate) or
//! are built directly in tests.

use deep_netsim::{DataSize, DeviceId, Seconds};

/// One scripted event on the executor clock.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// Fires at the first wave barrier whose clock has reached `at`.
    pub at: Seconds,
    pub kind: ChaosKind,
}

/// What a [`ChaosEvent`] does when it fires.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosKind {
    /// Storage pressure on one device: LRU-evict its layer cache down
    /// to `keep` bytes. Evicted layers are *retracted* from the wave's
    /// peer views — peers that advertised them at the gossip round
    /// now fail the fetch, and sessions fail over mid-pull.
    CachePressure { device: DeviceId, keep: DataSize },
    /// Delete one tag from the regional registry's catalog (an operator
    /// un-publishing an image), orphaning its unique layers for the
    /// next [`ChaosKind::RegistryGc`] pass.
    DeleteTag { repository: String, tag: String },
    /// Run mark-and-sweep garbage collection on the regional registry
    /// (`registry garbage-collect` mid-soak). The swept count lands in
    /// the trace.
    RegistryGc,
}

impl ChaosEvent {
    /// Cache pressure on `device` down to `keep` bytes at time `at`.
    pub fn cache_pressure(at: Seconds, device: DeviceId, keep: DataSize) -> Self {
        ChaosEvent { at, kind: ChaosKind::CachePressure { device, keep } }
    }

    /// Delete `repository:tag` from the regional registry at time `at`.
    pub fn delete_tag(at: Seconds, repository: &str, tag: &str) -> Self {
        ChaosEvent {
            at,
            kind: ChaosKind::DeleteTag { repository: repository.to_string(), tag: tag.to_string() },
        }
    }

    /// Garbage-collect the regional registry at time `at`.
    pub fn registry_gc(at: Seconds) -> Self {
        ChaosEvent { at, kind: ChaosKind::RegistryGc }
    }

    /// The device the event acts on (`DeviceId(0)` for registry-side
    /// events — the trace's convention for fleet-wide records).
    pub fn device(&self) -> DeviceId {
        match &self.kind {
            ChaosKind::CachePressure { device, .. } => *device,
            ChaosKind::DeleteTag { .. } | ChaosKind::RegistryGc => DeviceId(0),
        }
    }
}
