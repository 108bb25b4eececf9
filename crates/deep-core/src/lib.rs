//! DEEP: Docker rEgistry-based Edge dataflow Processing.
//!
//! The paper's primary contribution: energy-aware joint selection of
//! `regist(m_i)` (which registry serves each microservice image) and
//! `sched(m_i)` (which edge device runs it), formulated as a Nash game and
//! minimising `EC_total(A, R, D)`. The paper plays that game over exactly
//! two registries; this crate plays it over the whole **registry mesh** —
//! the paper's hybrid is the two-source special case and is reproduced
//! byte for byte (`tests/mesh_equilibria.rs`).
//!
//! ## The mesh-wide game
//!
//! * **Strategy space** — the registry side of every strategy ranges over
//!   [`deep_simulator::Testbed::registry_choices`]: Docker Hub, the paper
//!   regional, and any number of regional mirrors registered with
//!   `Testbed::add_regional_mirror`. N regionals are data, not new enum
//!   variants.
//! * **Per-resource contention** — same-wave players contend per shared
//!   contention resource ([`deep_simulator::route_key`]): registry
//!   traffic per `(source, device)` download route, peer traffic on the
//!   *serving* device's uplink NIC. A split pull loads every resource
//!   its `SourcePull`s actually traverse, not just its primary's — so
//!   two pulls whose bytes ride different sources no longer slow each
//!   other, while a hot peer serving several devices at once divides
//!   its uplink among them.
//! * **Split-pull pricing over the per-pair peer plane** — with
//!   [`DeepScheduler::with_peer_sharing`] the payoffs run through the
//!   same registry-plus-peer-sources mesh a `peer_sharing` executor
//!   realises: one blob source per advertising holder at its
//!   [`deep_simulator::PeerPlane`] per-pair link rate (EdgePier-style
//!   peer distribution), so the scheduler *prices* which peer a pull
//!   fetches from — saturated uplinks shift the equilibrium — instead
//!   of discovering fleet-resident layers at deployment time.
//!   Estimator and executor stay bit-for-bit parity-tested, and the
//!   uniform plane reproduces the retained scalar oracle byte for byte
//!   (`tests/peer_plane.rs`). Discovery itself is a knob:
//!   [`DeepScheduler::peer_discovery`] switches the priced mesh from
//!   the omniscient per-wave snapshot to the same seeded
//!   [`deep_simulator::GossipPlane`] the executor runs (both sides build
//!   it with [`deep_simulator::GossipPlane::for_discovery`]) — bounded
//!   partial views per pull, epidemic propagation per wave barrier —
//!   so the equilibrium prices exactly the holders a bounded view will
//!   actually see; converged gossip reproduces the snapshot byte for
//!   byte (`tests/gossip_discovery.rs`).
//! * **Explicit Rosenthal form** — [`nash::WaveRouteGame`] derives each
//!   wave's `deep_game::CongestionGame` from actual split-pull plans
//!   (player-specific subsets over routes + uplinks). It prices mean
//!   route times, not the exact payoffs, so no solve or repair plays it.
//! * **Failover-aware payoffs** — with [`DeepScheduler::fault_aware`]
//!   the payoffs price *expected* deployment time under the testbed's
//!   [`deep_registry::FaultModel`]:
//!   `E[Td] = (1−p)·(Td_happy + B_h) + p·(Td_failover + B_f + detection)`,
//!   where `p` is the primary's per-pull death probability, the failover
//!   branch re-plans onto the surviving mesh (peer first, then standby
//!   registries), `B` is the closed-form expected retry backoff of the
//!   transient channel and `detection` the exhausted retry budget burnt
//!   declaring a source dead. Expected costs are still per-resource load
//!   functions, so the Rosenthal potential argument carries over
//!   unchanged (`tests/game_theory_validation.rs`). With probabilities
//!   at zero the payoffs, schedules and RunReports are byte-identical to
//!   the happy-path stack; under a lossy regional the equilibrium
//!   reroutes risk-weighted bytes toward the hub and reliable mirrors
//!   (`tests/fault_injection.rs`, `examples/fault_sweep.rs`, PERF.md).
//! * **Scenario-priced payoffs** — with
//!   [`DeepScheduler::scenario_priced`] the payoffs are
//!   simulation-in-the-loop Monte-Carlo `E[Td]` over the *exact* fault
//!   plans a `deep-scenario` scenario's replications will draw,
//!   clock-gated on its scripted outage windows: a source dark at the
//!   estimator's wave clock prices its full failover, so the
//!   equilibrium routes *around a window* instead of averaging over it
//!   (see [`soak::run_scenario`] and `docs/SCENARIOS.md`).
//! * **One solve path, paper testbed to fleet** — [`nash::DeepScheduler`]
//!   solves each member's |R|×|D| stage game by a direct payoff scan
//!   over a reusable workspace (the last minimal-energy cell,
//!   registry-major: the equilibrium the paper's support enumeration
//!   selects in a common-interest game, checked member by member by
//!   `nash.rs`'s oracle test), with energy-floor pruning of the grid.
//!   The sequential stage games' profile is the schedule: every member
//!   plays the minimum of its grid in the state its own walk reaches, so
//!   the profile is an exact pure Nash equilibrium of the joint game.
//!   [`DeepScheduler::incremental_repair`] walks an incumbent once: a
//!   member keeps its placement when no floor-screened cell beats it
//!   under the exact payoffs, and plays its stage game otherwise, so a
//!   repair is an exact equilibrium too.
//!   The same path runs on the paper's two-device testbed and on
//!   [`continuum::synthetic_fleet_testbed`]'s 10³ seeded-heterogeneous
//!   devices (`examples/fleet_scale.rs`, PERF.md).
//!
//! Architecture (paper Figure 1) mapped to modules:
//!
//! * **Microservice requirement analysis** → [`calibration`]: the measured
//!   per-(microservice, device) benchmark profiles of Table II, from which
//!   per-device processing powers and architecture factors are derived.
//! * **Dependency analysis** → `deep-dataflow`'s stages + [`model`]'s
//!   estimation context walking the DAG in barrier order, tracking layer
//!   caches, per-source route loads and per-wave peer snapshots.
//! * **Scheduling (Nash game)** → [`nash`]: per-microservice |R|×|D|
//!   common-interest stage games solved by a payoff scan (the pure
//!   equilibrium support enumeration would select); played in barrier
//!   order, their picks form a pure Nash equilibrium of the n-player
//!   deployment congestion game over the mesh.
//! * **Dataflow processing / Monitoring** → `deep-simulator`'s executor
//!   and trace, driven by [`experiment`].
//!
//! [`baselines`] provides the two comparison methods of Figure 3b
//! (exclusively-Docker-Hub, exclusively-regional) plus extra baselines for
//! ablation (greedy decoupled, round-robin, random), all enumerating the
//! mesh's registry choices. [`distribution`] computes Table III.
//! [`experiment`] regenerates every table and figure. [`pareto`]
//! brute-forces the joint space (which grows with the mesh) to place the
//! equilibrium on the energy/makespan front.

pub mod ablation;
pub mod baselines;
pub mod calibration;
pub mod continuum;
pub mod distribution;
pub mod experiment;
pub mod model;
pub mod nash;
pub mod pareto;
pub mod report;
pub mod soak;

pub use ablation::{run_all as run_ablations, AblationRow};
pub use baselines::{ExclusiveRegistry, GreedyDecoupled, RandomScheduler, RoundRobin};
pub use calibration::{calibrate, paper_rows, CalibratedRow, PaperRow};
pub use continuum::{
    calibrate_continuum, compare as continuum_compare, continuum_testbed, synthetic_fleet_testbed,
    ContinuumRow,
};
pub use distribution::{distribution_table, DistributionRow};
pub use experiment::{Experiments, Fig3aResult, Fig3bResult, HeadlineResult};
pub use model::{Estimate, EstimationContext, ScenarioPricing};
pub use nash::{DeepScheduler, RepairOutcome, WaveRouteGame};
pub use pareto::{distance_to_front, enumerate_profiles, pareto_front, EvaluatedProfile};
pub use soak::{percentile, run_scenario, scenario_scheduler, scenario_testbed, ScenarioOutcome};

use deep_dataflow::Application;
use deep_simulator::{Schedule, Testbed};

/// The uniform interface every deployment method implements.
pub trait Scheduler {
    /// Human-readable method name (used in tables).
    fn name(&self) -> &str;

    /// Produce a joint `(registry, device)` assignment for `app` on
    /// `testbed`. Schedulers must not mutate the testbed; estimation works
    /// on cloned cache state.
    fn schedule(&self, app: &Application, testbed: &Testbed) -> Schedule;
}
