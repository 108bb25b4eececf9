//! # deep-arrival — online deployment under continuous arrivals
//!
//! The paper's experiments deploy one application per run; a registry
//! mesh in production sees a *stream* of deployment requests. This
//! crate adds that arrival plane on top of the DEEP game:
//!
//! - [`models`] turns a scenario's `[[arrivals]]` streams (Poisson,
//!   deterministic, trace-driven; seeded splitmix64, warm-up phases)
//!   into one merged request timeline.
//! - [`plane`] drives the [`deep_simulator::OnlineExecutor`] through
//!   that timeline: requests are admitted at wave barriers, each
//!   admission re-enters the game **incrementally**
//!   ([`deep_core::DeepScheduler::incremental_repair`]): only members
//!   of the incumbent equilibrium with an improving deviation under the
//!   exact payoffs move, with a full re-solve fallback past a budget of
//!   moved members or across a scripted-window boundary.
//! - [`inference`] closes the loop for blind operators: streaks of
//!   fatal pulls synthesize [`deep_registry::OutageWindow`]s that feed
//!   back into the next repair.
//! - [`metrics`] aggregates the steady-state soak numbers: mean and
//!   percentile `Td`, time-to-react, queue depth, repair economics.
//!
//! A scenario without `[[arrivals]]` degenerates to a single request
//! at `t = 0` and reproduces [`deep_core::run_scenario`] byte for byte
//! — the static-parity contract pinned by `tests/arrival_plane.rs`.

pub mod inference;
pub mod metrics;
pub mod models;
pub mod plane;

pub use inference::{InferenceState, OutageInference};
pub use metrics::{ArrivalOutcome, JobRecord, RepairStats};
pub use models::{sample_arrivals, Arrival};
pub use plane::{run_plane, ArrivalPlane, RepairPolicy, DEFAULT_DEVIATION_BUDGET};
