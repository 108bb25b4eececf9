//! Game-theory toolkit for DEEP — the Nashpy substitution.
//!
//! The paper "applies a nash equilibrium model" (solved with the Nashpy
//! library) and frames deployment as a prisoner's dilemma "to optimize
//! energy consumption through cooperation between microservices and
//! devices". This crate reimplements the machinery Nashpy provides, plus
//! the n-player congestion-game solver the deployment game needs:
//!
//! * [`matrix`] — dense payoff matrices;
//! * [`strategy`] — mixed strategies with support queries;
//! * [`bimatrix`] — two-player games and equilibrium verification;
//! * [`support_enum`] — support enumeration of all equilibria of
//!   nondegenerate bimatrix games (Nashpy's `support_enumeration`), the
//!   test oracle for the scheduler's stage-game scan;
//! * [`linalg`] — the small dense solves support enumeration needs;
//! * [`congestion`] — finite n-player games with exact potential
//!   (deployment-contention games), solved by best-response iteration;
//!   includes the explicit Rosenthal form with player-specific resource
//!   subsets (split pulls loading several source routes at once), and a
//!   sparse potential-descent solver ([`CongestionGame::sparse_descent`])
//!   over incremental per-resource load counters — trajectory-identical
//!   to the dense dynamics but scaling with loaded resources, not
//!   enumerated profiles.
//!
//! No scheduling path solves a game from this crate: deep-core's wave
//! games build a [`CongestionGame`] for the benchmark's descent probe and
//! for tests. The bimatrix machinery, support enumeration and the dense
//! dynamics are the oracles the tests and benches check the scheduler
//! against; the canonical games they validate on (prisoner's dilemma,
//! matching pennies, ...) are test fixtures.

#![forbid(unsafe_code)]

pub mod bimatrix;
#[cfg(test)]
mod classic;
pub mod congestion;
pub mod linalg;
pub mod matrix;
pub mod strategy;
pub mod support_enum;

pub use bimatrix::Bimatrix;
pub use congestion::{BestResponseResult, CongestionGame, DescentWorkspace, FiniteGame};
pub use matrix::Matrix;
pub use strategy::MixedStrategy;
pub use support_enum::support_enumeration;
