//! Dataflow application model for the DEEP reproduction.
//!
//! Implements the paper's application model (Section III-A): an application
//! is a DAG `A = (M, E)` of containerised microservices `m_i` (each with an
//! image size `Size_mi` and a resource requirement tuple
//! `req(m_i) = ⟨CORE, CPU, MEM, STOR⟩`) connected by dataflows `df_ui` of
//! size `Size_ui`. Each application carries synchronization barriers that
//! force downstage microservices to wait for all their upstage producers.
//!
//! Contents:
//!
//! * [`compute`] — `MI` / `MI/s` newtypes (`Tp = CPU(m_i) / CPU_j` falls out
//!   of the types);
//! * [`microservice`], [`requirements`], [`flow`] — the node/edge records;
//! * [`dag`] — the validated [`Application`] graph with topological order,
//!   reachability and degree queries;
//! * [`mod@stages`] — barrier/stage decomposition;
//! * [`builder`] — ergonomic construction with error checking;
//! * [`apps`] — the two case-study applications of Figure 2, parameterised
//!   exactly as Table II reports them;
//! * [`generator`] — seeded random DAGs for property tests and scale
//!   benchmarks.

#![forbid(unsafe_code)]

pub mod apps;
pub mod builder;
pub mod compute;
pub mod dag;
pub mod flow;
pub mod generator;
pub mod microservice;
pub mod requirements;
pub mod stages;

pub use builder::{ApplicationBuilder, BuildError};
pub use compute::{Mi, Mips};
pub use dag::{Application, DagError, MicroserviceId};
pub use flow::Dataflow;
pub use generator::DagGenerator;
pub use microservice::Microservice;
pub use requirements::{DeviceClass, Requirements};
pub use stages::{stages, Stage};
