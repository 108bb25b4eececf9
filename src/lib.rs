//! # DEEP — Docker rEgistry-based Edge dataflow Processing
//!
//! A full Rust reproduction of *"DEEP: Edge-based Dataflow Processing with
//! Hybrid Docker Hub and Regional Registries"* (Mehran et al., IPDPS-W
//! 2025): energy-aware, nash-game-based joint selection of the Docker
//! registry each microservice image is pulled from and the edge device it
//! runs on.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`dataflow`] | `deep-dataflow` | DAG application model (Fig. 2 case studies) |
//! | [`netsim`] | `deep-netsim` | typed units, device/registry ids, transfer time, gossip |
//! | [`energy`] | `deep-energy` | units and the Section III-D2 power model |
//! | [`objectstore`] | `deep-objectstore` | MinIO-like S3 store: buckets, objects, quota |
//! | [`registry`] | `deep-registry` | Docker Hub + regional registries, pull path |
//! | [`game`] | `deep-game` | Nash-equilibrium toolkit (Nashpy replacement), the schedulers' test oracle |
//! | [`simulator`] | `deep-simulator` | discrete-event two-device testbed |
//! | [`scenario`] | `deep-scenario` | TOML chaos/soak scenario DSL |
//! | [`core`] | `deep-core` | the DEEP scheduler, baselines, experiments |
//! | [`arrival`] | `deep-arrival` | online arrival plane w/ incremental repair |
//!
//! ## Quickstart
//!
//! ```
//! use deep::core::{calibration, DeepScheduler, Scheduler};
//! use deep::dataflow::apps;
//! use deep::simulator::{execute, ExecutorConfig};
//!
//! // The paper's two-device testbed, calibrated against Table II.
//! let mut testbed = calibration::calibrated_testbed();
//! let app = apps::text_processing();
//!
//! // DEEP's nash-game schedule: joint (registry, device) per microservice.
//! let schedule = DeepScheduler::paper().schedule(&app, &testbed);
//!
//! // Execute on the simulated testbed and read the energy bill.
//! let (report, _trace) =
//!     execute(&mut testbed, &app, &schedule, &ExecutorConfig::default()).unwrap();
//! assert!(report.total_energy().as_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use deep_arrival as arrival;
pub use deep_core as core;
pub use deep_dataflow as dataflow;
pub use deep_energy as energy;
pub use deep_game as game;
pub use deep_netsim as netsim;
pub use deep_objectstore as objectstore;
pub use deep_registry as registry;
pub use deep_scenario as scenario;
pub use deep_simulator as simulator;
