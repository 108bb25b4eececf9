//! MinIO-like S3-compatible object store.
//!
//! The paper's regional Docker registry is "a MinIO-based Docker registry
//! locally deployed in our laboratory" — a registry whose blob storage is
//! an S3-compatible object store "provisioned on a local server with a
//! specific storage capacity according to the user's requirements (e.g.,
//! 100 GB)". This crate is that substrate, the S3 surface the registry
//! uses:
//!
//! * [`store`] — buckets and objects with ETags, capacity quotas, listing;
//! * [`hash64`] — the wide checksum behind the ETags.
//!
//! Everything is in-memory and deterministic; latency/bandwidth are
//! supplied by `deep-netsim` at the layer above.

#![forbid(unsafe_code)]

pub mod hash64;
pub mod store;

pub use hash64::{checksum64, Hash64};
pub use store::{Bucket, ObjectMeta, ObjectStore, StoreError};
