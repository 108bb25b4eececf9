//! MinIO-like S3-compatible object store.
//!
//! The paper's regional Docker registry is "a MinIO-based Docker registry
//! locally deployed in our laboratory" — a registry whose blob storage is
//! an S3-compatible object store "provisioned on a local server with a
//! specific storage capacity according to the user's requirements (e.g.,
//! 100 GB)". This crate is that substrate, the S3 surface the registry
//! uses:
//!
//! [`store`] holds buckets of key → bytes objects under a capacity quota,
//! with prefix listing and copy-on-write forks. Objects carry no ETag or checksum:
//! the registry addresses every blob and manifest by its SHA-256 digest
//! and keeps a digest sidecar per manifest, which is the integrity check.
//!
//! Everything is in-memory and deterministic; latency/bandwidth are
//! supplied by `deep-netsim` at the layer above.

#![forbid(unsafe_code)]

pub mod store;

pub use store::{Bucket, ObjectMeta, ObjectStore, StoreError};
