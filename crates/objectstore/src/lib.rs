//! MinIO-like S3-compatible object store.
//!
//! The paper's regional Docker registry is "a MinIO-based Docker registry
//! locally deployed in our laboratory" — a registry whose blob storage is
//! an S3-compatible object store "provisioned on a local server with a
//! specific storage capacity according to the user's requirements (e.g.,
//! 100 GB)". This crate is that substrate:
//!
//! * [`store`] — buckets and objects with ETags, capacity quotas, listing
//!   (the S3 surface the registry uses);
//! * [`hash64`] — the wide checksum behind the ETags;
//! * [`gf256`] / [`erasure`] — GF(2^8) arithmetic and systematic
//!   Reed–Solomon coding, MinIO's storage-redundancy mechanism;
//! * [`drives`] — an erasure-set of simulated drives with failure and
//!   healing, mirroring MinIO's drive model.
//!
//! Everything is in-memory and deterministic; latency/bandwidth are
//! supplied by `deep-netsim` at the layer above.

pub mod drives;
pub mod erasure;
pub mod gf256;
pub mod hash64;
pub mod store;

pub use drives::{DriveSet, DriveSetError};
pub use erasure::{ErasureCoder, ErasureError};
pub use hash64::{checksum64, Hash64};
pub use store::{Bucket, ObjectMeta, ObjectStore, StoreError};
