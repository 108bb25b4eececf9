//! The mesh pull path end to end: resolve → diff → fetch over the paper
//! catalog, through `PullSession` — single-source (the seed-parity path),
//! split (hub + regional + warm peer), the executor's fault-injected pull
//! (retry policy, injected plan, standbys), and the scheduler's estimate
//! side.

use criterion::{criterion_group, criterion_main, Criterion};
use deep_netsim::{Bandwidth, DataSize, RegistryId, Seconds};
use deep_registry::{
    paper_catalog, FaultModel, FaultRates, HubRegistry, LayerCache, PeerCacheSource, Platform,
    PullSession, Reference, RegionalRegistry, RegistryMesh, RetryPolicy, SourceParams,
};
use std::hint::black_box;

const HUB: RegistryId = RegistryId(0);
const REGIONAL: RegistryId = RegistryId(1);
const PEER: RegistryId = RegistryId(2);
const MIRROR: RegistryId = RegistryId(3);

fn hub_params() -> SourceParams {
    SourceParams { download_bw: Bandwidth::megabytes_per_sec(13.0), overhead: Seconds::new(25.0) }
}

fn regional_params() -> SourceParams {
    SourceParams { download_bw: Bandwidth::megabytes_per_sec(8.0), overhead: Seconds::new(5.0) }
}

fn peer_params() -> SourceParams {
    SourceParams { download_bw: Bandwidth::megabytes_per_sec(80.0), overhead: Seconds::new(1.0) }
}

fn cache() -> LayerCache {
    LayerCache::new(DataSize::gigabytes(64.0))
}

fn bench_single_source(c: &mut Criterion) {
    let hub = HubRegistry::with_paper_catalog();
    let mut mesh = RegistryMesh::new();
    mesh.add_registry(HUB, &hub, hub_params());
    let refs: Vec<Reference> =
        paper_catalog().iter().map(|e| e.hub_reference(Platform::Amd64)).collect();

    c.bench_function("pull_path_catalog_single_source", |b| {
        // Resolve → diff → fetch for all 12 images into one cold cache
        // (cross-image dedup exercised).
        b.iter(|| {
            let session =
                PullSession::new(&mesh, HUB).extract_bw(Bandwidth::megabytes_per_sec(12.6));
            let mut cache = cache();
            for r in &refs {
                black_box(session.pull(r, Platform::Amd64, &mut cache).unwrap());
            }
        })
    });

    c.bench_function("pull_path_catalog_warm", |b| {
        let session = PullSession::new(&mesh, HUB).extract_bw(Bandwidth::megabytes_per_sec(12.6));
        let mut warm = cache();
        for r in &refs {
            session.pull(r, Platform::Amd64, &mut warm).unwrap();
        }
        b.iter(|| {
            for r in &refs {
                black_box(session.pull(r, Platform::Amd64, &mut warm).unwrap());
            }
        })
    });
}

fn bench_split_pull(c: &mut Criterion) {
    let hub = HubRegistry::with_paper_catalog();
    let regional = RegionalRegistry::with_paper_catalog();
    // A fleet peer holding the whole catalog: every shared layer rides
    // the peer route, forcing per-layer source selection on each pull.
    let mut peer_cache = cache();
    {
        let mut warm_mesh = RegistryMesh::new();
        warm_mesh.add_registry(HUB, &hub, hub_params());
        let warm = PullSession::new(&warm_mesh, HUB);
        for e in paper_catalog() {
            warm.pull(&e.hub_reference(Platform::Amd64), Platform::Amd64, &mut peer_cache).unwrap();
        }
    }
    let peer = PeerCacheSource::from_caches("peer-cache", [&peer_cache]);

    let mut mesh = RegistryMesh::new();
    mesh.add_registry(HUB, &hub, hub_params());
    mesh.add_registry(REGIONAL, &regional, regional_params());
    mesh.add_blob_source(PEER, &peer, peer_params());
    let refs: Vec<Reference> =
        paper_catalog().iter().map(|e| e.hub_reference(Platform::Amd64)).collect();

    c.bench_function("pull_path_catalog_split_mesh", |b| {
        b.iter(|| {
            let session =
                PullSession::new(&mesh, HUB).extract_bw(Bandwidth::megabytes_per_sec(12.6));
            let mut device = cache();
            for r in &refs {
                black_box(session.pull(r, Platform::Amd64, &mut device).unwrap());
            }
        })
    });

    c.bench_function("pull_path_estimate_counterfactual", |b| {
        let session = PullSession::new(&mesh, HUB);
        let device = cache();
        let ha = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
        b.iter(|| black_box(session.estimate(&ha, Platform::Amd64, &device).unwrap()))
    });
}

/// The pull the executor realises under fault injection: the regional
/// registry as primary, every other full registry (hub, one mirror) as a
/// failover-only standby, the model's retry policy and an injected plan
/// (a fault-sweep cell's rates on both paper registries), each pull
/// numbered in execution order. All twelve catalog images go into one
/// cold cache per iteration.
fn bench_executed_pull(c: &mut Criterion) {
    let hub = HubRegistry::with_paper_catalog();
    let regional = RegionalRegistry::with_paper_catalog();
    let mirror = RegionalRegistry::with_paper_catalog();
    let mut mesh = RegistryMesh::new();
    mesh.add_registry(REGIONAL, &regional, regional_params());
    mesh.add_standby_registry(HUB, &hub, hub_params());
    mesh.add_standby_registry(MIRROR, &mirror, regional_params());
    let rates = FaultRates { fatal_per_pull: 0.2, transient_per_fetch: 0.2 };
    let retry =
        RetryPolicy { max_attempts: 4, base_backoff: Seconds::new(10.0), ..Default::default() };
    let plan = FaultModel::default()
        .with_source(REGIONAL, rates)
        .with_source(HUB, rates)
        .with_retry(retry)
        .plan(7);
    let refs: Vec<Reference> =
        paper_catalog().iter().map(|e| e.regional_reference(Platform::Amd64)).collect();

    c.bench_function("pull_path_executed_with_faults", |b| {
        b.iter(|| {
            let mut device = cache();
            for (pull, r) in refs.iter().enumerate() {
                let session = PullSession::new(&mesh, REGIONAL)
                    .extract_bw(Bandwidth::megabytes_per_sec(12.6))
                    .with_retry(plan.model().retry)
                    .with_faults(&plan, pull as u64, Seconds::ZERO);
                black_box(session.pull(r, Platform::Amd64, &mut device).unwrap());
            }
        })
    });
}

criterion_group!(benches, bench_single_source, bench_split_pull, bench_executed_pull);
criterion_main!(benches);
