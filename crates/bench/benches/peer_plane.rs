//! Peer-plane cost: per-pair per-holder selection and upload-contention
//! pricing vs the scalar aggregate baseline.
//!
//! Two altitudes:
//!
//! * `estimate/*` — one pull session planned against an N-holder mesh
//!   (per-layer cheapest-source scans grow with the holder count) vs
//!   the single aggregated source;
//! * `schedule/*` — the peer-aware Nash scheduler on a warm continuum
//!   fleet under each plane representation (payoffs price per-holder
//!   links and uplink loads vs the anonymous scalar route).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use deep_core::{continuum_testbed, DeepScheduler, Scheduler};
use deep_dataflow::apps;
use deep_netsim::{Bandwidth, DataSize, DeviceId, RegistryId, Seconds};
use deep_registry::{
    HubRegistry, LayerCache, PeerCacheSource, Platform, Reference, RegistryMesh, SourceParams,
};
use deep_simulator::{
    execute, peer_source_id, ExecutorConfig, PeerPlane, RegistryChoice, Schedule, Testbed,
    DEVICE_MEDIUM, REGISTRY_PEER,
};

fn hub_params() -> SourceParams {
    SourceParams { download_bw: Bandwidth::megabytes_per_sec(13.0), overhead: Seconds::new(25.0) }
}

fn peer_params() -> SourceParams {
    SourceParams { download_bw: Bandwidth::megabytes_per_sec(80.0), overhead: Seconds::new(1.0) }
}

/// A cache warmed with the sibling la-train image (the shared 5.2 GB
/// training stack) — what every holder advertises.
fn warm_cache() -> LayerCache {
    let hub = HubRegistry::with_paper_catalog();
    let mut cache = LayerCache::new(DataSize::gigabytes(64.0));
    let mut mesh = RegistryMesh::new();
    mesh.add_registry(RegistryId(0), &hub, hub_params());
    mesh.session(RegistryId(0))
        .pull(
            &Reference::new("docker.io", "sina88/vp-la-train", "amd64"),
            Platform::Amd64,
            &mut cache,
        )
        .unwrap();
    cache
}

fn bench_estimate(c: &mut Criterion) {
    let hub = HubRegistry::with_paper_catalog();
    let cache = warm_cache();
    let reference = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
    let empty = LayerCache::new(DataSize::gigabytes(64.0));
    let mut group = c.benchmark_group("peer_plane_estimate");
    // Scalar baseline: one aggregated source.
    let aggregate = PeerCacheSource::from_caches("peer-cache", [&cache]);
    group.bench_function("aggregate", |b| {
        let mut mesh = RegistryMesh::new();
        mesh.add_registry(RegistryId(0), &hub, hub_params());
        mesh.add_blob_source(REGISTRY_PEER, &aggregate, peer_params());
        b.iter(|| {
            black_box(
                mesh.session(RegistryId(0)).estimate(&reference, Platform::Amd64, &empty).unwrap(),
            )
        })
    });
    // Per-holder planes: every holder advertises the stack, so each
    // layer's cheapest-source scan walks all of them.
    for holders in [4usize, 16, 64] {
        let sources: Vec<PeerCacheSource> =
            (0..holders).map(|j| PeerCacheSource::for_holder(DeviceId(j + 1), &cache)).collect();
        let id = format!("per_pair_{holders}");
        group.bench_function(id.as_str(), |b| {
            let mut mesh = RegistryMesh::new();
            mesh.add_registry(RegistryId(0), &hub, hub_params());
            for (j, source) in sources.iter().enumerate() {
                mesh.add_blob_source(peer_source_id(DeviceId(j + 1)), source, peer_params());
            }
            b.iter(|| {
                black_box(
                    mesh.session(RegistryId(0))
                        .estimate(&reference, Platform::Amd64, &empty)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

/// A warm continuum fleet (the medium device ran the video app).
fn warm_fleet(aggregate: bool) -> Testbed {
    let mut tb = continuum_testbed();
    if aggregate {
        tb.peer_plane = PeerPlane::Aggregate;
    }
    let app = apps::video_processing();
    let warm = Schedule::uniform(app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
    execute(&mut tb, &app, &warm, &ExecutorConfig::default()).unwrap();
    tb
}

fn bench_schedule(c: &mut Criterion) {
    let app = apps::video_processing();
    let mut group = c.benchmark_group("peer_plane_schedule");
    for (label, aggregate) in [("aggregate", true), ("per_pair", false)] {
        let tb = warm_fleet(aggregate);
        group.bench_function(label, |b| {
            b.iter(|| black_box(DeepScheduler::with_peer_sharing().schedule(&app, &tb)))
        });
    }
    // A hot uplink makes the per-pair payoffs genuinely non-uniform.
    let mut hot = warm_fleet(false);
    hot.set_peer_uplink(DEVICE_MEDIUM, Bandwidth::megabytes_per_sec(16.0));
    group.bench_function("per_pair_hot_uplink", |b| {
        b.iter(|| black_box(DeepScheduler::with_peer_sharing().schedule(&app, &hot)))
    });
    group.finish();
}

criterion_group!(benches, bench_estimate, bench_schedule);
criterion_main!(benches);
