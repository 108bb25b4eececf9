//! Pull-path performance and the layer-cache ablation (ablation 2 of
//! `deep_core::ablation`): cold pulls vs sibling-deduped pulls vs fully warm pulls.
//!
//! `resolve/*` times one regional manifest resolve: `regional_warm`
//! reads bytes its lineage already verified (parse memo hit: two store
//! reads and a byte compare), `regional_cold` a fresh lineage over the
//! same stored objects each iteration (SHA-256 verify plus JSON parse).
//!
//! `gc/paper_fork` is the chaos replays' `registry-gc` event: a
//! mark-and-sweep over a fork of the paper catalog registry, whose
//! manifests its lineage already verified (marks read through the parse
//! memo). `has_blob/regional` asks the regional registry for every layer
//! of one manifest plus one absent digest.

use criterion::{criterion_group, criterion_main, Criterion};
use deep_netsim::{Bandwidth, DataSize, Seconds};
use deep_registry::catalog::REGIONAL_HOST;
use deep_registry::{
    gc_collect, BlobSource, Digest, HubRegistry, LayerCache, ManifestSource, Platform, PullPlanner,
    Reference, RegionalRegistry,
};
use std::hint::black_box;

fn planner() -> PullPlanner {
    PullPlanner {
        download_bw: Bandwidth::megabytes_per_sec(13.0),
        extract_bw: Bandwidth::megabytes_per_sec(12.6),
        overhead: Seconds::new(25.0),
    }
}

fn bench_pull_paths(c: &mut Criterion) {
    let hub = HubRegistry::with_paper_catalog();
    let p = planner();
    let ha = Reference::new("docker.io", "sina88/vp-ha-train", "amd64");
    let la = Reference::new("docker.io", "sina88/vp-la-train", "amd64");

    c.bench_function("pull_cold_5.78GB_image", |b| {
        b.iter(|| {
            let mut cache = LayerCache::new(DataSize::gigabytes(64.0));
            black_box(p.pull(&hub, &ha, Platform::Amd64, &mut cache).unwrap())
        })
    });

    c.bench_function("pull_sibling_deduped", |b| {
        b.iter(|| {
            let mut cache = LayerCache::new(DataSize::gigabytes(64.0));
            p.pull(&hub, &la, Platform::Amd64, &mut cache).unwrap();
            black_box(p.pull(&hub, &ha, Platform::Amd64, &mut cache).unwrap())
        })
    });

    c.bench_function("pull_fully_warm", |b| {
        let mut cache = LayerCache::new(DataSize::gigabytes(64.0));
        p.pull(&hub, &ha, Platform::Amd64, &mut cache).unwrap();
        b.iter(|| black_box(p.pull(&hub, &ha, Platform::Amd64, &mut cache).unwrap()))
    });

    c.bench_function("estimate_counterfactual", |b| {
        let mut cache = LayerCache::new(DataSize::gigabytes(64.0));
        p.pull(&hub, &la, Platform::Amd64, &mut cache).unwrap();
        b.iter(|| black_box(p.estimate(&hub, &ha, Platform::Amd64, &cache).unwrap()))
    });
}

fn bench_catalog_wide_pull(c: &mut Criterion) {
    // Deploy the whole 12-image catalog onto one cache (the full testbed
    // warm-up path).
    let hub = HubRegistry::with_paper_catalog();
    let p = planner();
    let refs: Vec<Reference> =
        deep_registry::paper_catalog().iter().map(|e| e.hub_reference(Platform::Amd64)).collect();
    c.bench_function("pull_entire_catalog_amd64", |b| {
        b.iter(|| {
            let mut cache = LayerCache::new(DataSize::gigabytes(64.0));
            for r in &refs {
                p.pull(&hub, r, Platform::Amd64, &mut cache).unwrap();
            }
            black_box(cache.used())
        })
    });
}

fn bench_regional_resolve(c: &mut Criterion) {
    let reg = RegionalRegistry::with_paper_catalog();
    let r = Reference::new(REGIONAL_HOST, "aau/vp-ha-train", "amd64");
    let mut group = c.benchmark_group("resolve");
    group.bench_function("regional_warm", |b| {
        reg.resolve(&r, Platform::Amd64).unwrap();
        b.iter(|| black_box(reg.resolve(&r, Platform::Amd64).unwrap()))
    });
    group.bench_function("regional_cold", |b| {
        b.iter(|| {
            // `new` starts a lineage with an empty parse memo; the
            // forked store is a copy-on-write view of the same objects.
            let fresh = RegionalRegistry::new(REGIONAL_HOST, reg.store().fork());
            black_box(fresh.resolve(&r, Platform::Amd64).unwrap())
        })
    });
    group.finish();
}

fn bench_regional_gc(c: &mut Criterion) {
    let reg = RegionalRegistry::with_paper_catalog();
    let mut group = c.benchmark_group("gc");
    group.bench_function("paper_fork", |b| {
        b.iter(|| {
            let mut fork = reg.fork();
            black_box(gc_collect(&mut fork).unwrap())
        })
    });
    group.finish();
}

fn bench_regional_has_blob(c: &mut Criterion) {
    let reg = RegionalRegistry::with_paper_catalog();
    let r = Reference::new(REGIONAL_HOST, "aau/vp-ha-train", "amd64");
    let mut digests: Vec<Digest> =
        reg.resolve(&r, Platform::Amd64).unwrap().layers.iter().map(|l| l.digest.clone()).collect();
    digests.push(Digest::of(b"absent layer"));
    let mut group = c.benchmark_group("has_blob");
    group.bench_function("regional", |b| {
        b.iter(|| digests.iter().filter(|d| reg.has_blob(black_box(d))).count())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pull_paths,
    bench_catalog_wide_pull,
    bench_regional_resolve,
    bench_regional_gc,
    bench_regional_has_blob
);

criterion_main!(benches);
