//! Gossip round cost: what one wave-barrier epidemic step costs the
//! executor at fleet scale, and how the bounded mesh materialization
//! scales with the view size.
//!
//! Four altitudes:
//!
//! * `barrier_round/*` — one advertise-and-spread barrier over an
//!   n-device fleet (ad refresh scan + fanout-bounded push/pull
//!   exchanges). Each iteration clones a fresh plane: rounds converge,
//!   and a converged plane would measure the no-op refresh path.
//! * `barrier_round_sparse/*` — the same converging barrier over the
//!   fleet shape admissions actually see: 800 devices of which only 8
//!   hold any layer. Empty caches stay silent, so the plane carries 8
//!   epoch columns instead of 800 and exchanges walk only those.
//! * `barrier_round_unchanged/*` — the steady-state barrier on a fleet
//!   whose caches have not moved since the last wave: the delta plane's
//!   stale counters turn every exchange into an O(1) no-op, so this is
//!   the price the executor pays at *every* wave of a quiet soak.
//! * `mesh_view/*` — one pull's bounded view off the plane: the
//!   selection over the advertisers plus a clone of each selected
//!   advertisement's retracted source, which the plane builds once per
//!   generation and shares (the common case: nothing moved since the
//!   wave's barrier).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use deep_netsim::DataSize;
use deep_registry::{Digest, LayerCache};
use deep_simulator::GossipPlane;

const FANOUT: u32 = 3;

/// An n-device fleet where every 8th device holds a few layers — enough
/// non-empty advertisements that views and selections do real work.
fn fleet_caches(devices: usize) -> Vec<LayerCache> {
    let mut caches = vec![LayerCache::new(DataSize::gigabytes(64.0)); devices];
    for (j, cache) in caches.iter_mut().enumerate().step_by(8) {
        for layer in 0..=(j % 5) {
            cache.insert(Digest::of(&[(j % 251) as u8, layer as u8]), DataSize::megabytes(40.0));
        }
    }
    caches
}

fn bench_barrier_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrier_round");
    for &devices in &[50usize, 200, 800, 1600] {
        let caches = fleet_caches(devices);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        let plane = GossipPlane::new(devices, FANOUT, 8, 1, 42);
        group.bench_function(format!("devices_{devices}").as_str(), |b| {
            b.iter(|| {
                let mut fresh = plane.clone();
                fresh.barrier_round(black_box(&refs));
                black_box(fresh.rounds_run())
            })
        });
    }
    group.finish();
}

/// An n-device fleet where only `warm` evenly spaced devices hold
/// layers and every other cache is empty.
fn sparse_caches(devices: usize, warm: usize) -> Vec<LayerCache> {
    let mut caches = vec![LayerCache::new(DataSize::gigabytes(64.0)); devices];
    for (j, cache) in caches.iter_mut().enumerate().step_by(devices / warm).take(warm) {
        for layer in 0..4u8 {
            cache.insert(Digest::of(&[(j % 251) as u8, layer]), DataSize::megabytes(40.0));
        }
    }
    caches
}

fn bench_barrier_round_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrier_round_sparse");
    let (devices, warm) = (800usize, 8usize);
    let caches = sparse_caches(devices, warm);
    let refs: Vec<&LayerCache> = caches.iter().collect();
    let plane = GossipPlane::new(devices, FANOUT, 8, 1, 42);
    group.bench_function(format!("devices_{devices}_warm_{warm}").as_str(), |b| {
        b.iter(|| {
            let mut fresh = plane.clone();
            fresh.barrier_round(black_box(&refs));
            black_box(fresh.rounds_run())
        })
    });
    group.finish();
}

fn bench_barrier_round_unchanged(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrier_round_unchanged");
    for &devices in &[200usize, 800] {
        let caches = fleet_caches(devices);
        let refs: Vec<&LayerCache> = caches.iter().collect();
        // Warm the plane past convergence so every further barrier sees
        // an unchanged fleet: no cache diverged, every partner pair is
        // mutually up to date.
        let mut plane = GossipPlane::new(devices, FANOUT, 8, 1, 42);
        for _ in 0..8 {
            plane.barrier_round(&refs);
        }
        group.bench_function(format!("devices_{devices}").as_str(), |b| {
            b.iter(|| {
                plane.barrier_round(black_box(&refs));
                black_box(plane.rounds_run())
            })
        });
    }
    group.finish();
}

fn bench_mesh_view(c: &mut Criterion) {
    let devices = 200usize;
    let caches = fleet_caches(devices);
    let refs: Vec<&LayerCache> = caches.iter().collect();
    // Shared replay: the plane retracts each advertisement once per
    // generation; every further call selects and clones the shared
    // sources.
    let mut group = c.benchmark_group("mesh_view");
    for &view_size in &[2u32, 8, 32, u32::MAX] {
        let mut bounded = {
            let mut p = GossipPlane::new(devices, u32::MAX, view_size, 1, 42);
            p.barrier_round(&refs);
            p
        };
        let label =
            if view_size == u32::MAX { "unbounded".into() } else { format!("view_{view_size}") };
        group.bench_function(label.as_str(), |b| {
            b.iter(|| black_box(bounded.mesh_view(black_box(&refs), 3)).len())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_barrier_round,
    bench_barrier_round_sparse,
    bench_barrier_round_unchanged,
    bench_mesh_view
);
criterion_main!(benches);
