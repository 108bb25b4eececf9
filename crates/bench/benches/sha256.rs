//! SHA-256 throughput — the content-address function of the registry.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use deep_registry::sha256::{sha256, Sha256};
use std::hint::black_box;

fn bench_oneshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256_oneshot");
    // 300 B is a manifest body, the input a regional push or resolve
    // hashes; the larger sizes show the compression loop's throughput.
    for size in [300usize, 1 << 10, 1 << 16, 1 << 20] {
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(sha256(d)))
        });
    }
    group.finish();
}

fn bench_incremental(c: &mut Criterion) {
    // Layer-by-layer hashing as a registry push would do it.
    let chunk = vec![0xabu8; 8192];
    c.bench_function("sha256_incremental_64k_in_8k_chunks", |b| {
        b.iter(|| {
            let mut h = Sha256::new();
            for _ in 0..8 {
                h.update(&chunk);
            }
            black_box(h.finalize())
        })
    });
}

criterion_group!(benches, bench_oneshot, bench_incremental);
criterion_main!(benches);
