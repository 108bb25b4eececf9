//! Energy substrate performance: the per-phase power model that prices
//! every microservice's energy.

use criterion::{criterion_group, criterion_main, Criterion};
use deep_energy::{DevicePowerModel, Watts};
use deep_netsim::Seconds;
use std::hint::black_box;

fn bench_power_model(c: &mut Criterion) {
    let model = DevicePowerModel::per_phase(
        Watts::new(2.0),
        Watts::new(2.5),
        Watts::new(2.0),
        Watts::new(6.0),
    );
    c.bench_function("power_model_energy", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for i in 0..1_000 {
                let td = Seconds::new(10.0 + i as f64 * 0.01);
                let e = model.energy(td, Seconds::new(1.0), Seconds::new(100.0));
                total += e.as_f64();
            }
            black_box(total)
        })
    });
}

criterion_group!(benches, bench_power_model);
criterion_main!(benches);
