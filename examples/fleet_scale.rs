//! Fleet-scale solve grid: the scheduler's pruned payoff scan at 10³
//! devices.
//!
//! Builds seeded synthetic fleets over a devices × registries grid
//! (calibrated continuum archetypes with splitmix64-jittered
//! heterogeneity, regional mirrors at seeded site rates), schedules a
//! generated dataflow on each, and prints the solve-time grid. The
//! headline cell is the acceptance bar: the 1,000-device / 10-registry
//! fleet must reach a *verified* equilibrium (sampled
//! unilateral-deviation check) in under a second. A last 10,000-device /
//! 10-registry cell must *build* in under a second: the testbed derives
//! its links from device class, so its size grows linearly with the
//! fleet.
//!
//! Schedules are byte-deterministic in the fleet seed; the timing
//! columns are wall-clock and vary run to run (the criterion curve
//! lives in `benches/nash_mesh.rs`, recorded in PERF.md).
//!
//! Run with `cargo run --release --example fleet_scale`.

use deep::core::{continuum, DeepScheduler, Scheduler};
use deep::dataflow::DagGenerator;
use std::time::Instant;

fn main() {
    let devices = [50usize, 200, 1000];
    let registries = [2usize, 5, 10];
    let gen = DagGenerator { stages: 5, width: (2, 4), ..DagGenerator::default() };
    let app = gen.generate(42);
    let sched = DeepScheduler::paper();

    println!("Fleet-scale solve grid — app `{}` ({} microservices)\n", app.name(), app.len());
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12}",
        "devices", "registries", "build", "solve", "verify"
    );

    let grid = devices.iter().flat_map(|&d| registries.iter().map(move |&r| (d, r)));
    for (d, r) in grid.chain([(10_000, 10)]) {
        let t0 = Instant::now();
        let mut tb = continuum::synthetic_fleet_testbed(d, r, 42);
        tb.publish_application(&app);
        let build = t0.elapsed();

        let t1 = Instant::now();
        let schedule = sched.schedule(&app, &tb);
        let solve = t1.elapsed();

        let t2 = Instant::now();
        let verified = sched.is_equilibrium_sampled(&app, &tb, &schedule, 32, 7);
        let verify = t2.elapsed();
        assert!(verified, "{d} devices / {r} registries: sampled deviation check failed");

        println!("{d:>8} {r:>10} {build:>12.2?} {solve:>12.2?} {verify:>12.2?}");
        if d == 10_000 {
            assert!(build.as_secs_f64() < 1.0, "10,000-device fleet took {build:.2?} to build");
        }

        if d == 1000 && r == 10 {
            let total = solve + verify;
            println!(
                "\nheadline: 1,000-device / 10-registry fleet solved + verified in {total:.2?} \
                 ({})\n",
                if total.as_secs_f64() < 1.0 { "under the 1 s bar" } else { "OVER the 1 s bar" }
            );
        }
    }
}
