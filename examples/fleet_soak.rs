//! Fleet-scale arrival soak: gossip discovery and scenario-priced
//! admissions at 800 devices, where delta gossip (only advertisements
//! newer than a partner's copy are exchanged) and memoized per-pull
//! fatal draws keep both hot paths cheap.
//!
//! Builds a seeded 800-device synthetic fleet (calibrated continuum
//! archetypes, 3-registry mesh), warms it with one executed deployment,
//! then drives those two hot paths and prints their wall-clock:
//!
//! * **Wave barriers** — the epidemic advertise-and-spread step the
//!   executor pays at every wave. The first barriers do real delta
//!   exchange work while the fleet converges; once nothing moves, the
//!   stale counters collapse every exchange to an O(1) no-op, so the
//!   steady-state rows should sit orders of magnitude below the first.
//! * **Admissions** — one arriving application priced and placed under
//!   the scenario-priced scheduler (Monte-Carlo `E[Td]`, 64 draws, flaky
//!   regional) with gossip discovery on, as a full solve. The solved
//!   schedule then executes once, which warms the fleet with the
//!   application's layers, and is repaired on the warmed fleet. The
//!   warmed caches reprice every cell, so the incumbent need not be an
//!   equilibrium there and the repair can move members. Each repair
//!   must pass a sampled equilibrium check.
//!
//! Wall-clock varies run to run; the criterion curves live in
//! `benches/gossip_rounds.rs` and `benches/soak_scale.rs` (PERF.md).
//!
//! Run with `cargo run --release --example fleet_soak`.

use deep::arrival::DEFAULT_DEVIATION_BUDGET;
use deep::core::{continuum, DeepScheduler, Scheduler};
use deep::dataflow::DagGenerator;
use deep::registry::{FaultRates, LayerCache};
use deep::simulator::{
    execute, ExecutorConfig, GossipPlane, PeerDiscovery, RegistryChoice, Schedule, DEVICE_MEDIUM,
};
use std::time::Instant;

const DEVICES: usize = 800;
const DRAWS: u32 = 64;
const DISCOVERY: PeerDiscovery =
    PeerDiscovery::Gossip { fanout: 3, view_size: 8, rounds_per_wave: 1 };

fn main() {
    let gen = DagGenerator { stages: 4, width: (2, 3), ..DagGenerator::default() };
    let warm_app = gen.generate(42);

    let t0 = Instant::now();
    let mut tb = continuum::synthetic_fleet_testbed(DEVICES, 3, 42);
    tb.publish_application(&warm_app);
    tb.fault_model = tb.fault_model.clone().with_source(
        RegistryChoice::Regional.registry_id(),
        FaultRates { fatal_per_pull: 0.2, transient_per_fetch: 0.1 },
    );
    println!("fleet: {DEVICES} devices, 3 registries (built in {:.2?})", t0.elapsed());

    // Warm the fleet: one executed deployment leaves real layer caches
    // for the epidemic to advertise.
    let warm = Schedule::uniform(warm_app.len(), RegistryChoice::Hub, DEVICE_MEDIUM);
    execute(&mut tb, &warm_app, &warm, &ExecutorConfig::default()).expect("warm run executes");

    // --- Wave barriers: converging first rounds, then steady state. ---
    let caches: Vec<&LayerCache> = tb.devices.iter().map(|d| &d.cache).collect();
    let mut plane = GossipPlane::new(DEVICES, 3, 8, 1, 42);
    println!("\nwave barriers ({} devices, fanout 3, view 8):", DEVICES);
    println!("{:>6} {:>14} {:>12}", "wave", "barrier", "regime");
    for wave in 0..8 {
        let t = Instant::now();
        plane.barrier_round(&caches);
        let dt = t.elapsed();
        let regime = if wave < 2 { "converging" } else { "steady (unchanged fleet)" };
        println!("{wave:>6} {dt:>14.2?} {regime:>12}");
    }

    // --- Admissions: scenario-priced solve per arriving app. ---
    let scheduler = DeepScheduler {
        peer_sharing: true,
        peer_discovery: DISCOVERY,
        ..DeepScheduler::scenario_priced(DRAWS, 7)
    };
    let cfg = ExecutorConfig {
        peer_sharing: true,
        peer_discovery: DISCOVERY,
        ..ExecutorConfig::default()
    };
    println!("\nadmissions (scenario-priced, {DRAWS} draws, gossip discovery):");
    println!(
        "{:>10} {:>6} {:>14} {:>14} {:>6}",
        "arrival", "|MS|", "full solve", "warm repair", "moved"
    );
    for (k, seed) in [7u64, 19, 31].into_iter().enumerate() {
        let app = gen.generate(seed);
        tb.publish_application(&app);
        let t_full = Instant::now();
        let incumbent = scheduler.schedule(&app, &tb);
        let full = t_full.elapsed();
        execute(&mut tb, &app, &incumbent, &cfg).expect("the incumbent executes");
        let t_rep = Instant::now();
        let repaired =
            scheduler.incremental_repair(&app, &tb, &incumbent, DEFAULT_DEVIATION_BUDGET);
        let repair = t_rep.elapsed();
        assert!(!repaired.fell_back, "the incumbent fits the warmed fleet");
        assert!(
            scheduler.is_equilibrium_sampled(&app, &tb, &repaired.schedule, 32, seed),
            "arrival {k}: the repair is not an equilibrium"
        );
        println!(
            "{k:>10} {:>6} {full:>14.2?} {repair:>14.2?} {:>6}",
            app.len(),
            repaired.deviations
        );
    }
    println!("\ndone — criterion curves: benches/gossip_rounds.rs, benches/soak_scale.rs");
}
