//! Arrival runner: drive a TOML scenario's `[[arrivals]]` timeline
//! through the online plane and compare re-equilibration policies.
//!
//! Loads a scenario file (see `docs/SCENARIOS.md` and `scenarios/`),
//! expands its sweep axes, and runs every expanded cell twice:
//!
//! * **full-resolve** — the periodic baseline that re-solves the whole
//!   mesh game from scratch on every admission;
//! * **incremental-repair** — repairs the incumbent equilibrium,
//!   moving only members with an improving deviation, and falls back to
//!   a full re-solve only past the budget of moved members or across a
//!   fault-window boundary.
//!
//! The headline is repair quality at a fraction of the solve work:
//! repair must hold steady-state mean `Td` within 2% of the baseline
//! while re-solving the full game only where the fault landscape
//! forces it (the `full-solves` column). Per-admission solve *time* is
//! wall-clock and lives in the `benches/arrival_soak.rs` criterion
//! bench — this example's output is byte-deterministic across runs,
//! like every other example in the workspace.
//!
//! Run with `cargo run --release --example arrival_runner` (defaults to
//! the checked-in arrival soak) or pass a scenario path:
//! `cargo run --release --example arrival_runner -- scenarios/arrival_soak.toml`.

use deep::arrival::{run_plane, ArrivalPlane, RepairPolicy};
use deep::scenario::Scenario;

fn main() {
    let default = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/arrival_soak.toml");
    let path = std::env::args().nth(1).unwrap_or_else(|| default.to_string());
    let scenario = match Scenario::load(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "Scenario `{}` — {}, {} replication(s) from seed {}, {} arrival stream(s):",
        scenario.name,
        scenario.app,
        scenario.replications,
        scenario.seed,
        scenario.arrivals.len()
    );
    println!(
        "{:>28} {:>18} {:>10} {:>10} {:>9} {:>7} {:>11} {:>10}",
        "cell",
        "policy",
        "mean Td[s]",
        "p95 Td[s]",
        "react[s]",
        "queue",
        "full-solves",
        "deviations"
    );
    for cell in scenario.expand() {
        let full = run_plane(
            &cell,
            &ArrivalPlane { policy: RepairPolicy::Full, ..ArrivalPlane::default() },
        );
        let repair = run_plane(&cell, &ArrivalPlane::default());
        for outcome in [&full, &repair] {
            println!(
                "{:>28} {:>18} {:>10.1} {:>10.1} {:>9.1} {:>7.2} {:>6}/{:<4} {:>10}",
                cell.name,
                outcome.policy,
                outcome.mean_td(),
                outcome.percentile_td(95.0),
                outcome.mean_time_to_react(),
                outcome.mean_queue_depth(),
                outcome.jobs.iter().filter(|j| j.repair.full_solve).count(),
                outcome.jobs.len(),
                outcome.total_deviations()
            );
        }
        let drift = (repair.mean_td() / full.mean_td() - 1.0) * 100.0;
        println!("{:>28} repair drift {:+.2}%, {} fallback(s)", "", drift, repair.fallbacks());
    }
    println!(
        "\nBoth policies admit the same seeded arrival timeline at the same wave\n\
         barriers; only the per-admission re-equilibration differs. Repair keeps\n\
         the incumbent equilibrium warm and pays best-response deviations only\n\
         where new contention demands them — a full re-solve reprices every\n\
         microservice of every replica from scratch each time (per-admission\n\
         solve time: `cargo bench --bench arrival_soak`)."
    );
}
