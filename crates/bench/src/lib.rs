//! Benchmark harness for the DEEP reproduction.
//!
//! Two faces:
//!
//! * **`repro_*` binaries** (in `src/bin/`) regenerate every table and
//!   figure of the paper from fresh simulation runs:
//!   `repro_table1`, `repro_table2`, `repro_table3`, `repro_fig2`,
//!   `repro_fig3a`, `repro_fig3b`, `repro_headline`, and `repro_all`;
//!   `repro_ablations` runs the ablations of [`deep_core::ablation`], and
//!   `repro_pareto` and `repro_continuum` the beyond-paper experiments of
//!   [`deep_core::pareto`] and [`deep_core::continuum`].
//!   Run e.g. `cargo run -p deep-bench --bin repro_table3 --release`.
//! * **criterion benches** (in `benches/`) measure the substrates and the
//!   scheduler itself, including two of the ablations of
//!   [`deep_core::ablation`]:
//!   * substrates: `sha256`, `dag_ops`, `energy_models`, `nash_solvers`;
//!   * registries and pulls: `registry_pull` (the layer-cache ablation),
//!     `pull_path`, `peer_plane`, `gossip_rounds`;
//!   * scheduling and the planes above it: `scheduler_comparison` (the
//!     decoupled ablation), `nash_mesh`, `scenario_replay`,
//!     `arrival_soak`, `soak_scale`.

#![forbid(unsafe_code)]

use deep_core::Experiments;

/// The experiment configuration used by all repro binaries: ten seeded
/// trials, ±2 % jitter — enough to produce stable ranges while staying
/// fast in debug builds.
pub fn default_experiments() -> Experiments {
    Experiments::default()
}

/// Parse an optional trial-count argument (`repro_table2 25`).
pub fn experiments_from_args() -> Experiments {
    let mut exp = default_experiments();
    if let Some(arg) = std::env::args().nth(1) {
        match arg.parse::<usize>() {
            Ok(n) if n > 0 => exp.trials = n,
            _ => eprintln!("ignoring invalid trial count {arg:?}"),
        }
    }
    exp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let e = default_experiments();
        assert!(e.trials >= 2);
        assert!(e.jitter > 0.0 && e.jitter < 0.1);
    }
}
