//! Regenerate Table II: per-microservice benchmarks on both devices.
//! Optional argument: number of seeded trials (default 10).

fn main() {
    let exp = deep_bench::experiments_from_args();
    println!(
        "Table II — benchmarks of microservices ({} seeded trials, ±{:.0} % jitter)\n",
        exp.trials,
        exp.jitter * 100.0
    );
    let rows = exp.table2();
    print!("{}", exp.render_table2(&rows));
    println!(
        "\npaper columns shown alongside; tests/calibration_against_paper.rs bounds each \
         row's energy at 0.25-3x of the paper's."
    );
}
