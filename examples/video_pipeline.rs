//! The video-processing case study end to end: DEEP scheduling, simulated
//! execution priced by the paper's analytic energy model, per-microservice
//! metrics and the Table III distribution.
//!
//! Run with `cargo run --example video_pipeline`.

use deep::core::{calibration, distribution, DeepScheduler, Scheduler};
use deep::dataflow::{apps, stages};
use deep::simulator::{execute, ExecutorConfig, TraceKind};

fn main() {
    let app = apps::video_processing();

    println!("== Figure 2a: {} ==", app.name());
    for stage in stages(&app) {
        let names: Vec<&str> =
            stage.members.iter().map(|&id| app.microservice(id).name.as_str()).collect();
        println!("  stage {}: {}", stage.depth, names.join(", "));
    }

    let mut testbed = calibration::calibrated_testbed();
    let schedule = DeepScheduler::paper().schedule(&app, &testbed);

    println!("\n== Table III: deployment distribution under DEEP ==");
    print!(
        "{}",
        distribution::render_distribution(&distribution::distribution_table(&app, &schedule))
    );

    let cfg = ExecutorConfig { seed: 1, jitter: 0.02, ..Default::default() };
    let (report, trace) = execute(&mut testbed, &app, &schedule, &cfg).expect("schedule executes");

    println!("\n== per-microservice measurements (one seeded trial) ==");
    println!(
        "{:12} {:>9} {:>9} {:>9} {:>9} {:>11}",
        "microservice", "Td [s]", "Tc [s]", "Tp [s]", "CT [s]", "EC [J]"
    );
    for m in &report.microservices {
        println!(
            "{:12} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>11.1}",
            m.name,
            m.td.as_f64(),
            m.tc.as_f64(),
            m.tp.as_f64(),
            m.ct().as_f64(),
            m.energy.as_f64(),
        );
    }
    println!(
        "\ntotal energy {} | makespan {} | monitoring events {}",
        report.total_energy(),
        report.makespan,
        trace.len()
    );
    let barriers = trace.of_kind(TraceKind::StageBarrierReleased).count();
    println!("stage barriers released: {barriers}");
    let heaviest = report.max_energy_microservice().expect("non-empty run");
    println!(
        "heaviest microservice (Fig. 3a's observation): {} at {}",
        heaviest.name, heaviest.energy
    );
}
