//! Exhaustive energy/makespan Pareto analysis of the deployment space
//! (beyond-paper; see `deep_core::pareto`). Brute-forces all 4^6 joint assignments
//! per case study and locates DEEP's equilibrium on the front.

use deep_core::pareto;
use deep_core::{calibration, DeepScheduler, Scheduler};
use deep_dataflow::apps;

fn main() {
    let tb = calibration::calibrated_testbed();
    for app in apps::case_studies() {
        let profiles = pareto::enumerate_profiles(&app, &tb);
        let n = profiles.len();
        let front = pareto::pareto_front(profiles);
        println!("{} — {} joint assignments, {} Pareto-efficient:", app.name(), n, front.len());
        for p in &front {
            println!("  energy {:8.1} J | makespan {:7.1} s", p.energy, p.makespan);
        }
        let schedule = DeepScheduler::paper().schedule(&app, &tb);
        let d = pareto::distance_to_front(&app, &tb, &schedule, &front);
        println!(
            "  DEEP: energy {:.1} J, makespan {:.1} s, energy excess over front {:.3} J\n",
            d.energy, d.makespan, d.energy_excess
        );
    }
    println!("DEEP sits at the energy-minimal end of the front by construction;");
    println!("the front's other end shows what makespan money can buy.");
}
