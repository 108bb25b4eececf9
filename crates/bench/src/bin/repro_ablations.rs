//! Ablation suite over DEEP's design choices (listed in
//! `deep_core::ablation`).

use deep_core::ablation;
use deep_simulator::ExecutorConfig;

fn main() {
    println!("Ablation suite (positive penalty = variant is worse than DEEP)\n");
    let rows = ablation::run_all(&ExecutorConfig::default());
    print!("{}", ablation::render(&rows));
}
