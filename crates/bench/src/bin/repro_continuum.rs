//! The paper's announced future work: DEEP across the cloud-edge
//! continuum (beyond-paper experiment; see `deep_core::continuum`).

use deep_core::continuum;
use deep_simulator::ExecutorConfig;

fn main() {
    println!("Cloud-edge continuum extension (paper future work)\n");
    let rows = continuum::compare(&ExecutorConfig::default());
    print!("{}", continuum::render(&rows));
    println!("\ntranscode is camera-pinned to the edge; ML-heavy stages offload when");
    println!("the cloud's per-instruction energy advantage beats the WAN cost.");
}
