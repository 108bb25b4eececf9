//! Seeded random application generators for property tests and scale
//! benchmarks.
//!
//! Generates layered DAGs in the spirit of the case studies: a pipeline of
//! stages, each with one or more microservices, with every microservice
//! consuming from at least one member of the previous stage. Layered
//! construction guarantees acyclicity by construction, so generated
//! applications always validate.

use crate::builder::ApplicationBuilder;
use crate::compute::Mi;
use crate::dag::Application;
use crate::requirements::Requirements;
use deep_netsim::DataSize;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`DagGenerator`].
#[derive(Debug, Clone)]
pub struct DagGenerator {
    /// Number of stages (≥ 1).
    pub stages: usize,
    /// Microservices per stage, inclusive range.
    pub width: (usize, usize),
    /// Image size range, GB.
    pub image_gb: (f64, f64),
    /// Processing load range, MI.
    pub cpu_mi: (f64, f64),
    /// Dataflow size range, MB.
    pub flow_mb: (f64, f64),
    /// Probability of an extra (skip or intra-level fan-in) edge beyond the
    /// mandatory connectivity edge.
    pub extra_edge_prob: f64,
}

/// Shaped like the paper's case studies.
impl Default for DagGenerator {
    fn default() -> Self {
        DagGenerator {
            stages: 4,
            width: (1, 3),
            image_gb: (0.1, 6.0),
            cpu_mi: (1e5, 6e6),
            flow_mb: (10.0, 1000.0),
            extra_edge_prob: 0.25,
        }
    }
}

impl DagGenerator {
    /// Generate an application from `seed`. Identical seeds yield identical
    /// applications.
    pub fn generate(&self, seed: u64) -> Application {
        assert!(self.stages >= 1, "need at least one stage");
        assert!(self.width.0 >= 1 && self.width.0 <= self.width.1, "bad width range");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = ApplicationBuilder::new(format!("generated-{seed}"));
        let mut layers: Vec<Vec<String>> = Vec::with_capacity(self.stages);
        let mut counter = 0usize;
        for s in 0..self.stages {
            let w = rng.gen_range(self.width.0..=self.width.1);
            let mut layer = Vec::with_capacity(w);
            for _ in 0..w {
                let name = format!("ms{counter}");
                counter += 1;
                let size = DataSize::gigabytes(rng.gen_range(self.image_gb.0..=self.image_gb.1));
                let cpu = Mi::new(rng.gen_range(self.cpu_mi.0..=self.cpu_mi.1));
                let req = Requirements::new(
                    rng.gen_range(1..=4),
                    cpu,
                    DataSize::gigabytes(rng.gen_range(0.25..=4.0)),
                    DataSize::gigabytes(rng.gen_range(1.0..=16.0)),
                );
                b.microservice(&name, size, req);
                layer.push(name);
            }
            if s > 0 {
                // Mandatory connectivity: every member consumes from a
                // random member of the previous stage.
                // Clones needed because `b` borrows names by value.
                let prev = layers[s - 1].clone();
                for name in &layer {
                    let src = prev.choose(&mut rng).expect("previous layer non-empty");
                    let size = DataSize::megabytes(rng.gen_range(self.flow_mb.0..=self.flow_mb.1));
                    b.flow(src, name, size);
                }
                // Optional extra fan-in edges from any earlier layer.
                for name in &layer {
                    if rng.gen_bool(self.extra_edge_prob) {
                        let layer_idx = rng.gen_range(0..s);
                        let src = layers[layer_idx].choose(&mut rng).unwrap().clone();
                        // Avoid duplicating the mandatory edge.
                        if !prev.contains(&src) || rng.gen_bool(0.5) {
                            let size =
                                DataSize::megabytes(rng.gen_range(self.flow_mb.0..=self.flow_mb.1));
                            // Duplicate (src,name) pairs are rejected by the
                            // DAG validator; skip them proactively.
                            b.flow(&src, name, size);
                        }
                    }
                }
            }
            layers.push(layer);
        }
        match b.build() {
            Ok(app) => app,
            Err(_) => {
                // A rare duplicate extra edge slipped in; retry with the
                // next derived seed. Bounded recursion: seeds are cheap and
                // dup probability is small.
                self.generate(seed.wrapping_mul(6364136223846793005).wrapping_add(1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::stages;

    #[test]
    fn generation_is_deterministic() {
        let g = DagGenerator::default();
        let a = g.generate(42);
        let b = g.generate(42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let g = DagGenerator::default();
        assert_ne!(g.generate(1), g.generate(2));
    }

    #[test]
    fn generated_apps_are_valid_dags_across_seeds() {
        let g = DagGenerator::default();
        for seed in 0..50 {
            let app = g.generate(seed);
            assert!(app.len() >= g.stages, "seed {seed}");
            // Topological order exists by construction of Application.
            assert_eq!(app.topological_order().len(), app.len());
        }
    }

    #[test]
    fn stage_count_at_least_requested_depth() {
        // Layered construction: path through all layers exists, so the
        // stage decomposition is at least `stages` deep.
        let g = DagGenerator { stages: 6, ..Default::default() };
        let app = g.generate(7);
        assert!(stages(&app).len() >= 6);
    }

    #[test]
    fn wide_generator_produces_parallel_stages() {
        let g = DagGenerator { width: (3, 5), ..Default::default() };
        let app = g.generate(11);
        let st = stages(&app);
        assert!(st.iter().any(|s| s.members.len() >= 3));
    }

    #[test]
    fn single_stage_generator_yields_sources_only() {
        let g = DagGenerator { stages: 1, width: (2, 2), ..Default::default() };
        let app = g.generate(3);
        assert_eq!(app.len(), 2);
        assert!(app.flows().is_empty());
    }
}
