//! Synchronization barriers / stage decomposition.
//!
//! The paper notes each case-study application "comprises two
//! synchronization barriers defining the dependencies of a downstage
//! microservice to its upstage ones". We generalise: a *stage* is the set
//! of microservices at equal topological depth; the barrier between stage
//! `s` and `s+1` releases when every member of stage `s` has completed.
//! The non-concurrent execution model of the paper then runs stages in
//! order (and members of a stage sequentially on their devices).

use crate::dag::{Application, MicroserviceId};
use serde::{Deserialize, Serialize};

/// One stage: microservices that may only start after the previous stage's
/// barrier releases.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage {
    /// Zero-based stage depth.
    pub depth: usize,
    /// Members, in ascending id order (deterministic).
    pub members: Vec<MicroserviceId>,
}

/// Decompose `app` into stages by topological depth.
///
/// Depth of a microservice = 1 + max depth of its producers (0 for
/// sources). Stages are returned in execution order.
pub fn stages(app: &Application) -> Vec<Stage> {
    let n = app.len();
    let mut depth = vec![0usize; n];
    // Topological order guarantees producers are finalised first.
    for &id in app.topological_order() {
        let d = app.predecessors(id).map(|p| depth[p.0] + 1).max().unwrap_or(0);
        depth[id.0] = d;
    }
    let max_depth = depth.iter().copied().max().unwrap_or(0);
    let mut out: Vec<Stage> =
        (0..=max_depth).map(|d| Stage { depth: d, members: Vec::new() }).collect();
    for i in 0..n {
        out[depth[i]].members.push(MicroserviceId(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ApplicationBuilder;
    use crate::compute::Mi;
    use crate::dag::tests::named;
    use deep_netsim::DataSize;

    fn pipeline4() -> Application {
        // a -> b -> {c1, c2} -> d-like shape used by both paper apps:
        // retrieve -> decompress -> {ha-train, la-train} -> {ha-score, la-score}
        let mut b = ApplicationBuilder::new("p");
        for name in ["a", "b", "c1", "c2", "d1", "d2"] {
            b.simple(name, DataSize::gigabytes(0.1), Mi::new(1.0));
        }
        b.flow("a", "b", DataSize::megabytes(1.0));
        b.flow("b", "c1", DataSize::megabytes(1.0));
        b.flow("b", "c2", DataSize::megabytes(1.0));
        b.flow("c1", "d1", DataSize::megabytes(1.0));
        b.flow("c2", "d2", DataSize::megabytes(1.0));
        b.build().unwrap()
    }

    #[test]
    fn stage_depths_follow_longest_path() {
        let app = pipeline4();
        let st = stages(&app);
        assert_eq!(st.len(), 4);
        assert_eq!(st[0].members, vec![named(&app, "a")]);
        assert_eq!(st[1].members, vec![named(&app, "b")]);
        assert_eq!(st[2].members, vec![named(&app, "c1"), named(&app, "c2")]);
        assert_eq!(st[3].members, vec![named(&app, "d1"), named(&app, "d2")]);
    }

    #[test]
    fn every_microservice_in_exactly_one_stage() {
        let app = pipeline4();
        let st = stages(&app);
        let total: usize = st.iter().map(|s| s.members.len()).sum();
        assert_eq!(total, app.len());
        let mut seen = std::collections::HashSet::new();
        for s in &st {
            for m in &s.members {
                assert!(seen.insert(*m), "duplicate stage membership for {m}");
            }
        }
    }

    #[test]
    fn diamond_join_waits_for_longest_branch() {
        // a -> b -> c, a -> c : c is at depth 2, not 1.
        let mut bld = ApplicationBuilder::new("d");
        bld.simple("a", DataSize::ZERO, Mi::ZERO);
        bld.simple("b", DataSize::ZERO, Mi::ZERO);
        bld.simple("c", DataSize::ZERO, Mi::ZERO);
        bld.flow("a", "b", DataSize::ZERO);
        bld.flow("b", "c", DataSize::ZERO);
        bld.flow("a", "c", DataSize::ZERO);
        let app = bld.build().unwrap();
        let st = stages(&app);
        assert_eq!(st.len(), 3);
        assert_eq!(st[2].members, vec![named(&app, "c")]);
    }

    #[test]
    fn independent_nodes_form_single_stage() {
        let mut b = ApplicationBuilder::new("flat");
        b.simple("x", DataSize::ZERO, Mi::ZERO);
        b.simple("y", DataSize::ZERO, Mi::ZERO);
        let app = b.build().unwrap();
        let st = stages(&app);
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].members.len(), 2);
    }

    #[test]
    fn stage_order_matches_barrier_semantics() {
        // Every producer must live in a strictly earlier stage.
        let app = pipeline4();
        let st = stages(&app);
        let stage_of =
            |id: MicroserviceId| st.iter().position(|s| s.members.contains(&id)).unwrap();
        for f in app.flows() {
            assert!(stage_of(f.from) < stage_of(f.to));
        }
    }
}
