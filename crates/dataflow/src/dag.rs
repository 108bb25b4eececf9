//! The validated application DAG `A = (M, E)`.

use crate::flow::Dataflow;
use crate::microservice::Microservice;
use deep_netsim::DataSize;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Index of a microservice within its application (`m_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MicroserviceId(pub usize);

impl fmt::Display for MicroserviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Errors detected while validating an application graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The dataflow graph contains a cycle — not a DAG.
    Cyclic,
    /// An edge references a microservice index that does not exist.
    DanglingEdge { from: usize, to: usize },
    /// Two microservices share a name.
    DuplicateName(String),
    /// Two dataflows connect the same ordered pair.
    DuplicateEdge { from: usize, to: usize },
    /// The application has no microservices.
    Empty,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Cyclic => write!(f, "dataflow graph contains a cycle"),
            DagError::DanglingEdge { from, to } => {
                write!(f, "dataflow m{from} -> m{to} references an unknown microservice")
            }
            DagError::DuplicateName(n) => write!(f, "duplicate microservice name {n:?}"),
            DagError::DuplicateEdge { from, to } => {
                write!(f, "duplicate dataflow m{from} -> m{to}")
            }
            DagError::Empty => write!(f, "application has no microservices"),
        }
    }
}

impl std::error::Error for DagError {}

/// A dataflow-processing application: a validated DAG of microservices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    name: String,
    microservices: Vec<Microservice>,
    flows: Vec<Dataflow>,
    /// `succ[i]` = indices into `flows` leaving `m_i`.
    succ: Vec<Vec<usize>>,
    /// `pred[i]` = indices into `flows` entering `m_i`.
    pred: Vec<Vec<usize>>,
    /// A fixed topological order of microservice ids.
    topo: Vec<MicroserviceId>,
}

impl Application {
    /// Validate and construct. Prefer [`crate::builder::ApplicationBuilder`]
    /// for ergonomic use.
    pub fn new(
        name: impl Into<String>,
        microservices: Vec<Microservice>,
        flows: Vec<Dataflow>,
    ) -> Result<Self, DagError> {
        let name = name.into();
        let n = microservices.len();
        if n == 0 {
            return Err(DagError::Empty);
        }
        // Unique names.
        let mut names: Vec<&str> = microservices.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        for w in names.windows(2) {
            if w[0] == w[1] {
                return Err(DagError::DuplicateName(w[0].to_string()));
            }
        }
        // Edge sanity.
        let mut seen = std::collections::HashSet::with_capacity(flows.len());
        for f in &flows {
            if f.from.0 >= n || f.to.0 >= n {
                return Err(DagError::DanglingEdge { from: f.from.0, to: f.to.0 });
            }
            if !seen.insert((f.from.0, f.to.0)) {
                return Err(DagError::DuplicateEdge { from: f.from.0, to: f.to.0 });
            }
        }
        // Adjacency.
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for (idx, f) in flows.iter().enumerate() {
            succ[f.from.0].push(idx);
            pred[f.to.0].push(idx);
        }
        // Kahn's algorithm: topological order, cycle detection.
        let mut indeg: Vec<usize> = pred.iter().map(Vec::len).collect();
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            topo.push(MicroserviceId(i));
            for &e in &succ[i] {
                let j = flows[e].to.0;
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push_back(j);
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cyclic);
        }
        Ok(Application { name, microservices, flows, succ, pred, topo })
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `N_M`: number of microservices.
    pub fn len(&self) -> usize {
        self.microservices.len()
    }

    /// True when the application has no microservices (never: construction
    /// rejects it, but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.microservices.is_empty()
    }

    /// All microservice ids in index order.
    pub fn ids(&self) -> impl Iterator<Item = MicroserviceId> {
        (0..self.microservices.len()).map(MicroserviceId)
    }

    /// The microservice record for `id`.
    pub fn microservice(&self, id: MicroserviceId) -> &Microservice {
        &self.microservices[id.0]
    }

    /// Find a microservice by name.
    pub fn by_name(&self, name: &str) -> Option<MicroserviceId> {
        self.microservices.iter().position(|m| m.name == name).map(MicroserviceId)
    }

    /// All dataflows.
    pub fn flows(&self) -> &[Dataflow] {
        &self.flows
    }

    /// Dataflows entering `id` (the `df_ui` a microservice must receive).
    pub fn incoming(&self, id: MicroserviceId) -> impl Iterator<Item = &Dataflow> {
        self.pred[id.0].iter().map(move |&e| &self.flows[e])
    }

    /// Producers feeding `id`.
    pub fn predecessors(&self, id: MicroserviceId) -> impl Iterator<Item = MicroserviceId> + '_ {
        self.pred[id.0].iter().map(move |&e| self.flows[e].from)
    }

    /// Consumers fed by `id`.
    pub fn successors(&self, id: MicroserviceId) -> impl Iterator<Item = MicroserviceId> + '_ {
        self.succ[id.0].iter().map(move |&e| self.flows[e].to)
    }

    /// Microservices with no producers (application entry points).
    pub fn sources(&self) -> Vec<MicroserviceId> {
        self.ids().filter(|&i| self.pred[i.0].is_empty()).collect()
    }

    /// Microservices with no consumers (application outputs).
    pub fn sinks(&self) -> Vec<MicroserviceId> {
        self.ids().filter(|&i| self.succ[i.0].is_empty()).collect()
    }

    /// A topological order (fixed at construction, deterministic).
    pub fn topological_order(&self) -> &[MicroserviceId] {
        &self.topo
    }

    /// Total bytes entering `id` per run: `Σ_u Size_ui`.
    pub fn total_input_size(&self, id: MicroserviceId) -> DataSize {
        self.incoming(id).map(|f| f.size).sum()
    }

    /// Sum of all image sizes — lower bound on registry storage.
    pub fn total_image_size(&self) -> DataSize {
        self.microservices.iter().map(|m| m.image_size).sum()
    }

    /// Render the DAG in Graphviz DOT format (Figure 2 regeneration).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(256);
        writeln!(out, "digraph \"{}\" {{", self.name).unwrap();
        writeln!(out, "  rankdir=LR;").unwrap();
        for (i, m) in self.microservices.iter().enumerate() {
            writeln!(out, "  m{} [label=\"{}\\n{}\"];", i, m.name, m.image_size).unwrap();
        }
        for f in &self.flows {
            writeln!(out, "  m{} -> m{} [label=\"{}\"];", f.from.0, f.to.0, f.size).unwrap();
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::Mi;
    use crate::requirements::Requirements;

    fn ms(name: &str) -> Microservice {
        Microservice::new(name, DataSize::gigabytes(1.0), Requirements::minimal(Mi::new(100.0)))
    }

    fn diamond() -> Application {
        // a -> b, a -> c, b -> d, c -> d
        Application::new(
            "diamond",
            vec![ms("a"), ms("b"), ms("c"), ms("d")],
            vec![
                Dataflow::new(MicroserviceId(0), MicroserviceId(1), DataSize::megabytes(10.0)),
                Dataflow::new(MicroserviceId(0), MicroserviceId(2), DataSize::megabytes(20.0)),
                Dataflow::new(MicroserviceId(1), MicroserviceId(3), DataSize::megabytes(30.0)),
                Dataflow::new(MicroserviceId(2), MicroserviceId(3), DataSize::megabytes(40.0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn topological_order_respects_edges() {
        let app = diamond();
        let order = app.topological_order();
        let pos = |id: MicroserviceId| order.iter().position(|&x| x == id).unwrap();
        for f in app.flows() {
            assert!(pos(f.from) < pos(f.to), "{} before {}", f.from, f.to);
        }
    }

    #[test]
    fn sources_and_sinks() {
        let app = diamond();
        assert_eq!(app.sources(), vec![MicroserviceId(0)]);
        assert_eq!(app.sinks(), vec![MicroserviceId(3)]);
    }

    #[test]
    fn degree_queries() {
        let app = diamond();
        let d = MicroserviceId(3);
        let preds: Vec<_> = app.predecessors(d).collect();
        assert_eq!(preds, vec![MicroserviceId(1), MicroserviceId(2)]);
        let succs: Vec<_> = app.successors(MicroserviceId(0)).collect();
        assert_eq!(succs, vec![MicroserviceId(1), MicroserviceId(2)]);
        assert_eq!(app.total_input_size(d), DataSize::megabytes(70.0));
    }

    #[test]
    fn by_name_lookup() {
        let app = diamond();
        assert_eq!(app.by_name("c"), Some(MicroserviceId(2)));
        assert_eq!(app.by_name("zz"), None);
    }

    #[test]
    fn cycle_detected() {
        let err = Application::new(
            "cyc",
            vec![ms("a"), ms("b")],
            vec![
                Dataflow::new(MicroserviceId(0), MicroserviceId(1), DataSize::ZERO),
                Dataflow::new(MicroserviceId(1), MicroserviceId(0), DataSize::ZERO),
            ],
        )
        .unwrap_err();
        assert_eq!(err, DagError::Cyclic);
    }

    #[test]
    fn dangling_edge_detected() {
        let err = Application::new(
            "dangle",
            vec![ms("a")],
            vec![Dataflow::new(MicroserviceId(0), MicroserviceId(7), DataSize::ZERO)],
        )
        .unwrap_err();
        assert_eq!(err, DagError::DanglingEdge { from: 0, to: 7 });
    }

    #[test]
    fn duplicate_name_detected() {
        let err = Application::new("dup", vec![ms("a"), ms("a")], vec![]).unwrap_err();
        assert_eq!(err, DagError::DuplicateName("a".into()));
    }

    #[test]
    fn duplicate_edge_detected() {
        let err = Application::new(
            "dupedge",
            vec![ms("a"), ms("b")],
            vec![
                Dataflow::new(MicroserviceId(0), MicroserviceId(1), DataSize::ZERO),
                Dataflow::new(MicroserviceId(0), MicroserviceId(1), DataSize::megabytes(1.0)),
            ],
        )
        .unwrap_err();
        assert_eq!(err, DagError::DuplicateEdge { from: 0, to: 1 });
    }

    #[test]
    fn empty_application_rejected() {
        assert_eq!(Application::new("none", vec![], vec![]).unwrap_err(), DagError::Empty);
    }

    #[test]
    fn total_image_size_sums_nodes() {
        let app = diamond();
        assert_eq!(app.total_image_size(), DataSize::gigabytes(4.0));
    }

    #[test]
    fn dot_output_contains_every_node_and_edge() {
        let app = diamond();
        let dot = app.to_dot();
        for m in ["a", "b", "c", "d"] {
            assert!(dot.contains(m), "missing node {m}");
        }
        assert_eq!(dot.matches("->").count(), 4);
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn disconnected_nodes_are_allowed() {
        // Independent microservices are legal (degenerate DAG).
        let app = Application::new("disc", vec![ms("a"), ms("b")], vec![]).unwrap();
        assert_eq!(app.sources().len(), 2);
        assert_eq!(app.sinks().len(), 2);
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        let app = diamond();
        let json = serde_json::to_string(&app).unwrap();
        let back: Application = serde_json::from_str(&json).unwrap();
        assert_eq!(app, back);
    }
}
