//! Ergonomic application construction.

use crate::dag::{Application, DagError, MicroserviceId};
use crate::flow::Dataflow;
use crate::microservice::Microservice;
use crate::requirements::Requirements;
use deep_netsim::DataSize;
use std::collections::HashMap;
use std::fmt;

/// Errors from the builder (name resolution) or the underlying DAG
/// validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A flow referenced a name never added with
    /// [`ApplicationBuilder::microservice`].
    UnknownName(String),
    /// Underlying graph validation failed.
    Dag(DagError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownName(n) => write!(f, "unknown microservice name {n:?}"),
            BuildError::Dag(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<DagError> for BuildError {
    fn from(e: DagError) -> Self {
        BuildError::Dag(e)
    }
}

/// Builder that lets applications be described by name.
#[derive(Debug, Clone, Default)]
pub struct ApplicationBuilder {
    name: String,
    microservices: Vec<Microservice>,
    index: HashMap<String, MicroserviceId>,
    flows: Vec<(String, String, DataSize)>,
}

impl ApplicationBuilder {
    /// Start building an application called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ApplicationBuilder { name: name.into(), ..Default::default() }
    }

    /// Add a microservice; returns its id for callers that prefer indices.
    pub fn microservice(
        &mut self,
        name: impl Into<String>,
        image_size: DataSize,
        requirements: Requirements,
    ) -> MicroserviceId {
        let name = name.into();
        let id = MicroserviceId(self.microservices.len());
        self.index.insert(name.clone(), id);
        self.microservices.push(Microservice::new(name, image_size, requirements));
        id
    }

    /// Add a dataflow between two named microservices.
    pub fn flow(&mut self, from: &str, to: &str, size: DataSize) -> &mut Self {
        self.flows.push((from.to_string(), to.to_string(), size));
        self
    }

    /// Validate and build the [`Application`].
    pub fn build(self) -> Result<Application, BuildError> {
        let mut flows = Vec::with_capacity(self.flows.len());
        for (from, to, size) in self.flows {
            let f = *self.index.get(&from).ok_or(BuildError::UnknownName(from))?;
            let t = *self.index.get(&to).ok_or(BuildError::UnknownName(to))?;
            flows.push(Dataflow::new(f, t, size));
        }
        Ok(Application::new(self.name, self.microservices, flows)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::Mi;

    impl ApplicationBuilder {
        /// Convenience: microservice with [`Requirements::minimal`].
        pub(crate) fn simple(
            &mut self,
            name: impl Into<String>,
            image_size: DataSize,
            cpu: Mi,
        ) -> MicroserviceId {
            self.microservice(name, image_size, Requirements::minimal(cpu))
        }
    }

    #[test]
    fn builds_by_name() {
        let mut b = ApplicationBuilder::new("demo");
        b.simple("src", DataSize::gigabytes(0.1), Mi::new(10.0));
        b.simple("dst", DataSize::gigabytes(0.2), Mi::new(20.0));
        b.flow("src", "dst", DataSize::megabytes(5.0));
        let app = b.build().unwrap();
        assert_eq!(app.len(), 2);
        assert_eq!(app.flows().len(), 1);
        assert_eq!(app.microservice(MicroserviceId(1)).name, "dst");
    }

    #[test]
    fn unknown_name_is_reported() {
        let mut b = ApplicationBuilder::new("demo");
        b.simple("src", DataSize::gigabytes(0.1), Mi::new(10.0));
        b.flow("src", "ghost", DataSize::ZERO);
        assert_eq!(b.build().unwrap_err(), BuildError::UnknownName("ghost".into()));
    }

    #[test]
    fn dag_errors_propagate() {
        let mut b = ApplicationBuilder::new("cyc");
        b.simple("a", DataSize::ZERO, Mi::ZERO);
        b.simple("b", DataSize::ZERO, Mi::ZERO);
        b.flow("a", "b", DataSize::ZERO).flow("b", "a", DataSize::ZERO);
        assert_eq!(b.build().unwrap_err(), BuildError::Dag(DagError::Cyclic));
    }

    #[test]
    fn duplicate_names_overwrite_index_but_fail_validation() {
        let mut b = ApplicationBuilder::new("dup");
        b.simple("x", DataSize::ZERO, Mi::ZERO);
        b.simple("x", DataSize::ZERO, Mi::ZERO);
        assert!(matches!(b.build().unwrap_err(), BuildError::Dag(DagError::DuplicateName(_))));
    }
}
