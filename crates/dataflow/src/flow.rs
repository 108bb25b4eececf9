//! The dataflow edge `df_ui` with its transfer size `Size_ui`.

use crate::dag::MicroserviceId;
use deep_netsim::DataSize;
use serde::{Deserialize, Serialize};

/// A directed dataflow from an upstage microservice `m_u` to a downstage
/// microservice `m_i`, carrying `Size_ui` bytes per execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dataflow {
    /// Producer (`m_u`).
    pub from: MicroserviceId,
    /// Consumer (`m_i`).
    pub to: MicroserviceId,
    /// Bytes transferred per run (`Size_ui`, MB in the paper).
    pub size: DataSize,
}

impl Dataflow {
    pub(crate) fn new(from: MicroserviceId, to: MicroserviceId, size: DataSize) -> Self {
        assert!(from != to, "a microservice cannot feed itself");
        Dataflow { from, to, size }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let f = Dataflow::new(MicroserviceId(0), MicroserviceId(1), DataSize::megabytes(250.0));
        assert_eq!(f.from, MicroserviceId(0));
        assert_eq!(f.to, MicroserviceId(1));
        assert_eq!(f.size, DataSize::megabytes(250.0));
    }

    #[test]
    #[should_panic(expected = "feed itself")]
    fn self_loop_rejected() {
        Dataflow::new(MicroserviceId(3), MicroserviceId(3), DataSize::ZERO);
    }
}
