//! Per-device power models.
//!
//! The paper's energy model is `EC(m_i, r_g, d_j) = Ea + Es` where `Ea` is
//! "directly related to `CT(m_i, r_g, d_j)`" and `Es` is the static draw of
//! the device. We realise that as
//!
//! ```text
//! EC = Σ_phase P_active(d_j, phase) · t_phase  +  P_static(d_j) · CT
//! ```
//!
//! with the three phases of the completion-time model: deployment (image
//! pull + extraction), dataflow transmission, and processing. Splitting the
//! active draw per phase lets us reproduce the testbed observation that a
//! device pulling an image over the NIC draws less than one crunching an ML
//! training job — which is exactly why registry placement has a small but
//! non-zero energy effect (the paper's headline ≈0.34 %).

use crate::units::{Joules, Watts};
use deep_netsim::Seconds;
use serde::{Deserialize, Serialize};

/// The phase of a microservice's lifetime on a device; mirrors the three
/// terms of `CT = Td + Tc + Tp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum ExecutionPhase {
    /// `Td`: pulling and unpacking the container image.
    Deployment,
    /// `Tc`: receiving the upstream dataflow.
    Transfer,
    /// `Tp`: executing the microservice over the dataflow.
    Processing,
}

/// Power model of one edge device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DevicePowerModel {
    /// Idle/background draw `Es` per second, always paid while the device
    /// is busy with the microservice.
    pub static_watts: Watts,
    /// Extra draw while pulling + extracting an image (NIC + disk).
    pub deploy_watts: Watts,
    /// Extra draw while receiving dataflow bytes (NIC).
    pub transfer_watts: Watts,
    /// Extra draw while processing (CPU at load).
    pub process_watts: Watts,
}

impl DevicePowerModel {
    /// Fully phase-differentiated model.
    pub fn per_phase(
        static_watts: Watts,
        deploy_watts: Watts,
        transfer_watts: Watts,
        process_watts: Watts,
    ) -> Self {
        DevicePowerModel { static_watts, deploy_watts, transfer_watts, process_watts }
    }

    /// Active draw during `phase` (excludes static draw).
    pub(crate) fn active_watts(&self, phase: ExecutionPhase) -> Watts {
        match phase {
            ExecutionPhase::Deployment => self.deploy_watts,
            ExecutionPhase::Transfer => self.transfer_watts,
            ExecutionPhase::Processing => self.process_watts,
        }
    }

    /// Active energy `Ea` for one phase of duration `t`.
    pub(crate) fn active_energy(&self, phase: ExecutionPhase, t: Seconds) -> Joules {
        self.active_watts(phase) * t
    }

    /// Static energy `Es` over a total busy time `ct`.
    pub(crate) fn static_energy(&self, ct: Seconds) -> Joules {
        self.static_watts * ct
    }

    /// Full `EC = Σ Ea(phase) + Es(CT)` for the phase durations
    /// `(td, tc, tp)`; `CT = td + tc + tp` as in the paper.
    pub fn energy(&self, td: Seconds, tc: Seconds, tp: Seconds) -> Joules {
        let ct = td + tc + tp;
        self.active_energy(ExecutionPhase::Deployment, td)
            + self.active_energy(ExecutionPhase::Transfer, tc)
            + self.active_energy(ExecutionPhase::Processing, tp)
            + self.static_energy(ct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Static 2 W; 2.5 W deploying, 2 W receiving, 6 W processing.
    fn desktop() -> DevicePowerModel {
        DevicePowerModel::per_phase(
            Watts::new(2.0),
            Watts::new(2.5),
            Watts::new(2.0),
            Watts::new(6.0),
        )
    }

    #[test]
    fn uniform_model_charges_all_phases_equally() {
        let w = Watts::new(4.0);
        let m = DevicePowerModel::per_phase(Watts::new(1.0), w, w, w);
        for phase in
            [ExecutionPhase::Deployment, ExecutionPhase::Transfer, ExecutionPhase::Processing]
        {
            assert_eq!(m.active_watts(phase), w);
            assert_eq!(m.active_energy(phase, Seconds::new(2.0)), Joules::new(8.0));
        }
    }

    #[test]
    fn energy_decomposes_into_active_plus_static() {
        let m = DevicePowerModel::per_phase(
            Watts::new(2.0),
            Watts::new(3.0),
            Watts::new(1.0),
            Watts::new(6.0),
        );
        let (td, tc, tp) = (Seconds::new(10.0), Seconds::new(5.0), Seconds::new(100.0));
        let e = m.energy(td, tc, tp);
        // active: 3*10 + 1*5 + 6*100 = 635; static: 2*115 = 230.
        assert!((e.as_f64() - 865.0).abs() < 1e-9);
        let active = m.active_energy(ExecutionPhase::Deployment, td)
            + m.active_energy(ExecutionPhase::Transfer, tc)
            + m.active_energy(ExecutionPhase::Processing, tp);
        let reconstructed = active + m.static_energy(td + tc + tp);
        assert!((e.as_f64() - reconstructed.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn zero_durations_cost_nothing() {
        let m = desktop();
        assert_eq!(m.energy(Seconds::ZERO, Seconds::ZERO, Seconds::ZERO), Joules::ZERO);
    }

    #[test]
    fn deployment_time_changes_energy() {
        // The crux of the paper: shaving deployment seconds saves energy.
        let m = desktop();
        let slow = m.energy(Seconds::new(60.0), Seconds::new(5.0), Seconds::new(100.0));
        let fast = m.energy(Seconds::new(40.0), Seconds::new(5.0), Seconds::new(100.0));
        assert!(slow > fast);
        let saved = slow - fast;
        // 20 s of (deploy 2.5 W + static 2.0 W) = 90 J.
        assert!((saved.as_f64() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let m = desktop();
        let json = serde_json::to_string(&m).unwrap();
        let back: DevicePowerModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
