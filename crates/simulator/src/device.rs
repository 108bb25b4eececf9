//! Simulated edge devices.
//!
//! A device is the paper's `d_j = (CORE_j, CPU_j, MEM_j, STOR_j)` plus the
//! measured quantities a real testbed adds: per-phase power draw, a
//! per-microservice architecture factor (an amd64-tuned ML stack does not
//! run at nominal speed on an arm64 board — and a hardware video codec can
//! run *faster* than the MI/s ratio suggests), image extraction bandwidth
//! (SD cards hurt), and a layer cache bounded by the device's storage.

use deep_dataflow::{DeviceClass, Mi, Mips};
use deep_energy::{DevicePowerModel, Watts};
use deep_netsim::{Bandwidth, DataSize, DeviceId, Seconds};
use deep_registry::{LayerCache, Platform};
use std::collections::HashMap;

/// A simulated edge device.
#[derive(Debug, Clone)]
pub struct SimDevice {
    pub id: DeviceId,
    pub name: String,
    pub arch: Platform,
    /// Continuum tier: edge (the default) or cloud.
    pub class: DeviceClass,
    pub cores: u32,
    /// Nominal speed `CPU_j` in MI/s.
    pub mips: Mips,
    pub memory: DataSize,
    pub storage: DataSize,
    /// Per-phase power draw (process entry is the *default*; see
    /// `process_power`).
    pub power: DevicePowerModel,
    /// Measured per-microservice processing draw overriding the default
    /// (the output of the paper's microservice requirement analysis).
    process_power: HashMap<String, Watts>,
    /// Default multiplier on nominal processing time for this architecture.
    base_speed_factor: f64,
    /// Per-microservice overrides of the speed factor.
    speed_factor: HashMap<String, f64>,
    /// Disk bandwidth for layer extraction.
    pub extract_bw: Bandwidth,
    /// Layer cache (bounded by storage).
    pub cache: LayerCache,
}

impl SimDevice {
    /// Create a device with a neutral speed model.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: DeviceId,
        name: &str,
        arch: Platform,
        cores: u32,
        mips: Mips,
        memory: DataSize,
        storage: DataSize,
        power: DevicePowerModel,
        extract_bw: Bandwidth,
    ) -> Self {
        SimDevice {
            id,
            name: name.to_string(),
            arch,
            class: DeviceClass::Edge,
            cores,
            mips,
            memory,
            storage,
            power,
            process_power: HashMap::new(),
            base_speed_factor: 1.0,
            speed_factor: HashMap::new(),
            extract_bw,
            cache: LayerCache::new(storage),
        }
    }

    /// Set the default architecture speed factor (>1 = slower than
    /// nominal).
    pub fn with_base_speed_factor(mut self, f: f64) -> Self {
        assert!(f > 0.0, "speed factor must be positive");
        self.base_speed_factor = f;
        self
    }

    /// Mark the device as a cloud-tier server.
    pub fn with_class(mut self, class: DeviceClass) -> Self {
        self.class = class;
        self
    }

    /// The default architecture speed factor (what
    /// [`SimDevice::with_base_speed_factor`] set) — cloning an archetype
    /// into a synthetic fleet carries it over.
    pub fn base_speed_factor(&self) -> f64 {
        self.base_speed_factor
    }

    /// Override the speed factor for one microservice.
    pub fn set_speed_factor(&mut self, microservice: &str, f: f64) {
        assert!(f > 0.0, "speed factor must be positive");
        self.speed_factor.insert(microservice.to_string(), f);
    }

    /// Override the processing power draw for one microservice.
    pub fn set_process_power(&mut self, microservice: &str, w: Watts) {
        self.process_power.insert(microservice.to_string(), w);
    }

    /// Effective speed factor for a microservice: its override, else the
    /// device default.
    ///
    /// Callers key microservices as `"application/microservice"` (the
    /// calibration writes and the executor and estimator read exactly
    /// that form), because the two case-study apps share microservice
    /// names ("ha-train" exists in both) with different measured
    /// behaviour.
    pub fn speed_factor(&self, microservice: &str) -> f64 {
        self.speed_factor.get(microservice).copied().unwrap_or(self.base_speed_factor)
    }

    /// Processing time `Tp = CPU(m_i)/CPU_j × factor(m_i)`.
    pub fn processing_time(&self, microservice: &str, cpu: Mi) -> Seconds {
        (cpu / self.mips).scale(self.speed_factor(microservice))
    }

    /// Processing power draw for a microservice (measured override or the
    /// device default), keyed as in [`SimDevice::speed_factor`].
    pub fn process_watts(&self, microservice: &str) -> Watts {
        self.process_power.get(microservice).copied().unwrap_or(self.power.process_watts)
    }

    /// Energy for one microservice run with the given phase durations,
    /// using the per-microservice processing draw:
    /// `EC = P_deploy·Td + P_transfer·Tc + P_proc(m)·Tp + P_static·CT`.
    pub fn energy(
        &self,
        microservice: &str,
        td: Seconds,
        tc: Seconds,
        tp: Seconds,
    ) -> deep_energy::Joules {
        self.phase_energy(self.process_watts(microservice), td, tc, tp)
    }

    /// [`SimDevice::energy`] with the processing draw already looked up
    /// ([`SimDevice::process_watts`]): a caller pricing many `Td`s of one
    /// microservice looks it up once.
    pub fn phase_energy(
        &self,
        process: Watts,
        td: Seconds,
        tc: Seconds,
        tp: Seconds,
    ) -> deep_energy::Joules {
        let ct = td + tc + tp;
        self.power.deploy_watts * td
            + self.power.transfer_watts * tc
            + process * tp
            + self.power.static_watts * ct
    }

    /// Admission check against the paper's requirement tuple, including
    /// the continuum-class constraint.
    pub fn admits(&self, req: &deep_dataflow::Requirements) -> bool {
        req.fits_class(self.cores, self.memory, self.storage, self.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> SimDevice {
        SimDevice::new(
            DeviceId(0),
            "medium",
            Platform::Amd64,
            8,
            Mips::new(40_000.0),
            DataSize::gigabytes(16.0),
            DataSize::gigabytes(64.0),
            DevicePowerModel::per_phase(
                Watts::new(0.3),
                Watts::new(0.1),
                Watts::new(0.1),
                Watts::new(8.0),
            ),
            Bandwidth::megabytes_per_sec(12.6),
        )
    }

    #[test]
    fn processing_time_uses_speed_factor() {
        let mut d = device().with_base_speed_factor(2.0);
        let cpu = Mi::new(4_900_000.0);
        assert!((d.processing_time("x", cpu).as_f64() - 245.0).abs() < 1e-9);
        d.set_speed_factor("x", 1.0);
        assert!((d.processing_time("x", cpu).as_f64() - 122.5).abs() < 1e-9);
        // Other microservices keep the base factor.
        assert!((d.processing_time("y", cpu).as_f64() - 245.0).abs() < 1e-9);
    }

    #[test]
    fn process_power_overrides() {
        let mut d = device();
        assert_eq!(d.process_watts("anything"), Watts::new(8.0));
        d.set_process_power("ha-train", Watts::new(22.6));
        assert_eq!(d.process_watts("ha-train"), Watts::new(22.6));
        assert_eq!(d.process_watts("other"), Watts::new(8.0));
    }

    #[test]
    fn energy_accounts_all_phases() {
        let mut d = device();
        d.set_process_power("m", Watts::new(10.0));
        let e = d.energy("m", Seconds::new(100.0), Seconds::new(10.0), Seconds::new(50.0));
        // 0.1*100 + 0.1*10 + 10*50 + 0.3*160 = 10 + 1 + 500 + 48 = 559.
        assert!((e.as_f64() - 559.0).abs() < 1e-9);
        let phases = d.phase_energy(
            d.process_watts("m"),
            Seconds::new(100.0),
            Seconds::new(10.0),
            Seconds::new(50.0),
        );
        assert_eq!(phases.as_f64().to_bits(), e.as_f64().to_bits());
    }

    #[test]
    fn admission_respects_requirements() {
        let d = device();
        let fits = deep_dataflow::Requirements::new(
            4,
            Mi::new(1.0),
            DataSize::gigabytes(8.0),
            DataSize::gigabytes(32.0),
        );
        assert!(d.admits(&fits));
        let too_many_cores = deep_dataflow::Requirements::new(
            16,
            Mi::new(1.0),
            DataSize::gigabytes(1.0),
            DataSize::gigabytes(1.0),
        );
        assert!(!d.admits(&too_many_cores));
    }

    #[test]
    fn cache_bounded_by_storage() {
        let d = device();
        assert_eq!(d.cache.capacity(), DataSize::gigabytes(64.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_factor_rejected() {
        device().with_base_speed_factor(0.0);
    }
}
