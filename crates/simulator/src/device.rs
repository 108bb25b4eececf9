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
use std::sync::Arc;

/// One microservice's measured overrides of its device's defaults.
#[derive(Debug, Clone, Copy, Default)]
struct Overrides {
    speed_factor: Option<f64>,
    process_power: Option<Watts>,
}

/// Overrides keyed by application, then microservice: the two case-study
/// apps share microservice names ("ha-train" exists in both) with
/// different measured behaviour, and a lookup borrows both names.
type OverrideTable = HashMap<String, HashMap<String, Overrides>>;

/// A simulated edge device. Cloning one (as every testbed replica does)
/// copies its layer cache's bookkeeping but none of its per-microservice
/// tables: those are shared until a clone overrides an entry.
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
    /// Default multiplier on nominal processing time for this architecture.
    base_speed_factor: f64,
    /// Measured per-microservice speed factors and processing draws
    /// overriding the defaults (the output of the paper's microservice
    /// requirement analysis). Absent until the first override, then
    /// shared copy-on-write between a device and its clones.
    overrides: Option<Arc<OverrideTable>>,
    /// Disk bandwidth for layer extraction.
    pub extract_bw: Bandwidth,
    /// Layer cache (bounded by storage).
    pub cache: LayerCache,
}

impl SimDevice {
    /// Create a device with a neutral speed model.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
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
            base_speed_factor: 1.0,
            overrides: None,
            extract_bw,
            cache: LayerCache::new(storage),
        }
    }

    /// Set the default architecture speed factor (>1 = slower than
    /// nominal).
    pub(crate) fn with_base_speed_factor(mut self, f: f64) -> Self {
        assert!(f > 0.0, "speed factor must be positive");
        self.base_speed_factor = f;
        self
    }

    /// Mark the device as a cloud-tier server.
    pub(crate) fn with_class(mut self, class: DeviceClass) -> Self {
        self.class = class;
        self
    }

    /// The default architecture speed factor (what
    /// [`SimDevice::with_base_speed_factor`] set) — cloning an archetype
    /// into a synthetic fleet carries it over.
    pub(crate) fn base_speed_factor(&self) -> f64 {
        self.base_speed_factor
    }

    fn overrides(&self, application: &str, microservice: &str) -> Overrides {
        let table = self.overrides.as_deref();
        table.and_then(|apps| apps.get(application)?.get(microservice)).copied().unwrap_or_default()
    }

    /// Edit one microservice's overrides, copying the table first if a
    /// clone still shares it. Names are copied only when first seen.
    fn edit_overrides(
        &mut self,
        application: &str,
        microservice: &str,
        edit: impl FnOnce(&mut Overrides),
    ) {
        let apps = Arc::make_mut(self.overrides.get_or_insert_with(Default::default));
        let app = match apps.get_mut(application) {
            Some(app) => app,
            None => apps.entry(application.to_string()).or_default(),
        };
        match app.get_mut(microservice) {
            Some(overrides) => edit(overrides),
            None => {
                let mut overrides = Overrides::default();
                edit(&mut overrides);
                app.insert(microservice.to_string(), overrides);
            }
        }
    }

    /// Override the speed factor for one microservice of `application`.
    /// Copies the table first if a clone still shares it.
    pub fn set_speed_factor(&mut self, application: &str, microservice: &str, f: f64) {
        assert!(f > 0.0, "speed factor must be positive");
        self.edit_overrides(application, microservice, |o| o.speed_factor = Some(f));
    }

    /// Override the processing power draw for one microservice of
    /// `application`. Copies the table first if a clone still shares it.
    pub fn set_process_power(&mut self, application: &str, microservice: &str, w: Watts) {
        self.edit_overrides(application, microservice, |o| o.process_power = Some(w));
    }

    /// Effective speed factor for a microservice of `application`: its
    /// override, else the device default. Microservices are scoped by
    /// application because the two case-study apps share microservice
    /// names ("ha-train" exists in both) with different measured
    /// behaviour.
    pub(crate) fn speed_factor(&self, application: &str, microservice: &str) -> f64 {
        self.overrides(application, microservice).speed_factor.unwrap_or(self.base_speed_factor)
    }

    /// Processing time `Tp = CPU(m_i)/CPU_j × factor(m_i)`.
    pub fn processing_time(&self, application: &str, microservice: &str, cpu: Mi) -> Seconds {
        (cpu / self.mips).scale(self.speed_factor(application, microservice))
    }

    /// Processing power draw for a microservice of `application`
    /// (measured override or the device default).
    pub fn process_watts(&self, application: &str, microservice: &str) -> Watts {
        self.overrides(application, microservice).process_power.unwrap_or(self.power.process_watts)
    }

    /// Energy for one microservice run with the given phase durations,
    /// using the per-microservice processing draw:
    /// `EC = P_deploy·Td + P_transfer·Tc + P_proc(m)·Tp + P_static·CT`.
    pub fn energy(
        &self,
        application: &str,
        microservice: &str,
        td: Seconds,
        tc: Seconds,
        tp: Seconds,
    ) -> deep_energy::Joules {
        self.phase_energy(self.process_watts(application, microservice), td, tc, tp)
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
        assert!((d.processing_time("app", "x", cpu).as_f64() - 245.0).abs() < 1e-9);
        d.set_speed_factor("app", "x", 1.0);
        assert!((d.processing_time("app", "x", cpu).as_f64() - 122.5).abs() < 1e-9);
        // Other microservices keep the base factor, and so does the same
        // name in another application.
        assert!((d.processing_time("app", "y", cpu).as_f64() - 245.0).abs() < 1e-9);
        assert!((d.processing_time("other", "x", cpu).as_f64() - 245.0).abs() < 1e-9);
    }

    #[test]
    fn process_power_overrides() {
        let mut d = device();
        assert_eq!(d.process_watts("app", "anything"), Watts::new(8.0));
        d.set_process_power("app", "ha-train", Watts::new(22.6));
        assert_eq!(d.process_watts("app", "ha-train"), Watts::new(22.6));
        assert_eq!(d.process_watts("app", "other"), Watts::new(8.0));
        assert_eq!(d.process_watts("other", "ha-train"), Watts::new(8.0));
    }

    #[test]
    fn energy_accounts_all_phases() {
        let mut d = device();
        d.set_process_power("app", "m", Watts::new(10.0));
        let e = d.energy("app", "m", Seconds::new(100.0), Seconds::new(10.0), Seconds::new(50.0));
        // 0.1*100 + 0.1*10 + 10*50 + 0.3*160 = 10 + 1 + 500 + 48 = 559.
        assert!((e.as_f64() - 559.0).abs() < 1e-9);
        let phases = d.phase_energy(
            d.process_watts("app", "m"),
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
    fn overrides_on_a_clone_leave_the_original_and_its_siblings_alone() {
        let mut original = device();
        original.set_speed_factor("app", "m", 2.0);
        original.set_process_power("app", "m", Watts::new(10.0));
        let sibling = original.clone();
        let mut replica = original.clone();
        replica.set_speed_factor("app", "m", 4.0);
        replica.set_process_power("app", "m", Watts::new(20.0));
        replica.set_speed_factor("app", "n", 3.0);
        replica.set_process_power("other", "m", Watts::new(30.0));
        assert_eq!(replica.speed_factor("app", "m"), 4.0);
        assert_eq!(replica.process_watts("app", "m"), Watts::new(20.0));
        for d in [&original, &sibling] {
            assert_eq!(d.speed_factor("app", "m"), 2.0);
            assert_eq!(d.process_watts("app", "m"), Watts::new(10.0));
            assert_eq!(d.speed_factor("app", "n"), 1.0);
            assert_eq!(d.process_watts("other", "m"), Watts::new(8.0));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_factor_rejected() {
        device().with_base_speed_factor(0.0);
    }
}
