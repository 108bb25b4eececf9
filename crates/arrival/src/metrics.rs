//! Steady-state soak metrics: per-job records on the shared executor
//! clock, aggregated into the arrival-plane headline numbers (mean and
//! tail `Td`, time-to-react, queue depth, repair economics).

use deep_core::percentile;
use deep_simulator::{RunReport, Schedule};
use serde::{Deserialize, Serialize};

/// What re-equilibration cost on one admission (plus any mid-queue
/// re-solves folded in before the job executed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RepairStats {
    /// A full game re-solve ran (first admission, policy choice, or
    /// scripted-window boundary crossing).
    pub full_solve: bool,
    /// Incremental repair gave up (more members moved than the budget
    /// allows, or the incumbent no longer fits the mesh) and fell back
    /// to a full re-solve.
    pub fell_back: bool,
    /// Members the repair moved off the incumbent: those that had an
    /// improving deviation under the exact payoffs.
    pub deviations: usize,
    /// Wall-clock microseconds spent producing the schedule.
    pub micros: u64,
}

/// One deployment request's life on the arrival plane, from arrival to
/// completed execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Replication index (fault-seed stream position) the job ran in.
    pub replication: u32,
    /// `[[arrivals]]` stream that emitted the request.
    pub stream: usize,
    /// Position within that stream.
    pub arrival_index: usize,
    /// Warm-up job: executed but excluded from steady-state stats.
    pub warmup: bool,
    /// When the request arrived (executor seconds).
    pub arrived: f64,
    /// When the plane admitted it and produced its schedule.
    pub admitted: f64,
    /// When its first wave started executing.
    pub started: f64,
    /// When its last wave finished.
    pub completed: f64,
    /// Jobs in flight (this one included) at admission.
    pub queue_depth: usize,
    /// What producing the schedule cost.
    pub repair: RepairStats,
    /// The schedule the job ran under.
    pub schedule: Schedule,
    /// The realized execution report.
    pub report: RunReport,
}

impl JobRecord {
    /// Scheduling latency: how long after arrival the plane had a
    /// deployable schedule. The online-operations headline — repair is
    /// only worth having if this stays small under sustained load.
    pub fn time_to_react(&self) -> f64 {
        self.admitted - self.arrived
    }
}

/// Every job of every replication of one arrival-plane run, with the
/// steady-state aggregations the soak reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalOutcome {
    /// Scenario name (grid-expanded names keep their axis suffixes).
    pub scenario: String,
    /// The repair policy's name (`incremental-repair` / `full-resolve`).
    pub policy: String,
    /// All jobs, replication-major, arrival order within each.
    pub jobs: Vec<JobRecord>,
}

impl ArrivalOutcome {
    /// The measurement-phase jobs (warm-up excluded).
    pub fn measured(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| !j.warmup)
    }

    fn measured_td(&self) -> Vec<f64> {
        self.measured().flat_map(|j| j.report.microservices.iter()).map(|m| m.td.as_f64()).collect()
    }

    /// Mean realized per-microservice deployment time over measured
    /// jobs — the steady-state counterpart of
    /// [`deep_core::ScenarioOutcome::mean_td`].
    pub fn mean_td(&self) -> f64 {
        let td = self.measured_td();
        td.iter().sum::<f64>() / td.len().max(1) as f64
    }

    /// The `p`-th percentile (0–100) of measured per-microservice `Td`.
    pub fn percentile_td(&self, p: f64) -> f64 {
        percentile(&self.measured_td(), p)
    }

    /// Mean scheduling latency (arrival → schedule in hand) over
    /// measured jobs.
    pub fn mean_time_to_react(&self) -> f64 {
        let n = self.measured().count();
        self.measured().map(JobRecord::time_to_react).sum::<f64>() / n.max(1) as f64
    }

    /// Mean jobs in flight at admission, measured jobs.
    pub fn mean_queue_depth(&self) -> f64 {
        let n = self.measured().count();
        self.measured().map(|j| j.queue_depth as f64).sum::<f64>() / n.max(1) as f64
    }

    /// Deepest backlog any measured admission saw.
    pub fn max_queue_depth(&self) -> usize {
        self.measured().map(|j| j.queue_depth).max().unwrap_or(0)
    }

    /// Measured microservice deployments that lost at least one source
    /// fatally.
    pub fn failovers(&self) -> usize {
        self.measured()
            .flat_map(|j| j.report.microservices.iter())
            .filter(|m| !m.failed_sources.is_empty())
            .count()
    }

    /// Measured admissions where incremental repair gave up and
    /// re-solved from scratch.
    pub fn fallbacks(&self) -> usize {
        self.measured().filter(|j| j.repair.fell_back).count()
    }

    /// Total members repair moved across measured jobs.
    pub fn total_deviations(&self) -> usize {
        self.measured().map(|j| j.repair.deviations).sum()
    }
}
