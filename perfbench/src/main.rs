//! The DEEP benchmark: one command runs one workload end to end, checks
//! its outputs and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid --seed 42 --seconds 55 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run and prints the per-layer
//! metrics. Every line before the last is the human-readable report; the
//! last line is one JSON object. `README.md` defines the workloads, the
//! metrics and the seeds.

mod driver;
mod fleet_admit;
mod measure;
mod paper_grid;
mod plane;
mod probes;

use driver::{Driven, Traced};
use measure::{breakdown, mean, median, peak_rss_mb, span_ms, tail, write_spans};
use measure::{Ledger, Span, Tally};
use probes::Probed;
use std::path::Path;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["paper-grid", "fleet-admit"];

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_td_mean_s", "s"),
    ("sim_energy_j", "J"),
];

/// Per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("scenario.parse_us", "us"),
    ("simulator.testbed_build_ms", "ms"),
    ("simulator.replica_ms", "ms"),
    ("simulator.execute_ms", "ms"),
    ("simulator.pulls", "count"),
    ("simulator.failed_sources", "count"),
    ("simulator.backoff_s", "s"),
    ("simulator.gossip_barrier_converging_us", "us"),
    ("simulator.gossip_barrier_steady_us", "us"),
    ("simulator.gossip_rounds_to_converge", "count"),
    ("simulator.mesh_view_us", "us"),
    ("registry.resolve_us", "us"),
    ("registry.pull_estimate_us", "us"),
    ("registry.bytes_mb.hub", "MB"),
    ("registry.bytes_mb.regional", "MB"),
    ("registry.bytes_mb.mirror", "MB"),
    ("registry.bytes_mb.peer", "MB"),
    ("core.prefetch_us", "us"),
    ("core.estimate_us", "us"),
    ("core.stage_cells", "count"),
    ("core.solve_ms", "ms"),
    ("core.wave_games_ms", "ms"),
    ("game.descent_passes", "count"),
    ("game.descent_converged", "ratio"),
    ("core.repair_ms", "ms"),
    ("core.repair_deviations", "count"),
    ("core.repair_fallback_ratio", "ratio"),
    ("core.verify_ms", "ms"),
    ("arrival.full_solves", "count"),
    ("arrival.fallbacks", "count"),
    ("arrival.deviations", "count"),
    ("arrival.solve_share", "ratio"),
    ("arrival.queue_depth_mean", "jobs"),
    ("scenario.self_ms", "ms"),
    ("simulator.self_ms", "ms"),
    ("registry.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("game.self_ms", "ms"),
    ("arrival.self_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// The layers whose self time the traced run reports.
const LAYERS: [(&str, &str); 6] = [
    ("scenario", "scenario.self_ms"),
    ("simulator", "simulator.self_ms"),
    ("registry", "registry.self_ms"),
    ("core", "core.self_ms"),
    ("game", "game.self_ms"),
    ("arrival", "arrival.self_ms"),
];

const USAGE: &str = "usage: perfbench --workload <paper-grid|fleet-admit> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the rounds run; the last round always finishes.
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--seed" => seed = value.parse::<u64>().ok(),
                "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
                "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
                _ => return Err(format!("bad argument {flag} {value}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is missing")?,
            seed: seed.ok_or("--seed is missing or not a whole number")?,
            seconds: seconds.ok_or("--seconds is missing or not positive")?,
            trace: trace.ok_or("--trace is missing")?,
        })
    }
}

/// How big a workload runs: `Full` is the benchmark, `Tiny` the
/// self-test's smoke pass.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// What one workload run produced: the failure ledger, the metric
/// values, the report-only lines and, in a traced run, the spans.
#[derive(Default)]
pub struct Report {
    pub ledger: Ledger,
    values: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A report-only median with its sample count.
    pub fn median_note(&mut self, name: &str, samples: &[f64], unit: &str) {
        self.note(format!("{name} = {} {unit} (n={})", median(samples), samples.len()));
    }

    /// A report-only tail percentile, given only with ten samples beyond it.
    pub fn tail_note(&mut self, name: &str, samples: &[f64], p: f64, unit: &str) {
        match tail(samples, p) {
            Some(v) => self.note(format!("{name} = {v} {unit} (n={})", samples.len())),
            None => self.note(format!(
                "{name} not reported: {} samples leave fewer than ten beyond p{p}",
                samples.len()
            )),
        }
    }

    /// The end-to-end metrics every workload reports, and the
    /// report-only ones that go with them.
    pub fn end_to_end<S, D>(&mut self, d: &Driven<S, D>, tally: &Tally) {
        self.set("setup_s", median(&d.setup_s));
        self.set("jobs_per_s", d.jobs_per_s);
        self.set("op_p50_ms", median(&d.op_ms));
        self.set("peak_rss_mb", peak_rss_mb());
        self.set("sim_td_mean_s", mean(&tally.td));
        self.set("sim_energy_j", tally.energy_per_deployment());
        self.note(format!(
            "rounds {} ({} deployments in {:.3} busy s), set-ups {}",
            d.rounds,
            d.jobs,
            d.busy_s,
            d.setup_s.len()
        ));
        self.note(format!(
            "round rates: slowest {} median {} fastest {} jobs/s",
            d.round_rates.iter().copied().fold(f64::INFINITY, f64::min),
            median(&d.round_rates),
            d.round_rates.iter().copied().fold(0.0, f64::max)
        ));
        self.tail_note("op_p90_ms", &d.op_ms, 90.0, "ms");
        self.tail_note("sim_td_p95_s", &tally.td, 95.0, "s");
        self.note(format!(
            "sim_failover_rate = {} ratio ({} of {} microservice deployments)",
            tally.failover_rate(),
            tally.failovers,
            tally.td.len()
        ));
        self.note(format!("digest {:016x}", d.digest));
    }

    /// Record the repairs' deviations and fallbacks.
    pub fn repairs(&mut self, repairs: &[(usize, bool)]) {
        let deviations: usize = repairs.iter().map(|r| r.0).sum();
        let fallbacks = repairs.iter().filter(|r| r.1).count();
        self.set("core.repair_deviations", deviations as f64);
        self.set("core.repair_fallback_ratio", fallbacks as f64 / repairs.len().max(1) as f64);
        self.set("arrival.deviations", deviations as f64);
        self.set("arrival.fallbacks", fallbacks as f64);
    }

    /// The per-layer metrics every workload reports. `spans` were
    /// recorded over `wall_s` seconds.
    pub fn per_layer(
        &mut self,
        spans: &[Span],
        wall_s: f64,
        traced: &Traced,
        tally: &Tally,
        probed: Option<&Probed>,
    ) {
        let b = breakdown(spans);
        for (layer, name) in LAYERS {
            self.set(name, b.self_ms.get(layer).copied().unwrap_or(0.0));
        }
        self.set("trace.unattributed_ms", wall_s * 1e3 - b.covered_ms);
        self.set(
            "trace.overhead_ms",
            (median(&traced.traced_busy_s) - median(&traced.untraced_busy_s)) * 1e3,
        );
        self.set("trace.spans", spans.len() as f64);
        let parse_ms: f64 =
            span_ms(spans, "scenario.parse").iter().chain(&span_ms(spans, "scenario.expand")).sum();
        self.set("scenario.parse_us", parse_ms * 1e3);
        for (name, span_name) in [
            ("simulator.testbed_build_ms", "simulator.testbed_build"),
            ("simulator.replica_ms", "simulator.replica"),
            ("simulator.execute_ms", "simulator.execute"),
            ("core.solve_ms", "core.schedule"),
            ("core.repair_ms", "core.repair"),
            ("core.verify_ms", "core.verify"),
        ] {
            self.set(name, median(&span_ms(spans, span_name)));
        }
        self.set("simulator.pulls", tally.pulls as f64);
        self.set("simulator.failed_sources", tally.failed_sources as f64);
        self.set("simulator.backoff_s", tally.backoff_s);
        let bytes = [
            "registry.bytes_mb.hub",
            "registry.bytes_mb.regional",
            "registry.bytes_mb.mirror",
            "registry.bytes_mb.peer",
        ];
        for (name, mb) in bytes.into_iter().zip(tally.bytes_mb) {
            self.set(name, mb);
        }
        if let Some(p) = probed {
            self.set("core.prefetch_us", p.prefetch_us);
            self.set("core.estimate_us", p.estimate_us);
            self.set("core.stage_cells", p.stage_cells as f64);
            self.set("core.wave_games_ms", p.wave_games_ms);
            self.set("game.descent_passes", p.descent_passes as f64);
            self.set("game.descent_converged", p.descent_converged);
            self.set("registry.resolve_us", p.resolve_us);
            self.set("registry.pull_estimate_us", p.pull_estimate_us);
            self.set("simulator.gossip_barrier_converging_us", p.barrier_converging_us);
            self.set("simulator.gossip_barrier_steady_us", p.barrier_steady_us);
            self.set("simulator.gossip_rounds_to_converge", p.rounds_to_converge as f64);
            self.set("simulator.mesh_view_us", p.mesh_view_us);
        }
    }

    /// Print the report lines, then the JSON result of this mode. A
    /// metric the run could not measure counts as a failure.
    fn print(mut self, args: &Args) {
        let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut lines = Vec::new();
        let mut fields = Vec::new();
        for &(name, unit) in table {
            let value = match self.value(name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    self.ledger.attempted += 1;
                    self.ledger.fail(name, "not measured");
                    0.0
                }
            };
            lines.push(format!("metric {name} = {value} {unit}"));
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        if args.trace {
            let path = Path::new(".bench_out")
                .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
            let line = match write_spans(&path, &self.spans) {
                Ok(()) => format!("{} spans written to {}", self.spans.len(), path.display()),
                Err(e) => format!("spans not written to {}: {e}", path.display()),
            };
            self.note(line);
        }
        println!(
            "workload {} seed {} seconds {} trace {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for line in self.notes.iter().chain(&lines) {
            println!("{line}");
        }
        for failure in &self.ledger.failures {
            println!("failure {failure}");
        }
        let Ledger { attempted, failed, .. } = self.ledger;
        println!(
            "error_rate = {} ratio ({failed} failed of {attempted} attempted)",
            failed as f64 / attempted.max(1) as f64
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            failed == 0,
            fields.join(", ")
        );
    }
}

/// Run one workload; `Err` when it could not be set up.
fn run(args: &Args, size: Size) -> Result<Report, String> {
    match args.workload.as_str() {
        "paper-grid" => paper_grid::run(args, size),
        _ => fleet_admit::run(args, size),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, Size::Full) {
        Ok(report) => {
            report.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} could not be set up: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn every_metric_is_declared_in_benchmark_json_with_its_unit() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(BENCHMARK_JSON.contains(&declared), "{declared} missing from BENCHMARK.json");
        }
        for workload in WORKLOADS {
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{workload}\"")), "{workload}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |line: &str| Args::parse(line.split_whitespace().map(String::from));
        let args = parse("--workload fleet-admit --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(args.workload, "fleet-admit");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 2.5, true));
        assert!(parse("--workload nope --seed 7 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload paper-grid --seed -1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload paper-grid --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload paper-grid --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload paper-grid --seed 1 --seconds 1").is_err());
    }

    /// A tiny pass of every workload, timed and traced: every named
    /// metric is emitted and finite, the output checks run, none fails.
    #[test]
    fn tiny_workloads_emit_every_metric_and_pass_their_checks() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args { workload: workload.to_string(), seed: 7, seconds: 1e-3, trace };
                let report = run(&args, Size::Tiny).unwrap_or_else(|e| panic!("{workload}: {e}"));
                let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                for (name, _) in table {
                    let value = report.value(name);
                    assert!(value.is_some_and(f64::is_finite), "{workload}: {name} = {value:?}");
                }
                assert!(report.ledger.attempted > 0, "{workload}: no checks ran");
                assert_eq!(report.ledger.failed, 0, "{workload}: {:?}", report.ledger.failures);
            }
        }
    }
}
