//! The run loop every workload shares: set-up repeated for a median,
//! rounds replayed until the time budget is spent and, in a traced run,
//! untraced/traced round pairs whose busy-time difference is the tracing
//! overhead.
//!
//! Every round of a run repeats the same work, so each host-time sample
//! is kept as its fastest repetition: interference from other processes
//! only ever slows a repetition down, and the fastest one estimates the
//! uncontended cost the way a longer run would. Interference on a shared
//! host comes mostly in bursts shorter than a second, so the samples are
//! kept as fine as the workload's calls: an operation's latency is the
//! sum of its timed parts, each at its fastest repetition.

use crate::measure::{append_spans, set_tracing, take_spans, Ledger, Span};
use crate::Args;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one round measured. A round is the workload's fixed unit of
/// work for its seed, so every round of a run repeats the same inputs.
#[derive(Default)]
pub struct RoundOut<D> {
    /// Host seconds spent inside the measured operations.
    pub busy_s: f64,
    /// Executed application deployments (`RunReport`s).
    pub jobs: usize,
    /// Latencies (ms) of the workload's unit operations, each split into
    /// its timed parts (a solve, a repair and an execution, say).
    pub op_ms: Vec<Vec<f64>>,
    /// Further named latency samples (ms), such as solve and repair.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Digest of every schedule and report the round produced.
    pub digest: u64,
    /// The round's outputs; the run loop keeps the first round's.
    pub data: D,
}

impl<D> RoundOut<D> {
    pub fn sample(&mut self, name: &'static str, ms: f64) {
        self.samples.entry(name).or_default().push(ms);
    }
}

/// The traced run's recording.
#[derive(Default)]
pub struct Traced {
    /// Spans of the set-up and of the first traced round.
    pub spans: Vec<Span>,
    /// Wall seconds those spans were recorded over.
    pub wall_s: f64,
    /// Busy seconds of every untraced round and of its traced twin.
    pub untraced_busy_s: Vec<f64>,
    pub traced_busy_s: Vec<f64>,
}

/// Everything the loop measured, with the set-up state and the first
/// round's outputs.
pub struct Driven<S, D> {
    pub state: S,
    pub setup_s: Vec<f64>,
    pub rounds: usize,
    pub busy_s: f64,
    pub jobs: usize,
    /// Deployments per busy second of each round.
    pub round_rates: Vec<f64>,
    /// Deployments of one round per second of its operations, each at
    /// its fastest.
    pub jobs_per_s: f64,
    /// Each unit operation's latency (ms): its parts' fastest
    /// repetitions, summed.
    pub op_ms: Vec<f64>,
    /// Each named sample's fastest repetition (ms).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub digest: u64,
    pub first: D,
    pub traced: Traced,
}

/// Which pass of the loop a round is.
#[derive(Clone, Copy)]
pub struct Pass {
    /// The traced twin of an untraced round.
    pub traced: bool,
    /// The first untraced round: the one whose outputs are checked.
    pub first: bool,
}

/// Elementwise minimum of equally long sample vectors, one per round.
fn fastest(rounds: &[Vec<f64>]) -> Vec<f64> {
    let len = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..len).map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// Each operation's latency: the fastest repetition of each of its
/// parts across the rounds, summed.
fn fastest_ops(rounds: &[Vec<Vec<f64>>]) -> Vec<f64> {
    let len = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            let parts: Vec<Vec<f64>> = rounds.iter().map(|r| r[i].clone()).collect();
            fastest(&parts).iter().sum()
        })
        .collect()
}

/// Set up once (with spans in a traced run), then replay rounds until
/// `args.seconds` have passed. A traced run follows each untraced round
/// with its traced twin; an untraced run follows it with a timed set-up
/// that is thrown away, so the set-up times sample the host over the
/// whole run. Every later round must reproduce the first round's digest,
/// and every traced twin its untraced round's. `None` when set-up failed.
pub fn drive<S, D>(
    args: &Args,
    ledger: &mut Ledger,
    mut setup: impl FnMut(&mut Ledger) -> Option<S>,
    mut round: impl FnMut(&S, &mut Ledger, Pass) -> RoundOut<D>,
) -> Option<Driven<S, D>> {
    set_tracing(args.trace);
    let t = Instant::now();
    let state = setup(ledger)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let mut traced = Traced { spans: take_spans(), wall_s: setup_s[0], ..Traced::default() };
    set_tracing(false);

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut rounds, mut busy_s, mut jobs, mut round_jobs) = (0, 0.0, 0, 0);
    let mut round_rates = Vec::new();
    let mut op_rounds = Vec::new();
    let mut sample_rounds: BTreeMap<&'static str, Vec<Vec<f64>>> = BTreeMap::new();
    let mut digest = None;
    let mut first = None;
    loop {
        let out = round(&state, ledger, Pass { traced: false, first: first.is_none() });
        rounds += 1;
        busy_s += out.busy_s;
        jobs += out.jobs;
        round_rates.push(out.jobs as f64 / out.busy_s);
        op_rounds.push(out.op_ms);
        for (name, values) in out.samples {
            sample_rounds.entry(name).or_default().push(values);
        }
        match digest {
            None => digest = Some(out.digest),
            Some(d) => {
                ledger.check("a later round replays the first byte for byte", out.digest == d);
            }
        }
        if first.is_none() {
            round_jobs = out.jobs;
            first = Some(out.data);
        }
        if !args.trace {
            let t = Instant::now();
            let again = setup(ledger);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(again);
        } else {
            traced.untraced_busy_s.push(out.busy_s);
            set_tracing(true);
            let t = Instant::now();
            let twin = round(&state, ledger, Pass { traced: true, first: false });
            let wall_s = t.elapsed().as_secs_f64();
            set_tracing(false);
            let spans = take_spans();
            ledger.check(
                "the traced round reproduces the untraced outputs",
                Some(twin.digest) == digest,
            );
            traced.traced_busy_s.push(twin.busy_s);
            if traced.traced_busy_s.len() == 1 {
                append_spans(&mut traced.spans, spans);
                traced.wall_s += wall_s;
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    set_tracing(args.trace);
    let op_ms = fastest_ops(&op_rounds);
    Some(Driven {
        state,
        setup_s,
        rounds,
        busy_s,
        jobs,
        jobs_per_s: round_jobs as f64 / (op_ms.iter().sum::<f64>() / 1e3),
        round_rates,
        op_ms,
        samples: sample_rounds.into_iter().map(|(name, r)| (name, fastest(&r))).collect(),
        digest: digest.unwrap_or_default(),
        first: first?,
        traced,
    })
}
