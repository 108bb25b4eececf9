//! Arrival processes: turning `[[arrivals]]` specs into a concrete,
//! seeded request timeline.
//!
//! Each `[[arrivals]]` entry samples its own splitmix64 stream (the
//! same generator the registry fault plans draw from, seeded with the
//! scenario seed plus the entry's gamma increment), so the arrival
//! timeline is deterministic per scenario, identical across
//! replications, and independent of the per-replication fault seed
//! stream `seed + r`.

use deep_netsim::{splitmix64, unit_f64, Seconds};
use deep_scenario::{ArrivalModel, Scenario};

/// A uniform draw in `[0, 1)` from the top 53 bits of the next step of
/// the splitmix64 stream at `state`.
fn unit(state: &mut u64) -> f64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    unit_f64(out)
}

/// One deployment request on the executor clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Arrival time in executor seconds ([`Scenario::time_scale`]
    /// applied, like scripted event times).
    pub time: Seconds,
    /// Warm-up arrival: executed (it loads caches and queues) but
    /// excluded from steady-state statistics.
    pub warmup: bool,
    /// Index of the `[[arrivals]]` entry that emitted it.
    pub stream: usize,
    /// Position within that stream.
    pub index: usize,
}

/// Sample the scenario's merged arrival timeline: every `[[arrivals]]`
/// stream drawn independently, merged into one time-ordered request
/// list (stable on ties: file order, then stream position). An
/// arrival-free scenario yields an empty list — the plane treats that
/// as a single measured request at `t = 0`, the one-shot soak.
pub fn sample_arrivals(scenario: &Scenario) -> Vec<Arrival> {
    let mut out = Vec::new();
    for (stream, spec) in scenario.arrivals.iter().enumerate() {
        // One independent stream per entry: splitmix64's gamma jump
        // keeps entries decorrelated even under adjacent seeds.
        let mut state =
            scenario.seed.wrapping_add((stream as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let times: Vec<f64> = match &spec.model {
            ArrivalModel::Poisson { rate } => {
                let mut t = 0.0;
                (0..spec.count)
                    .map(|_| {
                        // Exponential inter-arrival by inversion; the
                        // unit draw never reaches 1.0, so ln stays
                        // finite.
                        t += -(1.0 - unit(&mut state)).ln() / rate;
                        t
                    })
                    .collect()
            }
            ArrivalModel::Deterministic { interval } => {
                (0..spec.count).map(|k| k as f64 * interval).collect()
            }
            ArrivalModel::Trace { times } => times.clone(),
        };
        for (index, t) in times.into_iter().enumerate() {
            out.push(Arrival {
                time: Seconds::new(t * scenario.time_scale),
                warmup: index < spec.warmup,
                stream,
                index,
            });
        }
    }
    out.sort_by(|a, b| {
        (a.time.as_f64(), a.stream, a.index)
            .partial_cmp(&(b.time.as_f64(), b.stream, b.index))
            .expect("arrival times are finite")
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_scenario::Scenario;

    fn scenario(arrivals: &str) -> Scenario {
        Scenario::parse(&format!("name = \"a\"\napp = \"text-processing\"\nseed = 9\n{arrivals}"))
            .unwrap()
    }

    #[test]
    fn poisson_streams_are_seeded_and_monotone() {
        let s =
            scenario("[[arrivals]]\nmodel = \"poisson\"\nrate = 0.01\ncount = 20\nwarmup = 5\n");
        let a = sample_arrivals(&s);
        let b = sample_arrivals(&s);
        assert_eq!(a, b, "same seed, same timeline");
        assert_eq!(a.len(), 20);
        assert!(a.windows(2).all(|w| w[0].time.as_f64() <= w[1].time.as_f64()));
        assert!(a[0].time.as_f64() > 0.0, "first gap is exponential, not zero");
        assert_eq!(a.iter().filter(|x| x.warmup).count(), 5);
        assert!(a[..5].iter().all(|x| x.warmup), "warm-up phase leads");
        // A different seed moves every arrival.
        let other = sample_arrivals(&Scenario { seed: 10, ..s });
        assert_ne!(a, other);
        // The mean gap is roughly 1/rate = 100 s (loose law-of-large
        // numbers bound; the stream is only 20 draws).
        let mean_gap = a.last().unwrap().time.as_f64() / 20.0;
        assert!((20.0..500.0).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn deterministic_and_trace_streams_are_exact_and_scaled() {
        let s = scenario(
            "time_scale = 0.5\n\
             [[arrivals]]\nmodel = \"deterministic\"\ninterval = 100.0\ncount = 3\n\
             [[arrivals]]\nmodel = \"trace\"\ntimes = [50.0, 150.0]\nwarmup = 1\n",
        );
        let a = sample_arrivals(&s);
        let times: Vec<f64> = a.iter().map(|x| x.time.as_f64()).collect();
        // Streams merge time-ordered, scaled by time_scale = 0.5:
        // deterministic {0, 50, 100}, trace {25, 75}.
        assert_eq!(times, vec![0.0, 25.0, 50.0, 75.0, 100.0]);
        assert_eq!(a[1].stream, 1);
        assert!(a[1].warmup, "the trace's first arrival is warm-up");
        assert!(!a[3].warmup);
    }

    #[test]
    fn simultaneous_arrivals_keep_file_order() {
        let s = scenario(
            "[[arrivals]]\nmodel = \"trace\"\ntimes = [10.0]\n\
             [[arrivals]]\nmodel = \"trace\"\ntimes = [10.0]\n",
        );
        let a = sample_arrivals(&s);
        assert_eq!((a[0].stream, a[1].stream), (0, 1));
    }

    #[test]
    fn no_arrival_section_samples_empty() {
        let s = scenario("");
        assert!(sample_arrivals(&s).is_empty());
    }
}
