//! Property tests for the scenario DSL: parse → serialize → parse is
//! the identity on randomly generated (valid-by-construction)
//! scenarios, and the canonical form is a fixed point. Hostile inputs
//! (overlapping windows, zero-duration events, unknown ids) are pinned
//! as explicit cases alongside.

use deep_scenario::toml::{format_value, parse as toml_parse, Value};
use deep_scenario::{
    ArrivalModel, ArrivalSpec, Axis, Event, GossipSpec, RateSpec, RetrySpec, Scenario, SweepAxis,
    Target, TestbedBase, TestbedSpec,
};
use proptest::prelude::*;
use proptest::strategy::TestRng;

/// A string exercising the quoting/escaping path (quotes, backslashes,
/// control characters, `#` that must not read as a comment).
fn escapish_string(rng: &mut TestRng) -> String {
    const CHARS: &[char] = &['a', 'b', 'z', '"', '\\', '\n', '\t', '#', ' ', '-'];
    let len = 1 + rng.next_usize(7);
    (0..len).map(|_| CHARS[rng.next_usize(CHARS.len())]).collect()
}

fn target(rng: &mut TestRng) -> Target {
    match rng.next_usize(3) {
        0 => Target::Hub,
        1 => Target::Regional,
        _ => Target::Mirror(0),
    }
}

/// One event confined to its own 1000-second slot: windows are globally
/// disjoint by construction, so no same-target dark overlap can arise.
fn event(rng: &mut TestRng, slot: usize) -> Event {
    let base = slot as f64 * 1000.0;
    let start = base + (0.0f64..400.0).sample(rng);
    let duration = (1.0f64..500.0).sample(rng);
    let at = base + (0.0f64..1000.0).sample(rng);
    match rng.next_usize(6) {
        0 => Event::Outage { target: target(rng), start, duration },
        1 => Event::Degrade {
            target: target(rng),
            start,
            duration,
            factor: (0.01f64..0.99).sample(rng),
        },
        2 => Event::PeerUplinkKill { device: rng.next_usize(2), start, duration },
        3 => Event::CachePressure {
            device: rng.next_usize(2),
            at,
            keep_mb: (0.0f64..2048.0).sample(rng),
        },
        4 => Event::DeleteTag {
            at,
            repository: "[a-z]{1,6}/[a-z]{1,6}".sample(rng),
            tag: escapish_string(rng),
        },
        _ => Event::RegistryGc { at },
    }
}

/// At most one `[[rates]]` entry per target (duplicates are rejected).
fn rates(rng: &mut TestRng) -> Vec<RateSpec> {
    let mut out = Vec::new();
    for target in [Target::Hub, Target::Regional, Target::Mirror(0)] {
        if rng.next_u64() & 1 == 1 {
            out.push(RateSpec {
                target,
                fatal_per_pull: (0.0f64..=1.0).sample(rng),
                transient_per_fetch: (0.0f64..=1.0).sample(rng),
            });
        }
    }
    out
}

/// Random arrival streams, valid by construction: positive laws,
/// sorted non-negative traces, warmup strictly below the count.
fn arrivals(rng: &mut TestRng) -> Vec<ArrivalSpec> {
    (0..rng.next_usize(3))
        .map(|_| {
            let count = 1 + rng.next_usize(5);
            let warmup = rng.next_usize(count);
            match rng.next_usize(3) {
                0 => ArrivalSpec {
                    model: ArrivalModel::Poisson { rate: (0.0001f64..10.0).sample(rng) },
                    count,
                    warmup,
                },
                1 => ArrivalSpec {
                    model: ArrivalModel::Deterministic { interval: (0.01f64..1000.0).sample(rng) },
                    count,
                    warmup,
                },
                _ => {
                    let mut times: Vec<f64> =
                        (0..count).map(|_| (0.0f64..5000.0).sample(rng)).collect();
                    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    ArrivalSpec { model: ArrivalModel::Trace { times }, count, warmup }
                }
            }
        })
        .collect()
}

/// Optional sweep axes in canonical order. Mirror-count values stay
/// ≥ 1 so a `mirror-0` reference elsewhere in the generated scenario
/// remains valid on every grid point; the gossip axes are only emitted
/// when the scenario carries a `[gossip]` section to mutate.
fn sweep(rng: &mut TestRng, has_gossip: bool) -> Vec<SweepAxis> {
    let mut out = Vec::new();
    if rng.next_u64() & 1 == 1 {
        let n = 1 + rng.next_usize(2);
        out.push(SweepAxis {
            axis: Axis::MirrorCount,
            values: (0..n).map(|_| (1 + rng.next_usize(3)) as f64).collect(),
        });
    }
    if rng.next_u64() & 1 == 1 {
        let n = 1 + rng.next_usize(3);
        out.push(SweepAxis {
            axis: Axis::FaultRate,
            values: (0..n).map(|_| (0.0f64..=1.0).sample(rng)).collect(),
        });
    }
    if rng.next_u64() & 1 == 1 {
        let n = 1 + rng.next_usize(3);
        out.push(SweepAxis {
            axis: Axis::RegionalToSmallMbps,
            values: (0..n).map(|_| (0.5f64..64.0).sample(rng)).collect(),
        });
    }
    if has_gossip && rng.next_u64() & 1 == 1 {
        let n = 1 + rng.next_usize(3);
        out.push(SweepAxis {
            axis: Axis::GossipViewSize,
            values: (0..n).map(|_| (1 + rng.next_usize(16)) as f64).collect(),
        });
    }
    if has_gossip && rng.next_u64() & 1 == 1 {
        let n = 1 + rng.next_usize(3);
        out.push(SweepAxis {
            axis: Axis::GossipRounds,
            values: (0..n).map(|_| (1 + rng.next_usize(8)) as f64).collect(),
        });
    }
    out
}

/// Valid-by-construction random scenarios.
struct ScenarioStrategy;

impl Strategy for ScenarioStrategy {
    type Value = Scenario;

    fn sample(&self, rng: &mut TestRng) -> Scenario {
        let events = (0..rng.next_usize(6)).map(|slot| event(rng, slot)).collect();
        // A [gossip] section requires peer_sharing; when present it also
        // unlocks the gossip sweep axes.
        let peer_sharing = rng.next_u64() & 1 == 1;
        let gossip = (peer_sharing && rng.next_u64() & 1 == 1).then(|| GossipSpec {
            fanout: 1 + rng.next_usize(8) as u32,
            view_size: 1 + rng.next_usize(32) as u32,
            rounds_per_wave: 1 + rng.next_usize(4) as u32,
        });
        let sweep = sweep(rng, gossip.is_some());
        Scenario {
            name: "[a-z][a-z0-9-]{0,10}".sample(rng),
            app: if rng.next_u64() & 1 == 1 { "video-processing" } else { "text-processing" }
                .to_string(),
            seed: rng.next_u64() >> 24,
            replications: 1 + rng.next_usize(7) as u32,
            time_scale: (0.001f64..100.0).sample(rng),
            peer_sharing,
            testbed: TestbedSpec {
                base: if rng.next_u64() & 1 == 1 {
                    TestbedBase::Paper
                } else {
                    TestbedBase::Continuum
                },
                calibrate: rng.next_u64() & 1 == 1,
                mirrors: 1 + rng.next_usize(3),
                regional_to_small_mbps: (rng.next_u64() & 1 == 1)
                    .then(|| (0.5f64..64.0).sample(rng)),
            },
            retry: (rng.next_u64() & 1 == 1).then(|| RetrySpec {
                max_attempts: 1 + rng.next_usize(5),
                base_backoff: (0.0f64..30.0).sample(rng),
            }),
            gossip,
            rates: rates(rng),
            events,
            arrivals: arrivals(rng),
            sweep,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scenario_parse_serialize_parse_is_identity(scenario in ScenarioStrategy) {
        let text = scenario.to_toml();
        let back = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("canonical form failed to parse: {e}\n---\n{text}"));
        prop_assert_eq!(&back, &scenario);
        // The canonical serialization is a fixed point.
        prop_assert_eq!(back.to_toml(), text);
    }

    #[test]
    fn toml_scalars_round_trip_exactly(
        i in any::<i64>(),
        x in any::<f64>(),
        scale in -300i32..300,
        b in any::<bool>(),
    ) {
        // Cover magnitudes from subnormal-adjacent to astronomic; the
        // serializer must round-trip the exact bits of each.
        let scaled = x * 10f64.powi(scale);
        for value in [
            Value::Int(i),
            Value::Float(x),
            Value::Float(scaled),
            Value::Bool(b),
        ] {
            if let Value::Float(f) = value {
                if !f.is_finite() {
                    continue; // the parser rejects non-finite by design
                }
            }
            let doc = format!("v = {}", format_value(&value));
            let root = toml_parse(&doc)
                .unwrap_or_else(|e| panic!("emitted scalar failed to parse: {e}\n{doc}"));
            // Float equality must be bitwise, not approximate.
            match (&root["v"], &value) {
                (Value::Float(a), Value::Float(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                (got, want) => prop_assert_eq!(got, want),
            }
        }
    }

    #[test]
    fn toml_strings_round_trip_exactly(pattern in "[a-z ]{0,16}", case in 0u32..4) {
        // Mix plain text with the escape-needing characters.
        let decorated = match case {
            0 => pattern,
            1 => format!("{pattern}\"quoted\""),
            2 => format!("a\\b{pattern}\n\t"),
            _ => format!("#{pattern}#"),
        };
        let doc = format!("v = {}", format_value(&Value::Str(decorated.clone())));
        let root = toml_parse(&doc)
            .unwrap_or_else(|e| panic!("emitted string failed to parse: {e}\n{doc}"));
        prop_assert_eq!(&root["v"], &Value::Str(decorated));
    }
}

#[test]
fn hostile_documents_name_the_problem() {
    // A curated gallery of near-miss documents: each must fail, and
    // fail for the *right* reason.
    let cases: &[(&str, &str)] = &[
        // Overlapping dark windows on one target.
        (
            "name = \"x\"\napp = \"text-processing\"\n\
             [[events]]\nkind = \"outage\"\ntarget = \"hub\"\nstart = 0.0\nduration = 60.0\n\
             [[events]]\nkind = \"outage\"\ntarget = \"hub\"\nstart = 59.0\nduration = 60.0\n",
            "overlapping dark windows",
        ),
        // Zero-duration event.
        (
            "name = \"x\"\napp = \"text-processing\"\n\
             [[events]]\nkind = \"peer-uplink-kill\"\ndevice = 0\nstart = 1.0\nduration = 0\n",
            "must be positive",
        ),
        // Unknown registry id.
        (
            "name = \"x\"\napp = \"text-processing\"\n\
             [[events]]\nkind = \"outage\"\ntarget = \"quay\"\nstart = 0.0\nduration = 1.0\n",
            "unknown target `quay`",
        ),
        // Mirror index past the registered count.
        (
            "name = \"x\"\napp = \"text-processing\"\n[testbed]\nmirrors = 1\n\
             [[rates]]\ntarget = \"mirror-1\"\nfatal_per_pull = 0.1\ntransient_per_fetch = 0.0\n",
            "only 1 mirror(s)",
        ),
        // Unknown key (typo'd field).
        (
            "name = \"x\"\napp = \"text-processing\"\n\
             [[events]]\nkind = \"registry-gc\"\nat = 0.0\nwhen = 1.0\n",
            "unknown key `when`",
        ),
        // Negative gossip fanout.
        (
            "name = \"x\"\napp = \"text-processing\"\npeer_sharing = true\n\
             [gossip]\nfanout = -3\nview_size = 8\nrounds_per_wave = 1\n",
            "`fanout` in [gossip] must be a non-negative integer",
        ),
        // Zero gossip fanout.
        (
            "name = \"x\"\napp = \"text-processing\"\npeer_sharing = true\n\
             [gossip]\nfanout = 0\nview_size = 8\nrounds_per_wave = 1\n",
            "`fanout` in [gossip] must be at least 1",
        ),
        // Zero view size.
        (
            "name = \"x\"\napp = \"text-processing\"\npeer_sharing = true\n\
             [gossip]\nfanout = 2\nview_size = 0\nrounds_per_wave = 1\n",
            "`view_size` in [gossip] must be at least 1",
        ),
        // Unknown key inside [gossip].
        (
            "name = \"x\"\napp = \"text-processing\"\npeer_sharing = true\n\
             [gossip]\nfanout = 2\nview_size = 8\nrounds_per_wave = 1\nttl = 4\n",
            "unknown key `ttl` in [gossip]",
        ),
        // [gossip] without the peer plane it discovers for.
        (
            "name = \"x\"\napp = \"text-processing\"\n\
             [gossip]\nfanout = 2\nview_size = 8\nrounds_per_wave = 1\n",
            "[gossip] requires `peer_sharing = true`",
        ),
        // A gossip sweep axis with no [gossip] section to mutate.
        (
            "name = \"x\"\napp = \"text-processing\"\n\
             [[sweep]]\naxis = \"gossip-view-size\"\nvalues = [2, 4]\n",
            "sweep axis `gossip-view-size` requires a [gossip] section",
        ),
        // Fractional rounds on the gossip-rounds axis.
        (
            "name = \"x\"\napp = \"text-processing\"\npeer_sharing = true\n\
             [gossip]\nfanout = 2\nview_size = 8\nrounds_per_wave = 1\n\
             [[sweep]]\naxis = \"gossip-rounds\"\nvalues = [1.5]\n",
            "out-of-range value",
        ),
        // TOML-level breakage keeps its line number.
        ("name = \"x\"\napp = \"text-processing\"\nbroken", "line 3"),
    ];
    for (doc, needle) in cases {
        let err = Scenario::parse(doc).expect_err(doc);
        let msg = err.to_string();
        assert!(msg.contains(needle), "for {doc:?}\n  got:  {msg}\n  want: {needle}");
    }
}
