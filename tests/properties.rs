//! Property-based tests over the cross-crate invariants.

use deep::core::{calibration, DeepScheduler, Scheduler};
use deep::dataflow::{stages, DagGenerator};
use deep::game::{support_enumeration, Bimatrix, Matrix};
use deep::netsim::{Bandwidth, DataSize};
use deep::registry::sha256::{sha256, Sha256};
use deep::simulator::{execute, ExecutorConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated applications always validate, decompose into stages that
    /// partition the microservices, and schedule + execute cleanly.
    #[test]
    fn generated_apps_schedule_and_execute(seed in 0u64..500) {
        let gen = DagGenerator::default();
        let app = gen.generate(seed);
        // Stage partition.
        let st = stages(&app);
        let total: usize = st.iter().map(|s| s.members.len()).sum();
        prop_assert_eq!(total, app.len());
        // Producers strictly earlier than consumers.
        let stage_of = |id| st.iter().position(|s| s.members.contains(&id)).unwrap();
        for f in app.flows() {
            prop_assert!(stage_of(f.from) < stage_of(f.to));
        }
        // Schedule + execute.
        let mut tb = calibration::calibrated_testbed();
        tb.publish_application(&app);
        let schedule = DeepScheduler::paper().schedule(&app, &tb);
        let (report, _) = execute(&mut tb, &app, &schedule, &ExecutorConfig::default())
            .expect("generated apps are admissible on the paper testbed");
        // Conservation: CT decomposes, totals sum.
        let mut sum = 0.0;
        for m in &report.microservices {
            let ct = m.td.as_f64() + m.tc.as_f64() + m.tp.as_f64();
            prop_assert!((m.ct().as_f64() - ct).abs() < 1e-9);
            prop_assert!(m.energy.as_f64() >= 0.0);
            sum += m.energy.as_f64();
        }
        prop_assert!((report.total_energy().as_f64() - sum).abs() < 1e-6);
    }

    /// SHA-256 streaming equals one-shot for arbitrary splits.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        split_frac in 0.0f64..1.0
    ) {
        let split = ((data.len() as f64) * split_frac) as usize;
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Every equilibrium reported by support enumeration verifies as a
    /// Nash equilibrium, on random games.
    #[test]
    fn support_enumeration_is_sound(
        entries_a in proptest::collection::vec(-10.0f64..10.0, 9),
        entries_b in proptest::collection::vec(-10.0f64..10.0, 9)
    ) {
        let a = Matrix::from_fn(3, 3, |i, j| entries_a[i * 3 + j]);
        let b = Matrix::from_fn(3, 3, |i, j| entries_b[i * 3 + j]);
        let game = Bimatrix::new(a, b);
        for (x, y) in support_enumeration(&game) {
            prop_assert!(game.is_nash(&x, &y));
        }
    }

    /// Unit arithmetic: transfer time scales linearly in size and
    /// inversely in bandwidth.
    #[test]
    fn transfer_time_scaling(mb in 1.0f64..10_000.0, bw in 1.0f64..1_000.0) {
        let t1 = DataSize::megabytes(mb) / Bandwidth::megabytes_per_sec(bw);
        let t2 = DataSize::megabytes(2.0 * mb) / Bandwidth::megabytes_per_sec(bw);
        let t3 = DataSize::megabytes(mb) / Bandwidth::megabytes_per_sec(2.0 * bw);
        prop_assert!((t2.as_f64() - 2.0 * t1.as_f64()).abs() < 1e-6 * t1.as_f64().max(1.0));
        prop_assert!((t3.as_f64() - 0.5 * t1.as_f64()).abs() < 1e-6 * t1.as_f64().max(1.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DEEP's schedule is never worse than the best exclusive method on
    /// the scheduler's own estimates (sanity of the game solution), for
    /// random workloads.
    #[test]
    fn deep_estimates_dominate_exclusive_estimates(seed in 0u64..100) {
        use deep::core::ExclusiveRegistry;
        let gen = DagGenerator { stages: 3, width: (1, 3), ..DagGenerator::default() };
        let app = gen.generate(seed);
        let mut tb = calibration::calibrated_testbed();
        tb.publish_application(&app);
        let energy_of = |s: &deep::simulator::Schedule| -> f64 {
            let mut run_tb = calibration::calibrated_testbed();
            run_tb.publish_application(&app);
            let (report, _) = execute(&mut run_tb, &app, s, &ExecutorConfig::default()).unwrap();
            report.total_energy().as_f64()
        };
        let deep_e = energy_of(&DeepScheduler::paper().schedule(&app, &tb));
        let hub_e = energy_of(&ExclusiveRegistry::hub().schedule(&app, &tb));
        let reg_e = energy_of(&ExclusiveRegistry::regional().schedule(&app, &tb));
        prop_assert!(deep_e <= hub_e.min(reg_e) + 1e-6,
            "deep {} vs hub {} regional {}", deep_e, hub_e, reg_e);
    }
}
