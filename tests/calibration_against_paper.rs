//! Regenerated Table II against the published values: processing times
//! land on the calibrated midpoints, energies land in the right
//! neighbourhoods and orderings.

use deep::core::{calibration, Experiments};

#[test]
fn table2_processing_times_match_paper_midpoints_on_medium() {
    let exp = Experiments { trials: 6, base_seed: 11, jitter: 0.02 };
    let rows = exp.table2();
    let paper = calibration::paper_rows();
    for (row, p) in rows.iter().zip(&paper) {
        let mid = p.tp_mid();
        let measured_mid = (row.tp_medium.lo + row.tp_medium.hi) / 2.0;
        assert!(
            (measured_mid - mid).abs() / mid < 0.03,
            "{}/{}: measured {measured_mid:.1} vs paper {mid:.1}",
            row.application,
            row.microservice
        );
    }
}

#[test]
fn table2_energy_orderings_match_paper() {
    // Which device is cheaper per microservice is the load-bearing fact
    // for Table III; the regenerated energies must agree with the paper's
    // orderings row by row.
    let exp = Experiments { trials: 4, base_seed: 3, jitter: 0.02 };
    let rows = exp.table2();
    let paper = calibration::paper_rows();
    for (row, p) in rows.iter().zip(&paper) {
        let paper_medium_cheaper = p.ec_medium_mid() < p.ec_small_mid();
        let measured_medium_cheaper =
            (row.ec_medium.lo + row.ec_medium.hi) < (row.ec_small.lo + row.ec_small.hi);
        assert_eq!(
            measured_medium_cheaper,
            paper_medium_cheaper,
            "{}/{}: measured med {:?} small {:?}, paper med {} small {}",
            row.application,
            row.microservice,
            row.ec_medium,
            row.ec_small,
            p.ec_medium_mid(),
            p.ec_small_mid()
        );
    }
}

#[test]
fn table2_training_rows_dominate_energy() {
    let exp = Experiments { trials: 3, base_seed: 5, jitter: 0.02 };
    let rows = exp.table2();
    for app in ["video-processing", "text-processing"] {
        let max = rows
            .iter()
            .filter(|r| r.application == app)
            .max_by(|a, b| {
                let ea = a.ec_medium.hi.max(a.ec_small.hi);
                let eb = b.ec_medium.hi.max(b.ec_small.hi);
                ea.partial_cmp(&eb).unwrap()
            })
            .unwrap();
        assert!(max.microservice.contains("train"), "{app}: {}", max.microservice);
    }
}

#[test]
fn table2_energy_within_order_of_magnitude_of_paper() {
    // Absolute energies depend on deployment residuals that our bandwidth
    // model deliberately simplifies (the paper's testbed had large fixed
    // per-pull costs our simulation halves for small images). We therefore
    // require the right order of magnitude here; `repro_table2` prints
    // each row's measured energy beside the paper's.
    let exp = Experiments { trials: 3, base_seed: 9, jitter: 0.02 };
    let rows = exp.table2();
    let paper = calibration::paper_rows();
    for (row, p) in rows.iter().zip(&paper) {
        let measured = (row.ec_medium.lo + row.ec_medium.hi) / 2.0;
        let target = p.ec_medium_mid();
        let ratio = measured / target;
        assert!(
            (0.25..3.0).contains(&ratio),
            "{}/{} medium: measured {measured:.0} vs paper {target:.0}",
            row.application,
            row.microservice
        );
        let measured = (row.ec_small.lo + row.ec_small.hi) / 2.0;
        let target = p.ec_small_mid();
        let ratio = measured / target;
        assert!(
            (0.25..3.0).contains(&ratio),
            "{}/{} small: measured {measured:.0} vs paper {target:.0}",
            row.application,
            row.microservice
        );
    }
}

#[test]
fn calibration_speed_factors_separate_the_applications() {
    // Video's ML stages slow 3.2× on ARM, text runs near parity, and the
    // hardware-codec transcode stays at 1.0 — the measured asymmetry that
    // drives Table III's device split.
    let rows = calibration::paper_rows();
    for r in &rows {
        match (r.application, r.microservice) {
            ("video-processing", "transcode") => assert_eq!(r.small_speed_factor, 1.0),
            ("video-processing", _) => assert_eq!(r.small_speed_factor, 3.2),
            ("text-processing", _) => assert_eq!(r.small_speed_factor, 1.1),
            _ => unreachable!(),
        }
    }
}
