//! Differential test: the single-application `PliantController` against the
//! round-robin `MultiAppController` managing one application.
//!
//! With one application the round-robin arbiter has nobody to rotate to, so both
//! controllers implement the same Fig. 3 algorithm. Seeded random report streams
//! (violations, slack on both sides of the threshold, idle no-signal intervals) must
//! draw identical actions, variants, core ledgers and decision counts from both, at
//! every step.

use pliant::runtime::monitor::MonitorReport;
use pliant::runtime::multi::MultiAppController;
use pliant::runtime::{ControllerConfig, PliantController};
use pliant::telemetry::rng::{derive_seed, seeded_rng};
use rand::Rng;

const RUNS: u64 = 2000;
const DECISIONS: usize = 300;

/// One random monitor report around `threshold`: a violation, slack above or below the
/// threshold (or exactly on it), a met interval with negative slack, or no signal.
fn random_report(rng: &mut impl Rng, threshold: f64) -> MonitorReport {
    let mut report = MonitorReport {
        p99_s: 0.005,
        mean_s: 0.002,
        smoothed_p99_s: 0.005,
        sampled: 50,
        qos_violated: false,
        slack_fraction: 0.0,
        no_signal: false,
    };
    match rng.gen_range(0u32..6) {
        0 => {
            report.qos_violated = true;
            report.slack_fraction = -rng.gen::<f64>();
        }
        1 => report.slack_fraction = threshold + rng.gen::<f64>() * (1.0 - threshold),
        2 => report.slack_fraction = rng.gen::<f64>() * threshold,
        3 => report.slack_fraction = threshold,
        4 => report.slack_fraction = -0.1 * rng.gen::<f64>(),
        _ => {
            report.no_signal = true;
            report.sampled = 0;
        }
    }
    report
}

#[test]
fn single_controller_matches_the_multi_app_controller_with_one_app() {
    for run in 0..RUNS {
        let mut rng = seeded_rng(derive_seed(0xC0_4E40, run));
        let variants = rng.gen_range(1usize..7);
        let cores = rng.gen_range(1u32..9);
        let config = ControllerConfig {
            consecutive_slack_required: rng.gen_range(1u32..4),
            ..ControllerConfig::default()
        };
        let mut single = PliantController::new(config, variants, cores);
        let mut multi = MultiAppController::new(config, &[variants], &[cores], run as usize);
        for step in 0..DECISIONS {
            let report = random_report(&mut rng, config.slack_threshold);
            let expected = single.decide(0, &report);
            let got = multi.decide(&report);
            let context = || {
                format!(
                    "run {run} ({variants} variants, {cores} cores), decision {step}: {report:?}"
                )
            };
            assert_eq!(got, expected, "actions differ: {}", context());
            assert_eq!(multi.variant(0), single.variant(), "variant: {}", context());
            assert_eq!(
                multi.cores_reclaimed(0),
                single.cores_reclaimed(),
                "core ledger: {}",
                context()
            );
            assert_eq!(multi.decisions(), single.decisions(), "{}", context());
        }
    }
}
