//! Golden pins for the single-node path: the batch lognormal sampler and the
//! co-location engine's serialized outcomes.
//!
//! `tests/fleet_goldens.rs` pins fleets and `tests/engine_determinism.rs` checks that
//! serial and parallel runs agree; this file pins the single-node bytes themselves
//! against fixed references written below. Two tables:
//!
//! - the 64-bit FNV-1a digest of `fill_lognormals` output bits followed by the RNG's
//!   next word, over a grid of seeds, medians, shapes and batch lengths. Shape 1000
//!   pushes `|sigma * z|` past the range where the sampler's vectorized `exp` pass
//!   applies, so the per-element fallback is pinned as well;
//! - the digest of the serialized outcome of 3 services × 2 applications ×
//!   {Precise, Pliant}, 70 decision intervals each, on a load profile with two idle
//!   troughs.
//!
//! A diff means the sampler's stream or the co-location loop's behaviour changed
//! (a different floating-point operation order or RNG draw order); treat it as a
//! regression. There is deliberately no regeneration switch: a deliberate change
//! edits the digests in this file by hand, in the same commit as the change.

use pliant::prelude::*;
use pliant::telemetry::rng::{fill_lognormals, seeded_rng};
use rand::Rng;

/// 64-bit FNV-1a, continued from `hash`.
fn fnv1a_from(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `(seed, median, sigma, n, digest)`: the digest covers the little-endian bits of
/// every sample, then the RNG's next `u64`, so the number of draws consumed is pinned
/// along with the values.
const SAMPLER_GOLDENS: &[(u64, f64, f64, usize, u64)] = &[
    (1, 1.0, 0.0, 0, 0xa03604cb5d48e965),
    (1, 1.0, 0.0, 1, 0xe81bee3bc25f89ae),
    (1, 1.0, 0.0, 1000, 0x84cee7567b539627),
    (1, 1.0, 0.0, 4097, 0x2379812100968109),
    (1, 0.00025, 0.35, 0, 0xa03604cb5d48e965),
    (1, 0.00025, 0.35, 1, 0x477cd33c80f66966),
    (1, 0.00025, 0.35, 1000, 0xdd7b6e45071bfe04),
    (1, 0.00025, 0.35, 4097, 0x4678ddf52b9f49ae),
    (1, 1.0, 1000.0, 0, 0xa03604cb5d48e965),
    (1, 1.0, 1000.0, 1, 0x6a3ff1d6b7df356e),
    (1, 1.0, 1000.0, 1000, 0x5547ba78eb4a51f1),
    (1, 1.0, 1000.0, 4097, 0x4b0e5f3385c1fc09),
    (20260417, 1.0, 0.0, 0, 0xc3cbe5c4f4745592),
    (20260417, 1.0, 0.0, 1, 0xbbe9e34c57839b83),
    (20260417, 1.0, 0.0, 1000, 0x8c10c499a64d6d2f),
    (20260417, 1.0, 0.0, 4097, 0xe63d8a3315e80ac2),
    (20260417, 0.00025, 0.35, 0, 0xc3cbe5c4f4745592),
    (20260417, 0.00025, 0.35, 1, 0x518e0ee628f66034),
    (20260417, 0.00025, 0.35, 1000, 0x6c0737ab5b654dec),
    (20260417, 0.00025, 0.35, 4097, 0x0ded1d7642651e19),
    (20260417, 1.0, 1000.0, 0, 0xc3cbe5c4f4745592),
    (20260417, 1.0, 1000.0, 1, 0x1cfe47f6440bacd2),
    (20260417, 1.0, 1000.0, 1000, 0x92d855642bd021d6),
    (20260417, 1.0, 1000.0, 4097, 0x38c3d5d35bd4e8f2),
    (7, 0.002, 0.05, 1000, 0xabb1782d1911ee4a),
    (7, 0.002, 1.2, 1000, 0xa5a27d30c21d2c35),
];

/// `service/app/policy` and the digest of its serialized outcome.
const OUTCOME_GOLDENS: &[(&str, u64)] = &[
    ("Nginx/Canneal/Precise", 0xdd1056f614f31293),
    ("Nginx/Canneal/Pliant", 0x3e4e80da5f19d1b5),
    ("Nginx/Bayesian/Precise", 0x0415bf42efac13b8),
    ("Nginx/Bayesian/Pliant", 0xa93320a619685f8a),
    ("Memcached/Canneal/Precise", 0x3ddcce7d7f55fd0d),
    ("Memcached/Canneal/Pliant", 0x88b385df5d5ea481),
    ("Memcached/Bayesian/Precise", 0x11dbec8f06f14402),
    ("Memcached/Bayesian/Pliant", 0x2ebecb7b8a0483cf),
    ("MongoDb/Canneal/Precise", 0x2a56acec1e221d58),
    ("MongoDb/Canneal/Pliant", 0x6b2d34a7b476be3c),
    ("MongoDb/Bayesian/Precise", 0x21f08601b654a174),
    ("MongoDb/Bayesian/Pliant", 0xb23ee19ccec8af87),
];

fn sampler_digest(seed: u64, median: f64, sigma: f64, n: usize) -> u64 {
    let mut rng = seeded_rng(seed);
    let mut out = Vec::new();
    fill_lognormals(&mut rng, median, sigma, n, &mut out);
    assert_eq!(out.len(), n);
    let hash = out
        .iter()
        .fold(FNV_OFFSET, |h, x| fnv1a_from(h, &x.to_bits().to_le_bytes()));
    fnv1a_from(hash, &rng.gen::<u64>().to_le_bytes())
}

#[test]
fn lognormal_batches_match_the_golden_table() {
    let mut mismatches = Vec::new();
    let mut actual = Vec::new();
    for &(seed, median, sigma, n, want) in SAMPLER_GOLDENS {
        let got = sampler_digest(seed, median, sigma, n);
        actual.push(format!(
            "    ({seed}, {median:?}, {sigma:?}, {n}, 0x{got:016x}),"
        ));
        if got != want {
            mismatches.push(format!(
                "seed {seed} median {median} sigma {sigma} n {n}: {got:016x} != {want:016x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "sampler stream changed:\n{}\nactual table:\n{}",
        mismatches.join("\n"),
        actual.join("\n")
    );
}

/// The paper's operating point with two idle troughs, over 70 one-second intervals.
fn trough_profile() -> LoadProfile {
    LoadProfile::Trace {
        points: vec![
            (0.0, 0.75),
            (18.0, 0.75),
            (20.0, 0.0),
            (28.0, 0.0),
            (30.0, 0.75),
            (48.0, 0.75),
            (50.0, 0.0),
            (56.0, 0.0),
            (58.0, 0.75),
        ],
    }
}

#[test]
fn colocation_outcomes_match_the_golden_table() {
    let mut mismatches = Vec::new();
    let mut actual = Vec::new();
    let mut cases = 0;
    for service in ServiceId::all() {
        for app in [AppId::Canneal, AppId::Bayesian] {
            for policy in [PolicyKind::Precise, PolicyKind::Pliant] {
                let scenario = Scenario::builder(service)
                    .app(app)
                    .policy(policy)
                    .load_profile(trough_profile())
                    .horizon_intervals(70)
                    .stop_when_apps_finish(false)
                    .seed(4242)
                    .build();
                let outcome = Engine::new().run_scenario(&scenario);
                assert_eq!(outcome.intervals, 70);
                assert!(outcome.idle_intervals > 0, "the troughs must idle the node");
                let json = serde_json::to_string(&outcome).expect("outcomes serialize");
                let name = format!("{service:?}/{app:?}/{policy:?}");
                let got = fnv1a_from(FNV_OFFSET, json.as_bytes());
                actual.push(format!("    (\"{name}\", 0x{got:016x}),"));
                match OUTCOME_GOLDENS.iter().find(|(n, _)| *n == name) {
                    Some(&(_, want)) if want == got => {}
                    Some(&(_, want)) => {
                        mismatches.push(format!("{name}: {got:016x} != {want:016x}"))
                    }
                    None => mismatches.push(format!("{name}: no golden")),
                }
                cases += 1;
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "co-location outcomes changed:\n{}\nactual table:\n{}",
        mismatches.join("\n"),
        actual.join("\n")
    );
    assert_eq!(cases, OUTCOME_GOLDENS.len(), "every golden names a case");
}
