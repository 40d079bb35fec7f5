//! Differential tests for the two-pass batch lognormal sampler.
//!
//! `fill_lognormals` generates its normals in one pass and applies `exp` in a second,
//! branch-free one. Both must reproduce the per-sample pipeline exactly: the same bits
//! in every slot and the same RNG state afterwards.

use pliant_telemetry::fastmath::{fast_exp, fast_exp_in_range, FAST_EXP_IN_RANGE_MAX};
use pliant_telemetry::rng::{fill_lognormals, sample_normal_ziggurat, seeded_rng};
use rand::rngs::SmallRng;

/// The per-sample loop `fill_lognormals` replaces, kept here as the reference.
fn reference_fill(rng: &mut SmallRng, median: f64, sigma: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let z = sample_normal_ziggurat(rng);
            median * fast_exp(sigma * z)
        })
        .collect()
}

fn assert_same_bits(x: f64, what: &str) {
    assert_eq!(
        fast_exp_in_range(x).to_bits(),
        fast_exp(x).to_bits(),
        "{what}: fast_exp_in_range({x:e}) != fast_exp({x:e})"
    );
}

#[test]
fn exp_core_matches_fast_exp_bit_for_bit_on_its_range() {
    let max = FAST_EXP_IN_RANGE_MAX;
    // Dense sweep; the step is irrational in units of ln 2, so the reduced argument
    // walks the whole of [-ln2/2, ln2/2].
    let steps = 2_000_003u32;
    for k in 0..=steps {
        let x = -max + 2.0 * max * f64::from(k) / f64::from(steps);
        assert_same_bits(x.clamp(-max, max), "sweep");
    }
    for x in [max, -max, 0.0, -0.0, max.next_down(), (-max).next_up()] {
        assert_same_bits(x, "edge");
    }
    // Exact multiples of ln 2 (r = 0) and the rounding midpoints between them, with
    // their neighbours, where the reduction picks n.
    let ln2 = std::f64::consts::LN_2;
    for k in -1019i32..=1019 {
        for x in [f64::from(k) * ln2, (f64::from(k) + 0.5) * ln2] {
            if x.abs() <= max {
                for y in [x.next_down(), x, x.next_up()] {
                    assert_same_bits(y, "multiple of ln 2");
                }
            }
        }
    }
}

/// Shapes: constant, the service range, one where a few samples of a long batch leave
/// the `exp` core's range, and two where nearly every batch does (the fallback pass).
const SIGMAS: [f64; 6] = [0.0, 0.05, 0.35, 1.2, 200.0, 1000.0];
const LENGTHS: [usize; 5] = [0, 1, 2, 1000, 4097];

/// Whether a batch from `seed` leaves the `exp` core's range, from the same normals the
/// batch draws (rounding is monotone, so the largest `|sigma * z|` is `sigma * max|z|`).
fn takes_fallback(seed: u64, sigma: f64, n: usize) -> bool {
    let mut rng = seeded_rng(seed);
    let max_z = (0..n)
        .map(|_| sample_normal_ziggurat(&mut rng).abs())
        .fold(0.0, f64::max);
    // NaN (infinite shape times a zero normal) leaves the range too.
    let in_range = sigma * max_z <= FAST_EXP_IN_RANGE_MAX;
    n > 0 && !in_range
}

#[test]
fn batches_match_the_per_sample_reference_loop() {
    let mut out = Vec::new();
    let (mut core_batches, mut fallback_batches) = (0, 0);
    for seed in [1, 7, 2024, 20_260_417] {
        for sigma in SIGMAS.into_iter().chain([f64::INFINITY]) {
            for n in LENGTHS {
                let median = 0.000_25;
                let mut batch_rng = seeded_rng(seed);
                let mut reference_rng = seeded_rng(seed);
                fill_lognormals(&mut batch_rng, median, sigma, n, &mut out);
                let reference = reference_fill(&mut reference_rng, median, sigma, n);
                assert_eq!(out.len(), n);
                for (k, (got, want)) in out.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "seed {seed} sigma {sigma} n {n}: sample {k} is {got:e}, not {want:e}"
                    );
                }
                assert_eq!(
                    batch_rng, reference_rng,
                    "seed {seed} sigma {sigma} n {n}: the batch consumed a different number of draws"
                );
                if takes_fallback(seed, sigma, n) {
                    fallback_batches += 1;
                } else if n > 0 {
                    core_batches += 1;
                }
            }
        }
    }
    // Shape 200 leaves the range only past |z| ≈ 3.5, so it lands on both sides.
    assert!(takes_fallback(1, 200.0, 4097) && !takes_fallback(1, 200.0, 1));
    assert!(
        core_batches > 20 && fallback_batches > 20,
        "{core_batches} core, {fallback_batches} fallback"
    );
}

#[test]
fn warm_refills_keep_the_buffer_on_both_passes() {
    let mut rng = seeded_rng(11);
    let mut out = Vec::new();
    fill_lognormals(&mut rng, 1.0, 0.35, 4097, &mut out);
    let capacity = out.capacity();
    let buffer = out.as_ptr();
    for (sigma, n) in [
        (0.35, 1000),
        (1000.0, 4097),
        (0.35, 4097),
        (1000.0, 1),
        (0.35, 0),
    ] {
        fill_lognormals(&mut rng, 1.0, sigma, n, &mut out);
        assert_eq!(out.len(), n);
        assert_eq!(out.capacity(), capacity, "sigma {sigma} n {n} reallocated");
        assert_eq!(out.as_ptr(), buffer, "sigma {sigma} n {n} moved the buffer");
    }
}
