//! Differential tests for the selected-slots lognormal sampler.
//!
//! `fill_selected_lognormals` materialises only the slots a reader asks for and merely
//! advances the stream past the others. It must hand back exactly the gathered output
//! of `fill_lognormals` over the same batch, bit for bit, and leave the RNG in the
//! same state.

use pliant_telemetry::rng::{fill_lognormals, fill_selected_lognormals, seeded_rng};
use rand::Rng;

const SIGMAS: [f64; 7] = [0.0, 0.05, 0.35, 1.2, 200.0, 1000.0, f64::INFINITY];
const LENGTHS: [usize; 5] = [0, 1, 2, 1000, 4097];

/// A Bernoulli(`rate`) subset of `0..n` from its own stream, in increasing order.
fn thinned(n: usize, rate: f64, seed: u64) -> Vec<usize> {
    let mut rng = seeded_rng(seed);
    (0..n).filter(|_| rng.gen::<f64>() < rate).collect()
}

/// The selections every batch is checked under.
fn selections(n: usize, seed: u64) -> Vec<(&'static str, Vec<usize>)> {
    let mut past_the_end: Vec<usize> = [n / 2, n.saturating_sub(1)]
        .into_iter()
        .filter(|&i| i < n)
        .collect();
    past_the_end.dedup();
    past_the_end.extend([n, n + 1, n + 1000]);
    vec![
        ("empty", Vec::new()),
        ("all", (0..n).collect()),
        ("5%", thinned(n, 0.05, seed ^ 0x5)),
        ("25%", thinned(n, 0.25, seed ^ 0x25)),
        ("last slot", n.checked_sub(1).into_iter().collect()),
        ("past the end", past_the_end),
    ]
}

#[test]
fn selected_slots_match_the_gathered_batch_and_the_rng_state() {
    let (mut full, mut picked) = (Vec::new(), Vec::new());
    let mut checked = 0;
    for seed in [1, 7, 2024, 20_260_417] {
        for sigma in SIGMAS {
            for n in LENGTHS {
                for (name, selection) in selections(n, seed) {
                    let median = 0.000_25;
                    let mut full_rng = seeded_rng(seed);
                    let mut lazy_rng = seeded_rng(seed);
                    fill_lognormals(&mut full_rng, median, sigma, n, &mut full);
                    fill_selected_lognormals(
                        &mut lazy_rng,
                        median,
                        sigma,
                        n,
                        &selection,
                        &mut picked,
                    );
                    let gathered: Vec<f64> = selection
                        .iter()
                        .filter(|&&i| i < n)
                        .map(|&i| full[i])
                        .collect();
                    let what = format!("seed {seed} sigma {sigma} n {n} selection {name}");
                    assert_eq!(picked.len(), gathered.len(), "{what}: length");
                    for (k, (got, want)) in picked.iter().zip(&gathered).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{what}: value {k} is {got:e}, not {want:e}"
                        );
                    }
                    assert_eq!(
                        lazy_rng, full_rng,
                        "{what}: the selected pass consumed a different number of draws"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 4 * SIGMAS.len() * LENGTHS.len() * 6);
}

#[test]
fn selections_past_the_end_read_nothing_and_still_advance_the_stream() {
    let mut out = vec![1.0; 3];
    let mut lazy = seeded_rng(5);
    let mut full = seeded_rng(5);
    fill_selected_lognormals(&mut lazy, 1.0, 0.35, 1000, &[1000, 4096], &mut out);
    assert!(out.is_empty(), "stale values must be cleared");
    let mut batch = Vec::new();
    fill_lognormals(&mut full, 1.0, 0.35, 1000, &mut batch);
    assert_eq!(lazy, full);
}

#[test]
fn warm_refills_keep_the_buffer() {
    let mut rng = seeded_rng(11);
    let mut out = Vec::new();
    let every_fourth: Vec<usize> = (0..1000).step_by(4).collect();
    fill_selected_lognormals(&mut rng, 1.0, 0.35, 1000, &every_fourth, &mut out);
    let (capacity, buffer) = (out.capacity(), out.as_ptr());
    for (n, selection) in [
        (1000, thinned(1000, 0.05, 3)),
        (1000, every_fourth.clone()),
        (40, (0..40).collect()),
        (0, Vec::new()),
    ] {
        fill_selected_lognormals(&mut rng, 1.0, 0.35, n, &selection, &mut out);
        assert_eq!(out.capacity(), capacity, "n {n} reallocated");
        assert_eq!(out.as_ptr(), buffer, "n {n} moved the buffer");
    }
}
