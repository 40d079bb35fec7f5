//! Stream pins for the busy-interval sample path: the ziggurat normal, the two batch
//! lognormal samplers and the monitor's index selection.
//!
//! Every digest is a 64-bit FNV-1a over the little-endian bits of each value a call
//! returns, followed by the RNG's four state words after that call, so the values, the
//! number of draws consumed and the order they were consumed in are all pinned. The
//! references are written below by hand and were computed before any of these routines
//! was last optimised; they do not come from a second implementation in this file (a
//! reference that calls `sample_normal_ziggurat` would only compare the code with
//! itself).
//!
//! A diff means a sampler or the selection drew differently; treat it as a regression.
//! There is deliberately no regeneration switch: a deliberate change edits the digests
//! in this file by hand, in the same commit as the change.

use pliant::prelude::*;
use pliant::telemetry::rng::{
    fill_lognormals, fill_selected_lognormals, sample_normal_ziggurat, seeded_rng,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `word`'s little-endian bytes, continued from `hash`.
fn fnv1a_word(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv1a_state(hash: u64, state: &[u64]) -> u64 {
    state.iter().fold(hash, |h, &w| fnv1a_word(h, w))
}

fn fnv1a_values(hash: u64, values: &[f64]) -> u64 {
    let hash = fnv1a_word(hash, values.len() as u64);
    values.iter().fold(hash, |h, x| fnv1a_word(h, x.to_bits()))
}

/// Compares `(label, got, want)` rows and prints the whole actual table on a mismatch.
fn assert_table(what: &str, rows: &[(String, u64, u64)]) {
    let mismatches: Vec<String> = rows
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, got, want)| format!("{label}: 0x{got:016x} != 0x{want:016x}"))
        .collect();
    let actual: Vec<String> = rows
        .iter()
        .map(|(label, got, _)| format!("    {label} => 0x{got:016x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{what} stream changed:\n{}\nactual table:\n{}",
        mismatches.join("\n"),
        actual.join("\n")
    );
}

/// `(seed, digest)` of 10⁶ `sample_normal_ziggurat` draws, then the RNG state.
const NORMAL_GOLDENS: &[(u64, u64)] = &[(1, 0x86d9ce197b914810), (20260417, 0x7f13ec9889031be5)];

#[test]
fn ziggurat_normals_match_the_pinned_stream() {
    let rows: Vec<_> = NORMAL_GOLDENS
        .iter()
        .map(|&(seed, want)| {
            let mut rng = seeded_rng(seed);
            let mut hash = FNV_OFFSET;
            for _ in 0..1_000_000 {
                hash = fnv1a_word(hash, sample_normal_ziggurat(&mut rng).to_bits());
            }
            (
                format!("seed {seed}"),
                fnv1a_state(hash, &rng.state()),
                want,
            )
        })
        .collect();
    assert_table("ziggurat normal", &rows);
}

/// Median of every lognormal batch below (a memcached-like 250 µs).
const MEDIAN: f64 = 0.00025;

/// `(sigma, n, digest)` of three consecutive `fill_lognormals` batches on one RNG
/// (seed 11), each batch followed by the RNG state. Shape 200 pushes `|sigma * z|`
/// past the vectorized `exp` range, so the per-slot fallback is pinned too.
const FILL_GOLDENS: &[(f64, usize, u64)] = &[
    (0.35, 1, 0x169fb4d45c96fa81),
    (0.35, 1000, 0x67f48244d14ef6aa),
    (0.35, 4097, 0x482b73c9885f95da),
    (1.2, 1, 0x48140d4aabb7e58d),
    (1.2, 1000, 0x841551276e232f1d),
    (1.2, 4097, 0xfd8e934a15daf265),
    (200.0, 1, 0xcb600b64c44e6c18),
    (200.0, 1000, 0xe688ca129a7ed863),
    (200.0, 4097, 0x83f0b64899818a51),
];

#[test]
fn lognormal_batches_match_the_pinned_stream() {
    let rows: Vec<_> = FILL_GOLDENS
        .iter()
        .map(|&(sigma, n, want)| {
            let mut rng = seeded_rng(11);
            let (mut out, mut hash) = (Vec::new(), FNV_OFFSET);
            for _ in 0..3 {
                fill_lognormals(&mut rng, MEDIAN, sigma, n, &mut out);
                hash = fnv1a_state(fnv1a_values(hash, &out), &rng.state());
            }
            (format!("sigma {sigma} n {n}"), hash, want)
        })
        .collect();
    assert_table("fill_lognormals", &rows);
}

/// The slot lists the selected-sample batches read, in call order: every 20th slot
/// (the monitor's base rate), every 4th (its elevated rate), none, every slot, and a
/// sparse list that runs past the batch end (indices at or past `n` are ignored).
fn selections(n: usize) -> Vec<Vec<usize>> {
    vec![
        (3..n).step_by(20).collect(),
        (1..n).step_by(4).collect(),
        Vec::new(),
        (0..n).collect(),
        vec![0, 2, 999, 1000, 4096, 4097, 9000],
    ]
}

/// `(sigma, n, digest)` of `fill_selected_lognormals` over the [`selections`] in turn
/// on one RNG (seed 12), each batch followed by the RNG state.
const SELECTED_GOLDENS: &[(f64, usize, u64)] = &[
    (0.35, 1, 0xa377da611d5422b2),
    (0.35, 1000, 0x95ec90a4b41c8ac8),
    (0.35, 4097, 0x1b24c9658c36f60a),
    (1.2, 1, 0x1ec4ca3aa0b44aa4),
    (1.2, 1000, 0x73728dc5c0b6ec82),
    (1.2, 4097, 0x31194498c071e3a8),
    (200.0, 1, 0xa2d68ffd39a71264),
    (200.0, 1000, 0x7569fe834fd06ce3),
    (200.0, 4097, 0x79af787ad352f5c5),
];

#[test]
fn selected_lognormal_batches_match_the_pinned_stream() {
    let rows: Vec<_> = SELECTED_GOLDENS
        .iter()
        .map(|&(sigma, n, want)| {
            let mut rng = seeded_rng(12);
            let (mut out, mut hash) = (Vec::new(), FNV_OFFSET);
            for selected in selections(n) {
                fill_selected_lognormals(&mut rng, MEDIAN, sigma, n, &selected, &mut out);
                hash = fnv1a_state(fnv1a_values(hash, &out), &rng.state());
            }
            (format!("sigma {sigma} n {n}"), hash, want)
        })
        .collect();
    assert_table("fill_selected_lognormals", &rows);
}

/// Interval sizes the selection cycles through: empty, below and at the 20-sample
/// fallback floor, short, the paper's 1000 and a long interval.
const INTERVAL_SIZES: [usize; 10] = [1000, 0, 1, 19, 20, 37, 400, 1000, 4097, 1000];

/// Selects indices over 10⁴ intervals and digests each selection's indices and the
/// monitor's RNG state after it. With `escalate`, the monitor ingests a flat latency
/// that crosses its escalation ratio on every other run of three intervals, so the
/// base and elevated rates alternate inside one stream.
fn selection_digest(config: MonitorConfig, seed: u64, escalate: bool) -> u64 {
    let mut monitor = PerformanceMonitor::new(config, seed);
    let (mut selected, mut hash) = (Vec::new(), FNV_OFFSET);
    for k in 0..10_000 {
        let n = INTERVAL_SIZES[k % INTERVAL_SIZES.len()];
        monitor.select_samples(n, &mut selected);
        hash = fnv1a_word(hash, selected.len() as u64);
        hash = selected.iter().fold(hash, |h, &i| fnv1a_word(h, i as u64));
        hash = fnv1a_state(hash, &monitor.snapshot().rng);
        if escalate {
            let latency = if (k / 3) % 2 == 0 {
                0.2 * config.qos_target_s
            } else {
                0.9 * config.qos_target_s
            };
            monitor.observe_selected(&vec![latency; selected.len()]);
        }
    }
    hash
}

/// `(label, digest)` of [`selection_digest`] at the base rate, the elevated rate, and
/// alternating between them through real escalation.
const SELECTION_GOLDENS: &[(&str, u64)] = &[
    ("base 0.05", 0xc055be95e8da72cf),
    ("elevated 0.25", 0x1325a6d142a7466d),
    ("escalating", 0x70f827ea624f9ce7),
];

#[test]
fn monitor_selections_match_the_pinned_stream() {
    let base = MonitorConfig::for_qos(0.001);
    let elevated = MonitorConfig {
        base_sample_rate: base.elevated_sample_rate,
        ..base
    };
    let got = [
        selection_digest(base, 31, false),
        selection_digest(elevated, 32, false),
        selection_digest(base, 33, true),
    ];
    let rows: Vec<_> = SELECTION_GOLDENS
        .iter()
        .zip(got)
        .map(|(&(label, want), got)| (label.to_string(), got, want))
        .collect();
    assert_table("select_samples", &rows);
}
