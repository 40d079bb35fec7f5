//! Deterministic random-number helpers and samplers.
//!
//! Every stochastic component in the reproduction (request arrivals, service-time noise,
//! kernel input generation) draws from a seeded [`rand::rngs::SmallRng`] created through
//! this module, so experiment results are reproducible run-to-run.

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fastmath::{fast_exp, fast_exp_in_range, fast_ln, FAST_EXP_IN_RANGE_MAX};

/// Creates a deterministic RNG from an explicit seed.
///
/// # Example
///
/// ```
/// use pliant_telemetry::rng::seeded_rng;
/// use rand::Rng;
///
/// let mut a = seeded_rng(7);
/// let mut b = seeded_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives a sub-seed from a parent seed and a stream label.
///
/// Used to give each component of an experiment (arrival process, service times, kernel
/// input, controller jitter) an independent but reproducible stream.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the combined value: cheap, well-distributed, deterministic.
    let mut z = parent
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Captures an RNG's internal state as the wire form checkpoints archive (the offline
/// serde shim cannot round-trip fixed arrays, so snapshots carry a `Vec<u64>`).
pub fn rng_state_words(rng: &SmallRng) -> Vec<u64> {
    rng.state().to_vec()
}

/// Rebuilds an RNG from a state captured by [`rng_state_words`], continuing the stream
/// exactly where the snapshot left off. Rejects wire states of the wrong width and the
/// all-zero state (a fixed point of xoshiro256++ that a live RNG can never reach).
pub fn rng_from_state_words(words: &[u64]) -> Result<SmallRng, String> {
    let state: [u64; 4] = words
        .try_into()
        .map_err(|_| format!("rng state must be 4 words, got {}", words.len()))?;
    if state.iter().all(|&w| w == 0) {
        return Err("rng state must not be all-zero".to_string());
    }
    Ok(SmallRng::from_state(state))
}

/// Samples an exponentially-distributed value with the given rate (events per unit time).
///
/// Used for Poisson-process inter-arrival times in the open-loop workload generators.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// Samples a Poisson-distributed count with the given mean.
///
/// Uses Knuth's multiplication method for small means and a normal approximation for large
/// means (>64), which is plenty accurate for request-count-per-tick sampling.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 64.0 {
        // Normal approximation with continuity correction.
        let g = sample_standard_normal(rng);
        let v = mean + mean.sqrt() * g + 0.5;
        return v.max(0.0) as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0f64..1.0);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k;
        }
    }
}

/// Samples a standard normal variate using the Box–Muller transform.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0f64..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples a lognormal variate parameterized by the *median* and the shape `sigma` (the
/// standard deviation of the underlying normal).
///
/// Service-time distributions of interactive cloud services are heavy-tailed; a lognormal
/// body is a standard modelling choice and produces realistic p99/p50 ratios.
///
/// # Panics
///
/// Panics if `median` is not strictly positive or `sigma` is negative.
pub fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0, "lognormal median must be positive");
    assert!(sigma >= 0.0, "lognormal sigma must be non-negative");
    let n = sample_standard_normal(rng);
    median * (sigma * n).exp()
}

/// Number of ziggurat layers (one base strip including the tail plus 255 stacked
/// rectangles of equal area).
const ZIG_LAYERS: usize = 256;
/// Right edge of the base strip of the 256-layer normal ziggurat.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Common area of every ziggurat region (rectangle or base strip plus tail).
const ZIG_V: f64 = 4.928_673_233_974_655e-3;

/// Precomputed ziggurat edges `x[i]`, densities `f[i] = exp(-x[i]^2 / 2)`, and integer
/// accept thresholds `k[i]`.
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
    /// `k[i]` is the smallest 53-bit draw `m` whose candidate `unit(m) * x[i]` is *not*
    /// below `x[i + 1]`: a draw is accepted on the inner rectangle exactly when
    /// `m < k[i]`. The float test is monotone in `m` (the conversion to a unit is exact
    /// and a rounded multiply by a positive `x[i]` never decreases), so the accepted
    /// draws form the prefix `[0, k[i])` and one integer compare decides it.
    k: [u64; ZIG_LAYERS],
}

/// Builds the ziggurat tables once per process via the standard downward recurrence
/// `x[i] = f^-1(V / x[i-1] + f(x[i-1]))`; `x[0]` is the base strip's pseudo-edge
/// `V / f(R)` (> R) so one uniform draw covers both the strip and the tail branch. Each
/// accept threshold `k[i]` is found by binary search over the float test itself.
fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |v: f64| (-0.5 * v * v).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        x[ZIG_LAYERS] = 0.0;
        let mut f = [0.0; ZIG_LAYERS + 1];
        for i in 0..=ZIG_LAYERS {
            f[i] = pdf(x[i]);
        }
        let mut k = [0u64; ZIG_LAYERS];
        for (i, k) in k.iter_mut().enumerate() {
            // The first rejected draw, by bisection over `[0, 2^53]` (`unit(2^53) = 1`
            // gives `x[i]`, which is not below `x[i + 1]`).
            let (mut lo, mut hi) = (0u64, 1u64 << 53);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if inner_accepts(x[i], x[i + 1], mid) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            *k = lo;
        }
        ZigTables { x, f, k }
    })
}

/// The unit uniform of a 53-bit draw `m` (exact: every such integer is an `f64`).
#[inline(always)]
fn unit(m: u64) -> f64 {
    m as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The ziggurat's inner-rectangle test for a 53-bit draw `m` on a layer with edge
/// `x_i` under the next edge `x_next`, exactly as the sampler evaluates it.
#[inline(always)]
fn inner_accepts(x_i: f64, x_next: f64, m: u64) -> bool {
    unit(m) * x_i < x_next
}

/// Samples a standard normal variate with the 256-layer ziggurat algorithm
/// (Marsaglia–Tsang).
///
/// This is the hot-path normal sampler: the common case costs one 64-bit RNG draw, one
/// table lookup, one multiply, and one compare (~98% of draws), versus a logarithm, a
/// square root, and a cosine for the Box–Muller sampler in
/// [`sample_standard_normal`]. The two samplers produce the same distribution but
/// different streams; Box–Muller is kept for the calibrated kernel and noise streams
/// whose historical sequences tests pin, while batch sample generation uses this one.
///
/// The common case is inlined here and in [`fill_lognormals`]; the draws that miss the
/// layer's inner rectangle continue in one out-of-line slow path (wedge and tail), so
/// both consume the RNG draw for draw alike.
pub fn sample_normal_ziggurat<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ziggurat_normal(zig_tables(), rng)
}

/// One ziggurat normal: the common case inline, wedge and tail in the slow path.
#[inline(always)]
fn ziggurat_normal<R: Rng + ?Sized>(t: &ZigTables, rng: &mut R) -> f64 {
    let bits: u64 = rng.gen();
    let (i, x) = ziggurat_candidate(t, bits);
    // Wholly inside the layer's inner rectangle: accept immediately.
    if x < t.x[i + 1] {
        ziggurat_signed(bits, x)
    } else {
        ziggurat_slow_path(t, rng, bits)
    }
}

/// Decodes one ziggurat draw: the layer (low 8 bits) and the unsigned candidate
/// `x = u · x[i]` from a 53-bit uniform (bits 11..64). Bit 8, independent of both, is
/// the sign [`ziggurat_signed`] gives an accepted value.
#[inline(always)]
fn ziggurat_candidate(t: &ZigTables, bits: u64) -> (usize, f64) {
    let i = (bits & 0xff) as usize;
    (i, unit(bits >> 11) * t.x[i])
}

/// Gives an accepted magnitude `x >= 0` the sign that bit 8 of its candidate's draw
/// `bits` picks (set: negative), by moving that bit into the sign bit.
///
/// For every finite `x >= 0` this is bit for bit `±1.0 * x`, `+0.0 → -0.0` included,
/// but it compiles to a shift and an `xor`: a branch on the sign bit goes either way on
/// a random half of the draws, so it is mispredicted about half the time.
#[inline(always)]
fn ziggurat_signed(bits: u64, x: f64) -> f64 {
    f64::from_bits(x.to_bits() ^ ((bits & 0x100) << 55))
}

/// Advances `rng` past one ziggurat normal without computing it: the draws are exactly
/// those of [`ziggurat_normal`], but the common case is one draw and one integer
/// compare against the layer's accept threshold. A miss runs the shared slow path and
/// discards its value.
#[inline(always)]
fn ziggurat_skip<R: Rng + ?Sized>(t: &ZigTables, rng: &mut R) {
    let bits: u64 = rng.gen();
    if bits >> 11 >= t.k[(bits & 0xff) as usize] {
        ziggurat_slow_path(t, rng, bits);
    }
}

/// The ziggurat's rare case (~1–2% of draws), starting from a first draw `bits` whose
/// candidate missed the inner rectangle: the wedge and tail tests, then fresh draws
/// until one is accepted.
#[cold]
#[inline(never)]
fn ziggurat_slow_path<R: Rng + ?Sized>(t: &ZigTables, rng: &mut R, mut bits: u64) -> f64 {
    loop {
        let (i, x) = ziggurat_candidate(t, bits);
        // Fails for the first draw; a fresh one may land inside its inner rectangle.
        if x < t.x[i + 1] {
            return ziggurat_signed(bits, x);
        }
        if i == 0 {
            // Base strip: x in [R, x[0]) selects the tail (Marsaglia's exponential
            // rejection; a zero uniform yields an infinite candidate and is rejected).
            loop {
                let u1: f64 = rng.gen();
                let u2: f64 = rng.gen();
                let xt = -fast_ln(u1) / ZIG_R;
                let yt = -fast_ln(u2);
                if xt.is_finite() && 2.0 * yt >= xt * xt {
                    return ziggurat_signed(bits, ZIG_R + xt);
                }
            }
        }
        // Wedge: x in [x[i+1], x[i]); accept with probability proportional to the
        // density overhang above the layer's flat top.
        let y = t.f[i] + (t.f[i + 1] - t.f[i]) * rng.gen::<f64>();
        if y < fast_exp(-0.5 * x * x) {
            return ziggurat_signed(bits, x);
        }
        bits = rng.gen();
    }
}

/// Clears `out` and fills it with `n` lognormal samples parameterized like
/// [`sample_lognormal`] (median and shape `sigma`).
///
/// This is the batch sampler the co-location hot path uses for per-interval latency
/// sample generation, in two passes over `out`:
///
/// 1. **Normals.** Each slot gets `sigma * z` for a ziggurat normal `z`, with the
///    common case of [`sample_normal_ziggurat`] inlined (one draw, one lookup, one
///    multiply, one compare) and the rare wedge and tail draws in its shared slow path.
/// 2. **`exp`.** When every `|sigma * z|` is at most [`FAST_EXP_IN_RANGE_MAX`]
///    (always, at the shapes services use), each slot becomes
///    `median * fast_exp_in_range(..)`, a branch-free loop the compiler vectorizes;
///    otherwise (a huge `sigma`, or NaN) each slot takes [`fast_exp`] with its edge
///    guards.
///
/// The output is the same stream, bit for bit and RNG draw for draw, as the
/// per-sample loop `median * fast_exp(sigma * sample_normal_ziggurat(rng))`: the same
/// floating-point operations run in the same order, only regrouped into passes. Versus
/// [`sample_lognormal`]'s Box–Muller + `libm` pipeline it has the identical
/// distribution and a different stream.
///
/// # Panics
///
/// Panics if `median` is not strictly positive or `sigma` is negative.
pub fn fill_lognormals<R: Rng + ?Sized>(
    rng: &mut R,
    median: f64,
    sigma: f64,
    n: usize,
    out: &mut Vec<f64>,
) {
    assert!(median > 0.0, "lognormal median must be positive");
    assert!(sigma >= 0.0, "lognormal sigma must be non-negative");
    // The table reference is taken once per batch: calling `sample_normal_ziggurat` per
    // slot re-reads the `OnceLock` each time, which measured slower.
    let t = zig_tables();
    out.clear();
    out.reserve(n);
    out.extend((0..n).map(|_| sigma * ziggurat_normal(t, rng)));
    exp_pass(median, out);
}

/// The second pass of the batch samplers: turns every `sigma * z` in `out` into
/// `median * exp(sigma * z)`, through the branch-free [`fast_exp_in_range`] when every
/// slot is in its range and through [`fast_exp`] otherwise (the same bits either way).
#[inline(always)]
fn exp_pass(median: f64, out: &mut [f64]) {
    // Not `all`: a non-short-circuiting fold vectorizes, and NaN compares false.
    let in_range = out
        .iter()
        .fold(true, |ok, x| ok & (x.abs() <= FAST_EXP_IN_RANGE_MAX));
    if in_range {
        for x in out.iter_mut() {
            *x = median * fast_exp_in_range(*x);
        }
    } else {
        for x in out.iter_mut() {
            *x = median * fast_exp(*x);
        }
    }
}

/// Clears `out` and fills it with the lognormal samples of the slots listed in
/// `selected` out of an `n`-slot batch: `out[j]` is bit for bit the value
/// [`fill_lognormals`] would put in slot `selected[j]`, and `rng` ends in the same
/// state, draw for draw.
///
/// `selected` must be strictly increasing; indices at or past `n` are ignored. This is
/// the sampler for readers that look at a few slots of a batch, such as a monitor that
/// subsamples 5% of an interval's requests. Every slot still consumes its draws, so the
/// stream stays in lockstep with the full batch:
///
/// - an **unread** slot costs one `u64` draw and one integer compare against the
///   layer's accept threshold (the rare miss runs the ziggurat slow path and drops its
///   value);
/// - a **read** slot stores `sigma * z` for its ziggurat normal `z`, and the read
///   values then take [`fill_lognormals`]'s second pass (`median * exp`, vectorized
///   when every value is in [`fast_exp_in_range`]'s range).
///
/// # Panics
///
/// Panics if `median` is not strictly positive or `sigma` is negative.
pub fn fill_selected_lognormals<R: Rng + ?Sized>(
    rng: &mut R,
    median: f64,
    sigma: f64,
    n: usize,
    selected: &[usize],
    out: &mut Vec<f64>,
) {
    assert!(median > 0.0, "lognormal median must be positive");
    assert!(sigma >= 0.0, "lognormal sigma must be non-negative");
    let t = zig_tables();
    out.clear();
    out.reserve(selected.len().min(n));
    let mut slot = 0;
    for &read in selected {
        if read >= n {
            break;
        }
        debug_assert!(read >= slot, "selected slots must be strictly increasing");
        for _ in slot..read {
            ziggurat_skip(t, rng);
        }
        out.push(sigma * ziggurat_normal(t, rng));
        slot = read + 1;
    }
    for _ in slot..n {
        ziggurat_skip(t, rng);
    }
    exp_pass(median, out);
}

/// Samples a bounded Pareto variate with shape `alpha` on `[min, max]`.
///
/// Used to inject occasional very slow requests (e.g. MongoDB disk stalls) into the
/// discrete-event simulator.
///
/// # Panics
///
/// Panics if the bounds are not `0 < min < max` or `alpha <= 0`.
pub fn sample_bounded_pareto<R: Rng + ?Sized>(rng: &mut R, alpha: f64, min: f64, max: f64) -> f64 {
    assert!(min > 0.0 && max > min, "require 0 < min < max");
    assert!(alpha > 0.0, "alpha must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let ha = max.powf(alpha);
    let la = min.powf(alpha);
    let x = -(u * ha - u * la - ha) / (ha * la);
    x.powf(-1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(123);
        let mut b = seeded_rng(123);
        for _ in 0..10 {
            assert_eq!(rand::Rng::gen::<u64>(&mut a), rand::Rng::gen::<u64>(&mut b));
        }
    }

    #[test]
    fn derive_seed_varies_with_stream() {
        let s1 = derive_seed(42, 0);
        let s2 = derive_seed(42, 1);
        let s3 = derive_seed(43, 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(derive_seed(42, 0), s1);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = seeded_rng(7);
        let rate = 4.0;
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| sample_exponential(&mut rng, rate))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn poisson_mean_matches_parameter() {
        let mut rng = seeded_rng(11);
        for &lambda in &[0.5, 3.0, 20.0, 150.0] {
            let n = 20_000;
            let mean: f64 = (0..n)
                .map(|_| sample_poisson(&mut rng, lambda) as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - lambda).abs() / lambda.max(1.0) < 0.05,
                "lambda {lambda} produced mean {mean}"
            );
        }
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        assert_eq!(sample_poisson(&mut rng, -1.0), 0);
    }

    #[test]
    fn lognormal_median_is_approximately_parameter() {
        let mut rng = seeded_rng(5);
        let mut v: Vec<f64> = (0..20_001)
            .map(|_| sample_lognormal(&mut rng, 10.0, 0.5))
            .collect();
        v.sort_unstable_by(f64::total_cmp);
        let median = v[v.len() / 2];
        assert!((median - 10.0).abs() / 10.0 < 0.05, "median {median}");
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let mut rng = seeded_rng(5);
        for _ in 0..10 {
            assert!((sample_lognormal(&mut rng, 3.0, 0.0) - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bounded_pareto_within_bounds() {
        let mut rng = seeded_rng(9);
        for _ in 0..5_000 {
            let x = sample_bounded_pareto(&mut rng, 1.5, 1.0, 100.0);
            assert!(
                (1.0 - 1e-9..=100.0 + 1e-9).contains(&x),
                "out of bounds: {x}"
            );
        }
    }

    #[test]
    fn ziggurat_layers_have_equal_area() {
        // Every region of the ziggurat must have area V: the base strip plus tail, and
        // each stacked rectangle x[i] * (f(x[i+1]) - f(x[i])).
        let t = zig_tables();
        for i in 1..ZIG_LAYERS {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!(
                (area - ZIG_V).abs() / ZIG_V < 1e-7,
                "layer {i} area {area} != {ZIG_V}"
            );
        }
        // Edges must descend strictly from the pseudo-edge to zero.
        assert!(t.x[0] > t.x[1]);
        for i in 1..ZIG_LAYERS {
            assert!(t.x[i] > t.x[i + 1], "edges must strictly decrease at {i}");
        }
        assert_eq!(t.x[ZIG_LAYERS], 0.0);
        assert_eq!(t.f[ZIG_LAYERS], 1.0);
    }

    #[test]
    fn accept_thresholds_split_every_layer_exactly_where_the_float_test_does() {
        let t = zig_tables();
        for i in 0..ZIG_LAYERS {
            let k = t.k[i];
            let accepts = |m: u64| inner_accepts(t.x[i], t.x[i + 1], m);
            assert!(
                k < 1 << 53,
                "layer {i}: threshold {k} past the 53-bit draws"
            );
            assert!(!accepts(k), "layer {i}: draw {k} must be rejected");
            if k > 0 {
                assert!(accepts(k - 1), "layer {i}: draw {} must be accepted", k - 1);
            }
        }
        // The top layer sits on x = 0 and never accepts; every other layer accepts
        // most of its draws.
        assert_eq!(t.k[ZIG_LAYERS - 1], 0);
        assert!(t.k[..ZIG_LAYERS - 1].iter().all(|&k| k > 1 << 51));
    }

    #[test]
    fn signing_by_the_sign_bit_matches_multiplying_by_plus_or_minus_one() {
        let magnitudes = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            ZIG_R,
            ZIG_R + 700.0,
            f64::MAX,
        ];
        for x in magnitudes {
            for bits in [0u64, 0x100, 0xffff_ffff_ffff_feff, u64::MAX] {
                let sign = if bits & 0x100 == 0 { 1.0 } else { -1.0 };
                assert_eq!(
                    ziggurat_signed(bits, x).to_bits(),
                    (sign * x).to_bits(),
                    "x {x:e}, bits {bits:#x}"
                );
            }
        }
    }

    #[test]
    fn ziggurat_matches_the_standard_normal_distribution() {
        let mut rng = seeded_rng(314);
        let n = 400_000;
        let mut v: Vec<f64> = (0..n).map(|_| sample_normal_ziggurat(&mut rng)).collect();
        let mean = v.iter().sum::<f64>() / n as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
        v.sort_unstable_by(f64::total_cmp);
        // Quantiles of the standard normal: median 0, p90 1.2816, p99 2.3263,
        // p999 3.0902 (exercises the wedge and tail branches).
        let q = |p: f64| v[(p * n as f64) as usize];
        assert!(q(0.5).abs() < 0.02, "median {}", q(0.5));
        assert!((q(0.9) - 1.2816).abs() < 0.03, "p90 {}", q(0.9));
        assert!((q(0.99) - 2.3263).abs() < 0.06, "p99 {}", q(0.99));
        assert!((q(0.999) - 3.0902).abs() < 0.15, "p999 {}", q(0.999));
        // Symmetry.
        assert!((q(0.1) + q(0.9)).abs() < 0.05);
    }

    #[test]
    fn ziggurat_is_deterministic_in_seed() {
        let draw = |seed: u64| -> Vec<f64> {
            let mut rng = seeded_rng(seed);
            (0..100).map(|_| sample_normal_ziggurat(&mut rng)).collect()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn fill_lognormals_matches_the_scalar_sampler_distribution() {
        let mut rng = seeded_rng(77);
        let mut batch = Vec::new();
        fill_lognormals(&mut rng, 10.0, 0.5, 50_001, &mut batch);
        assert_eq!(batch.len(), 50_001);
        assert!(batch.iter().all(|x| x.is_finite() && *x > 0.0));
        batch.sort_unstable_by(f64::total_cmp);
        let median = batch[batch.len() / 2];
        assert!((median - 10.0).abs() / 10.0 < 0.03, "median {median}");
        // p99 of lognormal(median 10, sigma 0.5): 10 * exp(0.5 * 2.3263) = 32.0.
        let p99 = batch[(0.99 * batch.len() as f64) as usize];
        assert!((p99 - 32.0).abs() / 32.0 < 0.07, "p99 {p99}");
        // Refilling reuses the buffer and replaces its contents.
        let cap_before = batch.capacity();
        fill_lognormals(&mut rng, 1.0, 0.0, 10, &mut batch);
        assert_eq!(batch.len(), 10);
        assert!(batch.iter().all(|x| (*x - 1.0).abs() < 1e-12));
        assert_eq!(batch.capacity(), cap_before, "the buffer must be reused");
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_zero_rate() {
        let mut rng = seeded_rng(1);
        let _ = sample_exponential(&mut rng, 0.0);
    }

    proptest! {
        #[test]
        fn prop_exponential_positive(seed in 0u64..1000, rate in 0.01f64..100.0) {
            let mut rng = seeded_rng(seed);
            let x = sample_exponential(&mut rng, rate);
            prop_assert!(x > 0.0);
            prop_assert!(x.is_finite());
        }

        #[test]
        fn prop_lognormal_positive(seed in 0u64..1000, median in 0.01f64..1e4, sigma in 0.0f64..2.0) {
            let mut rng = seeded_rng(seed);
            let x = sample_lognormal(&mut rng, median, sigma);
            prop_assert!(x > 0.0);
            prop_assert!(x.is_finite());
        }
    }
}
