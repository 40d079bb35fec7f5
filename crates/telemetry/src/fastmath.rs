//! Fast polynomial approximations of `exp` and `ln` for stochastic sample generation.
//!
//! The per-interval hot path of the co-location simulator generates on the order of a
//! thousand lognormal latency samples per decision interval, and profiling shows the
//! `libm` transcendental calls inside that loop dominate the whole simulation. These
//! replacements use the standard range-reduction + short-polynomial constructions
//! (Cody–Waite for `exp`, atanh-series for `ln`), written as plain multiply/add chains
//! so the compiler can pipeline independent iterations.
//!
//! `exp` comes in two entry points over one body. [`fast_exp`] handles every input,
//! with guards for NaN, overflow and the subnormal range. [`fast_exp_in_range`] is its
//! branch-free core for `|x| <= FAST_EXP_IN_RANGE_MAX` and returns the same bits there;
//! with no branch and no float-to-integer conversion, a loop of it over a slice
//! vectorizes with plain SSE2, which is how the batch lognormal sampler
//! ([`crate::rng::fill_lognormals`]) applies `exp` to a whole interval's samples.
//!
//! Accuracy is bounded well below `1e-11` relative error across the full double range
//! (tested against `std` in this module), which is far tighter than the statistical
//! noise of any sampled quantity — but these are approximations, so they are reserved
//! for *sample generation* (where only the distribution matters) and never used in
//! analytics or reported statistics.
//!
//! Determinism: all of these are pure sequences of IEEE-754 double operations with no
//! fused-multiply-add, so for a given input they return the same bits on every platform
//! and every run — unlike `libm`, whose `exp`/`ln`/`cos` bit patterns vary between
//! implementations. (The repo's determinism guarantee is per-build, so either property
//! suffices; the fixed bit patterns simply make these functions easier to test.)

/// log2(e), used to reduce `exp(x)` to `2^n * exp(r)`.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// High part of ln(2); exactly representable product with small integers.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
/// Low part of ln(2) (`ln(2) - LN2_HI`).
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Adding and subtracting `2^52 + 2^51` rounds a double to the nearest integer without a
/// branch or an SSE4 `round` instruction; valid for |x| < 2^51.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;
/// `2^52`: below it the low mantissa bits of `2^52 + k` hold the integer `k` exactly.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// Largest `|x|` [`fast_exp_in_range`] accepts: `707 · log2(e) ≈ 1020`, so the scale
/// `2^n` is always a normal double and needs no edge handling.
pub const FAST_EXP_IN_RANGE_MAX: f64 = 707.0;

/// Fast `e^x` with relative error below ~2e-14 on the finite range.
///
/// Overflow (`x` ≳ 709.8) returns `f64::INFINITY`, deep underflow (`x` ≲ -745.2)
/// returns `0.0`, and NaN propagates — matching `f64::exp`'s edge behavior. Inside
/// `|x| <= FAST_EXP_IN_RANGE_MAX` this is exactly [`fast_exp_in_range`]; the edge
/// guards and the two-step subnormal scale only run outside it.
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    if x.abs() <= FAST_EXP_IN_RANGE_MAX {
        return fast_exp_in_range(x);
    }
    if x.is_nan() {
        return f64::NAN;
    }
    if x > 709.782_712_893_384 {
        return f64::INFINITY;
    }
    if x < -745.2 {
        return 0.0;
    }
    let (shifted, p) = exp_reduce(x);
    let n = (shifted - ROUND_SHIFT) as i64;
    if (-1021..=1023).contains(&n) {
        p * exp2_from_shifted(shifted)
    } else if n > 1023 {
        f64::INFINITY
    } else {
        // Subnormal range: scale in two exactly-representable steps (n can reach
        // -1074 before the underflow guard above triggers).
        p * f64::from_bits(((1023 + n + 960) as u64) << 52) * f64::from_bits((63u64) << 52)
    }
}

/// The branch-free core of [`fast_exp`] for `|x| <= FAST_EXP_IN_RANGE_MAX`: the same
/// operations in the same order, so it returns the same bits as [`fast_exp`] there.
///
/// It reads `n` from the bits of the rounding sum instead of converting a float to an
/// integer, so a loop over a slice compiles to straight-line SSE2 code. Outside the
/// range (or on NaN) the result is meaningless; callers check the range first, as
/// [`crate::rng::fill_lognormals`] does once per batch.
#[inline]
pub fn fast_exp_in_range(x: f64) -> f64 {
    let (shifted, p) = exp_reduce(x);
    p * exp2_from_shifted(shifted)
}

/// Cody–Waite range reduction `x = n·ln2 + r` with `|r| <= ln2/2`, then the polynomial
/// `e^r`. Returns the rounding sum `x·log2(e) + ROUND_SHIFT` (whose low mantissa bits
/// hold `n`) and `e^r`.
#[inline(always)]
fn exp_reduce(x: f64) -> (f64, f64) {
    let shifted = x * LOG2_E + ROUND_SHIFT;
    let nf = shifted - ROUND_SHIFT;
    let r = (x - nf * LN2_HI) - nf * LN2_LO;
    // Taylor polynomial of e^r on [-0.3466, 0.3466]; remainder r^12/12! < 7e-15.
    (shifted, poly_exp(r))
}

/// `2^n` for `n` in `[-1022, 1023]`, built in the exponent bits from the rounding sum
/// of [`exp_reduce`]: its bits are `ROUND_SHIFT`'s plus `n`, and `ROUND_SHIFT`'s low 12
/// bits are zero, so the low 12 bits of `bits + 1023` are the biased exponent.
#[inline(always)]
fn exp2_from_shifted(shifted: f64) -> f64 {
    f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52)
}

/// Degree-11 Taylor polynomial of `e^r`, Horner form.
#[inline]
fn poly_exp(r: f64) -> f64 {
    const C: [f64; 12] = [
        1.0,
        1.0,
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5_040.0,
        1.0 / 40_320.0,
        1.0 / 362_880.0,
        1.0 / 3_628_800.0,
        1.0 / 39_916_800.0,
    ];
    let mut p = C[11];
    p = p * r + C[10];
    p = p * r + C[9];
    p = p * r + C[8];
    p = p * r + C[7];
    p = p * r + C[6];
    p = p * r + C[5];
    p = p * r + C[4];
    p = p * r + C[3];
    p = p * r + C[2];
    p = p * r + C[1];
    p * r + C[0]
}

/// Fast natural logarithm with absolute error below ~1e-13 (relative error below
/// ~2e-13 away from 1).
///
/// `ln(0) = -inf`, negative inputs and NaN return NaN, `ln(inf) = inf` — matching
/// `f64::ln`'s edge behavior. Subnormal inputs are scaled into the normal range first.
/// On positive normal finite inputs this is exactly [`fast_ln_normal`].
#[inline]
pub fn fast_ln(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x == f64::INFINITY {
        return f64::INFINITY;
    }
    if x < f64::MIN_POSITIVE {
        // Subnormal: scale by 2^54 (exact) and subtract 54·ln2 at the end.
        return ln_core(x * 18_014_398_509_481_984.0, 54.0);
    }
    ln_core(x, 0.0)
}

/// The branch-free core of [`fast_ln`] for positive normal finite `x` (`f64::MIN_POSITIVE`
/// up to `f64::MAX`): the same operations in the same order, so it returns the same bits
/// there. Outside that range the result is meaningless.
///
/// The monitor's geometric skips take the logarithm of a uniform in `[2^-53, 1]`, which
/// is always in range; without the edge guards a block of them vectorizes.
#[inline]
pub fn fast_ln_normal(x: f64) -> f64 {
    ln_core(x, 0.0)
}

/// `ln(x) - sub_offset · ln2` for positive normal finite `x`, through the atanh series.
///
/// Free of branches and of integer-to-float conversions, so a loop of it over a slice
/// vectorizes with plain SSE2 (as the monitor's block of geometric skips does).
#[inline(always)]
fn ln_core(x: f64, sub_offset: f64) -> f64 {
    let bits = x.to_bits();
    // The unbiased exponent as a float, exactly: the biased exponent is placed in the
    // low mantissa bits of 2^52, then 2^52 and the bias are subtracted.
    let e = f64::from_bits(TWO_52.to_bits() | ((bits >> 52) & 0x7ff)) - (TWO_52 + 1023.0);
    // Mantissa m in [1, 2).
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    // Center m on 1 (m in [sqrt(1/2), sqrt(2))) so the atanh series argument stays small:
    // above sqrt(2), halve m (exact) and count the halving in the exponent. Selects, not
    // a branch: which half of its binade a uniform's mantissa falls in is a coin flip.
    let high = m > std::f64::consts::SQRT_2;
    let m = if high { m * 0.5 } else { m };
    let ef = (e + if high { 1.0 } else { 0.0 }) - sub_offset;
    // ln m = 2·atanh(t) with t = (m-1)/(m+1), |t| <= 0.1716.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // Odd series through t^15; remainder 2·t^17/17 < 2e-14.
    let mut p = 1.0 / 15.0;
    p = p * t2 + 1.0 / 13.0;
    p = p * t2 + 1.0 / 11.0;
    p = p * t2 + 1.0 / 9.0;
    p = p * t2 + 1.0 / 7.0;
    p = p * t2 + 1.0 / 5.0;
    p = p * t2 + 1.0 / 3.0;
    p = p * t2 + 1.0;
    let ln_m = 2.0 * t * p;
    (ef * LN2_HI + ln_m) + ef * LN2_LO
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_err(approx: f64, exact: f64) -> f64 {
        if exact == 0.0 {
            approx.abs()
        } else {
            (approx - exact).abs() / exact.abs()
        }
    }

    #[test]
    fn exp_matches_std_across_the_sampling_range() {
        // The sampler evaluates exp on sigma·z with |sigma·z| rarely above ~10, but the
        // tail machinery can reach a few hundred; sweep densely well past both.
        let mut worst = 0.0f64;
        let mut x = -700.0;
        while x <= 700.0 {
            let e = rel_err(fast_exp(x), x.exp());
            worst = worst.max(e);
            x += 0.001_7;
        }
        assert!(worst < 2e-14, "worst exp relative error {worst:.3e}");
    }

    #[test]
    fn exp_edge_behavior_matches_std() {
        assert_eq!(fast_exp(0.0), 1.0);
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert!(fast_exp(f64::NAN).is_nan());
        assert_eq!(fast_exp(800.0), f64::INFINITY);
        assert_eq!(fast_exp(-800.0), 0.0);
        // Subnormal results stay finite and ordered.
        let tiny = fast_exp(-744.0);
        assert!(tiny > 0.0 && tiny < 1e-300);
        assert!(rel_err(tiny, (-744.0f64).exp()) < 1e-10);
    }

    #[test]
    fn ln_matches_std_across_the_sampling_range() {
        // The sampler evaluates ln on uniforms in (0, 1) and on latencies up to ~1e6 µs.
        let mut worst = 0.0f64;
        let mut x = 1e-12;
        while x < 1e7 {
            let e = (fast_ln(x) - x.ln()).abs() / x.ln().abs().max(1.0);
            worst = worst.max(e);
            x *= 1.000_93;
        }
        assert!(worst < 1e-13, "worst ln error {worst:.3e}");
    }

    #[test]
    fn fast_ln_normal_matches_fast_ln_bit_for_bit_on_the_normal_range() {
        let mut x = f64::MIN_POSITIVE;
        while x < 1e300 {
            assert_eq!(fast_ln_normal(x).to_bits(), fast_ln(x).to_bits(), "x {x:e}");
            x *= 1.000_37;
        }
        for x in [f64::MAX, 1.0, std::f64::consts::SQRT_2, 2.0f64.next_down()] {
            assert_eq!(fast_ln_normal(x).to_bits(), fast_ln(x).to_bits(), "x {x:e}");
        }
    }

    #[test]
    fn ln_edge_behavior_matches_std() {
        assert_eq!(fast_ln(1.0), 0.0);
        assert_eq!(fast_ln(0.0), f64::NEG_INFINITY);
        assert!(fast_ln(-1.0).is_nan());
        assert!(fast_ln(f64::NAN).is_nan());
        assert_eq!(fast_ln(f64::INFINITY), f64::INFINITY);
        // Subnormals: exact scaling path.
        let sub = 5e-320f64;
        assert!((fast_ln(sub) - sub.ln()).abs() < 1e-10);
        // MIN_POSITIVE boundary uses the normal path.
        assert!((fast_ln(f64::MIN_POSITIVE) - f64::MIN_POSITIVE.ln()).abs() < 1e-10);
    }

    #[test]
    fn exp_ln_round_trip() {
        let mut x = 1e-6;
        while x < 1e6 {
            assert!(
                rel_err(fast_exp(fast_ln(x)), x) < 1e-12,
                "round trip at {x}"
            );
            x *= 1.37;
        }
    }
}
