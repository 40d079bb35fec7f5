//! The client-side performance monitor.
//!
//! The monitor resides on the client in the paper: it samples end-to-end request latency
//! (average and tail) adaptively so that it adds no measurable overhead to the interactive
//! service, and notifies the runtime when the tail exceeds the QoS target. Here it ingests
//! the per-interval latency samples produced by the co-location substrate, subsamples
//! them, and estimates the interval's p99 with a log-bucketed histogram.
//!
//! The estimator is streaming and allocation-free: the interval histogram is owned by the
//! monitor and reset between intervals (never reallocated), the subsample is chosen by
//! geometric skip-sampling (one logarithm per *selected* request instead of one uniform
//! draw per request), and recording a sample is O(1) bit manipulation. Because the
//! histogram is the same [`LatencyHistogram`] (same bucket layout, same microsecond
//! scale) the cluster layer merges for fleet-level quantiles, per-interval monitor
//! histograms are exact-merge-compatible with fleet aggregation. The price of the
//! histogram estimator is quantization: the reported p99 can differ from the exact
//! sorted-order statistic of the ingested samples by at most one bucket width (~3%
//! relative; see [`LatencyHistogram::bucket_bounds`]), a bound the integration tests
//! pin across every service profile.
//!
//! An interval is ingested in three steps: [`PerformanceMonitor::select_samples`] draws
//! the indices the monitor reads (from its own stream, never from sample values), the
//! selected samples are gathered, and one ingest core estimates the interval from them.
//! [`PerformanceMonitor::observe_interval`] runs all three over a full sample slice.
//! Because the indices exist before the samples do, a caller that generates samples can
//! instead select first, materialise only the selected samples, and hand them to
//! [`PerformanceMonitor::observe_selected`]: the single-node engine does this, so only
//! about 5% of an interval's samples (25% when escalated) are ever computed, with the
//! same reports bit for bit.

use serde::{Deserialize, Serialize};

use pliant_telemetry::fastmath::fast_ln_normal;
use pliant_telemetry::histogram::LatencyHistogram;
use pliant_telemetry::rng::seeded_rng;
use pliant_telemetry::window::EwmaTracker;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Fewest samples the monitor estimates an interval's tail from: a skip-sampled
/// subsample smaller than this falls back to reading every sample of the interval.
const MIN_SAMPLED: usize = 20;

/// Configuration of the performance monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Fraction of requests sampled when the service is comfortably within its QoS
    /// (lightweight steady-state sampling).
    pub base_sample_rate: f64,
    /// Fraction of requests sampled once latency approaches or exceeds the QoS target
    /// (adaptive escalation so violations are detected quickly and accurately).
    pub elevated_sample_rate: f64,
    /// Latency-to-QoS ratio above which the elevated sampling rate kicks in.
    pub escalation_ratio: f64,
    /// Smoothing factor of the EWMA over interval tail estimates.
    pub ewma_alpha: f64,
    /// QoS target in seconds.
    pub qos_target_s: f64,
}

impl MonitorConfig {
    /// Default monitor configuration for a service with the given QoS target.
    pub fn for_qos(qos_target_s: f64) -> Self {
        Self {
            base_sample_rate: 0.05,
            elevated_sample_rate: 0.25,
            escalation_ratio: 0.85,
            ewma_alpha: 0.6,
            qos_target_s,
        }
    }
}

/// Summary the monitor reports to the runtime at the end of each decision interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorReport {
    /// Estimated 99th-percentile latency of the interval, in seconds.
    pub p99_s: f64,
    /// Estimated mean latency of the interval, in seconds.
    pub mean_s: f64,
    /// Smoothed (EWMA) tail estimate across recent intervals, in seconds.
    pub smoothed_p99_s: f64,
    /// Number of requests actually sampled this interval.
    pub sampled: u64,
    /// Whether the interval violated the QoS target.
    pub qos_violated: bool,
    /// Latency slack relative to the QoS target (positive = headroom).
    pub slack_fraction: f64,
    /// True when the interval delivered no latency samples at all (e.g. zero arrivals at
    /// the trough of a diurnal profile). The report then carries the previous smoothed
    /// estimate with zero slack, and controllers hold their state: an idle gap is not
    /// evidence of headroom.
    pub no_signal: bool,
}

/// Serializable snapshot of a monitor's mutable state, for checkpointing.
///
/// The interval histogram is deliberately absent: it describes exactly one interval and
/// is reset at the start of every ingest ([`PerformanceMonitor::observe_interval`] or
/// [`PerformanceMonitor::observe_selected`]), so a restored monitor reproduces the
/// uninterrupted run bit-for-bit from its next interval onward.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorSnapshot {
    /// Sampling-RNG state (wire form; see [`pliant_telemetry::rng::rng_state_words`]).
    pub rng: Vec<u64>,
    /// The EWMA over interval tail estimates.
    pub ewma: EwmaTracker,
    /// Whether adaptive sampling is currently escalated.
    pub currently_elevated: bool,
    /// Intervals observed so far.
    pub intervals_observed: u64,
}

/// The performance monitor.
///
/// Feed it one interval at a time, either as every sample
/// ([`Self::observe_interval`]) or as only the samples it selected beforehand
/// ([`Self::select_samples`] then [`Self::observe_selected`]); both give the same
/// report and leave the same state.
#[derive(Debug, Clone)]
pub struct PerformanceMonitor {
    config: MonitorConfig,
    rng: SmallRng,
    ewma: EwmaTracker,
    currently_elevated: bool,
    intervals_observed: u64,
    /// Interval histogram, reset (not reallocated) every interval.
    hist: LatencyHistogram,
    /// `ln(1 - base_sample_rate)`, precomputed for geometric skip-sampling.
    base_skip_ln: f64,
    /// `ln(1 - elevated_sample_rate)`, precomputed for geometric skip-sampling.
    elevated_skip_ln: f64,
    /// Index scratch for [`Self::observe_interval`], reused across intervals.
    selected: Vec<usize>,
}

impl PerformanceMonitor {
    /// Creates a monitor with the given configuration and sampling seed.
    pub fn new(config: MonitorConfig, seed: u64) -> Self {
        Self {
            config,
            rng: seeded_rng(seed),
            ewma: EwmaTracker::new(config.ewma_alpha),
            currently_elevated: false,
            intervals_observed: 0,
            hist: LatencyHistogram::new(),
            base_skip_ln: (1.0 - config.base_sample_rate).ln(),
            elevated_skip_ln: (1.0 - config.elevated_sample_rate).ln(),
            selected: Vec::new(),
        }
    }

    /// The monitor configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Current sampling rate (adaptive: escalates near or above the QoS target).
    pub fn sample_rate(&self) -> f64 {
        if self.currently_elevated {
            self.config.elevated_sample_rate
        } else {
            self.config.base_sample_rate
        }
    }

    /// Number of intervals observed so far.
    pub fn intervals_observed(&self) -> u64 {
        self.intervals_observed
    }

    /// Captures the monitor's mutable state for checkpointing (the configuration is
    /// rebuilt from the scenario, the interval histogram from the next interval).
    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            rng: pliant_telemetry::rng::rng_state_words(&self.rng),
            ewma: self.ewma.clone(),
            currently_elevated: self.currently_elevated,
            intervals_observed: self.intervals_observed,
        }
    }

    /// Restores state captured by [`Self::snapshot`] onto a monitor built with the same
    /// configuration and seed, continuing every stream where the snapshot left off.
    ///
    /// # Errors
    ///
    /// Rejects malformed RNG wire states (wrong width or all-zero).
    pub fn restore(&mut self, snapshot: &MonitorSnapshot) -> Result<(), String> {
        self.rng = pliant_telemetry::rng::rng_from_state_words(&snapshot.rng)?;
        self.ewma = snapshot.ewma.clone();
        self.currently_elevated = snapshot.currently_elevated;
        self.intervals_observed = snapshot.intervals_observed;
        self.hist.reset();
        Ok(())
    }

    /// Ingests one decision interval's end-to-end latency samples and produces the report
    /// the runtime acts on.
    ///
    /// This is [`Self::select_samples`] over `latencies_s.len()`, a gather of the
    /// selected samples, and [`Self::observe_selected`] on them.
    pub fn observe_interval(&mut self, latencies_s: &[f64]) -> MonitorReport {
        let mut selected = std::mem::take(&mut self.selected);
        self.select_samples(latencies_s.len(), &mut selected);
        let report = self.ingest(selected.iter().map(|&i| latencies_s[i]));
        self.selected = selected;
        report
    }

    /// Draws the indices of the samples the monitor reads out of an interval of `n`
    /// latency samples into `selected` (cleared first), in increasing order.
    ///
    /// The indices are the adaptive subsample: every sample at a rate of 1 or more, a
    /// geometric skip-sample below it. When that subsample holds fewer than 20 samples,
    /// the monitor falls back to reading all `n`, and `selected` is `0..n`. An
    /// interval with no samples draws nothing.
    ///
    /// The indices come from the monitor's own stream and never depend on sample
    /// values, so a caller may pick them *before* it generates the interval's samples,
    /// materialise only those, and hand them to [`Self::observe_selected`]: the report
    /// and the monitor state are then bit-identical to [`Self::observe_interval`] over
    /// the full interval.
    pub fn select_samples(&mut self, n: usize, selected: &mut Vec<usize>) {
        selected.clear();
        if n == 0 {
            return;
        }
        // Sized once for the largest interval seen, so warm intervals never allocate.
        selected.reserve(n);
        let rate = self.sample_rate();
        if rate >= 1.0 {
            selected.extend(0..n);
        } else if rate > 0.0 {
            // Geometric skip-sampling: instead of one Bernoulli draw per request, jump
            // straight to the next selected request — one uniform and one (polynomial)
            // log per *selected* request, ~1/rate times fewer draws than per-request
            // thinning.
            let ln_one_minus_rate = if self.currently_elevated {
                self.elevated_skip_ln
            } else {
                self.base_skip_ln
            };
            skip_sample(&mut self.rng, ln_one_minus_rate, n, selected);
        }
        // Guard against a tiny subsample (short intervals at low load): read the full
        // set, which the real monitor would also do by forcing a minimum sample count.
        if selected.len() < MIN_SAMPLED {
            selected.clear();
            selected.extend(0..n);
        }
    }

    /// Ingests one interval from only the samples [`Self::select_samples`] picked:
    /// `selected_s[j]` is the latency of the `j`-th selected index, and an empty slice
    /// is an interval without samples (no-signal).
    pub fn observe_selected(&mut self, selected_s: &[f64]) -> MonitorReport {
        self.ingest(selected_s.iter().copied())
    }

    /// The one ingest core: estimates the interval's tail and mean from the samples the
    /// monitor reads and updates the EWMA and the adaptive sampling state.
    fn ingest(&mut self, selected_s: impl Iterator<Item = f64>) -> MonitorReport {
        self.intervals_observed += 1;
        // The interval histogram describes *this* interval: an idle interval ingests
        // nothing, so it reads empty (a stale busy-interval histogram would be
        // double-counted by per-interval fleet merging). Non-finite samples are clamped
        // to zero exactly as `LatencyHistogram::record` does, so the ingest boundary is
        // NaN-free by construction.
        self.hist.reset();
        let mut sum = 0.0;
        let mut sampled = 0u64;
        for l in selected_s {
            let l = if l.is_finite() { l } else { 0.0 };
            self.hist.record(l * 1e6); // microseconds for histogram resolution
            sum += l;
            sampled += 1;
        }
        // An interval without a single request (idle gap / load trough) used to fall
        // through the empty-histogram path as `p99 = 0, slack = 1.0` — maximal headroom
        // out of thin air, driving the controller to relax exactly when it should hold.
        // Report no-signal instead, holding the previous smoothed estimate and leaving
        // the EWMA and the adaptive sampling state untouched.
        if sampled == 0 {
            let held = self.ewma.value().unwrap_or(0.0);
            return MonitorReport {
                p99_s: held,
                mean_s: 0.0,
                smoothed_p99_s: held,
                sampled: 0,
                qos_violated: false,
                slack_fraction: 0.0,
                no_signal: true,
            };
        }
        let p99_s = self.hist.p99() / 1e6;
        let mean_s = sum / sampled as f64;

        self.ewma.observe(p99_s);
        let smoothed = self.ewma.value().unwrap_or(p99_s);
        self.currently_elevated = p99_s >= self.config.qos_target_s * self.config.escalation_ratio;

        MonitorReport {
            p99_s,
            mean_s,
            smoothed_p99_s: smoothed,
            sampled,
            qos_violated: p99_s > self.config.qos_target_s,
            slack_fraction: (self.config.qos_target_s - p99_s) / self.config.qos_target_s,
            no_signal: false,
        }
    }

    /// The histogram of the most recently observed interval's subsample, in
    /// microseconds.
    ///
    /// Shares bucket layout and unit with the cluster layer's fleet histograms, so
    /// per-interval monitor histograms can be merged exactly into fleet-level quantiles
    /// (see [`LatencyHistogram::try_merge`]).
    pub fn interval_histogram(&self) -> &LatencyHistogram {
        &self.hist
    }
}

/// Geometric skips [`skip_sample`] computes at a time: about a third of a 1000-request
/// interval's skips at the base rate. Blocks of 8 measured no faster than one skip at a
/// time; 16 and 32 about 1.6× faster.
const SKIP_BLOCK: usize = 16;

/// Geometric skip-sampling over `0..n`, appending the selected indices to `selected`.
///
/// The gap before each selection is geometric with success probability `rate`,
/// `floor(ln(U) / ln(1 - rate))` for a fresh uniform `U`, and the walk ends at the first
/// index at or past `n`: the selections are `s0`, `s0 + 1 + s1`, ... for skips
/// `s0, s1, ...`, one draw each, and the skip that overshoots `n` consumes its draw too.
///
/// The skips are computed [`SKIP_BLOCK`] at a time from a clone of `rng`: the uniforms
/// first, then every logarithm and division of the block in one branch-free loop the
/// compiler vectorizes, then the indices, kept up to the first one past `n`. `rng` then
/// advances by exactly the draws the walk used, so the indices and the stream
/// afterwards are those of drawing one skip at a time.
fn skip_sample(rng: &mut SmallRng, ln_one_minus_rate: f64, n: usize, selected: &mut Vec<usize>) {
    let mut ahead = rng.clone();
    let mut next = 0usize;
    loop {
        let block_start = ahead.clone();
        // 1 - unit uniform lies in [2^-53, 1], a normal float, so the logarithm is
        // finite and <= 0; the ratio of two non-positive finite numbers is non-negative.
        let mut ratios = [0.0f64; SKIP_BLOCK];
        for u in &mut ratios {
            *u = 1.0 - ahead.gen_range(0.0f64..1.0);
        }
        for r in &mut ratios {
            *r = fast_ln_normal(*r) / ln_one_minus_rate;
        }
        // The casts saturate on the (bounded) maximum. The sums saturate too, so an
        // index stays past `n` once one is (only an overshoot can grow that large) and
        // the kept indices, all below `n`, are exact.
        let mut indices = [0usize; SKIP_BLOCK];
        for (index, r) in indices.iter_mut().zip(ratios) {
            *index = next.saturating_add(r as usize);
            next = index.saturating_add(1);
        }
        let kept = indices.iter().filter(|&&index| index < n).count();
        selected.extend_from_slice(&indices[..kept]);
        if kept < SKIP_BLOCK {
            // The walk used this block's first `kept + 1` draws.
            *rng = block_start;
            for _ in 0..=kept {
                rng.next_u64();
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pliant_telemetry::rng::sample_lognormal;

    fn synthetic_interval(median_s: f64, sigma: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| sample_lognormal(&mut rng, median_s, sigma))
            .collect()
    }

    #[test]
    fn detects_violation_and_slack() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 1);
        // Healthy interval: median 2 ms.
        let healthy = synthetic_interval(0.002, 0.3, 5_000, 2);
        let report = monitor.observe_interval(&healthy);
        assert!(
            !report.qos_violated,
            "p99 {} should be below 10 ms",
            report.p99_s
        );
        assert!(report.slack_fraction > 0.0);
        // Violating interval: median 8 ms → p99 well above 10 ms.
        let violating = synthetic_interval(0.008, 0.4, 5_000, 3);
        let report = monitor.observe_interval(&violating);
        assert!(report.qos_violated);
        assert!(report.slack_fraction < 0.0);
    }

    #[test]
    fn p99_estimate_tracks_true_percentile() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 4);
        let samples = synthetic_interval(0.003, 0.3, 20_000, 5);
        let mut sorted = samples.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let true_p99 = sorted[(0.99 * sorted.len() as f64) as usize];
        let report = monitor.observe_interval(&samples);
        assert!(
            (report.p99_s - true_p99).abs() / true_p99 < 0.20,
            "estimate {} vs true {true_p99}",
            report.p99_s
        );
    }

    #[test]
    fn sampling_escalates_near_qos() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 6);
        assert_eq!(monitor.sample_rate(), 0.05);
        let near_qos = synthetic_interval(0.0065, 0.3, 5_000, 7);
        let _ = monitor.observe_interval(&near_qos);
        assert_eq!(
            monitor.sample_rate(),
            0.25,
            "sampling should escalate near the QoS target"
        );
        let healthy = synthetic_interval(0.001, 0.3, 5_000, 8);
        let _ = monitor.observe_interval(&healthy);
        assert_eq!(
            monitor.sample_rate(),
            0.05,
            "sampling should relax when latency recovers"
        );
    }

    #[test]
    fn small_intervals_fall_back_to_full_sampling() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 9);
        let tiny = synthetic_interval(0.002, 0.3, 30, 10);
        let report = monitor.observe_interval(&tiny);
        assert_eq!(report.sampled, 30);
        assert!(report.p99_s > 0.0);
    }

    #[test]
    fn empty_interval_without_history_reports_no_signal() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 9);
        let report = monitor.observe_interval(&[]);
        assert!(report.no_signal);
        assert_eq!(report.p99_s, 0.0);
        assert_eq!(report.sampled, 0);
        assert!(!report.qos_violated);
        assert_eq!(
            report.slack_fraction, 0.0,
            "an idle gap must not read as maximal headroom"
        );
    }

    #[test]
    fn empty_interval_holds_the_previous_smoothed_estimate() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 9);
        let busy = synthetic_interval(0.004, 0.3, 5_000, 14);
        let before = monitor.observe_interval(&busy);
        let idle = monitor.observe_interval(&[]);
        assert!(idle.no_signal);
        assert_eq!(idle.p99_s, before.smoothed_p99_s);
        assert_eq!(idle.smoothed_p99_s, before.smoothed_p99_s);
        assert_eq!(idle.slack_fraction, 0.0, "no fresh slack evidence");
        // The EWMA and adaptive-sampling state are untouched by idle gaps.
        let after = monitor.observe_interval(&busy);
        assert_eq!(monitor.intervals_observed(), 3);
        assert!(after.smoothed_p99_s > 0.0);
    }

    #[test]
    fn non_finite_samples_cannot_panic_or_poison_the_estimate() {
        // The NaN-free contract at the sample-ingest boundary: the quantile path is
        // histogram-based (no partial_cmp), and non-finite samples clamp to zero like
        // `LatencyHistogram::record`, so a corrupted sample can neither panic the
        // monitor nor drag the mean or tail to NaN.
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 3);
        let mut samples = synthetic_interval(0.004, 0.3, 5_000, 8);
        samples[7] = f64::NAN;
        samples[19] = f64::INFINITY;
        samples[23] = f64::NEG_INFINITY;
        let report = monitor.observe_interval(&samples);
        assert!(report.p99_s.is_finite());
        assert!(report.mean_s.is_finite());
        assert!(report.smoothed_p99_s.is_finite());
        assert!(report.slack_fraction.is_finite());
        // The tiny-interval full-ingest fallback must hold the same contract.
        let report = monitor.observe_interval(&[f64::NAN, 0.002, f64::INFINITY, 0.003]);
        assert!(report.p99_s.is_finite());
        assert!(report.mean_s.is_finite());
    }

    #[test]
    fn interval_histogram_is_reused_and_merge_compatible() {
        use pliant_telemetry::histogram::LatencyHistogram;
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 4);
        let busy = synthetic_interval(0.003, 0.3, 5_000, 9);
        let r1 = monitor.observe_interval(&busy);
        assert_eq!(monitor.interval_histogram().count(), r1.sampled);
        // The same (reset, not reallocated) histogram serves the next interval.
        let r2 = monitor.observe_interval(&busy);
        assert_eq!(monitor.interval_histogram().count(), r2.sampled);
        // Exact-merge compatibility with fleet aggregation: same layout, same unit.
        let mut fleet = LatencyHistogram::new();
        fleet
            .try_merge(monitor.interval_histogram())
            .expect("monitor histograms must merge into fleet histograms");
        assert_eq!(fleet.count(), r2.sampled);
        assert_eq!(fleet.p99() / 1e6, r2.p99_s);
        // A no-signal interval ingested nothing, so the interval histogram must read
        // empty — per-interval merging must not double-count the last busy interval.
        let idle = monitor.observe_interval(&[]);
        assert!(idle.no_signal);
        assert!(monitor.interval_histogram().is_empty());
    }

    #[test]
    fn ewma_smooths_across_intervals() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 11);
        let low = synthetic_interval(0.002, 0.2, 5_000, 12);
        let high = synthetic_interval(0.006, 0.2, 5_000, 13);
        let r1 = monitor.observe_interval(&low);
        let r2 = monitor.observe_interval(&high);
        assert!(r2.smoothed_p99_s < r2.p99_s, "EWMA should lag the jump");
        assert!(r2.smoothed_p99_s > r1.p99_s);
        assert_eq!(monitor.intervals_observed(), 2);
    }

    /// Drives `observe_interval` on one monitor and select-then-`observe_selected` on a
    /// twin, requiring the same report bits and the same snapshot after every interval.
    fn assert_lazy_ingest_matches(config: MonitorConfig, intervals: &[Vec<f64>]) -> usize {
        let mut full = PerformanceMonitor::new(config, 21);
        let mut lazy = PerformanceMonitor::new(config, 21);
        let (mut selected, mut picked) = (Vec::new(), Vec::new());
        let mut fallbacks = 0;
        for (k, samples) in intervals.iter().enumerate() {
            let want = full.observe_interval(samples);
            lazy.select_samples(samples.len(), &mut selected);
            assert!(selected.windows(2).all(|w| w[0] < w[1]));
            assert!(selected.iter().all(|&i| i < samples.len()));
            fallbacks += usize::from(!samples.is_empty() && selected.len() == samples.len());
            picked.clear();
            picked.extend(selected.iter().map(|&i| samples[i]));
            let got = lazy.observe_selected(&picked);
            // Debug prints every float in its round-trip form, so equal strings mean
            // equal bits.
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "interval {k}: report"
            );
            assert_eq!(
                format!("{:?}", lazy.snapshot()),
                format!("{:?}", full.snapshot()),
                "interval {k}: RNG, EWMA or elevation state"
            );
            assert_eq!(
                lazy.interval_histogram().count(),
                full.interval_histogram().count()
            );
        }
        fallbacks
    }

    #[test]
    fn lazy_ingest_matches_observe_interval_bit_for_bit() {
        let mut corrupted = synthetic_interval(0.004, 0.3, 1_000, 8);
        for (i, bad) in [(3, f64::NAN), (40, f64::INFINITY), (41, f64::NEG_INFINITY)] {
            corrupted[i] = bad;
        }
        let intervals = vec![
            synthetic_interval(0.002, 0.3, 1_000, 2),
            Vec::new(),
            synthetic_interval(0.0065, 0.3, 1_000, 7), // escalates
            synthetic_interval(0.0065, 0.3, 1_000, 17),
            synthetic_interval(0.002, 0.3, 30, 10), // a short subsample: fallback
            corrupted,
            vec![f64::NAN, 0.002, f64::INFINITY, 0.003],
            synthetic_interval(0.002, 0.3, 1, 11),
            Vec::new(),
            synthetic_interval(0.012, 0.4, 1_000, 3), // violates
            synthetic_interval(0.001, 0.3, 19, 12),
            synthetic_interval(0.001, 0.3, 1_000, 13),
        ];
        let base = MonitorConfig::for_qos(0.010);
        let fallbacks = assert_lazy_ingest_matches(base, &intervals);
        assert!(fallbacks >= 3, "the short intervals must take the fallback");
        for rate in [0.0, 1.0] {
            let fixed = MonitorConfig {
                base_sample_rate: rate,
                elevated_sample_rate: rate,
                ..base
            };
            // At either rate every non-empty interval reads every sample.
            let busy = intervals.iter().filter(|s| !s.is_empty()).count();
            assert_eq!(assert_lazy_ingest_matches(fixed, &intervals), busy);
        }
    }

    /// The one-skip-at-a-time walk [`skip_sample`] replaces, kept as its reference.
    fn skip_sample_one_at_a_time(
        rng: &mut SmallRng,
        ln_one_minus_rate: f64,
        n: usize,
        selected: &mut Vec<usize>,
    ) {
        let mut skip = || {
            let u = 1.0 - rng.gen_range(0.0f64..1.0);
            (pliant_telemetry::fastmath::fast_ln(u) / ln_one_minus_rate) as usize
        };
        let mut index = skip();
        while index < n {
            selected.push(index);
            index += 1 + skip();
        }
    }

    #[test]
    fn block_skips_match_one_skip_at_a_time() {
        // Rates from near-zero (a `ln(1 - rate)` that rounds to zero selects every
        // index) to near-one, and interval lengths around every block boundary.
        let rates = [1e-17, 1e-9, 0.001, 0.05, 0.25, 0.5, 0.9, 0.999_999];
        let lengths = (0..=3 * SKIP_BLOCK + 1).chain([100, 1000, 4097]);
        for (r, rate) in rates.into_iter().enumerate() {
            let ln_one_minus_rate = (1.0f64 - rate).ln();
            for n in lengths.clone() {
                let mut block_rng = seeded_rng(r as u64 * 7919 + n as u64);
                let mut one_rng = block_rng.clone();
                let (mut block, mut one) = (vec![usize::MAX], vec![usize::MAX]);
                for _ in 0..20 {
                    skip_sample(&mut block_rng, ln_one_minus_rate, n, &mut block);
                    skip_sample_one_at_a_time(&mut one_rng, ln_one_minus_rate, n, &mut one);
                    assert_eq!(block, one, "rate {rate} n {n}: indices");
                    assert_eq!(block_rng, one_rng, "rate {rate} n {n}: RNG state");
                }
            }
        }
    }

    #[test]
    fn selection_draws_nothing_on_an_empty_interval() {
        let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(0.010), 5);
        let before = format!("{:?}", monitor.snapshot());
        let mut selected = vec![7];
        monitor.select_samples(0, &mut selected);
        assert!(selected.is_empty());
        assert_eq!(format!("{:?}", monitor.snapshot()), before);
        let report = monitor.observe_selected(&[]);
        assert!(report.no_signal);
        assert_eq!(monitor.intervals_observed(), 1);
    }
}
