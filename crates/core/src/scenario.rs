//! Declarative description of one co-location experiment.
//!
//! A [`Scenario`] is a complete, serializable description of a single run: which
//! interactive service shares the node with which approximate applications, under which
//! [`PolicyKind`], at what load, with which controller knobs, for how long, and from which
//! seed. Scenarios are built with the fluent [`ScenarioBuilder`] and executed by the
//! [`crate::engine::Engine`] (or [`Scenario::run`] for one-off runs); grids of scenarios
//! are composed with [`crate::suite::Suite`].
//!
//! Scenarios are plain data — serde round-trippable — so suites can be archived next to
//! their results and replayed bit-for-bit.

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::AppId;
use pliant_workloads::profile::LoadProfile;
use pliant_workloads::service::ServiceId;

use crate::engine::Engine;
use crate::experiment::ColocationOutcome;
use crate::policy::PolicyKind;

/// How long a scenario runs.
///
/// `Seconds` is the right choice for sweeps over the decision interval: it pins the
/// simulated wall-clock horizon, so an 8 s-interval cell simulates the same amount of
/// service time as a 1 s-interval cell instead of 8× more.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Horizon {
    /// A fixed number of decision intervals (wall-clock horizon scales with the interval).
    Intervals(usize),
    /// A fixed amount of simulated wall-clock time (interval count scales inversely with
    /// the decision interval).
    Seconds(f64),
}

/// Most decision intervals a scenario may run: a million, over eleven days at the
/// paper's 1 s decision interval and far above every horizon the figures, tests and
/// benchmark use (at most a few thousand). A run reserves its per-interval series for
/// the whole horizon up front, so validation rejects anything longer: a huge
/// `Horizon::Seconds` saturates [`Horizon::max_intervals`] at `usize::MAX`, and the
/// reservation would then panic or ask for terabytes.
pub const MAX_HORIZON_INTERVALS: usize = 1_000_000;

impl Horizon {
    /// The number of decision intervals this horizon allows at interval length `dt_s`.
    pub fn max_intervals(&self, dt_s: f64) -> usize {
        match *self {
            Horizon::Intervals(n) => n.max(1),
            Horizon::Seconds(s) => ((s / dt_s).ceil() as usize).max(1),
        }
    }

    /// The simulated wall-clock budget in seconds at interval length `dt_s`.
    pub fn wall_clock_s(&self, dt_s: f64) -> f64 {
        match *self {
            Horizon::Intervals(n) => n.max(1) as f64 * dt_s,
            Horizon::Seconds(s) => s,
        }
    }
}

/// A complete, serializable description of one co-location experiment.
///
/// Construct with [`Scenario::builder`]. All fields are public so sinks and analysis code
/// can read them back from archived suites.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scenario {
    /// Optional display label (suites set this to the cell's sweep coordinates).
    pub label: Option<String>,
    /// Interactive service sharing the node.
    pub service: ServiceId,
    /// Co-located approximate applications (at least one).
    pub apps: Vec<AppId>,
    /// Runtime policy managing the co-location.
    pub policy: PolicyKind,
    /// Offered load as a fraction of the service's saturation throughput. When
    /// `load_profile` is set, this is only the fallback the profile overrides; see
    /// [`Scenario::effective_load_profile`].
    pub load_fraction: f64,
    /// Time-varying load profile (`None` = constant at `load_fraction`). Sampled by the
    /// simulator at the start of every decision interval.
    pub load_profile: Option<LoadProfile>,
    /// Decision interval in seconds.
    pub decision_interval_s: f64,
    /// Latency-slack threshold for relaxing approximation / returning cores.
    pub slack_threshold: f64,
    /// Consecutive high-slack intervals required before the controller relaxes.
    pub consecutive_slack_required: u32,
    /// How long to simulate.
    pub horizon: Horizon,
    /// Whether to stop as soon as every batch application finishes.
    pub stop_when_apps_finish: bool,
    /// Overrides whether applications run under dynamic instrumentation. `None` picks the
    /// policy default: instrumented for every policy except the precise baseline, which
    /// needs no instrumentation.
    pub instrumented: Option<bool>,
    /// Overrides the service's QoS target in seconds (`None` = paper default).
    pub qos_target_s: Option<f64>,
    /// Overrides the number of latency samples delivered per decision interval.
    pub samples_per_interval: Option<usize>,
    /// Master seed for every stochastic component of the run.
    pub seed: u64,
}

impl Scenario {
    /// Starts building a scenario for `service` with paper-default knobs.
    pub fn builder(service: ServiceId) -> ScenarioBuilder {
        ScenarioBuilder::new(service)
    }

    /// Whether the applications run instrumented (resolving the policy default).
    pub fn effective_instrumented(&self) -> bool {
        self.instrumented
            .unwrap_or(self.policy != PolicyKind::Precise)
    }

    /// The load profile the simulator runs: the explicit `load_profile` if one is set,
    /// otherwise constant at `load_fraction`.
    pub fn effective_load_profile(&self) -> LoadProfile {
        self.load_profile
            .clone()
            .unwrap_or_else(|| LoadProfile::constant(self.load_fraction))
    }

    /// The number of decision intervals this scenario simulates at most.
    pub fn max_intervals(&self) -> usize {
        self.horizon.max_intervals(self.decision_interval_s)
    }

    /// Checks the same invariants [`ScenarioBuilder::try_build`] enforces.
    ///
    /// Scenarios are plain serde-able data, so a deserialized archive (or a hand-edited
    /// one) can describe an impossible experiment; the engine re-checks this before
    /// running.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.apps.is_empty() {
            return Err(ScenarioError::NoApps);
        }
        if !(self.load_fraction > 0.0 && self.load_fraction <= 1.5) {
            return Err(ScenarioError::InvalidLoad);
        }
        if !(self.decision_interval_s > 0.0 && self.decision_interval_s.is_finite()) {
            return Err(ScenarioError::InvalidDecisionInterval);
        }
        let horizon_ok = match self.horizon {
            Horizon::Intervals(n) => n > 0,
            Horizon::Seconds(secs) => secs > 0.0 && secs.is_finite(),
        };
        if !horizon_ok {
            return Err(ScenarioError::InvalidHorizon);
        }
        let intervals = self.max_intervals();
        if intervals > MAX_HORIZON_INTERVALS {
            return Err(ScenarioError::HorizonTooLong { intervals });
        }
        if !(self.slack_threshold >= 0.0 && self.slack_threshold.is_finite()) {
            return Err(ScenarioError::InvalidSlackThreshold);
        }
        if let Some(qos_s) = self.qos_target_s {
            if !(qos_s > 0.0 && qos_s.is_finite()) {
                return Err(ScenarioError::InvalidQosTarget);
            }
        }
        // Zero samples would make every busy interval a no-signal report, so the
        // controller would silently never act.
        if self.samples_per_interval == Some(0) {
            return Err(ScenarioError::InvalidSamplesPerInterval);
        }
        if let Some(profile) = &self.load_profile {
            profile
                .validate()
                .map_err(ScenarioError::InvalidLoadProfile)?;
        }
        Ok(())
    }

    /// Runs this scenario on a fresh serial [`Engine`] with the paper-default catalog.
    ///
    /// For more than a handful of runs, build one [`Engine`] and reuse it — the engine
    /// caches the catalog and can execute suites in parallel.
    pub fn run(&self) -> ColocationOutcome {
        Engine::new().run_scenario(self)
    }

    /// The label if set, otherwise a generated `service+apps/policy` description.
    pub fn describe(&self) -> String {
        match &self.label {
            Some(l) => l.clone(),
            None => {
                let apps: Vec<&str> = self.apps.iter().map(|a| a.name()).collect();
                format!("{}+{}/{}", self.service.name(), apps.join("+"), self.policy)
            }
        }
    }
}

// Hand-written (not derived) so the invariants are enforced at the archive boundary:
// a hand-edited or corrupted suite is rejected here with a descriptive error instead of
// deserializing into an impossible experiment that fails later, mid-run. The mirror
// struct keeps the derived field plumbing; only the validate() call is added on top.
impl serde::Deserialize for Scenario {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct ScenarioWire {
            label: Option<String>,
            service: ServiceId,
            apps: Vec<AppId>,
            policy: PolicyKind,
            load_fraction: f64,
            load_profile: Option<LoadProfile>,
            decision_interval_s: f64,
            slack_threshold: f64,
            consecutive_slack_required: u32,
            horizon: Horizon,
            stop_when_apps_finish: bool,
            instrumented: Option<bool>,
            qos_target_s: Option<f64>,
            samples_per_interval: Option<usize>,
            seed: u64,
        }
        let w = ScenarioWire::from_value(value)?;
        let scenario = Scenario {
            label: w.label,
            service: w.service,
            apps: w.apps,
            policy: w.policy,
            load_fraction: w.load_fraction,
            load_profile: w.load_profile,
            decision_interval_s: w.decision_interval_s,
            slack_threshold: w.slack_threshold,
            consecutive_slack_required: w.consecutive_slack_required,
            horizon: w.horizon,
            stop_when_apps_finish: w.stop_when_apps_finish,
            instrumented: w.instrumented,
            qos_target_s: w.qos_target_s,
            samples_per_interval: w.samples_per_interval,
            seed: w.seed,
        };
        scenario
            .validate()
            .map_err(|e| serde::Error::custom(format!("invalid scenario: {e}")))?;
        Ok(scenario)
    }
}

/// Why a [`ScenarioBuilder`] refused to produce a [`Scenario`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// No approximate application was added.
    NoApps,
    /// The load fraction is outside `(0, 1.5]`.
    InvalidLoad,
    /// The decision interval is not strictly positive.
    InvalidDecisionInterval,
    /// The horizon is empty or not finite.
    InvalidHorizon,
    /// The horizon runs more than [`MAX_HORIZON_INTERVALS`] decision intervals.
    HorizonTooLong {
        /// Intervals the horizon asks for (saturated at `usize::MAX`).
        intervals: usize,
    },
    /// The slack threshold is negative or not finite.
    InvalidSlackThreshold,
    /// The QoS-target override is zero, negative, or not finite (every latency ratio
    /// and slack fraction divides by it).
    InvalidQosTarget,
    /// The per-interval sample-count override is zero (every busy interval would then
    /// read as no-signal and the runtime would never act).
    InvalidSamplesPerInterval,
    /// The load profile failed its own validation.
    InvalidLoadProfile(pliant_workloads::profile::LoadProfileError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoApps => {
                f.write_str("scenario needs at least one approximate application")
            }
            ScenarioError::InvalidLoad => f.write_str("load fraction must be in (0, 1.5]"),
            ScenarioError::InvalidDecisionInterval => {
                f.write_str("decision interval must be positive")
            }
            ScenarioError::InvalidHorizon => f.write_str("horizon must be positive and finite"),
            ScenarioError::HorizonTooLong { intervals } => write!(
                f,
                "horizon of {intervals} decision intervals exceeds the maximum of \
                 {MAX_HORIZON_INTERVALS}"
            ),
            ScenarioError::InvalidSlackThreshold => {
                f.write_str("slack threshold must be non-negative")
            }
            ScenarioError::InvalidQosTarget => {
                f.write_str("QoS-target override must be positive and finite")
            }
            ScenarioError::InvalidSamplesPerInterval => {
                f.write_str("samples-per-interval override must be positive")
            }
            ScenarioError::InvalidLoadProfile(e) => write!(f, "invalid load profile: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Fluent builder for [`Scenario`] with paper-default knobs.
///
/// # Example
///
/// ```
/// use pliant_approx::catalog::AppId;
/// use pliant_core::policy::PolicyKind;
/// use pliant_core::scenario::Scenario;
/// use pliant_workloads::service::ServiceId;
///
/// let scenario = Scenario::builder(ServiceId::Memcached)
///     .app(AppId::Canneal)
///     .policy(PolicyKind::Pliant)
///     .load(0.75)
///     .horizon_intervals(40)
///     .seed(7)
///     .build();
/// let outcome = scenario.run();
/// assert!(outcome.intervals > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Starts from paper defaults: Pliant policy, 75% load, 1 s decisions, 10% slack
    /// threshold, 120-interval horizon, stop when applications finish, seed 42.
    pub fn new(service: ServiceId) -> Self {
        ScenarioBuilder {
            scenario: Scenario {
                label: None,
                service,
                apps: Vec::new(),
                policy: PolicyKind::Pliant,
                load_fraction: 0.75,
                load_profile: None,
                decision_interval_s: 1.0,
                slack_threshold: 0.10,
                consecutive_slack_required: 2,
                horizon: Horizon::Intervals(120),
                stop_when_apps_finish: true,
                instrumented: None,
                qos_target_s: None,
                samples_per_interval: None,
                seed: 42,
            },
        }
    }

    /// Adds one co-located approximate application.
    pub fn app(mut self, app: AppId) -> Self {
        self.scenario.apps.push(app);
        self
    }

    /// Adds several co-located approximate applications.
    pub fn apps(mut self, apps: impl IntoIterator<Item = AppId>) -> Self {
        self.scenario.apps.extend(apps);
        self
    }

    /// Selects the runtime policy (default: [`PolicyKind::Pliant`]).
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.scenario.policy = policy;
        self
    }

    /// Sets a constant offered load as a fraction of saturation throughput, clearing any
    /// time-varying profile set earlier.
    pub fn load(mut self, load_fraction: f64) -> Self {
        self.scenario.load_fraction = load_fraction;
        self.scenario.load_profile = None;
        self
    }

    /// Sets a time-varying load profile (diurnal, flash crowd, trace, …). The profile
    /// overrides the constant `load` for the simulator; `load_fraction` remains the
    /// fallback if the profile is later cleared.
    pub fn load_profile(mut self, profile: LoadProfile) -> Self {
        self.scenario.load_profile = Some(profile);
        self
    }

    /// Sets the decision interval in seconds.
    pub fn decision_interval_s(mut self, dt_s: f64) -> Self {
        self.scenario.decision_interval_s = dt_s;
        self
    }

    /// Sets the latency-slack threshold for relaxing.
    pub fn slack_threshold(mut self, threshold: f64) -> Self {
        self.scenario.slack_threshold = threshold;
        self
    }

    /// Sets the relaxation hysteresis (consecutive high-slack intervals required).
    pub fn consecutive_slack_required(mut self, intervals: u32) -> Self {
        self.scenario.consecutive_slack_required = intervals;
        self
    }

    /// Caps the run at a number of decision intervals.
    pub fn horizon_intervals(mut self, intervals: usize) -> Self {
        self.scenario.horizon = Horizon::Intervals(intervals);
        self
    }

    /// Caps the run at a simulated wall-clock budget, independent of the decision
    /// interval (the right horizon for decision-interval sweeps).
    pub fn horizon_seconds(mut self, seconds: f64) -> Self {
        self.scenario.horizon = Horizon::Seconds(seconds);
        self
    }

    /// Sets whether the run stops as soon as every batch application finishes
    /// (default: true).
    pub fn stop_when_apps_finish(mut self, stop: bool) -> Self {
        self.scenario.stop_when_apps_finish = stop;
        self
    }

    /// Forces instrumentation on or off, overriding the policy default.
    pub fn instrumented(mut self, instrumented: bool) -> Self {
        self.scenario.instrumented = Some(instrumented);
        self
    }

    /// Overrides the service's QoS target in seconds.
    pub fn qos_target_s(mut self, qos_s: f64) -> Self {
        self.scenario.qos_target_s = Some(qos_s);
        self
    }

    /// Overrides the number of latency samples delivered per decision interval.
    pub fn samples_per_interval(mut self, samples: usize) -> Self {
        self.scenario.samples_per_interval = Some(samples);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Attaches a display label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.scenario.label = Some(label.into());
        self
    }

    /// Validates and returns the scenario.
    pub fn try_build(self) -> Result<Scenario, ScenarioError> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }

    /// Validates and returns the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid (no applications, non-positive load/interval/
    /// horizon, or negative slack threshold); use [`Self::try_build`] to handle the error.
    pub fn build(self) -> Scenario {
        match self.try_build() {
            Ok(s) => s,
            Err(e) => panic!("invalid scenario: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_applies_paper_defaults() {
        let s = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Canneal)
            .build();
        assert_eq!(s.policy, PolicyKind::Pliant);
        assert_eq!(s.load_fraction, 0.75);
        assert_eq!(s.decision_interval_s, 1.0);
        assert_eq!(s.slack_threshold, 0.10);
        assert_eq!(s.horizon, Horizon::Intervals(120));
        assert!(s.stop_when_apps_finish);
        assert_eq!(s.seed, 42);
        assert!(s.effective_instrumented());
    }

    #[test]
    fn precise_policy_defaults_to_uninstrumented() {
        let s = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Canneal)
            .policy(PolicyKind::Precise)
            .build();
        assert!(!s.effective_instrumented());
        let forced = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Canneal)
            .policy(PolicyKind::Precise)
            .instrumented(true)
            .build();
        assert!(forced.effective_instrumented());
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            Scenario::builder(ServiceId::Nginx).try_build().unwrap_err(),
            ScenarioError::NoApps
        );
        assert_eq!(
            Scenario::builder(ServiceId::Nginx)
                .app(AppId::Snp)
                .load(0.0)
                .try_build()
                .unwrap_err(),
            ScenarioError::InvalidLoad
        );
        assert_eq!(
            Scenario::builder(ServiceId::Nginx)
                .app(AppId::Snp)
                .decision_interval_s(-1.0)
                .try_build()
                .unwrap_err(),
            ScenarioError::InvalidDecisionInterval
        );
        assert_eq!(
            Scenario::builder(ServiceId::Nginx)
                .app(AppId::Snp)
                .horizon_seconds(0.0)
                .try_build()
                .unwrap_err(),
            ScenarioError::InvalidHorizon
        );
        assert_eq!(
            Scenario::builder(ServiceId::Nginx)
                .app(AppId::Snp)
                .qos_target_s(f64::NAN)
                .try_build()
                .unwrap_err(),
            ScenarioError::InvalidQosTarget
        );
    }

    #[test]
    fn load_profile_overrides_the_constant_load() {
        let flash = LoadProfile::FlashCrowd {
            base: 0.4,
            peak: 1.0,
            start_s: 30.0,
            ramp_s: 5.0,
            hold_s: 10.0,
            decay_s: 5.0,
        };
        let s = Scenario::builder(ServiceId::Memcached)
            .app(AppId::Canneal)
            .load_profile(flash.clone())
            .build();
        assert_eq!(s.effective_load_profile(), flash);
        // Without a profile, the constant load is the effective profile.
        let plain = Scenario::builder(ServiceId::Memcached)
            .app(AppId::Canneal)
            .load(0.6)
            .build();
        assert_eq!(plain.effective_load_profile(), LoadProfile::constant(0.6));
        // `load()` clears a previously-set profile.
        let cleared = Scenario::builder(ServiceId::Memcached)
            .app(AppId::Canneal)
            .load_profile(flash)
            .load(0.5)
            .build();
        assert_eq!(cleared.load_profile, None);
    }

    #[test]
    fn invalid_load_profiles_fail_validation() {
        let err = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Snp)
            .load_profile(LoadProfile::Trace { points: vec![] })
            .try_build()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidLoadProfile(_)));
        assert!(err.to_string().contains("load profile"));
    }

    #[test]
    fn profile_scenarios_round_trip_through_json() {
        let s = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Canneal)
            .load_profile(LoadProfile::Diurnal {
                base: 0.6,
                amplitude: 0.3,
                period_s: 120.0,
                phase_s: 0.0,
            })
            .horizon_seconds(60.0)
            .build();
        let json = serde_json::to_string(&s).expect("serializable");
        let back: Scenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, s);
        // Archives written before load profiles existed (no `load_profile` key) still
        // deserialize, defaulting to the constant load.
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let entries = match value {
            serde::Value::Object(entries) => entries,
            _ => panic!("scenarios serialize as objects"),
        };
        let without_profile = serde::Value::Object(
            entries
                .into_iter()
                .filter(|(k, _)| k != "load_profile")
                .collect(),
        );
        let legacy = serde_json::to_string(&without_profile).expect("serializable");
        let old: Scenario = serde_json::from_str(&legacy).expect("legacy archives deserialize");
        assert_eq!(old.load_profile, None);
    }

    #[test]
    fn wall_clock_horizon_scales_interval_count() {
        let h = Horizon::Seconds(60.0);
        assert_eq!(h.max_intervals(1.0), 60);
        assert_eq!(h.max_intervals(8.0), 8);
        assert_eq!(h.max_intervals(0.2), 300);
        assert_eq!(h.wall_clock_s(8.0), 60.0);
        let fixed = Horizon::Intervals(60);
        assert_eq!(fixed.max_intervals(8.0), 60);
        assert_eq!(fixed.wall_clock_s(8.0), 480.0);
    }

    #[test]
    fn corrupted_archives_are_rejected_at_the_deserialization_boundary() {
        let good = Scenario::builder(ServiceId::Nginx).app(AppId::Snp).build();
        let mut json = serde_json::to_string(&good).expect("serializable");
        json = json.replace("[\"Snp\"]", "[]");
        let err = serde_json::from_str::<Scenario>(&json)
            .expect_err("a scenario violating its invariants must not deserialize");
        assert!(
            err.to_string().contains("approximate application"),
            "error should carry the validation message, got: {err}"
        );
    }

    #[test]
    fn zero_samples_per_interval_is_rejected_by_the_builder_and_serde() {
        let err = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Snp)
            .samples_per_interval(0)
            .try_build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::InvalidSamplesPerInterval);
        assert!(err.to_string().contains("samples-per-interval"));
        let one = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Snp)
            .samples_per_interval(1)
            .build();
        let json = serde_json::to_string(&one).expect("serializable");
        let zero = json.replace("\"samples_per_interval\":1", "\"samples_per_interval\":0");
        assert_ne!(zero, json, "the override must appear in the archive");
        let err = serde_json::from_str::<Scenario>(&zero)
            .expect_err("a zero-sample archive must not deserialize");
        assert!(
            err.to_string().contains("samples-per-interval"),
            "error should carry the validation message, got: {err}"
        );
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let s = Scenario::builder(ServiceId::MongoDb)
            .apps([AppId::Raytrace, AppId::Bayesian])
            .policy(PolicyKind::ReclaimOnly)
            .load(0.9)
            .decision_interval_s(0.5)
            .horizon_seconds(30.0)
            .qos_target_s(0.012)
            .samples_per_interval(500)
            .seed(1234567890123456789)
            .label("round-trip")
            .build();
        let json = serde_json::to_string_pretty(&s).expect("serializable");
        let back: Scenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, s);
    }

    #[test]
    fn describe_summarizes_the_cell() {
        let s = Scenario::builder(ServiceId::Memcached)
            .apps([AppId::Canneal, AppId::Snp])
            .build();
        assert_eq!(s.describe(), "memcached+canneal+snp/pliant");
        let labeled = Scenario::builder(ServiceId::Memcached)
            .app(AppId::Canneal)
            .label("cell-3")
            .build();
        assert_eq!(labeled.describe(), "cell-3");
    }
}
