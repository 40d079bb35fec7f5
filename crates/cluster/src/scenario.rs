//! Declarative description of one multi-node fleet experiment.
//!
//! A [`ClusterScenario`] is the fleet-level analogue of a single-node
//! [`Scenario`](pliant_core::scenario::Scenario): a complete, serializable description of
//! one cluster run — how many nodes, which interactive service they all front, which
//! per-node runtime policy, how cluster-wide load is balanced, how queued batch jobs are
//! placed, and from which seed every stochastic component derives. Scenarios are built
//! with the fluent [`ClusterScenarioBuilder`] and executed by
//! [`ClusterEngineExt::run_cluster`](crate::engine::ClusterEngineExt::run_cluster);
//! grids are composed with [`ClusterSuite`](crate::suite::ClusterSuite).
//!
//! # Load semantics
//!
//! Cluster load is expressed as the *average load per node*, as a fraction of one node's
//! saturation throughput: a 4-node cluster at `avg_node_load = 0.75` offers `3.0`
//! node-saturation units of traffic in total, which the balancer then splits (not
//! necessarily evenly). A time-varying [`LoadProfile`] modulates the same per-node
//! average over simulated time.

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::AppId;
use pliant_core::policy::PolicyKind;
use pliant_core::scenario::{Horizon, MAX_HORIZON_INTERVALS};
use pliant_workloads::profile::{LoadProfile, LoadProfileError, MAX_LOAD_FRACTION};
use pliant_workloads::service::ServiceId;

use crate::autoscaler::{AutoscalerConfig, AutoscalerConfigError};
use crate::balancer::BalancerKind;
use crate::faults::{FaultProfile, FaultProfileError};
use crate::scheduler::SchedulerKind;
use crate::topology::{TopologyConfig, TopologyConfigError};

/// How the engine turns the scenario's node *population* into simulated node
/// *instances*.
///
/// The fleet description is a population: `nodes` logical nodes partitioned into groups
/// that share every per-node input (service, policy, QoS target, load share, and the
/// initial batch-job slice — the only axis that varies per node today). `Exact`
/// materializes one [`ClusterNode`](crate::node::ClusterNode) per logical node, exactly
/// as before this knob existed. `Clustered` simulates at most
/// `representatives_per_group` representative instances per group under common random
/// numbers and replicates each representative's histogram/QoS/energy contributions
/// across its replica weight (Parsimon-style clustering, applied to nodes instead of
/// links). Each representative inherits the true seed of the first logical node it
/// stands for, so raising `representatives_per_group` converges monotonically onto the
/// exact fleet — at `representatives_per_group >= group size` the two modes coincide.
///
/// There is deliberately no `validate()` on this type: the only invariant
/// (`representatives_per_group > 0`) is checked by [`ClusterScenario::validate`], which
/// runs at the archive boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FleetApproximation {
    /// One simulated instance per logical node (today's behavior, byte-identical).
    #[default]
    Exact,
    /// Simulate representatives and weight their contributions by replica count.
    Clustered {
        /// Upper bound on simulated instances per population group (must be positive).
        /// Larger values trade speed for fidelity; group size caps the effective value.
        representatives_per_group: usize,
    },
}

impl FleetApproximation {
    /// Whether this mode can simulate fewer instances than logical nodes.
    pub fn is_clustered(&self) -> bool {
        matches!(self, FleetApproximation::Clustered { .. })
    }
}

/// A complete, serializable description of one fleet experiment.
///
/// Construct with [`ClusterScenario::builder`]. All fields are public so sinks and
/// analysis code can read them back from archived runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterScenario {
    /// Optional display label (cluster suites set this to the cell's sweep coordinates).
    pub label: Option<String>,
    /// Number of nodes in the fleet.
    pub nodes: usize,
    /// Interactive service every node fronts (the fleet is homogeneous, like the
    /// paper's evaluation cluster).
    pub service: ServiceId,
    /// Per-node runtime policy.
    pub policy: PolicyKind,
    /// How cluster-wide offered load is split across nodes each interval.
    pub balancer: BalancerKind,
    /// How queued batch jobs are placed onto free node slots.
    pub scheduler: SchedulerKind,
    /// Batch jobs in submission order. The first `nodes × slots_per_node` jobs fill the
    /// fleet's slots at start; the rest queue and are placed as slots free up.
    pub jobs: Vec<AppId>,
    /// Batch slots per node (the co-location width).
    pub slots_per_node: usize,
    /// Average offered load per node, as a fraction of one node's saturation
    /// throughput. When `load_profile` is set, this is only the fallback the profile
    /// overrides.
    pub avg_node_load: f64,
    /// Time-varying per-node-average load (`None` = constant at `avg_node_load`).
    pub load_profile: Option<LoadProfile>,
    /// Decision interval in seconds (shared by the balancer, scheduler, and every
    /// node's controller).
    pub decision_interval_s: f64,
    /// Latency-slack threshold for the per-node controllers.
    pub slack_threshold: f64,
    /// Consecutive high-slack intervals required before a node's controller relaxes.
    pub consecutive_slack_required: u32,
    /// How long to simulate.
    pub horizon: Horizon,
    /// Decision intervals excluded from the fleet's latency/QoS statistics at the start
    /// of the run, while the per-node runtimes converge from their precise initial
    /// state to the co-location's operating point. Traces, job accounting, and core
    /// accounting still cover the full run. The fleet p99 is a quantile over *every*
    /// sample, so without a warm-up the one-off convergence transient would sit in the
    /// histogram forever and dominate the tail of an otherwise healthy steady state.
    pub warmup_intervals: usize,
    /// Overrides the service's QoS target in seconds (`None` = paper default).
    pub qos_target_s: Option<f64>,
    /// Energy-aware autoscaling of the active node set (`None` = every node serves for
    /// the whole run). Absent in pre-energy archives (deserializes as `None`).
    #[serde(default)]
    pub autoscaler: Option<AutoscalerConfig>,
    /// How the node population is materialized into simulated instances (`Exact` = one
    /// instance per logical node). Absent in pre-hyperscale archives (deserializes as
    /// `Exact`).
    #[serde(default)]
    pub approximation: FleetApproximation,
    /// Deterministic fault injection — node crashes, stragglers, correlated group
    /// outages (`None` = nothing ever fails). Absent in pre-fault archives
    /// (deserializes as `None`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fault_profile: Option<FaultProfile>,
    /// Rack/power-domain structure of the fleet (`Flat` = no structure, today's flat
    /// node list). Absent in pre-topology archives (deserializes as `Flat`) and
    /// omitted from flat archives, so pre-topology archives round-trip
    /// byte-identically.
    #[serde(default, skip_serializing_if = "TopologyConfig::is_flat")]
    pub topology: TopologyConfig,
    /// Master seed; every node, the balancer, the monitor sampling streams, and the
    /// fault schedule derive from it.
    pub seed: u64,
}

impl ClusterScenario {
    /// Starts building a scenario for `service` with paper-default knobs.
    pub fn builder(service: ServiceId) -> ClusterScenarioBuilder {
        ClusterScenarioBuilder::new(service)
    }

    /// Whether the nodes' applications run instrumented (the policy default: every
    /// policy except the precise baseline).
    pub fn effective_instrumented(&self) -> bool {
        self.policy != PolicyKind::Precise
    }

    /// The per-node-average load profile the fleet runs: the explicit `load_profile` if
    /// one is set, otherwise constant at `avg_node_load`.
    pub fn effective_load_profile(&self) -> LoadProfile {
        self.load_profile
            .clone()
            .unwrap_or_else(|| LoadProfile::constant(self.avg_node_load))
    }

    /// The number of decision intervals this scenario simulates.
    pub fn max_intervals(&self) -> usize {
        self.horizon.max_intervals(self.decision_interval_s)
    }

    /// Jobs needed to fill every slot of every node at start. Saturates at
    /// `usize::MAX` on a fleet whose slot count overflows, which
    /// [`Self::validate`] rejects.
    pub fn initial_job_count(&self) -> usize {
        self.nodes.saturating_mul(self.slots_per_node)
    }

    /// Checks the same invariants [`ClusterScenarioBuilder::try_build`] enforces.
    ///
    /// Cluster scenarios are plain serde-able data, so a deserialized archive can
    /// describe an impossible experiment; the engine re-checks this before running.
    pub fn validate(&self) -> Result<(), ClusterScenarioError> {
        if self.nodes == 0 {
            return Err(ClusterScenarioError::NoNodes);
        }
        if self.slots_per_node == 0 {
            return Err(ClusterScenarioError::NoSlots);
        }
        let needed = self.nodes.checked_mul(self.slots_per_node).ok_or(
            ClusterScenarioError::SlotCountOverflow {
                nodes: self.nodes,
                slots_per_node: self.slots_per_node,
            },
        )?;
        if self.jobs.len() < needed {
            return Err(ClusterScenarioError::NotEnoughJobs {
                needed,
                got: self.jobs.len(),
            });
        }
        if !(self.avg_node_load > 0.0 && self.avg_node_load <= MAX_LOAD_FRACTION) {
            return Err(ClusterScenarioError::InvalidLoad);
        }
        if !(self.decision_interval_s > 0.0 && self.decision_interval_s.is_finite()) {
            return Err(ClusterScenarioError::InvalidDecisionInterval);
        }
        let horizon_ok = match self.horizon {
            Horizon::Intervals(n) => n > 0,
            Horizon::Seconds(secs) => secs > 0.0 && secs.is_finite(),
        };
        if !horizon_ok {
            return Err(ClusterScenarioError::InvalidHorizon);
        }
        let intervals = self.max_intervals();
        if intervals > MAX_HORIZON_INTERVALS {
            return Err(ClusterScenarioError::HorizonTooLong { intervals });
        }
        if !(self.slack_threshold >= 0.0 && self.slack_threshold.is_finite()) {
            return Err(ClusterScenarioError::InvalidSlackThreshold);
        }
        if self.warmup_intervals >= self.max_intervals() {
            return Err(ClusterScenarioError::WarmupConsumesHorizon {
                warmup: self.warmup_intervals,
                horizon: self.max_intervals(),
            });
        }
        if let Some(qos_s) = self.qos_target_s {
            if !(qos_s > 0.0 && qos_s.is_finite()) {
                return Err(ClusterScenarioError::InvalidQosTarget);
            }
        }
        if let Some(profile) = &self.load_profile {
            profile
                .validate()
                .map_err(ClusterScenarioError::InvalidLoadProfile)?;
        }
        if let Some(autoscaler) = &self.autoscaler {
            autoscaler
                .validate()
                .map_err(ClusterScenarioError::InvalidAutoscaler)?;
            if autoscaler.min_active > self.nodes {
                return Err(ClusterScenarioError::AutoscalerMinimumExceedsFleet {
                    min_active: autoscaler.min_active,
                    nodes: self.nodes,
                });
            }
        }
        if let FleetApproximation::Clustered {
            representatives_per_group,
        } = self.approximation
        {
            if representatives_per_group == 0 {
                return Err(ClusterScenarioError::InvalidApproximation);
            }
        }
        self.topology
            .validate(self.nodes)
            .map_err(ClusterScenarioError::InvalidTopology)?;
        if let Some(profile) = &self.fault_profile {
            // Group-outage targets are indices into the node population, which (after
            // the job-count and topology checks above) is well-defined. Only group
            // outages need the group count, so a profile without them skips the scan.
            let groups = if profile.group_outages.is_empty() {
                0
            } else {
                crate::population::NodePopulation::count_groups(self)
            };
            profile
                .validate(self.nodes, groups, self.topology.rack_count())
                .map_err(ClusterScenarioError::InvalidFaultProfile)?;
        }
        Ok(())
    }

    /// The label if set, otherwise a generated `Nxservice/policy/balancer` description.
    pub fn describe(&self) -> String {
        match &self.label {
            Some(l) => l.clone(),
            None => format!(
                "{}x{}/{}/{}",
                self.nodes,
                self.service.name(),
                self.policy,
                self.balancer
            ),
        }
    }
}

// Hand-written (not derived) so the fleet invariants are enforced at the archive
// boundary: a hand-edited or corrupted archive is rejected here with a descriptive
// error instead of deserializing into an impossible fleet that fails mid-run. The
// mirror struct keeps the derived field plumbing (including the `#[serde(default)]`
// that lets pre-energy archives without an `autoscaler` field deserialize).
impl serde::Deserialize for ClusterScenario {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct ClusterScenarioWire {
            label: Option<String>,
            nodes: usize,
            service: ServiceId,
            policy: PolicyKind,
            balancer: BalancerKind,
            scheduler: SchedulerKind,
            jobs: Vec<AppId>,
            slots_per_node: usize,
            avg_node_load: f64,
            load_profile: Option<LoadProfile>,
            decision_interval_s: f64,
            slack_threshold: f64,
            consecutive_slack_required: u32,
            horizon: Horizon,
            warmup_intervals: usize,
            qos_target_s: Option<f64>,
            #[serde(default)]
            autoscaler: Option<AutoscalerConfig>,
            #[serde(default)]
            approximation: FleetApproximation,
            #[serde(default)]
            fault_profile: Option<FaultProfile>,
            #[serde(default)]
            topology: TopologyConfig,
            seed: u64,
        }
        let w = ClusterScenarioWire::from_value(value)?;
        let scenario = ClusterScenario {
            label: w.label,
            nodes: w.nodes,
            service: w.service,
            policy: w.policy,
            balancer: w.balancer,
            scheduler: w.scheduler,
            jobs: w.jobs,
            slots_per_node: w.slots_per_node,
            avg_node_load: w.avg_node_load,
            load_profile: w.load_profile,
            decision_interval_s: w.decision_interval_s,
            slack_threshold: w.slack_threshold,
            consecutive_slack_required: w.consecutive_slack_required,
            horizon: w.horizon,
            warmup_intervals: w.warmup_intervals,
            qos_target_s: w.qos_target_s,
            autoscaler: w.autoscaler,
            approximation: w.approximation,
            fault_profile: w.fault_profile,
            topology: w.topology,
            seed: w.seed,
        };
        scenario
            .validate()
            .map_err(|e| serde::Error::custom(format!("invalid cluster scenario: {e}")))?;
        Ok(scenario)
    }
}

/// Why a [`ClusterScenarioBuilder`] refused to produce a [`ClusterScenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterScenarioError {
    /// The fleet has no nodes.
    NoNodes,
    /// Nodes have no batch slots.
    NoSlots,
    /// `nodes × slots_per_node` does not fit in a `usize`.
    SlotCountOverflow {
        /// Nodes in the fleet.
        nodes: usize,
        /// Batch slots per node.
        slots_per_node: usize,
    },
    /// Fewer jobs than fleet slots: every node needs at least one job per slot to form
    /// a co-location.
    NotEnoughJobs {
        /// Jobs needed to fill every slot (`nodes × slots_per_node`).
        needed: usize,
        /// Jobs actually supplied.
        got: usize,
    },
    /// The average per-node load is outside `(0, MAX_LOAD_FRACTION]`.
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
    /// The warm-up exclusion covers the whole horizon, leaving no measured intervals.
    WarmupConsumesHorizon {
        /// Warm-up intervals requested.
        warmup: usize,
        /// Total intervals the horizon allows.
        horizon: usize,
    },
    /// The load profile failed its own validation.
    InvalidLoadProfile(LoadProfileError),
    /// The autoscaler configuration failed its own validation.
    InvalidAutoscaler(AutoscalerConfigError),
    /// The autoscaler's active-set floor exceeds the fleet size.
    AutoscalerMinimumExceedsFleet {
        /// Requested minimum active nodes.
        min_active: usize,
        /// Provisioned fleet size.
        nodes: usize,
    },
    /// The clustered approximation allows zero representatives per group, which would
    /// leave population groups with no simulated instance at all.
    InvalidApproximation,
    /// The fault profile failed its own validation.
    InvalidFaultProfile(FaultProfileError),
    /// The rack topology failed its own validation or does not cover the fleet.
    InvalidTopology(TopologyConfigError),
}

impl std::fmt::Display for ClusterScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterScenarioError::NoNodes => f.write_str("cluster needs at least one node"),
            ClusterScenarioError::NoSlots => {
                f.write_str("nodes need at least one batch slot")
            }
            ClusterScenarioError::SlotCountOverflow {
                nodes,
                slots_per_node,
            } => write!(
                f,
                "{nodes} nodes x {slots_per_node} slots overflows the slot count"
            ),
            ClusterScenarioError::NotEnoughJobs { needed, got } => write!(
                f,
                "cluster needs at least {needed} jobs to fill every node slot, got {got}"
            ),
            ClusterScenarioError::InvalidLoad => write!(
                f,
                "average per-node load must be in (0, {MAX_LOAD_FRACTION}]"
            ),
            ClusterScenarioError::InvalidDecisionInterval => {
                f.write_str("decision interval must be positive")
            }
            ClusterScenarioError::InvalidHorizon => {
                f.write_str("horizon must be positive and finite")
            }
            ClusterScenarioError::HorizonTooLong { intervals } => write!(
                f,
                "horizon of {intervals} decision intervals exceeds the maximum of \
                 {MAX_HORIZON_INTERVALS}"
            ),
            ClusterScenarioError::InvalidSlackThreshold => {
                f.write_str("slack threshold must be non-negative")
            }
            ClusterScenarioError::InvalidQosTarget => {
                f.write_str("QoS-target override must be positive and finite")
            }
            ClusterScenarioError::WarmupConsumesHorizon { warmup, horizon } => write!(
                f,
                "warm-up of {warmup} intervals leaves none of the {horizon}-interval horizon measured"
            ),
            ClusterScenarioError::InvalidLoadProfile(e) => {
                write!(f, "invalid load profile: {e}")
            }
            ClusterScenarioError::InvalidAutoscaler(e) => {
                write!(f, "invalid autoscaler config: {e}")
            }
            ClusterScenarioError::AutoscalerMinimumExceedsFleet { min_active, nodes } => write!(
                f,
                "autoscaler min_active of {min_active} exceeds the {nodes}-node fleet"
            ),
            ClusterScenarioError::InvalidApproximation => f.write_str(
                "clustered approximation needs at least one representative per group",
            ),
            ClusterScenarioError::InvalidFaultProfile(e) => {
                write!(f, "invalid fault profile: {e}")
            }
            ClusterScenarioError::InvalidTopology(e) => {
                write!(f, "invalid topology: {e}")
            }
        }
    }
}

impl std::error::Error for ClusterScenarioError {}

/// Fluent builder for [`ClusterScenario`] with paper-default knobs.
///
/// # Example
///
/// ```
/// use pliant_approx::catalog::AppId;
/// use pliant_cluster::scenario::ClusterScenario;
/// use pliant_workloads::service::ServiceId;
///
/// let scenario = ClusterScenario::builder(ServiceId::MongoDb)
///     .nodes(2)
///     .jobs([AppId::Raytrace, AppId::Canneal, AppId::Snp])
///     .avg_node_load(0.6)
///     .horizon_intervals(30)
///     .seed(7)
///     .build();
/// assert_eq!(scenario.initial_job_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterScenarioBuilder {
    scenario: ClusterScenario,
}

impl ClusterScenarioBuilder {
    /// Starts from paper-style defaults: 4 nodes with one batch slot each, Pliant per
    /// node, least-loaded balancing, first-fit placement, 75% average load, 1 s
    /// decisions, 10% slack threshold, 120-interval horizon with a 5-interval warm-up,
    /// seed 42. Jobs must be supplied explicitly.
    pub fn new(service: ServiceId) -> Self {
        ClusterScenarioBuilder {
            scenario: ClusterScenario {
                label: None,
                nodes: 4,
                service,
                policy: PolicyKind::Pliant,
                balancer: BalancerKind::LeastLoaded,
                scheduler: SchedulerKind::FirstFit,
                jobs: Vec::new(),
                slots_per_node: 1,
                avg_node_load: 0.75,
                load_profile: None,
                decision_interval_s: 1.0,
                slack_threshold: 0.10,
                consecutive_slack_required: 2,
                horizon: Horizon::Intervals(120),
                warmup_intervals: 5,
                qos_target_s: None,
                autoscaler: None,
                approximation: FleetApproximation::Exact,
                fault_profile: None,
                topology: TopologyConfig::Flat,
                seed: 42,
            },
        }
    }

    /// Sets the fleet size.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.scenario.nodes = nodes;
        self
    }

    /// Selects the per-node runtime policy (default: [`PolicyKind::Pliant`]).
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.scenario.policy = policy;
        self
    }

    /// Selects the load-balancing policy (default: [`BalancerKind::LeastLoaded`]).
    pub fn balancer(mut self, balancer: BalancerKind) -> Self {
        self.scenario.balancer = balancer;
        self
    }

    /// Selects the job-placement policy (default: [`SchedulerKind::FirstFit`]).
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scenario.scheduler = scheduler;
        self
    }

    /// Appends one batch job to the submission queue.
    pub fn job(mut self, app: AppId) -> Self {
        self.scenario.jobs.push(app);
        self
    }

    /// Appends several batch jobs to the submission queue.
    pub fn jobs(mut self, jobs: impl IntoIterator<Item = AppId>) -> Self {
        if self.scenario.jobs.is_empty() {
            // Collecting a `Vec` keeps its buffer: a million-node job list is not
            // copied into a second one.
            self.scenario.jobs = jobs.into_iter().collect();
        } else {
            self.scenario.jobs.extend(jobs);
        }
        self
    }

    /// Sets the co-location width (batch slots per node; default 1).
    pub fn slots_per_node(mut self, slots: usize) -> Self {
        self.scenario.slots_per_node = slots;
        self
    }

    /// Sets a constant average offered load per node, clearing any time-varying
    /// profile set earlier.
    pub fn avg_node_load(mut self, load: f64) -> Self {
        self.scenario.avg_node_load = load;
        self.scenario.load_profile = None;
        self
    }

    /// Sets a time-varying per-node-average load profile (diurnal, flash crowd, …).
    pub fn load_profile(mut self, profile: LoadProfile) -> Self {
        self.scenario.load_profile = Some(profile);
        self
    }

    /// Sets the decision interval in seconds.
    pub fn decision_interval_s(mut self, dt_s: f64) -> Self {
        self.scenario.decision_interval_s = dt_s;
        self
    }

    /// Sets the per-node controllers' latency-slack threshold.
    pub fn slack_threshold(mut self, threshold: f64) -> Self {
        self.scenario.slack_threshold = threshold;
        self
    }

    /// Sets the per-node controllers' relaxation hysteresis.
    pub fn consecutive_slack_required(mut self, intervals: u32) -> Self {
        self.scenario.consecutive_slack_required = intervals;
        self
    }

    /// Caps the run at a number of decision intervals.
    pub fn horizon_intervals(mut self, intervals: usize) -> Self {
        self.scenario.horizon = Horizon::Intervals(intervals);
        self
    }

    /// Caps the run at a simulated wall-clock budget.
    pub fn horizon_seconds(mut self, seconds: f64) -> Self {
        self.scenario.horizon = Horizon::Seconds(seconds);
        self
    }

    /// Sets how many initial intervals are excluded from the fleet's latency/QoS
    /// statistics while the per-node runtimes converge (default 5; 0 measures the
    /// convergence transient too).
    pub fn warmup_intervals(mut self, intervals: usize) -> Self {
        self.scenario.warmup_intervals = intervals;
        self
    }

    /// Overrides every node's QoS target in seconds.
    pub fn qos_target_s(mut self, qos_s: f64) -> Self {
        self.scenario.qos_target_s = Some(qos_s);
        self
    }

    /// Enables energy-aware autoscaling of the active node set (see
    /// [`crate::autoscaler`]).
    pub fn autoscaler(mut self, config: AutoscalerConfig) -> Self {
        self.scenario.autoscaler = Some(config);
        self
    }

    /// Selects how the node population is materialized into simulated instances
    /// (default: [`FleetApproximation::Exact`]).
    pub fn approximation(mut self, approximation: FleetApproximation) -> Self {
        self.scenario.approximation = approximation;
        self
    }

    /// Attaches a fault profile: deterministic, seed-derived node crashes,
    /// degraded-frequency stragglers, and correlated group outages (see
    /// [`crate::faults`]).
    pub fn faults(mut self, profile: FaultProfile) -> Self {
        self.scenario.fault_profile = Some(profile);
        self
    }

    /// Sets the rack/power-domain structure of the fleet (default:
    /// [`TopologyConfig::Flat`] — no structure; see [`crate::topology`]).
    pub fn topology(mut self, topology: TopologyConfig) -> Self {
        self.scenario.topology = topology;
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
    pub fn try_build(self) -> Result<ClusterScenario, ClusterScenarioError> {
        self.scenario.validate()?;
        Ok(self.scenario)
    }

    /// Validates and returns the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid (no nodes/slots, fewer jobs than fleet slots,
    /// non-positive load/interval/horizon, or a bad load profile); use
    /// [`Self::try_build`] to handle the error.
    pub fn build(self) -> ClusterScenario {
        match self.try_build() {
            Ok(s) => s,
            Err(e) => panic!("invalid cluster scenario: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(n: usize) -> Vec<AppId> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    AppId::Canneal
                } else {
                    AppId::Snp
                }
            })
            .collect()
    }

    #[test]
    fn builder_applies_defaults_and_validates() {
        let s = ClusterScenario::builder(ServiceId::Memcached)
            .jobs(jobs(4))
            .build();
        assert_eq!(s.nodes, 4);
        assert_eq!(s.slots_per_node, 1);
        assert_eq!(s.policy, PolicyKind::Pliant);
        assert_eq!(s.balancer, BalancerKind::LeastLoaded);
        assert_eq!(s.scheduler, SchedulerKind::FirstFit);
        assert_eq!(s.avg_node_load, 0.75);
        assert_eq!(s.seed, 42);
        assert!(s.effective_instrumented());
        assert_eq!(s.effective_load_profile(), LoadProfile::constant(0.75));
    }

    #[test]
    fn validation_catches_degenerate_fleets() {
        assert_eq!(
            ClusterScenario::builder(ServiceId::Nginx)
                .nodes(0)
                .jobs(jobs(1))
                .try_build()
                .unwrap_err(),
            ClusterScenarioError::NoNodes
        );
        assert_eq!(
            ClusterScenario::builder(ServiceId::Nginx)
                .nodes(3)
                .jobs(jobs(2))
                .try_build()
                .unwrap_err(),
            ClusterScenarioError::NotEnoughJobs { needed: 3, got: 2 }
        );
        assert_eq!(
            ClusterScenario::builder(ServiceId::Nginx)
                .jobs(jobs(4))
                .slots_per_node(0)
                .try_build()
                .unwrap_err(),
            ClusterScenarioError::NoSlots
        );
        assert_eq!(
            ClusterScenario::builder(ServiceId::Nginx)
                .jobs(jobs(4))
                .avg_node_load(0.0)
                .try_build()
                .unwrap_err(),
            ClusterScenarioError::InvalidLoad
        );
        assert_eq!(
            ClusterScenario::builder(ServiceId::Nginx)
                .jobs(jobs(4))
                .qos_target_s(0.0)
                .try_build()
                .unwrap_err(),
            ClusterScenarioError::InvalidQosTarget
        );
        let err = ClusterScenario::builder(ServiceId::Nginx)
            .jobs(jobs(4))
            .load_profile(LoadProfile::Trace { points: vec![] })
            .try_build()
            .unwrap_err();
        assert!(matches!(err, ClusterScenarioError::InvalidLoadProfile(_)));
        assert!(err.to_string().contains("load profile"));
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let s = ClusterScenario::builder(ServiceId::MongoDb)
            .nodes(3)
            .slots_per_node(2)
            .jobs(jobs(8))
            .policy(PolicyKind::Precise)
            .balancer(BalancerKind::PowerOfTwoChoices)
            .scheduler(SchedulerKind::QosSlackAware)
            .load_profile(LoadProfile::Diurnal {
                base: 0.6,
                amplitude: 0.2,
                period_s: 60.0,
                phase_s: 0.0,
            })
            .autoscaler(AutoscalerConfig::default())
            .horizon_seconds(30.0)
            .qos_target_s(0.012)
            .seed(1234)
            .label("round-trip")
            .build();
        let json = serde_json::to_string_pretty(&s).expect("serializable");
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, s);
        assert!(!back.effective_instrumented());
        assert_eq!(back.autoscaler, Some(AutoscalerConfig::default()));
        // Pre-energy archives carry no autoscaler field and deserialize as None.
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let legacy = serde_json::to_string(&serde::Value::Object(
            value
                .as_object()
                .expect("scenarios serialize as objects")
                .iter()
                .filter(|(k, _)| k != "autoscaler")
                .cloned()
                .collect(),
        ))
        .expect("serializable");
        let old: ClusterScenario =
            serde_json::from_str(&legacy).expect("legacy archives deserialize");
        assert_eq!(old.autoscaler, None);
    }

    #[test]
    fn validation_catches_bad_autoscaler_configs() {
        let err = ClusterScenario::builder(ServiceId::Nginx)
            .nodes(2)
            .jobs(jobs(2))
            .autoscaler(AutoscalerConfig {
                min_active: 0,
                ..AutoscalerConfig::default()
            })
            .try_build()
            .unwrap_err();
        assert!(matches!(err, ClusterScenarioError::InvalidAutoscaler(_)));
        assert!(err.to_string().contains("autoscaler"));
        assert_eq!(
            ClusterScenario::builder(ServiceId::Nginx)
                .nodes(2)
                .jobs(jobs(2))
                .autoscaler(AutoscalerConfig {
                    min_active: 5,
                    ..AutoscalerConfig::default()
                })
                .try_build()
                .unwrap_err(),
            ClusterScenarioError::AutoscalerMinimumExceedsFleet {
                min_active: 5,
                nodes: 2
            }
        );
    }

    #[test]
    fn approximation_round_trips_and_legacy_archives_default_to_exact() {
        let clustered = ClusterScenario::builder(ServiceId::Memcached)
            .nodes(6)
            .jobs(jobs(6))
            .approximation(FleetApproximation::Clustered {
                representatives_per_group: 2,
            })
            .build();
        let json = serde_json::to_string(&clustered).expect("serializable");
        assert!(json.contains("representatives_per_group"));
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, clustered);
        assert!(back.approximation.is_clustered());

        // Exact serializes, round-trips, and is the builder default.
        let exact = ClusterScenario::builder(ServiceId::Memcached)
            .jobs(jobs(4))
            .build();
        assert_eq!(exact.approximation, FleetApproximation::Exact);
        let json = serde_json::to_string(&exact).expect("serializable");
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.approximation, FleetApproximation::Exact);

        // Pre-hyperscale archives carry no approximation field: strip it and the
        // scenario still deserializes, as Exact.
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let legacy = serde_json::to_string(&serde::Value::Object(
            value
                .as_object()
                .expect("scenarios serialize as objects")
                .iter()
                .filter(|(k, _)| k != "approximation")
                .cloned()
                .collect(),
        ))
        .expect("serializable");
        assert!(!legacy.contains("approximation"));
        let old: ClusterScenario =
            serde_json::from_str(&legacy).expect("legacy archives deserialize");
        assert_eq!(old.approximation, FleetApproximation::Exact);
    }

    #[test]
    fn zero_representative_approximations_are_rejected() {
        assert_eq!(
            ClusterScenario::builder(ServiceId::Nginx)
                .nodes(2)
                .jobs(jobs(2))
                .approximation(FleetApproximation::Clustered {
                    representatives_per_group: 0,
                })
                .try_build()
                .unwrap_err(),
            ClusterScenarioError::InvalidApproximation
        );
        // The same invariant holds at the archive boundary.
        let good = ClusterScenario::builder(ServiceId::Nginx)
            .nodes(2)
            .jobs(jobs(2))
            .approximation(FleetApproximation::Clustered {
                representatives_per_group: 2,
            })
            .build();
        let json = serde_json::to_string(&good).expect("serializable");
        let corrupted = json.replace(
            "\"representatives_per_group\":2",
            "\"representatives_per_group\":0",
        );
        let err = serde_json::from_str::<ClusterScenario>(&corrupted)
            .expect_err("zero representatives must not deserialize");
        assert!(err.to_string().contains("at least one representative"));
    }

    #[test]
    fn fault_profiles_round_trip_and_are_validated_at_both_boundaries() {
        use crate::faults::{FaultKind, GroupOutage, ScheduledFault};
        let profile = FaultProfile {
            crash_probability: 0.01,
            outage_intervals: 10,
            scheduled: vec![ScheduledFault {
                node: 1,
                at_interval: 20,
                duration_intervals: 5,
                kind: FaultKind::Crash,
            }],
            ..FaultProfile::new()
        };
        let s = ClusterScenario::builder(ServiceId::Memcached)
            .nodes(3)
            .jobs(jobs(3))
            .faults(profile.clone())
            .build();
        let json = serde_json::to_string(&s).expect("serializable");
        assert!(json.contains("fault_profile"));
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.fault_profile, Some(profile));

        // Fault-free scenarios omit the field entirely, and archives without it
        // (everything written before fault injection existed) deserialize as None.
        let plain = ClusterScenario::builder(ServiceId::Memcached)
            .jobs(jobs(4))
            .build();
        let json = serde_json::to_string(&plain).expect("serializable");
        assert!(!json.contains("fault_profile"));
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.fault_profile, None);

        // Builder-side validation: a scheduled fault must target a real node.
        let err = ClusterScenario::builder(ServiceId::Memcached)
            .nodes(2)
            .jobs(jobs(2))
            .faults(FaultProfile {
                scheduled: vec![ScheduledFault {
                    node: 9,
                    at_interval: 0,
                    duration_intervals: 1,
                    kind: FaultKind::Crash,
                }],
                ..FaultProfile::new()
            })
            .try_build()
            .unwrap_err();
        assert!(matches!(err, ClusterScenarioError::InvalidFaultProfile(_)));
        assert!(err.to_string().contains("fault"));

        // Group outages are checked against the actual population (jobs(4)
        // alternates two apps, so 4 nodes form 2 groups).
        let err = ClusterScenario::builder(ServiceId::Memcached)
            .jobs(jobs(4))
            .faults(FaultProfile {
                group_outages: vec![GroupOutage {
                    group: 2,
                    at_interval: 0,
                    duration_intervals: 1,
                }],
                ..FaultProfile::new()
            })
            .try_build()
            .unwrap_err();
        assert!(
            err.to_string().contains("group"),
            "out-of-range group outage must be rejected: {err}"
        );

        // The same invariants hold at the archive boundary.
        let corrupted = serde_json::to_string(&s)
            .expect("serializable")
            .replace("\"node\":1", "\"node\":7");
        let err = serde_json::from_str::<ClusterScenario>(&corrupted)
            .expect_err("out-of-range scheduled fault must not deserialize");
        assert!(err.to_string().contains("fault"));
    }

    #[test]
    fn topology_round_trips_and_legacy_archives_default_to_flat() {
        let racked = ClusterScenario::builder(ServiceId::Memcached)
            .nodes(6)
            .jobs(jobs(6))
            .topology(TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 3,
                rack_power_w: Some(450.0),
            })
            .build();
        let json = serde_json::to_string(&racked).expect("serializable");
        assert!(json.contains("nodes_per_rack"));
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, racked);

        // Flat scenarios omit the field entirely, and archives without it (everything
        // written before the topology layer existed) deserialize as Flat.
        let flat = ClusterScenario::builder(ServiceId::Memcached)
            .jobs(jobs(4))
            .build();
        let json = serde_json::to_string(&flat).expect("serializable");
        assert!(!json.contains("topology"));
        let back: ClusterScenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.topology, TopologyConfig::Flat);

        // A grid that does not cover the fleet is rejected at both boundaries.
        assert_eq!(
            ClusterScenario::builder(ServiceId::Memcached)
                .nodes(5)
                .jobs(jobs(5))
                .topology(TopologyConfig::Racks {
                    racks: 2,
                    nodes_per_rack: 3,
                    rack_power_w: None,
                })
                .try_build()
                .unwrap_err(),
            ClusterScenarioError::InvalidTopology(TopologyConfigError::NodeCountMismatch {
                racks: 2,
                nodes_per_rack: 3,
                nodes: 5,
            })
        );
        // Surplus jobs keep the job-count invariant satisfied after the corruption,
        // so the failure isolated here is the topology coverage check.
        let surplus = ClusterScenario::builder(ServiceId::Memcached)
            .nodes(6)
            .jobs(jobs(8))
            .topology(TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 3,
                rack_power_w: None,
            })
            .build();
        let corrupted = serde_json::to_string(&surplus)
            .expect("serializable")
            .replace("\"nodes\":6", "\"nodes\":7");
        let err = serde_json::from_str::<ClusterScenario>(&corrupted)
            .expect_err("a grid that does not cover the fleet must not deserialize");
        assert!(err.to_string().contains("does not cover"), "got: {err}");
    }

    #[test]
    fn describe_summarizes_the_fleet() {
        let s = ClusterScenario::builder(ServiceId::Memcached)
            .nodes(6)
            .jobs(jobs(6))
            .build();
        assert_eq!(s.describe(), "6xmemcached/pliant/least-loaded");
        let labeled = ClusterScenario::builder(ServiceId::Memcached)
            .jobs(jobs(4))
            .label("cell-1")
            .build();
        assert_eq!(labeled.describe(), "cell-1");
    }

    #[test]
    fn corrupted_archives_are_rejected_at_the_deserialization_boundary() {
        let good = ClusterScenario::builder(ServiceId::Nginx)
            .nodes(2)
            .jobs(jobs(2))
            .build();
        let json = serde_json::to_string(&good).expect("serializable");
        let corrupted = json.replace("\"nodes\":2", "\"nodes\":9");
        let err = serde_json::from_str::<ClusterScenario>(&corrupted)
            .expect_err("a fleet violating its invariants must not deserialize");
        assert!(
            err.to_string()
                .contains("needs at least 9 jobs to fill every node slot, got 2"),
            "error should carry the validation message, got: {err}"
        );
    }
}
