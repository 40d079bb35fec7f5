//! Energy-aware fleet autoscaling: sizing the *active* node set to the offered load.
//!
//! A fleet provisioned for its peak wastes energy at its trough: machines idling at a
//! diurnal low still draw close to half their peak power. The autoscaler shrinks and
//! grows the set of traffic-serving nodes against the load profile, so surplus machines
//! can be suspended to their park draw
//! ([`PowerModel::parked_w`](pliant_sim::server::PowerModel::parked_w)) instead of
//! idling.
//!
//! Each node is in one of three [`NodePowerState`]s:
//!
//! * **Active** — serves balancer traffic and accepts batch-job placements.
//! * **Draining** — removed from the serving set (the balancer assigns it zero load and
//!   the scheduler stops placing jobs on it) but still powered while its remaining
//!   batch jobs run to completion. Its power falls toward allocated-core idle as slots
//!   finish.
//! * **Parked** — drained *and* every batch slot free: the machine is suspended and
//!   bills the park draw until reactivated.
//!
//! Decisions are made once per decision interval, before load balancing, from the
//! previous interval's node snapshots:
//!
//! * **Feed-forward scale-out**: the coming interval's offered load is known at
//!   planning time, so a fleet asked to serve more than
//!   [`AutoscalerConfig::scale_out_load`] per active node grows immediately — no
//!   sustain, no cooldown.
//! * **Reactive scale-out** triggers on *sustained fleet QoS pressure*: when at least
//!   [`AutoscalerConfig::scale_out_violation_fraction`] of the active nodes sit above
//!   their QoS target (by smoothed tail latency) for
//!   [`AutoscalerConfig::scale_out_sustain_intervals`] consecutive intervals, one node
//!   is reactivated — a draining node first (it is still warm), else a parked one.
//!   The per-node load at which this fires is remembered as a **learned capacity
//!   ceiling**: the fleet demonstrated it cannot serve that load per node within QoS,
//!   so scale-in never projects back into it. This is what converts a policy's true
//!   per-node capacity — higher under approximation than under precise execution —
//!   into a machine count, instead of rediscovering the limit through repeated failed
//!   drains.
//! * **Scale-in** drains the least-loaded active node when the fleet has been
//!   violation-free, every active node shows real tail headroom
//!   ([`AutoscalerConfig::scale_in_max_p99_fraction`]), and the load the remaining
//!   nodes would carry (`total_load / (active - 1)`) stays at or below both
//!   [`AutoscalerConfig::scale_in_max_load`] and the learned ceiling — sustained over
//!   [`AutoscalerConfig::scale_in_sustain_intervals`] intervals.
//!
//! Reactive actions are followed by [`AutoscalerConfig::cooldown_intervals`] of
//! enforced holding, and the gap between the scale-in and scale-out load ceilings is a
//! hysteresis band; together they damp flapping at an operating point that straddles a
//! threshold. All decisions are deterministic functions of the snapshots, so autoscaled
//! fleets stay byte-identical across serial and parallel execution and under common
//! random numbers.
//!
//! Reintegration relies on the balancer's rejoin decay: a drained node's
//! balancer-visible latency estimate halves every idle interval
//! (see [`ClusterNode`](crate::node::ClusterNode)), so a reactivated node re-enters the
//! rotation within a few intervals instead of being starved on its last pre-drain
//! reading.

use serde::{Deserialize, Serialize};

use pliant_workloads::profile::MAX_LOAD_FRACTION;

use crate::node::NodeSnapshot;

/// Power/serving state of one fleet node under the autoscaler; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodePowerState {
    /// Serving traffic and accepting job placements.
    #[serde(rename = "active")]
    Active,
    /// Removed from the serving set; powered while its batch jobs finish.
    #[serde(rename = "draining")]
    Draining,
    /// Drained and suspended; bills the park draw.
    #[serde(rename = "parked")]
    Parked,
}

/// What the autoscaler did at one interval boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoscalerAction {
    /// No membership change (park transitions of already-draining nodes still happen).
    Hold,
    /// Node `usize` was reactivated into the serving set.
    ScaleOut(usize),
    /// Node `usize` was drained out of the serving set.
    ScaleIn(usize),
}

/// Configuration of the fleet autoscaler; attach to a
/// [`ClusterScenario`](crate::scenario::ClusterScenario) via
/// [`ClusterScenarioBuilder::autoscaler`](crate::scenario::ClusterScenarioBuilder::autoscaler).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AutoscalerConfig {
    /// Lower bound on the active set; the autoscaler never drains below this.
    pub min_active: usize,
    /// Feed-forward overload ceiling: when the coming interval's per-active-node load
    /// exceeds this, a node is reactivated immediately (bypassing the cooldown — the
    /// offered load is known at planning time, so there is nothing noisy to sustain).
    pub scale_out_load: f64,
    /// Fraction of active nodes whose smoothed tail latency must exceed the QoS target
    /// to count as fleet QoS pressure (the reactive scale-out trigger).
    pub scale_out_violation_fraction: f64,
    /// Consecutive intervals QoS pressure must hold before the reactive scale-out
    /// fires.
    pub scale_out_sustain_intervals: u32,
    /// Ceiling on the per-active-node load the fleet would carry *after* draining one
    /// more node; scale-in is only considered while the projection stays at or below
    /// this. Keep it below [`Self::scale_out_load`] — the gap is the hysteresis band
    /// that keeps a slowly-varying load from flapping the membership.
    pub scale_in_max_load: f64,
    /// Latency-headroom guard for scale-in: every active node's smoothed tail latency
    /// must sit at or below this fraction of its QoS target before a drain is
    /// considered. A fleet hovering just under its target would fail the drain it is
    /// about to attempt.
    pub scale_in_max_p99_fraction: f64,
    /// Consecutive intervals the scale-in trigger must hold before a drain fires.
    pub scale_in_sustain_intervals: u32,
    /// Intervals of enforced holding after a membership change (the feed-forward
    /// overload path exempts itself; see [`Self::scale_out_load`]).
    pub cooldown_intervals: u32,
    /// Active consolidation: when set, a draining node does not wait for its batch
    /// jobs to run to completion — the fleet migrates its in-flight jobs onto active
    /// nodes with free slots each interval, so the drain (and the park that follows)
    /// completes as soon as destinations exist instead of when the slowest job
    /// finishes. Off by default; absent in pre-topology archives.
    #[serde(skip_serializing_if = "is_false")]
    pub consolidate: bool,
}

/// `skip_serializing_if` helper: keeps `consolidate: false` out of archives so
/// pre-topology configs round-trip byte-identically.
fn is_false(b: &bool) -> bool {
    !*b
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        Self {
            min_active: 1,
            scale_out_load: 0.75,
            scale_out_violation_fraction: 0.25,
            scale_out_sustain_intervals: 2,
            scale_in_max_load: 0.65,
            scale_in_max_p99_fraction: 0.9,
            scale_in_sustain_intervals: 4,
            cooldown_intervals: 5,
            consolidate: false,
        }
    }
}

// Hand-written (not derived) so the invariants — in particular the hysteresis band
// between the scale-in and scale-out ceilings — are enforced at the archive boundary: a
// hand-edited config that would flap the fleet membership is rejected here instead of
// deserializing and misbehaving mid-run. The mirror struct keeps the derived plumbing.
impl serde::Deserialize for AutoscalerConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct AutoscalerConfigWire {
            min_active: usize,
            scale_out_load: f64,
            scale_out_violation_fraction: f64,
            scale_out_sustain_intervals: u32,
            scale_in_max_load: f64,
            scale_in_max_p99_fraction: f64,
            scale_in_sustain_intervals: u32,
            cooldown_intervals: u32,
            #[serde(default)]
            consolidate: bool,
        }
        let w = AutoscalerConfigWire::from_value(value)?;
        let config = AutoscalerConfig {
            min_active: w.min_active,
            scale_out_load: w.scale_out_load,
            scale_out_violation_fraction: w.scale_out_violation_fraction,
            scale_out_sustain_intervals: w.scale_out_sustain_intervals,
            scale_in_max_load: w.scale_in_max_load,
            scale_in_max_p99_fraction: w.scale_in_max_p99_fraction,
            scale_in_sustain_intervals: w.scale_in_sustain_intervals,
            cooldown_intervals: w.cooldown_intervals,
            consolidate: w.consolidate,
        };
        config
            .validate()
            .map_err(|e| serde::Error::custom(format!("invalid autoscaler config: {e}")))?;
        Ok(config)
    }
}

impl AutoscalerConfig {
    /// Checks the configuration's invariants.
    pub fn validate(&self) -> Result<(), AutoscalerConfigError> {
        if self.min_active == 0 {
            return Err(AutoscalerConfigError::NoMinimumActive);
        }
        if !(self.scale_out_violation_fraction > 0.0 && self.scale_out_violation_fraction <= 1.0) {
            return Err(AutoscalerConfigError::InvalidViolationFraction);
        }
        if !(self.scale_in_max_load > 0.0 && self.scale_in_max_load <= MAX_LOAD_FRACTION) {
            return Err(AutoscalerConfigError::InvalidScaleInLoad);
        }
        if !(self.scale_in_max_p99_fraction > 0.0 && self.scale_in_max_p99_fraction <= 1.0) {
            return Err(AutoscalerConfigError::InvalidScaleInHeadroom);
        }
        if !(self.scale_out_load > 0.0 && self.scale_out_load <= MAX_LOAD_FRACTION) {
            return Err(AutoscalerConfigError::InvalidScaleOutLoad);
        }
        if self.scale_in_max_load >= self.scale_out_load {
            return Err(AutoscalerConfigError::NoHysteresis);
        }
        if self.scale_out_sustain_intervals == 0 || self.scale_in_sustain_intervals == 0 {
            return Err(AutoscalerConfigError::NoSustain);
        }
        Ok(())
    }
}

/// Why an [`AutoscalerConfig`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoscalerConfigError {
    /// `min_active` is zero — the fleet must keep at least one serving node.
    NoMinimumActive,
    /// The scale-out violation fraction is outside `(0, 1]`.
    InvalidViolationFraction,
    /// The scale-in load ceiling is outside `(0, MAX_LOAD_FRACTION]`.
    InvalidScaleInLoad,
    /// The scale-in latency-headroom fraction is outside `(0, 1]`.
    InvalidScaleInHeadroom,
    /// The feed-forward overload ceiling is outside `(0, MAX_LOAD_FRACTION]`.
    InvalidScaleOutLoad,
    /// The scale-in load ceiling is at or above the scale-out ceiling, leaving no
    /// hysteresis band: a slowly-varying load would flap the membership every few
    /// intervals.
    NoHysteresis,
    /// A sustain count is zero — every reactive trigger needs at least one interval of
    /// evidence.
    NoSustain,
}

impl std::fmt::Display for AutoscalerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutoscalerConfigError::NoMinimumActive => {
                f.write_str("autoscaler must keep at least one active node")
            }
            AutoscalerConfigError::InvalidViolationFraction => {
                f.write_str("scale-out violation fraction must lie in (0, 1]")
            }
            AutoscalerConfigError::InvalidScaleInLoad => write!(
                f,
                "scale-in load ceiling must lie in (0, {MAX_LOAD_FRACTION}]"
            ),
            AutoscalerConfigError::InvalidScaleInHeadroom => {
                f.write_str("scale-in latency-headroom fraction must lie in (0, 1]")
            }
            AutoscalerConfigError::InvalidScaleOutLoad => write!(
                f,
                "scale-out load ceiling must lie in (0, {MAX_LOAD_FRACTION}]"
            ),
            AutoscalerConfigError::NoHysteresis => {
                f.write_str("scale_in_max_load must be strictly below scale_out_load (hysteresis)")
            }
            AutoscalerConfigError::NoSustain => f.write_str("sustain intervals must be at least 1"),
        }
    }
}

impl std::error::Error for AutoscalerConfigError {}

/// Safety margin applied to the learned capacity ceiling: after a pressure-driven
/// scale-out at per-node load `L`, drains are only considered while the projected
/// per-node load stays below `BURN_MARGIN × L`.
const BURN_MARGIN: f64 = 0.95;

/// Serializable snapshot of an [`Autoscaler`]'s mutable state, for checkpointing (the
/// configuration and instance weights are rebuilt from the scenario).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutoscalerSnapshot {
    /// Per-instance power states.
    pub states: Vec<NodePowerState>,
    /// Remaining enforced-hold intervals.
    pub cooldown: u32,
    /// Consecutive intervals of fleet QoS pressure.
    pub out_streak: u32,
    /// Peak per-node load over the current pressure streak.
    pub streak_peak_load: f64,
    /// Consecutive intervals of scale-in eligibility.
    pub in_streak: u32,
    /// Learned capacity ceiling; `None` encodes "not yet learned" (infinity), which
    /// JSON cannot carry as a number.
    pub burned_per_node_load: Option<f64>,
}

/// Runtime state of the fleet autoscaler; see the module docs.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    states: Vec<NodePowerState>,
    /// Remaining enforced-hold intervals after the last membership change.
    cooldown: u32,
    /// Consecutive intervals of fleet QoS pressure.
    out_streak: u32,
    /// Highest per-active-node load observed over the current pressure streak; what a
    /// pressure-driven scale-out burns as the learned ceiling. Smoothed tail latency
    /// is an EWMA, so pressure can outlast the load spike that caused it — burning
    /// the load of the interval the streak *completes* on (possibly already back to a
    /// healthy level) would permanently block drains at loads the fleet serves fine.
    streak_peak_load: f64,
    /// Consecutive intervals of scale-in eligibility.
    in_streak: u32,
    /// Learned capacity ceiling: the smallest streak-peak per-active-node load at
    /// which a *pressure-driven* scale-out has fired. The fleet demonstrated it cannot
    /// serve this load per node within QoS, so scale-in never projects back into it
    /// (and the feed-forward path treats it as the effective overload ceiling). Starts
    /// at infinity; only QoS evidence lowers it. This is what converts a policy's true
    /// per-node capacity — higher under approximation than under precise execution —
    /// into a machine count, without rediscovering the limit through repeated failed
    /// drains.
    burned_per_node_load: f64,
    /// Logical nodes each instance stands for. All-ones on an exact fleet; a clustered
    /// fleet's replica weights make every membership decision instance-atomic (a whole
    /// replica block drains or reactivates together) while the load and violation
    /// arithmetic stays in logical-node units.
    weights: Vec<usize>,
}

impl Autoscaler {
    /// Creates an autoscaler for a fleet of `nodes` nodes, all initially active.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `min_active` exceeds the fleet size.
    pub fn new(config: AutoscalerConfig, nodes: usize) -> Self {
        Self::for_instances(config, vec![1; nodes])
    }

    /// Creates an autoscaler over `weights.len()` simulated instances, where instance
    /// `i` stands for `weights[i]` logical nodes (see [`crate::population`]). All
    /// instances start active. `min_active` is interpreted in *logical* nodes, exactly
    /// as on an exact fleet.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, any weight is zero, or `min_active`
    /// exceeds the summed logical fleet size.
    pub fn for_instances(config: AutoscalerConfig, weights: Vec<usize>) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid autoscaler config: {e}");
        }
        assert!(
            weights.iter().all(|w| *w > 0),
            "instance weights must be positive"
        );
        let logical: usize = weights.iter().sum();
        assert!(
            config.min_active <= logical,
            "min_active ({}) exceeds the fleet size ({logical})",
            config.min_active
        );
        Self {
            config,
            states: vec![NodePowerState::Active; weights.len()],
            cooldown: 0,
            out_streak: 0,
            streak_peak_load: 0.0,
            in_streak: 0,
            burned_per_node_load: f64::INFINITY,
            weights,
        }
    }

    /// The configuration the autoscaler runs.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// Per-node power states, in node order.
    pub fn states(&self) -> &[NodePowerState] {
        &self.states
    }

    /// Nodes currently serving traffic.
    pub fn active_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == NodePowerState::Active)
            .count()
    }

    /// *Logical* nodes currently serving traffic: the replica-weighted active count.
    /// Equal to [`Self::active_count`] on an exact (all-ones) fleet.
    pub fn active_replicas(&self) -> usize {
        self.states
            .iter()
            .zip(&self.weights)
            .filter(|(s, _)| **s == NodePowerState::Active)
            .map(|(_, w)| *w)
            .sum()
    }

    /// Logical nodes each instance stands for, in instance order.
    pub fn weights(&self) -> &[usize] {
        &self.weights
    }

    /// The learned capacity ceiling: the smallest per-active-node load at which QoS
    /// pressure has forced a scale-out so far (infinity until it happens). Each
    /// pressure event contributes the *peak* per-node load observed over its streak,
    /// so a spike whose EWMA pressure outlasts the load itself burns the load that
    /// caused the violations, not the healthy level the fleet had already fallen to.
    pub fn burned_per_node_load(&self) -> f64 {
        self.burned_per_node_load
    }

    /// Captures the autoscaler's mutable state for checkpointing.
    pub fn snapshot(&self) -> AutoscalerSnapshot {
        AutoscalerSnapshot {
            states: self.states.clone(),
            cooldown: self.cooldown,
            out_streak: self.out_streak,
            streak_peak_load: self.streak_peak_load,
            in_streak: self.in_streak,
            burned_per_node_load: if self.burned_per_node_load.is_finite() {
                Some(self.burned_per_node_load)
            } else {
                None
            },
        }
    }

    /// Restores state captured by [`Self::snapshot`] onto an autoscaler built with the
    /// same configuration and instance weights.
    ///
    /// # Errors
    ///
    /// Rejects a snapshot whose instance count disagrees with this autoscaler's.
    pub fn restore(&mut self, snapshot: &AutoscalerSnapshot) -> Result<(), String> {
        if snapshot.states.len() != self.states.len() {
            return Err(format!(
                "snapshot carries {} instances, autoscaler has {}",
                snapshot.states.len(),
                self.states.len()
            ));
        }
        self.states = snapshot.states.clone();
        self.cooldown = snapshot.cooldown;
        self.out_streak = snapshot.out_streak;
        self.streak_peak_load = snapshot.streak_peak_load;
        self.in_streak = snapshot.in_streak;
        self.burned_per_node_load = snapshot.burned_per_node_load.unwrap_or(f64::INFINITY);
        Ok(())
    }

    /// Plans one interval: transitions fully-drained instances to parked, updates the
    /// trigger streaks from `snapshots` (the previous interval's instance states), and
    /// fires at most one membership change. `total_load` is the fleet's offered load
    /// for the coming interval in node-saturation units; `slots_per_node` is the
    /// co-location width (a draining instance parks once all its slots are free).
    ///
    /// Membership changes are instance-atomic (an instance and all the logical nodes
    /// it stands for drain or reactivate as one block — which is what keeps replica
    /// weights constant over a run, so node-side weighted accounting stays exact),
    /// while every trigger is evaluated in logical-node units: per-node load divides
    /// by the replica-weighted active count, the violation fraction weighs each
    /// violating instance by its replicas, `min_active` bounds logical nodes, and a
    /// drain's load projection removes the candidate's whole weight. On an exact
    /// fleet every weight is 1 and each instance is one node.
    ///
    /// # Panics
    ///
    /// Panics if `snapshots.len()` differs from the instance count.
    pub fn plan_grouped(
        &mut self,
        total_load: f64,
        snapshots: &[NodeSnapshot],
        slots_per_node: usize,
    ) -> AutoscalerAction {
        assert_eq!(
            snapshots.len(),
            self.states.len(),
            "autoscaler built for {} instances, got {} snapshots",
            self.states.len(),
            snapshots.len()
        );

        // Park fully-drained instances (suspending costs nothing to decide; no
        // cooldown).
        for (state, snap) in self.states.iter_mut().zip(snapshots) {
            if *state == NodePowerState::Draining && snap.free_slots == slots_per_node {
                *state = NodePowerState::Parked;
            }
        }

        let active_replicas = self.active_replicas();
        let per_node_load = total_load / active_replicas.max(1) as f64;
        let violating: usize = self
            .states
            .iter()
            .zip(snapshots)
            .zip(&self.weights)
            .filter(|((state, snap), _)| {
                **state == NodePowerState::Active && snap.smoothed_p99_s > snap.qos_target_s
            })
            .map(|(_, w)| *w)
            .sum();
        let pressure = violating > 0
            && violating as f64
                >= self.config.scale_out_violation_fraction * active_replicas as f64;
        let can_grow = self.states.iter().any(|s| *s != NodePowerState::Active);
        // Scale-in needs demonstrated headroom on every serving instance, not merely
        // the absence of violations: a fleet hovering just under its target would fail
        // the drain it is about to attempt.
        let headroom = self.states.iter().zip(snapshots).all(|(state, snap)| {
            *state != NodePowerState::Active
                || snap.smoothed_p99_s <= self.config.scale_in_max_p99_fraction * snap.qos_target_s
        });
        let drain_ceiling = self
            .config
            .scale_in_max_load
            .min(BURN_MARGIN * self.burned_per_node_load);
        // A drain candidate must leave at least `min_active` logical nodes serving and
        // keep the survivors' per-node load at or below the ceiling *after losing the
        // candidate's whole replica block*.
        let drain_eligible = |scaler: &Self, i: usize| {
            scaler.states[i] == NodePowerState::Active && {
                let remaining = active_replicas - scaler.weights[i];
                remaining >= scaler.config.min_active
                    && total_load / remaining as f64 <= drain_ceiling
            }
        };
        let can_shrink =
            violating == 0 && headroom && (0..self.states.len()).any(|i| drain_eligible(self, i));

        // Streaks accumulate even through a cooldown, so an operating point that keeps
        // its trigger asserted acts immediately once the hold expires. The pressure
        // streak also tracks its peak per-node load (see `streak_peak_load`).
        self.out_streak = if pressure && can_grow {
            self.streak_peak_load = if self.out_streak == 0 {
                per_node_load
            } else {
                self.streak_peak_load.max(per_node_load)
            };
            self.out_streak + 1
        } else {
            0
        };
        self.in_streak = if can_shrink { self.in_streak + 1 } else { 0 };

        // Feed-forward overload: the coming interval's load is *known*, so a fleet
        // asked to serve more per node than the (configured or learned) ceiling grows
        // immediately — no sustain, no cooldown. This cannot flap against scale-in:
        // drains only fire while the projection stays in the hysteresis band below.
        let overload_ceiling = self.config.scale_out_load.min(self.burned_per_node_load);
        if can_grow && per_node_load > overload_ceiling {
            let target = self.reactivation_target();
            self.states[target] = NodePowerState::Active;
            self.cooldown = self.config.cooldown_intervals;
            self.out_streak = 0;
            self.in_streak = 0;
            return AutoscalerAction::ScaleOut(target);
        }

        if self.cooldown > 0 {
            self.cooldown -= 1;
            return AutoscalerAction::Hold;
        }

        if self.out_streak >= self.config.scale_out_sustain_intervals {
            // The fleet demonstrated it cannot serve the streak's peak per-node load
            // within QoS: remember the ceiling so scale-in never projects back into
            // it. The ceiling is deliberately monotone (no decay) — conservative, and
            // what keeps autoscaled runs deterministic functions of their history.
            self.burned_per_node_load = self.burned_per_node_load.min(self.streak_peak_load);
            let target = self.reactivation_target();
            self.states[target] = NodePowerState::Active;
            self.cooldown = self.config.cooldown_intervals;
            self.out_streak = 0;
            self.in_streak = 0;
            return AutoscalerAction::ScaleOut(target);
        }

        if self.in_streak >= self.config.scale_in_sustain_intervals {
            // Drain the least-utilized *eligible* instance, ties broken toward the
            // highest index (instance 0 stays active the longest).
            let target = snapshots
                .iter()
                .filter(|s| drain_eligible(self, s.index))
                .min_by(|a, b| {
                    a.utilization
                        .total_cmp(&b.utilization)
                        .then(b.index.cmp(&a.index))
                })
                // pliant-lint: allow(panic-hygiene): the in-streak only accrues while
                // a drain-eligible instance exists (see `can_shrink` above).
                .expect("an eligible instance exists")
                .index;
            self.states[target] = NodePowerState::Draining;
            self.cooldown = self.config.cooldown_intervals;
            self.out_streak = 0;
            self.in_streak = 0;
            return AutoscalerAction::ScaleIn(target);
        }

        AutoscalerAction::Hold
    }

    /// Plans one interval; the same routine as [`Self::plan_grouped`], under the
    /// name callers planning an exact fleet use.
    ///
    /// # Panics
    ///
    /// Panics if `snapshots.len()` differs from the instance count.
    pub fn plan(
        &mut self,
        total_load: f64,
        snapshots: &[NodeSnapshot],
        slots_per_node: usize,
    ) -> AutoscalerAction {
        self.plan_grouped(total_load, snapshots, slots_per_node)
    }

    /// Re-checks the park transition *outside* the planning step: a drain that
    /// completes mid-interval — because a migration emptied the node's last busy slot
    /// — parks before the node step, so the interval bills the park draw and the
    /// `active_nodes` trace series stops counting the drained node that same interval
    /// instead of one interval late. Appends the indices of newly-parked instances to
    /// `parked` (a caller-owned scratch buffer; the per-interval hot path reuses it
    /// instead of allocating). No cooldown, exactly as the park path in
    /// [`Self::plan_grouped`]: suspending costs nothing to decide.
    ///
    /// # Panics
    ///
    /// Panics if `snapshots.len()` differs from the instance count.
    pub fn park_fully_drained(
        &mut self,
        snapshots: &[NodeSnapshot],
        slots_per_node: usize,
        parked: &mut Vec<usize>,
    ) {
        assert_eq!(
            snapshots.len(),
            self.states.len(),
            "autoscaler built for {} instances, got {} snapshots",
            self.states.len(),
            snapshots.len()
        );
        for (i, (state, snap)) in self.states.iter_mut().zip(snapshots).enumerate() {
            if *state == NodePowerState::Draining && snap.free_slots == slots_per_node {
                *state = NodePowerState::Parked;
                parked.push(i);
            }
        }
    }

    /// The node a scale-out reactivates: a draining node first (still warm, its jobs
    /// are still on it), else the lowest-index parked node.
    fn reactivation_target(&self) -> usize {
        self.states
            .iter()
            .position(|s| *s == NodePowerState::Draining)
            .or_else(|| {
                self.states
                    .iter()
                    .position(|s| *s == NodePowerState::Parked)
            })
            // pliant-lint: allow(panic-hygiene): both scale-out paths check
            // `can_grow` (some instance is not active) before calling.
            .expect("scale-out requires an inactive node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(index: usize, p99: f64, utilization: f64, free_slots: usize) -> NodeSnapshot {
        NodeSnapshot {
            index,
            smoothed_p99_s: p99,
            utilization,
            free_slots,
            qos_target_s: 0.01,
        }
    }

    fn healthy(n: usize) -> Vec<NodeSnapshot> {
        (0..n).map(|i| snapshot(i, 0.005, 0.5, 0)).collect()
    }

    fn config() -> AutoscalerConfig {
        AutoscalerConfig {
            min_active: 1,
            scale_out_load: 1.0,
            scale_out_violation_fraction: 0.25,
            scale_out_sustain_intervals: 2,
            scale_in_max_load: 0.7,
            scale_in_max_p99_fraction: 0.8,
            scale_in_sustain_intervals: 2,
            cooldown_intervals: 3,
            consolidate: false,
        }
    }

    #[test]
    fn config_validation_catches_degenerate_knobs() {
        assert!(AutoscalerConfig::default().validate().is_ok());
        let mut c = config();
        c.min_active = 0;
        assert_eq!(c.validate(), Err(AutoscalerConfigError::NoMinimumActive));
        let mut c = config();
        c.scale_out_violation_fraction = 0.0;
        assert_eq!(
            c.validate(),
            Err(AutoscalerConfigError::InvalidViolationFraction)
        );
        let mut c = config();
        c.scale_in_max_load = 2.0;
        assert_eq!(c.validate(), Err(AutoscalerConfigError::InvalidScaleInLoad));
        let mut c = config();
        c.scale_out_sustain_intervals = 0;
        assert_eq!(c.validate(), Err(AutoscalerConfigError::NoSustain));
        let mut c = config();
        c.scale_in_sustain_intervals = 0;
        assert_eq!(c.validate(), Err(AutoscalerConfigError::NoSustain));
        let mut c = config();
        c.scale_in_max_p99_fraction = 0.0;
        assert_eq!(
            c.validate(),
            Err(AutoscalerConfigError::InvalidScaleInHeadroom)
        );
        let mut c = config();
        c.scale_out_load = 0.0;
        assert_eq!(
            c.validate(),
            Err(AutoscalerConfigError::InvalidScaleOutLoad)
        );
        let mut c = config();
        c.scale_in_max_load = c.scale_out_load;
        assert_eq!(c.validate(), Err(AutoscalerConfigError::NoHysteresis));
    }

    #[test]
    fn scale_in_requires_latency_headroom_on_every_active_node() {
        let mut scaler = Autoscaler::new(config(), 3);
        let mut snaps = healthy(3);
        // One node hovering at 90% of its target (no violation, no headroom either):
        // the fleet must not drain.
        snaps[1].smoothed_p99_s = 0.009;
        for _ in 0..4 {
            assert_eq!(scaler.plan(0.8, &snaps, 1), AutoscalerAction::Hold);
        }
        assert_eq!(scaler.active_count(), 3);
        // Headroom restored → the drain proceeds.
        snaps[1].smoothed_p99_s = 0.004;
        scaler.plan(0.8, &snaps, 1);
        assert!(matches!(
            scaler.plan(0.8, &snaps, 1),
            AutoscalerAction::ScaleIn(_)
        ));
    }

    #[test]
    fn sustained_headroom_drains_the_least_loaded_node() {
        let mut scaler = Autoscaler::new(config(), 4);
        let mut snaps = healthy(4);
        snaps[2].utilization = 0.2; // least loaded
                                    // Total load 1.0 over 3 remaining nodes = 0.33 <= 0.7 → eligible.
        assert_eq!(scaler.plan(1.0, &snaps, 1), AutoscalerAction::Hold);
        assert_eq!(scaler.plan(1.0, &snaps, 1), AutoscalerAction::ScaleIn(2));
        assert_eq!(scaler.states()[2], NodePowerState::Draining);
        assert_eq!(scaler.active_count(), 3);
        // Cooldown holds even though the trigger stays asserted (1.0 / 2 = 0.5 ≤ 0.7)...
        for _ in 0..3 {
            assert_eq!(scaler.plan(1.0, &snaps, 1), AutoscalerAction::Hold);
        }
        // ...then the sustained streak fires immediately after it expires.
        let next = scaler.plan(1.0, &snaps, 1);
        assert!(matches!(next, AutoscalerAction::ScaleIn(_)), "{next:?}");
        // With 2 active nodes a further drain would project 1.0 load per node — above
        // the ceiling, so the fleet settles.
        for _ in 0..3 {
            scaler.plan(1.0, &snaps, 1);
        }
        assert_eq!(scaler.plan(1.0, &snaps, 1), AutoscalerAction::Hold);
        assert_eq!(scaler.active_count(), 2);
    }

    #[test]
    fn draining_nodes_park_once_their_slots_are_free() {
        let mut scaler = Autoscaler::new(config(), 3);
        let mut snaps = healthy(3);
        snaps[1].utilization = 0.1;
        scaler.plan(0.8, &snaps, 1);
        scaler.plan(0.8, &snaps, 1);
        assert_eq!(scaler.states()[1], NodePowerState::Draining);
        // Still running its job: stays draining.
        scaler.plan(0.8, &snaps, 1);
        assert_eq!(scaler.states()[1], NodePowerState::Draining);
        // Job finished → all slots free → parked.
        snaps[1].free_slots = 1;
        scaler.plan(0.8, &snaps, 1);
        assert_eq!(scaler.states()[1], NodePowerState::Parked);
    }

    #[test]
    fn sustained_qos_pressure_reactivates_a_node() {
        let mut scaler = Autoscaler::new(config(), 3);
        let mut snaps = healthy(3);
        snaps[0].utilization = 0.1;
        scaler.plan(0.8, &snaps, 1); // streak 1
        assert_eq!(scaler.plan(0.8, &snaps, 1), AutoscalerAction::ScaleIn(0));
        snaps[0].free_slots = 1;
        for _ in 0..3 {
            scaler.plan(0.8, &snaps, 1); // cooldown; node 0 parks meanwhile
        }
        assert_eq!(scaler.states()[0], NodePowerState::Parked);
        // One of two active nodes over target = 50% ≥ 25% → pressure.
        snaps[1].smoothed_p99_s = 0.02;
        scaler.plan(2.0, &snaps, 1); // streak 1
        assert_eq!(scaler.plan(2.0, &snaps, 1), AutoscalerAction::ScaleOut(0));
        assert_eq!(scaler.states()[0], NodePowerState::Active);
        assert_eq!(scaler.active_count(), 3);
    }

    #[test]
    fn scale_out_prefers_draining_over_parked_nodes() {
        let mut scaler = Autoscaler::new(config(), 4);
        let mut snaps = healthy(4);
        // Drain node 3, park it; then drain node 2 and keep it draining.
        snaps[3].utilization = 0.1;
        scaler.plan(0.8, &snaps, 1);
        scaler.plan(0.8, &snaps, 1);
        snaps[3].free_slots = 1;
        for _ in 0..3 {
            scaler.plan(0.8, &snaps, 1);
        }
        // The eligibility streak kept accruing through the cooldown, so the next plan
        // fires immediately and drains the now-least-loaded node 2.
        snaps[2].utilization = 0.15;
        assert_eq!(scaler.plan(0.8, &snaps, 1), AutoscalerAction::ScaleIn(2));
        assert_eq!(scaler.states()[3], NodePowerState::Parked);
        assert_eq!(scaler.states()[2], NodePowerState::Draining);
        // Pressure (below the feed-forward ceiling): the still-warm draining node
        // comes back first.
        snaps[0].smoothed_p99_s = 0.02;
        snaps[1].smoothed_p99_s = 0.02;
        for _ in 0..3 {
            scaler.plan(1.8, &snaps, 1); // cooldown drains while pressure accrues
        }
        assert_eq!(scaler.plan(1.8, &snaps, 1), AutoscalerAction::ScaleOut(2));
    }

    #[test]
    fn feed_forward_overload_grows_immediately_and_bypasses_cooldown() {
        let mut scaler = Autoscaler::new(config(), 3);
        let mut snaps = healthy(3);
        snaps[2].utilization = 0.1;
        scaler.plan(0.8, &snaps, 1);
        assert_eq!(scaler.plan(0.8, &snaps, 1), AutoscalerAction::ScaleIn(2));
        // Load jumps above the ceiling (2.2 / 2 = 1.1 > 1.0) while the cooldown is
        // still running: the offered load is known, so the fleet grows at once.
        assert_eq!(scaler.plan(2.2, &snaps, 1), AutoscalerAction::ScaleOut(2));
        assert_eq!(scaler.active_count(), 3);
    }

    #[test]
    fn pressure_scale_outs_burn_a_capacity_ceiling_that_blocks_re_drains() {
        let cfg = AutoscalerConfig {
            cooldown_intervals: 0,
            ..config()
        };
        let mut scaler = Autoscaler::new(cfg, 3);
        let mut snaps = healthy(3);
        snaps[2].utilization = 0.1;
        // Drain to 2 nodes at 0.6 per node (projection 1.2/2 = 0.6 ≤ 0.7).
        scaler.plan(1.2, &snaps, 1);
        assert_eq!(scaler.plan(1.2, &snaps, 1), AutoscalerAction::ScaleIn(2));
        assert_eq!(scaler.burned_per_node_load(), f64::INFINITY);
        // The 2-node fleet violates at 0.6 per node → pressure-driven scale-out burns
        // that per-node load as the learned ceiling.
        snaps[0].smoothed_p99_s = 0.02;
        scaler.plan(1.2, &snaps, 1);
        assert_eq!(scaler.plan(1.2, &snaps, 1), AutoscalerAction::ScaleOut(2));
        assert_eq!(scaler.burned_per_node_load(), 0.6);
        // Back at 3 healthy nodes, the same drain is no longer eligible: the
        // projection (0.6) is above the burned ceiling with its margin (0.57).
        snaps[0].smoothed_p99_s = 0.005;
        for _ in 0..5 {
            assert_eq!(scaler.plan(1.2, &snaps, 1), AutoscalerAction::Hold);
        }
        assert_eq!(scaler.active_count(), 3);
        // A lighter load projects below the burned ceiling and may drain again.
        scaler.plan(1.0, &snaps, 1);
        assert!(matches!(
            scaler.plan(1.0, &snaps, 1),
            AutoscalerAction::ScaleIn(_)
        ));
    }

    #[test]
    fn never_drains_below_min_active_and_never_grows_past_the_fleet() {
        let cfg = AutoscalerConfig {
            min_active: 2,
            scale_out_sustain_intervals: 1,
            scale_in_sustain_intervals: 1,
            cooldown_intervals: 0,
            ..config()
        };
        let mut scaler = Autoscaler::new(cfg, 3);
        let snaps = healthy(3);
        assert!(matches!(
            scaler.plan(0.4, &snaps, 1),
            AutoscalerAction::ScaleIn(_)
        ));
        // At min_active, unconditional hold regardless of headroom.
        assert_eq!(scaler.plan(0.1, &snaps, 1), AutoscalerAction::Hold);
        assert_eq!(scaler.active_count(), 2);
        // Fully-active fleet under pressure cannot grow.
        let mut hot = healthy(3);
        for s in &mut hot {
            s.smoothed_p99_s = 0.05;
        }
        let mut full = Autoscaler::new(config(), 2);
        assert_eq!(full.plan(3.0, &hot[..2], 1), AutoscalerAction::Hold);
        assert_eq!(full.plan(3.0, &hot[..2], 1), AutoscalerAction::Hold);
        assert_eq!(full.active_count(), 2);
    }

    #[test]
    fn burned_ceiling_records_the_streak_peak_not_the_completion_load() {
        // Pressure is EWMA-driven and can outlast the spike that caused it: if the
        // load has already fallen by the time the streak completes, the ceiling must
        // still record the spike's load, not the healthy post-spike level.
        let cfg = AutoscalerConfig {
            scale_out_sustain_intervals: 3,
            cooldown_intervals: 0,
            ..config()
        };
        let mut scaler = Autoscaler::new(cfg, 3);
        let mut snaps = healthy(3);
        snaps[2].utilization = 0.1;
        scaler.plan(1.2, &snaps, 1);
        assert_eq!(scaler.plan(1.2, &snaps, 1), AutoscalerAction::ScaleIn(2));
        // Spike to 0.9 per node (1.8 over 2 active); the EWMA stays over target even
        // as the load falls back to 0.5 per node.
        snaps[0].smoothed_p99_s = 0.02;
        scaler.plan(1.8, &snaps, 1); // streak 1 at 0.9/node
        scaler.plan(1.4, &snaps, 1); // streak 2 at 0.7/node
        assert_eq!(scaler.plan(1.0, &snaps, 1), AutoscalerAction::ScaleOut(2));
        assert_eq!(
            scaler.burned_per_node_load(),
            0.9,
            "the ceiling must be the streak's peak load, not the completion load (0.5)"
        );
    }

    #[test]
    fn grouped_planning_is_instance_atomic_and_counts_logical_nodes() {
        // Two instances of 5 replicas each, min_active = 6: draining either block
        // would leave 5 < 6 logical nodes, so no drain is ever eligible even at a
        // trivial load.
        let cfg = AutoscalerConfig {
            min_active: 6,
            scale_in_sustain_intervals: 1,
            cooldown_intervals: 0,
            ..config()
        };
        let mut scaler = Autoscaler::for_instances(cfg, vec![5, 5]);
        let snaps = healthy(2);
        for _ in 0..4 {
            assert_eq!(scaler.plan_grouped(0.5, &snaps, 1), AutoscalerAction::Hold);
        }
        assert_eq!(scaler.active_replicas(), 10);

        // With min_active = 5 one block may drain; the projection divides by the
        // surviving 5 logical nodes (3.0 / 5 = 0.6 ≤ 0.7 → eligible).
        let cfg = AutoscalerConfig {
            min_active: 5,
            scale_in_sustain_intervals: 1,
            cooldown_intervals: 0,
            ..config()
        };
        let mut scaler = Autoscaler::for_instances(cfg, vec![5, 5]);
        let mut snaps = healthy(2);
        snaps[0].utilization = 0.2;
        assert_eq!(
            scaler.plan_grouped(3.0, &snaps, 1),
            AutoscalerAction::ScaleIn(0)
        );
        assert_eq!(scaler.active_replicas(), 5);
        assert_eq!(scaler.active_count(), 1);
        // Feed-forward overload measures per *logical* node: 5.5 / 5 = 1.1 > 1.0.
        snaps[0].free_slots = 1;
        assert_eq!(
            scaler.plan_grouped(5.5, &snaps, 1),
            AutoscalerAction::ScaleOut(0)
        );
        assert_eq!(scaler.active_replicas(), 10);
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = config();
        let json = serde_json::to_string(&cfg).expect("serializable");
        let back: AutoscalerConfig = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, cfg);
    }

    #[test]
    fn consolidate_defaults_off_and_is_omitted_from_archives() {
        // Pre-topology archives carry no `consolidate` key; the wire default keeps
        // them deserializing, and an off flag round-trips to the same bytes.
        let cfg = AutoscalerConfig::default();
        assert!(!cfg.consolidate);
        let json = serde_json::to_string(&cfg).expect("serializable");
        assert!(
            !json.contains("consolidate"),
            "off flag must be omitted: {json}"
        );
        let back: AutoscalerConfig = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, cfg);

        let on = AutoscalerConfig {
            consolidate: true,
            ..AutoscalerConfig::default()
        };
        let json = serde_json::to_string(&on).expect("serializable");
        assert!(json.contains("consolidate"), "{json}");
        let back: AutoscalerConfig = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, on);
    }

    #[test]
    fn mid_interval_park_pass_retires_drains_completed_by_migration() {
        let mut scaler = Autoscaler::new(config(), 3);
        let mut snaps = healthy(3);
        snaps[2].utilization = 0.1;
        scaler.plan(0.8, &snaps, 1);
        assert_eq!(scaler.plan(0.8, &snaps, 1), AutoscalerAction::ScaleIn(2));
        // The planning step saw the node still busy; nothing to park yet.
        let mut parked = Vec::new();
        scaler.park_fully_drained(&snaps, 1, &mut parked);
        assert!(parked.is_empty());
        assert_eq!(scaler.states()[2], NodePowerState::Draining);
        // A migration empties its last slot mid-interval: the park pass retires it
        // in the same interval instead of waiting for the next plan.
        snaps[2].free_slots = 1;
        scaler.park_fully_drained(&snaps, 1, &mut parked);
        assert_eq!(parked, vec![2]);
        assert_eq!(scaler.states()[2], NodePowerState::Parked);
    }
}
