//! The fleet simulator: N nodes coupled by a load balancer and a batch scheduler.
//!
//! A [`ClusterSim`] advances the whole fleet one decision interval at a time.
//! [`ClusterSim::advance_threads`] runs the interval as a fixed sequence of phases,
//! one method each:
//!
//! 1. **faults** — recover nodes whose outage or slowdown expired, then apply the
//!    faults scheduled for this interval (a crash requeues its unfinished jobs);
//! 2. **load** — sample the per-node-average load profile and scale it to the
//!    logical fleet's total offered load;
//! 3. **autoscale** — the [`Autoscaler`], when configured, plans the active set from
//!    the previous interval's node snapshots;
//! 4. **serve** — suspend every node the autoscaler parked or a crash took down, and
//!    record the interval's *serving mask* (autoscaler-active and healthy), which
//!    every later phase reads;
//! 5. **rack admission** — a rack whose measured draw reached its power budget
//!    admits no new work this interval (racked topologies only);
//! 6. **consolidation** — live-migrate draining nodes' jobs onto serving nodes with
//!    free slots and park the drains this empties (when the autoscaler consolidates);
//! 7. **placement** — the batch scheduler places queued jobs into free slots on
//!    serving nodes (confined to one sampled rack per job on racked topologies);
//! 8. **dispatch** — the [`LoadBalancer`] splits the total load over the serving
//!    nodes;
//! 9. **step** — every node advances independently: its simulator, monitor, policy,
//!    and actuator run the exact single-node loop;
//! 10. **account** — job completions, per-rack power draw, the clock, and the
//!     interval rollup.
//!
//! The step phase is embarrassingly parallel: nodes share no state within an
//! interval, and all cross-node decisions happen in the other phases on the
//! coordinating thread. [`ClusterSim::advance_threads`] therefore produces results
//! byte-identical to [`ClusterSim::advance`] for any worker count.
//!
//! # Population vs instances
//!
//! The scenario describes a *population* of logical nodes
//! (see [`NodePopulation`]); what the simulator steps are *instances*, each standing
//! for `replicas` interchangeable logical nodes. The balancer splits the *logical*
//! total load over instances (weighted, per-replica), the scheduler pops
//! replica-sized job batches, the autoscaler parks and drains whole replica blocks,
//! and every per-node statistic an instance produces is replicated by its weight
//! node-side. Under
//! [`FleetApproximation::Exact`](crate::scenario::FleetApproximation::Exact) every
//! weight is 1 and the instances are the logical nodes; under
//! [`FleetApproximation::Clustered`](crate::scenario::FleetApproximation::Clustered)
//! interval cost scales with the number of representatives while the reported fleet
//! stays at its logical size. Both run the same code after construction.

use pliant_approx::catalog::{AppId, Catalog};
use pliant_telemetry::obs::{
    Event, EventLog, ObsBuffer, ObsLevel, PowerStateKind, ScaleTrigger, DEFAULT_FLEET_CAPACITY,
};
use pliant_telemetry::rng::{derive_seed, rng_from_state_words, rng_state_words, seeded_rng};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::autoscaler::{Autoscaler, AutoscalerSnapshot, NodePowerState};
use crate::balancer::LoadBalancer;
use crate::faults::{self, FaultKind, FaultState, FaultStateSnapshot, FaultStats, NodeHealth};
use crate::node::{ClusterNode, NodeCheckpoint, NodeInterval, NodeSnapshot};
use crate::pool::NodeWorkerPool;
use crate::population::NodePopulation;
use crate::scenario::ClusterScenario;
use crate::scheduler::{BatchScheduler, SchedulerStats};
use crate::topology::Topology;

/// Seed-derivation stream for the rack-placement sampling RNG (racked topologies
/// only; flat fleets never create the stream, let alone draw from it).
const RACK_SAMPLE_STREAM: u64 = 0x7090_0001;

/// Everything the fleet produced during one decision interval.
#[derive(Debug, Clone)]
pub struct ClusterInterval {
    /// Experiment time at the end of the interval, in seconds.
    pub time_s: f64,
    /// The sampled per-node-average offered load for the interval.
    pub avg_offered_load: f64,
    /// Total offered load for the interval, in node-saturation units
    /// (`avg_offered_load × logical nodes`).
    pub total_offered_load: f64,
    /// Logical nodes that served traffic this interval: autoscaler-active (every node
    /// without an autoscaler) and not down.
    pub active_nodes: usize,
    /// Jobs placed onto nodes at the start of the interval (logical count: a clustered
    /// batch of `w` jobs collapsed onto one representative counts `w`).
    pub jobs_placed: usize,
    /// Per-instance results, in instance order (one entry per logical node in exact
    /// mode; each entry carries its replica weight).
    pub nodes: Vec<NodeInterval>,
}

/// The fleet simulator; see the module docs.
pub struct ClusterSim {
    scenario: ClusterScenario,
    catalog: Catalog,
    /// The logical fleet the instances below stand for.
    population: NodePopulation,
    /// Simulated instances, in instance order. During a parallel step the tail chunks
    /// are out on pool workers and the vector holds only the caller's chunk; every
    /// node is back, in order, before the step returns (see [`NodeWorkerPool`]).
    nodes: Vec<ClusterNode>,
    /// Logical nodes each instance stands for (all ones in exact mode).
    replica_weights: Vec<usize>,
    balancer: LoadBalancer,
    scheduler: BatchScheduler,
    /// Energy-aware sizing of the active node set (`None` = every node always serves).
    autoscaler: Option<Autoscaler>,
    /// Fault injection: the compiled schedule and per-instance health (`None` when the
    /// scenario carries no fault profile).
    faults: Option<FaultState>,
    /// Per-instance serving mask of the current interval: autoscaler-active and
    /// healthy. Recomputed once per interval by the serve phase; consolidation,
    /// placement, dispatch, and the serving count all read it.
    serving: Vec<bool>,
    time_s: f64,
    intervals: usize,
    /// Persistent worker pool for parallel node updates, created on first parallel
    /// advance and kept until the chunk count changes (see [`NodeWorkerPool`]).
    pool: Option<NodeWorkerPool>,
    /// Scratch buffer of node snapshots, reused across placement/balancing rounds.
    snapshot_scratch: Vec<NodeSnapshot>,
    /// Per-instance, per-replica load assignments of the current interval, reused
    /// across intervals.
    assigned_scratch: Vec<f64>,
    /// Scratch buffer of `(app, weight)` jobs aborted off a crashed node, reused
    /// across crash events.
    requeue_scratch: Vec<(AppId, usize)>,
    /// Coordinator-side event ring (source 0): fleet shape, placements, dispatch,
    /// autoscaler transitions, and per-interval rollups. Disabled — the null sink —
    /// unless the fleet was built with [`Self::with_obs`].
    fleet_obs: ObsBuffer,
    /// Autoscaler power states at the start of the previous plan, used to diff out
    /// [`Event::AutoscalerTransition`]s (traced runs only).
    power_state_scratch: Vec<NodePowerState>,
    /// The resolved physical topology: racks as shared power budgets and failure
    /// domains. A flat scenario resolves to one unbudgeted rack holding the whole
    /// fleet and skips every rack phase.
    topology: Topology,
    /// Rack of each instance, via its seed member (replica groups never span racks —
    /// see [`NodeGroup::rack`](crate::population::NodeGroup::rack) — so the seed
    /// member's rack is every member's rack).
    instance_racks: Vec<usize>,
    /// Sampling stream for rack-level online placement (`None` on a flat topology,
    /// which never samples).
    rack_rng: Option<SmallRng>,
    /// Per-rack measured power draw over the previous interval, in watts (empty on a
    /// flat topology).
    rack_power_w: Vec<f64>,
    /// Scratch: per-rack admission flags for the current interval (power caps).
    rack_admissible: Vec<bool>,
    /// Scratch: candidate racks for one placement sampling round.
    rack_candidates: Vec<usize>,
    /// Scratch: instances parked by the mid-interval consolidation pass.
    park_scratch: Vec<usize>,
}

/// Converts an autoscaler power state into its telemetry mirror.
fn power_state_kind(state: NodePowerState) -> PowerStateKind {
    match state {
        NodePowerState::Active => PowerStateKind::Active,
        NodePowerState::Draining => PowerStateKind::Draining,
        NodePowerState::Parked => PowerStateKind::Parked,
    }
}

/// A batch application's position in [`AppId::all`], as traced in job events.
fn job_code(app: AppId) -> u32 {
    AppId::all()
        .iter()
        .position(|a| *a == app)
        .map_or(u32::MAX, |p| p as u32)
}

impl ClusterSim {
    /// Builds the fleet described by `scenario`, filling every node's slots with the
    /// first `nodes × slots_per_node` jobs (node-major order) and queueing the rest.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`ClusterScenario::validate`] or names an
    /// application missing from the catalog.
    pub fn new(scenario: &ClusterScenario, catalog: &Catalog) -> Self {
        Self::with_obs(scenario, catalog, ObsLevel::Off)
    }

    /// Like [`Self::new`], but with the tracing subsystem switched on at `level`:
    /// every node records its decision events and the coordinator records fleet-level
    /// events (placements, dispatch, autoscaler transitions, interval rollups).
    /// Retrieve the merged stream with [`Self::take_event_log`] after the run.
    /// Tracing observes decisions without altering them — the simulation is
    /// byte-identical at every level.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`ClusterScenario::validate`] or names an
    /// application missing from the catalog.
    pub fn with_obs(scenario: &ClusterScenario, catalog: &Catalog, level: ObsLevel) -> Self {
        if let Err(e) = scenario.validate() {
            panic!("invalid cluster scenario `{}`: {e}", scenario.describe());
        }
        let initial = scenario.initial_job_count();
        let topology = Topology::resolve(&scenario.topology, scenario.nodes);
        let population = NodePopulation::with_topology(scenario, &topology);
        let clustered = scenario.approximation.is_clustered();
        let fault_schedule = scenario
            .fault_profile
            .as_ref()
            .filter(|profile| !profile.is_empty())
            .map(|profile| {
                faults::compile_schedule(
                    profile,
                    scenario.seed,
                    &population,
                    &topology,
                    scenario.max_intervals(),
                )
            });
        // Faulted logical nodes must be simulated exactly: carve them out of their
        // replica groups so a crash takes down one node, not every node it stood for.
        let plans = match &fault_schedule {
            Some(schedule) if clustered => population.plan_instances_isolating_nodes(
                &scenario.approximation,
                &faults::faulted_logical_nodes(schedule),
            ),
            _ => population.plan_instances(&scenario.approximation),
        };
        // In exact mode the plans are one weight-1 instance per logical node in node
        // order, so this loop builds the nodes in fleet order.
        let nodes: Vec<ClusterNode> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let slice = &scenario.jobs[plan.seed_member * scenario.slots_per_node
                    ..(plan.seed_member + 1) * scenario.slots_per_node];
                let mut node = ClusterNode::representative(
                    scenario,
                    i,
                    plan.seed_member,
                    plan.replicas,
                    slice,
                    catalog,
                );
                if level != ObsLevel::Off {
                    node.enable_obs(level);
                }
                node
            })
            .collect();
        let mut fleet_obs = ObsBuffer::new(level, 0, 1, DEFAULT_FLEET_CAPACITY);
        if fleet_obs.enabled() {
            let qos_target_s = nodes.first().map_or(0.0, |n| n.snapshot().qos_target_s);
            fleet_obs.emit(
                0,
                0.0,
                Event::FleetStart {
                    nodes: population.total_nodes() as u32,
                    instances: plans.len() as u32,
                    slots_per_node: scenario.slots_per_node as u32,
                    qos_target_s,
                },
            );
            if clustered {
                for group in 0..population.groups().len() {
                    let representatives = plans.iter().filter(|p| p.group == group).count() as u32;
                    let replicas: usize = plans
                        .iter()
                        .filter(|p| p.group == group)
                        .map(|p| p.replicas)
                        .sum();
                    fleet_obs.emit(
                        0,
                        0.0,
                        Event::ApproximationPlan {
                            group: group as u32,
                            representatives,
                            replicas: replicas as u32,
                        },
                    );
                }
            }
        }
        let replica_weights: Vec<usize> = plans.iter().map(|p| p.replicas).collect();
        let instance_racks: Vec<usize> = plans
            .iter()
            .map(|p| topology.rack_of(p.seed_member))
            .collect();
        let rack_rng = (!topology.is_flat())
            .then(|| seeded_rng(derive_seed(scenario.seed, RACK_SAMPLE_STREAM)));
        let rack_power_w = if topology.is_flat() {
            Vec::new()
        } else {
            vec![0.0; topology.rack_count()]
        };
        let balancer = scenario.balancer.build(
            nodes.len(),
            pliant_telemetry::rng::derive_seed(scenario.seed, 0xBA_1A_4C_E0),
        );
        let scheduler = BatchScheduler::new(
            scenario.scheduler,
            scenario.jobs[initial..].iter().copied(),
            initial,
        );
        let autoscaler = scenario
            .autoscaler
            .map(|config| Autoscaler::for_instances(config, replica_weights.clone()));
        let faults = fault_schedule.map(|schedule| FaultState::new(schedule, &plans));
        Self {
            scenario: scenario.clone(),
            catalog: catalog.clone(),
            population,
            serving: vec![true; nodes.len()],
            nodes,
            replica_weights,
            balancer,
            scheduler,
            autoscaler,
            faults,
            time_s: 0.0,
            intervals: 0,
            pool: None,
            snapshot_scratch: Vec::new(),
            assigned_scratch: Vec::new(),
            requeue_scratch: Vec::new(),
            fleet_obs,
            power_state_scratch: Vec::new(),
            topology,
            instance_racks,
            rack_rng,
            rack_power_w,
            rack_admissible: Vec::new(),
            rack_candidates: Vec::new(),
            park_scratch: Vec::new(),
        }
    }

    /// The resolved physical topology the fleet runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Per-rack measured power draw over the previous interval, in watts. Empty on a
    /// flat topology, which does not track rack power.
    pub fn rack_power_w(&self) -> &[f64] {
        &self.rack_power_w
    }

    /// Takes the merged decision-event stream of the run so far: the coordinator's
    /// events followed by every node's, interleaved chronologically (stable per-interval
    /// order: fleet first, then nodes in instance order). Buffers are drained, so this
    /// is called once, after the run. Returns an empty log on an untraced fleet.
    pub fn take_event_log(&mut self) -> EventLog {
        let level = self.fleet_obs.level();
        let fleet = std::mem::replace(&mut self.fleet_obs, ObsBuffer::disabled());
        let buffers =
            std::iter::once(fleet).chain(self.nodes.iter_mut().map(ClusterNode::take_obs_buffer));
        EventLog::merge(level, buffers)
    }

    /// The scenario the fleet was built from.
    pub fn scenario(&self) -> &ClusterScenario {
        &self.scenario
    }

    /// Logical fleet size (the number of nodes the scenario describes, regardless of
    /// how many instances the approximation simulates).
    pub fn node_count(&self) -> usize {
        self.population.total_nodes()
    }

    /// Simulated instances (equals [`Self::node_count`] in exact mode; the number of
    /// cluster representatives under
    /// [`FleetApproximation::Clustered`](crate::scenario::FleetApproximation::Clustered)).
    pub fn instance_count(&self) -> usize {
        self.nodes.len()
    }

    /// The logical node population the fleet was grouped from.
    pub fn population(&self) -> &NodePopulation {
        &self.population
    }

    /// Logical nodes each instance stands for, in instance order (all ones in exact
    /// mode).
    pub fn replica_weights(&self) -> &[usize] {
        &self.replica_weights
    }

    /// Current experiment time in seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Decision intervals advanced so far.
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// Job-queue statistics so far.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Jobs still waiting in the queue.
    pub fn pending_jobs(&self) -> usize {
        self.scheduler.pending()
    }

    /// Per-node power states, when an autoscaler is configured.
    pub fn node_power_states(&self) -> Option<&[NodePowerState]> {
        self.autoscaler.as_ref().map(|a| a.states())
    }

    /// Per-instance fault health, when the scenario carries a (non-empty) fault
    /// profile.
    pub fn node_health(&self) -> Option<&[NodeHealth]> {
        self.faults.as_ref().map(|f| f.health.as_slice())
    }

    /// Fault-injection outcome counters so far, when the scenario carries a
    /// (non-empty) fault profile. Availability is computed over the logical fleet and
    /// the intervals advanced so far.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults
            .as_ref()
            .map(|f| f.stats(self.population.total_nodes(), self.intervals))
    }

    /// Logical nodes serving traffic in the interval last advanced (the whole fleet
    /// before the first): the replica-weighted count of instances that are
    /// autoscaler-active and not down. Equals that interval's
    /// [`ClusterInterval::active_nodes`].
    pub fn active_nodes(&self) -> usize {
        self.serving
            .iter()
            .zip(&self.replica_weights)
            .filter(|(serving, _)| **serving)
            .map(|(_, weight)| weight)
            .sum()
    }

    /// The current snapshots of every instance, in instance order.
    pub fn snapshots(&self) -> Vec<NodeSnapshot> {
        self.nodes.iter().map(ClusterNode::snapshot).collect()
    }

    /// Immutable access to instance `index`.
    pub fn node(&self, index: usize) -> &ClusterNode {
        &self.nodes[index]
    }

    /// Inaccuracies of every job completed on node `index` so far, in percent.
    pub fn node_completed_inaccuracies(&self, index: usize) -> &[f64] {
        self.node(index).completed_inaccuracy_pct()
    }

    /// Refills `out` with every instance's current snapshot, in instance order (an
    /// associated function so callers can borrow other fields alongside).
    fn fill_snapshots(nodes: &[ClusterNode], out: &mut Vec<NodeSnapshot>) {
        out.clear();
        out.extend(nodes.iter().map(ClusterNode::snapshot));
    }

    /// Instance `index`'s autoscaler power state (`Active` without an autoscaler).
    fn power_state(&self, index: usize) -> NodePowerState {
        self.autoscaler
            .as_ref()
            .map_or(NodePowerState::Active, |a| a.states()[index])
    }

    /// Whether instance `index`'s fault health lets it serve (always, without faults).
    fn healthy(&self, index: usize) -> bool {
        self.faults
            .as_ref()
            .is_none_or(|f| f.health[index].is_serving())
    }

    /// Records a coordinator event stamped with the current interval and time (a
    /// no-op on an untraced fleet).
    fn record(&mut self, event: Event) {
        self.fleet_obs
            .emit(self.intervals as u32, self.time_s, event);
    }

    /// Scores a candidate rack for online placement: fractional power headroom
    /// (1.0 when unbudgeted) plus the replica-weighted mean QoS slack of its member
    /// instances. Returns `(score, headroom_w, mean_slack)`; the headroom in watts is
    /// reported as 0.0 for unbudgeted racks, which have no meaningful wattage.
    fn rack_score(&self, rack: usize, snapshots: &[NodeSnapshot]) -> (f64, f64, f64) {
        let (headroom_frac, headroom_w) = match self.topology.power_budget_w(rack) {
            Some(budget) if budget > 0.0 => {
                let headroom = (budget - self.rack_power_w[rack]).max(0.0);
                ((headroom / budget).min(1.0), headroom)
            }
            _ => (1.0, 0.0),
        };
        let mut slack_sum = 0.0;
        let mut members = 0usize;
        for snap in snapshots {
            if self.instance_racks[snap.index] != rack {
                continue;
            }
            let weight = self.replica_weights[snap.index];
            slack_sum += snap.slack_fraction() * weight as f64;
            members += weight;
        }
        let mean_slack = if members > 0 {
            slack_sum / members as f64
        } else {
            0.0
        };
        (headroom_frac + mean_slack, headroom_w, mean_slack)
    }

    /// Advances the fleet one decision interval on the calling thread.
    pub fn advance(&mut self) -> ClusterInterval {
        self.advance_threads(1)
    }

    /// Hands a fully consumed interval back to the fleet so each node recycles its
    /// observation's heap buffers into the next step (the fleet analogue of
    /// [`pliant_sim::colocation::ColocationSim::advance_reusing`]). Drivers that read
    /// an interval and move on — like the cluster engine's aggregation loop — call this
    /// to run the whole fleet without per-node-interval allocations; callers that keep
    /// the interval (archival, external analysis) simply never recycle it.
    pub fn recycle_interval(&mut self, interval: ClusterInterval) {
        for node_interval in interval.nodes {
            self.nodes[node_interval.node].recycle_observation(node_interval.observation);
        }
    }

    /// Advances the fleet one decision interval, stepping the independent nodes on up
    /// to `threads` threads (`0` = one per available core, capped at one per
    /// instance). The instances are split into contiguous chunks of
    /// `instances.div_ceil(threads)`: the calling thread steps the first, and each
    /// other chunk goes as one batch to a worker of a persistent pool. The pool is
    /// created on the first parallel call and reused until the chunk count changes —
    /// per-interval scoped spawns cost thread creation hundreds of times per run. The
    /// result is byte-identical to [`Self::advance`]: parallelism changes wall-clock
    /// time, never output. The phases run in the order the module docs list.
    pub fn advance_threads(&mut self, threads: usize) -> ClusterInterval {
        self.apply_faults();
        // The total scales with the *logical* fleet: approximating with fewer
        // instances must not shrink the offered load.
        let avg_offered_load = self.scenario.effective_load_profile().load_at(self.time_s);
        let total_offered_load = avg_offered_load * self.population.total_nodes() as f64;
        self.autoscale(total_offered_load);
        self.update_serving();
        self.admit_racks();
        self.consolidate();
        let jobs_placed = self.place_jobs();
        self.dispatch(total_offered_load);
        let nodes = self.step_nodes(threads);
        let active_nodes = self.active_nodes();
        self.account(&nodes, total_offered_load, active_nodes, jobs_placed);
        ClusterInterval {
            time_s: self.time_s,
            avg_offered_load,
            total_offered_load,
            active_nodes,
            jobs_placed,
            nodes,
        }
    }

    /// Faults phase: recovers nodes whose outage or degradation expired, then applies
    /// every fault scheduled for this interval (a zero-allocation cursor walk over the
    /// pre-compiled schedule; see [`crate::faults`]), and books the interval's
    /// replica-weighted availability. Runs first so every later phase sees this
    /// interval's health.
    fn apply_faults(&mut self) {
        let Some(mut faults) = self.faults.take() else {
            return;
        };
        let interval = self.intervals as u64;
        // A rack outage lands as per-member crashes (compiled into the schedule), but
        // the cause is a fleet-level event: record each power-domain failure the
        // interval it strikes, before its member crashes are applied.
        if let Some(profile) = &self.scenario.fault_profile {
            for outage in profile
                .rack_outages
                .iter()
                .filter(|o| o.at_interval == interval)
            {
                self.fleet_obs.emit(
                    self.intervals as u32,
                    self.time_s,
                    Event::RackOutage {
                        rack: outage.rack as u32,
                        nodes: self.topology.racks()[outage.rack].members.len() as u32,
                        duration_intervals: outage.duration_intervals as u32,
                    },
                );
            }
        }
        // Recoveries first, so a node can be struck again the interval it returns. A
        // recovered node's park state is reset by the serve phase.
        for i in 0..faults.health.len() {
            let recovered = match faults.health[i] {
                NodeHealth::Down { until } => until <= interval,
                NodeHealth::Degraded { until, .. } if until <= interval => {
                    self.nodes[i].set_degrade(1.0);
                    true
                }
                _ => false,
            };
            if recovered {
                faults.health[i] = NodeHealth::Up;
                self.record(Event::NodeRecovered { node: i as u32 });
            }
        }
        // Apply the events scheduled for this interval. Events addressing a logical
        // node with no exact instance (impossible by construction — the isolating
        // planner carves every faulted node out) or a node that is not healthy (a
        // crash cannot crash an already-down node) are dropped.
        while faults.cursor < faults.schedule.len()
            && faults.schedule[faults.cursor].interval == interval
        {
            let event = faults.schedule[faults.cursor];
            faults.cursor += 1;
            let Some(instance) = faults.instance_of.get(event.node) else {
                continue;
            };
            if faults.health[instance] != NodeHealth::Up {
                continue;
            }
            let until = interval + event.duration;
            match event.kind {
                FaultKind::Crash => {
                    faults.health[instance] = NodeHealth::Down { until };
                    faults.crashes += 1;
                    self.record(Event::NodeFailed {
                        node: instance as u32,
                        outage_intervals: event.duration as u32,
                    });
                    // Unfinished batch jobs die with the node; hand them back to the
                    // scheduler queue. (The node's slots keep simulating the abandoned
                    // work and free up when it would have finished — the requeued copy
                    // may complete elsewhere first.)
                    let mut lost = std::mem::take(&mut self.requeue_scratch);
                    lost.clear();
                    self.nodes[instance].abort_unfinished_jobs(&mut lost);
                    for &(app, weight) in &lost {
                        self.scheduler.requeue(app, weight);
                        faults.jobs_requeued += weight as u64;
                        self.record(Event::JobRequeued {
                            node: instance as u32,
                            job_code: job_code(app),
                            weight: weight as u32,
                        });
                    }
                    self.requeue_scratch = lost;
                }
                FaultKind::Degrade { factor } => {
                    faults.health[instance] = NodeHealth::Degraded { until, factor };
                    faults.degradations += 1;
                    self.nodes[instance].set_degrade(factor);
                    self.record(Event::NodeDegraded {
                        node: instance as u32,
                        factor,
                        intervals: event.duration as u32,
                    });
                }
            }
        }
        for (health, &weight) in faults.health.iter().zip(&self.replica_weights) {
            match health {
                NodeHealth::Down { .. } => faults.down_node_intervals += weight as u64,
                NodeHealth::Degraded { .. } => faults.degraded_node_intervals += weight as u64,
                NodeHealth::Up => {}
            }
        }
        self.faults = Some(faults);
    }

    /// Autoscale phase: plans the interval's active set from the previous interval's
    /// snapshots (park fully-drained nodes, then at most one membership change) and,
    /// on a traced fleet, diffs the plan into transition events.
    fn autoscale(&mut self, total_offered_load: f64) {
        let Some(scaler) = &mut self.autoscaler else {
            return;
        };
        Self::fill_snapshots(&self.nodes, &mut self.snapshot_scratch);
        let traced = self.fleet_obs.enabled();
        if traced {
            self.power_state_scratch.clear();
            self.power_state_scratch.extend_from_slice(scaler.states());
        }
        scaler.plan_grouped(
            total_offered_load,
            &self.snapshot_scratch,
            self.scenario.slots_per_node,
        );
        if !traced {
            return;
        }
        // The trigger is recovered from the edge itself: reactivation = scale-out, a
        // fresh drain = scale-in, draining → parked = the drain completing.
        for (i, (&before, &after)) in self
            .power_state_scratch
            .iter()
            .zip(scaler.states())
            .enumerate()
        {
            if before == after {
                continue;
            }
            let trigger = match after {
                NodePowerState::Active => ScaleTrigger::ScaleOut,
                NodePowerState::Draining => ScaleTrigger::ScaleIn,
                NodePowerState::Parked => ScaleTrigger::DrainComplete,
            };
            self.fleet_obs.emit(
                self.intervals as u32,
                self.time_s,
                Event::AutoscalerTransition {
                    node: i as u32,
                    from: power_state_kind(before),
                    to: power_state_kind(after),
                    trigger,
                },
            );
        }
    }

    /// Serve phase: suspends every node the autoscaler parked or a crash took down,
    /// and records the interval's serving mask (autoscaler-active and healthy). A down
    /// node bills the parked draw until it recovers — a modelling simplification: an
    /// outage is billed like a park, not as zero draw.
    fn update_serving(&mut self) {
        for i in 0..self.nodes.len() {
            let state = self.power_state(i);
            let healthy = self.healthy(i);
            self.nodes[i].set_parked(state == NodePowerState::Parked || !healthy);
            self.serving[i] = state == NodePowerState::Active && healthy;
        }
    }

    /// Rack admission phase: a rack whose measured draw reached its budget over the
    /// previous interval admits no new work this interval — neither queue placements
    /// nor migration arrivals. Flat fleets have a single unbudgeted rack and skip it.
    fn admit_racks(&mut self) {
        if self.topology.is_flat() {
            return;
        }
        self.rack_admissible.clear();
        for rack in 0..self.topology.rack_count() {
            let budget = self.topology.power_budget_w(rack);
            let power_w = self.rack_power_w[rack];
            let admissible = budget.is_none_or(|budget| power_w < budget);
            self.rack_admissible.push(admissible);
            if !admissible {
                self.record(Event::RackPowerCapped {
                    rack: rack as u32,
                    power_w,
                    budget_w: budget.unwrap_or(0.0),
                });
            }
        }
    }

    /// Consolidation phase: instead of waiting for a draining node's batch jobs to run
    /// to completion, migrate their in-flight state onto serving nodes with free
    /// slots, then park every drain the migrations completed — in the same interval,
    /// so the node bills the parked draw from here on and the active-node trace never
    /// double-counts it. Deterministic by construction: sources scan in instance
    /// order, each job lands on the lowest-indexed admissible destination, and no RNG
    /// is drawn.
    fn consolidate(&mut self) {
        if !self
            .autoscaler
            .as_ref()
            .is_some_and(|a| a.config().consolidate)
        {
            return;
        }
        let n = self.nodes.len();
        let racked = !self.topology.is_flat();
        let mut migrations = 0usize;
        for src in 0..n {
            // A crashed drain has nothing live to move: the crash pass already aborted
            // (and requeued) its unfinished jobs.
            if self.power_state(src) != NodePowerState::Draining || !self.healthy(src) {
                continue;
            }
            loop {
                // Pick the destination *before* extracting: extraction latches the
                // source slot irreversibly, so a job must never leave its node without
                // a confirmed landing spot. A draining source is never serving, so it
                // cannot be its own destination.
                let dst = (0..n).find(|&d| {
                    self.serving[d]
                        && (!racked || self.rack_admissible[self.instance_racks[d]])
                        && self.nodes[d].free_slots() > 0
                });
                let Some(dst) = dst else { break };
                let Some((state, weight)) = self.nodes[src].extract_job() else {
                    break;
                };
                let implanted = self.nodes[dst].implant_job(state, weight);
                assert!(
                    implanted.is_some(),
                    "destination advertised a free slot but refused the implant"
                );
                migrations += 1;
                self.record(Event::JobMigrated {
                    node: src as u32,
                    to_node: dst as u32,
                    weight: weight as u32,
                });
            }
        }
        if migrations == 0 {
            return;
        }
        Self::fill_snapshots(&self.nodes, &mut self.snapshot_scratch);
        self.park_scratch.clear();
        if let Some(scaler) = &mut self.autoscaler {
            scaler.park_fully_drained(
                &self.snapshot_scratch,
                self.scenario.slots_per_node,
                &mut self.park_scratch,
            );
        }
        for k in 0..self.park_scratch.len() {
            let i = self.park_scratch[k];
            self.nodes[i].set_parked(true);
            self.record(Event::AutoscalerTransition {
                node: i as u32,
                from: PowerStateKind::Draining,
                to: PowerStateKind::Parked,
                trigger: ScaleTrigger::DrainComplete,
            });
        }
    }

    /// Placement phase: places queued jobs into slots freed by the previous interval,
    /// returning the logical count placed. Snapshots are refreshed after every
    /// placement so one node does not soak up the whole queue just because it was
    /// chosen first. Nodes outside the serving mask advertise zero free slots: a
    /// draining node handed fresh jobs would never park, and a crashed one cannot run
    /// them.
    fn place_jobs(&mut self) -> usize {
        let racked = !self.topology.is_flat();
        let mut jobs_placed = 0usize;
        loop {
            Self::fill_snapshots(&self.nodes, &mut self.snapshot_scratch);
            for (snap, &serving) in self.snapshot_scratch.iter_mut().zip(&self.serving) {
                if !serving {
                    snap.free_slots = 0;
                }
            }
            if racked && !self.confine_to_sampled_rack() {
                break;
            }
            let Some((node, app, weight)) = self
                .scheduler
                .pop_placement_grouped(&self.snapshot_scratch, &self.replica_weights)
            else {
                break;
            };
            let profile = self
                .catalog
                .profile(app)
                .unwrap_or_else(|| panic!("{app} missing from catalog"))
                .clone();
            self.nodes[node]
                .place_job_weighted(&profile, weight)
                // pliant-lint: allow(panic-hygiene): the scheduler chose this node
                // from snapshots with `free_slots > 0` taken this same interval.
                .expect("scheduler only places onto nodes with free slots");
            jobs_placed += weight;
            self.record(Event::JobPlaced {
                node: node as u32,
                job_code: job_code(app),
                weight: weight as u32,
            });
        }
        jobs_placed
    }

    /// Online rack placement for one job: samples up to two admissible candidate racks
    /// with free capacity, scores each by fractional power headroom plus mean QoS
    /// slack, and confines the placement to the winner by zeroing every other rack's
    /// free slots in the snapshot scratch (the power-aware sampling of Microsoft's
    /// online rack placement; the job queue itself is untouched). Returns `false`,
    /// ending the placement round, when the queue or the candidate set is empty —
    /// *before* any sampling draw, so RNG consumption is a pure function of
    /// simulation state, never of tracing level.
    fn confine_to_sampled_rack(&mut self) -> bool {
        if self.scheduler.pending() == 0 {
            return false;
        }
        self.rack_candidates.clear();
        for rack in 0..self.topology.rack_count() {
            let has_free = self
                .snapshot_scratch
                .iter()
                .any(|s| self.instance_racks[s.index] == rack && s.free_slots > 0);
            if self.rack_admissible[rack] && has_free {
                self.rack_candidates.push(rack);
            }
        }
        let k = self.rack_candidates.len();
        if k == 0 {
            return false;
        }
        let (first, second) = if k == 1 {
            (0, 0)
        } else {
            let rng = self
                .rack_rng
                .as_mut()
                // pliant-lint: allow(panic-hygiene): racked fleets always construct
                // the sampling stream; see `with_obs`.
                .expect("racked fleets carry a rack-sampling stream");
            let first = rng.gen_range(0..k);
            let mut second = rng.gen_range(0..k - 1);
            if second >= first {
                second += 1;
            }
            (first, second)
        };
        let mut winner = self.rack_candidates[first];
        let mut best = self.rack_score(winner, &self.snapshot_scratch);
        if second != first {
            let other = self.rack_candidates[second];
            let score = self.rack_score(other, &self.snapshot_scratch);
            match score.0.total_cmp(&best.0) {
                std::cmp::Ordering::Greater => {
                    winner = other;
                    best = score;
                }
                std::cmp::Ordering::Equal if other < winner => {
                    winner = other;
                    best = score;
                }
                _ => {}
            }
        }
        self.record(Event::RackPlacement {
            rack: winner as u32,
            candidates: if k == 1 { 1 } else { 2 },
            power_headroom_w: best.1,
            qos_slack: best.2,
        });
        for snap in self.snapshot_scratch.iter_mut() {
            if self.instance_racks[snap.index] != winner {
                snap.free_slots = 0;
            }
        }
        true
    }

    /// Dispatch phase: splits the offered load over the serving mask into
    /// per-replica loads (`assigned_scratch`), then audits the split on a traced
    /// fleet — at Full level every routed assignment is recorded; at Decisions level
    /// only sheds are (a serving node squeezed out of the rotation is a balancer
    /// decision worth auditing, per-node routing isn't).
    fn dispatch(&mut self, total_offered_load: f64) {
        Self::fill_snapshots(&self.nodes, &mut self.snapshot_scratch);
        self.balancer.split_grouped(
            total_offered_load,
            &self.snapshot_scratch,
            &self.replica_weights,
            &self.serving,
            &mut self.assigned_scratch,
        );
        if !self.fleet_obs.enabled() || total_offered_load <= 0.0 {
            return;
        }
        for (i, &load) in self.assigned_scratch.iter().enumerate() {
            let event = if load > 0.0 {
                Event::BalancerDispatch {
                    node: i as u32,
                    assigned_load: load,
                }
            } else if self.serving[i] {
                Event::BalancerShed { node: i as u32 }
            } else {
                continue;
            };
            self.fleet_obs
                .emit(self.intervals as u32, self.time_s, event);
        }
    }

    /// Step phase: advances every node on its assigned load, on the calling thread or
    /// split into contiguous chunks over the calling thread and the persistent worker
    /// pool, returning the results in instance order.
    fn step_nodes(&mut self, threads: usize) -> Vec<NodeInterval> {
        let n = self.nodes.len();
        // A chunk per thread, capped at a node per chunk: under the clustered fleet
        // approximation the instance count can be far below the logical fleet size,
        // and a handful of representatives must not spin up a machine's worth of idle
        // threads.
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        }
        .clamp(1, n);
        let mut out = Vec::with_capacity(n);
        if threads == 1 {
            let loads = &self.assigned_scratch;
            out.extend(
                self.nodes
                    .iter_mut()
                    .zip(loads)
                    .map(|(node, &load)| node.step(load)),
            );
            return out;
        }
        // The calling thread steps the first chunk, so the pool needs one worker per
        // remaining chunk; it is rebuilt only when that count changes.
        let chunk = n.div_ceil(threads);
        let workers = n.div_ceil(chunk) - 1;
        if self
            .pool
            .as_ref()
            .is_some_and(|p| p.worker_count() != workers)
        {
            self.pool = None;
        }
        self.pool
            .get_or_insert_with(|| NodeWorkerPool::new(workers))
            .step_all(chunk, &mut self.nodes, &self.assigned_scratch, &mut out);
        out
    }

    /// Account phase: books the interval's job completions, measures each rack's draw
    /// (the next interval's admission phase compares it against the rack budget),
    /// advances the clock, and records the interval rollup.
    fn account(
        &mut self,
        node_intervals: &[NodeInterval],
        total_offered_load: f64,
        active_nodes: usize,
        jobs_placed: usize,
    ) {
        let completions: usize = node_intervals.iter().map(|ni| ni.jobs_completed).sum();
        self.scheduler.record_completions(completions);
        let dt = self.scenario.decision_interval_s;
        if !self.topology.is_flat() {
            self.rack_power_w.fill(0.0);
            for ni in node_intervals {
                self.rack_power_w[self.instance_racks[ni.node]] +=
                    ni.observation.energy_j * ni.replicas as f64 / dt;
            }
        }
        self.time_s += dt;
        if self.fleet_obs.enabled() {
            let mut busy = 0usize;
            let mut violating = 0usize;
            for ni in node_intervals {
                if ni.observation.arrivals > 0 {
                    busy += ni.replicas;
                    if ni.observation.qos_violated() {
                        violating += ni.replicas;
                    }
                }
            }
            self.record(Event::IntervalSummary {
                active_nodes: active_nodes as u32,
                total_load: total_offered_load,
                busy: busy as u32,
                violating: violating as u32,
                jobs_placed: jobs_placed as u32,
            });
        }
        self.intervals += 1;
    }

    /// Captures the full mutable state of the fleet between intervals: every node's
    /// simulator/monitor/policy/actuator, the scheduler queue, the balancer RNG, and
    /// the autoscaler and fault state if configured. Restoring the checkpoint into a
    /// fleet freshly built from the same scenario ([`Self::restore`]) and advancing it
    /// produces output byte-identical to the uninterrupted run (for untraced fleets;
    /// the observability ring is not part of the snapshot, so a resumed traced run
    /// replays only post-resume events).
    pub fn checkpoint(&self) -> ClusterCheckpoint {
        ClusterCheckpoint {
            version: CLUSTER_CHECKPOINT_VERSION,
            scenario_seed: self.scenario.seed,
            nodes: self.population.total_nodes(),
            instances: self.nodes.len(),
            time_s: self.time_s,
            intervals: self.intervals,
            balancer_rng: self.balancer.rng_state(),
            scheduler_queue: self.scheduler.queue_snapshot(),
            scheduler_stats: self.scheduler.stats(),
            autoscaler: self.autoscaler.as_ref().map(|a| a.snapshot()),
            faults: self.faults.as_ref().map(|f| f.snapshot()),
            rack_rng: self.rack_rng.as_ref().map(rng_state_words),
            rack_power_w: (!self.topology.is_flat()).then(|| self.rack_power_w.clone()),
            node_checkpoints: self.nodes.iter().map(ClusterNode::checkpoint).collect(),
        }
    }

    /// Restores a checkpoint taken by [`Self::checkpoint`] into this fleet, which must
    /// have been built from the same scenario (same seed, fleet shape, approximation,
    /// and fault profile — the schedule and instance plan are recompiled from the
    /// scenario, only mutable state travels in the checkpoint).
    ///
    /// # Errors
    ///
    /// Rejects checkpoints from a different format version, a different fleet shape,
    /// or with component states that fail their own validation; the fleet may be left
    /// partially restored on error and must not be advanced further.
    pub fn restore(&mut self, checkpoint: &ClusterCheckpoint) -> Result<(), String> {
        if checkpoint.version != CLUSTER_CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint format version {} (supported: {CLUSTER_CHECKPOINT_VERSION})",
                checkpoint.version
            ));
        }
        if checkpoint.scenario_seed != self.scenario.seed {
            return Err(format!(
                "checkpoint was taken at seed {}, scenario has seed {}",
                checkpoint.scenario_seed, self.scenario.seed
            ));
        }
        if checkpoint.nodes != self.population.total_nodes()
            || checkpoint.instances != self.nodes.len()
            || checkpoint.node_checkpoints.len() != self.nodes.len()
        {
            return Err(format!(
                "checkpoint covers {} nodes / {} instances, fleet has {} / {}",
                checkpoint.nodes,
                checkpoint.node_checkpoints.len(),
                self.population.total_nodes(),
                self.nodes.len()
            ));
        }
        match (&mut self.faults, &checkpoint.faults) {
            (Some(state), Some(snapshot)) => state
                .restore(snapshot)
                .map_err(|e| format!("fault state: {e}"))?,
            (None, None) => {}
            _ => {
                return Err(
                    "checkpoint fault state does not match the scenario's fault profile".into(),
                )
            }
        }
        match (&mut self.autoscaler, &checkpoint.autoscaler) {
            (Some(scaler), Some(snapshot)) => scaler
                .restore(snapshot)
                .map_err(|e| format!("autoscaler: {e}"))?,
            (None, None) => {}
            _ => {
                return Err(
                    "checkpoint autoscaler state does not match the scenario's config".into(),
                )
            }
        }
        match (&mut self.rack_rng, &checkpoint.rack_rng) {
            (Some(rng), Some(words)) => {
                *rng = rng_from_state_words(words).map_err(|e| format!("rack sampler: {e}"))?;
            }
            (None, None) => {}
            _ => {
                return Err(
                    "checkpoint rack-sampling state does not match the scenario's topology".into(),
                )
            }
        }
        match (self.topology.is_flat(), &checkpoint.rack_power_w) {
            (false, Some(power)) => {
                if power.len() != self.rack_power_w.len() {
                    return Err(format!(
                        "checkpoint covers {} racks, topology has {}",
                        power.len(),
                        self.rack_power_w.len()
                    ));
                }
                self.rack_power_w.clone_from(power);
            }
            (true, None) => {}
            _ => {
                return Err(
                    "checkpoint rack-power state does not match the scenario's topology".into(),
                )
            }
        }
        self.balancer
            .restore_rng_state(&checkpoint.balancer_rng)
            .map_err(|e| format!("balancer: {e}"))?;
        self.scheduler = BatchScheduler::restore(
            self.scenario.scheduler,
            checkpoint.scheduler_queue.clone(),
            checkpoint.scheduler_stats,
        );
        for (index, node_checkpoint) in checkpoint.node_checkpoints.iter().enumerate() {
            self.nodes[index]
                .restore(node_checkpoint)
                .map_err(|e| format!("node {index}: {e}"))?;
        }
        self.time_s = checkpoint.time_s;
        self.intervals = checkpoint.intervals;
        // The serving mask is derived from the restored autoscaler and fault state.
        self.update_serving();
        Ok(())
    }
}

/// Format version written into [`ClusterCheckpoint::version`]; bump on any
/// breaking change to the snapshot layout.
pub const CLUSTER_CHECKPOINT_VERSION: u32 = 1;

/// A serializable snapshot of the full mutable state of a [`ClusterSim`] between
/// intervals; see [`ClusterSim::checkpoint`]. Everything derivable from the scenario
/// (the fault schedule, the instance plan, node profiles) is recompiled on restore —
/// the checkpoint carries only mutable state plus shape identifiers used to reject
/// mismatched restores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterCheckpoint {
    /// Snapshot format version ([`CLUSTER_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Seed of the scenario the checkpoint was taken from.
    pub scenario_seed: u64,
    /// Logical fleet size at capture.
    pub nodes: usize,
    /// Simulated instance count at capture.
    pub instances: usize,
    /// Experiment time at capture, in seconds.
    pub time_s: f64,
    /// Decision intervals advanced at capture.
    pub intervals: usize,
    /// Load-balancer RNG state (xoshiro256++ words).
    pub balancer_rng: Vec<u64>,
    /// Queued batch jobs, in submission order.
    pub scheduler_queue: Vec<AppId>,
    /// Scheduler counters at capture.
    pub scheduler_stats: SchedulerStats,
    /// Autoscaler state, when the scenario configures one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub autoscaler: Option<AutoscalerSnapshot>,
    /// Fault-injection state, when the scenario carries a non-empty fault profile.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultStateSnapshot>,
    /// Rack-placement sampling stream (xoshiro256++ words), when the scenario has a
    /// racked topology. Absent on flat fleets, so pre-topology checkpoints round-trip
    /// unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rack_rng: Option<Vec<u64>>,
    /// Per-rack measured power draw over the interval before capture, in watts
    /// (racked topologies only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rack_power_w: Option<Vec<f64>>,
    /// Per-instance node state, in instance order.
    pub node_checkpoints: Vec<NodeCheckpoint>,
}

impl std::fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("nodes", &self.nodes.len())
            .field("time_s", &self.time_s)
            .field("pending_jobs", &self.scheduler.pending())
            .finish_non_exhaustive()
    }
}
