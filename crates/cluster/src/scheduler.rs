//! Fleet-level batch-job scheduling: a queue of approximate jobs placed onto nodes.
//!
//! Every node exposes a fixed number of batch slots (its co-location width). A slot is
//! *free* once its current job has finished; each decision interval the scheduler admits
//! queued jobs into free slots, choosing the node by policy. The placement itself is
//! performed by the cluster simulator through
//! [`ColocationSim::replace_app`](pliant_sim::colocation::ColocationSim::replace_app), so
//! the new job inherits the slot's core state and the per-node Pliant controller keeps
//! its ledger.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::AppId;

use crate::node::NodeSnapshot;

/// Selector for the built-in job-placement policies.
///
/// Serializes as its display name (the same string [`SchedulerKind::name`] returns), so
/// JSON result rows are tagged `"first-fit"`, `"utilization-aware"`, etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Place each job on the lowest-indexed node with a free slot.
    #[serde(rename = "first-fit")]
    FirstFit,
    /// Place each job on the free node whose interactive service is least utilized —
    /// the classic interference-oblivious heuristic.
    #[serde(rename = "utilization-aware")]
    UtilizationAware,
    /// Approximation-aware placement: prefer the free node with the most tail-latency
    /// slack relative to its QoS target. A node with slack can absorb a fresh
    /// (initially precise) co-runner without violating QoS, while a node already near
    /// its target would immediately force the runtime to approximate the newcomer.
    #[serde(rename = "qos-slack")]
    QosSlackAware,
}

impl SchedulerKind {
    /// Every built-in scheduler, in reporting order.
    pub fn all() -> [SchedulerKind; 3] {
        [
            SchedulerKind::FirstFit,
            SchedulerKind::UtilizationAware,
            SchedulerKind::QosSlackAware,
        ]
    }

    /// Short name used in result rows (also the serialized representation).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::FirstFit => "first-fit",
            SchedulerKind::UtilizationAware => "utilization-aware",
            SchedulerKind::QosSlackAware => "qos-slack",
        }
    }

    /// Picks the node to place the next job on, among nodes that currently have at
    /// least one free slot. Returns `None` when no node has capacity. Ties break toward
    /// the lowest node index, keeping every policy fully deterministic.
    pub fn choose(&self, snapshots: &[NodeSnapshot]) -> Option<usize> {
        let candidates = snapshots.iter().filter(|s| s.free_slots > 0);
        match self {
            SchedulerKind::FirstFit => candidates.map(|s| s.index).min(),
            // `total_cmp`, not `partial_cmp(..).expect(..)`: utilizations and slack
            // fractions are finite by construction today, but a NaN introduced by a
            // future model change must degrade to a deterministic placement (NaN sorts
            // as the largest value), not panic the whole fleet step.
            SchedulerKind::UtilizationAware => candidates
                .min_by(|a, b| {
                    a.utilization
                        .total_cmp(&b.utilization)
                        .then(a.index.cmp(&b.index))
                })
                .map(|s| s.index),
            SchedulerKind::QosSlackAware => candidates
                .max_by(|a, b| {
                    a.slack_fraction()
                        .total_cmp(&b.slack_fraction())
                        // On equal slack prefer the *lower* index, so reverse the
                        // index order inside a max_by.
                        .then(b.index.cmp(&a.index))
                })
                .map(|s| s.index),
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Running totals the scheduler accumulates over a cluster run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Jobs handed to the scheduler in total (initial placements plus queue).
    pub submitted: usize,
    /// Jobs placed onto a node so far (including the initial placements).
    pub placed: usize,
    /// Jobs that have run to completion.
    pub completed: usize,
}

/// The fleet-level batch scheduler: a FIFO job queue plus a placement policy.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    kind: SchedulerKind,
    queue: VecDeque<AppId>,
    stats: SchedulerStats,
}

impl BatchScheduler {
    /// Creates a scheduler over the given queued jobs (submission order is preserved;
    /// `initial_placements` jobs are assumed to have been placed onto nodes already and
    /// only counted in the statistics).
    pub fn new(
        kind: SchedulerKind,
        queued: impl IntoIterator<Item = AppId>,
        initial_placements: usize,
    ) -> Self {
        let queue: VecDeque<AppId> = queued.into_iter().collect();
        Self {
            kind,
            stats: SchedulerStats {
                submitted: initial_placements + queue.len(),
                placed: initial_placements,
                completed: 0,
            },
            queue,
        }
    }

    /// The placement policy.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Jobs still waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Records `count` job completions reported by the nodes.
    pub fn record_completions(&mut self, count: usize) {
        self.stats.completed += count;
    }

    /// Returns `weight` logical copies of a job lost on a crashed node to the back of
    /// the queue. The lost placement is uncounted (`placed` decreases by `weight`), so
    /// the stats keep the invariant `submitted = placed + pending` and a later
    /// re-placement counts the job again.
    pub fn requeue(&mut self, app: AppId, weight: usize) {
        for _ in 0..weight {
            self.queue.push_back(app);
        }
        self.stats.placed = self.stats.placed.saturating_sub(weight);
    }

    /// The queued jobs in submission order, for checkpointing.
    pub fn queue_snapshot(&self) -> Vec<AppId> {
        self.queue.iter().copied().collect()
    }

    /// Rebuilds a scheduler from checkpointed queue contents and statistics.
    pub fn restore(kind: SchedulerKind, queue: Vec<AppId>, stats: SchedulerStats) -> Self {
        Self {
            kind,
            queue: queue.into(),
            stats,
        }
    }

    /// The next placement, if the queue is non-empty and the policy finds an instance
    /// with capacity. `snapshots` must reflect current free-slot counts; the caller
    /// performs the placement and calls this again (with updated snapshots) until it
    /// returns `None`.
    ///
    /// The chosen instance stands for `weights[instance]` logical nodes, each of which
    /// would have absorbed one queued job this round, so up to that many jobs are
    /// popped as one batch and the returned `(instance, app, batch)` places the
    /// *first* popped job on the instance at replica weight `batch`. On an exact
    /// fleet every weight is 1 and each call pops one job. The jobs a batch collapses
    /// need not be identical — running the front job as the batch's representative is
    /// part of the clustered approximation (under common random numbers the queue is
    /// a statistically homogeneous mix).
    ///
    /// # Panics
    ///
    /// Panics if the chosen instance's weight is zero.
    pub fn pop_placement_grouped(
        &mut self,
        snapshots: &[NodeSnapshot],
        weights: &[usize],
    ) -> Option<(usize, AppId, usize)> {
        if self.queue.is_empty() {
            return None;
        }
        let node = self.kind.choose(snapshots)?;
        assert!(weights[node] > 0, "instance weights must be positive");
        let batch = weights[node].min(self.queue.len());
        // pliant-lint: allow(panic-hygiene): guarded by the is_empty() early return.
        let app = self.queue.pop_front().expect("queue checked non-empty");
        for _ in 1..batch {
            self.queue.pop_front();
        }
        self.stats.placed += batch;
        Some((node, app, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(index: usize, free: usize, util: f64, p99: f64) -> NodeSnapshot {
        NodeSnapshot {
            index,
            smoothed_p99_s: p99,
            utilization: util,
            free_slots: free,
            qos_target_s: 0.01,
        }
    }

    #[test]
    fn first_fit_takes_the_lowest_free_node() {
        let snaps = [
            snapshot(0, 0, 0.1, 0.001),
            snapshot(1, 1, 0.9, 0.009),
            snapshot(2, 2, 0.1, 0.001),
        ];
        assert_eq!(SchedulerKind::FirstFit.choose(&snaps), Some(1));
    }

    #[test]
    fn utilization_aware_takes_the_idlest_free_node() {
        let snaps = [
            snapshot(0, 1, 0.8, 0.001),
            snapshot(1, 1, 0.2, 0.009),
            snapshot(2, 0, 0.0, 0.000),
        ];
        assert_eq!(SchedulerKind::UtilizationAware.choose(&snaps), Some(1));
    }

    #[test]
    fn qos_slack_aware_takes_the_node_with_most_headroom() {
        let snaps = [
            snapshot(0, 1, 0.2, 0.009), // 10% slack
            snapshot(1, 1, 0.9, 0.002), // 80% slack
            snapshot(2, 1, 0.1, 0.012), // violating
        ];
        assert_eq!(SchedulerKind::QosSlackAware.choose(&snaps), Some(1));
        // Ties break toward the lower index.
        let tied = [snapshot(0, 1, 0.5, 0.004), snapshot(1, 1, 0.5, 0.004)];
        assert_eq!(SchedulerKind::QosSlackAware.choose(&tied), Some(0));
    }

    #[test]
    fn no_capacity_means_no_placement() {
        let snaps = [snapshot(0, 0, 0.2, 0.001), snapshot(1, 0, 0.2, 0.001)];
        for kind in SchedulerKind::all() {
            assert_eq!(kind.choose(&snaps), None);
        }
    }

    #[test]
    fn scheduler_drains_its_queue_and_counts() {
        let mut s = BatchScheduler::new(
            SchedulerKind::FirstFit,
            [AppId::Canneal, AppId::Snp],
            4, // four jobs already placed at cluster construction
        );
        assert_eq!(s.stats().submitted, 6);
        assert_eq!(s.stats().placed, 4);
        assert_eq!(s.pending(), 2);
        let snaps = [snapshot(0, 1, 0.5, 0.001)];
        let unit = [1];
        assert_eq!(
            s.pop_placement_grouped(&snaps, &unit),
            Some((0, AppId::Canneal, 1))
        );
        assert_eq!(
            s.pop_placement_grouped(&[snapshot(0, 0, 0.5, 0.001)], &unit),
            None
        );
        assert_eq!(
            s.pop_placement_grouped(&snaps, &unit),
            Some((0, AppId::Snp, 1))
        );
        assert_eq!(
            s.pop_placement_grouped(&snaps, &unit),
            None,
            "queue exhausted"
        );
        s.record_completions(3);
        assert_eq!(s.stats().placed, 6);
        assert_eq!(s.stats().completed, 3);
    }

    #[test]
    fn grouped_placement_pops_replica_sized_batches() {
        let mut s = BatchScheduler::new(
            SchedulerKind::FirstFit,
            [AppId::Canneal, AppId::Snp, AppId::Raytrace, AppId::Canneal],
            0,
        );
        let snaps = [snapshot(0, 1, 0.5, 0.001), snapshot(1, 1, 0.5, 0.001)];
        // Instance 0 stands for 3 logical nodes: one batch of 3 collapses onto it.
        assert_eq!(
            s.pop_placement_grouped(&snaps, &[3, 2]),
            Some((0, AppId::Canneal, 3))
        );
        assert_eq!(s.stats().placed, 3);
        // The tail batch is clipped to the remaining queue.
        assert_eq!(
            s.pop_placement_grouped(&snaps, &[3, 2]),
            Some((0, AppId::Canneal, 1))
        );
        assert_eq!(s.pop_placement_grouped(&snaps, &[3, 2]), None);
        // Unit weights pop one job at a time.
        let mut unit = BatchScheduler::new(SchedulerKind::FirstFit, [AppId::Snp], 0);
        assert_eq!(
            unit.pop_placement_grouped(&snaps, &[1, 1]),
            Some((0, AppId::Snp, 1))
        );
    }

    #[test]
    fn names_are_stable_and_serializable() {
        for kind in SchedulerKind::all() {
            let json = serde_json::to_string(&kind).expect("serializable");
            assert_eq!(json, format!("\"{}\"", kind.name()));
            let back: SchedulerKind = serde_json::from_str(&json).expect("deserializable");
            assert_eq!(back, kind);
        }
    }
}
