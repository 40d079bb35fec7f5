//! Cluster-wide load balancing: splitting offered load across fleet nodes.
//!
//! Once per decision interval the fleet receives a total offered load (expressed in
//! node-saturation units — `1.0` is one node's saturation throughput) and the balancer
//! splits it into per-node offered-load fractions. The split is modelled the way a
//! front-end dispatcher works: the interval's load is divided into small *quanta* of
//! requests and each quantum is routed to one node. All three policies are fully
//! deterministic — [`BalancerKind::PowerOfTwoChoices`] draws its node pairs from a
//! dedicated RNG seeded from the cluster scenario's seed — so serial and parallel
//! cluster runs see the identical per-node load sequence.

use serde::{Deserialize, Serialize};

use pliant_telemetry::rng::seeded_rng;
use pliant_workloads::service::ServiceProfile;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::node::NodeSnapshot;

/// Per-node assignment level the greedy policies treat as a node's capacity: the
/// saturation ceiling the workload generator enforces. Load a node cannot absorb is
/// better spent on any node still under its ceiling.
const MAX_OFFERED_LOAD: f64 = ServiceProfile::MAX_OFFERED_LOAD;

/// Load quanta dispatched per node each interval. Higher values approximate a
/// continuous split more closely; 8 per node keeps the greedy policies responsive while
/// staying cheap.
const QUANTA_PER_NODE: usize = 8;

/// Selector for the built-in load-balancing policies.
///
/// Serializes as its display name (the same string [`BalancerKind::name`] returns), so
/// JSON result rows are tagged `"round-robin"`, `"least-loaded"`, etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BalancerKind {
    /// Deal requests over the nodes in rotation. For an interval's worth of uniform
    /// traffic this is exactly an even split, blind to how the nodes are doing — the
    /// oblivious baseline the adaptive policies are compared against.
    #[serde(rename = "round-robin")]
    RoundRobin,
    /// Route every quantum to the node with the lowest effective load, where a node's
    /// smoothed tail latency (relative to the QoS target) counts as extra load. Nodes
    /// running hot receive less traffic until they recover.
    #[serde(rename = "least-loaded")]
    LeastLoaded,
    /// Sample two nodes per quantum and route to the less loaded of the pair — the
    /// classic O(1) approximation of least-loaded that avoids a full fleet scan.
    #[serde(rename = "p2c")]
    PowerOfTwoChoices,
}

impl BalancerKind {
    /// Every built-in balancer, in reporting order.
    pub fn all() -> [BalancerKind; 3] {
        [
            BalancerKind::RoundRobin,
            BalancerKind::LeastLoaded,
            BalancerKind::PowerOfTwoChoices,
        ]
    }

    /// Short name used in result rows (also the serialized representation).
    pub fn name(&self) -> &'static str {
        match self {
            BalancerKind::RoundRobin => "round-robin",
            BalancerKind::LeastLoaded => "least-loaded",
            BalancerKind::PowerOfTwoChoices => "p2c",
        }
    }

    /// Instantiates the balancer for a fleet of `nodes` nodes. `seed` feeds the
    /// power-of-two-choices sampling stream (ignored by the deterministic policies).
    pub fn build(&self, nodes: usize, seed: u64) -> LoadBalancer {
        LoadBalancer {
            kind: *self,
            nodes,
            rng: seeded_rng(seed),
        }
    }
}

impl std::fmt::Display for BalancerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A stateful load balancer built from a [`BalancerKind`]; see the module docs.
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    kind: BalancerKind,
    nodes: usize,
    /// Sampling stream for power-of-two choices.
    rng: SmallRng,
}

impl LoadBalancer {
    /// The policy this balancer implements.
    pub fn kind(&self) -> BalancerKind {
        self.kind
    }

    /// The sampling RNG's state, for checkpointing (the kind and fleet size are rebuilt
    /// from the scenario; only the power-of-two-choices stream is mutable state).
    pub fn rng_state(&self) -> Vec<u64> {
        pliant_telemetry::rng::rng_state_words(&self.rng)
    }

    /// Restores the sampling RNG to a state captured by [`Self::rng_state`].
    ///
    /// # Errors
    ///
    /// Rejects malformed wire states (wrong width or all-zero).
    pub fn restore_rng_state(&mut self, words: &[u64]) -> Result<(), String> {
        self.rng = pliant_telemetry::rng::rng_from_state_words(words)?;
        Ok(())
    }

    /// Splits `total_load` (node-saturation units) across the fleet's instances for
    /// the coming interval, writing each instance's **per-replica** offered-load
    /// fraction into `out` (`out[i] × weights[i]` summed over active instances equals
    /// `total_load`).
    ///
    /// `weights[i]` is the number of logical nodes instance `i` stands for (1 on an
    /// exact fleet), and `active[i]` marks instances currently serving: inactive ones
    /// (drained, parked, or down) are assigned exactly zero load. `snapshots` carries
    /// each instance's state as of the end of the previous interval; the greedy
    /// policies use it to bias quanta away from struggling nodes. Round-robin hands
    /// every active logical node an even share; the greedy policies dispatch
    /// `QUANTA_PER_NODE × active instances` quanta (instances, not logical nodes, so
    /// dispatch cost scales with what is actually simulated), each quantum routed by
    /// per-replica assigned load plus the tail-latency penalty; power-of-two-choices
    /// samples its pairs weighted by replica count, exactly as if it sampled logical
    /// nodes.
    ///
    /// `out` is a caller-owned scratch buffer (cleared and refilled) so the
    /// per-interval loop stays allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `snapshots`, `weights`, or `active` differ in length from the instance
    /// count the balancer was built for, or if any weight is zero.
    pub fn split_grouped(
        &mut self,
        total_load: f64,
        snapshots: &[NodeSnapshot],
        weights: &[usize],
        active: &[bool],
        out: &mut Vec<f64>,
    ) {
        let n = self.nodes;
        assert_eq!(snapshots.len(), n, "snapshot count must match instances");
        assert_eq!(weights.len(), n, "weight count must match instances");
        assert_eq!(active.len(), n, "active-flag count must match instances");
        out.clear();
        out.resize(n, 0.0);
        let mut active_instances = 0usize;
        let mut active_weight = 0usize;
        for i in 0..n {
            assert!(weights[i] > 0, "instance weights must be positive");
            if active[i] {
                active_instances += 1;
                active_weight += weights[i];
            }
        }
        if total_load <= 0.0 || active_instances == 0 {
            return;
        }
        // Rotating a full interval's worth of quanta over the serving nodes hands each
        // exactly its share, so round-robin needs no quantum loop (and no rotation
        // state): it is the even split, computed directly.
        if self.kind == BalancerKind::RoundRobin {
            let share = total_load / active_weight as f64;
            for i in 0..n {
                if active[i] {
                    out[i] = share;
                }
            }
            return;
        }
        let quanta = QUANTA_PER_NODE * active_instances;
        let quantum = total_load / quanta as f64;
        // A node's tail-latency *excess* over its QoS target counts as load it is
        // already carrying: a node at 1.5x its target must shed traffic even if the
        // dispatcher just assigned it little. Two normalizations keep the feedback loop
        // stable: latency below the target carries no penalty (differences between
        // healthy nodes must not unbalance the split), and the penalty is relative to
        // the least-stressed *serving* node — when the whole fleet is equally hot (e.g.
        // the convergence transient, or an overload no split can fix) shedding from
        // everyone to everyone would only slosh load around, so the split stays even.
        // Computed on the fly to keep the split allocation-free.
        let excess = |s: &NodeSnapshot| {
            if s.qos_target_s > 0.0 {
                (s.smoothed_p99_s / s.qos_target_s - 1.0).max(0.0)
            } else {
                0.0
            }
        };
        let mut floor = f64::INFINITY;
        for i in 0..n {
            if active[i] {
                floor = floor.min(excess(&snapshots[i]));
            }
        }
        match self.kind {
            BalancerKind::RoundRobin => unreachable!("handled above"),
            BalancerKind::LeastLoaded => {
                for _ in 0..quanta {
                    // Prefer serving nodes under the saturation cap; once every one is
                    // at capacity the overload has nowhere better to go and spills onto
                    // the least-loaded serving node. `total_cmp`, not
                    // `partial_cmp(..).expect(..)`: a NaN estimate must degrade to a
                    // deterministic pick (NaN sorts last in a min_by), not panic. The
                    // `out + (excess - floor)` grouping is part of the pinned output.
                    let target = (0..n)
                        .filter(|&i| active[i] && out[i] < MAX_OFFERED_LOAD)
                        .min_by(|&a, &b| {
                            (out[a] + (excess(&snapshots[a]) - floor))
                                .total_cmp(&(out[b] + (excess(&snapshots[b]) - floor)))
                        })
                        .or_else(|| {
                            (0..n)
                                .filter(|&i| active[i])
                                .min_by(|&a, &b| out[a].total_cmp(&out[b]))
                        })
                        // pliant-lint: allow(panic-hygiene): the empty-active case
                        // returned above, so a serving instance always exists.
                        .expect("at least one serving instance");
                    // One quantum of logical load raises the representative's
                    // per-replica load by its replica-diluted share, so the weighted
                    // sum over instances still conserves `total_load`.
                    out[target] += quantum / weights[target] as f64;
                }
            }
            BalancerKind::PowerOfTwoChoices => {
                for _ in 0..quanta {
                    let a = pick_weighted(&mut self.rng, weights, active, active_weight);
                    let b = pick_weighted(&mut self.rng, weights, active, active_weight);
                    // Same capacity rule as least-loaded, restricted to the sampled
                    // pair: a saturated choice loses to an unsaturated one.
                    let a_capped = out[a] >= MAX_OFFERED_LOAD;
                    let b_capped = out[b] >= MAX_OFFERED_LOAD;
                    let target = match (a_capped, b_capped) {
                        (false, true) => a,
                        (true, false) => b,
                        _ => {
                            let pa = out[a] + (excess(&snapshots[a]) - floor);
                            let pb = out[b] + (excess(&snapshots[b]) - floor);
                            if pa <= pb {
                                a
                            } else {
                                b
                            }
                        }
                    };
                    out[target] += quantum / weights[target] as f64;
                }
            }
        }
    }
}

/// Draws one logical node uniformly from the active population (positions
/// `0..active_weight`) and returns the representative instance that owns it: instance
/// `i` owns a contiguous run of `weights[i]` positions. With unit weights this is the
/// uniform pick of the `pos`-th serving node.
fn pick_weighted(
    rng: &mut SmallRng,
    weights: &[usize],
    active: &[bool],
    active_weight: usize,
) -> usize {
    let mut pos = rng.gen_range(0..active_weight);
    for (i, (&w, &a)) in weights.iter().zip(active).enumerate() {
        if !a {
            continue;
        }
        if pos < w {
            return i;
        }
        pos -= w;
    }
    unreachable!("position {pos} is drawn from the summed active weight")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshots(p99s: &[f64]) -> Vec<NodeSnapshot> {
        p99s.iter()
            .enumerate()
            .map(|(i, &p99)| NodeSnapshot {
                index: i,
                smoothed_p99_s: p99,
                utilization: 0.5,
                free_slots: 0,
                qos_target_s: 0.01,
            })
            .collect()
    }

    /// Unit-weight split over the nodes marked `true` in `active`.
    fn unit_split(
        b: &mut LoadBalancer,
        total: f64,
        snaps: &[NodeSnapshot],
        active: &[bool],
    ) -> Vec<f64> {
        let mut out = Vec::new();
        b.split_grouped(total, snaps, &vec![1; snaps.len()], active, &mut out);
        out
    }

    #[test]
    fn round_robin_splits_evenly_regardless_of_latency() {
        let mut b = BalancerKind::RoundRobin.build(4, 1);
        let split = unit_split(&mut b, 2.0, &snapshots(&[0.05, 0.0, 0.0, 0.0]), &[true; 4]);
        for share in &split {
            assert!(
                (share - 0.5).abs() < 1e-12,
                "even split expected: {split:?}"
            );
        }
    }

    #[test]
    fn least_loaded_shifts_load_away_from_hot_nodes() {
        let mut b = BalancerKind::LeastLoaded.build(3, 1);
        // Node 0 is at 3x its QoS target; nodes 1 and 2 are clean.
        let split = unit_split(&mut b, 1.5, &snapshots(&[0.03, 0.0, 0.0]), &[true; 3]);
        assert!(split[0] < split[1]);
        assert!(split[0] < split[2]);
        assert!((split.iter().sum::<f64>() - 1.5).abs() < 1e-9);
        // With a modest overload the hot node still gets *some* traffic once the others
        // have caught up to its penalty.
        let mild = unit_split(&mut b, 9.0, &snapshots(&[0.011, 0.01, 0.01]), &[true; 3]);
        assert!(mild[0] > 0.0);
    }

    #[test]
    fn least_loaded_splits_a_healthy_fleet_evenly() {
        // Latency differences *below* the QoS target carry no penalty: biasing on them
        // would slosh load between healthy nodes and oscillate.
        let mut b = BalancerKind::LeastLoaded.build(4, 1);
        let split = unit_split(
            &mut b,
            2.0,
            &snapshots(&[0.009, 0.002, 0.005, 0.0]),
            &[true; 4],
        );
        for share in &split {
            assert!(
                (share - 0.5).abs() < 1e-12,
                "healthy nodes share load evenly: {split:?}"
            );
        }
    }

    #[test]
    fn p2c_is_deterministic_in_its_seed_and_balances() {
        let p2c = |seed| {
            let mut b = BalancerKind::PowerOfTwoChoices.build(4, seed);
            unit_split(&mut b, 2.0, &snapshots(&[0.0; 4]), &[true; 4])
        };
        let split_a = p2c(9);
        let split_b = p2c(9);
        assert_eq!(split_a, split_b, "same seed, same split");
        let split_c = p2c(10);
        assert_ne!(split_a, split_c, "different seed, different sampling");
        assert!((split_a.iter().sum::<f64>() - 2.0).abs() < 1e-9);
        // No node is starved or doubled-up under uniform conditions.
        for share in &split_a {
            assert!(*share > 0.0 && *share < 1.5);
        }
    }

    #[test]
    fn masked_split_starves_inactive_nodes_and_conserves_load() {
        for kind in BalancerKind::all() {
            let mut b = kind.build(4, 3);
            let split = unit_split(
                &mut b,
                1.5,
                &snapshots(&[0.0; 4]),
                &[true, false, true, false],
            );
            assert_eq!(split[1], 0.0, "{kind}: drained nodes get no traffic");
            assert_eq!(split[3], 0.0, "{kind}: parked nodes get no traffic");
            assert!(split[0] > 0.0 && split[2] > 0.0, "{kind}");
            assert!(
                (split.iter().sum::<f64>() - 1.5).abs() < 1e-9,
                "{kind}: masked splits conserve load"
            );
        }
    }

    #[test]
    fn grouped_split_conserves_replica_weighted_load() {
        for kind in BalancerKind::all() {
            let snaps = snapshots(&[0.012, 0.0, 0.03]);
            let weights = [5usize, 3, 2];
            let mut out = Vec::new();
            let mut b = kind.build(3, 11);
            b.split_grouped(6.0, &snaps, &weights, &[true; 3], &mut out);
            let logical: f64 = out
                .iter()
                .zip(&weights)
                .map(|(load, &w)| load * w as f64)
                .sum();
            assert!(
                (logical - 6.0).abs() < 1e-9,
                "{kind}: weighted sum {logical} must equal the offered total"
            );
            // Draining an instance starves its whole replica block.
            b.split_grouped(6.0, &snaps, &weights, &[true, false, true], &mut out);
            assert_eq!(out[1], 0.0, "{kind}");
            let logical: f64 = out
                .iter()
                .zip(&weights)
                .map(|(load, &w)| load * w as f64)
                .sum();
            assert!((logical - 6.0).abs() < 1e-9, "{kind}");
        }
    }

    #[test]
    fn zero_load_assigns_nothing() {
        for kind in BalancerKind::all() {
            let mut b = kind.build(3, 5);
            assert_eq!(
                unit_split(&mut b, 0.0, &snapshots(&[0.0; 3]), &[true; 3]),
                vec![0.0; 3]
            );
        }
    }

    #[test]
    fn names_are_stable_and_serializable() {
        for kind in BalancerKind::all() {
            let json = serde_json::to_string(&kind).expect("serializable");
            assert_eq!(json, format!("\"{}\"", kind.name()));
            let back: BalancerKind = serde_json::from_str(&json).expect("deserializable");
            assert_eq!(back, kind);
            assert_eq!(kind.to_string(), kind.name());
        }
    }
}
