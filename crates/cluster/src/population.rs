//! The node population: logical nodes grouped by shared per-node state, and the plan
//! that materializes the population into simulated instances.
//!
//! A [`ClusterScenario`] describes `nodes` *logical*
//! nodes. Every per-node input except the initial batch-job slice is scenario-wide
//! (service, policy, QoS target, decision cadence, load share under a symmetric
//! balancer), so the population partitions the fleet into [`NodeGroup`]s keyed by that
//! slice: two logical nodes whose slots start with the same job sequence are
//! interchangeable up to their seeds. [`NodePopulation::plan_instances`] then turns the
//! population plus a [`FleetApproximation`] into an ordered list of [`InstancePlan`]s —
//! one per simulated [`ClusterNode`](crate::node::ClusterNode) — which is the *only*
//! place the exact and clustered modes diverge structurally:
//!
//! - `Exact` plans one weight-1 instance per logical node, in logical-node order, each
//!   seeded as that node. The resulting fleet is byte-identical to the
//!   pre-population-refactor simulator.
//! - `Clustered { representatives_per_group: k }` splits each group's members into at
//!   most `k` near-even contiguous chunks and plans one representative per chunk,
//!   seeded as the chunk's first member (per-replica seed jitter: different
//!   representatives of one group consume different random streams) and weighted by the
//!   chunk size. Raising `k` to the group size degenerates to `Exact` for that group.
//!
//! This is the Parsimon decomposition applied to nodes instead of network links:
//! cluster interchangeable components, simulate one representative per cluster under
//! common random numbers, and aggregate the representative's contribution with replica
//! weights (see README "Hyperscale").

use crate::scenario::{ClusterScenario, FleetApproximation};
use crate::topology::Topology;
use pliant_approx::catalog::AppId;

/// An arithmetic run of logical nodes: `start, start + stride, …`, `len` of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemberRun {
    /// First node of the run.
    pub start: usize,
    /// Distance between consecutive nodes (meaningless, and kept at 1, while `len`
    /// is 1).
    pub stride: usize,
    /// Number of nodes in the run (at least 1).
    pub len: usize,
}

impl MemberRun {
    /// The `k`-th node of the run (`k < len`).
    fn node(&self, k: usize) -> usize {
        self.start + self.stride * k
    }

    /// The node after the last one, were the run one longer.
    fn next(&self) -> usize {
        self.node(self.len)
    }

    /// Position of `node` within the run, if it is a member.
    fn position(&self, node: usize) -> Option<usize> {
        let offset = node.checked_sub(self.start)?;
        let k = offset / self.stride;
        (offset % self.stride == 0 && k < self.len).then_some(k)
    }
}

/// The members of a population group: ascending logical-node indices, stored as
/// arithmetic runs so a periodic job mix costs one run per group whatever the fleet
/// size. Every accessor works on the runs; nothing expands to one entry per node.
#[derive(Debug, Clone, Default)]
pub struct Members {
    runs: Vec<MemberRun>,
    len: usize,
}

impl Members {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The runs, in ascending order of their nodes.
    pub(crate) fn runs(&self) -> &[MemberRun] {
        &self.runs
    }

    /// The `k`-th smallest member, or `None` past the end.
    pub fn nth(&self, mut k: usize) -> Option<usize> {
        for run in &self.runs {
            if k < run.len {
                return Some(run.node(k));
            }
            k -= run.len;
        }
        None
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs
            .iter()
            .flat_map(|r| (0..r.len).map(move |k| r.node(k)))
    }

    /// Whether `node` is a member.
    pub(crate) fn contains(&self, node: usize) -> bool {
        let after = self.runs.partition_point(|r| r.start <= node);
        after > 0 && self.runs[after - 1].position(node).is_some()
    }

    /// Appends `run`, whose nodes must exceed every current member. A run that
    /// continues the last run's stride (or gives a one-node run its stride) extends
    /// that run; any other run is kept as its own.
    fn push(&mut self, run: MemberRun) {
        self.len += run.len;
        if let Some(last) = self.runs.last_mut() {
            debug_assert!(run.start > last.node(last.len - 1), "members ascend");
            let gap = run.start - last.start;
            if last.len == 1 && (run.len == 1 || run.stride == gap) {
                last.stride = gap;
                last.len += run.len;
                return;
            }
            if last.len > 1
                && run.start == last.next()
                && (run.len == 1 || run.stride == last.stride)
            {
                last.len += run.len;
                return;
            }
        }
        self.runs.push(run);
    }

    /// The members that are not in `removed` (ascending), in O(runs + removed).
    fn without(&self, removed: &[usize]) -> Members {
        let mut kept = Members::default();
        let mut removed = removed.iter().copied().peekable();
        for run in &self.runs {
            let last = run.node(run.len - 1);
            let mut from = 0;
            while let Some(node) = removed.next_if(|&n| n <= last) {
                if let Some(k) = run.position(node) {
                    kept.push_piece(run, from, k);
                    from = k + 1;
                }
            }
            kept.push_piece(run, from, run.len);
        }
        kept
    }

    /// Appends the nodes at positions `from..to` of `run` as one run.
    fn push_piece(&mut self, run: &MemberRun, from: usize, to: usize) {
        if from < to {
            self.len += to - from;
            self.runs.push(MemberRun {
                start: run.node(from),
                stride: if to - from == 1 { 1 } else { run.stride },
                len: to - from,
            });
        }
    }
}

/// Two member sets are equal when they hold the same nodes, however the runs split.
impl PartialEq for Members {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Members {}

/// One population group: logical nodes sharing every per-node input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeGroup {
    /// The initial batch-job slice shared by every member (`slots_per_node` jobs).
    pub jobs: Vec<AppId>,
    /// Topology rack every member lives in. Rack identity is part of the group key:
    /// nodes in different power domains are never interchangeable (a rack outage or a
    /// power cap strikes one domain, not the other), so a clustered replica block
    /// never spans racks. On a flat topology every node is in the implicit rack 0 and
    /// the grouping is identical to the pre-topology one.
    pub rack: usize,
    /// Logical-node indices of the members, ascending, as arithmetic runs.
    pub members: Members,
}

impl NodeGroup {
    /// Number of logical nodes in the group.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// One simulated instance the engine materializes: which group it represents, which
/// logical node seeds it, and how many logical nodes it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstancePlan {
    /// Index into [`NodePopulation::groups`] of the group this instance represents.
    pub group: usize,
    /// Logical-node index whose derived seed (and initial jobs) the instance uses.
    pub seed_member: usize,
    /// Number of logical nodes this instance stands for (its replica weight; ≥ 1).
    pub replicas: usize,
}

/// The fleet's logical nodes partitioned into groups of interchangeable members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePopulation {
    groups: Vec<NodeGroup>,
    total_nodes: usize,
}

/// Walks the scenario's logical nodes once, rack by rack, and calls `visit(group,
/// run, rack)` for runs of nodes that share a group; a group's index is the number of
/// distinct keys seen before its first member. Returns the group count. The scan
/// keeps one entry per group (its first member) and nothing per node.
///
/// A rack whose job slices repeat with period `p`, where the first `p` nodes open `p`
/// distinct groups, is confirmed with one comparison of the rack's job list against
/// itself shifted by `p` nodes, and then reported as one run per group. Any other rack
/// is matched node by node.
fn scan_groups(
    scenario: &ClusterScenario,
    topology: &Topology,
    mut visit: impl FnMut(usize, MemberRun, usize),
) -> usize {
    let spn = scenario.slots_per_node;
    let jobs = &scenario.jobs;
    let slice = |node: usize| &jobs[node * spn..(node + 1) * spn];
    let mut first_members: Vec<usize> = Vec::new();
    for (rack_index, rack) in topology.racks().iter().enumerate() {
        // Groups never span racks, so only this rack's groups can match.
        let rack_groups = first_members.len();
        let (start, end) = (rack.members.start, rack.members.end);
        let mut tried_period = false;
        for node in start..end {
            let key = slice(node);
            if !tried_period && node > start && key == slice(start) {
                tried_period = true;
                let period = node - start;
                if first_members.len() - rack_groups == period
                    && jobs[node * spn..end * spn] == jobs[start * spn..(end - period) * spn]
                {
                    for offset in 0..period {
                        let first = node + offset;
                        if first < end {
                            let run = MemberRun {
                                start: first,
                                stride: period,
                                len: (end - first).div_ceil(period),
                            };
                            visit(rack_groups + offset, run, rack_index);
                        }
                    }
                    break;
                }
            }
            let group = match first_members[rack_groups..]
                .iter()
                .position(|&first| slice(first) == key)
            {
                Some(g) => rack_groups + g,
                None => {
                    first_members.push(node);
                    first_members.len() - 1
                }
            };
            let run = MemberRun {
                start: node,
                stride: 1,
                len: 1,
            };
            visit(group, run, rack_index);
        }
    }
    first_members.len()
}

impl NodePopulation {
    /// Partitions the scenario's logical nodes into groups keyed by their initial
    /// batch-job slice *and* their topology rack (two nodes are interchangeable only
    /// when they start the same jobs in the same power domain; see
    /// [`NodeGroup::rack`]). Groups appear in order of their first member, and members
    /// within a group ascend, so the grouping is deterministic in the scenario alone.
    pub fn from_scenario(scenario: &ClusterScenario) -> Self {
        Self::with_topology(
            scenario,
            &Topology::resolve(&scenario.topology, scenario.nodes),
        )
    }

    /// Like [`Self::from_scenario`], on a topology the caller already resolved from
    /// the scenario. One scan over the job list; the result holds one entry per group
    /// and per member run.
    pub(crate) fn with_topology(scenario: &ClusterScenario, topology: &Topology) -> Self {
        let spn = scenario.slots_per_node;
        let mut groups: Vec<NodeGroup> = Vec::new();
        scan_groups(scenario, topology, |group, run, rack| {
            if group == groups.len() {
                groups.push(NodeGroup {
                    jobs: scenario.jobs[run.start * spn..(run.start + 1) * spn].to_vec(),
                    rack,
                    members: Members::default(),
                });
            }
            groups[group].members.push(run);
        });
        NodePopulation {
            groups,
            total_nodes: scenario.nodes,
        }
    }

    /// Number of groups [`Self::from_scenario`] would form, without building them.
    pub fn count_groups(scenario: &ClusterScenario) -> usize {
        let topology = Topology::resolve(&scenario.topology, scenario.nodes);
        scan_groups(scenario, &topology, |_, _, _| {})
    }

    /// The population groups, in order of first member.
    pub fn groups(&self) -> &[NodeGroup] {
        &self.groups
    }

    /// Total logical nodes across all groups (the scenario's `nodes`).
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// Materializes the population into an ordered instance plan under `approximation`.
    ///
    /// `Exact` yields one weight-1 instance per logical node in logical order — the
    /// construction the pre-population simulator performed, preserved so exact runs
    /// stay byte-identical. `Clustered` yields group-major representatives: each
    /// group's member list is split into `min(k, len)` contiguous chunks whose sizes
    /// differ by at most one (the first `len % chunks` chunks get the extra member),
    /// and each chunk is planned as one representative seeded by its first member.
    ///
    /// Replica weights always sum to [`Self::total_nodes`].
    pub fn plan_instances(&self, approximation: &FleetApproximation) -> Vec<InstancePlan> {
        self.plan_instances_isolating_nodes(approximation, &[])
    }

    /// Like [`Self::plan_instances`], but carves the `isolated` logical nodes out of
    /// their replica groups so each is simulated exactly (a weight-1 instance), while
    /// the remaining members keep the clustered chunking. Fault injection uses this:
    /// a node that crashes or degrades stops being interchangeable with its group, so
    /// folding it into a replica block would multiply its failure by the block weight.
    ///
    /// A thin wrapper over [`Self::plan_instances_isolating_nodes`] for callers that
    /// hold a per-node mask.
    ///
    /// # Panics
    ///
    /// Panics if `isolated` is not exactly [`Self::total_nodes`] long.
    pub fn plan_instances_isolating(
        &self,
        approximation: &FleetApproximation,
        isolated: &[bool],
    ) -> Vec<InstancePlan> {
        assert_eq!(
            isolated.len(),
            self.total_nodes,
            "isolation mask must cover every logical node"
        );
        let nodes: Vec<usize> = (0..isolated.len()).filter(|&n| isolated[n]).collect();
        self.plan_instances_isolating_nodes(approximation, &nodes)
    }

    /// The planning core: carves the `isolated` logical nodes (ascending, unique) out
    /// of their replica groups. Its cost grows with groups, member runs and isolated
    /// nodes, not with the logical fleet.
    ///
    /// Under [`FleetApproximation::Exact`] the list is ignored (every node is already
    /// simulated exactly). Within each group the non-isolated chunks come first, then
    /// the isolated members in ascending logical order; replica weights still sum to
    /// [`Self::total_nodes`].
    pub fn plan_instances_isolating_nodes(
        &self,
        approximation: &FleetApproximation,
        isolated: &[usize],
    ) -> Vec<InstancePlan> {
        debug_assert!(
            isolated.windows(2).all(|w| w[0] < w[1]),
            "ascending, unique"
        );
        match approximation {
            FleetApproximation::Exact => {
                let mut plans = Vec::with_capacity(self.total_nodes);
                for (gi, group) in self.groups.iter().enumerate() {
                    plans.extend(group.members.iter().map(|member| InstancePlan {
                        group: gi,
                        seed_member: member,
                        replicas: 1,
                    }));
                }
                // Exact mode must walk nodes in logical order (construction order is
                // part of the byte-identity contract), not group-major order.
                plans.sort_by_key(|p| p.seed_member);
                plans
            }
            FleetApproximation::Clustered {
                representatives_per_group,
            } => {
                let k = (*representatives_per_group).max(1);
                let mut plans = Vec::new();
                let mut carved: Vec<usize> = Vec::new();
                for (gi, group) in self.groups.iter().enumerate() {
                    carved.clear();
                    carved.extend(
                        isolated
                            .iter()
                            .copied()
                            .filter(|&node| group.members.contains(node)),
                    );
                    chunk_group(gi, &group.members.without(&carved), k, &mut plans);
                    plans.extend(carved.iter().map(|&member| InstancePlan {
                        group: gi,
                        seed_member: member,
                        replicas: 1,
                    }));
                }
                plans
            }
        }
    }
}

/// Splits one group's (remaining) members into at most `k` near-even contiguous chunks
/// and appends one representative plan per chunk. No-op for an empty member set. The
/// chunk starts ascend, so one cursor over the runs finds every seed member.
fn chunk_group(group: usize, members: &Members, k: usize, plans: &mut Vec<InstancePlan>) {
    let len = members.len();
    if len == 0 {
        return;
    }
    let chunks = k.min(len);
    let base = len / chunks;
    let extra = len % chunks;
    let runs = members.runs();
    // The run holding position `start`, and the members before it.
    let mut r = 0usize;
    let mut skipped = 0usize;
    let mut start = 0usize;
    for c in 0..chunks {
        let size = base + usize::from(c < extra);
        while start - skipped >= runs[r].len {
            skipped += runs[r].len;
            r += 1;
        }
        plans.push(InstancePlan {
            group,
            seed_member: runs[r].node(start - skipped),
            replicas: size,
        });
        start += size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pliant_workloads::service::ServiceId;

    fn scenario(nodes: usize) -> ClusterScenario {
        // Three-app cyclic mix: nodes i, i+3, i+6, … share a group.
        let mix = [AppId::Canneal, AppId::Snp, AppId::Raytrace];
        ClusterScenario::builder(ServiceId::Memcached)
            .nodes(nodes)
            .jobs((0..nodes).map(|i| mix[i % 3]))
            .horizon_intervals(20)
            .build()
    }

    fn members(pop: &NodePopulation, group: usize) -> Vec<usize> {
        pop.groups()[group].members.iter().collect()
    }

    #[test]
    fn grouping_keys_on_the_initial_job_slice() {
        let pop = NodePopulation::from_scenario(&scenario(7));
        assert_eq!(pop.total_nodes(), 7);
        assert_eq!(pop.groups().len(), 3);
        assert_eq!(members(&pop, 0), vec![0, 3, 6]);
        assert_eq!(members(&pop, 1), vec![1, 4]);
        assert_eq!(members(&pop, 2), vec![2, 5]);
        assert_eq!(pop.groups()[0].jobs, vec![AppId::Canneal]);
        assert!(pop.groups().iter().all(|g| g.rack == 0), "flat = one rack");
    }

    #[test]
    fn grouping_never_pools_nodes_across_power_domains() {
        // Same cyclic job mix, but a 2x3 rack grid: nodes 0..3 and 3..6 live in
        // different power domains, so e.g. nodes 0 and 3 (same job slice) must land in
        // different groups — a replica block must never span racks.
        let mix = [AppId::Canneal, AppId::Snp, AppId::Raytrace];
        let racked = ClusterScenario::builder(ServiceId::Memcached)
            .nodes(6)
            .jobs((0..6).map(|i| mix[i % 3]))
            .topology(crate::topology::TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 3,
                rack_power_w: None,
            })
            .horizon_intervals(20)
            .build();
        let pop = NodePopulation::from_scenario(&racked);
        assert_eq!(pop.groups().len(), 6, "3 job keys x 2 racks");
        for group in pop.groups() {
            let topology = Topology::resolve(&racked.topology, racked.nodes);
            assert!(group
                .members
                .iter()
                .all(|m| topology.rack_of(m) == group.rack));
        }
        // Replica weights still conserve the fleet, and every clustered instance
        // inherits its group's single rack.
        let plans = pop.plan_instances(&FleetApproximation::Clustered {
            representatives_per_group: 2,
        });
        assert_eq!(plans.iter().map(|p| p.replicas).sum::<usize>(), 6);
    }

    #[test]
    fn exact_plans_one_weight_one_instance_per_node_in_logical_order() {
        let pop = NodePopulation::from_scenario(&scenario(7));
        let plans = pop.plan_instances(&FleetApproximation::Exact);
        assert_eq!(plans.len(), 7);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.seed_member, i);
            assert_eq!(p.replicas, 1);
        }
    }

    #[test]
    fn clustered_plans_chunked_representatives_with_conserved_weight() {
        let pop = NodePopulation::from_scenario(&scenario(12));
        // 12 nodes / 3 groups of 4; two representatives per group → chunks of 2.
        let plans = pop.plan_instances(&FleetApproximation::Clustered {
            representatives_per_group: 2,
        });
        assert_eq!(plans.len(), 6);
        assert_eq!(plans.iter().map(|p| p.replicas).sum::<usize>(), 12);
        assert_eq!(plans[0].seed_member, 0); // group 0 = members [0,3,6,9]
        assert_eq!(plans[0].replicas, 2);
        assert_eq!(plans[1].seed_member, 6);
        // Uneven split: 3 members over 2 representatives → sizes 2 and 1.
        let pop = NodePopulation::from_scenario(&scenario(7));
        let plans = pop.plan_instances(&FleetApproximation::Clustered {
            representatives_per_group: 2,
        });
        assert_eq!(plans.iter().map(|p| p.replicas).sum::<usize>(), 7);
        assert_eq!(plans[0].replicas, 2); // group 0 has 3 members → 2 + 1
        assert_eq!(plans[1].replicas, 1);
        assert_eq!(plans[1].seed_member, 6);
    }

    #[test]
    fn isolating_plans_split_faulted_members_out_of_their_groups() {
        let pop = NodePopulation::from_scenario(&scenario(12));
        // Isolate nodes 3 (group 0) and 4 (group 1).
        let mut isolated = vec![false; 12];
        isolated[3] = true;
        isolated[4] = true;
        let approx = FleetApproximation::Clustered {
            representatives_per_group: 2,
        };
        let plans = pop.plan_instances_isolating(&approx, &isolated);
        // Weight is conserved and the isolated nodes are weight-1 seeds.
        assert_eq!(plans.iter().map(|p| p.replicas).sum::<usize>(), 12);
        for &node in &[3usize, 4] {
            assert!(
                plans
                    .iter()
                    .any(|p| p.seed_member == node && p.replicas == 1),
                "node {node} must be simulated exactly: {plans:?}"
            );
        }
        // Group 0 = [0,3,6,9]: pooled [0,6,9] chunks into 2+1, then isolated 3.
        let g0: Vec<_> = plans.iter().filter(|p| p.group == 0).collect();
        assert_eq!(g0.len(), 3);
        assert_eq!((g0[0].seed_member, g0[0].replicas), (0, 2));
        assert_eq!((g0[1].seed_member, g0[1].replicas), (9, 1));
        assert_eq!((g0[2].seed_member, g0[2].replicas), (3, 1));
        // With nothing isolated the plan is exactly the plain clustered plan.
        let none = vec![false; 12];
        assert_eq!(
            pop.plan_instances_isolating(&approx, &none),
            pop.plan_instances(&approx)
        );
        // Exact mode ignores the mask entirely.
        assert_eq!(
            pop.plan_instances_isolating(&FleetApproximation::Exact, &isolated),
            pop.plan_instances(&FleetApproximation::Exact)
        );
    }

    #[test]
    fn enough_representatives_degenerate_to_exact() {
        let pop = NodePopulation::from_scenario(&scenario(7));
        let clustered = pop.plan_instances(&FleetApproximation::Clustered {
            representatives_per_group: 100,
        });
        let mut exact = pop.plan_instances(&FleetApproximation::Exact);
        // Clustered plans are group-major; compare as sets of (seed, weight).
        exact.sort_by_key(|p| (p.group, p.seed_member));
        assert_eq!(clustered, exact);
    }

    #[test]
    fn a_periodic_mix_keeps_one_run_per_group() {
        let pop = NodePopulation::from_scenario(&scenario(100_000));
        assert_eq!(NodePopulation::count_groups(&scenario(100_000)), 3);
        for (g, group) in pop.groups().iter().enumerate() {
            assert_eq!(group.members.runs().len(), 1);
            assert_eq!(group.members.runs()[0].start, g);
            assert_eq!(group.members.runs()[0].stride, 3);
            assert_eq!(group.members.nth(2), Some(g + 6));
            assert!(group.members.contains(g + 3 * 1000));
            assert!(!group.members.contains(g + 1));
        }
        assert_eq!(pop.groups()[0].len(), 33_334);
    }

    #[test]
    fn pushed_runs_merge_only_when_the_stride_continues() {
        let run = |start, stride, len| MemberRun { start, stride, len };
        let mut set = Members::default();
        set.push(run(0, 1, 1));
        set.push(run(3, 3, 2));
        set.push(run(9, 1, 2));
        set.push(run(11, 1, 1));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 3, 6, 9, 10, 11]);
        assert_eq!(set.runs(), &[run(0, 3, 3), run(9, 1, 3)]);
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn removing_members_splits_runs_without_expanding_them() {
        let mut set = Members::default();
        for node in [0, 3, 6, 9, 12, 13, 20] {
            set.push(MemberRun {
                start: node,
                stride: 1,
                len: 1,
            });
        }
        assert_eq!(set.runs().len(), 2, "{set:?}");
        let kept = set.without(&[3, 12, 20]);
        assert_eq!(kept.iter().collect::<Vec<_>>(), vec![0, 6, 9, 13]);
        assert_eq!(kept.len(), 4);
        assert_eq!(kept.nth(1), Some(6));
        assert_eq!(kept.nth(4), None);
        assert!(set.without(&[]) == set);
    }
}
