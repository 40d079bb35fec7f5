//! Reference equivalence for clustered fleet set-up.
//!
//! The population, the topology and the fault instance map are built from groups,
//! member runs and rack ranges, with nothing stored per logical node. This file keeps
//! the straightforward per-node construction they replaced — a group list with one
//! entry per member, a node → rack vector, a per-node isolation mask and a per-node
//! instance table — and checks that the library produces the same groups, plans,
//! rack layout and instance lookups on seeded random scenarios: irregular job
//! lists, periodic ones (including node templates that hold one slice twice, and
//! periodic lists with a few jobs changed), 1–3 slots per node, flat and racked
//! fleets, 1–5 representatives per group, and random isolated node sets.

use pliant::cluster::{InstanceIndex, InstancePlan};
use pliant::prelude::*;
use pliant::telemetry::rng::{derive_seed, seeded_rng};
use rand::Rng;

/// One reference group: job slice, rack, and every member listed.
#[derive(Debug, PartialEq)]
struct RefGroup {
    jobs: Vec<AppId>,
    rack: usize,
    members: Vec<usize>,
}

/// Node → rack, one entry per logical node.
fn reference_rack_of(config: &TopologyConfig, nodes: usize) -> Vec<usize> {
    match config {
        TopologyConfig::Flat => vec![0; nodes],
        TopologyConfig::Racks { nodes_per_rack, .. } => {
            (0..nodes).map(|i| i / nodes_per_rack).collect()
        }
    }
}

/// Members of every rack, listed.
fn reference_rack_members(config: &TopologyConfig, nodes: usize) -> Vec<Vec<usize>> {
    let rack_of = reference_rack_of(config, nodes);
    let mut racks = vec![Vec::new(); config.rack_count()];
    for (node, &rack) in rack_of.iter().enumerate() {
        racks[rack].push(node);
    }
    racks
}

/// Groups in order of first member, found by comparing every node with every group.
fn reference_groups(scenario: &ClusterScenario) -> Vec<RefGroup> {
    let rack_of = reference_rack_of(&scenario.topology, scenario.nodes);
    let spn = scenario.slots_per_node;
    let mut groups: Vec<RefGroup> = Vec::new();
    for (index, &rack) in rack_of.iter().enumerate() {
        let slice = &scenario.jobs[index * spn..(index + 1) * spn];
        match groups
            .iter_mut()
            .find(|g| g.jobs == slice && g.rack == rack)
        {
            Some(group) => group.members.push(index),
            None => groups.push(RefGroup {
                jobs: slice.to_vec(),
                rack,
                members: vec![index],
            }),
        }
    }
    groups
}

fn reference_chunks(group: usize, members: &[usize], k: usize, plans: &mut Vec<InstancePlan>) {
    let len = members.len();
    if len == 0 {
        return;
    }
    let chunks = k.min(len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut start = 0usize;
    for c in 0..chunks {
        let size = base + usize::from(c < extra);
        plans.push(InstancePlan {
            group,
            seed_member: members[start],
            replicas: size,
        });
        start += size;
    }
}

/// The plan with the `isolated` nodes carved out, from a per-node mask.
fn reference_plan(
    groups: &[RefGroup],
    approximation: &FleetApproximation,
    isolated: &[bool],
) -> Vec<InstancePlan> {
    match approximation {
        FleetApproximation::Exact => {
            let mut plans = Vec::new();
            for (gi, group) in groups.iter().enumerate() {
                for &member in &group.members {
                    plans.push(InstancePlan {
                        group: gi,
                        seed_member: member,
                        replicas: 1,
                    });
                }
            }
            plans.sort_by_key(|p| p.seed_member);
            plans
        }
        FleetApproximation::Clustered {
            representatives_per_group,
        } => {
            let k = (*representatives_per_group).max(1);
            let mut plans = Vec::new();
            for (gi, group) in groups.iter().enumerate() {
                let pooled: Vec<usize> = group
                    .members
                    .iter()
                    .copied()
                    .filter(|&m| !isolated[m])
                    .collect();
                reference_chunks(gi, &pooled, k, &mut plans);
                for &member in group.members.iter().filter(|&&m| isolated[m]) {
                    plans.push(InstancePlan {
                        group: gi,
                        seed_member: member,
                        replicas: 1,
                    });
                }
            }
            plans
        }
    }
}

/// Logical node → weight-1 instance, one entry per logical node.
fn reference_instance_of(plans: &[InstancePlan], nodes: usize) -> Vec<Option<usize>> {
    let mut instance_of = vec![None; nodes];
    for (index, plan) in plans.iter().enumerate() {
        if plan.replicas == 1 {
            instance_of[plan.seed_member] = Some(index);
        }
    }
    instance_of
}

/// A random scenario of the kinds listed in the module docs.
fn random_scenario(rng: &mut impl Rng) -> ClusterScenario {
    let apps = AppId::all();
    let spn = rng.gen_range(1usize..4);
    let racked = rng.gen::<bool>();
    let (nodes, topology) = if racked {
        let racks = rng.gen_range(1usize..6);
        let per_rack = rng.gen_range(1usize..40);
        (
            racks * per_rack,
            TopologyConfig::Racks {
                racks,
                nodes_per_rack: per_rack,
                rack_power_w: None,
            },
        )
    } else {
        (rng.gen_range(1usize..240), TopologyConfig::Flat)
    };
    let slots = nodes * spn;
    let alphabet = rng.gen_range(1usize..5);
    let jobs: Vec<AppId> = match rng.gen_range(0u32..4) {
        // Irregular: independent draws from a small alphabet.
        0 => (0..slots)
            .map(|_| apps[rng.gen_range(0..alphabet)])
            .collect(),
        // Periodic over the job list.
        1 => {
            let period = rng.gen_range(1usize..8);
            (0..slots)
                .map(|i| apps[(i % period) % apps.len()])
                .collect()
        }
        // Node slices repeating a random template, which may hold a slice twice.
        2 => {
            let template: Vec<AppId> = (0..rng.gen_range(1usize..7) * spn)
                .map(|_| apps[rng.gen_range(0..alphabet)])
                .collect();
            (0..slots).map(|i| template[i % template.len()]).collect()
        }
        // Periodic with a few jobs changed.
        _ => {
            let period = rng.gen_range(1usize..8);
            let mut jobs: Vec<AppId> = (0..slots).map(|i| apps[i % period]).collect();
            for _ in 0..rng.gen_range(1usize..4) {
                let at = rng.gen_range(0..slots);
                jobs[at] = apps[rng.gen_range(0..apps.len())];
            }
            jobs
        }
    };
    ClusterScenario::builder(ServiceId::Memcached)
        .nodes(nodes)
        .slots_per_node(spn)
        .jobs(jobs)
        .topology(topology)
        .horizon_intervals(10)
        .build()
}

#[test]
fn grouping_planning_racks_and_instance_lookups_match_the_per_node_reference() {
    for case in 0..400u64 {
        let mut rng = seeded_rng(derive_seed(0x9e0_0001, case));
        let scenario = random_scenario(&mut rng);
        let nodes = scenario.nodes;
        let context = format!(
            "case {case}: {nodes} nodes x {} slots, {:?}",
            scenario.slots_per_node, scenario.topology
        );

        // Racks: ranges and arithmetic rack_of against the per-node lists.
        let topology = Topology::resolve(&scenario.topology, nodes);
        let rack_of = reference_rack_of(&scenario.topology, nodes);
        assert!(
            (0..nodes).all(|n| topology.rack_of(n) == rack_of[n]),
            "rack_of: {context}"
        );
        let racks: Vec<Vec<usize>> = topology
            .racks()
            .iter()
            .map(|r| r.members.clone().collect())
            .collect();
        assert_eq!(
            racks,
            reference_rack_members(&scenario.topology, nodes),
            "rack members: {context}"
        );

        // Groups: key, rack and expanded members.
        let reference = reference_groups(&scenario);
        let population = NodePopulation::from_scenario(&scenario);
        let groups: Vec<RefGroup> = population
            .groups()
            .iter()
            .map(|g| RefGroup {
                jobs: g.jobs.clone(),
                rack: g.rack,
                members: g.members.iter().collect(),
            })
            .collect();
        assert_eq!(groups, reference, "groups: {context}");
        assert_eq!(
            NodePopulation::count_groups(&scenario),
            reference.len(),
            "group count: {context}"
        );
        for (group, expected) in population.groups().iter().zip(&reference) {
            assert_eq!(group.len(), expected.members.len(), "{context}");
            for (k, &member) in expected.members.iter().enumerate() {
                assert_eq!(group.members.nth(k), Some(member), "nth: {context}");
            }
            assert_eq!(group.members.nth(expected.members.len()), None, "{context}");
        }

        // Plans, plain and with a random isolated set, and the instance lookups.
        let isolated_share = rng.gen_range(0u32..4);
        let mask: Vec<bool> = (0..nodes)
            .map(|_| rng.gen_range(0u32..10) < isolated_share)
            .collect();
        let isolated: Vec<usize> = (0..nodes).filter(|&n| mask[n]).collect();
        let none = vec![false; nodes];
        let k = rng.gen_range(1usize..6);
        for approximation in [
            FleetApproximation::Exact,
            FleetApproximation::Clustered {
                representatives_per_group: k,
            },
        ] {
            let plain = population.plan_instances(&approximation);
            assert_eq!(
                plain,
                reference_plan(&reference, &approximation, &none),
                "plan_instances {approximation:?}: {context}"
            );
            let expected = reference_plan(&reference, &approximation, &mask);
            let carved = population.plan_instances_isolating(&approximation, &mask);
            assert_eq!(
                carved, expected,
                "plan_instances_isolating {approximation:?}: {context}"
            );
            assert_eq!(
                population.plan_instances_isolating_nodes(&approximation, &isolated),
                expected,
                "plan_instances_isolating_nodes {approximation:?}: {context}"
            );
            let index = InstanceIndex::new(&carved);
            let table = reference_instance_of(&carved, nodes);
            for (node, &expected) in table.iter().enumerate() {
                assert_eq!(index.get(node), expected, "instance_of({node}): {context}");
            }
            assert_eq!(index.get(nodes), None, "{context}");
        }
    }
}
