//! The cluster-scenario archive boundary: a hostile or corrupted archive must come
//! back as an `Err`, never as a panic and never as a scenario that cannot run.
//!
//! The fuzz property draws the size-like fields of `ClusterScenario` and
//! `TopologyConfig` (`nodes`, `slots_per_node`, the rack grid) and the fault targets
//! that index into them (scheduled node, group outage, rack outage) from a mix of
//! small values and values at the edge of `usize`, then checks that validation and
//! the JSON round trip agree and that every accepted scenario resolves into a
//! population and a plan covering exactly its logical nodes.

use pliant::prelude::*;
use pliant::runtime::scenario::MAX_HORIZON_INTERVALS;
use pliant::telemetry::rng::seeded_rng;
use proptest::prelude::*;
use rand::Rng;

/// A valid six-node, two-slot fleet with twelve jobs.
fn base() -> ClusterScenario {
    let mix = [AppId::Canneal, AppId::Snp, AppId::Raytrace];
    ClusterScenario::builder(ServiceId::Memcached)
        .nodes(6)
        .slots_per_node(2)
        .jobs((0..12).map(|i| mix[i % 3]))
        .horizon_intervals(20)
        .build()
}

#[test]
fn an_archive_whose_slot_count_overflows_is_rejected() {
    let mut scenario = base();
    scenario.nodes = 1 << 63;
    // 2^63 nodes x 2 slots wraps to 0 slots to fill, which 12 jobs "cover".
    assert_eq!(
        scenario.validate(),
        Err(ClusterScenarioError::SlotCountOverflow {
            nodes: 1 << 63,
            slots_per_node: 2,
        })
    );
    let json = serde_json::to_string(&base())
        .expect("scenarios serialize")
        .replace("\"nodes\":6", "\"nodes\":9223372036854775808");
    assert!(
        json.contains("9223372036854775808"),
        "the archive was edited"
    );
    let err = serde_json::from_str::<ClusterScenario>(&json)
        .expect_err("an overflowing fleet must not deserialize");
    assert!(err.to_string().contains("overflow"), "{err}");
}

/// Swaps the serialized `from` horizon in `json` for `to`, checking that it was there.
fn with_horizon(json: &str, from: Horizon, to: Horizon) -> String {
    let from = serde_json::to_string(&from).expect("horizons serialize");
    let to = serde_json::to_string(&to).expect("horizons serialize");
    assert!(json.contains(&from), "{json} carries no {from}");
    json.replace(&from, &to)
}

#[test]
fn a_cluster_horizon_past_the_interval_bound_is_rejected() {
    let mut scenario = base();
    scenario.horizon = Horizon::Seconds(1e300);
    // 1e300 s saturates `max_intervals` at usize::MAX; a run would then reserve its
    // per-interval series for that many intervals and panic.
    assert_eq!(
        scenario.validate(),
        Err(ClusterScenarioError::HorizonTooLong {
            intervals: usize::MAX
        })
    );
    scenario.horizon = Horizon::Intervals(MAX_HORIZON_INTERVALS + 1);
    assert_eq!(
        scenario.validate(),
        Err(ClusterScenarioError::HorizonTooLong {
            intervals: MAX_HORIZON_INTERVALS + 1
        })
    );
    scenario.horizon = Horizon::Intervals(MAX_HORIZON_INTERVALS);
    assert_eq!(scenario.validate(), Ok(()));
    let built = ClusterScenario::builder(ServiceId::Memcached)
        .nodes(6)
        .slots_per_node(2)
        .jobs((0..12).map(|_| AppId::Canneal))
        .horizon_seconds(1e12)
        .try_build();
    assert!(
        matches!(built, Err(ClusterScenarioError::HorizonTooLong { .. })),
        "{built:?}"
    );
    let mut short = base();
    short.horizon = Horizon::Seconds(30.0);
    let json = serde_json::to_string(&short).expect("scenarios serialize");
    let json = with_horizon(&json, Horizon::Seconds(30.0), Horizon::Seconds(1e300));
    let err = serde_json::from_str::<ClusterScenario>(&json)
        .expect_err("an unbounded horizon must not deserialize");
    assert!(err.to_string().contains("exceeds the maximum"), "{err}");
}

#[test]
fn a_single_node_horizon_past_the_interval_bound_is_rejected() {
    let builder = || Scenario::builder(ServiceId::Memcached).app(AppId::Canneal);
    let built = builder().horizon_seconds(1e300).try_build();
    assert_eq!(
        built,
        Err(ScenarioError::HorizonTooLong {
            intervals: usize::MAX
        })
    );
    let built = builder()
        .horizon_intervals(MAX_HORIZON_INTERVALS + 1)
        .try_build();
    assert_eq!(
        built,
        Err(ScenarioError::HorizonTooLong {
            intervals: MAX_HORIZON_INTERVALS + 1
        })
    );
    assert!(builder()
        .horizon_intervals(MAX_HORIZON_INTERVALS)
        .try_build()
        .is_ok());
    let json = serde_json::to_string(&builder().horizon_seconds(30.0).build())
        .expect("scenarios serialize");
    let json = with_horizon(&json, Horizon::Seconds(30.0), Horizon::Seconds(1e300));
    let err = serde_json::from_str::<Scenario>(&json)
        .expect_err("an unbounded horizon must not deserialize");
    assert!(err.to_string().contains("exceeds the maximum"), "{err}");
}

/// Maps a raw draw onto a size-like value: mostly small, else at or near a `usize`
/// edge.
fn edgy(raw: u64) -> usize {
    let small = (raw >> 8) as usize % 6;
    match raw % 12 {
        0..=6 => small,
        7 => 1 << (small + 58),
        8 => usize::MAX - small,
        9 => usize::MAX / (small + 2) + 1,
        10 => (1usize << 63) + small,
        _ => (raw >> 4) as usize,
    }
}

/// One scenario with hostile size-like fields and fault targets drawn from `rng`.
/// Each fault target is present half the time, so that some draws are valid.
fn hostile(rng: &mut impl Rng) -> ClusterScenario {
    let mix = [AppId::Canneal, AppId::Snp, AppId::Raytrace, AppId::Bayesian];
    let mut scenario = base();
    scenario.nodes = edgy(rng.gen());
    scenario.slots_per_node = edgy(rng.gen());
    let job_count = rng.gen_range(0usize..80);
    scenario.jobs = (0..job_count).map(|i| mix[(i * 7 / 3) % 4]).collect();
    let per_rack = edgy(rng.gen());
    scenario.topology = match rng.gen_range(0u32..3) {
        0 => TopologyConfig::Flat,
        1 => TopologyConfig::Racks {
            racks: edgy(rng.gen()),
            nodes_per_rack: per_rack,
            rack_power_w: None,
        },
        // A grid that covers the fleet whenever the fleet divides evenly.
        _ => TopologyConfig::Racks {
            racks: scenario.nodes / per_rack.max(1),
            nodes_per_rack: per_rack.max(1),
            rack_power_w: Some(900.0),
        },
    };
    let mut profile = FaultProfile::new();
    if rng.gen::<bool>() {
        profile.scheduled.push(ScheduledFault {
            node: edgy(rng.gen()),
            at_interval: 3,
            duration_intervals: 2,
            kind: FaultKind::Crash,
        });
    }
    if rng.gen::<bool>() {
        profile.group_outages.push(GroupOutage {
            group: edgy(rng.gen()),
            at_interval: 4,
            duration_intervals: 2,
        });
    }
    if rng.gen::<bool>() {
        profile.rack_outages.push(RackOutage {
            rack: edgy(rng.gen()),
            at_interval: 5,
            duration_intervals: 2,
        });
    }
    scenario.fault_profile = Some(profile);
    scenario
}

proptest! {
    #[test]
    fn hostile_numeric_fields_are_rejected_or_valid(seed in any::<u64>()) {
        let mut rng = seeded_rng(seed);
        let mut valid = 0;
        for _ in 0..256 {
            let scenario = hostile(&mut rng);
            let verdict = scenario.validate();
            let json = serde_json::to_string(&scenario).expect("scenarios serialize");
            let decoded = serde_json::from_str::<ClusterScenario>(&json);
            prop_assert_eq!(verdict.is_ok(), decoded.is_ok());
            if verdict.is_err() {
                continue;
            }
            valid += 1;
            prop_assert!(scenario.nodes * scenario.slots_per_node <= scenario.jobs.len());
            let population = NodePopulation::from_scenario(&scenario);
            let profile = scenario.fault_profile.as_ref().expect("set above");
            for outage in &profile.group_outages {
                prop_assert!(outage.group < population.groups().len());
            }
            for outage in &profile.rack_outages {
                prop_assert!(outage.rack < scenario.topology.rack_count());
            }
            for fault in &profile.scheduled {
                prop_assert!(fault.node < scenario.nodes);
            }
            let plans = population.plan_instances(&FleetApproximation::Clustered {
                representatives_per_group: 2,
            });
            prop_assert_eq!(plans.iter().map(|p| p.replicas).sum::<usize>(), scenario.nodes);
            prop_assert_eq!(decoded.expect("agrees with validate"), scenario);
        }
        prop_assert!(valid > 0, "no draw of this case was valid");
    }
}
