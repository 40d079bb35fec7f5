//! Golden pins for clustered fleets, the mode whose set-up works on groups rather
//! than logical nodes.
//!
//! `tests/fleet_goldens.rs` pins one 12-node clustered fleet. These cases pin the
//! shapes whose construction scales with logical size: the `fleet_hyperscale`
//! family (the day/night energy fleet, `Clustered { 4 }`, one scheduled crash and
//! one straggler) at 10⁴ and 10⁵ logical nodes over a short horizon, and a racked
//! clustered fleet that loses one population group and one rack. Each case pins a
//! 64-bit FNV-1a digest of the serialized outcome and of the full-level event log.
//!
//! The digests are hard-coded and there is no switch to rewrite them: a diff means
//! the clustered plan, the fault carving or the rack layout changed behaviour.

use pliant::prelude::*;
use pliant::telemetry::obs::ObsLevel;
use pliant_bench::cluster_energy_scenario_at_scale;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `fleet_hyperscale` shape at `nodes` logical nodes, shortened to 40 intervals,
/// with the crash and the straggler moved inside that horizon.
fn hyperscale(nodes: usize) -> ClusterScenario {
    let mut s = cluster_energy_scenario_at_scale(nodes, PolicyKind::Pliant, 0x5e70 + nodes as u64);
    s.approximation = FleetApproximation::Clustered {
        representatives_per_group: 4,
    };
    s.horizon = Horizon::Intervals(40);
    s.fault_profile = Some(FaultProfile {
        scheduled: vec![
            ScheduledFault {
                node: nodes / 3 + 1,
                at_interval: 12,
                duration_intervals: 10,
                kind: FaultKind::Crash,
            },
            ScheduledFault {
                node: nodes - 2,
                at_interval: 20,
                duration_intervals: 8,
                kind: FaultKind::Degrade { factor: 0.6 },
            },
        ],
        ..FaultProfile::new()
    });
    s
}

/// A 24-node fleet in four racks of six, clustered two ways, that loses population
/// group 4 (job key 1 in rack 1) and then rack 2.
fn racked_outages() -> ClusterScenario {
    let mut s = cluster_energy_scenario_at_scale(24, PolicyKind::Pliant, 11);
    s.approximation = FleetApproximation::Clustered {
        representatives_per_group: 2,
    };
    s.topology = TopologyConfig::Racks {
        racks: 4,
        nodes_per_rack: 6,
        rack_power_w: Some(700.0),
    };
    s.horizon = Horizon::Intervals(60);
    s.fault_profile = Some(FaultProfile {
        group_outages: vec![GroupOutage {
            group: 4,
            at_interval: 15,
            duration_intervals: 10,
        }],
        rack_outages: vec![RackOutage {
            rack: 2,
            at_interval: 30,
            duration_intervals: 12,
        }],
        ..FaultProfile::new()
    });
    s
}

/// Runs `scenario` traced and returns `(outcome digest, event-log digest)`.
fn digests(scenario: &ClusterScenario) -> (u64, u64) {
    scenario.validate().expect("golden scenarios are valid");
    let (outcome, log) = ClusterRun::with_obs(scenario, &Engine::new(), ObsLevel::Full).finish();
    let json = serde_json::to_string(&outcome).expect("outcomes serialize");
    (
        fnv1a(json.as_bytes()),
        fnv1a(log.to_jsonl_string().as_bytes()),
    )
}

#[test]
fn hyperscale_shape_matches_the_golden_digests() {
    let cases = [
        (10_000, 0xad37_3d5e_e337_48bcu64, 0x87f2_38ec_5b41_a501u64),
        (100_000, 0x1f12_4e57_3d9e_2cda, 0xe73e_f2e2_edc4_1aa5),
    ];
    let got: Vec<(usize, u64, u64)> = cases
        .iter()
        .map(|&(nodes, _, _)| {
            let (outcome, events) = digests(&hyperscale(nodes));
            (nodes, outcome, events)
        })
        .collect();
    assert_eq!(
        got,
        cases,
        "clustered hyperscale fleets drifted: {}",
        got.iter()
            .map(|(n, o, e)| format!("{n}: outcome={o:016x} events={e:016x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

#[test]
fn racked_group_and_rack_outages_match_the_golden_digests() {
    let got = digests(&racked_outages());
    assert_eq!(
        got,
        (0x5d76_b3b4_38e8_0d4e, 0x4a46_e93e_9801_b1a8),
        "racked clustered fleet drifted: outcome={:016x} events={:016x}",
        got.0,
        got.1
    );
}
