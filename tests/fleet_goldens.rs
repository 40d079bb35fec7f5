//! Golden pins for the fleet coordinator across every balancer.
//!
//! The figure goldens in `crates/bench/tests/golden` cover round-robin fleets only.
//! This matrix runs {round-robin, least-loaded, p2c} over four Pliant fleets — a
//! faulted flat fleet, a racked fleet with consolidation and a rack outage, and a
//! faulted autoscaled 12-node fleet both exact and clustered — and pins, per case, a
//! 64-bit FNV-1a digest of the serialized outcome and of the full-level event log.
//! Energy and completed jobs are written next to the digests so a diff is readable.
//!
//! An unintentional diff means the fleet loop changed behaviour (FP summation order
//! or RNG draw order); treat it as a regression. To record a deliberate change,
//! regenerate the file with:
//!
//! ```text
//! PLIANT_BLESS_FLEET_GOLDENS=1 cargo test --test fleet_goldens
//! ```

use pliant::prelude::*;
use pliant::telemetry::obs::ObsLevel;
use pliant_bench::{
    cluster_energy_scenario_at_scale, cluster_failure_scenario, cluster_failure_trace,
    cluster_topology_scenario,
};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fleet_goldens.txt"
);

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The four fleets of the matrix, by name, before the balancer is chosen.
fn fleets() -> Vec<(&'static str, ClusterScenario)> {
    let policy = PolicyKind::Pliant;
    let failure =
        cluster_failure_scenario(5, 2.6, policy, 7).expect("5 nodes carry 2.6 node-units");
    let mut energy = cluster_energy_scenario_at_scale(12, policy, 7);
    energy.fault_profile = Some(cluster_failure_trace());
    let mut clustered = energy.clone();
    clustered.approximation = FleetApproximation::Clustered {
        representatives_per_group: 2,
    };
    vec![
        ("failure", failure),
        ("topology", cluster_topology_scenario(policy, true, 7)),
        ("energy12-faulted", energy),
        ("energy12-faulted-clustered", clustered),
    ]
}

/// One golden line per case: traced serially, with the 2-thread untraced outcome
/// checked against the serial one along the way.
fn golden_line(name: &str, scenario: &ClusterScenario) -> String {
    let (outcome, log) = ClusterRun::with_obs(scenario, &Engine::new(), ObsLevel::Full).finish();
    let mut untraced = Engine::new().parallel_threads(2).run_cluster(scenario);
    // Tracing only adds the obs summary; everything else must match byte for byte.
    untraced.obs = outcome.obs.clone();
    let outcome_json = serde_json::to_string(&outcome).expect("outcomes serialize");
    assert_eq!(
        outcome_json,
        serde_json::to_string(&untraced).expect("outcomes serialize"),
        "{name}: the 2-thread untraced run diverged from the serial traced run"
    );
    format!(
        "{name} outcome={:016x} events={:016x} fleet_energy_j={:?} jobs_completed={}",
        fnv1a(outcome_json.as_bytes()),
        fnv1a(log.to_jsonl_string().as_bytes()),
        outcome.fleet_energy_j,
        outcome.scheduler_stats.completed,
    )
}

#[test]
fn fleet_outcomes_and_traces_match_the_golden_matrix() {
    let mut lines = Vec::new();
    for (fleet, base) in fleets() {
        for balancer in BalancerKind::all() {
            let mut scenario = base.clone();
            scenario.balancer = balancer;
            lines.push(golden_line(&format!("{fleet}/{balancer}"), &scenario));
        }
    }
    let fresh = lines.join("\n") + "\n";
    if std::env::var_os("PLIANT_BLESS_FLEET_GOLDENS").is_some() {
        std::fs::write(GOLDEN, &fresh).expect("golden file is writable");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is readable");
    for (fresh, golden) in fresh.lines().zip(golden.lines()) {
        assert_eq!(fresh, golden, "fleet golden drifted (see the module docs)");
    }
    assert_eq!(fresh.lines().count(), golden.lines().count(), "case count");
}
