//! Integration tests for fault injection and checkpoint/restore.
//!
//! These pin the PR's promises:
//!
//! 1. **Checkpoint round-trip**: stopping a fleet run mid-flight, serializing the
//!    checkpoint through JSON, restoring it into a freshly built run, and finishing
//!    yields a byte-identical outcome to never having stopped — in exact and
//!    clustered modes, under serial and parallel execution, with faults in flight
//!    at the snapshot instant.
//! 2. **The failure headline**: under the fixed `fig_failure` fault trace (one node
//!    crash whose batch job is re-queued, then a degraded-frequency straggler),
//!    Pliant sees no more QoS-violating intervals than Precise at every fleet size.
//! 3. **Clustered fault semantics**: a fault aimed at a replicated node group splits
//!    the target out of its group (instance count grows) while the fleet totals stay
//!    within the same error bounds the hyperscale tests enforce fault-free.
//! 4. **Observability**: fault transitions surface as first-class obs events.

use pliant::prelude::*;
use pliant::telemetry::obs::{EventKind, ObsLevel};

/// Same relative-error bounds the fault-free hyperscale tests enforce
/// (see `tests/hyperscale.rs`).
const P99_REL_BOUND: f64 = 0.10;
const ENERGY_REL_BOUND: f64 = 0.05;
const VIOLATION_ABS_BOUND: f64 = 0.05;

fn rel_err(approx: f64, exact: f64) -> f64 {
    (approx - exact).abs() / exact.abs().max(f64::MIN_POSITIVE)
}

/// The `fig_failure` operating point: one mid-run crash (node 1, intervals 30..50,
/// job re-queued) and one straggler (node 2 at 0.6x frequency, intervals 60..75).
fn failure_scenario(nodes: usize, policy: PolicyKind) -> ClusterScenario {
    pliant_bench::cluster_failure_scenario(nodes, 2.6, policy, 7)
        .expect("swept sizes stay below saturation")
}

fn outcome_json(outcome: &ClusterOutcome) -> String {
    serde_json::to_string(outcome).expect("outcomes are serializable")
}

#[test]
fn checkpoint_roundtrip_is_byte_identical_in_every_mode() {
    // Snapshot at interval 40: node 1 is mid-outage (down since 30, back at 50), its
    // job is sitting re-queued, and the straggler window is still ahead — the
    // checkpoint must carry fault health, scheduler queue, and RNG streams for the
    // resumed run to land on the same bytes.
    for approximation in [
        FleetApproximation::Exact,
        FleetApproximation::Clustered {
            representatives_per_group: 2,
        },
    ] {
        for parallel in [false, true] {
            let engine = if parallel {
                Engine::new().parallel()
            } else {
                Engine::new()
            };
            let mut scenario = failure_scenario(6, PolicyKind::Pliant);
            scenario.approximation = approximation;

            let (uninterrupted, _) = ClusterRun::new(&scenario, &engine).finish();

            let mut first_leg = ClusterRun::new(&scenario, &engine);
            while first_leg.intervals() < 40 && first_leg.step() {}
            // Serialize through JSON exactly like the fig_cluster CLI does, so the
            // on-disk format is what round-trips.
            let wire = serde_json::to_string(&first_leg.checkpoint())
                .expect("checkpoints are serializable");
            let checkpoint: ClusterRunCheckpoint =
                serde_json::from_str(&wire).expect("checkpoints round-trip through JSON");

            let mut resumed = ClusterRun::new(&scenario, &engine);
            resumed.restore(&checkpoint).expect("restore succeeds");
            assert_eq!(resumed.intervals(), 40, "resume picks up at the snapshot");
            let (resumed_outcome, _) = resumed.finish();

            assert_eq!(
                outcome_json(&uninterrupted),
                outcome_json(&resumed_outcome),
                "{approximation:?} parallel={parallel}: resumed run must be \
                 byte-identical to the uninterrupted run"
            );
        }
    }
}

#[test]
fn checkpoint_roundtrip_is_byte_identical_with_a_job_mid_migration() {
    // The topology operating point: a racked Pliant fleet with active consolidation,
    // where the autoscaler live-migrates a batch job off a draining node (interval 46
    // on this seed) and parks the drain the same interval. Snapshot at interval 48:
    // the migrated job is still in flight on its destination — its extracted/implanted
    // state, the source's latched placeholder slot, the rack-sampling RNG, and the
    // per-rack power measurements must all travel in the checkpoint for the resumed
    // run to land on the same bytes.
    for approximation in [
        FleetApproximation::Exact,
        FleetApproximation::Clustered {
            representatives_per_group: 2,
        },
    ] {
        let mut scenario = pliant_bench::cluster_topology_scenario(PolicyKind::Pliant, true, 7);
        scenario.approximation = approximation;
        let engine = Engine::new().parallel();

        // Pin that the snapshot really lands mid-migration: the traced twin (tracing
        // observes decisions, it never alters them) must migrate before interval 48.
        let (_, log) = engine.run_cluster_traced(&scenario, ObsLevel::Decisions);
        let migrated_at: Vec<u32> = log
            .records
            .iter()
            .filter(|r| matches!(r.event, pliant::telemetry::obs::Event::JobMigrated { .. }))
            .map(|r| r.interval)
            .collect();
        assert!(
            migrated_at.iter().any(|&i| i < 48),
            "{approximation:?}: the operating point must migrate a job before the \
             snapshot interval (got migrations at {migrated_at:?})"
        );

        let (uninterrupted, _) = ClusterRun::new(&scenario, &engine).finish();

        let mut first_leg = ClusterRun::new(&scenario, &engine);
        while first_leg.intervals() < 48 && first_leg.step() {}
        let wire =
            serde_json::to_string(&first_leg.checkpoint()).expect("checkpoints are serializable");
        let checkpoint: ClusterRunCheckpoint =
            serde_json::from_str(&wire).expect("checkpoints round-trip through JSON");

        let mut resumed = ClusterRun::new(&scenario, &engine);
        resumed.restore(&checkpoint).expect("restore succeeds");
        let (resumed_outcome, _) = resumed.finish();

        assert_eq!(
            outcome_json(&uninterrupted),
            outcome_json(&resumed_outcome),
            "{approximation:?}: a resume with a job mid-migration must be \
             byte-identical to the uninterrupted run"
        );
    }
}

#[test]
fn restore_rejects_a_checkpoint_from_a_different_scenario() {
    let engine = Engine::new();
    let mut donor = ClusterRun::new(&failure_scenario(6, PolicyKind::Pliant), &engine);
    while donor.intervals() < 10 && donor.step() {}
    let checkpoint = donor.checkpoint();

    let mut other = ClusterRun::new(&failure_scenario(5, PolicyKind::Pliant), &engine);
    let err = other
        .restore(&checkpoint)
        .expect_err("a 6-node checkpoint must not restore into a 5-node fleet");
    assert!(
        !err.is_empty(),
        "the rejection carries a diagnostic message"
    );
}

#[test]
fn faulted_runs_are_deterministic_across_execution_modes() {
    // Fault injection and recovery live on the fleet coordinator path, so the usual
    // guarantee must survive: parallelism changes wall-clock, never output.
    for approximation in [
        FleetApproximation::Exact,
        FleetApproximation::Clustered {
            representatives_per_group: 2,
        },
    ] {
        let mut scenario = failure_scenario(6, PolicyKind::Pliant);
        scenario.approximation = approximation;
        let serial = Engine::new().run_cluster(&scenario);
        let parallel = Engine::new().parallel().run_cluster(&scenario);
        assert_eq!(
            outcome_json(&serial),
            outcome_json(&parallel),
            "{approximation:?}: faulted fleets must stay deterministic under \
             parallel execution"
        );
    }
}

#[test]
fn active_nodes_excludes_crashed_nodes_on_every_interval() {
    // `ClusterSim::active_nodes` between intervals must report the serving count the
    // interval just advanced ran with — a down node is not serving.
    let scenario = failure_scenario(5, PolicyKind::Pliant);
    let mut sim = ClusterSim::new(&scenario, &Catalog::default());
    let mut saw_outage = false;
    while sim.intervals() < scenario.max_intervals() {
        let interval = sim.advance();
        saw_outage |= interval.active_nodes < scenario.nodes;
        assert_eq!(
            sim.active_nodes(),
            interval.active_nodes,
            "interval {}: the fleet's serving count disagrees with its interval record",
            sim.intervals() - 1
        );
    }
    assert!(saw_outage, "the failure trace must take a node down");
}

#[test]
fn pliant_never_violates_more_intervals_than_precise_under_the_failure_trace() {
    // The fig_failure headline, pinned: at every swept fleet size both policies see
    // the identical fault schedule under common random numbers, and Pliant's
    // reclaimed headroom absorbs the shed traffic at least as well as the Precise
    // baseline — measured in intervals with at least one QoS-violating node.
    let engine = Engine::new().parallel();
    let mut strictly_better_somewhere = false;
    for nodes in [5usize, 6] {
        let mut violating = [0usize; 2];
        for (pi, policy) in [PolicyKind::Precise, PolicyKind::Pliant]
            .into_iter()
            .enumerate()
        {
            let outcome = engine.run_cluster(&failure_scenario(nodes, policy));
            let faults = outcome.faults.expect("failure scenarios carry fault stats");
            assert_eq!(
                faults.crashes, 1,
                "{policy} at {nodes}: one scheduled crash"
            );
            assert_eq!(faults.degradations, 1, "{policy} at {nodes}: one straggler");
            assert!(
                faults.jobs_requeued >= 1,
                "{policy} at {nodes}: the crashed node's job is re-queued"
            );
            assert!(
                faults.availability < 1.0 && faults.availability > 0.9,
                "{policy} at {nodes}: one 20-interval outage on one of {nodes} nodes, \
                 got availability {}",
                faults.availability
            );
            violating[pi] = outcome
                .trace
                .get("violating_nodes")
                .expect("violating series")
                .points()
                .iter()
                .filter(|p| p.value > 0.0)
                .count();
        }
        assert!(
            violating[1] <= violating[0],
            "at {nodes} machines Pliant must not violate QoS in more intervals than \
             Precise (pliant {} vs precise {})",
            violating[1],
            violating[0]
        );
        strictly_better_somewhere |= violating[1] < violating[0];
    }
    assert!(
        strictly_better_somewhere,
        "Pliant must strictly reduce QoS-violating intervals at some swept size"
    );
}

#[test]
fn clustered_group_fault_splits_the_group_and_conserves_totals() {
    // A crash aimed at a node that the clustered approximation folded into a
    // replicated group: the planner must carve the target out into its own exact
    // instance (so the fault hits one logical node, not a whole group's worth of
    // replicas), and the fleet aggregates must stay within the bounds the fault-free
    // hyperscale tests enforce.
    let faults = FaultProfile {
        scheduled: vec![
            ScheduledFault {
                node: 5,
                at_interval: 30,
                duration_intervals: 20,
                kind: FaultKind::Crash,
            },
            ScheduledFault {
                node: 8,
                at_interval: 60,
                duration_intervals: 15,
                kind: FaultKind::Degrade { factor: 0.7 },
            },
        ],
        ..FaultProfile::new()
    };
    // The 12-node machines-needed operating point (same anchor as the hyperscale
    // tests). No autoscaler: group park/unpark decisions quantize differently under
    // the approximation and would dominate the comparison; the fault semantics under
    // test are the planner's group split and the balancer's shedding.
    let scenario_with = |approximation: FleetApproximation, faulted: bool| {
        let mut scenario =
            pliant_bench::cluster_machines_needed_scenario(12, 5.2, PolicyKind::Pliant, 7)
                .expect("the 12-node anchor stays below saturation");
        scenario.approximation = approximation;
        if faulted {
            scenario.fault_profile = Some(faults.clone());
        }
        scenario
    };
    let clustered = FleetApproximation::Clustered {
        representatives_per_group: 2,
    };
    let engine = Engine::new().parallel();

    let baseline = engine.run_cluster(&scenario_with(clustered, false));
    let approx = engine.run_cluster(&scenario_with(clustered, true));
    let exact = engine.run_cluster(&scenario_with(FleetApproximation::Exact, true));

    // The faulted logical nodes are isolated out of their groups.
    assert!(
        approx.simulated_instances > baseline.simulated_instances,
        "faulted nodes must be carved into their own instances \
         ({} faulted vs {} fault-free)",
        approx.simulated_instances,
        baseline.simulated_instances
    );
    assert!(
        approx.simulated_instances < 12,
        "the rest of the fleet stays grouped, got {} instances",
        approx.simulated_instances
    );
    let replicated: usize = approx.node_outcomes.iter().map(|n| n.replicas).sum();
    assert_eq!(
        replicated, 12,
        "replica weights still conserve the population"
    );

    // Fault accounting is in logical-node units, so it agrees exactly with the
    // exact run: the schedule is compiled over logical nodes before planning.
    let approx_faults = approx.faults.expect("fault stats");
    let exact_faults = exact.faults.expect("fault stats");
    assert_eq!(approx_faults.crashes, exact_faults.crashes);
    assert_eq!(approx_faults.degradations, exact_faults.degradations);
    assert_eq!(
        approx_faults.down_node_intervals,
        exact_faults.down_node_intervals
    );
    assert_eq!(approx_faults.availability, exact_faults.availability);

    // Fleet totals stay within the established hyperscale bounds under failure.
    let p99_err = rel_err(approx.fleet_p99_s, exact.fleet_p99_s);
    assert!(
        p99_err < P99_REL_BOUND,
        "faulted fleet p99 error {p99_err:.4} exceeds the {P99_REL_BOUND} bound \
         ({:.6}s clustered vs {:.6}s exact)",
        approx.fleet_p99_s,
        exact.fleet_p99_s
    );
    let energy_err = rel_err(approx.fleet_energy_j, exact.fleet_energy_j);
    assert!(
        energy_err < ENERGY_REL_BOUND,
        "faulted fleet energy error {energy_err:.4} exceeds the {ENERGY_REL_BOUND} \
         bound ({:.1}J clustered vs {:.1}J exact)",
        approx.fleet_energy_j,
        exact.fleet_energy_j
    );
    let violation_diff =
        (approx.fleet_qos_violation_fraction - exact.fleet_qos_violation_fraction).abs();
    assert!(
        violation_diff < VIOLATION_ABS_BOUND,
        "faulted QoS-violation fraction differs by {violation_diff:.4} \
         (> {VIOLATION_ABS_BOUND})"
    );
    // The latency histogram behind the percentile aggregates a comparable number of
    // logical samples: replica weighting survives the group split.
    let sample_err = rel_err(approx.fleet_samples as f64, exact.fleet_samples as f64);
    assert!(
        sample_err < P99_REL_BOUND,
        "replica-weighted sample totals diverged by {sample_err:.4} \
         ({} clustered vs {} exact)",
        approx.fleet_samples,
        exact.fleet_samples
    );
}

#[test]
fn rack_outage_takes_down_the_whole_power_domain() {
    // The topology operating point injects one whole-rack power-domain failure:
    // rack 0 (nodes 0 and 1) crashes at interval 40 for 25 intervals. The outage
    // must compose with the fault-stats subsystem exactly like per-node crashes —
    // availability accounts both members' downtime — and the clustered
    // approximation must agree on the logical-unit fault accounting while staying
    // within the established hyperscale bounds on the fleet aggregates.
    let engine = Engine::new().parallel();
    let scenario = pliant_bench::cluster_topology_scenario(PolicyKind::Pliant, false, 7);
    let (exact, log) = engine.run_cluster_traced(&scenario, ObsLevel::Decisions);

    let stats = exact
        .faults
        .expect("rack-outage scenarios carry fault stats");
    assert_eq!(stats.crashes, 2, "both members of rack 0 crash");
    assert_eq!(
        stats.down_node_intervals,
        2 * 25,
        "availability accounts whole-rack downtime"
    );
    let expected = 1.0 - (2.0 * 25.0) / (8.0 * exact.intervals as f64);
    assert!(
        (stats.availability - expected).abs() < 1e-12,
        "availability {} must equal {expected}",
        stats.availability
    );

    // The cause surfaces once as a fleet-level event; the per-member crashes it
    // expands into surface as ordinary NodeFailed events.
    let summary = log.summary();
    let count = |kind| summary.counter(kind).map_or(0, |c: &_| c.count);
    assert_eq!(count(EventKind::RackOutage), 1);
    assert_eq!(count(EventKind::NodeFailed), 2);
    assert_eq!(count(EventKind::NodeRecovered), 2);

    // Clustered runs agree on the logical-unit fault accounting and conserve the
    // population, within the fault-free hyperscale error bounds.
    let mut clustered_scenario = scenario;
    clustered_scenario.approximation = FleetApproximation::Clustered {
        representatives_per_group: 2,
    };
    let approx = engine.run_cluster(&clustered_scenario);
    let approx_stats = approx.faults.expect("fault stats");
    assert_eq!(approx_stats.crashes, stats.crashes);
    assert_eq!(approx_stats.down_node_intervals, stats.down_node_intervals);
    assert_eq!(approx_stats.availability, stats.availability);
    let replicated: usize = approx.node_outcomes.iter().map(|n| n.replicas).sum();
    assert_eq!(replicated, 8, "replica weights conserve the population");
    let p99_err = rel_err(approx.fleet_p99_s, exact.fleet_p99_s);
    assert!(
        p99_err < P99_REL_BOUND,
        "racked fleet p99 error {p99_err:.4} exceeds the {P99_REL_BOUND} bound"
    );
    let energy_err = rel_err(approx.fleet_energy_j, exact.fleet_energy_j);
    assert!(
        energy_err < ENERGY_REL_BOUND,
        "racked fleet energy error {energy_err:.4} exceeds the {ENERGY_REL_BOUND} bound"
    );
    let violation_diff =
        (approx.fleet_qos_violation_fraction - exact.fleet_qos_violation_fraction).abs();
    assert!(
        violation_diff < VIOLATION_ABS_BOUND,
        "racked QoS-violation fraction differs by {violation_diff:.4}"
    );
}

#[test]
fn fault_transitions_surface_as_obs_events() {
    let engine = Engine::new().parallel();
    let scenario = failure_scenario(5, PolicyKind::Pliant);
    let (_, log) = engine.run_cluster_traced(&scenario, ObsLevel::Decisions);
    let summary = log.summary();
    for kind in [
        EventKind::NodeFailed,
        EventKind::NodeRecovered,
        EventKind::NodeDegraded,
        EventKind::JobRequeued,
    ] {
        let counter = summary
            .counter(kind)
            .unwrap_or_else(|| panic!("{} events must be recorded", kind.name()));
        assert!(counter.count > 0, "{} count is zero", kind.name());
    }
    // Both injected faults recover inside the horizon, so the stream is balanced:
    // one NodeFailed + one NodeDegraded, two NodeRecovered.
    let count = |kind| summary.counter(kind).map_or(0, |c| c.count);
    assert_eq!(count(EventKind::NodeFailed), 1);
    assert_eq!(count(EventKind::NodeDegraded), 1);
    assert_eq!(count(EventKind::NodeRecovered), 2);
    assert_eq!(count(EventKind::JobRequeued), 1);
}
