//! `fleet_churn` and `fleet_hyperscale`: the fleet coordinator, exact and clustered.
//!
//! * `fleet_churn` — an exact 32-node memcached fleet in 8 racks of 4 with per-rack
//!   power budgets, the day/night profile and two jobs per node, the QoS-slack-aware
//!   scheduler and the consolidating autoscaler, stochastic crashes and stragglers plus
//!   one rack outage. Every run is checkpointed mid-way, encoded to JSON, decoded,
//!   restored into a fresh run and finished beside the uninterrupted one.
//! * `fleet_hyperscale` — the same day/night family, flat, at 10⁴, 10⁵ and 10⁶ logical
//!   nodes under the clustered approximation (4 representatives per group), with one
//!   scheduled crash and one straggler.
//!
//! Both run Precise and Pliant paired (same seed, same faults) on two worker threads.

use std::time::Instant;

use pliant_approx::catalog::Catalog;
use pliant_cluster::autoscaler::Autoscaler;
use pliant_cluster::{
    BatchScheduler, ClusterEngineExt, ClusterInterval, ClusterNode, ClusterOutcome, ClusterRun,
    ClusterRunCheckpoint, ClusterScenario, ClusterSim, FaultKind, FaultProfile, FleetApproximation,
    NodeInterval, NodePopulation, NodePowerState, RackOutage, ScheduledFault, TopologyConfig,
};
use pliant_core::engine::Engine;
use pliant_core::policy::PolicyKind;
use pliant_core::{MonitorConfig, PerformanceMonitor};
use pliant_sim::queueing::LatencyModel;
use pliant_telemetry::obs::{EventKind, ObsLevel};
use pliant_telemetry::rng::{derive_seed, seeded_rng};
use pliant_workloads::service::ServiceProfile;

use crate::spans::Tracer;
use crate::stats::{outcome_digest, Digest, Samples};
use crate::{alloc, process_cpu_s, Fidelity, Metrics, PassResult};

/// Worker threads of every fleet run (the host has two cores).
const THREADS: usize = 2;
/// Per-rack power budget of `fleet_churn`, in watts (four nodes share one).
const RACK_POWER_W: f64 = 900.0;
/// Logical fleet sizes of `fleet_hyperscale`.
const HYPERSCALE_NODES: [usize; 3] = [10_000, 100_000, 1_000_000];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Churn,
    Hyperscale,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet_churn" => Some(Workload::Churn),
            "fleet_hyperscale" => Some(Workload::Hyperscale),
            _ => None,
        }
    }
}

fn churn_scenario(seed: u64, policy: PolicyKind) -> ClusterScenario {
    let mut s =
        pliant_bench::cluster_energy_scenario_at_scale(32, policy, derive_seed(seed, 0xc0_0001));
    s.topology = TopologyConfig::Racks {
        racks: 8,
        nodes_per_rack: 4,
        rack_power_w: Some(RACK_POWER_W),
    };
    if let Some(autoscaler) = &mut s.autoscaler {
        autoscaler.consolidate = true;
    }
    s.fault_profile = Some(FaultProfile {
        crash_probability: 0.000_5,
        outage_intervals: 20,
        degrade_probability: 0.001,
        degrade_factor: 0.6,
        degrade_intervals: 15,
        rack_outages: vec![RackOutage {
            rack: (derive_seed(seed, 0xc0_0002) % 8) as usize,
            at_interval: 40 + derive_seed(seed, 0xc0_0003) % 40,
            duration_intervals: 25,
        }],
        ..FaultProfile::new()
    });
    s
}

fn hyperscale_scenario(seed: u64, nodes: usize, policy: PolicyKind) -> ClusterScenario {
    let stream = 0xd0_0000 + nodes as u64;
    let mut s =
        pliant_bench::cluster_energy_scenario_at_scale(nodes, policy, derive_seed(seed, stream));
    s.approximation = FleetApproximation::Clustered {
        representatives_per_group: 4,
    };
    let crashed = (derive_seed(seed, stream + 1) % nodes as u64) as usize;
    let straggler =
        (crashed + 1 + (derive_seed(seed, stream + 2) % (nodes as u64 - 1)) as usize) % nodes;
    s.fault_profile = Some(FaultProfile {
        scheduled: vec![
            ScheduledFault {
                node: crashed,
                at_interval: 20 + derive_seed(seed, stream + 3) % 100,
                duration_intervals: 20,
                kind: FaultKind::Crash,
            },
            ScheduledFault {
                node: straggler,
                at_interval: 120 + derive_seed(seed, stream + 4) % 100,
                duration_intervals: 15,
                kind: FaultKind::Degrade { factor: 0.6 },
            },
        ],
        ..FaultProfile::new()
    });
    s
}

/// Independent fleets per pass, each with its own seed drawn from the benchmark seed,
/// so the simulated totals average over several fault and noise draws.
fn fleets_per_pass(workload: Workload) -> u64 {
    match workload {
        Workload::Churn => 12,
        Workload::Hyperscale => 6,
    }
}

/// The pass's runs in order, each validated: per fleet (and size), Precise then Pliant.
fn scenarios(workload: Workload, seed: u64) -> Vec<ClusterScenario> {
    let policies = [PolicyKind::Precise, PolicyKind::Pliant];
    let mut all = Vec::new();
    for k in 0..fleets_per_pass(workload) {
        let seed = derive_seed(seed, 0xf1ee_7000 + k);
        match workload {
            Workload::Churn => all.extend(policies.iter().map(|&p| churn_scenario(seed, p))),
            Workload::Hyperscale => all.extend(HYPERSCALE_NODES.iter().flat_map(|&n| {
                policies
                    .iter()
                    .map(move |&p| hyperscale_scenario(seed, n, p))
            })),
        }
    }
    for s in &all {
        s.validate()
            .expect("every benchmark fleet scenario is valid");
    }
    all
}

/// Checks the job ledger of a finished run: every submitted job is completed, running
/// or queued, and the nodes account for every completion.
fn check_jobs(run: &ClusterRun) -> Result<(), String> {
    let stats = run.sim().scheduler_stats();
    let pending = run.sim().pending_jobs();
    if stats.submitted != stats.placed + pending || stats.completed > stats.placed {
        return Err(format!(
            "job ledger broken: {stats:?} with {pending} queued"
        ));
    }
    Ok(())
}

fn check_outcome(outcome: &ClusterOutcome) -> Result<u64, String> {
    let (digest, finite) = outcome_digest(outcome);
    if !finite {
        return Err("non-finite output".into());
    }
    let per_node: usize = outcome.node_outcomes.iter().map(|n| n.jobs_completed).sum();
    if per_node != outcome.scheduler_stats.completed {
        return Err(format!(
            "nodes completed {per_node} jobs, scheduler counted {}",
            outcome.scheduler_stats.completed
        ));
    }
    Ok(digest)
}

fn add_fidelity(fidelity: &mut Fidelity, outcome: &ClusterOutcome) {
    if outcome.policy != PolicyKind::Pliant {
        fidelity.energy_precise_j += outcome.fleet_energy_j;
        return;
    }
    fidelity.energy_pliant_j += outcome.fleet_energy_j;
    for node in &outcome.node_outcomes {
        fidelity.busy += node.busy_intervals as u64;
        fidelity.violations +=
            (node.qos_violation_fraction * node.busy_intervals as f64).round() as u64;
        fidelity.inaccuracy_sum += node.mean_completed_inaccuracy_pct * node.jobs_completed as f64;
        fidelity.jobs += node.jobs_completed as f64;
    }
}

/// Encodes a checkpoint to JSON and decodes it again.
fn round_trip(checkpoint: &ClusterRunCheckpoint) -> (String, ClusterRunCheckpoint) {
    let json = serde_json::to_string(checkpoint).expect("checkpoints encode");
    let decoded = serde_json::from_str(&json).expect("checkpoints decode");
    (json, decoded)
}

/// One untraced pass over every run of the workload.
pub fn pass(workload: Workload, seed: u64) -> PassResult {
    let started = process_cpu_s();
    let engine = Engine::new().parallel_threads(THREADS);
    let scenarios = scenarios(workload, seed);
    let mut setup_s = vec![process_cpu_s() - started];

    let mut run_s = Vec::with_capacity(scenarios.len());
    let mut digest = Digest::default();
    let mut fidelity = Fidelity::default();
    let mut node_intervals = 0u64;
    let mut failure = None;
    let mut instances = 0usize;
    let mut checkpoint_bytes = 0usize;
    let mut hist_records = 0u64;
    for scenario in &scenarios {
        let t = process_cpu_s();
        let mut run = ClusterRun::new(scenario, &engine);
        setup_s.push(process_cpu_s() - t);

        let t = process_cpu_s();
        let horizon = scenario.max_intervals();
        let mut resumed = None;
        if workload == Workload::Churn {
            while run.intervals() < horizon / 2 {
                run.step();
            }
            let (json, decoded) = round_trip(&run.checkpoint());
            checkpoint_bytes += json.len();
            let mut fresh = ClusterRun::new(scenario, &engine);
            match fresh.restore(&decoded) {
                Ok(()) => resumed = Some(fresh),
                Err(e) => failure = failure.or(Some(format!("restore failed: {e}"))),
            }
        }
        while run.step() {}
        let ledger = check_jobs(&run);
        let (outcome, _) = run.finish();
        node_intervals += (outcome.nodes * outcome.intervals) as u64;
        let resumed = resumed.map(|run| {
            let stepped_before = run.intervals();
            let (again, _) = run.finish();
            node_intervals += (again.nodes * (again.intervals - stepped_before)) as u64;
            again
        });
        run_s.push(process_cpu_s() - t);

        let checked = ledger
            .and_then(|()| check_outcome(&outcome))
            .and_then(|d| match resumed {
                Some(again) if outcome_digest(&again).0 != d => {
                    Err("resumed outcome differs from the uninterrupted one".to_string())
                }
                _ => Ok(d),
            });
        match checked {
            Ok(d) => digest.u64(d),
            Err(e) => failure = failure.or(Some(format!("{}: {e}", scenario.describe()))),
        }
        instances += outcome.simulated_instances;
        hist_records += outcome.fleet_samples;
        add_fidelity(&mut fidelity, &outcome);
    }
    let mut counts = vec![
        ("instances", instances as f64),
        ("hist_records", hist_records as f64),
    ];
    if workload == Workload::Churn {
        counts.push(("checkpoint_bytes", checkpoint_bytes as f64));
    }
    PassResult {
        node_intervals,
        setup_s,
        run_s,
        digest: digest.finish(),
        fidelity,
        failure,
        counts,
    }
}

/// Per-layer samples of the traced fleet passes.
#[derive(Default)]
struct Layers {
    step_us: Samples,
    advance_us: Samples,
    advance_2t_us: Samples,
    advance_replay_us: Samples,
    aggregate_us: Samples,
    node_step_us: Samples,
    coord_us: Samples,
    balancer_ns: Samples,
    scheduler_ns: Samples,
    autoscaler_ns: Samples,
    sample_ns: Samples,
    monitor_us: Samples,
    population_ms: Samples,
    finish_ms: Samples,
    checkpoint_ms: Samples,
    encode_ms: Samples,
    decode_ms: Samples,
    restore_ms: Samples,
    export_ms: Samples,
    untraced_s: f64,
    traced_s: f64,
    obs_s: f64,
    /// Samples handed to the replayed monitor, summed over every pass like the timings.
    monitor_fed: u64,
    // Counts, from the first traced pass only, so they repeat exactly.
    replay_mismatch: u64,
    samples: u64,
    node_intervals: u64,
    quiescent: u64,
    checkpoint_bytes: u64,
    instances: u64,
    placed: u64,
    requeued: u64,
    migrated: u64,
    down_node_intervals: u64,
    hist_records: u64,
    obs_events: u64,
    allocations: u64,
    intervals: u64,
}

impl Layers {
    fn timings(&mut self) -> [&mut Samples; 19] {
        [
            &mut self.step_us,
            &mut self.advance_us,
            &mut self.advance_2t_us,
            &mut self.advance_replay_us,
            &mut self.aggregate_us,
            &mut self.node_step_us,
            &mut self.coord_us,
            &mut self.balancer_ns,
            &mut self.scheduler_ns,
            &mut self.autoscaler_ns,
            &mut self.sample_ns,
            &mut self.monitor_us,
            &mut self.population_ms,
            &mut self.finish_ms,
            &mut self.checkpoint_ms,
            &mut self.encode_ms,
            &mut self.decode_ms,
            &mut self.restore_ms,
            &mut self.export_ms,
        ]
    }

    /// Adds another pass's timings; counts stay those of the first pass.
    fn merge_timings(&mut self, mut other: Layers) {
        for (dst, src) in self.timings().into_iter().zip(other.timings()) {
            dst.0.append(&mut src.0);
        }
        self.untraced_s += other.untraced_s;
        self.traced_s += other.traced_s;
        self.obs_s += other.obs_s;
        self.monitor_fed += other.monitor_fed;
    }
}

/// Digest of everything an interval reports, sample by sample.
fn interval_digest(interval: &ClusterInterval) -> u64 {
    let mut d = Digest::default();
    d.f64(interval.time_s);
    d.f64(interval.total_offered_load);
    d.u64(interval.active_nodes as u64);
    d.u64(interval.jobs_placed as u64);
    for n in &interval.nodes {
        node_interval_digest(&mut d, n);
    }
    d.finish()
}

fn node_interval_digest(d: &mut Digest, n: &NodeInterval) {
    d.u64(n.node as u64);
    d.f64(n.assigned_load);
    d.u64(u64::from(n.extra_service_cores));
    d.u64(n.jobs_completed as u64);
    d.f64(n.smoothed_p99_s);
    d.u64(n.replicas as u64);
    let o = &n.observation;
    d.f64(o.time_s);
    d.u64(o.arrivals);
    d.f64(o.energy_j);
    d.f64(o.p99_latency_s);
    d.f64(o.utilization);
    for &s in &o.latency_samples_s {
        d.f64(s);
    }
}

/// Fresh nodes to replay single steps on, one per instance of `sim`, built the way the
/// fleet builds its instances (seed member and replica weight from the population plan).
fn replay_nodes(
    scenario: &ClusterScenario,
    sim: &ClusterSim,
    catalog: &Catalog,
) -> Vec<ClusterNode> {
    let population = NodePopulation::from_scenario(scenario);
    let mut isolated = vec![false; population.total_nodes()];
    if let Some(profile) = &scenario.fault_profile {
        for fault in &profile.scheduled {
            isolated[fault.node] = true;
        }
    }
    let plans = if scenario.approximation.is_clustered() {
        population.plan_instances_isolating(&scenario.approximation, &isolated)
    } else {
        population.plan_instances(&scenario.approximation)
    };
    assert_eq!(
        plans.len(),
        sim.instance_count(),
        "replay plan covers every instance"
    );
    let slots = scenario.slots_per_node;
    plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let jobs = &scenario.jobs[plan.seed_member * slots..(plan.seed_member + 1) * slots];
            ClusterNode::representative(scenario, i, plan.seed_member, plan.replicas, jobs, catalog)
        })
        .collect()
}

/// The traced single-thread run: every interval's advance is timed, then each node's
/// step is replayed on a node restored from the pre-advance checkpoint, and the
/// balancer, scheduler and autoscaler routines are replayed on the snapshots.
fn replay_run(
    scenario: &ClusterScenario,
    catalog: &Catalog,
    tracer: &mut Tracer,
    l: &mut Layers,
    first: bool,
) {
    let mut sim = ClusterSim::new(scenario, catalog);
    let mut nodes = replay_nodes(scenario, &sim, catalog);
    let weights = sim.replica_weights().to_vec();
    let clustered = scenario.approximation.is_clustered();
    let service = ServiceProfile::paper_default(scenario.service);
    let latency = LatencyModel::default();
    let mut rng = seeded_rng(derive_seed(scenario.seed, 0x5a11));
    let mut buf = Vec::new();
    let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(service.qos_target_s), 0);
    let mut split = Vec::new();
    for _ in 0..scenario.max_intervals() {
        let ((snapshots, checkpoint), _) =
            tracer.time("bench.replay_prep", || (sim.snapshots(), sim.checkpoint()));
        let active: Vec<bool> = sim
            .node_power_states()
            .map_or(vec![true; weights.len()], |s| {
                s.iter().map(|&p| p == NodePowerState::Active).collect()
            });
        let (interval, advance_s) =
            tracer.time("cluster.advance_replayed", || sim.advance_threads(1));
        l.advance_replay_us.push(advance_s * 1e6);

        let replay = tracer.begin("bench.node_replays");
        let mut steps_s = 0.0;
        for ni in &interval.nodes {
            let node = &mut nodes[ni.node];
            node.restore(&checkpoint.node_checkpoints[ni.node])
                .expect("replay nodes accept fleet checkpoints");
            let (replayed, s) = tracer.time("cluster.node_step", || node.step(ni.assigned_load));
            steps_s += s;
            l.node_step_us.push(s * 1e6);
            let o = &ni.observation;
            if first {
                let (mut a, mut b) = (Digest::default(), Digest::default());
                node_interval_digest(&mut a, &replayed);
                node_interval_digest(&mut b, ni);
                l.replay_mismatch += u64::from(a.finish() != b.finish());
                l.samples += o.latency_samples_s.len() as u64;
                l.node_intervals += 1;
                l.quiescent += u64::from(o.arrivals == 0);
            }
            if o.arrivals > 0 {
                let (_, s) = tracer.time("sim.sample_replay", || {
                    latency.sample_latencies_into(
                        &service,
                        o.p99_latency_s,
                        o.latency_samples_s.len(),
                        &mut rng,
                        &mut buf,
                    )
                });
                l.sample_ns.push(s * 1e9);
                monitor
                    .restore(&checkpoint.node_checkpoints[ni.node].monitor)
                    .expect("monitor snapshots restore");
                let (_, s) = tracer.time("core.monitor_replay", || {
                    monitor.observe_interval(&o.latency_samples_s)
                });
                l.monitor_us.push(s * 1e6);
                l.monitor_fed += o.latency_samples_s.len() as u64;
            }
        }
        tracer.end(replay);
        l.coord_us.push((advance_s - steps_s) * 1e6);

        let mut balancer = scenario.balancer.build(weights.len(), 0);
        balancer
            .restore_rng_state(&checkpoint.balancer_rng)
            .expect("balancer state restores");
        let (_, s) = tracer.time("cluster.balancer_replay", || {
            balancer.split_grouped(
                interval.total_offered_load,
                &snapshots,
                &weights,
                &active,
                &mut split,
            )
        });
        l.balancer_ns.push(s * 1e9);

        let mut scheduler = BatchScheduler::restore(
            scenario.scheduler,
            checkpoint.scheduler_queue.clone(),
            checkpoint.scheduler_stats,
        );
        let mut free = snapshots.clone();
        let (_, s) = tracer.time("cluster.scheduler_replay", || {
            while let Some((node, _, _)) = scheduler.pop_placement_grouped(&free, &weights) {
                free[node].free_slots = free[node].free_slots.saturating_sub(1);
            }
        });
        l.scheduler_ns.push(s * 1e9);

        if let (Some(config), Some(state)) = (scenario.autoscaler, &checkpoint.autoscaler) {
            let mut autoscaler = Autoscaler::for_instances(config, weights.clone());
            autoscaler
                .restore(state)
                .expect("autoscaler state restores");
            let total = interval.total_offered_load;
            let (_, s) = tracer.time("cluster.autoscaler_replay", || {
                if clustered {
                    autoscaler.plan_grouped(total, &snapshots, scenario.slots_per_node)
                } else {
                    autoscaler.plan(total, &snapshots, scenario.slots_per_node)
                }
            });
            l.autoscaler_ns.push(s * 1e9);
        }
        sim.recycle_interval(interval);
    }
}

/// One traced pass over the Pliant runs of the workload's first fleet. Every run here
/// is single-thread, so the per-call timings add up; only the pool check uses two.
fn traced_pass(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
    first: bool,
    failures: &mut Vec<String>,
) -> Layers {
    let mut l = Layers::default();
    let engine = Engine::new();
    let all = scenarios(workload, seed);
    let first_fleet = all.len() / fleets_per_pass(workload) as usize;
    for scenario in all
        .iter()
        .take(first_fleet)
        .filter(|s| s.policy == PolicyKind::Pliant)
    {
        let pass = tracer.begin("bench.fleet_run");
        let name = scenario.describe();
        let horizon = scenario.max_intervals();
        let catalog = engine.catalog();

        let (_, s) = tracer.time("cluster.population", || {
            let population = NodePopulation::from_scenario(scenario);
            std::hint::black_box(population.plan_instances(&scenario.approximation))
        });
        l.population_ms.push(s * 1e3);

        // Single-thread advance with node and routine replays.
        replay_run(scenario, catalog, tracer, &mut l, first);

        // Untraced serial reference with its allocations counted (first pass only).
        let reference = first.then(|| {
            let (reference, allocations) = alloc::count(|| engine.run_cluster(scenario));
            l.allocations += allocations;
            reference
        });

        // Five copies of the fleet in lockstep, so every comparison is made interval
        // by interval under the same host conditions: advance on one thread and on
        // two, the engine's step traced, untraced, and at ObsLevel::Full.
        let mut serial_sim = ClusterSim::new(scenario, catalog);
        let mut pooled_sim = ClusterSim::new(scenario, catalog);
        let mut run = ClusterRun::new(scenario, &engine);
        let mut plain = ClusterRun::new(scenario, &engine);
        let mut full = ClusterRun::with_obs(scenario, &engine, ObsLevel::Full);
        let mut same = true;
        for k in 0..horizon {
            let (one, advance_s) = tracer.time("cluster.advance", || serial_sim.advance_threads(1));
            l.advance_us.push(advance_s * 1e6);
            let (two, s) =
                tracer.time("cluster.advance_2t", || pooled_sim.advance_threads(THREADS));
            l.advance_2t_us.push(s * 1e6);
            same &= interval_digest(&one) == interval_digest(&two);
            serial_sim.recycle_interval(one);
            pooled_sim.recycle_interval(two);

            if k == horizon / 2 {
                let (checkpoint, s) = tracer.time("cluster.checkpoint", || run.checkpoint());
                l.checkpoint_ms.push(s * 1e3);
                let (json, s) = tracer.time("cluster.encode", || {
                    serde_json::to_string(&checkpoint).expect("checkpoints encode")
                });
                l.encode_ms.push(s * 1e3);
                let (decoded, s) = tracer.time("cluster.decode", || {
                    serde_json::from_str::<ClusterRunCheckpoint>(&json).expect("checkpoints decode")
                });
                l.decode_ms.push(s * 1e3);
                let (restored, s) = tracer.time("cluster.restore", || {
                    let mut fresh = ClusterRun::new(scenario, &engine);
                    fresh.restore(&decoded).map(|()| fresh)
                });
                l.restore_ms.push(s * 1e3);
                if let Err(e) = restored {
                    failures.push(format!("{name}: restore failed: {e}"));
                }
                if first {
                    l.checkpoint_bytes += json.len() as u64;
                }
            }
            let (_, s) = tracer.time("cluster.step", || run.step());
            l.step_us.push(s * 1e6);
            l.aggregate_us.push((s - advance_s) * 1e6);
            let t = Instant::now();
            plain.step();
            l.untraced_s += t.elapsed().as_secs_f64();
            l.traced_s += s;
            let (_, s) = tracer.time("cluster.step_obs_full", || full.step());
            l.obs_s += s;
        }
        if !same {
            failures.push(format!("{name}: serial and 2-thread advance differ"));
        }
        let ((outcome, _), s) = tracer.time("cluster.finish", || run.finish());
        l.finish_ms.push(s * 1e3);
        let (plain, _) = plain.finish();
        let (mut full, log) = full.finish();
        full.obs = plain.obs.clone();
        let digest = outcome_digest(&plain).0;
        if outcome_digest(&outcome).0 != digest {
            failures.push(format!("{name}: traced run differs from the untraced one"));
        }
        if outcome_digest(&full).0 != digest {
            failures.push(format!("{name}: ObsLevel::Full changed the outcome"));
        }
        if reference.is_some_and(|r| outcome_digest(&r).0 != digest) {
            failures.push(format!(
                "{name}: serial engine run differs from the stepped run"
            ));
        }
        let (_, s) = tracer.time("telemetry.export", || {
            std::hint::black_box(log.to_jsonl_string())
        });
        l.export_ms.push(s * 1e3);

        if first {
            l.intervals += plain.intervals as u64;
            l.instances += plain.simulated_instances as u64;
            l.placed += plain.scheduler_stats.placed as u64;
            if let Some(faults) = &plain.faults {
                l.requeued += faults.jobs_requeued;
                l.down_node_intervals += faults.down_node_intervals;
            }
            l.migrated += log.registry().count(EventKind::JobMigrated);
            l.hist_records += plain.fleet_samples;
            l.obs_events += log.len() as u64;
        }
        tracer.end(pass);
    }
    l
}

/// The traced run: per-layer numbers for `cluster`, `sim`, `core` and `telemetry`.
pub fn traced(
    name: &str,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) {
    let workload = Workload::parse(name).expect("workload names are checked");
    let started = Instant::now();
    let mut l = traced_pass(workload, seed, tracer, true, failures);
    while started.elapsed().as_secs_f64() * 2.0 < seconds {
        let more = traced_pass(workload, seed, tracer, false, failures);
        l.merge_timings(more);
    }

    m.timing("sim.sample_ns", "ns", &l.sample_ns);
    m.count("sim.samples", l.samples as f64);
    m.pct(
        "sim.idle_pct",
        l.quiescent as f64 / l.node_intervals.max(1) as f64,
    );
    m.timing("core.monitor_us", "us", &l.monitor_us);
    m.value(
        "core.monitor_ns_per_sample",
        "ns",
        l.monitor_us.sum() * 1e3 / l.monitor_fed.max(1) as f64,
    );
    m.timing("cluster.step_us", "us", &l.step_us);
    m.timing("cluster.advance_us", "us", &l.advance_us);
    m.timing("cluster.aggregate_us", "us", &l.aggregate_us);
    m.timing("cluster.node_step_us", "us", &l.node_step_us);
    m.count("cluster.node_replay_mismatch", l.replay_mismatch as f64);
    m.timing("cluster.coord_us", "us", &l.coord_us);
    m.timing("cluster.balancer_ns", "ns", &l.balancer_ns);
    m.timing("cluster.scheduler_ns", "ns", &l.scheduler_ns);
    m.timing("cluster.autoscaler_ns", "ns", &l.autoscaler_ns);
    m.value(
        "cluster.pool_speedup",
        "ratio",
        l.advance_us.sum() / l.advance_2t_us.sum(),
    );
    m.timing("cluster.population_ms", "ms", &l.population_ms);
    m.timing("cluster.finish_ms", "ms", &l.finish_ms);
    m.timing("cluster.checkpoint_ms", "ms", &l.checkpoint_ms);
    m.timing("cluster.encode_ms", "ms", &l.encode_ms);
    m.timing("cluster.decode_ms", "ms", &l.decode_ms);
    m.timing("cluster.restore_ms", "ms", &l.restore_ms);
    m.count("cluster.checkpoint_bytes", l.checkpoint_bytes as f64);
    m.count("cluster.instances", l.instances as f64);
    m.pct(
        "cluster.quiescent_pct",
        l.quiescent as f64 / l.node_intervals.max(1) as f64,
    );
    m.count("cluster.placed", l.placed as f64);
    m.count("cluster.requeued", l.requeued as f64);
    m.count("cluster.migrated", l.migrated as f64);
    m.count("cluster.down_node_intervals", l.down_node_intervals as f64);
    m.count("telemetry.hist_records", l.hist_records as f64);
    m.count("telemetry.obs_events", l.obs_events as f64);
    m.value("telemetry.obs_export_ms", "ms", l.export_ms.p50());
    m.pct("telemetry.obs_overhead_pct", l.obs_s / l.untraced_s - 1.0);
    m.value(
        "alloc.per_interval",
        "count",
        l.allocations as f64 / l.intervals.max(1) as f64,
    );
    // The part of the single-thread advance that neither the node steps nor the
    // replayed routines cover, as a share of advance plus the step's own aggregation.
    let explained = l.node_step_us.sum()
        + (l.balancer_ns.sum() + l.scheduler_ns.sum() + l.autoscaler_ns.sum()) / 1e3;
    let step = l.advance_replay_us.sum() + l.aggregate_us.sum();
    m.pct(
        "trace.step_unattributed_pct",
        (l.advance_replay_us.sum() - explained) / step,
    );
    m.pct("trace.overhead_pct", l.traced_s / l.untraced_s - 1.0);
}
