//! `colocation_grid`: the paper grid on the serial single-node engine.
//!
//! Every service × all 24 applications × {Precise, Pliant}, at the paper's constant
//! load and again under a load profile with idle troughs. No `cluster` code and no
//! threads run in the untraced pass: it is the pure per-interval hot path.

use std::time::Instant;

use pliant_approx::catalog::{AppId, Catalog};
use pliant_core::engine::Engine;
use pliant_core::experiment::ColocationOutcome;
use pliant_core::policy::PolicyKind;
use pliant_core::scenario::Scenario;
use pliant_core::suite::{SeedMode, Suite};
use pliant_core::{Actuator, ControllerConfig, MonitorConfig, PerformanceMonitor};
use pliant_sim::colocation::{ColocationConfig, ColocationSim};
use pliant_telemetry::obs::ObsLevel;
use pliant_telemetry::rng::{derive_seed, seeded_rng};
use pliant_workloads::profile::LoadProfile;
use pliant_workloads::service::ServiceId;

use crate::spans::Tracer;
use crate::stats::{outcome_digest, Digest, Samples};
use crate::{alloc, process_cpu_s, Fidelity, Metrics, PassResult};

/// Decision intervals per cell (the `fig5_aggregate` horizon). Every cell runs all of
/// them, so the work of a pass does not depend on the seed.
const HORIZON: usize = 70;

/// The paper's operating point, and the same load with two idle troughs.
fn load_profiles() -> [LoadProfile; 2] {
    [
        LoadProfile::constant(0.75),
        LoadProfile::Trace {
            points: vec![
                (0.0, 0.75),
                (18.0, 0.75),
                (20.0, 0.0),
                (28.0, 0.0),
                (30.0, 0.75),
                (48.0, 0.75),
                (50.0, 0.0),
                (56.0, 0.0),
                (58.0, 0.75),
            ],
        },
    ]
}

/// The grid as a suite. Every cell draws its own seed from the benchmark seed, so the
/// grid totals average over 288 independent streams.
fn suite(seed: u64) -> Suite {
    Suite::new(
        Scenario::builder(ServiceId::Nginx)
            .app(AppId::all()[0])
            .horizon_intervals(HORIZON)
            .stop_when_apps_finish(false)
            .seed(derive_seed(seed, 0x6121_d000))
            .build(),
    )
    .named("colocation-grid")
    .seed_mode(SeedMode::Independent)
    .for_each_service(ServiceId::all())
    .for_each_app(AppId::all())
    .sweep_load_profiles(load_profiles())
    .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
}

/// Builds the engine (and with it the catalog) and every cell's validated scenario.
fn set_up(seed: u64) -> (Engine, Suite, Vec<Scenario>) {
    let engine = Engine::new();
    let suite = suite(seed);
    suite.validate().expect("the grid suite is well formed");
    let scenarios = suite.scenarios();
    for s in &scenarios {
        s.validate().expect("every grid cell is valid");
    }
    (engine, suite, scenarios)
}

fn qos_violations(outcome: &ColocationOutcome) -> u64 {
    outcome
        .phase_qos
        .iter()
        .map(|p| p.qos_violations as u64)
        .sum()
}

fn add_fidelity(fidelity: &mut Fidelity, outcome: &ColocationOutcome) {
    match outcome.policy {
        PolicyKind::Pliant => {
            fidelity.violations += qos_violations(outcome);
            fidelity.busy += (outcome.intervals - outcome.idle_intervals) as u64;
            for app in &outcome.app_outcomes {
                fidelity.inaccuracy_sum += app.inaccuracy_pct;
                fidelity.jobs += 1.0;
            }
            fidelity.energy_pliant_j += outcome.total_energy_j;
        }
        _ => fidelity.energy_precise_j += outcome.total_energy_j,
    }
}

/// One untraced pass: set up, then run every cell on the serial engine.
pub fn pass(seed: u64) -> PassResult {
    let started = process_cpu_s();
    let (engine, _suite, scenarios) = set_up(seed);
    let setup_s = vec![process_cpu_s() - started];

    let mut run_s = Vec::with_capacity(scenarios.len());
    let mut digest = Digest::default();
    let mut fidelity = Fidelity::default();
    let mut node_intervals = 0u64;
    let mut failure = None;
    for scenario in &scenarios {
        let t = process_cpu_s();
        let outcome = engine.run_scenario(scenario);
        run_s.push(process_cpu_s() - t);
        node_intervals += outcome.intervals as u64;
        let (d, finite) = outcome_digest(&outcome);
        digest.u64(d);
        if !finite && failure.is_none() {
            failure = Some(format!("non-finite output in cell {}", scenario.describe()));
        }
        add_fidelity(&mut fidelity, &outcome);
    }
    PassResult {
        node_intervals,
        setup_s,
        run_s,
        digest: digest.finish(),
        fidelity,
        failure,
        counts: vec![("cells", scenarios.len() as f64)],
    }
}

/// What the hand-driven loop and `Engine::run_scenario` must agree on.
#[derive(Debug, PartialEq)]
struct LoopSummary {
    intervals: usize,
    idle_intervals: usize,
    violations: u64,
    energy_bits: u64,
    apps: Vec<(bool, u64)>,
}

impl LoopSummary {
    fn of(outcome: &ColocationOutcome) -> Self {
        LoopSummary {
            intervals: outcome.intervals,
            idle_intervals: outcome.idle_intervals,
            violations: qos_violations(outcome),
            energy_bits: outcome.total_energy_j.to_bits(),
            apps: outcome
                .app_outcomes
                .iter()
                .map(|a| (a.finished, a.inaccuracy_pct.to_bits()))
                .collect(),
        }
    }
}

/// Per-layer samples of the traced grid pass.
#[derive(Default)]
struct Layers {
    advance_us: Samples,
    sample_ns: Samples,
    monitor_us: Samples,
    decide_ns: Samples,
    apply_ns: Samples,
    cell_ms: Samples,
    samples: u64,
    /// Samples handed to the monitor, summed over every pass like the timings.
    monitor_fed: u64,
    monitor_sampled: u64,
    intervals: u64,
    idle: u64,
    actions: u64,
    accepted: u64,
}

/// The engine's single-node loop, driven from the library's public parts with a span
/// around every call into `sim` and `core`. Mirrors `Engine::run_scenario`.
fn hand_driven(
    scenario: &Scenario,
    catalog: &Catalog,
    tracer: &mut Tracer,
    l: &mut Layers,
) -> LoopSummary {
    let cell = tracer.begin("bench.cell");
    let mut config =
        ColocationConfig::paper_default(scenario.service, &scenario.apps, scenario.seed)
            .with_load_profile(scenario.effective_load_profile());
    config.instrumented = scenario.effective_instrumented();
    if let Some(qos_s) = scenario.qos_target_s {
        config.service.qos_target_s = qos_s;
    }
    if let Some(samples) = scenario.samples_per_interval {
        config.samples_per_interval = samples;
    }
    let qos_target_s = config.service.qos_target_s;
    let samples_per_interval = config.samples_per_interval;
    let mut sim = ColocationSim::new(config, catalog);
    let variant_counts: Vec<usize> = scenario
        .apps
        .iter()
        .map(|id| catalog.profile(*id).map_or(0, |p| p.variant_count()))
        .collect();
    let initial_cores: Vec<u32> = (0..scenario.apps.len())
        .map(|i| sim.app(i).cores())
        .collect();
    let controller = ControllerConfig {
        decision_interval_s: scenario.decision_interval_s,
        slack_threshold: scenario.slack_threshold,
        consecutive_slack_required: scenario.consecutive_slack_required,
    };
    let start_pointer = (derive_seed(scenario.seed, 7) % scenario.apps.len() as u64) as usize;
    let mut policy =
        scenario
            .policy
            .build(controller, &variant_counts, &initial_cores, start_pointer);
    let mut monitor = PerformanceMonitor::new(
        MonitorConfig::for_qos(qos_target_s),
        derive_seed(scenario.seed, 8),
    );
    let mut actuator = Actuator::new();
    // The sample replay draws from its own stream so the run itself is untouched.
    let mut replay_rng = seeded_rng(derive_seed(scenario.seed, 0x5a11));
    let mut replay_buf = Vec::with_capacity(samples_per_interval);

    let mut summary = LoopSummary {
        intervals: 0,
        idle_intervals: 0,
        violations: 0,
        energy_bits: 0,
        apps: Vec::new(),
    };
    let mut energy_j = 0.0f64;
    let mut recycled = None;
    for _ in 0..scenario.max_intervals() {
        let interval = tracer.begin("bench.interval");
        let (obs, s) = tracer.time("sim.advance", || {
            sim.advance_reusing(scenario.decision_interval_s, recycled.take())
        });
        l.advance_us.push(s * 1e6);
        summary.intervals += 1;
        l.intervals += 1;
        l.samples += obs.latency_samples_s.len() as u64;
        energy_j += obs.energy_j;
        if obs.arrivals == 0 {
            summary.idle_intervals += 1;
            l.idle += 1;
        } else {
            summary.violations += u64::from(obs.qos_violated());
            let config = sim.config();
            let (_, s) = tracer.time("sim.sample_replay", || {
                config.latency.sample_latencies_into(
                    &config.service,
                    obs.p99_latency_s,
                    samples_per_interval,
                    &mut replay_rng,
                    &mut replay_buf,
                )
            });
            l.sample_ns.push(s * 1e9);
        }
        if scenario.stop_when_apps_finish && obs.all_apps_finished {
            tracer.end(interval);
            break;
        }
        let (report, s) = tracer.time("core.monitor", || {
            monitor.observe_interval(&obs.latency_samples_s)
        });
        l.monitor_us.push(s * 1e6);
        l.monitor_fed += obs.latency_samples_s.len() as u64;
        l.monitor_sampled += report.sampled;
        let (actions, s) = tracer.time("core.decide", || policy.decide(&report));
        l.decide_ns.push(s * 1e9);
        let (accepted, s) = tracer.time("core.apply", || actuator.apply_all(&mut sim, &actions));
        l.apply_ns.push(s * 1e9);
        l.actions += actions.len() as u64;
        l.accepted += accepted as u64;
        recycled = Some(obs);
        tracer.end(interval);
    }
    summary.energy_bits = energy_j.to_bits();
    summary.apps = (0..scenario.apps.len())
        .map(|i| {
            (
                sim.app(i).is_finished(),
                sim.app(i).inaccuracy_pct().to_bits(),
            )
        })
        .collect();
    l.cell_ms.push(tracer.end(cell) * 1e3);
    summary
}

/// The traced run: per-layer numbers for `sim`, `core` and `telemetry`.
///
/// Per cell, the engine's untraced run, the hand-driven traced loop and the engine at
/// `ObsLevel::Full` run back to back, so the overheads compare work done under the
/// same host conditions.
pub fn traced(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) {
    let started = Instant::now();
    let (engine, suite, scenarios) = set_up(seed);

    let ((reference, intervals), allocations) = alloc::count(|| {
        let reference: Vec<ColocationOutcome> =
            scenarios.iter().map(|s| engine.run_scenario(s)).collect();
        let intervals: usize = reference.iter().map(|o| o.intervals).sum();
        (reference, intervals)
    });

    let mut l = Layers::default();
    let (mut untraced_s, mut traced_s, mut full_s) = (0.0, 0.0, 0.0);
    let mut events = 0u64;
    let mut export_ms = Samples::default();
    let mut first = true;
    loop {
        let mut layers = Layers::default();
        for (scenario, outcome) in scenarios.iter().zip(&reference) {
            let (_, s) = tracer.time("core.run_scenario", || engine.run_scenario(scenario));
            untraced_s += s;

            let t = Instant::now();
            let summary = hand_driven(scenario, engine.catalog(), tracer, &mut layers);
            traced_s += t.elapsed().as_secs_f64();
            if first && summary != LoopSummary::of(outcome) {
                failures.push(format!(
                    "hand-driven loop differs from Engine::run_scenario in cell {}",
                    scenario.describe()
                ));
            }

            let ((mut full, log), s) = tracer.time("core.run_scenario_full", || {
                engine.run_scenario_traced(scenario, ObsLevel::Full)
            });
            full_s += s;
            if first {
                full.obs = outcome.obs.clone();
                if outcome_digest(&full).0 != outcome_digest(outcome).0 {
                    failures.push(format!(
                        "ObsLevel::Full changed cell {}",
                        scenario.describe()
                    ));
                }
                events += log.len() as u64;
            }
            let (_, s) = tracer.time("telemetry.export", || {
                std::hint::black_box(log.to_jsonl_string())
            });
            export_ms.push(s * 1e3);
        }
        if first {
            l = layers;
        } else {
            for (dst, src) in [
                (&mut l.advance_us, layers.advance_us),
                (&mut l.sample_ns, layers.sample_ns),
                (&mut l.monitor_us, layers.monitor_us),
                (&mut l.decide_ns, layers.decide_ns),
                (&mut l.apply_ns, layers.apply_ns),
                (&mut l.cell_ms, layers.cell_ms),
            ] {
                dst.0.extend(src.0);
            }
            l.monitor_fed += layers.monitor_fed;
        }
        first = false;
        if started.elapsed().as_secs_f64() >= seconds * 0.8 {
            break;
        }
    }

    // Suite-level fan-out: the grid serial and on two threads, three alternating pairs.
    let parallel_engine = Engine::new().parallel_threads(2);
    let mut efficiency = Vec::new();
    for _ in 0..3 {
        let (serial, serial_s) = tracer.time("core.run_collect", || engine.run_collect(&suite));
        let (parallel, parallel_s) = tracer.time("core.run_collect_2t", || {
            parallel_engine.run_collect(&suite)
        });
        efficiency.push(serial_s / (2.0 * parallel_s));
        let same = serial.len() == parallel.len()
            && serial
                .iter()
                .zip(&parallel)
                .all(|(a, b)| outcome_digest(&a.outcome).0 == outcome_digest(&b.outcome).0);
        if !same {
            failures.push("serial and 2-thread suite runs differ".into());
        }
    }

    let by_name = tracer.times_by_name();
    let (interval_total, interval_self) =
        by_name.get("bench.interval").copied().unwrap_or_default();
    let (replay_total, _) = by_name
        .get("sim.sample_replay")
        .copied()
        .unwrap_or_default();

    m.timing("sim.advance_us", "us", &l.advance_us);
    m.timing("sim.sample_ns", "ns", &l.sample_ns);
    m.count("sim.samples", l.samples as f64);
    m.pct("sim.idle_pct", l.idle as f64 / l.intervals.max(1) as f64);
    m.timing("core.monitor_us", "us", &l.monitor_us);
    m.value(
        "core.monitor_ns_per_sample",
        "ns",
        l.monitor_us.sum() * 1e3 / l.monitor_fed.max(1) as f64,
    );
    m.timing("core.decide_ns", "ns", &l.decide_ns);
    m.timing("core.apply_ns", "ns", &l.apply_ns);
    m.count("core.actions", l.actions as f64);
    m.count("core.actions_accepted", l.accepted as f64);
    m.timing("core.cell_ms", "ms", &l.cell_ms);
    m.value(
        "core.parallel_eff",
        "ratio",
        crate::stats::median(&efficiency),
    );
    m.count("telemetry.hist_records", l.monitor_sampled as f64);
    m.count("telemetry.obs_events", events as f64);
    m.value("telemetry.obs_export_ms", "ms", export_ms.p50());
    m.pct("telemetry.obs_overhead_pct", full_s / untraced_s - 1.0);
    m.value(
        "alloc.per_interval",
        "count",
        allocations as f64 / intervals.max(1) as f64,
    );
    // The sampler replay sits inside the interval span but is the benchmark's own work.
    m.pct(
        "trace.interval_unattributed_pct",
        interval_self / (interval_total - replay_total).max(f64::MIN_POSITIVE),
    );
    // The traced loop also replays the sampler; that work is not overhead.
    m.pct(
        "trace.overhead_pct",
        (traced_s - l.sample_ns.sum() / 1e9) / untraced_s - 1.0,
    );
}
