//! Differential check of the single-node engine's latency-sample path.
//!
//! `Engine::run_scenario` is compared against a hand-driven loop built from the public
//! parts: `ColocationSim::advance_reusing`, which materialises every latency sample of
//! a busy interval, and `PerformanceMonitor::observe_interval`, which subsamples them.
//! The two must agree byte for byte on the serialized outcome, whatever way the engine
//! produces the samples its monitor reads.
//!
//! The grid covers every service, three applications (one of which finishes inside the
//! horizon, so the early-stop path runs too), every built-in policy, three load shapes
//! (the paper's operating point, a profile with idle troughs, and overload), and five
//! per-interval sample counts. Counts below the monitor's 20-sample floor force its
//! full-ingest fallback on every busy interval; 20 and 40 hit it whenever the
//! subsample comes out short; 1000 is the paper default, where the elevated rate
//! applies near the QoS target.

use pliant::prelude::*;
use pliant::runtime::actuator::Actuator;
use pliant::runtime::experiment::AppOutcome;
use pliant::telemetry::obs::{EventLog, ObsBuffer, ObsLevel, DEFAULT_FLEET_CAPACITY};
use pliant::telemetry::rng::derive_seed;
use pliant::telemetry::series::{TimeSeries, TraceBundle};
use pliant::telemetry::stats::OnlineStats;

const HORIZON: usize = 40;

fn trough_profile() -> LoadProfile {
    LoadProfile::Trace {
        points: vec![
            (0.0, 0.75),
            (10.0, 0.75),
            (12.0, 0.0),
            (18.0, 0.0),
            (20.0, 0.75),
            (30.0, 0.75),
            (32.0, 0.0),
            (35.0, 0.0),
            (37.0, 0.75),
        ],
    }
}

/// The engine's single-node loop with every sample materialised and handed to
/// `observe_interval`, assembling the outcome exactly as the engine does.
fn full_sample_run(scenario: &Scenario, catalog: &Catalog) -> ColocationOutcome {
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
    let app_ids = config.apps.clone();
    let mut sim = ColocationSim::new(config, catalog);
    let variant_counts: Vec<usize> = app_ids
        .iter()
        .map(|id| catalog.profile(*id).map_or(0, |p| p.variant_count()))
        .collect();
    let initial_cores: Vec<u32> = (0..app_ids.len()).map(|i| sim.app(i).cores()).collect();
    let controller = ControllerConfig {
        decision_interval_s: scenario.decision_interval_s,
        slack_threshold: scenario.slack_threshold,
        consecutive_slack_required: scenario.consecutive_slack_required,
    };
    let start_pointer = (derive_seed(scenario.seed, 7) % app_ids.len() as u64) as usize;
    let mut policy =
        scenario
            .policy
            .build(controller, &variant_counts, &initial_cores, start_pointer);
    let mut monitor = PerformanceMonitor::new(
        MonitorConfig::for_qos(qos_target_s),
        derive_seed(scenario.seed, 8),
    );
    let mut actuator = Actuator::new();

    let fair_service_cores = sim.service_cores();
    let mut p99_stats = OnlineStats::new();
    let (mut violations, mut intervals, mut idle_intervals) = (0usize, 0usize, 0usize);
    let mut max_extra_cores = 0u32;
    let mut max_reclaimed = vec![0u32; app_ids.len()];
    let horizon = scenario.max_intervals();
    let mut latency = TimeSeries::with_capacity("p99_latency_s", horizon);
    let mut load = TimeSeries::with_capacity("offered_load", horizon);
    let mut cores = TimeSeries::with_capacity("service_extra_cores", horizon);
    let mut power = TimeSeries::with_capacity("power_w", horizon);
    let mut variants: Vec<TimeSeries> = app_ids
        .iter()
        .map(|id| TimeSeries::with_capacity(format!("variant_{}", id.name()), horizon))
        .collect();
    let mut reclaimed: Vec<TimeSeries> = app_ids
        .iter()
        .map(|id| TimeSeries::with_capacity(format!("reclaimed_{}", id.name()), horizon))
        .collect();
    let (mut total_energy_j, mut simulated_s) = (0.0f64, 0.0f64);
    let mut phase_intervals = [0usize; 4];
    let mut phase_violations = [0usize; 4];
    let mut phase_p99_sum = [0.0f64; 4];
    let mut phase_load_sum = [0.0f64; 4];

    let mut recycled = None;
    for _ in 0..horizon {
        let obs = sim.advance_reusing(scenario.decision_interval_s, recycled.take());
        intervals += 1;
        let idle = obs.arrivals == 0;
        if idle {
            assert!(obs.latency_samples_s.is_empty());
            idle_intervals += 1;
        } else {
            assert_eq!(
                obs.latency_samples_s.len(),
                sim.config().samples_per_interval,
                "the reference loop reads every sample"
            );
            p99_stats.push(obs.p99_latency_s);
            violations += usize::from(obs.qos_violated());
            let phase = LoadPhase::all()
                .iter()
                .position(|p| *p == obs.load_phase)
                .expect("every phase is enumerated");
            phase_intervals[phase] += 1;
            phase_violations[phase] += usize::from(obs.qos_violated());
            phase_p99_sum[phase] += obs.p99_latency_s;
            phase_load_sum[phase] += obs.offered_load;
        }
        let extra = sim.service_cores().saturating_sub(fair_service_cores);
        max_extra_cores = max_extra_cores.max(extra);
        latency.push(obs.time_s, if idle { 0.0 } else { obs.p99_latency_s });
        load.push(obs.time_s, obs.offered_load);
        cores.push(obs.time_s, extra as f64);
        power.push(obs.time_s, obs.power_w);
        total_energy_j += obs.energy_j;
        simulated_s += scenario.decision_interval_s;
        for (i, status) in obs.apps.iter().enumerate() {
            variants[i].push(obs.time_s, status.variant.map_or(0.0, |x| (x + 1) as f64));
            reclaimed[i].push(obs.time_s, status.cores_reclaimed as f64);
            max_reclaimed[i] = max_reclaimed[i].max(status.cores_reclaimed);
        }
        if scenario.stop_when_apps_finish && obs.all_apps_finished {
            break;
        }
        let report = monitor.observe_interval(&obs.latency_samples_s);
        let actions = policy.decide(&report);
        actuator.apply_all(&mut sim, &actions);
        recycled = Some(obs);
    }

    let app_outcomes: Vec<AppOutcome> = (0..app_ids.len())
        .map(|i| {
            let state = sim.app(i);
            AppOutcome {
                app: app_ids[i],
                finished: state.is_finished(),
                relative_execution_time: state.relative_execution_time(),
                inaccuracy_pct: state.inaccuracy_pct(),
                max_cores_reclaimed: max_reclaimed[i],
                instrumentation_overhead: state.profile().instrumentation_overhead,
            }
        })
        .collect();
    let phase_qos: Vec<PhaseQosStats> = LoadPhase::all()
        .iter()
        .enumerate()
        .filter(|(i, _)| phase_intervals[*i] > 0)
        .map(|(i, &phase)| PhaseQosStats {
            phase,
            intervals: phase_intervals[i],
            qos_violations: phase_violations[i],
            qos_violation_fraction: phase_violations[i] as f64 / phase_intervals[i] as f64,
            mean_p99_s: phase_p99_sum[i] / phase_intervals[i] as f64,
            mean_offered_load: phase_load_sum[i] / phase_intervals[i] as f64,
        })
        .collect();
    let mut trace = TraceBundle::new();
    for series in [latency, load, cores, power]
        .into_iter()
        .chain(variants)
        .chain(reclaimed)
    {
        trace.insert(series);
    }
    let finished_jobs = app_outcomes.iter().filter(|a| a.finished).count();
    let busy_intervals = intervals - idle_intervals;
    let mean_p99_s = p99_stats.mean();
    let off = ObsBuffer::new(ObsLevel::Off, 1, 1, DEFAULT_FLEET_CAPACITY);
    ColocationOutcome {
        service: scenario.service,
        policy: scenario.policy,
        apps: app_ids,
        intervals,
        idle_intervals,
        qos_target_s,
        mean_p99_s,
        max_p99_s: p99_stats.max(),
        qos_violation_fraction: violations as f64 / busy_intervals.max(1) as f64,
        tail_latency_ratio: mean_p99_s / qos_target_s,
        max_extra_service_cores: max_extra_cores,
        total_energy_j,
        mean_power_w: if simulated_s > 0.0 {
            total_energy_j / simulated_s
        } else {
            0.0
        },
        energy_per_completed_job_j: if finished_jobs > 0 {
            total_energy_j / finished_jobs as f64
        } else {
            0.0
        },
        phase_qos,
        app_outcomes,
        obs: EventLog::merge(ObsLevel::Off, [off]).summary(),
        trace,
    }
}

#[test]
fn engine_matches_the_full_sample_loop_byte_for_byte() {
    let engine = Engine::new();
    let loads = [
        ("constant 0.75", LoadProfile::constant(0.75)),
        ("troughs", trough_profile()),
        ("overload 1.05", LoadProfile::constant(1.05)),
    ];
    let (mut cases, mut stopped_early, mut with_idle) = (0, 0, 0);
    let mut mismatches = Vec::new();
    for service in ServiceId::all() {
        for app in [AppId::Canneal, AppId::Bayesian, AppId::Raytrace] {
            for policy in PolicyKind::all() {
                for (load_name, load) in &loads {
                    for samples in [1, 19, 20, 40, 1000] {
                        let scenario = Scenario::builder(service)
                            .app(app)
                            .policy(policy)
                            .load_profile(load.clone())
                            .horizon_intervals(HORIZON)
                            .stop_when_apps_finish(true)
                            .samples_per_interval(samples)
                            .seed(derive_seed(0x1a2e, cases as u64))
                            .build();
                        let engine_json = serde_json::to_string(&engine.run_scenario(&scenario))
                            .expect("outcomes serialize");
                        let reference = full_sample_run(&scenario, engine.catalog());
                        stopped_early += usize::from(reference.intervals < HORIZON);
                        with_idle += usize::from(reference.idle_intervals > 0);
                        let reference_json =
                            serde_json::to_string(&reference).expect("outcomes serialize");
                        if engine_json != reference_json {
                            mismatches.push(format!(
                                "{service:?}/{app:?}/{policy:?}/{load_name}/{samples} samples"
                            ));
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {cases} runs differ from the full-sample loop:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    assert_eq!(cases, 3 * 3 * 4 * 3 * 5);
    assert!(stopped_early > 0, "some runs must take the early-stop path");
    assert!(with_idle > 0, "some runs must cross idle troughs");
}
