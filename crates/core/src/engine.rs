//! Executes scenarios and suites, serially or in parallel.
//!
//! The [`Engine`] is the single place a [`Scenario`] is turned into a
//! [`ColocationOutcome`]: it owns the application [`Catalog`] (built once and shared
//! across every run) and an execution mode. Suites stream their results through a
//! pluggable [`ResultSink`]; results are always delivered in cell-index order, so a sink
//! observes the exact same sequence whether the engine runs serially or on a thread pool —
//! parallelism changes wall-clock time, never output.
//!
//! Each scenario derives all of its randomness from its own seed, so the grid cells are
//! embarrassingly parallel; the parallel mode fans cells out over `std::thread::scope`
//! workers pulling from an atomic work queue.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use serde::{Deserialize, Serialize};

use pliant_approx::catalog::Catalog;
use pliant_sim::colocation::{ColocationConfig, ColocationSim};
use pliant_telemetry::obs::{Event, EventLog, ObsAction, ObsBuffer, ObsLevel};
use pliant_telemetry::rng::derive_seed;
use pliant_telemetry::series::{TimeSeries, TraceBundle};
use pliant_telemetry::stats::OnlineStats;
use pliant_workloads::profile::LoadPhase;
use pliant_workloads::service::ServiceProfile;

use crate::actuator::{Action, Actuator};
use crate::controller::ControllerConfig;
use crate::experiment::{AppOutcome, ColocationOutcome, PhaseQosStats};
use crate::monitor::{MonitorConfig, PerformanceMonitor};
use crate::scenario::Scenario;
use crate::suite::Suite;

/// How an [`Engine`] schedules the cells of a suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run cells one after another on the calling thread.
    Serial,
    /// Fan cells out over worker threads (`threads == 0` means one worker per available
    /// core). Results are still delivered to the sink in cell-index order.
    Parallel {
        /// Worker-thread count; 0 = auto-detect.
        threads: usize,
    },
}

/// Receives suite results as they complete, in deterministic cell-index order.
pub trait ResultSink {
    /// Called once per cell with the cell index, the materialized scenario, and its
    /// outcome.
    fn on_result(&mut self, index: usize, scenario: &Scenario, outcome: &ColocationOutcome);

    /// Called once after every cell has been delivered.
    fn on_complete(&mut self, _total: usize) {}
}

/// One executed suite cell: the scenario that was run and what came out.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Cell index within the suite grid.
    pub index: usize,
    /// The fully-materialized scenario (including derived seed and label).
    pub scenario: Scenario,
    /// The experiment outcome.
    pub outcome: ColocationOutcome,
}

/// In-memory [`ResultSink`] collecting every cell outcome.
#[derive(Debug, Default)]
pub struct Collector {
    /// Collected results in cell-index order.
    pub results: Vec<CellOutcome>,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ResultSink for Collector {
    fn on_result(&mut self, index: usize, scenario: &Scenario, outcome: &ColocationOutcome) {
        self.results.push(CellOutcome {
            index,
            scenario: scenario.clone(),
            outcome: outcome.clone(),
        });
    }
}

/// Executes scenarios and suites; see the module docs.
#[derive(Debug, Clone)]
pub struct Engine {
    catalog: Catalog,
    mode: ExecMode,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// A serial engine with the paper-default calibrated catalog.
    pub fn new() -> Self {
        Engine {
            catalog: Catalog::default(),
            mode: ExecMode::Serial,
        }
    }

    /// Replaces the application catalog (e.g. with variants measured by a fresh
    /// design-space exploration).
    pub fn with_catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Switches to parallel execution with one worker per available core.
    pub fn parallel(mut self) -> Self {
        self.mode = ExecMode::Parallel { threads: 0 };
        self
    }

    /// Switches to parallel execution with an explicit worker count.
    pub fn parallel_threads(mut self, threads: usize) -> Self {
        self.mode = ExecMode::Parallel { threads };
        self
    }

    /// Switches back to serial execution.
    pub fn serial(mut self) -> Self {
        self.mode = ExecMode::Serial;
        self
    }

    /// The current execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The catalog scenarios run against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Runs one scenario to completion.
    pub fn run_scenario(&self, scenario: &Scenario) -> ColocationOutcome {
        execute_scenario(scenario, &self.catalog)
    }

    /// Runs one scenario with observability enabled at `level`, returning the outcome
    /// plus the merged decision-event stream (see [`pliant_telemetry::obs`]). With
    /// [`ObsLevel::Off`] this is exactly [`Self::run_scenario`] plus an empty log; the
    /// simulation itself is identical at every level — tracing observes decisions, it
    /// never alters them.
    pub fn run_scenario_traced(
        &self,
        scenario: &Scenario,
        level: ObsLevel,
    ) -> (ColocationOutcome, EventLog) {
        execute_scenario_traced(scenario, &self.catalog, level)
    }

    /// Runs every cell of a suite, streaming outcomes into `sink` in cell-index order.
    ///
    /// # Panics
    ///
    /// Panics if the suite violates its builder invariants (possible only for suites
    /// deserialized from an archive; see [`Suite::validate`]) or a cell's scenario is
    /// invalid.
    pub fn run_suite(&self, suite: &Suite, sink: &mut dyn ResultSink) {
        if let Err(e) = suite.validate() {
            panic!("invalid suite `{}`: {e}", suite.name());
        }
        let scenarios = suite.scenarios();
        match self.mode {
            ExecMode::Serial => {
                for (i, scenario) in scenarios.iter().enumerate() {
                    let outcome = execute_scenario(scenario, &self.catalog);
                    sink.on_result(i, scenario, &outcome);
                }
            }
            ExecMode::Parallel { threads } => {
                self.run_parallel(&scenarios, threads, sink);
            }
        }
        sink.on_complete(scenarios.len());
    }

    /// Runs a suite and returns every cell outcome (convenience over a [`Collector`]).
    pub fn run_collect(&self, suite: &Suite) -> Vec<CellOutcome> {
        let mut collector = Collector::new();
        self.run_suite(suite, &mut collector);
        collector.results
    }

    fn run_parallel(&self, scenarios: &[Scenario], threads: usize, sink: &mut dyn ResultSink) {
        let n = scenarios.len();
        if n == 0 {
            return;
        }
        let workers = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        }
        .min(n)
        .max(1);

        let next = AtomicUsize::new(0);
        // Each slot holds the cell's outcome or the payload of a panicking worker; the
        // delivery loop re-raises the first panic on the calling thread so a failing
        // scenario behaves the same in parallel mode as in serial mode (it must not
        // leave the delivery loop waiting on a slot that will never fill).
        type Slot = std::thread::Result<ColocationOutcome>;
        let slots: Mutex<Vec<Option<Slot>>> = Mutex::new((0..n).map(|_| None).collect());
        let ready = Condvar::new();
        let catalog = &self.catalog;

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        execute_scenario(&scenarios[i], catalog)
                    }));
                    let died = result.is_err();
                    // pliant-lint: allow(panic-hygiene): cell panics are captured by
                    // catch_unwind above and the lock only guards plain assignments,
                    // so the mutex cannot be poisoned.
                    let mut slots = slots.lock().expect("engine result slots poisoned");
                    slots[i] = Some(result);
                    drop(slots);
                    ready.notify_all();
                    if died {
                        break;
                    }
                });
            }

            // Deliver completed cells to the sink in index order as they become ready.
            let mut delivered = 0;
            // pliant-lint: allow(panic-hygiene): see above — workers cannot poison it.
            let mut guard = slots.lock().expect("engine result slots poisoned");
            while delivered < n {
                match guard[delivered].take() {
                    Some(Ok(outcome)) => {
                        drop(guard);
                        sink.on_result(delivered, &scenarios[delivered], &outcome);
                        delivered += 1;
                        // pliant-lint: allow(panic-hygiene): see above — unpoisonable.
                        guard = slots.lock().expect("engine result slots poisoned");
                    }
                    Some(Err(panic_payload)) => {
                        drop(guard);
                        // Stop handing out further cells, then re-raise once the
                        // in-flight workers drain (thread::scope joins them).
                        next.store(n, Ordering::Relaxed);
                        std::panic::resume_unwind(panic_payload);
                    }
                    None => {
                        // pliant-lint: allow(panic-hygiene): see above — unpoisonable.
                        guard = ready.wait(guard).expect("engine result slots poisoned");
                    }
                }
            }
        });
    }
}

/// Runs one scenario against a catalog. This is the execution core every public entry
/// point (engine, legacy free functions) funnels through.
pub(crate) fn execute_scenario(scenario: &Scenario, catalog: &Catalog) -> ColocationOutcome {
    execute_scenario_traced(scenario, catalog, ObsLevel::Off).0
}

/// Runs one scenario against a catalog with observability at `level`.
pub(crate) fn execute_scenario_traced(
    scenario: &Scenario,
    catalog: &Catalog,
    level: ObsLevel,
) -> (ColocationOutcome, EventLog) {
    // Scenarios normally come from the builder, but serde deserialization (archived
    // suites, hand-edited replays) bypasses it — re-check here so a bad archive fails
    // with a clear message instead of deep inside the simulator.
    if let Err(e) = scenario.validate() {
        panic!("invalid scenario `{}`: {e}", scenario.describe());
    }
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
    execute_with_config(scenario, config, catalog, level)
}

/// Runs one scenario with an explicit simulator configuration (the scenario supplies the
/// policy, controller knobs, horizon, and seed).
pub(crate) fn execute_with_config(
    scenario: &Scenario,
    config: ColocationConfig,
    catalog: &Catalog,
    level: ObsLevel,
) -> (ColocationOutcome, EventLog) {
    let service_id = config.service.id;
    let service_profile: ServiceProfile = config.service.clone();
    let app_ids = config.apps.clone();
    let mut sim = ColocationSim::new(config, catalog);

    let variant_counts: Vec<usize> = app_ids
        .iter()
        .map(|id| catalog.profile(*id).map_or(0, |p| p.variant_count()))
        .collect();
    let initial_cores: Vec<u32> = (0..app_ids.len()).map(|i| sim.app(i).cores()).collect();
    let controller_config = ControllerConfig {
        decision_interval_s: scenario.decision_interval_s,
        slack_threshold: scenario.slack_threshold,
        consecutive_slack_required: scenario.consecutive_slack_required,
    };
    let start_pointer = (derive_seed(scenario.seed, 7) % app_ids.len() as u64) as usize;
    let mut policy = scenario.policy.build(
        controller_config,
        &variant_counts,
        &initial_cores,
        start_pointer,
    );
    let mut monitor = PerformanceMonitor::new(
        MonitorConfig::for_qos(service_profile.qos_target_s),
        derive_seed(scenario.seed, 8),
    );
    let mut actuator = Actuator::new();

    let fair_service_cores = sim.service_cores();
    let mut p99_stats = OnlineStats::new();
    let mut violations = 0usize;
    let mut intervals = 0usize;
    let mut max_extra_cores = 0u32;

    let horizon = scenario.max_intervals();
    let mut latency_series = TimeSeries::with_capacity("p99_latency_s", horizon);
    let mut load_series = TimeSeries::with_capacity("offered_load", horizon);
    let mut cores_series = TimeSeries::with_capacity("service_extra_cores", horizon);
    let mut power_series = TimeSeries::with_capacity("power_w", horizon);
    let mut total_energy_j = 0.0f64;
    let mut simulated_s = 0.0f64;
    let mut variant_series: Vec<TimeSeries> = app_ids
        .iter()
        .map(|id| TimeSeries::with_capacity(format!("variant_{}", id.name()), horizon))
        .collect();
    let mut reclaimed_series: Vec<TimeSeries> = app_ids
        .iter()
        .map(|id| TimeSeries::with_capacity(format!("reclaimed_{}", id.name()), horizon))
        .collect();

    // Per-load-phase QoS accumulators, indexed in `LoadPhase::all()` order.
    let mut phase_intervals = [0usize; 4];
    let mut phase_violations = [0usize; 4];
    let mut phase_p99_sum = [0.0f64; 4];
    let mut phase_load_sum = [0.0f64; 4];

    let max_intervals = scenario.max_intervals();
    let mut idle_intervals = 0usize;
    // Decision-event buffer for the run (source 1 = the node, matching the cluster
    // convention where source 0 is the fleet coordinator). At the default
    // `ObsLevel::Off` every emit below is a single-branch no-op.
    let mut obs_buf = ObsBuffer::new(level, 1, 1, pliant_telemetry::obs::DEFAULT_FLEET_CAPACITY);
    // The previous interval's observation is recycled into the next advance so the
    // sample and status buffers are allocated once per run, not once per interval.
    let mut recycled = None;
    for k in 0..max_intervals {
        // The monitor picks the samples it will read before they exist, and the
        // simulator materialises only those: the unread ones merely advance the sample
        // stream, so every stream and every report is the same as with all of them.
        let obs = sim.advance_selected(scenario.decision_interval_s, recycled.take(), |n, s| {
            monitor.select_samples(n, s)
        });
        intervals += 1;
        // An idle interval (zero arrivals, e.g. a load-profile trough) served no
        // requests: there is no latency to report, so it contributes nothing to the
        // latency/QoS statistics and shows up as 0 in the latency trace.
        let idle = obs.arrivals == 0;
        if idle {
            idle_intervals += 1;
        } else {
            p99_stats.push(obs.p99_latency_s);
            if obs.qos_violated() {
                violations += 1;
                obs_buf.emit(
                    k as u32,
                    obs.time_s,
                    Event::QosViolation {
                        node: 0,
                        p99_s: obs.p99_latency_s,
                        qos_target_s: service_profile.qos_target_s,
                    },
                );
            }
            let phase_idx = LoadPhase::all()
                .iter()
                .position(|p| *p == obs.load_phase)
                // pliant-lint: allow(panic-hygiene): LoadPhase::all() enumerates every
                // variant; a new phase without an `all()` entry fails tests first.
                .expect("every phase is enumerated");
            phase_intervals[phase_idx] += 1;
            phase_violations[phase_idx] += usize::from(obs.qos_violated());
            phase_p99_sum[phase_idx] += obs.p99_latency_s;
            phase_load_sum[phase_idx] += obs.offered_load;
        }
        let extra = sim.service_cores().saturating_sub(fair_service_cores);
        max_extra_cores = max_extra_cores.max(extra);

        latency_series.push(obs.time_s, if idle { 0.0 } else { obs.p99_latency_s });
        load_series.push(obs.time_s, obs.offered_load);
        cores_series.push(obs.time_s, extra as f64);
        power_series.push(obs.time_s, obs.power_w);
        total_energy_j += obs.energy_j;
        simulated_s += scenario.decision_interval_s;
        for (i, status) in obs.apps.iter().enumerate() {
            // Variant index for plotting: 0 = precise, k = k-th approximate variant.
            let v = status.variant.map_or(0.0, |x| (x + 1) as f64);
            variant_series[i].push(obs.time_s, v);
            reclaimed_series[i].push(obs.time_s, status.cores_reclaimed as f64);
        }

        if scenario.stop_when_apps_finish && obs.all_apps_finished {
            break;
        }

        // Monitor → policy → actuator, exactly once per decision interval. No-signal
        // reports are passed through rather than filtered: policies that keep pending
        // time-insensitive actions (e.g. the static-most-approximate ablation's initial
        // pin) must still get their turn even when a run starts in an idle trough; the
        // `Policy` contract requires treating no-signal as neither violation nor slack.
        let report = monitor.observe_selected(&obs.latency_samples_s);
        let actions = policy.decide(&report);
        if obs_buf.enabled() {
            // Traced path: record each controller decision and, when the actuator
            // accepts it, the resulting state change. Applying actions one at a time
            // is semantically identical to `apply_all`.
            for action in &actions {
                let (app, obs_action) = match *action {
                    Action::SetVariant { app, .. } => (app, ObsAction::SetVariant),
                    Action::ReclaimCore { app } => (app, ObsAction::ReclaimCore),
                    Action::ReturnCore { app } => (app, ObsAction::ReturnCore),
                };
                obs_buf.emit(
                    k as u32,
                    obs.time_s,
                    Event::ControllerDecision {
                        node: 0,
                        app: app as u32,
                        signal_p99_s: report.smoothed_p99_s,
                        slack: report.slack_fraction,
                        action: obs_action,
                    },
                );
                if actuator.apply(&mut sim, *action) {
                    let applied = match *action {
                        Action::SetVariant { app, variant } => Event::VariantSwitch {
                            node: 0,
                            app: app as u32,
                            variant: variant.map_or(-1, |v| v as i64),
                        },
                        Action::ReclaimCore { app } => Event::CoreReclaimed {
                            node: 0,
                            app: app as u32,
                        },
                        Action::ReturnCore { app } => Event::CoreReturned {
                            node: 0,
                            app: app as u32,
                        },
                    };
                    obs_buf.emit(k as u32, obs.time_s, applied);
                }
            }
        } else {
            actuator.apply_all(&mut sim, &actions);
        }
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
                // The reclaimed series records every interval's count exactly.
                max_cores_reclaimed: reclaimed_series[i].max_value().map_or(0, |m| m as u32),
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
    trace.insert(latency_series);
    trace.insert(load_series);
    trace.insert(cores_series);
    trace.insert(power_series);
    for s in variant_series {
        trace.insert(s);
    }
    for s in reclaimed_series {
        trace.insert(s);
    }

    let finished_jobs = app_outcomes.iter().filter(|a| a.finished).count();
    let busy_intervals = intervals - idle_intervals;
    let mean_p99_s = p99_stats.mean();
    let log = EventLog::merge(level, [obs_buf]);
    let outcome = ColocationOutcome {
        service: service_id,
        policy: scenario.policy,
        apps: app_ids,
        intervals,
        idle_intervals,
        qos_target_s: service_profile.qos_target_s,
        mean_p99_s,
        max_p99_s: p99_stats.max(),
        qos_violation_fraction: violations as f64 / busy_intervals.max(1) as f64,
        tail_latency_ratio: mean_p99_s / service_profile.qos_target_s,
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
        obs: log.summary(),
        trace,
    };
    (outcome, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::suite::SeedMode;
    use pliant_approx::catalog::AppId;
    use pliant_workloads::profile::LoadPhase;
    use pliant_workloads::service::ServiceId;

    fn small_suite() -> Suite {
        Suite::new(
            Scenario::builder(ServiceId::Nginx)
                .app(AppId::Canneal)
                .horizon_intervals(20)
                .seed(11)
                .build(),
        )
        .named("engine-test")
        .for_each_app([AppId::Canneal, AppId::Snp, AppId::Bayesian])
        .sweep_policies([PolicyKind::Precise, PolicyKind::Pliant])
    }

    #[test]
    fn serial_and_parallel_runs_agree() {
        let suite = small_suite();
        let serial = Engine::new().run_collect(&suite);
        let parallel = Engine::new().parallel_threads(4).run_collect(&suite);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.outcome.mean_p99_s, b.outcome.mean_p99_s);
            assert_eq!(
                a.outcome.qos_violation_fraction,
                b.outcome.qos_violation_fraction
            );
            assert_eq!(a.outcome.app_outcomes, b.outcome.app_outcomes);
        }
    }

    #[test]
    fn results_arrive_in_cell_index_order() {
        struct OrderCheck {
            next: usize,
            completed: Option<usize>,
        }
        impl ResultSink for OrderCheck {
            fn on_result(&mut self, index: usize, _s: &Scenario, _o: &ColocationOutcome) {
                assert_eq!(index, self.next, "results must stream in cell order");
                self.next += 1;
            }
            fn on_complete(&mut self, total: usize) {
                self.completed = Some(total);
            }
        }
        let suite = small_suite();
        let mut sink = OrderCheck {
            next: 0,
            completed: None,
        };
        Engine::new()
            .parallel_threads(3)
            .run_suite(&suite, &mut sink);
        assert_eq!(sink.completed, Some(suite.len()));
        assert_eq!(sink.next, suite.len());
    }

    #[test]
    fn engine_matches_scenario_run() {
        let scenario = Scenario::builder(ServiceId::Memcached)
            .app(AppId::Plsa)
            .horizon_intervals(25)
            .seed(123)
            .build();
        let via_engine = Engine::new().run_scenario(&scenario);
        let via_scenario = scenario.run();
        assert_eq!(via_engine.mean_p99_s, via_scenario.mean_p99_s);
        assert_eq!(via_engine.policy, PolicyKind::Pliant);
    }

    #[test]
    fn parallel_worker_panic_propagates_instead_of_deadlocking() {
        // An engine whose catalog is missing the scenario's app panics during execution;
        // in parallel mode that panic must reach the caller (not hang the delivery loop).
        let empty = Catalog::from_profiles(Vec::new());
        let suite = small_suite();
        let engine = Engine::new().with_catalog(empty).parallel_threads(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_collect(&suite);
        }));
        assert!(
            result.is_err(),
            "the worker panic must propagate to the caller"
        );
    }

    #[test]
    fn constant_load_runs_report_a_single_steady_phase() {
        let scenario = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Snp)
            .horizon_intervals(15)
            .seed(3)
            .build();
        let outcome = Engine::new().run_scenario(&scenario);
        assert_eq!(outcome.phase_qos.len(), 1);
        let steady = &outcome.phase_qos[0];
        assert_eq!(steady.phase, LoadPhase::Steady);
        assert_eq!(steady.intervals, outcome.intervals);
        assert_eq!(
            steady.qos_violation_fraction,
            outcome.qos_violation_fraction
        );
        assert!((steady.mean_offered_load - 0.75).abs() < 1e-12);
        let load = outcome
            .trace
            .get("offered_load")
            .expect("offered_load series");
        assert_eq!(load.len(), outcome.intervals);
        assert!(load.values().iter().all(|v| (*v - 0.75).abs() < 1e-12));
    }

    #[test]
    fn flash_crowd_runs_split_qos_stats_by_phase() {
        use pliant_workloads::profile::LoadProfile;
        let scenario = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Snp)
            .load_profile(LoadProfile::FlashCrowd {
                base: 0.4,
                peak: 1.0,
                start_s: 10.0,
                ramp_s: 4.0,
                hold_s: 8.0,
                decay_s: 4.0,
            })
            .horizon_intervals(30)
            .stop_when_apps_finish(false)
            .seed(5)
            .build();
        let outcome = Engine::new().run_scenario(&scenario);
        for phase in LoadPhase::all() {
            assert!(
                outcome.phase(phase).is_some(),
                "a 30 s run over a 16 s transient must visit {phase}"
            );
        }
        let total: usize = outcome.phase_qos.iter().map(|p| p.intervals).sum();
        assert_eq!(total + outcome.idle_intervals, outcome.intervals);
        let steady = outcome.phase(LoadPhase::Steady).unwrap();
        let peak = outcome.phase(LoadPhase::Peak).unwrap();
        assert!(peak.mean_offered_load > steady.mean_offered_load);
    }

    #[test]
    fn idle_intervals_are_excluded_from_qos_statistics() {
        use pliant_workloads::profile::LoadProfile;
        let run = |to: f64| {
            let scenario = Scenario::builder(ServiceId::Memcached)
                .app(AppId::Canneal)
                .policy(PolicyKind::Precise)
                .load_profile(LoadProfile::Step {
                    base: 0.9,
                    to,
                    at_s: 15.0,
                })
                .horizon_intervals(30)
                .stop_when_apps_finish(false)
                .seed(7)
                .build();
            Engine::new().run_scenario(&scenario)
        };
        let with_trough = run(0.0);
        assert_eq!(with_trough.intervals, 30);
        assert_eq!(with_trough.idle_intervals, 15);
        // The busy half violates QoS under the precise baseline; the idle half must not
        // dilute the fraction toward ~50%.
        let busy_only = run(0.9);
        assert_eq!(busy_only.idle_intervals, 0);
        assert!(
            (with_trough.qos_violation_fraction - busy_only.qos_violation_fraction).abs() < 0.15,
            "idle intervals must not dilute the violation fraction ({} vs {})",
            with_trough.qos_violation_fraction,
            busy_only.qos_violation_fraction
        );
        let phase_total: usize = with_trough.phase_qos.iter().map(|p| p.intervals).sum();
        assert_eq!(
            phase_total + with_trough.idle_intervals,
            with_trough.intervals
        );
        // Idle intervals report a 0 latency trace point (no requests, no tail).
        let latency = with_trough.trace.get("p99_latency_s").unwrap().values();
        assert!(latency[16..].iter().all(|l| *l == 0.0));
        assert!(latency[..15].iter().all(|l| *l > 0.0));
    }

    #[test]
    fn outcomes_from_pre_profile_archives_still_deserialize() {
        // `phase_qos` / `idle_intervals` did not exist in earlier archives; stripping
        // them must still yield a readable outcome (empty stats), mirroring the
        // scenario-side legacy-archive guarantee.
        let scenario = Scenario::builder(ServiceId::Nginx)
            .app(AppId::Snp)
            .horizon_intervals(5)
            .build();
        let outcome = Engine::new().run_scenario(&scenario);
        let json = serde_json::to_string(&outcome).expect("serializable");
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let entries = match value {
            serde::Value::Object(entries) => entries,
            _ => panic!("outcomes serialize as objects"),
        };
        let legacy = serde_json::to_string(&serde::Value::Object(
            entries
                .into_iter()
                .filter(|(k, _)| k != "phase_qos" && k != "idle_intervals")
                .collect(),
        ))
        .expect("serializable");
        let back: ColocationOutcome =
            serde_json::from_str(&legacy).expect("legacy outcome archives deserialize");
        assert!(back.phase_qos.is_empty());
        assert_eq!(back.idle_intervals, 0);
        assert_eq!(back.intervals, outcome.intervals);
    }

    #[test]
    fn idle_troughs_hold_controller_state() {
        use pliant_workloads::profile::LoadProfile;
        // Load drops to zero mid-run: the idle intervals deliver no samples, the monitor
        // reports no-signal, and the controller must hold instead of relaxing on
        // fabricated headroom.
        let scenario = Scenario::builder(ServiceId::Memcached)
            .app(AppId::Canneal)
            .load_profile(LoadProfile::Step {
                base: 0.9,
                to: 0.0,
                at_s: 15.0,
            })
            .horizon_intervals(30)
            .stop_when_apps_finish(false)
            .seed(7)
            .build();
        let outcome = Engine::new().run_scenario(&scenario);
        let variants = outcome.trace.get("variant_canneal").unwrap().values();
        let reclaimed = outcome.trace.get("reclaimed_canneal").unwrap().values();
        assert!(
            variants[14] > 0.0 || reclaimed[14] > 0.0,
            "memcached at 90% load with canneal must have escalated before the drop"
        );
        assert!(
            variants[16..].windows(2).all(|w| w[0] == w[1])
                && reclaimed[16..].windows(2).all(|w| w[0] == w[1]),
            "idle intervals carry no evidence, so the runtime must hold its state"
        );
    }

    #[test]
    fn energy_accounting_is_consistent_with_the_power_trace() {
        let scenario = Scenario::builder(ServiceId::MongoDb)
            .app(AppId::Raytrace)
            .horizon_intervals(80)
            .stop_when_apps_finish(false)
            .seed(13)
            .build();
        let outcome = Engine::new().run_scenario(&scenario);
        let power = outcome.trace.get("power_w").expect("power_w series");
        assert_eq!(power.len(), outcome.intervals);
        assert!(power.values().iter().all(|w| *w > 0.0));
        // Total energy is the integral of the power trace (1 s intervals).
        let integral: f64 = power.values().iter().sum();
        assert!(
            (outcome.total_energy_j - integral).abs() < 1e-9 * integral.max(1.0),
            "total energy {} must integrate the power trace {integral}",
            outcome.total_energy_j
        );
        assert!(
            (outcome.mean_power_w - integral / outcome.intervals as f64).abs() < 1e-9,
            "mean power must be energy over simulated time"
        );
        // Raytrace finishes well within 80 s, so energy-per-job is defined.
        assert_eq!(
            outcome.energy_per_completed_job_j, outcome.total_energy_j,
            "one finished job means energy-per-job equals the total"
        );
    }

    #[test]
    fn precise_and_pliant_energy_differ_through_core_activity() {
        // Pliant reclaims cores and approximates jobs (less work, earlier finish), so
        // under common random numbers its energy must not exceed the precise run's by
        // more than noise — and the jobs-finish-early effect typically makes it lower.
        let build = |policy: PolicyKind| {
            Scenario::builder(ServiceId::Memcached)
                .app(AppId::Canneal)
                .policy(policy)
                .horizon_intervals(60)
                .stop_when_apps_finish(false)
                .seed(29)
                .build()
        };
        let engine = Engine::new();
        let precise = engine.run_scenario(&build(PolicyKind::Precise));
        let pliant = engine.run_scenario(&build(PolicyKind::Pliant));
        assert!(precise.total_energy_j > 0.0 && pliant.total_energy_j > 0.0);
        assert!(
            pliant.total_energy_j < precise.total_energy_j,
            "approximated jobs finish earlier, so the Pliant node idles sooner \
             ({} vs {} J)",
            pliant.total_energy_j,
            precise.total_energy_j
        );
    }

    #[test]
    fn independent_mode_changes_cell_randomness() {
        let crn = small_suite();
        let ind = small_suite().seed_mode(SeedMode::Independent);
        let crn_cells = crn.scenarios();
        let ind_cells = ind.scenarios();
        assert_eq!(crn_cells.len(), ind_cells.len());
        assert!(crn_cells
            .iter()
            .zip(&ind_cells)
            .any(|(a, b)| a.seed != b.seed));
    }
}
