//! Integration tests for the hot-path overhaul's two documented contracts.
//!
//! 1. **Bucket-resolution bound.** The monitor's streaming histogram estimator may
//!    differ from the exact sorted-order p99 of the samples it ingested by at most one
//!    bucket width (~3% relative, see `LatencyHistogram::bucket_bounds`). This is the
//!    precise sense in which the interval p99 "moved from exact to histogram", and it
//!    must hold at every operating point — so it is swept across every service profile
//!    and every load-profile shape.
//! 2. **Buffer reuse never leaks.** `ColocationSim::advance_reusing` recycles the
//!    previous interval's sample buffer; an idle interval must still deliver an empty
//!    sample set and drive the monitor to a `no_signal` report, never a stale one.

use pliant::prelude::*;
use pliant::telemetry::histogram::LatencyHistogram;

/// A monitor that ingests every sample (no subsampling), so its report is exactly the
/// histogram estimate over the full interval.
fn full_ingest_monitor(qos_target_s: f64) -> PerformanceMonitor {
    PerformanceMonitor::new(
        MonitorConfig {
            base_sample_rate: 1.0,
            elevated_sample_rate: 1.0,
            ..MonitorConfig::for_qos(qos_target_s)
        },
        42,
    )
}

/// The exact p99 under the histogram's rank definition: the smallest sample with
/// cumulative count >= ceil(0.99 n).
fn exact_rank_p99(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let target = ((0.99 * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
    sorted[target - 1]
}

fn load_profile_zoo() -> Vec<LoadProfile> {
    vec![
        LoadProfile::constant(0.75),
        LoadProfile::Step {
            base: 0.85,
            to: 0.45,
            at_s: 6.0,
        },
        LoadProfile::Diurnal {
            base: 0.6,
            amplitude: 0.3,
            period_s: 12.0,
            phase_s: 0.0,
        },
        LoadProfile::FlashCrowd {
            base: 0.4,
            peak: 1.0,
            start_s: 4.0,
            ramp_s: 2.0,
            hold_s: 4.0,
            decay_s: 2.0,
        },
    ]
}

#[test]
fn histogram_p99_stays_within_one_bucket_width_of_the_exact_p99() {
    let _exclusive = exclusive();
    let catalog = Catalog::default();
    for service in ServiceId::all() {
        for profile in load_profile_zoo() {
            let cfg = ColocationConfig::paper_default(service, &[AppId::Canneal], 11)
                .with_load_profile(profile.clone());
            let qos = cfg.service.qos_target_s;
            let mut sim = ColocationSim::new(cfg, &catalog);
            let mut monitor = full_ingest_monitor(qos);
            let mut recycled = None;
            for _ in 0..15 {
                let obs = sim.advance_reusing(1.0, recycled.take());
                let report = monitor.observe_interval(&obs.latency_samples_s);
                if !report.no_signal {
                    // Compare in the histogram's microsecond domain: the estimate and
                    // the exact rank statistic must land within one bucket width.
                    let exact_us = exact_rank_p99(&obs.latency_samples_s) * 1e6;
                    let (lo, hi) = LatencyHistogram::bucket_bounds(exact_us);
                    let width = hi - lo;
                    let estimate_us = report.p99_s * 1e6;
                    assert!(
                        (estimate_us - exact_us).abs() <= width,
                        "{service} under {}: histogram p99 {estimate_us:.2}us deviates \
                         from exact {exact_us:.2}us by more than one bucket width \
                         ({width:.2}us)",
                        profile.describe(),
                    );
                }
                recycled = Some(obs);
            }
        }
    }
}

#[test]
fn reused_buffers_report_no_signal_on_idle_intervals_after_busy_ones() {
    let _exclusive = exclusive();
    // The monitor-facing half of the buffer-reuse contract: drive the exact engine
    // pattern (recycled observations feeding the monitor) through a busy -> idle ->
    // busy load profile and pin that the idle interval is a true no-signal, with the
    // EWMA held from the busy interval, and that traffic recovers afterwards.
    let catalog = Catalog::default();
    let profile = LoadProfile::Trace {
        points: vec![(0.0, 0.8), (1.0, 0.0), (2.0, 0.0), (3.0, 0.8)],
    };
    let cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::KMeans], 19)
        .with_load_profile(profile);
    let qos = cfg.service.qos_target_s;
    let mut sim = ColocationSim::new(cfg, &catalog);
    let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(qos), 7);

    let busy_obs = sim.advance_reusing(1.0, None);
    assert_eq!(busy_obs.latency_samples_s.len(), 1_000);
    let busy_report = monitor.observe_interval(&busy_obs.latency_samples_s);
    assert!(!busy_report.no_signal);
    assert!(busy_report.sampled > 0);

    let idle_obs = sim.advance_reusing(1.0, Some(busy_obs));
    assert_eq!(idle_obs.arrivals, 0);
    assert!(
        idle_obs.latency_samples_s.is_empty(),
        "the recycled buffer must not leak the busy interval's samples"
    );
    let idle_report = monitor.observe_interval(&idle_obs.latency_samples_s);
    assert!(idle_report.no_signal, "an idle interval is a no-signal");
    assert_eq!(idle_report.sampled, 0);
    assert_eq!(idle_report.smoothed_p99_s, busy_report.smoothed_p99_s);
    assert_eq!(idle_report.slack_fraction, 0.0);

    let _ = sim.advance_reusing(1.0, Some(idle_obs));
    let busy_again = sim.advance_reusing(1.0, None);
    assert_eq!(busy_again.latency_samples_s.len(), 1_000);
    let report = monitor.observe_interval(&busy_again.latency_samples_s);
    assert!(!report.no_signal, "traffic must be observed again");
}

// ---------------------------------------------------------------------------
// 3. Observability's Null-sink contract: with tracing off, and on a saturated
//    preallocated ring, the per-interval emit path allocates nothing — so the hot
//    loop's allocation profile is unchanged by the observability layer.
// ---------------------------------------------------------------------------

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use pliant::telemetry::obs::{Event, EventKind, MetricsRegistry, ObsBuffer, ObsLevel};

/// The system allocator with a thread-local allocation counter, so concurrently
/// running tests on other threads cannot perturb a measurement, and a process-wide one
/// for code that allocates on threads it spawns itself.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count_allocation() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs the tests of this file one at a time: a process-wide count is only
/// attributable while no other test allocates, so every test holds this guard.
fn exclusive() -> MutexGuard<'static, ()> {
    static EXCLUSIVE: Mutex<()> = Mutex::new(());
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made by `f` on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    // Touch the thread-local once outside the measured window, so its lazy
    // registration cannot be charged to `f`.
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations made by `f` and every thread running meanwhile; callers hold
/// [`exclusive`] so no other test contributes.
fn process_allocations_during(f: impl FnOnce()) -> u64 {
    let before = PROCESS_ALLOCATIONS.load(Ordering::SeqCst);
    f();
    PROCESS_ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn obs_emit_is_allocation_free_when_off_and_when_saturated() {
    let _exclusive = exclusive();
    let event = Event::QosViolation {
        node: 0,
        p99_s: 4e-4,
        qos_target_s: 2e-4,
    };

    // Off: the default Null-sink configuration used by every untraced run.
    let mut off = ObsBuffer::disabled();
    assert_eq!(
        allocations_during(|| {
            for i in 0..10_000u32 {
                off.emit(i, i as f64, event);
            }
        }),
        0,
        "emitting through a disabled buffer must never allocate"
    );

    // On, past capacity: the ring preallocates at construction and then recycles
    // slots, so sustained emission — including wrap-around eviction — is free.
    let mut on = ObsBuffer::new(ObsLevel::Decisions, 1, 1, 64);
    assert_eq!(
        allocations_during(|| {
            for i in 0..10_000u32 {
                on.emit(i, i as f64, event);
            }
        }),
        0,
        "a preallocated ring must absorb sustained emission without allocating"
    );

    // The per-kind counters the summary is folded from are plain arrays.
    let mut registry = MetricsRegistry::new();
    assert_eq!(
        allocations_during(|| {
            for kind in EventKind::ALL {
                for w in 0..1_000u32 {
                    registry.record(kind, w);
                }
            }
        }),
        0,
        "counter recording must never allocate"
    );
}

// ---------------------------------------------------------------------------
// 4. The fleet coordinator's per-interval decisions: once their output buffers are
//    warm, the balancer split, the autoscaler plan, and a placement drain allocate
//    nothing — on unit weights (an exact fleet) and with part of the fleet masked out.
// ---------------------------------------------------------------------------

use pliant::cluster::{Autoscaler, AutoscalerAction, BatchScheduler, NodeSnapshot};

fn fleet_snapshots(n: usize, free_slots: usize) -> Vec<NodeSnapshot> {
    (0..n)
        .map(|i| NodeSnapshot {
            index: i,
            smoothed_p99_s: 0.004 + 0.002 * i as f64,
            utilization: 0.3 + 0.05 * i as f64,
            free_slots,
            qos_target_s: 0.01,
        })
        .collect()
}

#[test]
fn fleet_decisions_are_allocation_free_once_warm() {
    let _exclusive = exclusive();
    let n = 8;
    let snapshots = fleet_snapshots(n, 1);
    let unit = vec![1usize; n];
    let mask: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();

    for kind in BalancerKind::all() {
        let mut balancer = kind.build(n, 5);
        let mut out = Vec::new();
        balancer.split_grouped(6.0, &snapshots, &unit, &mask, &mut out);
        assert_eq!(
            allocations_during(|| {
                for _ in 0..100 {
                    balancer.split_grouped(6.0, &snapshots, &unit, &mask, &mut out);
                }
            }),
            0,
            "{kind}: a warm split must reuse its output buffer"
        );
        assert!(out
            .iter()
            .zip(&mask)
            .all(|(load, serving)| *serving || *load == 0.0));
    }

    // Alternate a light and an overloading load over a fleet with latency headroom,
    // so the planner drains, parks, and scales back out inside the measured window.
    let healthy: Vec<NodeSnapshot> = snapshots
        .iter()
        .map(|s| NodeSnapshot {
            smoothed_p99_s: 0.005,
            ..*s
        })
        .collect();
    let mut scaler = Autoscaler::for_instances(AutoscalerConfig::default(), unit.clone());
    let mut membership_changes = 0;
    assert_eq!(
        allocations_during(|| {
            for t in 0..100 {
                let load = if t % 20 < 10 { 2.0 } else { 6.5 };
                if scaler.plan_grouped(load, &healthy, 1) != AutoscalerAction::Hold {
                    membership_changes += 1;
                }
            }
        }),
        0,
        "autoscaler planning must not allocate"
    );
    assert!(
        membership_changes > 0,
        "the load trace must move the active set"
    );

    let mut scheduler =
        BatchScheduler::new(SchedulerKind::QosSlackAware, vec![AppId::Canneal; 64], 0);
    let mut free = fleet_snapshots(n, 8);
    assert_eq!(
        allocations_during(|| {
            while let Some((node, _, _)) = scheduler.pop_placement_grouped(&free, &unit) {
                free[node].free_slots -= 1;
            }
        }),
        0,
        "draining the job queue must not allocate"
    );
    assert_eq!(
        scheduler.pending(),
        0,
        "eight nodes × eight slots take the whole queue"
    );
}

// ---------------------------------------------------------------------------
// 5. The parallel fleet step: its batch buffers circulate between the coordinator and
//    the pool worker and keep their capacity, so once warm a 2-thread interval
//    allocates no more than a serial one — counted on every thread, the worker's
//    included.
// ---------------------------------------------------------------------------

#[test]
fn parallel_fleet_steps_allocate_no_more_than_serial_once_warm() {
    let _exclusive = exclusive();
    // Five nodes split unevenly over two threads (chunks of 3 and 2).
    let scenario = ClusterScenario::builder(ServiceId::Memcached)
        .nodes(5)
        .jobs([
            AppId::Canneal,
            AppId::Snp,
            AppId::Bayesian,
            AppId::KMeans,
            AppId::Canneal,
            AppId::Snp,
            AppId::Bayesian,
        ])
        .avg_node_load(0.7)
        .horizon_intervals(40)
        .seed(2024)
        .build();
    let catalog = Catalog::default();
    let mut serial = ClusterSim::new(&scenario, &catalog);
    let mut parallel = ClusterSim::new(&scenario, &catalog);
    // Steps `sim` through `intervals` recycled intervals on `threads` threads and
    // returns the allocations made meanwhile on every thread.
    let run = |sim: &mut ClusterSim, threads: usize, intervals: usize| {
        process_allocations_during(|| {
            for _ in 0..intervals {
                let interval = sim.advance_threads(threads);
                sim.recycle_interval(interval);
            }
        })
    };
    run(&mut serial, 1, 15);
    run(&mut parallel, 2, 15);
    // Both fleets replay the same intervals window by window, so the simulation
    // allocates identically on each side and only the step path can differ. The test
    // harness may allocate once, as the previous test's thread winds down; it can land
    // in one window but not in all three.
    let excess: Vec<i64> = (0..3)
        .map(|_| run(&mut parallel, 2, 8) as i64 - run(&mut serial, 1, 8) as i64)
        .collect();
    assert!(
        excess.iter().any(|&e| e <= 0),
        "a warm 2-thread fleet allocated more than the serial fleet in every window \
         of 8 intervals (excess per window: {excess:?})"
    );
}

// ---------------------------------------------------------------------------
// 6. The lazy single-node interval: the monitor selects into the simulator's index
//    buffer and ingests only the selected samples. Both buffers are sized for the
//    full interval on the first busy one, so warm intervals allocate nothing, idle
//    troughs, escalated sampling and the full-ingest fallback included.
// ---------------------------------------------------------------------------

#[test]
fn warm_lazy_intervals_are_allocation_free() {
    let _exclusive = exclusive();
    let catalog = Catalog::default();
    let profile = LoadProfile::Trace {
        points: vec![(0.0, 0.9), (6.0, 0.9), (7.0, 0.0), (9.0, 0.0), (10.0, 0.9)],
    };
    let mut cfg = ColocationConfig::paper_default(ServiceId::Memcached, &[AppId::Canneal], 31)
        .with_load_profile(profile);
    // 5% of 100 samples is below the monitor's 20-sample floor, so relaxed intervals
    // take the full-ingest fallback and escalated (25%) ones usually do not.
    cfg.samples_per_interval = 100;
    let qos = cfg.service.qos_target_s;
    let mut sim = ColocationSim::new(cfg, &catalog);
    let mut monitor = PerformanceMonitor::new(MonitorConfig::for_qos(qos), 9);
    let mut step = |recycled: Option<_>, rates: &mut Vec<f64>| {
        rates.push(monitor.sample_rate());
        let obs = sim.advance_selected(1.0, recycled, |n, s| monitor.select_samples(n, s));
        let report = monitor.observe_selected(&obs.latency_samples_s);
        (obs, report)
    };
    let mut rates = Vec::with_capacity(64);
    let (mut obs, _) = step(None, &mut rates);
    let mut reports = Vec::with_capacity(64);
    let allocations = allocations_during(|| {
        for _ in 0..24 {
            let (next, report) = step(Some(obs), &mut rates);
            reports.push(report);
            obs = next;
        }
    });
    assert_eq!(allocations, 0, "a warm lazy interval must not allocate");
    assert!(reports.iter().any(|r| r.no_signal), "the trough must idle");
    assert!(
        reports.iter().any(|r| r.sampled == 100),
        "some must fall back"
    );
    assert!(
        reports.iter().any(|r| !r.no_signal && r.sampled < 100),
        "some must subsample"
    );
    assert!(
        rates.contains(&0.05) && rates.contains(&0.25),
        "memcached at 90% load beside canneal must escalate and relax ({rates:?})"
    );
}
