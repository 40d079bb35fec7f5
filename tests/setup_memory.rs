//! Memory guard for clustered fleet set-up.
//!
//! A clustered fleet's set-up should cost memory per group, per member run, per rack
//! and per fault, not per logical node. The only per-logical-job allocations left in
//! `ClusterRun::new` are the scenario's job list, which the fleet keeps a copy of,
//! and the scheduler's queue of the jobs that do not fit at start: about 1.5 bytes per
//! job for the `fleet_hyperscale` family (two one-byte jobs per node, half queued).
//! This test counts the bytes `ClusterRun::new` requests on its thread at 10⁴ and 10⁶
//! logical nodes and allows at most 1 MiB of growth beyond 3 bytes per added job.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pliant::prelude::*;

struct CountingAllocator;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator may run while this thread's locals are torn down.
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The `fleet_hyperscale` shape: the day/night energy fleet, clustered four ways,
/// with one scheduled crash and one straggler.
fn hyperscale(nodes: usize) -> ClusterScenario {
    let mut s = pliant_bench::cluster_energy_scenario_at_scale(nodes, PolicyKind::Pliant, 3);
    s.approximation = FleetApproximation::Clustered {
        representatives_per_group: 4,
    };
    s.fault_profile = Some(FaultProfile {
        scheduled: vec![
            ScheduledFault {
                node: nodes / 2,
                at_interval: 30,
                duration_intervals: 20,
                kind: FaultKind::Crash,
            },
            ScheduledFault {
                node: nodes - 1,
                at_interval: 140,
                duration_intervals: 15,
                kind: FaultKind::Degrade { factor: 0.6 },
            },
        ],
        ..FaultProfile::new()
    });
    s
}

/// Bytes requested on this thread while `ClusterRun::new` builds `scenario`.
fn setup_bytes(scenario: &ClusterScenario, engine: &Engine) -> u64 {
    let before = BYTES.with(Cell::get);
    let run = ClusterRun::new(scenario, engine);
    let bytes = BYTES.with(Cell::get) - before;
    drop(run);
    bytes
}

#[test]
fn clustered_setup_memory_does_not_grow_with_logical_nodes() {
    let engine = Engine::new();
    let small = hyperscale(10_000);
    let large = hyperscale(1_000_000);
    let (small_bytes, large_bytes) = (setup_bytes(&small, &engine), setup_bytes(&large, &engine));
    let added_jobs = (large.jobs.len() - small.jobs.len()) as u64;
    let allowed = (1 << 20) + 3 * added_jobs;
    assert!(
        large_bytes.saturating_sub(small_bytes) <= allowed,
        "ClusterRun::new took {small_bytes} B at 10^4 nodes and {large_bytes} B at 10^6; \
         growth may be at most {allowed} B"
    );
}
