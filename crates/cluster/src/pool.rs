//! Persistent worker pool for parallel node updates.
//!
//! The fleet simulator advances its nodes once per decision interval. Spawning fresh
//! scoped threads *every interval* pays thread creation and teardown (tens of
//! microseconds) hundreds of times per run, so the pool spawns its workers once and
//! keeps them alive for the simulator's lifetime.
//!
//! Each interval the instances are split into contiguous chunks of equal size (the
//! last may be shorter). The calling thread steps chunk 0 in place, so `t` threads of
//! parallelism cost at most `t - 1` pool workers; worker `k` steps chunk `k + 1`. A
//! worker receives its whole chunk as one [`Batch`] — the nodes moved out of the
//! simulator, their assigned loads, and an empty result buffer — and hands the same
//! batch back with the nodes stepped and their intervals filled in. Contiguous chunks,
//! rather than a per-node assignment such as `i % workers`, keep an interval at one
//! hand-off each way per worker, not per node, and let the coordinator stitch results
//! back by appending. The batch buffers circulate between the coordinator and the
//! worker and keep their capacity, so once warm the parallel path allocates nothing
//! beyond what the serial path does.
//!
//! Every wait blocks on a channel (`recv`), never spins: the benchmark charges
//! process CPU time over all threads, so a spinning wait would be billed as work.
//!
//! Determinism: a node's [`step`](crate::node::ClusterNode::step) depends only on the
//! node's own state and its assigned load — never on which thread runs it or in what
//! order — and the chunks are stitched back in instance order, so pooled execution is
//! byte-identical to serial execution for every thread count (pinned by
//! `tests/cluster_determinism.rs`).

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::node::{ClusterNode, NodeInterval};

/// The payload of a caught node panic.
type Panic = Box<dyn Any + Send + 'static>;

/// One worker's share of an interval. The coordinator fills `nodes` and `loads`; the
/// worker steps the nodes in place and appends their intervals. Between intervals
/// the (empty) batch waits on the coordinator side with its capacity intact.
#[derive(Default)]
struct Batch {
    nodes: Vec<ClusterNode>,
    loads: Vec<f64>,
    intervals: Vec<NodeInterval>,
    /// The first panic payload among the batch's nodes, if any node panicked.
    panic: Option<Panic>,
}

/// Steps `nodes[i]` at `loads[i]` in order, appending each interval to `out`. A node
/// whose step panics is stepped through `&mut` and so keeps its place; the first
/// payload is kept in `first_panic` and the remaining nodes still step.
fn step_chunk(
    nodes: &mut [ClusterNode],
    loads: &[f64],
    out: &mut Vec<NodeInterval>,
    first_panic: &mut Option<Panic>,
) {
    for (node, &load) in nodes.iter_mut().zip(loads) {
        match std::panic::catch_unwind(AssertUnwindSafe(|| node.step(load))) {
            Ok(interval) => out.push(interval),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
}

/// A persistent worker thread and its two ends of the batch hand-off.
struct Worker {
    to_worker: SyncSender<Batch>,
    from_worker: Receiver<Batch>,
    /// The worker's batch buffers while they are on the coordinator side.
    spare: Batch,
    handle: JoinHandle<()>,
}

impl Worker {
    fn spawn() -> Self {
        // One batch is ever in flight per direction, so a one-slot channel never
        // blocks a send, and its preallocated slot keeps the hand-off allocation-free.
        let (to_worker, tasks) = sync_channel::<Batch>(1);
        let (done, from_worker) = sync_channel::<Batch>(1);
        let handle = std::thread::spawn(move || {
            while let Ok(mut batch) = tasks.recv() {
                let Batch {
                    nodes,
                    loads,
                    intervals,
                    panic,
                } = &mut batch;
                step_chunk(nodes, loads, intervals, panic);
                if done.send(batch).is_err() {
                    // The coordinator is gone; exit quietly.
                    break;
                }
            }
        });
        Self {
            to_worker,
            from_worker,
            spare: Batch::default(),
            handle,
        }
    }
}

/// Persistent worker pool; see the module docs.
pub(crate) struct NodeWorkerPool {
    workers: Vec<Worker>,
}

impl NodeWorkerPool {
    /// Spawns `workers` persistent worker threads; with the calling thread, the pool
    /// steps up to `workers + 1` chunks per interval.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: (0..workers).map(|_| Worker::spawn()).collect(),
        }
    }

    /// Number of worker threads (the calling thread not included).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Steps every node at its assigned load and appends each node's interval to `out`
    /// in node order. `nodes` is split into contiguous chunks of `chunk` nodes: the
    /// calling thread steps the first in place and worker `k` steps chunk `k + 1`, so
    /// the pool needs at least `nodes.len().div_ceil(chunk) - 1` workers. The other
    /// chunks are moved out of `nodes` for the step and moved back, in order, before
    /// this returns.
    ///
    /// # Panics
    ///
    /// Re-raises the first node panic, in node order, on the calling thread after
    /// every chunk has been collected; every node is back in `nodes`, but the
    /// simulator is poisoned.
    pub fn step_all(
        &mut self,
        chunk: usize,
        nodes: &mut Vec<ClusterNode>,
        loads: &[f64],
        out: &mut Vec<NodeInterval>,
    ) {
        let n = nodes.len();
        assert_eq!(loads.len(), n, "one assigned load per node");
        assert!(chunk > 0, "chunks hold at least one node");
        let helpers = n.div_ceil(chunk).saturating_sub(1);
        assert!(
            helpers <= self.workers.len(),
            "{n} nodes in chunks of {chunk} need {helpers} workers, the pool has {}",
            self.workers.len()
        );
        // Hand out the chunks last to first, so each drain cuts off the tail of
        // `nodes` without shifting the nodes that stay.
        for k in (1..=helpers).rev() {
            let start = k * chunk;
            let worker = &mut self.workers[k - 1];
            let mut batch = std::mem::take(&mut worker.spare);
            batch.nodes.extend(nodes.drain(start..));
            batch
                .loads
                .extend_from_slice(&loads[start..(start + chunk).min(n)]);
            worker
                .to_worker
                .send(batch)
                // pliant-lint: allow(panic-hygiene): workers hold their receiver for
                // the pool's lifetime and catch node panics instead of dying.
                .expect("pool workers outlive the coordinator");
        }
        let mut first_panic = None;
        let own = nodes.len();
        step_chunk(nodes, &loads[..own], out, &mut first_panic);
        for worker in &mut self.workers[..helpers] {
            let mut batch = worker
                .from_worker
                .recv()
                // pliant-lint: allow(panic-hygiene): every worker holds its sender for
                // the pool's lifetime, so the channel cannot disconnect mid-step.
                .expect("pool workers outlive the coordinator");
            nodes.append(&mut batch.nodes);
            out.append(&mut batch.intervals);
            batch.loads.clear();
            if first_panic.is_none() {
                first_panic = batch.panic.take();
            }
            worker.spare = batch;
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for NodeWorkerPool {
    fn drop(&mut self) {
        // Closing a worker's task channel ends its recv loop; joining bounds the
        // teardown so no thread outlives the simulator.
        for Worker {
            to_worker, handle, ..
        } in self.workers.drain(..)
        {
            drop(to_worker);
            // A worker that panicked outside catch_unwind (impossible today) would
            // surface here; ignore the payload — the step that caused it already
            // re-raised on the coordinator.
            let _ = handle.join();
        }
    }
}
