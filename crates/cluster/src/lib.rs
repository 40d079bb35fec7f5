//! Multi-node fleet simulation: Pliant at cluster scale.
//!
//! The paper's headline result is fleet-level: approximation-aware co-location raises
//! effective machine utilization, so the same tail-latency QoS is served with **fewer
//! machines**. This crate lifts the single-node reproduction to an N-node fleet in
//! which every node runs the exact single-node loop — a
//! [`ColocationSim`](pliant_sim::colocation::ColocationSim) driven by its own
//! monitor/policy/actuator — while three fleet-level components couple the nodes
//! between decision intervals:
//!
//! * [`balancer`] — splits the cluster-wide offered load into per-node load each
//!   interval ([`BalancerKind::RoundRobin`], [`BalancerKind::LeastLoaded`],
//!   [`BalancerKind::PowerOfTwoChoices`]).
//! * [`scheduler`] — admits queued batch jobs into node slots freed by completed jobs
//!   ([`SchedulerKind::FirstFit`], [`SchedulerKind::UtilizationAware`], and the
//!   approximation-aware [`SchedulerKind::QosSlackAware`]).
//! * [`sim`] / [`engine`] — the fleet simulator and its integration with the core
//!   [`Engine`](pliant_core::engine::Engine): [`ClusterEngineExt::run_cluster`] fans
//!   the independent node updates out over the engine's worker threads and produces
//!   byte-identical output to a serial run.
//! * [`population`] — the population/instance split behind hyperscale fleets: the
//!   logical fleet is grouped into clusters of interchangeable nodes, and
//!   [`FleetApproximation::Clustered`] simulates one representative per cluster under
//!   common random numbers, replicating its histogram/QoS/energy contributions per
//!   replica. [`FleetApproximation::Exact`] (the default) simulates every node and is
//!   byte-identical to the pre-population simulator.
//!
//! Fleet metrics come from merging every node's latency histogram
//! ([`LatencyHistogram::try_merge`](pliant_telemetry::histogram::LatencyHistogram::try_merge)),
//! so the fleet p99 is the exact quantile over every request in the fleet — the number
//! the machines-needed-at-QoS-target search ([`outcome::machines_needed`]) minimizes.
//!
//! # Example
//!
//! ```
//! use pliant_approx::catalog::AppId;
//! use pliant_cluster::prelude::*;
//! use pliant_core::engine::Engine;
//! use pliant_workloads::service::ServiceId;
//!
//! let scenario = ClusterScenario::builder(ServiceId::Memcached)
//!     .nodes(3)
//!     .jobs(vec![AppId::Canneal, AppId::Snp, AppId::Bayesian, AppId::KMeans])
//!     .avg_node_load(0.6)
//!     .horizon_intervals(20)
//!     .build();
//! let outcome = Engine::new().parallel().run_cluster(&scenario);
//! assert_eq!(outcome.nodes, 3);
//! println!("fleet p99/QoS = {:.2}", outcome.fleet_tail_latency_ratio);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod autoscaler;
pub mod balancer;
pub mod engine;
pub mod faults;
pub mod node;
pub mod outcome;
mod pool;
pub mod population;
pub mod scenario;
pub mod scheduler;
pub mod sim;
pub mod suite;
pub mod topology;

pub use autoscaler::{
    Autoscaler, AutoscalerAction, AutoscalerConfig, AutoscalerSnapshot, NodePowerState,
};
pub use balancer::{BalancerKind, LoadBalancer};
pub use engine::{ClusterEngineExt, ClusterRun, ClusterRunCheckpoint};
pub use faults::{
    FaultKind, FaultProfile, FaultProfileError, FaultStateSnapshot, FaultStats, GroupOutage,
    InstanceIndex, NodeHealth, RackOutage, ScheduledFault,
};
pub use node::{ClusterNode, NodeCheckpoint, NodeInterval, NodeSnapshot};
pub use outcome::{machines_needed, ClusterOutcome, NodeOutcome};
pub use population::{InstancePlan, Members, NodeGroup, NodePopulation};
pub use scenario::{
    ClusterScenario, ClusterScenarioBuilder, ClusterScenarioError, FleetApproximation,
};
pub use scheduler::{BatchScheduler, SchedulerKind, SchedulerStats};
pub use sim::{ClusterCheckpoint, ClusterInterval, ClusterSim, CLUSTER_CHECKPOINT_VERSION};
pub use suite::{ClusterCellOutcome, ClusterSuite, ClusterSuiteError, ClusterSweepAxis};
pub use topology::{Rack, Topology, TopologyConfig, TopologyConfigError};

/// Commonly-used items, re-exported for convenience.
pub mod prelude {
    pub use crate::autoscaler::{AutoscalerConfig, NodePowerState};
    pub use crate::balancer::BalancerKind;
    pub use crate::engine::{ClusterEngineExt, ClusterRun, ClusterRunCheckpoint};
    pub use crate::faults::{
        FaultKind, FaultProfile, FaultStats, GroupOutage, RackOutage, ScheduledFault,
    };
    pub use crate::outcome::{machines_needed, ClusterOutcome, NodeOutcome};
    pub use crate::population::NodePopulation;
    pub use crate::scenario::{
        ClusterScenario, ClusterScenarioBuilder, ClusterScenarioError, FleetApproximation,
    };
    pub use crate::scheduler::SchedulerKind;
    pub use crate::sim::{ClusterInterval, ClusterSim};
    pub use crate::suite::{ClusterCellOutcome, ClusterSuite, ClusterSweepAxis};
    pub use crate::topology::{Topology, TopologyConfig};
}
