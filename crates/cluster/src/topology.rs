//! Rack-level fleet structure: power domains, shared power budgets, and node
//! membership.
//!
//! The paper's machines-needed headline is a consolidation story, and consolidation in
//! a real datacenter happens against rack structure: nodes share a rack-level power
//! budget (the breaker rating of the rack's PDU) and a rack-level failure domain (a
//! failed PDU or top-of-rack switch takes the whole rack down at once). This module
//! adds that structure as a thin, serializable layer over the existing flat node list:
//!
//! * [`TopologyConfig`] is the declarative knob on
//!   [`ClusterScenario`](crate::scenario::ClusterScenario): either [`TopologyConfig::Flat`]
//!   (the default — one implicit rack holding every node, no budget, byte-identical to
//!   the pre-topology simulator) or [`TopologyConfig::Racks`] (a regular `racks ×
//!   nodes_per_rack` grid with an optional shared per-rack power budget).
//! * [`Topology`] is the resolved, run-time form built once per run by
//!   [`Topology::resolve`]: one contiguous member range per rack, and an arithmetic
//!   node → rack map, so it costs nothing per logical node.
//!
//! Rack identity feeds three consumers: the scheduler's sampling-based online
//! placement (score candidate racks by power headroom and QoS slack before picking a
//! node — see [`crate::sim`]), the fault injector's rack-level correlated outages
//! (power-domain failures — see [`crate::faults::RackOutage`]), and the clustered
//! approximation's population grouping (replicas never span power domains — see
//! [`crate::population`]).

use std::ops::Range;

use serde::{Deserialize, Serialize};

/// Declarative rack structure of the fleet, as archived on the scenario.
///
/// `Flat` is the default and serializes to nothing at all (the scenario field is
/// skipped), so pre-topology archives round-trip byte-identically. The `Racks` form
/// describes a regular grid: `racks × nodes_per_rack` must equal the scenario's node
/// count, with node `i` living in rack `i / nodes_per_rack` — deterministic and
/// index-stable, so rack membership never depends on run-time state.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub enum TopologyConfig {
    /// No rack structure: one implicit power/failure domain holding every node, with
    /// no power budget. Pinned byte-identical to the pre-topology simulator.
    #[default]
    Flat,
    /// A regular grid of racks, each a shared power budget and failure domain.
    Racks {
        /// Number of racks (must be positive).
        racks: usize,
        /// Nodes per rack (must be positive; `racks × nodes_per_rack` must equal the
        /// scenario's `nodes`).
        nodes_per_rack: usize,
        /// Shared power budget per rack in watts (`None` = unbudgeted). When set, the
        /// placement loop refuses to admit new batch jobs into racks whose measured
        /// power draw already exceeds the budget.
        rack_power_w: Option<f64>,
    },
}

impl TopologyConfig {
    /// Whether this is the flat (structureless) default. Used as the
    /// `skip_serializing_if` predicate that keeps pre-topology archives byte-identical.
    pub fn is_flat(&self) -> bool {
        matches!(self, TopologyConfig::Flat)
    }

    /// Number of racks this configuration resolves to (flat = one implicit rack).
    pub fn rack_count(&self) -> usize {
        match self {
            TopologyConfig::Flat => 1,
            TopologyConfig::Racks { racks, .. } => *racks,
        }
    }

    /// Checks the node-count-independent invariants (positive grid dimensions, a
    /// positive and finite power budget). Called at the deserialization boundary;
    /// [`Self::validate`] adds the cross-check against the fleet size.
    pub fn validate_shape(&self) -> Result<(), TopologyConfigError> {
        if let TopologyConfig::Racks {
            racks,
            nodes_per_rack,
            rack_power_w,
        } = self
        {
            if *racks == 0 {
                return Err(TopologyConfigError::NoRacks);
            }
            if *nodes_per_rack == 0 {
                return Err(TopologyConfigError::NoNodesPerRack);
            }
            if let Some(budget) = rack_power_w {
                if !(*budget > 0.0 && budget.is_finite()) {
                    return Err(TopologyConfigError::InvalidPowerBudget);
                }
            }
        }
        Ok(())
    }

    /// Checks every invariant, including that the rack grid covers exactly the
    /// fleet's `nodes` (no partial racks, no orphan nodes).
    pub fn validate(&self, nodes: usize) -> Result<(), TopologyConfigError> {
        self.validate_shape()?;
        if let TopologyConfig::Racks {
            racks,
            nodes_per_rack,
            ..
        } = self
        {
            let covered = racks.checked_mul(*nodes_per_rack);
            if covered != Some(nodes) {
                return Err(TopologyConfigError::NodeCountMismatch {
                    racks: *racks,
                    nodes_per_rack: *nodes_per_rack,
                    nodes,
                });
            }
        }
        Ok(())
    }
}

// Hand-written (not derived) so a hand-edited or corrupted archive carrying an
// impossible rack grid (zero racks, a non-finite budget) is rejected with a
// descriptive error at the boundary instead of deserializing into a topology that
// fails mid-run. The mirror enum keeps the derived field plumbing.
impl serde::Deserialize for TopologyConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        enum TopologyConfigWire {
            Flat,
            Racks {
                racks: usize,
                nodes_per_rack: usize,
                #[serde(default)]
                rack_power_w: Option<f64>,
            },
        }
        let config = match TopologyConfigWire::from_value(value)? {
            TopologyConfigWire::Flat => TopologyConfig::Flat,
            TopologyConfigWire::Racks {
                racks,
                nodes_per_rack,
                rack_power_w,
            } => TopologyConfig::Racks {
                racks,
                nodes_per_rack,
                rack_power_w,
            },
        };
        config
            .validate_shape()
            .map_err(|e| serde::Error::custom(format!("invalid topology: {e}")))?;
        Ok(config)
    }
}

/// Why a [`TopologyConfig`] is not a valid rack structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyConfigError {
    /// The rack grid has zero racks.
    NoRacks,
    /// The rack grid has zero nodes per rack.
    NoNodesPerRack,
    /// The rack grid does not cover the fleet exactly.
    NodeCountMismatch {
        /// Racks in the grid.
        racks: usize,
        /// Nodes per rack in the grid.
        nodes_per_rack: usize,
        /// Nodes the fleet actually has.
        nodes: usize,
    },
    /// The per-rack power budget is zero, negative, or not finite.
    InvalidPowerBudget,
}

impl std::fmt::Display for TopologyConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyConfigError::NoRacks => f.write_str("topology needs at least one rack"),
            TopologyConfigError::NoNodesPerRack => {
                f.write_str("racks need at least one node each")
            }
            TopologyConfigError::NodeCountMismatch {
                racks,
                nodes_per_rack,
                nodes,
            } => write!(
                f,
                "rack grid of {racks}x{nodes_per_rack} does not cover the {nodes}-node fleet exactly"
            ),
            TopologyConfigError::InvalidPowerBudget => {
                f.write_str("rack power budget must be positive and finite")
            }
        }
    }
}

impl std::error::Error for TopologyConfigError {}

/// One rack of the resolved topology: a contiguous block of logical nodes plus the
/// shared budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Rack {
    /// Logical node indices living in this rack: racks are contiguous, index-stable
    /// blocks, so the range is the whole membership list.
    pub members: Range<usize>,
    /// Shared power budget in watts (`None` = unbudgeted).
    pub power_budget_w: Option<f64>,
}

/// The resolved, run-time rack structure: built once per run from the scenario's
/// [`TopologyConfig`] and never mutated afterwards. It holds one entry per rack and
/// nothing per logical node: membership is a range and [`Self::rack_of`] is a
/// division.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    racks: Vec<Rack>,
    nodes: usize,
    nodes_per_rack: usize,
    flat: bool,
}

impl Topology {
    /// Resolves a validated config against a fleet of `nodes` logical nodes.
    ///
    /// `Flat` resolves to one unbudgeted rack holding every node; `Racks` assigns node
    /// `i` to rack `i / nodes_per_rack`. Callers must have validated the config (the
    /// scenario boundary does), so a mismatched grid here is a logic error.
    pub fn resolve(config: &TopologyConfig, nodes: usize) -> Self {
        match config {
            TopologyConfig::Flat => Topology {
                racks: vec![Rack {
                    members: 0..nodes,
                    power_budget_w: None,
                }],
                nodes,
                nodes_per_rack: nodes.max(1),
                flat: true,
            },
            TopologyConfig::Racks {
                racks,
                nodes_per_rack,
                rack_power_w,
            } => {
                debug_assert_eq!(racks * nodes_per_rack, nodes, "validated upstream");
                let rack_list = (0..*racks)
                    .map(|r| Rack {
                        members: r * nodes_per_rack..(r + 1) * nodes_per_rack,
                        power_budget_w: *rack_power_w,
                    })
                    .collect();
                Topology {
                    racks: rack_list,
                    nodes,
                    nodes_per_rack: *nodes_per_rack,
                    flat: false,
                }
            }
        }
    }

    /// Whether this topology came from the flat default (one implicit rack). Flat
    /// fleets take the pre-topology code paths verbatim.
    pub fn is_flat(&self) -> bool {
        self.flat
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.racks.len()
    }

    /// The racks, in index order.
    pub fn racks(&self) -> &[Rack] {
        &self.racks
    }

    /// The rack a logical node lives in.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the fleet.
    pub fn rack_of(&self, node: usize) -> usize {
        assert!(
            node < self.nodes,
            "node {node} outside the {}-node fleet",
            self.nodes
        );
        node / self.nodes_per_rack
    }

    /// The shared power budget of a rack in watts (`None` = unbudgeted).
    pub fn power_budget_w(&self, rack: usize) -> Option<f64> {
        self.racks[rack].power_budget_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_resolves_to_one_unbudgeted_rack() {
        let t = Topology::resolve(&TopologyConfig::Flat, 5);
        assert!(t.is_flat());
        assert_eq!(t.rack_count(), 1);
        assert_eq!(t.racks()[0].members, 0..5);
        assert_eq!(t.power_budget_w(0), None);
        assert!((0..5).all(|i| t.rack_of(i) == 0));
    }

    #[test]
    fn rack_grid_assigns_contiguous_members() {
        let config = TopologyConfig::Racks {
            racks: 3,
            nodes_per_rack: 2,
            rack_power_w: Some(400.0),
        };
        let t = Topology::resolve(&config, 6);
        assert!(!t.is_flat());
        assert_eq!(t.rack_count(), 3);
        assert_eq!(t.racks()[1].members, 2..4);
        assert_eq!(t.rack_of(4), 2);
        assert_eq!(t.power_budget_w(2), Some(400.0));
    }

    #[test]
    fn validation_catches_degenerate_grids() {
        assert_eq!(
            TopologyConfig::Racks {
                racks: 0,
                nodes_per_rack: 2,
                rack_power_w: None,
            }
            .validate(0)
            .unwrap_err(),
            TopologyConfigError::NoRacks
        );
        assert_eq!(
            TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 0,
                rack_power_w: None,
            }
            .validate(0)
            .unwrap_err(),
            TopologyConfigError::NoNodesPerRack
        );
        assert_eq!(
            TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 2,
                rack_power_w: None,
            }
            .validate(5)
            .unwrap_err(),
            TopologyConfigError::NodeCountMismatch {
                racks: 2,
                nodes_per_rack: 2,
                nodes: 5,
            }
        );
        assert_eq!(
            TopologyConfig::Racks {
                racks: 2,
                nodes_per_rack: 2,
                rack_power_w: Some(0.0),
            }
            .validate(4)
            .unwrap_err(),
            TopologyConfigError::InvalidPowerBudget
        );
        assert!(TopologyConfig::Flat.validate(7).is_ok());
    }

    #[test]
    fn config_round_trips_and_rejects_corruption_at_the_boundary() {
        let config = TopologyConfig::Racks {
            racks: 2,
            nodes_per_rack: 3,
            rack_power_w: Some(350.0),
        };
        let json = serde_json::to_string(&config).expect("serializable");
        let back: TopologyConfig = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, config);

        let flat_json = serde_json::to_string(&TopologyConfig::Flat).expect("serializable");
        let back: TopologyConfig = serde_json::from_str(&flat_json).expect("deserializable");
        assert!(back.is_flat());

        let corrupted = json.replace("\"racks\":2", "\"racks\":0");
        let err = serde_json::from_str::<TopologyConfig>(&corrupted)
            .expect_err("a zero-rack grid must not deserialize");
        assert!(err.to_string().contains("at least one rack"));
    }
}
