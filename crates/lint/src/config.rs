//! Lint configuration: which functions are hot paths and which paths each
//! path-scoped rule covers.
//!
//! Paths are matched against the diagnostic path (the path relative to the scan root,
//! with `/` separators), so the tool expects to be invoked from — or pointed at — the
//! workspace root, which is how CI and the self-hosting tests run it.

/// Configuration shared by every rule.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Functions whose bodies must stay allocation-free. Entries are either bare names
    /// (`fast_exp`, matching any function of that name) or qualified as `Type::name`
    /// (`ClusterNode::step`, matching only inside `impl ClusterNode`).
    pub hot_path_fns: Vec<String>,
    /// Path prefixes where wall-clock reads (`Instant::now`, `SystemTime`) are allowed:
    /// the bench harnesses (`crates/bench/` and the repository benchmark `simbench/`)
    /// measure real time by design.
    pub wallclock_allowed: Vec<String>,
    /// Path prefixes of determinism-sensitive code where `HashMap`/`HashSet` are denied
    /// (iteration order reaches archives, statistics, or RNG consumption order). The
    /// `crates/cluster/` prefix deliberately covers the fault-injection and
    /// checkpoint/restore modules (`faults.rs`, the checkpoint halves of `sim.rs`,
    /// `node.rs`, and `engine.rs`) as well as the rack-topology layer
    /// (`topology.rs` and the placement sampling in `sim.rs`): resume-byte-identity
    /// and seeded rack sampling are determinism guarantees, so those files face the
    /// same wall-clock and hash-order denials as the simulation core (pinned in the
    /// lint integration tests).
    pub hash_container_scoped: Vec<String>,
    /// Path prefixes where `unwrap()`/`expect()` in non-test code are denied.
    pub panic_hygiene_scoped: Vec<String>,
    /// Path prefixes exempt from the `validate-bypass` rule (the serde compat shim
    /// itself).
    pub validate_bypass_exempt: Vec<String>,
    /// Directory names skipped entirely while walking (build output, VCS metadata, and
    /// the lint crate's own seeded-violation fixtures).
    pub skip_dirs: Vec<String>,
}

impl LintConfig {
    /// The workspace's committed configuration: hot-path list and path scopes matching
    /// the repository layout.
    pub fn repo_default() -> Self {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        LintConfig {
            hot_path_fns: s(&[
                // The allocation-free per-interval loop (PR 4) and everything it calls
                // per sample.
                "ColocationSim::advance_reusing",
                "PerformanceMonitor::observe_interval",
                "ClusterNode::step",
                "fast_exp",
                "fast_ln",
                "poly_exp",
                "sample_normal_ziggurat",
                "fill_lognormals",
                // The two-pass batch sampler's pieces: the inlined ziggurat accept
                // path and its shared wedge/tail slow path, and the branch-free `exp`
                // core of the second pass.
                "ziggurat_normal",
                "ziggurat_slow_path",
                "fast_exp_in_range",
                // The lazy single-node interval: the monitor selects the samples it
                // will read, the simulator materialises only those (an unread slot
                // is one draw and one integer compare), and the monitor ingests them
                // through the same core `observe_interval` uses.
                "PerformanceMonitor::select_samples",
                "PerformanceMonitor::observe_selected",
                "PerformanceMonitor::ingest",
                "ColocationSim::advance_selected",
                "ColocationSim::advance_with",
                "LatencyModel::sample_selected_latencies_into",
                "fill_selected_lognormals",
                "ziggurat_skip",
                // Every busy-interval sample path shares these: the ziggurat candidate
                // decode and its branch-free sign, and the monitor's geometric skips,
                // computed a block at a time through the branch-free `ln` core.
                "ziggurat_candidate",
                "ziggurat_signed",
                "skip_sample",
                "fast_ln_normal",
                "ln_core",
                // The hyperscale grouped-dispatch path (PR 7): runs once per interval
                // on clustered fleets whose logical size can reach 100k nodes, and the
                // per-sample replication inside ClusterNode::step.
                "LoadBalancer::split_grouped",
                "Autoscaler::plan_grouped",
                "LatencyHistogram::record_n",
                // The observability emit path (PR 8): called at every decision point
                // of every per-interval loop above; the Null sink (Off) and the
                // preallocated ring must both stay allocation-free (the contract is
                // also pinned dynamically in tests/hot_path.rs).
                "ObsBuffer::emit",
                "MetricsRegistry::record",
                // The fault-injection per-interval path (PR 9): node-health masking
                // runs for every instance of every interval whenever a fleet carries
                // a fault profile.
                "NodeHealth::is_serving",
                // A fault event's lookup of the instance that carries its logical node
                // exactly: a binary search over the sparse map, which keeps nothing
                // per logical node.
                "InstanceIndex::get",
                // The fleet loop's per-interval phases that reuse scratch buffers:
                // the serving mask, consolidation, placement (with its rack sampling
                // step), and the balancer dispatch with its trace audit.
                "ClusterSim::update_serving",
                "ClusterSim::consolidate",
                "ClusterSim::place_jobs",
                "ClusterSim::confine_to_sampled_rack",
                "ClusterSim::dispatch",
                // The fleet step phase: the serial loop, or the contiguous-chunk
                // hand-off to the worker pool, whose batch buffers circulate and keep
                // their capacity (the contract is also pinned dynamically in
                // tests/hot_path.rs).
                "ClusterSim::step_nodes",
                "NodeWorkerPool::step_all",
                // The topology placement/migration path (PR 10): rack scoring runs at
                // every placement decision, the extract/implant pair moves in-flight
                // batch state between nodes on the consolidation pass, and the drain
                // check walks every instance each interval — all inside the
                // per-interval loop, all required to reuse caller-provided buffers.
                "ClusterSim::rack_score",
                "ClusterNode::extract_job",
                "ClusterNode::implant_job",
                "ColocationSim::extract_app",
                "ColocationSim::implant_app",
                "Autoscaler::park_fully_drained",
            ]),
            wallclock_allowed: s(&["crates/bench/", "simbench/"]),
            hash_container_scoped: s(&[
                "crates/sim/",
                "crates/core/",
                "crates/cluster/",
                "crates/telemetry/",
                "crates/workloads/",
                "crates/explore/",
                "crates/approx/",
                "src/",
            ]),
            panic_hygiene_scoped: s(&[
                "crates/sim/src/",
                "crates/core/src/",
                "crates/cluster/src/",
                "crates/telemetry/src/",
            ]),
            validate_bypass_exempt: s(&["crates/compat/"]),
            skip_dirs: s(&["target", ".git", "fixtures"]),
        }
    }

    /// A configuration whose path-scoped rules apply to *every* file: used by the
    /// fixture tests, where the seeded violations do not live under the repository's
    /// crate paths.
    pub fn all_paths() -> Self {
        LintConfig {
            wallclock_allowed: Vec::new(),
            hash_container_scoped: vec![String::new()],
            panic_hygiene_scoped: vec![String::new()],
            validate_bypass_exempt: Vec::new(),
            ..Self::repo_default()
        }
    }
}

/// Whether `rel_path` (diagnostic form, `/` separators) starts with any of `prefixes`.
pub fn path_in(rel_path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p.as_str()))
}

/// Whether the file is test-only by location: under a `tests/`, `benches/`, or
/// `examples/` directory.
pub fn path_is_test_code(rel_path: &str) -> bool {
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|dir| rel_path.starts_with(dir) || rel_path.contains(&format!("/{dir}")))
}
