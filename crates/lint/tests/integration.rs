//! Integration tests: exact (rule, line) assertions over the seeded-violation fixture,
//! pragma suppression, the self-hosting workspace scan, and the CLI contract (exit
//! codes, `--json`, `--only`/`--skip`, `--list-rules`).

use std::path::{Path, PathBuf};
use std::process::Command;

use pliant_lint::config::LintConfig;
use pliant_lint::findings::ALL_RULES;
use pliant_lint::{lint_path, lint_source};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Reads a fixture, returning the diagnostic path the findings should carry plus the
/// source text.
fn fixture(name: &str) -> (String, String) {
    let source = std::fs::read_to_string(fixtures_dir().join(name)).unwrap();
    (format!("fixtures/{name}"), source)
}

/// Runs the built `pliant-lint` binary, returning (exit code, stdout, stderr).
fn run_cli(current_dir: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pliant-lint"))
        .current_dir(current_dir)
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code().unwrap(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn violations_fixture_findings_are_exact() {
    let (rel, src) = fixture("violations.rs");
    let findings = lint_source(&rel, &src, &LintConfig::all_paths());
    let got: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    let want = vec![
        ("nan-unsafe-cmp", 6),
        ("panic-hygiene", 6),
        ("nan-unsafe-cmp", 12),
        ("panic-hygiene", 12),
        ("panic-hygiene", 13),
        ("hot-path-alloc", 17),
        ("hot-path-alloc", 18),
        ("hot-path-alloc", 19),
        ("hot-path-alloc", 20),
        ("nondeterminism", 26),
        ("nondeterminism", 27),
        ("nondeterminism", 32),
        ("nondeterminism", 36),
        ("validate-bypass", 40),
    ];
    assert_eq!(got, want);
    // Diagnostics carry the scan-relative path and an actionable message.
    assert!(findings.iter().all(|f| f.path == "fixtures/violations.rs"));
    assert!(findings[0].message.contains("total_cmp"));
}

#[test]
fn suppressed_fixture_produces_zero_findings() {
    let (rel, src) = fixture("suppressed.rs");
    let findings = lint_source(&rel, &src, &LintConfig::all_paths());
    assert!(
        findings.is_empty(),
        "every violation carries a pragma, but got:\n{}",
        render(&findings)
    );
}

#[test]
fn clean_fixture_produces_zero_findings() {
    let (rel, src) = fixture("clean.rs");
    let findings = lint_source(&rel, &src, &LintConfig::all_paths());
    assert!(
        findings.is_empty(),
        "clean fixture flagged:\n{}",
        render(&findings)
    );
}

/// The self-hosting gate: the workspace itself must be lint-clean under the committed
/// configuration. This is the library-level twin of the CI `--check` step.
#[test]
fn workspace_is_lint_clean() {
    let findings = lint_path(&workspace_root(), &LintConfig::repo_default()).unwrap();
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        render(&findings)
    );
}

/// Regression (fault-injection PR): resume-byte-identity makes the fault and
/// checkpoint modules determinism-sensitive, so the committed configuration must keep
/// them inside the `nondeterminism` scope and the per-interval fault masking on the
/// hot-path allocation denylist.
#[test]
fn fault_and_checkpoint_modules_stay_in_the_determinism_scopes() {
    let cfg = LintConfig::repo_default();
    for path in [
        "crates/cluster/src/faults.rs",
        "crates/cluster/src/sim.rs",
        "crates/cluster/src/node.rs",
        "crates/cluster/src/engine.rs",
    ] {
        assert!(
            pliant_lint::config::path_in(path, &cfg.hash_container_scoped),
            "{path} must sit inside the nondeterminism hash-container scope"
        );
        assert!(
            !pliant_lint::config::path_in(path, &cfg.wallclock_allowed),
            "{path} must not be allowed to read the wall clock"
        );
        // A hash-ordered container in any of these files is a finding: iteration
        // order would reach checkpoint archives and break resume byte-identity.
        let findings = lint_source(
            path,
            "fn restore() { let m: HashMap<u32, u64> = HashMap::new(); }",
            &cfg,
        );
        assert!(
            findings.iter().any(|f| f.rule == "nondeterminism"),
            "a HashMap in {path} must be flagged, got:\n{}",
            render(&findings)
        );
    }
    for hot in ["NodeHealth::is_serving", "LoadBalancer::split_grouped"] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
    }
}

/// Regression (topology PR): rack sampling draws from a seeded RNG and placement and
/// migration run inside the per-interval loop, so the topology module must stay inside
/// the nondeterminism scope and the placement/migration functions on the
/// hot-path-alloc denylist.
#[test]
fn topology_placement_and_migration_stay_in_the_determinism_scopes() {
    let cfg = LintConfig::repo_default();
    let path = "crates/cluster/src/topology.rs";
    assert!(
        pliant_lint::config::path_in(path, &cfg.hash_container_scoped),
        "{path} must sit inside the nondeterminism hash-container scope"
    );
    assert!(
        !pliant_lint::config::path_in(path, &cfg.wallclock_allowed),
        "{path} must not be allowed to read the wall clock"
    );
    let findings = lint_source(
        path,
        "fn rack_of() { let m: HashMap<u32, u64> = HashMap::new(); }",
        &cfg,
    );
    assert!(
        findings.iter().any(|f| f.rule == "nondeterminism"),
        "a HashMap in {path} must be flagged, got:\n{}",
        render(&findings)
    );
    for hot in [
        "ClusterSim::rack_score",
        "ClusterNode::extract_job",
        "ClusterNode::implant_job",
        "ColocationSim::extract_app",
        "ColocationSim::implant_app",
        "Autoscaler::park_fully_drained",
    ] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
        // An allocation seeded into any of these functions is a finding: the
        // consolidation pass runs them every interval on racked fleets.
        let (ty, name) = hot.split_once("::").unwrap();
        let src = format!("impl {ty} {{ fn {name}(&mut self) {{ let v = Vec::new(); }} }}");
        let findings = lint_source("crates/cluster/src/sim.rs", &src, &cfg);
        assert!(
            findings.iter().any(|f| f.rule == "hot-path-alloc"),
            "a Vec::new inside {hot} must be flagged, got:\n{}",
            render(&findings)
        );
    }
}

/// Regression (chunked fleet stepping): the step phase and the pool's per-interval
/// hand-off run every interval of every parallel fleet run, so both stay on the
/// hot-path-alloc denylist.
#[test]
fn fleet_step_phase_stays_on_the_hot_path_denylist() {
    let cfg = LintConfig::repo_default();
    for (hot, path) in [
        ("ClusterSim::step_nodes", "crates/cluster/src/sim.rs"),
        ("NodeWorkerPool::step_all", "crates/cluster/src/pool.rs"),
    ] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
        let (ty, name) = hot.split_once("::").unwrap();
        let src = format!("impl {ty} {{ fn {name}(&mut self) {{ let v = vec![0u8; 4]; }} }}");
        let findings = lint_source(path, &src, &cfg);
        assert!(
            findings.iter().any(|f| f.rule == "hot-path-alloc"),
            "a vec![..] inside {hot} must be flagged, got:\n{}",
            render(&findings)
        );
    }
}

/// The two-pass lognormal sampler's `exp` core and its ziggurat slow path run per
/// sample inside the per-interval loop; both must stay on the denylist.
#[test]
fn two_pass_sampler_stays_on_the_hot_path_denylist() {
    let cfg = LintConfig::repo_default();
    for (hot, path) in [
        ("fast_exp_in_range", "crates/telemetry/src/fastmath.rs"),
        ("ziggurat_slow_path", "crates/telemetry/src/rng.rs"),
    ] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
        let src = format!("fn {hot}(x: f64) -> f64 {{ let v = vec![x; 4]; v[0] }}");
        let findings = lint_source(path, &src, &cfg);
        assert!(
            findings.iter().any(|f| f.rule == "hot-path-alloc"),
            "a vec![..] inside {hot} must be flagged, got:\n{}",
            render(&findings)
        );
    }
}

/// The lazy single-node interval runs once per busy interval of every engine run:
/// the monitor's selection and ingest, the simulator's selected advance, and the
/// selected-slots sampler with its per-slot skip, so all stay on the denylist.
#[test]
fn lazy_sample_path_stays_on_the_hot_path_denylist() {
    let cfg = LintConfig::repo_default();
    for (hot, path) in [
        (
            "PerformanceMonitor::select_samples",
            "crates/core/src/monitor.rs",
        ),
        (
            "PerformanceMonitor::observe_selected",
            "crates/core/src/monitor.rs",
        ),
        ("PerformanceMonitor::ingest", "crates/core/src/monitor.rs"),
        (
            "ColocationSim::advance_selected",
            "crates/sim/src/colocation.rs",
        ),
        (
            "ColocationSim::advance_with",
            "crates/sim/src/colocation.rs",
        ),
        (
            "LatencyModel::sample_selected_latencies_into",
            "crates/sim/src/queueing.rs",
        ),
        ("fill_selected_lognormals", "crates/telemetry/src/rng.rs"),
        ("ziggurat_skip", "crates/telemetry/src/rng.rs"),
    ] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
        let src = match hot.split_once("::") {
            Some((ty, name)) => {
                format!("impl {ty} {{ fn {name}(&mut self) {{ let v = vec![0u8; 4]; }} }}")
            }
            None => format!("fn {hot}(x: f64) -> f64 {{ let v = vec![x; 4]; v[0] }}"),
        };
        let findings = lint_source(path, &src, &cfg);
        assert!(
            findings.iter().any(|f| f.rule == "hot-path-alloc"),
            "a vec![..] inside {hot} must be flagged, got:\n{}",
            render(&findings)
        );
    }
}

/// The ziggurat's candidate decode and sign run for every sample of every busy
/// interval, and the monitor's block skips and their `ln` core for every selected
/// index, so all stay on the denylist.
#[test]
fn sample_decode_and_block_skips_stay_on_the_hot_path_denylist() {
    let cfg = LintConfig::repo_default();
    for (hot, path) in [
        ("ziggurat_candidate", "crates/telemetry/src/rng.rs"),
        ("ziggurat_signed", "crates/telemetry/src/rng.rs"),
        ("skip_sample", "crates/core/src/monitor.rs"),
        ("fast_ln_normal", "crates/telemetry/src/fastmath.rs"),
        ("ln_core", "crates/telemetry/src/fastmath.rs"),
    ] {
        assert!(
            cfg.hot_path_fns.iter().any(|f| f == hot),
            "{hot} must stay on the hot-path-alloc denylist"
        );
        let src = format!("fn {hot}(x: f64) -> f64 {{ let v = vec![x; 4]; v[0] }}");
        let findings = lint_source(path, &src, &cfg);
        assert!(
            findings.iter().any(|f| f.rule == "hot-path-alloc"),
            "a vec![..] inside {hot} must be flagged, got:\n{}",
            render(&findings)
        );
    }
}

/// Fault events look up the instance carrying their logical node in a sparse map
/// inside the per-interval fault phase, so the lookup stays on the denylist.
#[test]
fn fault_instance_lookup_stays_on_the_hot_path_denylist() {
    let cfg = LintConfig::repo_default();
    assert!(
        cfg.hot_path_fns.iter().any(|f| f == "InstanceIndex::get"),
        "InstanceIndex::get must stay on the hot-path-alloc denylist"
    );
    let src = "impl InstanceIndex { fn get(&self, node: usize) -> Option<usize> { \
               let v = vec![node; 4]; v.first().copied() } }";
    let findings = lint_source("crates/cluster/src/faults.rs", src, &cfg);
    assert!(
        findings.iter().any(|f| f.rule == "hot-path-alloc"),
        "a vec![..] inside InstanceIndex::get must be flagged, got:\n{}",
        render(&findings)
    );
}

/// The benchmark harnesses measure wall and CPU time by design and may read the
/// clock; every library path stays under the nondeterminism rule.
#[test]
fn only_the_bench_harnesses_may_read_the_wall_clock() {
    let cfg = LintConfig::repo_default();
    let clock = "fn now() -> std::time::Instant { std::time::Instant::now() }";
    for path in ["simbench/src/main.rs", "crates/bench/src/lib.rs"] {
        let findings = lint_source(path, clock, &cfg);
        assert!(
            findings.iter().all(|f| f.rule != "nondeterminism"),
            "{path} is a bench harness and may read the clock, got:\n{}",
            render(&findings)
        );
    }
    for path in [
        "src/lib.rs",
        "crates/sim/src/colocation.rs",
        "crates/core/src/engine.rs",
        "crates/cluster/src/pool.rs",
        "crates/telemetry/src/obs.rs",
        "crates/compat/criterion/src/lib.rs",
    ] {
        let findings = lint_source(path, clock, &cfg);
        assert!(
            findings.iter().any(|f| f.rule == "nondeterminism"),
            "an Instant::now in {path} must be flagged, got:\n{}",
            render(&findings)
        );
    }
}

#[test]
fn cli_check_fails_on_the_violations_fixture() {
    let (code, stdout, stderr) = run_cli(&fixtures_dir(), &["--check", "violations.rs"]);
    assert_eq!(
        code, 1,
        "--check must exit nonzero on findings; stderr: {stderr}"
    );
    for rule in [
        "nan-unsafe-cmp",
        "hot-path-alloc",
        "nondeterminism",
        "validate-bypass",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
    assert!(stderr.contains("finding(s)"));
}

#[test]
fn cli_check_passes_on_clean_and_suppressed_fixtures() {
    for name in ["clean.rs", "suppressed.rs"] {
        let (code, stdout, stderr) = run_cli(&fixtures_dir(), &["--check", name]);
        assert_eq!(code, 0, "{name} must be clean; stdout:\n{stdout}");
        assert!(stderr.contains("no findings"));
    }
}

#[test]
fn cli_json_output_is_wellformed() {
    let (code, stdout, _) = run_cli(&fixtures_dir(), &["--json", "violations.rs"]);
    assert_eq!(code, 0, "without --check the exit code stays 0");
    let trimmed = stdout.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'));
    assert!(trimmed.contains(r#""rule": "nan-unsafe-cmp""#));
    assert!(trimmed.contains(r#""line": 6"#));
}

#[test]
fn cli_only_and_skip_filter_rules() {
    let (code, stdout, _) = run_cli(
        &fixtures_dir(),
        &["--only", "nondeterminism", "--check", "violations.rs"],
    );
    assert_eq!(code, 1);
    assert!(stdout.contains("nondeterminism"));
    assert!(!stdout.contains("hot-path-alloc"));

    let (code, stdout, _) = run_cli(
        &fixtures_dir(),
        &[
            "--skip",
            "nan-unsafe-cmp,hot-path-alloc,nondeterminism,validate-bypass,panic-hygiene",
            "--check",
            "violations.rs",
        ],
    );
    assert_eq!(
        code, 0,
        "skipping every rule must pass --check; stdout:\n{stdout}"
    );
}

#[test]
fn cli_rejects_unknown_rules_and_options() {
    let (code, _, stderr) = run_cli(&fixtures_dir(), &["--only", "bogus-rule"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown rule"));

    let (code, _, stderr) = run_cli(&fixtures_dir(), &["--frobnicate"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown option"));
}

#[test]
fn cli_lists_every_rule() {
    let (code, stdout, _) = run_cli(&fixtures_dir(), &["--list-rules"]);
    assert_eq!(code, 0);
    for rule in ALL_RULES {
        assert!(
            stdout.contains(rule.id),
            "missing {} in:\n{stdout}",
            rule.id
        );
    }
}

/// The CI invocation: `pliant-lint --check .` from the workspace root must pass.
#[test]
fn cli_check_passes_on_the_workspace() {
    let (code, stdout, stderr) = run_cli(&workspace_root(), &["--check", "."]);
    assert_eq!(code, 0, "workspace --check failed:\n{stdout}\n{stderr}");
    assert!(stderr.contains("no findings"));
}

fn render(findings: &[pliant_lint::findings::Finding]) -> String {
    findings
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}
