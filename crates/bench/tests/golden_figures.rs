//! Golden-output pins for the figure binaries.
//!
//! The population/instance refactor promises that exact simulation (the default
//! `FleetApproximation::Exact`) is *byte-identical* to the pre-population simulator.
//! These tests enforce the promise end to end: each figure binary is run with its
//! default flags and its `--json` output is compared byte-for-byte against the golden
//! file captured before the refactor landed.
//!
//! The single-node figures (`fig4_dynamic_behavior`, `fig5_aggregate`,
//! `fig8_load_sweep`) pin `Engine::run_scenario` end to end the same way: every
//! sampler, monitor and controller change on the serial engine must leave their bytes
//! untouched.
//!
//! If a change intentionally alters a figure (new operating point, new field in the
//! figure struct), regenerate the golden in the same commit:
//!
//! ```text
//! cargo run --release -p pliant-bench --bin fig_cluster -- --json \
//!     > crates/bench/tests/golden/fig_cluster.json
//! cargo run --release -p pliant-bench --bin fig_energy -- --json \
//!     > crates/bench/tests/golden/fig_energy.json
//! ```
//!
//! and likewise for the three single-node binaries above.
//!
//! An *unintentional* diff here means the exact simulation path changed behavior —
//! treat it as a correctness regression, not as a golden to refresh.

use std::process::Command;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read golden {path}: {e}"))
}

fn run_json(bin: &str, extra_args: &[&str]) -> String {
    let output = Command::new(bin)
        .arg("--json")
        .args(extra_args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("figure JSON is UTF-8")
}

#[test]
fn fig_cluster_default_output_is_byte_identical_to_the_golden() {
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_cluster"), &[]);
    assert_eq!(
        fresh,
        golden("fig_cluster.json"),
        "fig_cluster --json drifted from the pre-population golden; exact simulation \
         must stay byte-identical (see the module docs before refreshing)"
    );
}

#[test]
fn fig_energy_default_output_is_byte_identical_to_the_golden() {
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_energy"), &[]);
    assert_eq!(
        fresh,
        golden("fig_energy.json"),
        "fig_energy --json drifted from the pre-population golden; exact simulation \
         must stay byte-identical (see the module docs before refreshing)"
    );
}

#[test]
fn explicit_exact_approx_flag_matches_the_default_path() {
    // `--approx 0` must route through the same exact path as no flag at all.
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_energy"), &["--approx", "0"]);
    assert_eq!(fresh, golden("fig_energy.json"));
}

#[test]
fn fig4_dynamic_behavior_output_is_byte_identical_to_the_golden() {
    let fresh = run_json(env!("CARGO_BIN_EXE_fig4_dynamic_behavior"), &[]);
    assert_eq!(
        fresh,
        golden("fig4_dynamic_behavior.json"),
        "fig4_dynamic_behavior --json drifted; the single-node engine must stay \
         byte-identical (see the module docs before refreshing)"
    );
}

#[test]
fn fig5_aggregate_output_is_byte_identical_to_the_golden() {
    let fresh = run_json(env!("CARGO_BIN_EXE_fig5_aggregate"), &[]);
    assert_eq!(
        fresh,
        golden("fig5_aggregate.json"),
        "fig5_aggregate --json drifted; the single-node engine must stay \
         byte-identical (see the module docs before refreshing)"
    );
}

#[test]
fn fig8_load_sweep_output_is_byte_identical_to_the_golden() {
    let fresh = run_json(env!("CARGO_BIN_EXE_fig8_load_sweep"), &[]);
    assert_eq!(
        fresh,
        golden("fig8_load_sweep.json"),
        "fig8_load_sweep --json drifted; the single-node engine must stay \
         byte-identical (see the module docs before refreshing)"
    );
}

fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, inner)| inner))
        .unwrap_or_else(|| panic!("missing field {key}"))
}

#[test]
fn hyperscale_figure_runs_clustered_at_scale() {
    // Smoke: the default 10k-node hyperscale figure must produce valid JSON with the
    // clustered approximation engaged (a handful of instances, not 10k).
    let fresh = run_json(env!("CARGO_BIN_EXE_fig_hyperscale"), &[]);
    let v: serde_json::Value = serde_json::from_str(&fresh).expect("valid JSON");
    assert_eq!(field(&v, "fleet_nodes").as_u64(), Some(10_000));
    assert_eq!(field(&v, "approx_representatives").as_u64(), Some(4));
    let energy_rows = field(&v, "energy").as_array().expect("energy rows");
    let instances = field(&energy_rows[0], "simulated_instances")
        .as_u64()
        .expect("instance count");
    assert!(
        (1..100).contains(&instances),
        "clustered 10k-node run must simulate a handful of instances, got {instances}"
    );
}
