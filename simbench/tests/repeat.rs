//! The benchmark's own contract: counts and simulated metrics repeat exactly across two
//! runs with one seed, every run passes its checks, and the metric names are exactly
//! those `BENCHMARK.json` lists.

use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 3] = ["colocation_grid", "fleet_churn", "fleet_hyperscale"];

/// Simulated end-to-end metrics, which depend on the seed only.
const SIMULATED: [&str; 3] = [
    "qos_violation_pct",
    "quality_loss_pct",
    "energy_vs_precise_pct",
];

/// Runs the benchmark and returns its result line's metrics as `(name, value)`.
fn run(workload: &str, trace: bool, seconds: &str) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", seconds])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: {stdout}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Value::as_f64).expect("a value"),
            )
        })
        .collect()
}

/// Metric names of one `BENCHMARK.json` list.
fn listed(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the package");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// A count: repeats exactly for a seed (timings, ratios and sample counts do not).
fn is_count(name: &str) -> bool {
    const COUNTS: [&str; 15] = [
        "sim.samples",
        "sim.idle_pct",
        "core.actions",
        "core.actions_accepted",
        "cluster.node_replay_mismatch",
        "cluster.checkpoint_bytes",
        "cluster.instances",
        "cluster.quiescent_pct",
        "cluster.placed",
        "cluster.requeued",
        "cluster.migrated",
        "cluster.down_node_intervals",
        "telemetry.hist_records",
        "telemetry.obs_events",
        "alloc.per_interval",
    ];
    COUNTS.contains(&name)
}

#[test]
fn simulated_metrics_repeat_and_names_match() {
    let names = listed("end_to_end");
    for workload in WORKLOADS {
        let a = run(workload, false, "0.1");
        let b = run(workload, false, "0.1");
        assert_eq!(a.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(), names);
        for name in SIMULATED {
            let value =
                |m: &[(String, f64)]| m.iter().find(|(n, _)| n == name).map(|(_, v)| v.to_bits());
            assert_eq!(
                value(&a),
                value(&b),
                "{workload}: {name} must repeat exactly"
            );
        }
    }
}

#[test]
fn traced_counts_repeat_and_names_match() {
    let names = listed("per_layer");
    for workload in WORKLOADS {
        let a = run(workload, true, "1");
        let b = run(workload, true, "1");
        assert_eq!(a.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(), names);
        for ((name, x), (_, y)) in a.iter().zip(&b) {
            if is_count(name) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{workload}: {name} must repeat exactly"
                );
            }
        }
    }
}
