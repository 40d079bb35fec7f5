//! Malformed numeric flags are rejected, not replaced by the default.
//!
//! Every figure binary parses its numeric flags through `pliant_bench::parse_flag`:
//! a value that does not parse ends the run with exit status 2 and a message naming
//! the flag, before any simulation starts.

use std::process::Command;

#[test]
fn non_numeric_flag_values_exit_2() {
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_fig7_violins"), "--combos"),
        (env!("CARGO_BIN_EXE_fig8_load_sweep"), "--apps"),
        (env!("CARGO_BIN_EXE_fig10_breakdown"), "--combos"),
        (env!("CARGO_BIN_EXE_fig_cluster"), "--seed"),
        (env!("CARGO_BIN_EXE_fig_cluster"), "--checkpoint-at"),
        (env!("CARGO_BIN_EXE_fig_energy"), "--nodes"),
        (env!("CARGO_BIN_EXE_fig_hyperscale"), "--approx"),
    ] {
        let output = Command::new(bin)
            .args([flag, "many"])
            .output()
            .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
        assert_eq!(
            output.status.code(),
            Some(2),
            "{bin} {flag} many must exit 2; stdout: {}",
            String::from_utf8_lossy(&output.stdout)
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(flag),
            "the error must name {flag}: {stderr}"
        );
    }
}
