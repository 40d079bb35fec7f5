#!/usr/bin/env python3
"""The CI performance gate, built on the repository benchmark (`simbench/`).

Run from the repository root:

    python3 ci/perf_gate.py measure   # run every workload, write perf_current.json
    python3 ci/perf_gate.py check     # gate perf_current.json against BENCH_PERF.json

`measure` runs each workload of `BENCHMARK.json` untraced at seed 1 for the file's
`run_seconds`, with the command the file names, and writes the result lines plus each
run's `calibration_loop` rate (a fixed integer loop, Mops/s) to `perf_current.json`.
It fails if a run does not finish or reports `correct: false`.

`check` fails if any run has `correct: false`, if `fleet_hyperscale` `sim_rate` is
below 10x `fleet_churn` `sim_rate`, or if any end-to-end metric of `BENCHMARK.json`
is worse than the checked-in `BENCH_PERF.json` by more than the metric's `bound`, in
the metric's direction. Host metrics (`sim_rate`, `setup_s`) are scaled by the ratio
of the two files' host speeds first (the median `calibration_loop` rate of a file's
runs), so a baseline taken on one runner class gates another as a ratio.

`BENCH_PERF.json` has the schema `perf_current.json` has: refreshing the baseline means
committing a `perf_current.json`, ideally the `perf-report` artifact of a CI run.
"""

import json
import re
import statistics
import subprocess
import sys

SCHEMA = "pliant-simbench-gate/v1"
SEED = 1
# Host metrics and the power of the host-speed ratio they scale with: a rate rises with
# host speed, a duration falls.
HOST_SCALED = {"sim_rate": 1, "setup_s": -1}
# The structural claim of the clustered approximation: a logical node-interval of the
# hyperscale fleet costs at least ten times less than one of the exact fleet.
HYPERSCALE_OVER_EXACT = 10.0
CALIBRATION = re.compile(r"^\s*calibration_loop = ([0-9.eE+-]+) Mops/s\s*$")


def load(path):
    with open(path) as f:
        return json.load(f)


def measure():
    bench = load("BENCHMARK.json")
    report = {
        "schema": SCHEMA,
        "seed": SEED,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        command = bench["command"] + [
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        print("$ " + " ".join(command), flush=True)
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(run.stdout, end="", flush=True)
        lines = run.stdout.strip().splitlines()
        calibration = [float(m.group(1)) for m in map(CALIBRATION.match, lines) if m]
        if run.returncode != 0 or not lines or not calibration:
            errors.append(f"{workload}: the benchmark exited {run.returncode} without a result")
            continue
        result = json.loads(lines[-1])
        report["workloads"][workload] = {"calibration_loop": calibration[0], "result": result}
        # Checked here as well as in `check`: the perf-override label skips the
        # comparison, never correctness.
        if result.get("correct") is not True:
            errors.append(f"{workload}: correct is {result.get('correct')}")
    with open("perf_current.json", "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print("wrote perf_current.json")
    return errors


def metric(report, workload, name):
    value = report["workloads"][workload]["result"]["metrics"][name]["value"]
    if value is None:
        raise ValueError(f"{workload} {name} is not a finite number")
    return value


def host_speed(report):
    """Median `calibration_loop` rate of the report's runs: one loop of a few dozen
    milliseconds per run is noisy, the median of the runs less so."""
    return statistics.median(w["calibration_loop"] for w in report["workloads"].values())


def check():
    bench = load("BENCHMARK.json")
    current = load("perf_current.json")
    baseline = load("BENCH_PERF.json")
    for name, report in (("perf_current.json", current), ("BENCH_PERF.json", baseline)):
        if report.get("schema") != SCHEMA:
            return [
                f"{name} has schema {report.get('schema')!r}, not {SCHEMA!r}; "
                "refresh it with `python3 ci/perf_gate.py measure` (README, "
                "\"Measuring\")"
            ]
    errors = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        if workload not in current["workloads"]:
            errors.append(f"{workload}: no result in perf_current.json")
        elif current["workloads"][workload]["result"].get("correct") is not True:
            errors.append(f"{workload}: correct is not true")
        if workload not in baseline["workloads"]:
            errors.append(f"{workload}: no result in BENCH_PERF.json")
    if errors:
        return errors

    exact = metric(current, "fleet_churn", "sim_rate")
    clustered = metric(current, "fleet_hyperscale", "sim_rate")
    print(f"fleet_hyperscale over fleet_churn sim_rate: {clustered / exact:.1f}x "
          f"(at least {HYPERSCALE_OVER_EXACT:g}x)")
    if clustered < HYPERSCALE_OVER_EXACT * exact:
        errors.append(f"fleet_hyperscale sim_rate {clustered:.4g} is below "
                      f"{HYPERSCALE_OVER_EXACT:g}x fleet_churn sim_rate {exact:.4g}")

    # Above 1 when the current host runs the calibration loop faster.
    speed = host_speed(current) / host_speed(baseline)
    print(f"host speed over the baseline's: {speed:.3f}; sim_rate and setup_s are "
          "scaled to the baseline host")
    print(f"{'workload':<18} {'metric':<22} {'baseline':>12} {'current':>12} "
          f"{'change':>8} {'bound':>6}")
    for workload in workloads:
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            base = metric(baseline, workload, name)
            cur = metric(current, workload, name)
            if name in HOST_SCALED:
                cur /= speed ** HOST_SCALED[name]
            worse = base - cur if spec["better"] == "higher" else cur - base
            failed = worse > bound * abs(base)
            change = f"{(cur - base) / base:+.1%}" if base else "-"
            print(f"{workload:<18} {name:<22} {base:>12.5g} {cur:>12.5g} "
                  f"{change:>8} {bound:>6.0%}{'  WORSE' if failed else ''}")
            if failed:
                errors.append(f"{workload} {name}: {cur:.5g} against baseline {base:.5g} "
                              f"is worse by more than {bound:.0%} ({spec['better']} is better)")
    return errors


def main():
    steps = {"measure": measure, "check": check}
    if len(sys.argv) != 2 or sys.argv[1] not in steps:
        sys.exit(f"usage: {sys.argv[0]} <{'|'.join(steps)}>")
    errors = steps[sys.argv[1]]()
    for error in errors:
        print(f"perf gate: {error}", file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
