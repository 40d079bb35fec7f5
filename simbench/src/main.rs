//! The repository benchmark. See `README.md` beside this package for how to run it
//! and read it.
//!
//! ```text
//! simbench --workload <colocation_grid|fleet_churn|fleet_hyperscale>
//!          --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Each workload is a closed loop with one client: the next pass starts only after the
//! previous one finished. With `--trace 0` the benchmark repeats untraced passes for
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it runs the traced
//! passes and reports the per-layer metrics, writing its spans to
//! `<out-dir>/<workload>.trace.json`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod fleet;
mod grid;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub const WORKLOADS: [&str; 3] = ["colocation_grid", "fleet_churn", "fleet_hyperscale"];

/// The simulated (Pliant-fidelity) totals of one pass. They repeat exactly for a seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Fidelity {
    /// Pliant's traffic-serving node-intervals that missed QoS.
    pub violations: u64,
    /// Pliant's traffic-serving node-intervals.
    pub busy: u64,
    /// Sum of Pliant's approximate jobs' inaccuracy, in percent, over `jobs` jobs.
    pub inaccuracy_sum: f64,
    pub jobs: f64,
    pub energy_pliant_j: f64,
    pub energy_precise_j: f64,
}

/// What one untraced pass produced.
pub struct PassResult {
    /// Logical node-intervals simulated (one grid cell is one node).
    pub node_intervals: u64,
    /// Host CPU seconds of the pass's set-up steps: the shared set-up, then each run's
    /// construction up to its first simulated interval.
    pub setup_s: Vec<f64>,
    /// Host CPU seconds of each run of the pass, without set-up.
    pub run_s: Vec<f64>,
    /// Digest of every outcome of the pass.
    pub digest: u64,
    pub fidelity: Fidelity,
    /// Why the pass failed one of its own checks, if it did.
    pub failure: Option<String>,
    /// Noise-free counters printed beside the results.
    pub counts: Vec<(&'static str, f64)>,
}

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.value(name, "count", value);
    }

    /// A share, given as a fraction, reported in percent.
    pub fn pct(&mut self, name: &str, fraction: f64) {
        self.value(name, "%", 100.0 * fraction);
    }

    /// A timing as its p50, its p99 and its sample count.
    pub fn timing(&mut self, name: &str, unit: &'static str, samples: &stats::Samples) {
        self.value(&format!("{name}.p50"), unit, samples.p50());
        self.value(&format!("{name}.p99"), unit, samples.p99());
        self.count(&format!("{name}.n"), samples.len() as f64);
    }
}

/// Per-layer timings, each reported as `<name>.p50`, `<name>.p99` and `<name>.n`.
pub const PER_LAYER_TIMINGS: [(&str, &str); 20] = [
    ("sim.advance_us", "us"),
    ("sim.sample_ns", "ns"),
    ("core.monitor_us", "us"),
    ("core.decide_ns", "ns"),
    ("core.apply_ns", "ns"),
    ("core.cell_ms", "ms"),
    ("cluster.step_us", "us"),
    ("cluster.advance_us", "us"),
    ("cluster.aggregate_us", "us"),
    ("cluster.node_step_us", "us"),
    ("cluster.coord_us", "us"),
    ("cluster.balancer_ns", "ns"),
    ("cluster.scheduler_ns", "ns"),
    ("cluster.autoscaler_ns", "ns"),
    ("cluster.population_ms", "ms"),
    ("cluster.finish_ms", "ms"),
    ("cluster.checkpoint_ms", "ms"),
    ("cluster.encode_ms", "ms"),
    ("cluster.decode_ms", "ms"),
    ("cluster.restore_ms", "ms"),
];

/// The other per-layer metrics: counts, ratios, shares and self times.
pub const PER_LAYER_VALUES: [(&str, &str); 28] = [
    ("sim.samples", "count"),
    ("sim.idle_pct", "%"),
    ("core.monitor_ns_per_sample", "ns"),
    ("core.actions", "count"),
    ("core.actions_accepted", "count"),
    ("core.parallel_eff", "ratio"),
    ("cluster.node_replay_mismatch", "count"),
    ("cluster.pool_speedup", "ratio"),
    ("cluster.checkpoint_bytes", "count"),
    ("cluster.instances", "count"),
    ("cluster.quiescent_pct", "%"),
    ("cluster.placed", "count"),
    ("cluster.requeued", "count"),
    ("cluster.migrated", "count"),
    ("cluster.down_node_intervals", "count"),
    ("telemetry.hist_records", "count"),
    ("telemetry.obs_events", "count"),
    ("telemetry.obs_export_ms", "ms"),
    ("telemetry.obs_overhead_pct", "%"),
    ("alloc.per_interval", "count"),
    ("trace.interval_unattributed_pct", "%"),
    ("trace.step_unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("self.bench_s", "s"),
    ("self.sim_s", "s"),
    ("self.core_s", "s"),
    ("self.cluster_s", "s"),
    ("self.telemetry_s", "s"),
];

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for (name, unit) in PER_LAYER_TIMINGS {
        names.push((format!("{name}.p50"), unit));
        names.push((format!("{name}.p99"), unit));
        names.push((format!("{name}.n"), "count"));
    }
    names.extend(PER_LAYER_VALUES.iter().map(|&(n, u)| (n.to_string(), u)));
    names
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let out_dir = value("--out-dir").map_or_else(|_| PathBuf::from(".bench_out"), PathBuf::from);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU seconds this process has used so far, on all of its threads.
///
/// The host metrics are CPU time, not wall time: on a shared machine the wall time of
/// a two-thread run mostly measures how long other tenants keep one of the cores, while
/// CPU time measures the simulator's own work. The wall-clock gain of the worker pool
/// is measured apart, by `cluster.pool_speedup`.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields on 64-bit
    // Linux) and the clock id is the kernel's constant for process CPU time.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A fixed integer loop, timed: millions of iterations per second. Printed beside the
/// results so runs on different hosts can be compared as ratios.
fn calibration_mops() -> f64 {
    const ITERATIONS: u64 = 20_000_000;
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    ITERATIONS as f64 / started.elapsed().as_secs_f64() / 1e6
}

/// Sum over positions of the median across passes: one pass made of the typical time
/// of each of its steps, so a stall in one step of one pass moves nothing.
fn sum_of_medians(passes: &[Vec<f64>]) -> f64 {
    (0..passes[0].len())
        .map(|i| stats::median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum()
}

/// Repeats untraced passes for `seconds` and derives the end-to-end metrics.
fn run_untraced(
    seconds: f64,
    mut pass: impl FnMut() -> PassResult,
) -> (Metrics, u64, u64, Vec<String>) {
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut setups = Vec::new();
    let mut first: Option<PassResult> = None;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut notes = Vec::new();
    loop {
        let result = pass();
        attempted += 1;
        let mut why = result.failure.clone();
        if let Some(first) = &first {
            if why.is_none() && (result.digest != first.digest || result.fidelity != first.fidelity)
            {
                why = Some("outcome digest differs from the first pass".into());
            }
        }
        if let Some(why) = why {
            failed += 1;
            notes.push(format!("pass {attempted} FAILED: {why}"));
            eprintln!("simbench: pass {attempted} failed: {why}");
        }
        runs.push(result.run_s.clone());
        setups.push(result.setup_s.clone());
        if first.is_none() {
            first = Some(result);
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let first = first.expect("at least one pass ran");
    let f = &first.fidelity;
    for (name, value) in &first.counts {
        notes.push(format!("count {name} = {value}"));
    }
    notes.push(format!(
        "count node_intervals_per_pass = {}",
        first.node_intervals
    ));
    let pass_rates: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{:.4e}",
                first.node_intervals as f64 / r.iter().sum::<f64>()
            )
        })
        .collect();
    notes.push(format!(
        "passes = {attempted}, rate per pass (1/s) = {}",
        pass_rates.join(" ")
    ));
    let mut m = Metrics::default();
    m.value(
        "sim_rate",
        "1/s",
        first.node_intervals as f64 / sum_of_medians(&runs),
    );
    m.value("setup_s", "s", sum_of_medians(&setups));
    m.value("peak_rss_mb", "MiB", peak_rss_mb());
    m.pct(
        "qos_violation_pct",
        f.violations as f64 / f.busy.max(1) as f64,
    );
    m.value("quality_loss_pct", "%", f.inaccuracy_sum / f.jobs.max(1.0));
    m.pct(
        "energy_vs_precise_pct",
        f.energy_pliant_j / f.energy_precise_j,
    );
    (m, attempted, failed, notes)
}

fn run_traced(args: &Args) -> (Metrics, u64, u64, Vec<String>) {
    let mut tracer = spans::Tracer::new();
    let mut m = Metrics::default();
    let mut failures = Vec::new();
    let root = tracer.begin("bench.traced_run");
    match args.workload.as_str() {
        "colocation_grid" => {
            grid::traced(args.seed, args.seconds, &mut tracer, &mut m, &mut failures)
        }
        name => fleet::traced(
            name,
            args.seed,
            args.seconds,
            &mut tracer,
            &mut m,
            &mut failures,
        ),
    }
    tracer.end(root);
    for (layer, self_s) in tracer.self_time_by_layer() {
        m.value(&format!("self.{layer}_s"), "s", self_s);
    }
    // Every traced run reports the full list; a layer the workload does not exercise
    // reads 0 with a sample count of 0.
    let mut measured = m.0;
    let mut m = Metrics::default();
    let mut absent = Vec::new();
    for (name, unit) in per_layer_names() {
        match measured.iter().position(|(n, _, _)| *n == name) {
            Some(i) => {
                let (name, value, measured_unit) = measured.swap_remove(i);
                assert_eq!(measured_unit, unit, "unit of {name}");
                m.value(&name, unit, value);
            }
            None => {
                absent.push(name.clone());
                m.value(&name, unit, 0.0);
            }
        }
    }
    assert!(
        measured.is_empty(),
        "unlisted per-layer metrics: {measured:?}"
    );
    let mut notes = vec![format!(
        "spans recorded = {}, not kept = {}",
        tracer.recorded(),
        tracer.dropped()
    )];
    let path = args.out_dir.join(format!("{}.trace.json", args.workload));
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_chrome_trace(&mut w)?;
        std::io::Write::flush(&mut w)
    });
    match written {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
    }
    if !absent.is_empty() {
        notes.push(format!(
            "not exercised by this workload (reported as 0): {}",
            absent.join(", ")
        ));
    }
    // The traced run is one operation; it failed if any of its checks did.
    let failed = u64::from(!failures.is_empty());
    for f in failures {
        eprintln!("simbench: traced check failed: {f}");
        notes.push(format!("FAILED: {f}"));
    }
    (m, 1, failed, notes)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (metrics, attempted, failed, notes) = if args.trace {
        run_traced(&args)
    } else {
        let seed = args.seed;
        match args.workload.as_str() {
            "colocation_grid" => run_untraced(args.seconds, || grid::pass(seed)),
            name => {
                let workload = fleet::Workload::parse(name).expect("workload names are checked");
                run_untraced(args.seconds, || fleet::pass(workload, seed))
            }
        }
    };

    println!(
        "workload {} seed {} trace {} threads_available {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    for note in &notes {
        println!("  {note}");
    }
    println!("  calibration_loop = {:.1} Mops/s", calibration_mops());
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
}
