//! The repository benchmark: one command, four workloads, every end-to-end
//! metric by name and unit, and outputs checked on every run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_cold --seed 0 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//! - `sweep_cold`: the `ci/pareto-golden.json` matrix into an empty store;
//! - `sweep_warm`: 15 cells against a store filled during set-up;
//! - `attack_hot`: open-loop `POST /attack`, one model, every resolve an LRU hit;
//! - `attack_churn`: open-loop `POST /attack` over more models than the LRU
//!   holds, every resolve a disk-store load.
//!
//! `--trace 0` measures end to end. `--trace 1` installs the `deepsplit_obs`
//! recorder, replays the workload's public calls inside benchmark spans,
//! prints per-layer metrics and writes a chrome trace. The last line of
//! standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod attack;
mod layers;
mod loadgen;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// The seed that reproduces the CI golden spec.
pub const DEFAULT_SEED: u64 = 0;

/// Directory (relative to the working directory) holding per-run records,
/// chrome traces and scratch stores.
const OUT_DIR: &str = ".bench_results";

/// The end-to-end read-out of one untraced run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted: matrix cells or `/attack` requests.
    pub attempted: usize,
    /// Units that failed or produced a wrong output.
    pub failed: usize,
    /// Why the run cannot report at all (set-up failed).
    pub broken: Option<String>,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Cells per second, or closed-loop `/attack` capacity in requests/s.
    pub throughput: f64,
    /// Median latency of a unit of work, milliseconds.
    pub p50_ms: f64,
    /// Tail latency (see `stats::tail`), milliseconds.
    pub tail_ms: f64,
    /// Mean DL CCR over cells or served answers, percent.
    pub dl_ccr_pct: f64,
    /// Peak resident memory through set-up and the first measured unit
    /// (one `engine::run` call, or the open loop), MB. Read at a fixed
    /// point because the high-water mark creeps up with every further call.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// A run whose set-up failed: nothing measured, everything failed.
    pub fn broken(why: String) -> Outcome {
        Outcome {
            attempted: 1,
            failed: 1,
            broken: Some(why),
            ..Outcome::default()
        }
    }
}

/// A scratch directory under [`OUT_DIR`], removed when dropped.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(workload: &str) -> std::io::Result<Scratch> {
        let root = Path::new(OUT_DIR).join(format!("tmp-{workload}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A fresh, empty subdirectory.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Peak resident memory of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload").ok_or("--workload NAME is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = match value("--seed") {
        Some(s) => s.parse().map_err(|e| format!("--seed: {e}"))?,
        None => DEFAULT_SEED,
    };
    let seconds: f64 = match value("--seconds") {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None => 10.0,
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
    })
}

const WORKLOADS: [&str; 4] = ["sweep_cold", "sweep_warm", "attack_hot", "attack_churn"];

/// Where a run came from, recorded with every result.
#[derive(Debug, serde::Serialize)]
struct Provenance {
    /// `HEAD`, when the working directory is a git checkout.
    commit: Option<String>,
    /// Whether tracked files differ from `HEAD`.
    dirty: Option<bool>,
    /// Cores available to this process.
    nproc: usize,
    seed: u64,
    /// The full command line.
    command: Vec<String>,
    /// `rustc -V`.
    rustc: Option<String>,
    unix_time_s: u64,
}

fn provenance(argv: &[String], args: &Args) -> Provenance {
    // Only ask git about a checkout that has its own repository: asking
    // elsewhere would search the parent directories.
    let git = |args: &[&str]| -> Option<String> {
        if !Path::new(".git").exists() {
            return None;
        }
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    Provenance {
        commit: git(&["rev-parse", "HEAD"]),
        dirty: git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty()),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        seed: args.seed,
        command: std::env::args()
            .take(1)
            .chain(argv.iter().cloned())
            .collect(),
        rustc: std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string()),
        unix_time_s: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
    }
}

/// Metric name → (value, unit), in print order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust prints; non-finite values (a metric
/// that could not be measured) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Appends one line per run to `OUT_DIR/runs.jsonl`, so results accumulate
/// into a trajectory instead of overwriting each other.
fn record(provenance: &Provenance, workload: &str, result: &str) {
    let line = format!(
        "{{\"workload\": \"{workload}\", \"provenance\": {}, \"result\": {result}}}\n",
        serde_json::to_string(provenance).unwrap_or_else(|_| "null".to_string())
    );
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(Path::new(OUT_DIR).join("runs.jsonl"))?
            .write_all(line.as_bytes())
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not record the run: {e}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let provenance = provenance(&argv, &args);
    eprintln!(
        "perfbench {} seed {} for {} s (trace {}); {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        serde_json::to_string(&provenance).unwrap_or_default()
    );
    let scratch = match Scratch::new(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: scratch directory: {e}");
            std::process::exit(2);
        }
    };

    let (correct, attempted, failed, metrics) = if args.trace {
        let traced = layers::run(&args.workload, args.seed, args.seconds, &scratch);
        (
            traced.correct,
            traced.attempted,
            traced.failed,
            traced.metrics,
        )
    } else {
        let outcome = match args.workload.as_str() {
            "sweep_cold" => sweep::run_cold(args.seed, args.seconds, &scratch),
            "sweep_warm" => sweep::run_warm(args.seed, args.seconds, &scratch),
            "attack_hot" => attack::run(&attack::hot(args.seed), args.seed, args.seconds, &scratch),
            _ => attack::run(&attack::churn(args.seed), args.seed, args.seconds, &scratch),
        };
        if let Some(why) = &outcome.broken {
            eprintln!("perfbench: {why}");
        }
        let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        eprintln!(
            "{}: {} attempted, {} failed, error_rate {error_rate}",
            args.workload, outcome.attempted, outcome.failed
        );
        let metrics: Metrics = vec![
            ("setup_s", outcome.setup_s, "s"),
            ("throughput_per_s", outcome.throughput, "1/s"),
            ("p50_ms", outcome.p50_ms, "ms"),
            ("tail_ms", outcome.tail_ms, "ms"),
            ("dl_ccr_pct", outcome.dl_ccr_pct, "%"),
            ("peak_rss_mb", outcome.peak_rss_mb, "MB"),
        ];
        let measured = metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0);
        (
            outcome.broken.is_none() && outcome.failed == 0 && measured,
            outcome.attempted,
            outcome.failed,
            metrics,
        )
    };
    drop(scratch);

    for (name, value, unit) in &metrics {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    let result = result_json(correct, attempted, failed, &metrics);
    record(&provenance, &args.workload, &result);
    println!("{result}");
    if !correct {
        eprintln!("perfbench: {} failed its correctness checks", args.workload);
        std::process::exit(1);
    }
}
