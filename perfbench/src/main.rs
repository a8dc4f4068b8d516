//! End-to-end and per-layer benchmark of the selfish-peers workspace.
//!
//! ```text
//! perfbench --workload serve_spill|serve_resident|dynamics_batch
//!           --seed N --seconds S --trace 0|1
//! perfbench --self-check
//! ```
//!
//! One workload per invocation. Inputs (request scripts, game
//! instances) are generated from `--seed` before any timing starts;
//! the program under test only ever sees the generated requests or
//! instances. A run measures for `--seconds`, checks every output
//! against the single-threaded reference, prints an environment header
//! and a metric table, and ends with one JSON result line. With
//! `--trace 0` the result line carries the end-to-end metrics; with
//! `--trace 1` a separate, traced run carries the per-layer metrics and
//! writes its spans to `.perfbench/spans-<workload>.jsonl`.
//! Any reference mismatch or failed `wal_verify` exits non-zero.
//!
//! `--self-check` runs every workload tiny, both modes, and fails unless
//! the printed metric names match `BENCHMARK.json` in the working
//! directory.

#![forbid(unsafe_code)]

mod batch;
mod env;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::{Report, END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["serve_spill", "serve_resident", "dynamics_batch"];

/// What one run hands back to be printed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
    /// Correctness failures; any entry fails the run.
    pub problems: Vec<String>,
    /// Environment facts for the header (fsync policy, spill fs).
    pub env: Vec<(String, String)>,
    /// Extra `# ` lines for the table (counters behind the metrics).
    pub notes: Vec<String>,
}

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Tiny inputs for the self-check.
    pub tiny: bool,
    /// Scratch directory for spill, WAL and probe files; removed at exit.
    pub work_dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (0|1)")),
                }
            }
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.self_check && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &RunConfig) -> Outcome {
    std::fs::create_dir_all(&cfg.work_dir).expect("create the benchmark work directory");
    let out = match name {
        "serve_spill" => serve::run(serve::Kind::Spill, cfg),
        "serve_resident" => serve::run(serve::Kind::Resident, cfg),
        "dynamics_batch" => batch::run(cfg),
        other => unreachable!("workload {other} was validated"),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    out
}

/// Prints the header, table and result line; returns whether the run
/// passed.
fn emit(name: &str, cfg: &RunConfig, out: &Outcome, spans: Option<&Path>) -> bool {
    println!(
        "# env {} workload={name} seed={} seconds={} trace={}",
        env::header(&out.env),
        cfg.seed,
        cfg.seconds.as_secs_f64(),
        u8::from(cfg.trace)
    );
    for m in out.report.metrics() {
        println!("{}", report::line(m));
    }
    for n in &out.notes {
        println!("# {n}");
    }
    if let Some(p) = spans {
        println!("# spans written to {}", p.display());
    }
    for p in &out.problems {
        println!("# CORRECTNESS FAILURE: {p}");
    }
    let (required, zero_if_missing) = if cfg.trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    let correct = out.problems.is_empty();
    match report::result_line(
        correct,
        out.attempted.max(1),
        out.failed,
        &out.report,
        required,
        zero_if_missing,
    ) {
        Ok(line) => {
            println!("{line}");
            correct
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            false
        }
    }
}

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(".perfbench").join(format!("work-{name}-{}", std::process::id()))
}

fn self_check() -> bool {
    let bench = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|s| sp_json::parse(&s).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("self-check: cannot read BENCHMARK.json: {e}");
            return false;
        }
    };
    let names = |key: &str| -> Vec<String> {
        bench[key]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|m| m["name"].as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut ok = true;
    let mut expect = |what: &str, listed: Vec<String>, printed: Vec<String>| {
        if listed != printed {
            eprintln!(
                "self-check: {what} differ\n  BENCHMARK.json: {listed:?}\n  printed: {printed:?}"
            );
            ok = false;
        }
    };
    expect(
        "workloads",
        names("workloads"),
        WORKLOADS.iter().map(|s| (*s).to_owned()).collect(),
    );
    expect(
        "end_to_end metrics",
        names("end_to_end"),
        END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect(),
    );
    expect(
        "per_layer metrics",
        names("per_layer"),
        PER_LAYER.iter().map(|(n, _)| (*n).to_owned()).collect(),
    );
    for name in WORKLOADS {
        for trace in [false, true] {
            let cfg = RunConfig {
                seed: 7,
                seconds: Duration::from_millis(600),
                trace,
                tiny: true,
                work_dir: work_dir(name),
            };
            let out = run_workload(name, &cfg);
            let printed: Vec<String> = out
                .report
                .metrics()
                .iter()
                .map(|m| m.name.clone())
                .collect();
            let required = if trace { PER_LAYER } else { END_TO_END };
            for (m, _) in required {
                if !printed.iter().any(|p| p == m) {
                    eprintln!("self-check: {name} trace={trace} never printed {m}");
                    ok = false;
                }
            }
            if !emit(name, &cfg, &out, None) {
                eprintln!("self-check: {name} trace={trace} failed");
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        let ok = self_check();
        println!("self-check {}", if ok { "passed" } else { "FAILED" });
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        tiny: false,
        work_dir: work_dir(&args.workload),
    };
    let calib_before = env::calibration_ms();
    let mut out = run_workload(&args.workload, &cfg);
    out.env.push((
        "host_calib_ms".into(),
        format!("{calib_before:.1}->{:.1}", env::calibration_ms()),
    ));
    let spans = cfg.trace.then(|| spans_file(&args.workload));
    if emit(&args.workload, &cfg, &out, spans.as_deref()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The spans file of a traced run (the latest run of each workload).
pub fn spans_file(workload: &str) -> PathBuf {
    PathBuf::from(".perfbench").join(format!("spans-{workload}.jsonl"))
}
