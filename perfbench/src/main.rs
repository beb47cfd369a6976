//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_batch|universe_batch|serve_churn|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every figure with its unit, then, as the last line,
//! one JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits
//! non-zero when a correctness check fails. `--workload all` runs each
//! workload in its own child process. See `perfbench/README.md`.

mod batch;
mod layers;
mod report;
mod sched;
mod serve;
mod stats;
mod trace;

use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{check_set, result_line, table, Outcome, END_TO_END, PER_LAYER};
use trace::Trace;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["paper_batch", "universe_batch", "serve_churn"];

/// Where traced runs write their span files, relative to the checkout.
const TRACE_DIR: &str = ".perfbench_out";

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(args)
}

/// Runs one set-up, appending its time in seconds to `times`.
pub fn timed<T>(times: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = setup();
    times.push(t.elapsed().as_secs_f64());
    out
}

/// Writes a traced run's spans and reported values to [`TRACE_DIR`].
pub fn write_trace(args: &Args, trace: &Trace, reported: &[(String, f64)]) -> Result<(), String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}-{}.json", args.workload, args.seed);
    std::fs::write(&path, trace.to_json(&args.workload, args.seed, reported))
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("perfbench: wrote {path} ({} spans)", trace.spans.len());
    Ok(())
}

/// Runs every workload in its own child process, so process-global
/// state (the obs switch, the induction counter) never crosses workloads.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        match out {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                ok &= out.status.success();
                lines.push(format!(
                    "\"{w}\": {}",
                    stdout.lines().last().unwrap_or("null")
                ));
            }
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                ok = false;
            }
        }
    }
    println!("{{{}}}", lines.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "paper_batch" => batch::paper(&args),
        "universe_batch" => batch::universe(&args),
        _ => serve::churn(&args),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let (values, expected): (_, &[&str]) = if args.trace {
        (&outcome.metrics.layers, &PER_LAYER)
    } else {
        (&outcome.metrics.e2e, &END_TO_END)
    };
    if let Err(e) = check_set(values, expected) {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    print!("{}", table(&args.workload, &outcome));
    println!("{}", result_line(&outcome, values));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {}: correctness check failed", args.workload);
        ExitCode::FAILURE
    }
}
