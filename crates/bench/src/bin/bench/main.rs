//! `bench`: regenerates the paper's tables and figures, and records the
//! per-layer `BENCH_*.json` documents at the repository root.
//!
//! ```text
//! bench <subcommand> [flags]
//! ```
//!
//! Paper artifacts print their report on stdout; progress and timings go
//! to stderr, so stdout is byte-identical at any `--threads`. Recorded
//! benches print their document on stdout and gate, then write: a run
//! whose deterministic work counts differ from the committed
//! `BENCH_<name>.json`, or that fails a threshold gate, exits 1 and
//! leaves `--out` as it was (see `tableseg_bench::corpus::write_gated`).
//!
//! One parser serves every subcommand. It rejects an unknown flag, a
//! flag without its value and a flag that belongs to another subcommand.

use std::process::ExitCode;

use tableseg::batch;

mod paper;
mod recorded;

/// The parsed flags of one subcommand; unset flags take the
/// subcommand's default.
#[derive(Debug, Default, PartialEq)]
pub struct Flags {
    /// `--threads N`: batch worker threads (default: available
    /// parallelism).
    pub threads: Option<usize>,
    /// `--iters N`: passes per timed path; the fastest is recorded.
    pub iters: Option<usize>,
    /// `--out PATH`: where a recorded bench writes its document.
    pub out: Option<String>,
    /// `--manifest PATH`: enable the observability layer and write the
    /// run manifest (see OBSERVABILITY.md).
    pub manifest: Option<String>,
    /// `--clean-only`: the Section 6.3 aggregate over the pages the CSP
    /// solved without relaxing.
    pub clean_only: bool,
    /// `--rt`: the per-stage wall-clock tables, on stderr.
    pub rt: bool,
    /// `--secs S`: warm closed-loop duration.
    pub secs: Option<f64>,
}

impl Flags {
    /// `--threads`, or the available parallelism.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(batch::default_threads)
    }
}

/// Every flag the parser knows, with its value's placeholder (empty for
/// a switch).
const FLAGS: [(&str, &str); 7] = [
    ("--threads", "N"),
    ("--iters", "N"),
    ("--out", "PATH"),
    ("--manifest", "PATH"),
    ("--clean-only", ""),
    ("--rt", ""),
    ("--secs", "S"),
];

/// A subcommand's entry point.
type Run = fn(&Flags) -> Result<(), String>;

/// Every subcommand with the flags it takes: first the paper artifacts,
/// printed on stdout, then the recorded benches, gated against their
/// committed `BENCH_<name>.json` and then written.
const SUBCOMMANDS: [(&str, &[&str], Run); 15] = [
    (
        "table4",
        &["--threads", "--manifest", "--clean-only", "--rt"],
        paper::table4,
    ),
    ("tables123", &[], paper::tables123),
    ("figure1", &[], paper::figure1),
    ("figures23", &[], paper::figures23),
    ("ablations", &[], paper::ablations),
    ("sweeps", &[], paper::sweeps),
    ("baselines", &[], paper::baselines),
    ("frontend", &["--threads", "--out"], recorded::frontend),
    (
        "solver",
        &["--iters", "--threads", "--out", "--manifest"],
        recorded::solver,
    ),
    ("induce", &["--iters", "--out"], recorded::induce),
    ("scale", &["--threads", "--out"], recorded::scale),
    ("detect", &["--out"], recorded::detect),
    ("serve", &["--secs", "--threads", "--out"], recorded::serve),
    ("obs", &["--iters", "--threads", "--out"], recorded::obs),
    (
        "robustness",
        &["--threads", "--out", "--manifest"],
        recorded::robustness,
    ),
];

/// Parses `args` (the words after the subcommand) as flags of `sub`.
fn parse(name: &str, flags: &[&str], args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(&(flag, placeholder)) = FLAGS.iter().find(|(flag, _)| flag == arg) else {
            return Err(format!("unknown flag {arg}"));
        };
        if !flags.contains(&flag) {
            return Err(format!("{flag} is not a flag of `bench {name}`"));
        }
        match flag {
            "--clean-only" => f.clean_only = true,
            "--rt" => f.rt = true,
            _ => {
                let value = args
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{flag} needs a value ({placeholder})"))?;
                let count = || {
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| format!("{flag} needs a positive whole number, not {value}"))
                };
                match flag {
                    "--threads" => f.threads = Some(count()?),
                    "--iters" => f.iters = Some(count()?),
                    "--secs" => {
                        let secs = value
                            .parse()
                            .ok()
                            .filter(|&s: &f64| s > 0.0 && s.is_finite());
                        f.secs = Some(secs.ok_or_else(|| {
                            format!("{flag} needs a positive number of seconds, not {value}")
                        })?);
                    }
                    "--out" => f.out = Some(value.clone()),
                    _ => f.manifest = Some(value.clone()),
                }
            }
        }
    }
    Ok(f)
}

fn usage() -> String {
    let mut s = String::from("usage: bench <subcommand> [flags]\n\nsubcommands:\n");
    for (name, flags, _) in SUBCOMMANDS {
        let flags: Vec<String> = flags
            .iter()
            .map(|name| match FLAGS.iter().find(|(flag, _)| flag == name) {
                Some((flag, "")) => format!(" [{flag}]"),
                Some((flag, placeholder)) => format!(" [{flag} {placeholder}]"),
                None => unreachable!("{name} is not in FLAGS"),
            })
            .collect();
        s.push_str(&format!("  {name}{}\n", flags.concat()));
    }
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(&(name, flags, run)) = args
        .first()
        .and_then(|arg| SUBCOMMANDS.iter().find(|(name, _, _)| name == arg))
    else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    match parse(name, flags, &args[1..]).and_then(|flags| run(&flags)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sub: &str, args: &[&str]) -> Result<Flags, String> {
        let (name, flags, _) = SUBCOMMANDS.iter().find(|(name, ..)| *name == sub).unwrap();
        parse(
            name,
            flags,
            &args.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_each_subcommands_own_flags() {
        assert_eq!(
            run("table4", &["--rt", "--threads", "3", "--clean-only"]),
            Ok(Flags {
                threads: Some(3),
                rt: true,
                clean_only: true,
                ..Flags::default()
            })
        );
        let serve = run("serve", &["--secs", "0.5", "--out", "x.json"]).unwrap();
        assert_eq!(
            (serve.secs, serve.out.as_deref()),
            (Some(0.5), Some("x.json"))
        );
        assert_eq!(run("tables123", &[]), Ok(Flags::default()));
    }

    #[test]
    fn rejects_an_unknown_flag() {
        assert_eq!(
            run("solver", &["--profile"]),
            Err("unknown flag --profile".into())
        );
        assert_eq!(
            run("table4", &["--bench-json", "x"]),
            Err("unknown flag --bench-json".into())
        );
        assert_eq!(
            run("scale", &["--sites", "100"]),
            Err("unknown flag --sites".into())
        );
    }

    #[test]
    fn rejects_a_missing_value() {
        assert_eq!(
            run("induce", &["--out"]),
            Err("--out needs a value (PATH)".into())
        );
        assert_eq!(
            run("obs", &["--iters", "--threads", "2"]),
            Err("--iters needs a value (N)".into())
        );
        assert_eq!(
            run("obs", &["--iters", "0"]),
            Err("--iters needs a positive whole number, not 0".into())
        );
        assert!(run("serve", &["--secs", "soon"]).is_err());
        assert!(run("serve", &["--secs", "inf"]).is_err());
    }

    #[test]
    fn rejects_a_flag_of_another_subcommand() {
        assert_eq!(
            run("solver", &["--rt"]),
            Err("--rt is not a flag of `bench solver`".into())
        );
        assert_eq!(
            run("detect", &["--threads", "2"]),
            Err("--threads is not a flag of `bench detect`".into())
        );
        assert_eq!(
            run("tables123", &["--out", "x"]),
            Err("--out is not a flag of `bench tables123`".into())
        );
    }

    /// Every flag a subcommand lists is one the parser knows, and every
    /// known flag serves some subcommand.
    #[test]
    fn the_flag_table_and_the_subcommands_agree() {
        for (name, flags, _) in SUBCOMMANDS {
            for flag in flags {
                assert!(FLAGS.iter().any(|(f, _)| f == flag), "{name}: {flag}");
            }
        }
        for (flag, _) in FLAGS {
            let used = SUBCOMMANDS
                .iter()
                .any(|(_, flags, _)| flags.contains(&flag));
            assert!(used, "{flag}");
        }
        assert!(usage().contains("  robustness [--threads N] [--out PATH] [--manifest PATH]\n"));
    }
}
