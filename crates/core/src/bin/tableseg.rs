//! `tableseg` — command-line record segmentation for saved HTML pages.
//!
//! ```text
//! tableseg --list page1.html [--list page2.html ...]
//!          --detail d1.html --detail d2.html ...
//!          [--target 0] [--method csp|prob|hybrid[,method...]]
//!          [--time] [--columns] [--wrapper] [--verbose]
//! ```
//!
//! Detail pages must be given in row order of the target list page. The
//! output is one line per record with its `|`-separated fields.
//!
//! The page runs through [`tableseg::run_page`]. `--method` accepts a
//! comma-separated list; every method segments the same prepared page,
//! and each method's records print under a `== method` header. `--time`
//! reports per-stage wall-clock times per method on stderr.
//! `--manifest PATH` enables the observability layer and writes the run
//! manifest (summary JSON, `.jsonl` event log, `.prom` Prometheus text;
//! see OBSERVABILITY.md) with one span subtree per requested method.

use std::process::ExitCode;

use tableseg::obs;
use tableseg::timing::{stage_spans, Stage, StageTimes};
use tableseg::{
    annotate_columns, assemble_records, induce_wrapper, run_page, CspSegmenter, HybridSegmenter,
    ProbSegmenter, Segmenter, SiteTemplate,
};

struct Args {
    lists: Vec<String>,
    details: Vec<String>,
    target: usize,
    methods: Vec<String>,
    time: bool,
    columns: bool,
    wrapper: bool,
    verbose: bool,
    manifest: Option<String>,
}

fn usage() -> &'static str {
    "usage: tableseg --list FILE [--list FILE ...] --detail FILE [--detail FILE ...]\n\
     \x20       [--target N] [--method csp|prob|hybrid[,method...]]\n\
     \x20       [--time] [--columns] [--wrapper] [--verbose] [--manifest PATH]\n\
     for long-running service use, see the `tablesegd` daemon and its\n\
     `tablesegctl` client in the tableseg-serve crate"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        lists: Vec::new(),
        details: Vec::new(),
        target: 0,
        methods: vec!["csp".to_owned()],
        time: false,
        columns: false,
        wrapper: false,
        verbose: false,
        manifest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--list" => args.lists.push(it.next().ok_or("--list needs a file")?),
            "--detail" => args.details.push(it.next().ok_or("--detail needs a file")?),
            "--target" => {
                args.target = it
                    .next()
                    .ok_or("--target needs a number")?
                    .parse()
                    .map_err(|e| format!("--target: {e}"))?;
            }
            "--method" => {
                let value = it.next().ok_or("--method needs a value")?;
                args.methods = value.split(',').map(str::to_owned).collect();
            }
            "--time" => args.time = true,
            "--columns" => args.columns = true,
            "--wrapper" => args.wrapper = true,
            "--verbose" => args.verbose = true,
            "--manifest" => args.manifest = Some(it.next().ok_or("--manifest needs a path")?),
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.lists.is_empty() {
        return Err(format!("at least one --list page required\n{}", usage()));
    }
    if args.details.is_empty() {
        return Err(format!("at least one --detail page required\n{}", usage()));
    }
    if args.target >= args.lists.len() {
        return Err("--target out of range".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    // Enable metrics before the front end runs so it records too.
    if args.manifest.is_some() {
        obs::set_enabled(true);
    }

    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let lists = args.lists.iter().map(read).collect::<Result<Vec<_>, _>>()?;
    let details = args
        .details
        .iter()
        .map(read)
        .collect::<Result<Vec<_>, _>>()?;
    let segmenters = args
        .methods
        .iter()
        .map(|method| -> Result<Box<dyn Segmenter>, String> {
            match method.as_str() {
                "csp" => Ok(Box::new(CspSegmenter::default())),
                "prob" => Ok(Box::new(ProbSegmenter::default())),
                "hybrid" => Ok(Box::new(HybridSegmenter::default())),
                other => Err(format!("unknown method {other} (csp|prob|hybrid)")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;

    let list_refs: Vec<&str> = lists.iter().map(String::as_str).collect();
    let detail_refs: Vec<&str> = details.iter().map(String::as_str).collect();
    let template =
        SiteTemplate::try_build(&list_refs).map_err(|e| format!("front end failed: {e}"))?;
    let refs: Vec<&dyn Segmenter> = segmenters.iter().map(Box::as_ref).collect();
    let result = run_page(&template, args.target, &detail_refs, None, &refs);
    if let (None, Some(e)) = (result.regions.first(), result.outcome.error()) {
        return Err(format!("front end failed: {e}"));
    }
    let prepared = &result.regions[0];
    if args.verbose {
        eprintln!(
            "front end: {} extracts kept, {} skipped, whole-page fallback: {}",
            prepared.observations.len(),
            prepared.observations.skipped.len(),
            prepared.used_whole_page
        );
    }

    let registry = tableseg::timing::Registry::new();
    // One span subtree per method, each over the site and page front-end
    // timings plus that method's solve/decode times — mirroring the
    // registry rows.
    let mut metrics = template.metrics.clone();
    metrics.merge(&result.metrics);
    let mut front = template.timings;
    front.merge(&prepared.timings);
    let mut root = obs::SpanNode::new(obs::SpanKind::Run, "tableseg", 0);
    for (method, solved) in args.methods.iter().zip(&result.solved) {
        if args.methods.len() > 1 {
            println!("== {method}");
        }
        let outcome = solved.as_ref().map_err(|e| format!("[{method}] {e}"))?;
        if args.verbose && outcome.relaxed {
            eprintln!("note: [{method}] constraints were relaxed (inconsistent source data)");
        }

        let mut times = StageTimes::new();
        let records = times.time(Stage::Decode, || {
            assemble_records(&template, args.target, prepared, &outcome.segmentation)
        });
        for record in &records {
            println!("{}\t{}", record.index + 1, record.fields.join(" | "));
        }

        if args.columns {
            match &outcome.columns {
                Some(columns) => {
                    eprintln!("column annotation:");
                    for ann in annotate_columns(&template, args.target, prepared, columns) {
                        eprintln!(
                            "  L{} -> {} ({:.0}%, n={})",
                            ann.column + 1,
                            ann.label,
                            ann.confidence * 100.0,
                            ann.support
                        );
                    }
                }
                None => eprintln!("--columns requires --method prob or hybrid on dirty data"),
            }
        }

        if args.wrapper {
            match induce_wrapper(&template, args.target, prepared, &outcome.segmentation) {
                Some(w) => {
                    eprintln!("induced row wrapper:");
                    eprintln!("  head: {:?}", w.head);
                    for (i, s) in w.seps.iter().enumerate() {
                        eprintln!("  sep{}: {:?}", i + 1, s);
                    }
                    eprintln!("  tail: {:?}", w.tail);
                }
                None => eprintln!("no consistent row wrapper could be induced"),
            }
        }

        let mut row = front;
        row.merge(&outcome.solver_times);
        row.merge(&times);
        registry.record(method, &row);

        let mut span = obs::SpanNode::new(obs::SpanKind::Site, method, row.total().as_nanos());
        for child in stage_spans(&row) {
            span.push(child);
        }
        root.nanos += span.nanos;
        root.push(span);
    }

    if args.time {
        eprintln!("per-stage wall clock:\n");
        eprint!("{}", registry.render());
    }

    if let Some(path) = &args.manifest {
        let mut manifest = obs::Manifest::new("tableseg")
            .with_config("lists", args.lists.len())
            .with_config("details", args.details.len())
            .with_config("target", args.target)
            .with_config("methods", args.methods.join(","));
        manifest.metrics = metrics;
        manifest.root = root;
        manifest.volatile.threads = 1;
        let redact = obs::deterministic_requested();
        let written = manifest
            .write_files(std::path::Path::new(path), redact)
            .map_err(|e| format!("cannot write manifest {path}: {e}"))?;
        for p in &written {
            eprintln!("manifest: wrote {}", p.display());
        }
    }
    Ok(())
}
