//! The paper artifacts: Tables 1-4, Figures 1-3, the ablations, the
//! sweeps and the layout baselines, each printed on stdout.

use tableseg::obs;
use tableseg::prob::ProbOptions;
use tableseg::timing::Stage;
use tableseg::{
    batch, run_page, CspSegmenter, HybridSegmenter, ProbSegmenter, Segmenter, SiteTemplate,
};
use tableseg_baselines::{domtable, iepad, roadrunner, textseg};
use tableseg_bench::corpus::write_manifest;
use tableseg_bench::{classify_page, run_corpus, run_sites, table4_report, totals};
use tableseg_eval::classify::{classify_spans, PageCounts};
use tableseg_eval::Metrics;
use tableseg_sitegen::chaos::ChaosConfig;
use tableseg_sitegen::domains::Domain;
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::quirks::Quirk;
use tableseg_sitegen::site::{generate, LayoutStyle, SiteSpec};

use crate::Flags;

/// **Table 4**: per-site record-segmentation results for both approaches
/// over the twelve simulated sites, with aggregate precision / recall /
/// F. The sites run through the work-stealing batch engine and results
/// are collected in job order, so the report is byte-identical for any
/// `--threads`.
pub fn table4(f: &Flags) -> Result<(), String> {
    if f.manifest.is_some() {
        obs::set_enabled(true);
    }
    let specs = paper_sites::all();
    let threads = f.threads();
    eprintln!("running {} sites on {threads} thread(s) ...", specs.len());
    let outcome = run_sites(&specs, threads);
    print!("{}", table4_report(&outcome.runs, f.clean_only));
    if f.rt {
        // Timings vary run to run; keep them off stdout so the report
        // stays byte-identical (and pipeable) with or without --rt.
        eprintln!("\nRT: per-stage wall clock by site ({threads} thread(s))\n");
        eprint!("{}", outcome.timing.render());
        eprintln!("\nRT: solve split by method and EM phase\n");
        eprint!("{}", outcome.timing.render_solve_split());
    }
    if let Some(path) = &f.manifest {
        let manifest = outcome
            .manifest("table4", threads)
            .with_config("clean_only", f.clean_only)
            .with_config("sites", specs.len());
        write_manifest(&manifest, path)?;
    }
    Ok(())
}

/// **Tables 1-3**: the Superpages running example — the observation
/// table (`D_i`), the assignment of extracts to records, and the
/// positions of extracts on detail pages.
pub fn tables123(_: &Flags) -> Result<(), String> {
    print!("{}", tableseg_bench::tables123_report());
    Ok(())
}

/// **Figure 1**: the first list page and the first record's detail page
/// of the simulated Superpages site.
pub fn figure1(_: &Flags) -> Result<(), String> {
    let spec = paper_sites::superpages();
    let site = generate(&spec);
    println!("==== {} — list page 1 ====\n", spec.name);
    println!("{}\n", site.pages[0].list_html);
    println!("==== {} — detail page of record 1 ====\n", spec.name);
    println!("{}", site.pages[0].detail_html[0]);
    Ok(())
}

/// **Figures 2 and 3**: the structure of the graphical model for record
/// extraction, without and with the record period model π.
pub fn figures23(_: &Flags) -> Result<(), String> {
    use tableseg_prob::model::describe;
    println!("Figure 2: probabilistic model for record extraction\n");
    println!("{}", describe(false));
    println!("Figure 3: the model extended with the record period model pi\n");
    println!("{}", describe(true));
    Ok(())
}

/// Prints one ablation line: `label`, the metrics, then the counts.
fn counts_line(label: &str, c: &PageCounts) {
    println!(
        "  {label}{}   (Cor={} InC={} FN={} FP={})",
        Metrics::from_counts(c),
        c.cor,
        c.incor,
        c.fneg,
        c.fpos
    );
}

/// The ablations over the design choices DESIGN.md calls out:
///
/// * **AB1** — CSP with vs without the Section 4.2 position constraints;
/// * **AB2** — probabilistic approach with vs without the hierarchical
///   record-period model π (Figure 3 vs Figure 2);
/// * **AB3** — induced table slot vs the whole-page fallback everywhere;
/// * **AB5** — the hybrid segmenter of Section 7 ("a combination of the
///   two") vs each approach alone;
/// * **AB6** — the paper's proposed fix for numbered sites: continue the
///   entry numbering on the next result page so the numbers stop being
///   page-invariant ("The entry numbers of the next page will be
///   different from others in the sample", Section 6.3).
pub fn ablations(_: &Flags) -> Result<(), String> {
    let sites = paper_sites::all();
    let threads = batch::default_threads();
    let corpus = |prob: &dyn Segmenter, csp: &dyn Segmenter| {
        totals(&run_corpus(&sites, threads, &ChaosConfig::off(0), None, prob, csp).runs)
    };

    // -------- AB1 / AB2: segmenter variants over the full corpus --------
    eprintln!("running {} sites ...", sites.len());
    let (prob_full, csp_full) = corpus(&ProbSegmenter::default(), &CspSegmenter::default());
    let (prob_nope, csp_nopos) = corpus(
        &ProbSegmenter::without_period_model(),
        &CspSegmenter::without_position_constraints(),
    );

    println!("AB1 — CSP position constraints (Section 4.2):");
    counts_line("with:    ", &csp_full);
    counts_line("without: ", &csp_nopos);

    println!("\nAB2 — record-period model pi (Section 5.2.2, Figure 3 vs Figure 2):");
    counts_line("with:    ", &prob_full);
    counts_line("without: ", &prob_nope);

    // -------- AB3: template table slot vs whole page --------------------
    // The template pipeline is AB1's full CSP run; the forced whole page
    // gives the pipeline only the target page, so no template can be
    // induced.
    let mut whole_page = PageCounts::default();
    let csp = CspSegmenter::default();
    for spec in &sites {
        let site = generate(spec);
        for (page, gp) in site.pages.iter().enumerate() {
            let forced = SiteTemplate::build(&[&gp.list_html]);
            let result = run_page(&forced, 0, &gp.detail_htmls(), None, &[&csp]);
            if let [Some((counts, _))] = classify_page(&site, page, &result)[..] {
                whole_page = whole_page.add(&counts);
            }
        }
    }
    println!("\nAB3 — page-template table slot vs whole-page fallback (CSP):");
    counts_line("template pipeline: ", &csp_full);
    counts_line("whole page always: ", &whole_page);
    println!(
        "\nNote: the whole-page variant also loses the all-list-pages filter\n\
         (one sample page), so extraneous chrome joins the observation table\n\
         — the paper's note-b failure mode in its purest form."
    );

    // -------- AB5: the Section 7 hybrid ---------------------------------
    let (_, hybrid_total) = corpus(&ProbSegmenter::default(), &HybridSegmenter::default());
    println!("\nAB5 — combined segmenter (Section 7: CSP first, probabilistic fill-in):");
    counts_line("CSP alone:     ", &csp_full);
    counts_line("prob alone:    ", &prob_full);
    counts_line("hybrid:        ", &hybrid_total);

    // -------- AB6: continued numbering repairs the book sites -----------
    let numbered_sites = [
        paper_sites::amazon(),
        paper_sites::bn_books(),
        paper_sites::minnesota(),
    ];
    let continued_sites = numbered_sites.clone().map(|mut spec| {
        spec.continuous_numbering = true;
        spec
    });
    let numbering = |specs: &[SiteSpec]| {
        let outcome = run_sites(specs, threads);
        let fallbacks = outcome.runs.iter().filter(|r| r.used_whole_page).count();
        (totals(&outcome.runs).1, fallbacks)
    };
    let (numbered, fallback_before) = numbering(&numbered_sites);
    let (continued, fallback_after) = numbering(&continued_sites);
    println!("\nAB6 — numbered sites with page-continued numbering (the paper's proposed fix):");
    println!(
        "  numbers restart per page:  {}   ({} of 6 pages fell back to whole page)",
        Metrics::from_counts(&numbered),
        fallback_before
    );
    println!(
        "  numbers continue across:   {}   ({} of 6 pages fell back to whole page)",
        Metrics::from_counts(&continued),
        fallback_after
    );
    Ok(())
}

fn spec(domain: Domain, records: usize, missing: f64, seed: u64) -> SiteSpec {
    SiteSpec {
        name: format!("sweep-{domain:?}-{records}-{missing}"),
        domain,
        layout: LayoutStyle::GridTable,
        records_per_page: vec![records, records],
        quirks: vec![],
        missing_field_prob: missing,
        continuous_numbering: false,
        overlap: 0,
        seed,
    }
}

/// Runs `segmenters` on the first list page of a generated site: per
/// segmenter its counts, whether it relaxed, and its solve seconds.
fn run_first_page(s: &SiteSpec, segmenters: &[&dyn Segmenter]) -> Vec<(PageCounts, bool, f64)> {
    let site = generate(s);
    let template = SiteTemplate::build(&site.list_htmls());
    let result = run_page(
        &template,
        0,
        &site.pages[0].detail_htmls(),
        None,
        segmenters,
    );
    let counts = classify_page(&site, 0, &result);
    counts
        .into_iter()
        .zip(&result.solved)
        .map(|(counts, solved)| {
            let (counts, relaxed) = counts.expect("sweep sites are clean");
            let secs = solved
                .as_ref()
                .map_or(0.0, |o| o.solver_times.get(Stage::Solve).as_secs_f64());
            (counts, relaxed, secs)
        })
        .collect()
}

fn run_one(s: &SiteSpec, segmenter: &dyn Segmenter) -> (Metrics, f64) {
    let (counts, _, secs) = run_first_page(s, &[segmenter])[0];
    (Metrics::from_counts(&counts), secs)
}

/// Parameter sweeps over the simulated workload:
///
/// * **table size** — records per page 5..80: accuracy and wall time of
///   both approaches (the scalability behind the paper's "exceedingly
///   fast" claim);
/// * **missing-field probability** — 0.0..0.5: how sparse records degrade
///   each approach;
/// * **shared-value rate** — white-pages sites where many records share a
///   city: the density of position-constraint interactions;
/// * **ε tolerance** — the probabilistic dirty-data knob on the Michigan
///   quirk site.
pub fn sweeps(_: &Flags) -> Result<(), String> {
    println!("sweep 1: table size (records per page), white pages, missing=0.1");
    println!("| records | CSP F | CSP time | prob F | prob time |");
    for records in [5usize, 10, 20, 40, 80] {
        let s = spec(Domain::WhitePages, records, 0.1, 1234 + records as u64);
        let (csp_m, csp_t) = run_one(&s, &CspSegmenter::default());
        let (prob_m, prob_t) = run_one(&s, &ProbSegmenter::default());
        println!(
            "| {records:>7} | {:>5.2} | {:>7.3}s | {:>6.2} | {:>8.3}s |",
            csp_m.f1, csp_t, prob_m.f1, prob_t
        );
    }

    println!("\nsweep 2: missing-field probability, property tax, 15 records");
    println!("| p(missing) | CSP F | prob F |");
    for missing in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let s = spec(Domain::PropertyTax, 15, missing, 4321);
        let (csp_m, _) = run_one(&s, &CspSegmenter::default());
        let (prob_m, _) = run_one(&s, &ProbSegmenter::default());
        println!(
            "| {missing:>10.1} | {:>5.2} | {:>6.2} |",
            csp_m.f1, prob_m.f1
        );
    }

    println!("\nsweep 3: shared-town white pages (position-constraint stress)");
    println!("| records | CSP F | relaxed | prob F |");
    for records in [5usize, 10, 20, 40] {
        let s = SiteSpec {
            quirks: vec![Quirk::SharedValueMissingOnDetail { field: "city" }],
            ..spec(Domain::WhitePages, records, 0.05, 9000 + records as u64)
        };
        let (csp, prob) = (CspSegmenter::default(), ProbSegmenter::default());
        let both = run_first_page(&s, &[&csp, &prob]);
        let ((csp_counts, relaxed, _), (prob_counts, _, _)) = (both[0], both[1]);
        println!(
            "| {records:>7} | {:>5.2} | {:>7} | {:>6.2} |",
            Metrics::from_counts(&csp_counts).f1,
            relaxed,
            Metrics::from_counts(&prob_counts).f1
        );
    }

    println!("\nsweep 4: epsilon tolerance on the Michigan quirk (dirty data)");
    println!("| epsilon | prob F |");
    let michigan = paper_sites::michigan();
    for eps in [1e-12, 1e-9, 1e-6, 1e-3, 1e-1] {
        let seg = ProbSegmenter {
            options: ProbOptions {
                epsilon: eps,
                ..ProbOptions::default()
            },
        };
        let (counts, _, _) = run_first_page(&michigan, &[&seg])[0];
        println!(
            "| {eps:>7.0e} | {:>6.2} |",
            Metrics::from_counts(&counts).f1
        );
    }
    Ok(())
}

/// Baseline comparison (AB4): the layout-based methods of Section 2 —
/// DOM `<table>/<tr>` heuristic, IEPAD-style repeated tag patterns, and a
/// RoadRunner-style union-free grammar — against the paper's CSP and
/// probabilistic approaches over the twelve simulated sites, then the
/// Section 2.2 plain-text contrast.
pub fn baselines(_: &Flags) -> Result<(), String> {
    let mut dom_total = PageCounts::default();
    let mut iepad_total = PageCounts::default();
    let mut csp_total = PageCounts::default();
    let mut prob_total = PageCounts::default();
    let mut rr_failures = 0usize;
    let mut rr_ok = 0usize;

    println!(
        "| {:<22} | {:>4} | {:>5} | {:>10} | {:>4} | {:>4} |",
        "site", "DOM", "IEPAD", "RoadRunner", "CSP", "prob"
    );
    let specs = paper_sites::all();
    let paper = run_sites(&specs, batch::default_threads());
    for spec in specs {
        let site = &generate(&spec);
        let mut dom_site = PageCounts::default();
        let mut iepad_site = PageCounts::default();
        let mut csp_site = PageCounts::default();
        let mut prob_site = PageCounts::default();
        for page in &site.pages {
            let truth = page.truth_spans();
            let html = &page.list_html;
            dom_site = dom_site.add(&classify_spans(&domtable::segment(html).records, &truth));
            iepad_site = iepad_site.add(&classify_spans(&iepad::segment(html).records, &truth));
        }
        for run in paper.runs.iter().filter(|r| r.site == spec.name) {
            csp_site = csp_site.add(&run.csp);
            prob_site = prob_site.add(&run.prob);
        }
        let rr = roadrunner::induce(&site.pages[0].list_html, &site.pages[1].list_html);
        let rr_label = match &rr {
            Ok(g) => {
                rr_ok += 1;
                format!("{} slots", roadrunner::data_slots(g))
            }
            Err(_) => {
                rr_failures += 1;
                "FAILED".to_owned()
            }
        };
        println!(
            "| {:<22} | {:>4} | {:>5} | {:>10} | {:>4} | {:>4} |",
            spec.name,
            format!("{}", dom_site.cor),
            format!("{}", iepad_site.cor),
            rr_label,
            format!("{}", csp_site.cor),
            format!("{}", prob_site.cor),
        );
        dom_total = dom_total.add(&dom_site);
        iepad_total = iepad_total.add(&iepad_site);
        csp_total = csp_total.add(&csp_site);
        prob_total = prob_total.add(&prob_site);
    }

    println!("\naggregates (all 24 list pages):");
    println!("  DOM heuristic:  {}", Metrics::from_counts(&dom_total));
    println!("  IEPAD-style:    {}", Metrics::from_counts(&iepad_total));
    println!(
        "  RoadRunner:     grammar induced on {rr_ok}/12 sites, failed (disjunction) on {rr_failures}"
    );
    println!("  CSP:            {}", Metrics::from_counts(&csp_total));
    println!("  probabilistic:  {}", Metrics::from_counts(&prob_total));

    // ---- the Section 2.2 contrast: plain-text tables are much easier ----
    // Render the same records as a whitespace-aligned plain-text table and
    // segment with the classical alignment method.
    let mut exact = 0usize;
    let mut total = 0usize;
    for spec in paper_sites::all() {
        let site = generate(&spec);
        for page in &site.pages {
            let rows: Vec<Vec<String>> = page
                .truth
                .records
                .iter()
                .map(|r| r.values.clone())
                .collect();
            let text = textseg::render_text_table(&rows, 28);
            if let Some(table) = textseg::segment(&text) {
                total += rows.len();
                exact += table
                    .records
                    .iter()
                    .zip(&rows)
                    .filter(|(got, want)| {
                        got.iter()
                            .filter(|c| !c.is_empty())
                            .eq(want.iter().filter(|c| !c.is_empty()))
                    })
                    .count();
            } else {
                total += rows.len();
            }
        }
    }
    println!(
        "\nSection 2.2 contrast — the same records as whitespace-aligned plain text,\n\
         segmented by classical column alignment: {exact}/{total} records exact\n\
         (\"Record segmentation from plain text documents is ... a much easier task\")"
    );
    Ok(())
}
