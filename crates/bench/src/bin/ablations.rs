//! Ablation experiments over the design choices DESIGN.md calls out:
//!
//! * **AB1** — CSP with vs without the Section 4.2 position constraints;
//! * **AB2** — probabilistic approach with vs without the hierarchical
//!   record-period model π (Figure 3 vs Figure 2);
//! * **AB3** — induced table slot vs the whole-page fallback everywhere;
//! * **AB5** — the hybrid segmenter of Section 7 ("a combination of the
//!   two") vs each approach alone;
//! * **AB6** — the paper's proposed fix for numbered sites: continue the
//!   entry numbering on the next result page so the numbers stop being
//!   page-invariant ("The entry numbers of the next page will be
//!   different from others in the sample", Section 6.3).

use tableseg::{
    batch, run_page, CspSegmenter, HybridSegmenter, ProbSegmenter, Segmenter, SiteTemplate,
};
use tableseg_bench::{classify_page, run_corpus, run_sites, totals};
use tableseg_eval::classify::PageCounts;
use tableseg_eval::Metrics;
use tableseg_sitegen::chaos::ChaosConfig;
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn main() {
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
    println!(
        "  with:    {}   (Cor={} InC={} FN={} FP={})",
        Metrics::from_counts(&csp_full),
        csp_full.cor,
        csp_full.incor,
        csp_full.fneg,
        csp_full.fpos
    );
    println!(
        "  without: {}   (Cor={} InC={} FN={} FP={})",
        Metrics::from_counts(&csp_nopos),
        csp_nopos.cor,
        csp_nopos.incor,
        csp_nopos.fneg,
        csp_nopos.fpos
    );

    println!("\nAB2 — record-period model pi (Section 5.2.2, Figure 3 vs Figure 2):");
    println!(
        "  with:    {}   (Cor={} InC={} FN={} FP={})",
        Metrics::from_counts(&prob_full),
        prob_full.cor,
        prob_full.incor,
        prob_full.fneg,
        prob_full.fpos
    );
    println!(
        "  without: {}   (Cor={} InC={} FN={} FP={})",
        Metrics::from_counts(&prob_nope),
        prob_nope.cor,
        prob_nope.incor,
        prob_nope.fneg,
        prob_nope.fpos
    );

    // -------- AB3: template table slot vs whole page --------------------
    // The template pipeline is AB1's full CSP run; the forced whole page
    // gives the pipeline only the target page, so no template can be
    // induced.
    let with_template = csp_full;
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
    println!(
        "  template pipeline: {}   (Cor={} InC={} FN={} FP={})",
        Metrics::from_counts(&with_template),
        with_template.cor,
        with_template.incor,
        with_template.fneg,
        with_template.fpos
    );
    println!(
        "  whole page always: {}   (Cor={} InC={} FN={} FP={})",
        Metrics::from_counts(&whole_page),
        whole_page.cor,
        whole_page.incor,
        whole_page.fneg,
        whole_page.fpos
    );
    println!(
        "\nNote: the whole-page variant also loses the all-list-pages filter\n\
         (one sample page), so extraneous chrome joins the observation table\n\
         — the paper's note-b failure mode in its purest form."
    );

    // -------- AB5: the Section 7 hybrid ---------------------------------
    let (_, hybrid_total) = corpus(&ProbSegmenter::default(), &HybridSegmenter::default());
    println!("\nAB5 — combined segmenter (Section 7: CSP first, probabilistic fill-in):");
    println!(
        "  CSP alone:     {}   (Cor={} InC={} FN={} FP={})",
        Metrics::from_counts(&csp_full),
        csp_full.cor,
        csp_full.incor,
        csp_full.fneg,
        csp_full.fpos
    );
    println!(
        "  prob alone:    {}   (Cor={} InC={} FN={} FP={})",
        Metrics::from_counts(&prob_full),
        prob_full.cor,
        prob_full.incor,
        prob_full.fneg,
        prob_full.fpos
    );
    println!(
        "  hybrid:        {}   (Cor={} InC={} FN={} FP={})",
        Metrics::from_counts(&hybrid_total),
        hybrid_total.cor,
        hybrid_total.incor,
        hybrid_total.fneg,
        hybrid_total.fpos
    );

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
    let numbering = |specs: &[tableseg_sitegen::site::SiteSpec]| {
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
}
