//! The template-induction microbenchmark behind `BENCH_induce.json`: the
//! histogram-LCS core on the candidate streams of the simulated paper
//! sites, plus the multi-page quality-vs-cost curve of the rolling merge
//! (2 → 10 sample pages per site).
//!
//! The pair leg aligns every site's 2-page candidate streams — exactly
//! the pairwise inputs induction folds — so it isolates the LCS layer.
//! The multi-page curve scales each paper site with
//! [`SiteSpec::with_page_count`](tableseg_sitegen::site::SiteSpec::with_page_count)
//! and records, per page count, the wall-clock of a full induction over
//! the corpus and the aggregate template quality ([`assess`]); the
//! 10-page point is expected to be no worse than the 2-page baseline (the
//! candidate filter only tightens as pages are added).
//!
//! The baseline is the committed `BENCH_induce.json`: `bench induce`
//! fails when a run's deterministic work counts
//! ([`InduceBench::work_counts`]) differ from it. The fold's agreement
//! with its Hirschberg oracle on this corpus is a unit test of
//! `tableseg-template`.

use std::time::Instant;

use tableseg::html::lexer::tokenize;
use tableseg::html::Token;
use tableseg::template::{
    assess, candidate_streams, induce_with, lcs_indices_histogram_stats, Interner, Symbol,
};

use crate::corpus::{paper_generated_scaled, BenchJson};

/// One site's interned front-end state, the induction benchmark input.
pub struct InduceFixture {
    /// Site name.
    pub site: String,
    /// Tokenized list pages.
    pub pages: Vec<Vec<Token>>,
    /// Interned symbol streams, aligned with `pages`.
    pub streams: Vec<Vec<Symbol>>,
    /// Interner size (the symbol-id upper bound).
    pub num_symbols: usize,
}

/// Tokenizes and interns every paper site at `page_count` sample pages
/// (sites generated via [`crate::corpus::paper_generated_scaled`]).
pub fn corpus(page_count: usize) -> Vec<InduceFixture> {
    paper_generated_scaled(page_count)
        .into_iter()
        .map(|(spec, site)| {
            let pages: Vec<Vec<Token>> =
                site.pages.iter().map(|p| tokenize(&p.list_html)).collect();
            let mut interner = Interner::new();
            let streams: Vec<Vec<Symbol>> =
                pages.iter().map(|p| interner.intern_tokens(p)).collect();
            InduceFixture {
                site: spec.name.clone(),
                pages,
                streams,
                num_symbols: interner.len(),
            }
        })
        .collect()
}

/// The pair-LCS leg: the histogram core over every site's 2-page
/// candidate streams.
#[derive(Debug, Clone, Copy)]
pub struct PairLcsBench {
    /// Best (minimum) nanoseconds of one corpus pass.
    pub histogram_ns: u128,
    /// Site pairs aligned per pass.
    pub pairs: usize,
    /// Total anchors (LCS length) found per pass.
    pub anchors: usize,
    /// Total candidate tokens aligned per pass (sum of window lengths).
    pub tokens: usize,
    /// Windows the core handed to its exact DP fallback per pass.
    pub fallback_windows: usize,
}

/// One point of the multi-page quality-vs-cost curve.
#[derive(Debug, Clone, Copy)]
pub struct MergePoint {
    /// Sample pages per site.
    pub pages: usize,
    /// Best (minimum) nanoseconds of one histogram-induction corpus pass.
    pub induce_ns: u128,
    /// Mean `largest_slot_fraction` over the corpus (the table-slot
    /// dominance measure of `quality.rs` — higher is better).
    pub mean_largest_slot_fraction: f64,
    /// Mean template length over the corpus.
    pub mean_template_len: f64,
    /// Sites whose template passed [`TemplateQuality::is_usable`].
    ///
    /// [`TemplateQuality::is_usable`]: tableseg::template::TemplateQuality::is_usable
    pub usable_sites: usize,
    /// LCS windows the corpus's inductions handed to the exact DP
    /// fallback.
    pub lcs_fallbacks: usize,
}

/// The full induction benchmark result.
#[derive(Debug, Clone)]
pub struct InduceBench {
    /// Number of sites in the corpus.
    pub sites: usize,
    /// The pair-LCS leg (2-page candidate streams).
    pub pair: PairLcsBench,
    /// The multi-page curve, ascending in page count (2 → 10).
    pub curve: Vec<MergePoint>,
    /// Corpus passes per timed path; the fastest pass is reported.
    pub iters: usize,
}

impl InduceBench {
    /// The deterministic work counts an induction change must repeat
    /// unless it means to change behaviour, keyed by their path in
    /// `BENCH_induce.json` (see [`crate::corpus::count_mismatches`]): the
    /// pair anchors and fallback windows, and per depth the mean template
    /// length, usable sites and fallback windows.
    pub fn work_counts(&self) -> Vec<(String, f64)> {
        let mut counts = vec![
            ("pair_lcs.anchors".to_string(), self.pair.anchors as f64),
            (
                "pair_lcs.fallback_windows".to_string(),
                self.pair.fallback_windows as f64,
            ),
        ];
        for p in &self.curve {
            let key = |field: &str| format!("multi_page.{}.{field}", p.pages);
            counts.push((key("mean_template_len"), p.mean_template_len));
            counts.push((key("usable_sites"), p.usable_sites as f64));
            counts.push((key("lcs_fallbacks"), p.lcs_fallbacks as f64));
        }
        counts
    }

    /// The 10-page (last) point of the curve.
    pub fn deep(&self) -> &MergePoint {
        self.curve.last().expect("curve is non-empty")
    }

    /// The 2-page (first) point of the curve.
    pub fn baseline(&self) -> &MergePoint {
        self.curve.first().expect("curve is non-empty")
    }

    /// `true` when the deepest induction's quality is no worse than the
    /// 2-page baseline, on both the table-slot dominance measure and the
    /// usable-site count.
    pub fn quality_non_degrading(&self) -> bool {
        let (base, deep) = (self.baseline(), self.deep());
        deep.mean_largest_slot_fraction + 1e-9 >= base.mean_largest_slot_fraction
            && deep.usable_sites >= base.usable_sites
    }
}

/// Extracts the bare symbol windows the fold aligns for a 2-page site.
fn pair_windows(f: &InduceFixture) -> (Vec<Symbol>, Vec<Symbol>) {
    let filtered = candidate_streams(&f.streams, f.num_symbols);
    let syms = |s: &[(Symbol, usize)]| s.iter().map(|&(sym, _)| sym).collect();
    (syms(&filtered[0]), syms(&filtered[1]))
}

/// Runs the induction benchmark: the pair-LCS timing and the multi-page
/// curve, with `iters` passes per timed path.
pub fn run_induce_bench(iters: usize, page_counts: &[usize]) -> InduceBench {
    let fixtures = corpus(2);
    let windows: Vec<(Vec<Symbol>, Vec<Symbol>)> = fixtures.iter().map(pair_windows).collect();

    let mut pair = PairLcsBench {
        histogram_ns: u128::MAX,
        pairs: windows.len(),
        anchors: 0,
        tokens: windows.iter().map(|(a, b)| a.len() + b.len()).sum(),
        fallback_windows: 0,
    };
    for _ in 0..iters {
        let t = Instant::now();
        let mut anchors = 0usize;
        let mut fallback_windows = 0usize;
        for (a, b) in &windows {
            let (pairs, stats) = std::hint::black_box(lcs_indices_histogram_stats(a, b));
            anchors += pairs.len();
            fallback_windows += stats.fallback_windows;
        }
        pair.histogram_ns = pair.histogram_ns.min(t.elapsed().as_nanos());
        pair.anchors = anchors;
        pair.fallback_windows = fallback_windows;
    }

    // Multi-page curve: induction cost and quality per depth.
    let mut curve = Vec::with_capacity(page_counts.len());
    for &n in page_counts {
        let fixtures = corpus(n);
        let mut induce_ns = u128::MAX;
        for _ in 0..iters {
            let t = Instant::now();
            for f in &fixtures {
                std::hint::black_box(induce_with(&f.pages, &f.streams, f.num_symbols));
            }
            induce_ns = induce_ns.min(t.elapsed().as_nanos());
        }
        let mut fraction_sum = 0.0;
        let mut len_sum = 0usize;
        let mut usable = 0usize;
        let mut lcs_fallbacks = 0usize;
        for f in &fixtures {
            let (ind, stats) = induce_with(&f.pages, &f.streams, f.num_symbols);
            let q = assess(&ind, &f.pages);
            fraction_sum += q.largest_slot_fraction;
            len_sum += q.template_len;
            usable += usize::from(q.is_usable());
            lcs_fallbacks += stats.lcs.fallback_windows;
        }
        curve.push(MergePoint {
            pages: n,
            induce_ns,
            mean_largest_slot_fraction: fraction_sum / fixtures.len() as f64,
            mean_template_len: len_sum as f64 / fixtures.len() as f64,
            usable_sites: usable,
            lcs_fallbacks,
        });
    }

    InduceBench {
        sites: fixtures.len(),
        pair,
        curve,
        iters,
    }
}

/// Renders the benchmark as the `BENCH_induce.json` document.
pub fn render_json(bench: &InduceBench) -> String {
    let mut curve = String::from("{\n");
    for (i, p) in bench.curve.iter().enumerate() {
        curve.push_str(&format!(
            "    \"{}\": {{ \"induce_ns\": {}, \"mean_largest_slot_fraction\": {:.4}, \
             \"mean_template_len\": {:.3}, \"usable_sites\": {}, \"lcs_fallbacks\": {} }}{}\n",
            p.pages,
            p.induce_ns,
            p.mean_largest_slot_fraction,
            p.mean_template_len,
            p.usable_sites,
            p.lcs_fallbacks,
            if i + 1 < bench.curve.len() { "," } else { "" }
        ));
    }
    curve.push_str("  }");

    let mut j = BenchJson::new("induce");
    j.raw(
        "corpus",
        format!(
            "{{ \"sites\": {}, \"pairs\": {}, \"pair_tokens\": {} }}",
            bench.sites, bench.pair.pairs, bench.pair.tokens
        ),
    )
    .field("iters", bench.iters)
    .raw(
        "pair_lcs",
        format!(
            "{{ \"histogram_ns\": {}, \"anchors\": {}, \"fallback_windows\": {} }}",
            bench.pair.histogram_ns, bench.pair.anchors, bench.pair.fallback_windows
        ),
    )
    .raw("multi_page", curve)
    .field("quality_non_degrading", bench.quality_non_degrading());
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::count_mismatches;
    use tableseg_sitegen::paper_sites;

    #[test]
    fn corpus_scales_page_counts() {
        let two = corpus(2);
        assert_eq!(two.len(), paper_sites::all().len());
        assert!(two.iter().all(|f| f.pages.len() == 2));
        let four = corpus(4);
        assert!(four.iter().all(|f| f.pages.len() == 4));
    }

    #[test]
    fn pair_windows_are_unique_per_side() {
        for f in corpus(2) {
            let (a, b) = pair_windows(&f);
            for w in [&a, &b] {
                let mut sorted = w.clone();
                sorted.sort_unstable();
                let len = sorted.len();
                sorted.dedup();
                assert_eq!(sorted.len(), len, "{}: candidate stream repeats", f.site);
            }
        }
    }

    fn bench_fixture() -> InduceBench {
        let point = |pages, fraction, len, usable| MergePoint {
            pages,
            induce_ns: 5000,
            mean_largest_slot_fraction: fraction,
            mean_template_len: len,
            usable_sites: usable,
            lcs_fallbacks: 0,
        };
        InduceBench {
            sites: 12,
            pair: PairLcsBench {
                histogram_ns: 2000,
                pairs: 12,
                anchors: 340,
                tokens: 900,
                fallback_windows: 0,
            },
            curve: vec![point(2, 0.81, 55.0, 9), point(10, 0.84, 54.25, 10)],
            iters: 2,
        }
    }

    #[test]
    fn json_shape() {
        let bench = bench_fixture();
        assert!(bench.quality_non_degrading());
        let json = render_json(&bench);
        assert!(json.contains(&format!("\"schema\": \"{}\"", crate::corpus::SCHEMA)));
        assert!(json.contains("\"anchors\": 340"));
        assert!(json.contains("\"10\": { \"induce_ns\": 5000"));
        assert!(json.contains("\"mean_template_len\": 54.250"));
        assert!(json.contains("\"quality_non_degrading\": true"));
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }

    #[test]
    fn work_counts_gate_on_the_committed_file() {
        let bench = bench_fixture();
        let committed = render_json(&bench);
        assert!(count_mismatches(&committed, &bench.work_counts()).is_empty());

        let mut drifted = bench.clone();
        drifted.pair.anchors = 341;
        drifted.curve[1].usable_sites = 9;
        drifted.curve[1].mean_template_len = 54.3;
        drifted.curve[0].lcs_fallbacks = 2;
        assert_eq!(
            count_mismatches(&committed, &drifted.work_counts()),
            [
                "pair_lcs.anchors: 341 vs committed 340",
                "multi_page.2.lcs_fallbacks: 2 vs committed 0",
                "multi_page.10.mean_template_len: 54.3 vs committed 54.25",
                "multi_page.10.usable_sites: 9 vs committed 10",
            ]
        );
        assert_eq!(count_mismatches("{ }", &bench.work_counts()).len(), 8);
    }

    #[test]
    fn quality_gate_detects_degradation() {
        let mut bench = bench_fixture();
        bench.curve[1].mean_largest_slot_fraction = 0.7;
        assert!(!bench.quality_non_degrading());
    }
}
