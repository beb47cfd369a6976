//! The solver microbenchmark behind `BENCH_solver.json`: the production
//! CSP and probabilistic solvers over the twelve simulated paper sites.
//!
//! Each method is timed on the *same* observation tables — front-end
//! preparation is done once, outside every timed region — so the figures
//! isolate the solver layer. The baseline is the committed
//! `BENCH_solver.json`: `bench solver` fails when a run's deterministic
//! work counts ([`SolveBench::work_counts`]) differ from it.

use std::time::Instant;

use tableseg_csp::{encode, reduce_model, segment_csp, CspOptions, EncodeOptions};
use tableseg_extract::Observations;
use tableseg_prob::{segment_prob, ProbOptions};

use crate::corpus::{paper_prepared, site_count, BenchJson};

/// One list page of the benchmark corpus, prepared for segmentation.
pub struct SolveFixture {
    /// Site name.
    pub site: String,
    /// List-page index within the site.
    pub page: usize,
    /// The page's observation table (the solver input).
    pub observations: Observations,
}

/// Builds the benchmark corpus: every list page of every simulated paper
/// site, front end run once per page (sites prepared via
/// [`crate::corpus::paper_prepared`]).
pub fn corpus() -> Vec<SolveFixture> {
    let mut fixtures = Vec::new();
    for (site, template) in paper_prepared() {
        for (page, gp) in site.pages.iter().enumerate() {
            let prepared = tableseg::try_prepare_with_template(&template, page, &gp.detail_htmls())
                .expect("clean paper page");
            fixtures.push(SolveFixture {
                site: site.spec.name.clone(),
                page,
                observations: prepared.observations,
            });
        }
    }
    fixtures
}

/// Wall clock and work for one solver method.
#[derive(Debug, Clone, Copy)]
pub struct MethodBench {
    /// Best (minimum) nanoseconds of one corpus pass.
    pub wall_ns: u128,
    /// Method-specific work units performed by one pass (branch-and-bound
    /// nodes over both rungs for the CSP, EM iterations for the
    /// probabilistic approach) — deterministic, so it is gated against
    /// the committed `BENCH_solver.json`.
    pub work_units: u64,
}

impl SolveBench {
    /// The deterministic work counts a solver change must repeat unless
    /// it means to change behaviour, keyed by their path in
    /// `BENCH_solver.json` (see [`crate::corpus::count_mismatches`]).
    pub fn work_counts(&self) -> Vec<(String, f64)> {
        [
            ("csp.bnb_nodes", self.csp.work_units),
            ("prob.em_iters", self.prob.work_units),
            ("reduction.components", self.reduction.components),
            ("reduction.pruned_vars", self.reduction.pruned_vars),
        ]
        .map(|(path, n)| (path.to_string(), n as f64))
        .to_vec()
    }
}

impl MethodBench {
    /// Work units per second of one pass.
    pub fn units_per_sec(&self) -> f64 {
        self.work_units as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Totals from the CSP instance-reduction layer over one corpus pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReductionStats {
    /// Connected components solved independently.
    pub components: u64,
    /// Variables eliminated before search (forced + free).
    pub pruned_vars: u64,
    /// Wall clock spent inside the reduction passes.
    pub reduce_ns: u64,
}

/// The corpus-level result of the solver benchmark.
#[derive(Debug, Clone, Copy)]
pub struct SolveBench {
    /// Number of sites in the corpus.
    pub sites: usize,
    /// Number of list pages solved per pass.
    pub pages: usize,
    /// Total extracts across the corpus.
    pub extracts: usize,
    /// The CSP approach.
    pub csp: MethodBench,
    /// The probabilistic approach.
    pub prob: MethodBench,
    /// Reduction-layer totals of one CSP pass.
    pub reduction: ReductionStats,
    /// Corpus passes each method ran; the reported time is the fastest
    /// pass, which is robust to interference from other load.
    pub iters: usize,
}

/// Times the production CSP and probabilistic solvers over the full
/// corpus, `iters` passes each. A first untimed pass collects the CSP
/// reduction totals.
pub fn run_solve_bench(iters: usize) -> SolveBench {
    let fixtures = corpus();
    let sites = site_count(fixtures.iter().map(|f| f.site.as_str()));
    let extracts = fixtures.iter().map(|f| f.observations.len()).sum();
    let csp_opts = CspOptions::default();
    let prob_opts = ProbOptions::default();

    let mut reduction = ReductionStats::default();
    for f in &fixtures {
        let out = segment_csp(&f.observations, &csp_opts);
        reduction.components += out.components as u64;
        reduction.pruned_vars += out.pruned_vars as u64;
        reduction.reduce_ns += out.reduce_ns;
    }

    let blank = MethodBench {
        wall_ns: u128::MAX,
        work_units: 0,
    };
    let mut csp = blank;
    let mut prob = blank;
    for _ in 0..iters {
        let t = Instant::now();
        let mut bnb_nodes = 0u64;
        for f in &fixtures {
            bnb_nodes += std::hint::black_box(segment_csp(&f.observations, &csp_opts)).bnb_nodes;
        }
        csp.wall_ns = csp.wall_ns.min(t.elapsed().as_nanos());
        csp.work_units = bnb_nodes;

        let t = Instant::now();
        let mut em_iters = 0u64;
        for f in &fixtures {
            em_iters +=
                std::hint::black_box(segment_prob(&f.observations, &prob_opts)).iterations as u64;
        }
        prob.wall_ns = prob.wall_ns.min(t.elapsed().as_nanos());
        prob.work_units = em_iters;
    }

    SolveBench {
        sites,
        pages: fixtures.len(),
        extracts,
        csp,
        prob,
        reduction,
        iters,
    }
}

/// Per-component size histograms over the corpus: how the reduction
/// splits the strict and relaxed encodings, as `(vars, components)`
/// pairs ascending by size. Recorded in `BENCH_solver.json` so a
/// reduction regression (components merging back into one blob) is
/// diagnosable from artifacts alone.
#[derive(Debug, Clone, Default)]
pub struct ComponentProfile {
    /// Histogram over the strict (equality) encodings.
    pub strict: Vec<(usize, u64)>,
    /// Histogram over the relaxed (maximization) encodings.
    pub relaxed: Vec<(usize, u64)>,
}

/// Runs the reduction alone over every fixture and histograms the
/// component sizes of both encodings.
pub fn component_profile(fixtures: &[SolveFixture]) -> ComponentProfile {
    let mut hist = [
        std::collections::BTreeMap::new(),
        std::collections::BTreeMap::new(),
    ];
    for f in fixtures {
        let mut enc = encode(&f.observations, &EncodeOptions::default());
        for (slot, relaxed) in hist.iter_mut().zip([false, true]) {
            if relaxed {
                enc.relax();
            }
            let red = reduce_model(&enc.model);
            for comp in &red.components {
                *slot.entry(comp.vars.len()).or_insert(0u64) += 1;
            }
        }
    }
    let flatten = |m: &std::collections::BTreeMap<usize, u64>| {
        m.iter().map(|(&size, &n)| (size, n)).collect()
    };
    ComponentProfile {
        strict: flatten(&hist[0]),
        relaxed: flatten(&hist[1]),
    }
}

fn histogram_json(pairs: &[(usize, u64)]) -> String {
    let cells: Vec<String> = pairs
        .iter()
        .map(|(size, n)| format!("[{size}, {n}]"))
        .collect();
    format!("[{}]", cells.join(", "))
}

/// Renders the benchmark (plus per-stage totals of a batch run and the
/// component profile) as the `BENCH_solver.json` document.
pub fn render_json(
    bench: &SolveBench,
    stage_totals: &[(String, u128)],
    profile: &ComponentProfile,
) -> String {
    let mut j = BenchJson::new("solver");
    j.corpus(bench.sites, bench.pages, bench.extracts)
        .field("iters", bench.iters)
        .raw(
            "csp",
            format!(
                "{{ \"wall_ns\": {}, \"bnb_nodes\": {} }}",
                bench.csp.wall_ns, bench.csp.work_units
            ),
        )
        .raw(
            "prob",
            format!(
                "{{ \"wall_ns\": {}, \"em_iters\": {}, \"em_iters_per_sec\": {:.0} }}",
                bench.prob.wall_ns,
                bench.prob.work_units,
                bench.prob.units_per_sec()
            ),
        )
        .raw(
            "reduction",
            format!(
                "{{ \"components\": {}, \"pruned_vars\": {}, \"reduce_ns\": {} }}",
                bench.reduction.components, bench.reduction.pruned_vars, bench.reduction.reduce_ns
            ),
        )
        .raw(
            "component_profile",
            format!(
                "{{ \"strict\": {}, \"relaxed\": {} }}",
                histogram_json(&profile.strict),
                histogram_json(&profile.relaxed)
            ),
        )
        .stage_totals(stage_totals);
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{committed_number, count_mismatches};
    use tableseg_sitegen::paper_sites;

    #[test]
    fn corpus_covers_all_sites() {
        let fixtures = corpus();
        assert_eq!(
            fixtures.len(),
            paper_sites::all().len() * 2,
            "two list pages per site"
        );
        assert!(fixtures.iter().all(|f| !f.observations.items.is_empty()));
    }

    fn bench_fixture() -> SolveBench {
        SolveBench {
            sites: 12,
            pages: 24,
            extracts: 500,
            csp: MethodBench {
                wall_ns: 3000,
                work_units: 90,
            },
            prob: MethodBench {
                wall_ns: 2000,
                work_units: 40,
            },
            reduction: ReductionStats {
                components: 7,
                pruned_vars: 321,
                reduce_ns: 1234,
            },
            iters: 2,
        }
    }

    #[test]
    fn work_counts_gate_on_the_committed_file() {
        let bench = bench_fixture();
        let committed = render_json(&bench, &[], &ComponentProfile::default());
        assert!(count_mismatches(&committed, &bench.work_counts()).is_empty());
        assert_eq!(committed_number(&committed, "csp.wall_ns"), Some(3000.0));
        assert_eq!(committed_number(&committed, "prob.wall_ns"), Some(2000.0));

        let mut drifted = bench;
        drifted.prob.work_units = 41;
        drifted.csp.work_units = 91;
        drifted.reduction.pruned_vars = 320;
        assert_eq!(
            count_mismatches(&committed, &drifted.work_counts()),
            [
                "csp.bnb_nodes: 91 vs committed 90",
                "prob.em_iters: 41 vs committed 40",
                "reduction.pruned_vars: 320 vs committed 321"
            ]
        );
        assert_eq!(count_mismatches("{ }", &bench.work_counts()).len(), 4);
    }

    #[test]
    fn json_shape() {
        let bench = bench_fixture();
        let json = render_json(
            &bench,
            &[("solve.csp".into(), 42)],
            &ComponentProfile::default(),
        );
        assert!(json.contains(&format!("\"schema\": \"{}\"", crate::corpus::SCHEMA)));
        assert!(json.contains("\"csp\": { \"wall_ns\": 3000,"));
        assert!(!json.contains("speedup"));
        assert!(!json.contains("flips"));
        assert!(json.contains("\"bnb_nodes\": 90"));
        assert!(json.contains("\"em_iters\": 40"));
        assert!(json.contains("\"components\": 7"));
        assert!(json.contains("\"pruned_vars\": 321"));
        assert!(!json.contains("warm_start_hits"));
        assert!(json.contains("\"solve.csp\": 42"));
        assert!(json.contains("\"component_profile\": { \"strict\": [], \"relaxed\": [] }"));
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }

    #[test]
    fn json_includes_profile_when_given() {
        let bench = bench_fixture();
        let profile = ComponentProfile {
            strict: vec![(3, 2)],
            relaxed: vec![(3, 2), (11, 1)],
        };
        let json = render_json(&bench, &[], &profile);
        assert!(json.contains(
            "\"component_profile\": { \"strict\": [[3, 2]], \"relaxed\": [[3, 2], [11, 1]] }"
        ));
    }

    #[test]
    fn component_profile_histograms_the_corpus() {
        let fixtures = corpus();
        let profile = component_profile(&fixtures);
        // Clean strict instances are fully propagated (no components);
        // relaxed encodings decompose, so the relaxed histogram has mass.
        let relaxed_total: u64 = profile.relaxed.iter().map(|(_, n)| n).sum();
        assert!(relaxed_total > 0, "{profile:?}");
        for (size, n) in profile.strict.iter().chain(&profile.relaxed) {
            assert!(*size >= 1);
            assert!(*n >= 1);
        }
    }
}
