//! Typed counters and log2-bucket histograms.
//!
//! Every metric the pipeline can emit is a variant of a closed enum —
//! [`Counter`] for monotonic counts, [`Hist`] for value distributions —
//! so a metric set is a fixed-size array, merging is element-wise
//! addition, and the manifest's metric section has a stable, enumerable
//! shape at any thread count.

/// A monotonically increasing count of pipeline events.
///
/// Names follow the `area.event` scheme documented in `OBSERVABILITY.md`;
/// [`Counter::label`] is the canonical name used by every sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// List pages that entered the per-page front end.
    PagesProcessed,
    /// Pages whose outcome was clean.
    PagesOk,
    /// Pages processed with warnings.
    PagesDegraded,
    /// Pages that could not be processed.
    PagesFailed,
    /// Per-page warnings of any class.
    PageWarnings,
    /// Sites whose per-site front end (template induction) ran.
    SitesProcessed,
    /// Template inductions performed (once per site when the cache works).
    TemplateInductions,
    /// Per-page preparations served by a cached [`SiteTemplate`] instead
    /// of a fresh induction.
    ///
    /// [`SiteTemplate`]: https://docs.rs/tableseg
    TemplateCacheHits,
    /// Pages where the induced template was unusable and the whole page
    /// was used as the table slot (the paper's notes `a`/`b`).
    WholePageFallbacks,
    /// LCS folds performed by template induction (pages beyond the base
    /// page, summed over sites).
    TemplateMergeFolds,
    /// Candidate anchors dropped during induction: fold attrition plus
    /// the run-stability pass.
    TemplateAnchorsDropped,
    /// Histogram-LCS windows that fell back to quadratic Hirschberg
    /// (small or repeat-heavy windows; zero on clean templated sites).
    TemplateLcsFallbacks,
    /// Extracts kept in observation tables.
    ExtractsKept,
    /// Extracts dropped by the filtering rules.
    ExtractsSkipped,
    /// Total extract ↔ detail-page matches (the sum of |D_i| over all
    /// kept extracts — every kept extract has at least one).
    ExtractsMatched,
    /// Retired: WSAT(OIP) variable flips. The CSP is solved exactly and
    /// nothing increments this counter; it keeps its name and slot for
    /// readers that still name it.
    WsatFlips,
    /// Retired: WSAT(OIP) restarts (tries). Nothing increments it; kept
    /// like [`Counter::WsatFlips`].
    WsatTries,
    /// CSP solves that had to relax their constraints (notes `c`/`d`).
    CspRelaxed,
    /// EM iterations across all probabilistic solves.
    EmIterations,
    /// Pages failed by a solver panic contained by the fallible path.
    SolveFailures,
    /// Faults injected by the chaos layer (chaos runs only).
    ChaosFaults,
    /// Pages scanned by the zero-copy front end (list + detail).
    FrontendPages,
    /// HTML bytes scanned by the zero-copy front end.
    FrontendBytes,
    /// Segmentation requests accepted by `tablesegd` (serve runs only).
    ServeRequests,
    /// Requests served from a warm site-state cache entry (fingerprints
    /// matched; the induced template and page results were reused).
    ServeCacheHits,
    /// Requests that found no usable cache entry and ran a full site
    /// build (cold misses and rebuild fallbacks).
    ServeCacheMisses,
    /// Requests whose site state was incrementally refreshed: the cached
    /// template was re-anchored on the changed pages without re-running
    /// induction.
    ServeCacheRefreshes,
    /// Connections rejected by admission control (429 + Retry-After).
    ServeRejected,
    /// Explicit cache invalidations accepted on `/invalidate`.
    ServeInvalidations,
    /// Requests that hit their deadline; remaining pages were cancelled
    /// through the fallible pipeline and reported as failed.
    ServeDeadlineExceeded,
    /// Connected components produced by CSP instance reduction, summed
    /// over solves (zero when propagation alone fixes every variable).
    SolveComponents,
    /// Variables eliminated before search by instance reduction: forced
    /// by propagation or free (touching no active constraint).
    SolvePrunedVars,
    /// Retired: warm-started WSAT solves whose best try was a warm seed.
    /// Nothing increments it; kept like [`Counter::WsatFlips`].
    SolveWarmStartHits,
    /// Pages run through the table-region detection stage.
    DetectPages,
    /// Table regions reported by detection (one per pass-through page).
    DetectRegions,
    /// Non-table regions (navigation bars, ad blocks, footers) detection
    /// classified and withheld from segmentation.
    DetectNonTable,
    /// Pages where detection found at most one table region and fed the
    /// whole page through unchanged (the strict no-op pass-through).
    DetectPassThrough,
    /// Parent record slots re-segmented by the recursive nested pass.
    NestedParents,
    /// Sub-record groups emitted by the recursive nested pass, summed
    /// over parents.
    NestedSubRecords,
    /// CSP components whose branch-and-bound ran out of its node budget
    /// (on either rung) and kept an unproven assignment.
    SolveBnbExhausted,
}

impl Counter {
    /// Every counter, in manifest order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::PagesProcessed,
        Counter::PagesOk,
        Counter::PagesDegraded,
        Counter::PagesFailed,
        Counter::PageWarnings,
        Counter::SitesProcessed,
        Counter::TemplateInductions,
        Counter::TemplateCacheHits,
        Counter::WholePageFallbacks,
        Counter::TemplateMergeFolds,
        Counter::TemplateAnchorsDropped,
        Counter::TemplateLcsFallbacks,
        Counter::ExtractsKept,
        Counter::ExtractsSkipped,
        Counter::ExtractsMatched,
        Counter::WsatFlips,
        Counter::WsatTries,
        Counter::CspRelaxed,
        Counter::EmIterations,
        Counter::SolveFailures,
        Counter::ChaosFaults,
        Counter::FrontendPages,
        Counter::FrontendBytes,
        Counter::ServeRequests,
        Counter::ServeCacheHits,
        Counter::ServeCacheMisses,
        Counter::ServeCacheRefreshes,
        Counter::ServeRejected,
        Counter::ServeInvalidations,
        Counter::ServeDeadlineExceeded,
        Counter::SolveComponents,
        Counter::SolvePrunedVars,
        Counter::SolveWarmStartHits,
        Counter::DetectPages,
        Counter::DetectRegions,
        Counter::DetectNonTable,
        Counter::DetectPassThrough,
        Counter::NestedParents,
        Counter::NestedSubRecords,
        Counter::SolveBnbExhausted,
    ];

    /// Number of counter variants. [`Counter::ALL`] has exactly this
    /// length by construction, and the private `Counter::index` is an
    /// exhaustive match — adding a variant without updating both is a
    /// compile error here and a failure of
    /// `all_assigns_every_variant_its_index` below.
    pub const COUNT: usize = 40;

    /// The canonical `area.event` metric name.
    pub fn label(self) -> &'static str {
        match self {
            Counter::PagesProcessed => "pages.processed",
            Counter::PagesOk => "pages.ok",
            Counter::PagesDegraded => "pages.degraded",
            Counter::PagesFailed => "pages.failed",
            Counter::PageWarnings => "pages.warnings",
            Counter::SitesProcessed => "sites.processed",
            Counter::TemplateInductions => "template.inductions",
            Counter::TemplateCacheHits => "template.cache_hits",
            Counter::WholePageFallbacks => "template.whole_page_fallbacks",
            Counter::TemplateMergeFolds => "template.merge_folds",
            Counter::TemplateAnchorsDropped => "template.anchors_dropped",
            Counter::TemplateLcsFallbacks => "template.lcs_fallbacks",
            Counter::ExtractsKept => "extracts.kept",
            Counter::ExtractsSkipped => "extracts.skipped",
            Counter::ExtractsMatched => "extracts.matched",
            Counter::WsatFlips => "csp.wsat.flips",
            Counter::WsatTries => "csp.wsat.tries",
            Counter::CspRelaxed => "csp.relaxed",
            Counter::EmIterations => "prob.em.iterations",
            Counter::SolveFailures => "solve.failures",
            Counter::ChaosFaults => "chaos.faults",
            Counter::FrontendPages => "frontend.pages",
            Counter::FrontendBytes => "frontend.bytes",
            Counter::ServeRequests => "serve.requests",
            Counter::ServeCacheHits => "serve.cache_hits",
            Counter::ServeCacheMisses => "serve.cache_misses",
            Counter::ServeCacheRefreshes => "serve.cache_refreshes",
            Counter::ServeRejected => "serve.rejected",
            Counter::ServeInvalidations => "serve.invalidations",
            Counter::ServeDeadlineExceeded => "serve.deadline_exceeded",
            Counter::SolveComponents => "solve.components",
            Counter::SolvePrunedVars => "solve.pruned_vars",
            Counter::SolveWarmStartHits => "solve.warm_start_hits",
            Counter::DetectPages => "detect.pages",
            Counter::DetectRegions => "detect.regions",
            Counter::DetectNonTable => "detect.non_table",
            Counter::DetectPassThrough => "detect.pass_through",
            Counter::NestedParents => "nested.parents",
            Counter::NestedSubRecords => "nested.sub_records",
            Counter::SolveBnbExhausted => "solve.bnb_exhausted",
        }
    }

    /// This counter's slot in [`Counter::ALL`]. An exhaustive match
    /// (replacing the old position-scan over `ALL`, which silently
    /// tolerated drift): the compiler forces an arm for every new
    /// variant, and the metric tests force `ALL` to agree with it.
    const fn index(self) -> usize {
        match self {
            Counter::PagesProcessed => 0,
            Counter::PagesOk => 1,
            Counter::PagesDegraded => 2,
            Counter::PagesFailed => 3,
            Counter::PageWarnings => 4,
            Counter::SitesProcessed => 5,
            Counter::TemplateInductions => 6,
            Counter::TemplateCacheHits => 7,
            Counter::WholePageFallbacks => 8,
            Counter::TemplateMergeFolds => 9,
            Counter::TemplateAnchorsDropped => 10,
            Counter::TemplateLcsFallbacks => 11,
            Counter::ExtractsKept => 12,
            Counter::ExtractsSkipped => 13,
            Counter::ExtractsMatched => 14,
            Counter::WsatFlips => 15,
            Counter::WsatTries => 16,
            Counter::CspRelaxed => 17,
            Counter::EmIterations => 18,
            Counter::SolveFailures => 19,
            Counter::ChaosFaults => 20,
            Counter::FrontendPages => 21,
            Counter::FrontendBytes => 22,
            Counter::ServeRequests => 23,
            Counter::ServeCacheHits => 24,
            Counter::ServeCacheMisses => 25,
            Counter::ServeCacheRefreshes => 26,
            Counter::ServeRejected => 27,
            Counter::ServeInvalidations => 28,
            Counter::ServeDeadlineExceeded => 29,
            Counter::SolveComponents => 30,
            Counter::SolvePrunedVars => 31,
            Counter::SolveWarmStartHits => 32,
            Counter::DetectPages => 33,
            Counter::DetectRegions => 34,
            Counter::DetectNonTable => 35,
            Counter::DetectPassThrough => 36,
            Counter::NestedParents => 37,
            Counter::NestedSubRecords => 38,
            Counter::SolveBnbExhausted => 39,
        }
    }
}

/// A fixed-size set holding one total per [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSet {
    totals: [u64; Counter::ALL.len()],
}

impl Default for CounterSet {
    fn default() -> CounterSet {
        CounterSet {
            totals: [0; Counter::ALL.len()],
        }
    }
}

impl CounterSet {
    /// All counters at zero.
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    /// Adds `by` to one counter (saturating — counters never wrap).
    #[inline]
    pub fn add(&mut self, counter: Counter, by: u64) {
        let slot = &mut self.totals[counter.index()];
        *slot = slot.saturating_add(by);
    }

    /// The total recorded for one counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.totals[counter.index()]
    }

    /// Element-wise sum of another set into this one.
    pub fn merge(&mut self, other: &CounterSet) {
        for (a, b) in self.totals.iter_mut().zip(other.totals.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// `true` if every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.totals.iter().all(|&v| v == 0)
    }

    /// Iterates `(label, total)` in [`Counter::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c.label(), self.get(c)))
    }
}

/// A value distribution tracked by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Kept extracts per prepared page.
    ExtractsPerPage,
    /// Detail pages each kept extract was observed on (|D_i|).
    DetailPagesPerExtract,
    /// Ground-truth records per prepared page (`num_records`).
    RecordsPerPage,
    /// EM iterations per probabilistic solve.
    EmIterationsPerSolve,
    /// HTML bytes per page scanned by the zero-copy front end.
    FrontendPageBytes,
    /// Wall-clock microseconds per served segmentation request. Volatile:
    /// recorded only into `tablesegd`'s global recorder (the `/metrics`
    /// sink), never into the deterministic per-request manifests.
    ServeRequestMicros,
    /// Target pages per served segmentation request.
    ServePagesPerRequest,
}

impl Hist {
    /// Every histogram, in manifest order.
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::ExtractsPerPage,
        Hist::DetailPagesPerExtract,
        Hist::RecordsPerPage,
        Hist::EmIterationsPerSolve,
        Hist::FrontendPageBytes,
        Hist::ServeRequestMicros,
        Hist::ServePagesPerRequest,
    ];

    /// Number of histogram variants (see [`Counter::COUNT`]).
    pub const COUNT: usize = 7;

    /// The canonical metric name.
    pub fn label(self) -> &'static str {
        match self {
            Hist::ExtractsPerPage => "extracts_per_page",
            Hist::DetailPagesPerExtract => "detail_pages_per_extract",
            Hist::RecordsPerPage => "records_per_page",
            Hist::EmIterationsPerSolve => "em_iterations_per_solve",
            Hist::FrontendPageBytes => "frontend_page_bytes",
            Hist::ServeRequestMicros => "serve_request_micros",
            Hist::ServePagesPerRequest => "serve_pages_per_request",
        }
    }

    /// This histogram's slot in [`Hist::ALL`] (exhaustive, like
    /// [`Counter::index`]).
    const fn index(self) -> usize {
        match self {
            Hist::ExtractsPerPage => 0,
            Hist::DetailPagesPerExtract => 1,
            Hist::RecordsPerPage => 2,
            Hist::EmIterationsPerSolve => 3,
            Hist::FrontendPageBytes => 4,
            Hist::ServeRequestMicros => 5,
            Hist::ServePagesPerRequest => 6,
        }
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `b ≥ 1`
/// holds values `v` with `v.ilog2() == b - 1`, i.e. `2^(b-1) ..= 2^b - 1`.
/// `u64::MAX` (ilog2 = 63) lands in the last bucket, 64.
pub const NUM_BUCKETS: usize = 65;

/// The log2 bucket index of a value.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        1 + value.ilog2() as usize
    }
}

/// The inclusive upper bound of a bucket (`u64::MAX` for the last).
pub fn bucket_upper(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// A log2-bucket histogram: counts per power-of-two value range, plus the
/// exact count and sum for mean computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (`u128`: 2^64 observations of
    /// `u64::MAX` cannot overflow it).
    pub sum: u128,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// The count in one bucket.
    pub fn bucket(&self, bucket: usize) -> u64 {
        self.buckets[bucket]
    }

    /// Element-wise sum of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// `(bucket, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(b, &n)| (b, n))
    }
}

/// A fixed-size set holding one [`Histogram`] per [`Hist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSet {
    hists: [Histogram; Hist::ALL.len()],
}

impl Default for HistogramSet {
    fn default() -> HistogramSet {
        HistogramSet {
            hists: [Histogram::default(); Hist::ALL.len()],
        }
    }
}

impl HistogramSet {
    /// All histograms empty.
    pub fn new() -> HistogramSet {
        HistogramSet::default()
    }

    /// Records one observation into one histogram.
    #[inline]
    pub fn observe(&mut self, hist: Hist, value: u64) {
        self.hists[hist.index()].observe(value);
    }

    /// One histogram.
    pub fn get(&self, hist: Hist) -> &Histogram {
        &self.hists[hist.index()]
    }

    /// Element-wise sum of another set into this one.
    pub fn merge(&mut self, other: &HistogramSet) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// Iterates `(label, histogram)` in [`Hist::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        Hist::ALL.iter().map(move |&h| (h.label(), self.get(h)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_assigns_every_variant_its_index() {
        // `index()` is an exhaustive match, so every Counter variant has
        // a declared slot — the compiler enforces that. These assertions
        // close the other half of the old drift hazard (ALL silently
        // lagging the enum at 18, then 21, then 23 variants): ALL must
        // hold every declared slot, in order, and COUNT must equal the
        // variant count the match covers.
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?} is misplaced in Counter::ALL");
        }
        assert_eq!(Hist::ALL.len(), Hist::COUNT);
        for (i, h) in Hist::ALL.into_iter().enumerate() {
            assert_eq!(h.index(), i, "{h:?} is misplaced in Hist::ALL");
        }
    }

    #[test]
    fn counter_labels_are_unique_and_stable() {
        let mut labels: Vec<&str> = Counter::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Counter::ALL.len());
    }

    #[test]
    fn counter_set_adds_and_merges() {
        let mut a = CounterSet::new();
        assert!(a.is_zero());
        a.add(Counter::EmIterations, 10);
        a.add(Counter::EmIterations, 5);
        let mut b = CounterSet::new();
        b.add(Counter::EmIterations, 1);
        b.add(Counter::PagesProcessed, 2);
        a.merge(&b);
        assert_eq!(a.get(Counter::EmIterations), 16);
        assert_eq!(a.get(Counter::PagesProcessed), 2);
        assert!(!a.is_zero());
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut a = CounterSet::new();
        a.add(Counter::EmIterations, u64::MAX);
        a.add(Counter::EmIterations, 1);
        assert_eq!(a.get(Counter::EmIterations), u64::MAX);
    }

    #[test]
    fn bucket_edges() {
        // The satellite's edge cases: 0 and u64::MAX.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        // Power-of-two boundaries.
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1 << 63), 64);
        assert_eq!(bucket_of((1 << 63) - 1), 63);
    }

    #[test]
    fn bucket_uppers_bracket_their_values() {
        for b in 0..NUM_BUCKETS {
            let upper = bucket_upper(b);
            assert_eq!(bucket_of(upper), b, "upper bound of bucket {b}");
            if b + 1 < NUM_BUCKETS {
                assert_eq!(bucket_of(upper + 1), b + 1);
            }
        }
    }

    #[test]
    fn histogram_observes_extremes_without_overflow() {
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 2 * u128::from(u64::MAX));
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(NUM_BUCKETS - 1), 2);
        assert_eq!(
            h.nonzero_buckets().collect::<Vec<_>>(),
            vec![(0, 1), (NUM_BUCKETS - 1, 2)]
        );
    }

    #[test]
    fn histogram_set_merges() {
        let mut a = HistogramSet::new();
        a.observe(Hist::ExtractsPerPage, 7);
        let mut b = HistogramSet::new();
        b.observe(Hist::ExtractsPerPage, 9);
        b.observe(Hist::EmIterationsPerSolve, 3);
        a.merge(&b);
        assert_eq!(a.get(Hist::ExtractsPerPage).count, 2);
        assert_eq!(a.get(Hist::ExtractsPerPage).sum, 16);
        assert_eq!(a.get(Hist::EmIterationsPerSolve).count, 1);
    }
}
