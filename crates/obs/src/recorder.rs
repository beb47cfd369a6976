//! The per-job metric recorder and the ambient enable switch.
//!
//! Each pipeline job (a site preparation, a page preparation, a solver
//! call) carries its own [`Recorder`]; the batch-engine assembly loops
//! merge them in deterministic job order, so totals are identical at any
//! thread count. When observability is disabled (the default), every
//! recorder is born off and [`Recorder::bump`]/[`Recorder::observe`]
//! reduce to a single predictable branch — the "zero-cost-when-disabled"
//! contract measured by `obsbench`.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::metric::{Counter, CounterSet, Hist, HistogramSet};

/// The process-wide observability switch. Off by default; `obsbench` and
/// the `--manifest` CLI flags turn it on before running the pipeline.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording on or off for recorders created afterwards.
///
/// Existing recorders keep the state they were born with, so flipping the
/// switch mid-run never produces a half-recorded job.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recorders are currently being created enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A per-job metrics collector: one [`CounterSet`] and one
/// [`HistogramSet`] behind an on/off flag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recorder {
    /// Whether this recorder records. Merging ignores the flag: merged
    /// data is kept even into a disabled recorder, so assembly code never
    /// has to check.
    on: bool,
    /// Counter totals.
    pub counters: CounterSet,
    /// Histograms.
    pub hists: HistogramSet,
}

impl Recorder {
    /// A recorder honouring the ambient [`set_enabled`] switch.
    pub fn new() -> Recorder {
        Recorder {
            on: enabled(),
            ..Recorder::default()
        }
    }

    /// A recorder that always records, regardless of the ambient switch
    /// (for tests and sinks that aggregate unconditionally).
    pub fn always_on() -> Recorder {
        Recorder {
            on: true,
            ..Recorder::default()
        }
    }

    /// Whether this recorder records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Adds `by` to a counter (no-op when disabled).
    #[inline]
    pub fn bump(&mut self, counter: Counter, by: u64) {
        if self.on {
            self.counters.add(counter, by);
        }
    }

    /// Adds 1 to a counter (no-op when disabled).
    #[inline]
    pub fn incr(&mut self, counter: Counter) {
        self.bump(counter, 1);
    }

    /// Records a histogram observation (no-op when disabled).
    #[inline]
    pub fn observe(&mut self, hist: Hist, value: u64) {
        if self.on {
            self.hists.observe(hist, value);
        }
    }

    /// Merges another recorder's data into this one.
    ///
    /// Always sums, even when `self` is disabled: a disabled parent can
    /// still aggregate enabled children (and vice versa), so the batch
    /// assembly loops stay branch-free.
    pub fn merge(&mut self, other: &Recorder) {
        self.counters.merge(&other.counters);
        self.hists.merge(&other.hists);
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_zero() && self.hists.iter().all(|(_, h)| h.count == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        // The satellite's disabled-mode no-op test: bump/observe on an
        // off recorder leave it bit-for-bit empty.
        let mut r = Recorder::default();
        assert!(!r.is_on());
        r.bump(Counter::EmIterations, 1000);
        r.incr(Counter::PagesProcessed);
        r.observe(Hist::ExtractsPerPage, 42);
        assert!(r.is_empty());
        assert_eq!(r, Recorder::default());
    }

    #[test]
    fn enabled_recorder_records() {
        let mut r = Recorder::always_on();
        r.bump(Counter::EmIterations, 1000);
        r.incr(Counter::PagesProcessed);
        r.observe(Hist::ExtractsPerPage, 42);
        assert_eq!(r.counters.get(Counter::EmIterations), 1000);
        assert_eq!(r.counters.get(Counter::PagesProcessed), 1);
        assert_eq!(r.hists.get(Hist::ExtractsPerPage).count, 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn merge_ignores_the_flag() {
        let mut child = Recorder::always_on();
        child.incr(Counter::SitesProcessed);
        let mut parent = Recorder::default();
        parent.merge(&child);
        assert_eq!(parent.counters.get(Counter::SitesProcessed), 1);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let mut a = Recorder::always_on();
        a.bump(Counter::EmIterations, 3);
        a.observe(Hist::EmIterationsPerSolve, 3);
        let mut b = Recorder::always_on();
        b.bump(Counter::EmIterations, 5);
        b.observe(Hist::EmIterationsPerSolve, 5);

        let mut ab = Recorder::default();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Recorder::default();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters.get(Counter::EmIterations), 8);
        assert_eq!(ab.hists.get(Hist::EmIterationsPerSolve).sum, 8);
    }
}
