//! Front-end microbenchmarks: tokenization, interning, template
//! induction, observation-table construction, and the indexed extract
//! matcher.
//!
//! The paper argues its content-based inference is fast because "the
//! number of text strings on a typical Web page is very small compared to
//! the number of HTML tags" (Section 1); these benches quantify each
//! pipeline stage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use tableseg_bench::matchbench;
use tableseg_extract::build_observations;
use tableseg_html::lexer::tokenize;
use tableseg_html::{Interner, Token};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;
use tableseg_template::{assess, induce};

fn bench_tokenize(c: &mut Criterion) {
    let mut group = c.benchmark_group("tokenize");
    for spec in [paper_sites::allegheny(), paper_sites::superpages()] {
        let site = generate(&spec);
        let html = &site.pages[0].list_html;
        group.throughput(Throughput::Bytes(html.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(&spec.name), html, |b, html| {
            b.iter(|| tokenize(black_box(html)))
        });
    }
    group.finish();
}

fn bench_template(c: &mut Criterion) {
    let mut group = c.benchmark_group("template_induction");
    for spec in [paper_sites::allegheny(), paper_sites::amazon()] {
        let site = generate(&spec);
        let pages: Vec<Vec<Token>> = site.pages.iter().map(|p| tokenize(&p.list_html)).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(&spec.name),
            &pages,
            |b, pages| {
                b.iter(|| {
                    let ind = induce(black_box(pages));
                    assess(&ind, pages)
                })
            },
        );
    }
    group.finish();
}

fn bench_observations(c: &mut Criterion) {
    let mut group = c.benchmark_group("observation_table");
    for spec in [paper_sites::butler(), paper_sites::canada411()] {
        let site = generate(&spec);
        let list = tokenize(&site.pages[0].list_html);
        let details: Vec<Vec<Token>> = site.pages[0]
            .detail_html
            .iter()
            .map(|d| tokenize(d))
            .collect();
        let refs: Vec<&[Token]> = details.iter().map(Vec::as_slice).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(&spec.name),
            &(list, refs),
            |b, (list, refs)| b.iter(|| build_observations(black_box(list), &[], refs)),
        );
    }
    group.finish();
}

fn bench_intern(c: &mut Criterion) {
    let mut group = c.benchmark_group("intern");
    for spec in [paper_sites::allegheny(), paper_sites::superpages()] {
        let site = generate(&spec);
        let tokens = tokenize(&site.pages[0].list_html);
        group.throughput(Throughput::Elements(tokens.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(&spec.name),
            &tokens,
            |b, tokens| {
                b.iter(|| {
                    let mut interner = Interner::new();
                    interner.intern_tokens(black_box(tokens))
                })
            },
        );
    }
    group.finish();
}

/// Per-page extract matching with the indexed symbol matcher. Same
/// fixtures as the `BENCH_frontend.json` smoke run.
fn bench_matcher(c: &mut Criterion) {
    let mut group = c.benchmark_group("matcher");
    let fixtures = matchbench::corpus();
    for f in fixtures.iter().filter(|f| {
        f.page == 0 && ["Butler County", "Superpages", "Canada 411"].contains(&f.site.as_str())
    }) {
        group.throughput(Throughput::Elements(f.extracts.len() as u64));
        group.bench_with_input(BenchmarkId::new("indexed", &f.site), f, |b, f| {
            b.iter(|| black_box(f.run_indexed()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tokenize,
    bench_intern,
    bench_template,
    bench_observations,
    bench_matcher
);
criterion_main!(benches);
