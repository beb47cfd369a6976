//! Solver microbenchmarks: the exact branch-and-bound of the CSP and the
//! EM loop of the probabilistic approach.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tableseg_csp::encoder::{encode, EncodeOptions};
use tableseg_csp::exact::solve_bnb;
use tableseg_extract::{build_observations, Observations};
use tableseg_prob::{segment_prob, ProbOptions};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn site_observations(spec: &tableseg_sitegen::site::SiteSpec, page: usize) -> Observations {
    let site = generate(spec);
    let page = &site.pages[page];
    build_observations(&page.list_html, &[], &page.detail_htmls())
}

fn bench_exact(c: &mut Criterion) {
    let obs = site_observations(&paper_sites::butler(), 0);
    let enc = encode(&obs, &EncodeOptions::default());
    c.bench_function("bnb/butler", |b| {
        b.iter(|| solve_bnb(black_box(&enc.model), 1_000_000))
    });
}

fn bench_prob_em(c: &mut Criterion) {
    let mut group = c.benchmark_group("prob_em");
    for spec in [paper_sites::butler(), paper_sites::canada411()] {
        let obs = site_observations(&spec, 0);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{} ({} extracts)", spec.name, obs.len())),
            &obs,
            |b, obs| b.iter(|| segment_prob(black_box(obs), &ProbOptions::default())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_exact, bench_prob_em);
criterion_main!(benches);
