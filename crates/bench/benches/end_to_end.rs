//! End-to-end runtime per list page — the paper's RT claim: "The CSP and
//! probabilistic algorithms were exceedingly fast, taking only a few
//! seconds to run in all cases" (Section 6.1). One bench per
//! representative site (clean grid, free-form dirty, large shared-value).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use tableseg::{try_prepare_with_template, CspSegmenter, ProbSegmenter, Segmenter, SiteTemplate};
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    for spec in [
        paper_sites::allegheny(),
        paper_sites::superpages(),
        paper_sites::canada411(),
        paper_sites::amazon(),
    ] {
        let site = generate(&spec);
        let details: Vec<String> = site.pages[0].detail_html.clone();
        let lists: Vec<String> = site.pages.iter().map(|p| p.list_html.clone()).collect();

        for (label, segmenter) in [
            ("csp", &CspSegmenter::default() as &dyn Segmenter),
            ("prob", &ProbSegmenter::default()),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, &spec.name),
                &(&lists, &details),
                |b, (lists, details)| {
                    b.iter(|| {
                        let list_refs: Vec<&str> = lists.iter().map(String::as_str).collect();
                        let detail_refs: Vec<&str> = details.iter().map(String::as_str).collect();
                        // The whole front end, template induction included.
                        let template = SiteTemplate::build(&list_refs);
                        let prepared = try_prepare_with_template(&template, 0, &detail_refs)
                            .expect("page 1 prepares");
                        segmenter.segment(black_box(&prepared.observations))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
