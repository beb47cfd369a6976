//! Property tests for the probabilistic model: posterior normalization
//! of the log-space oracle, validity of the structured MAP decode and EM
//! numeric health on random evidence.

mod oracle;

use proptest::prelude::*;

use oracle::{build_chain, forward_backward, log_emissions};
use tableseg_html::TypeSet;
use tableseg_prob::forward_backward::{emissions_into, FbWorkspace};
use tableseg_prob::model::{Dims, Evidence};
use tableseg_prob::params::Params;
use tableseg_prob::viterbi::decode;
use tableseg_prob::ProbOptions;

fn arb_evidence(num_records: usize) -> impl Strategy<Value = Vec<Evidence>> {
    proptest::collection::vec(
        (
            0u8..=255,
            proptest::collection::btree_set(0..num_records as u32, 0..=num_records.min(3)),
        ),
        1..14,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|(bits, pages)| Evidence {
                types: TypeSet::from_bits(bits),
                pages: pages.into_iter().collect(),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forward-backward posteriors are proper distributions, counts are
    /// conserved, and the log-likelihood is finite — even with impossible
    /// record evidence (the fallback keeps the chain alive).
    #[test]
    fn forward_backward_is_normalized(ev in arb_evidence(4)) {
        let dims = Dims { num_records: 4, num_columns: 3 };
        let params = Params::uniform(3, vec![1.0, 1.0, 1.0]);
        let opts = ProbOptions::default();
        let chain = build_chain(dims, &params, &opts);
        let emits = log_emissions(&ev, &params, dims, &opts);
        let fb = forward_backward(&chain, &emits, &ev);
        prop_assert!(fb.log_likelihood.is_finite());
        for (i, row) in fb.gamma.iter().enumerate() {
            let s: f64 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-6, "gamma[{i}] sums to {s}");
            prop_assert!(row.iter().all(|&g| (-1e-9..=1.0 + 1e-9).contains(&g)));
        }
        let col_mass: f64 = fb.counts.col.iter().sum();
        prop_assert!((col_mass - ev.len() as f64).abs() < 1e-6);
    }

    /// Every step of the structured decode follows an existing chain edge
    /// (or the initial distribution), and the path length matches the
    /// evidence.
    #[test]
    fn viterbi_path_is_structurally_valid(ev in arb_evidence(3)) {
        let dims = Dims { num_records: 3, num_columns: 3 };
        let params = Params::uniform(3, vec![1.0; 3]);
        let opts = ProbOptions::default();
        let chain = build_chain(dims, &params, &opts);
        let mut ws = FbWorkspace::new();
        emissions_into(&ev, &params, dims, &opts, &mut ws);
        let path = decode(dims, &params, &opts, &ws, &ev);
        prop_assert_eq!(path.len(), ev.len());
        // First state is a legal start.
        prop_assert!(chain.init[path[0]].is_finite());
        // Every transition is an edge.
        for w in path.windows(2) {
            let has_edge = chain.edges[w[0]].iter().any(|e| e.to == w[1]);
            prop_assert!(has_edge, "no edge {} -> {}", w[0], w[1]);
        }
        // Record labels never decrease along the path.
        let records: Vec<usize> = path.iter().map(|&s| dims.unpack(s).0).collect();
        prop_assert!(records.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The full segmenter is total, monotone, in-range and deterministic
    /// for arbitrary observation shapes.
    #[test]
    fn segment_prob_invariants(ev_spec in arb_evidence(4)) {
        use tableseg_extract::{ObsItem, Observations, Extract};
        use tableseg_html::TypeSet;
        // Build a synthetic observation table carrying the evidence.
        let items: Vec<ObsItem> = ev_spec
            .iter()
            .enumerate()
            .map(|(i, ev)| ObsItem {
                extract: Extract {
                    index: i,
                    start: i,
                    len: 1,
                    offset: i,
                    types: TypeSet::classify_text(&format!("w{i}")),
                },
                pages: ev.pages.clone(),
                positions: vec![],
            })
            .collect();
        let obs = Observations { num_records: 4, items, skipped: vec![] };
        let opts = ProbOptions::default();
        let a = tableseg_prob::segment_prob(&obs, &opts);
        prop_assert!(a.segmentation.is_total());
        prop_assert_eq!(a.columns.len(), obs.items.len());
        let b = tableseg_prob::segment_prob(&obs, &opts);
        prop_assert_eq!(a.segmentation, b.segmentation);
        prop_assert_eq!(a.columns, b.columns);
    }
}
