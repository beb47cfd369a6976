//! Differential property tests for the scaled linear-space inference
//! paths against the log-space oracle: the production structured E-step
//! (`emissions_into` + `forward_backward_struct`, negligible-mass flush
//! included) and `viterbi_scaled`; plus the arena-reuse regression of the
//! workspace.

use proptest::prelude::*;

use tableseg_html::TypeSet;
use tableseg_prob::forward_backward::{
    build_chain, emissions_into, forward_backward, forward_backward_struct, log_emissions, Counts,
    FbResult, FbWorkspace,
};
use tableseg_prob::model::{Dims, Evidence};
use tableseg_prob::params::Params;
use tableseg_prob::viterbi::{viterbi, viterbi_scaled};
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

/// Relative 1e-9 closeness (absolute for values at most 1, like the
/// posteriors; relative for the log-likelihood).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Log-likelihood and every expected count of a scaled pass within
/// [`close`] of the log-space oracle's; the first mismatch, if any.
fn counts_mismatch(ll: f64, counts: &Counts, oracle: &FbResult) -> Option<String> {
    if !close(ll, oracle.log_likelihood) {
        return Some(format!("ll {ll} vs {}", oracle.log_likelihood));
    }
    let flat = |c: &Counts| -> Vec<(&'static str, f64)> {
        let mut v = Vec::new();
        v.extend(c.col.iter().map(|&x| ("col", x)));
        v.extend(c.types.iter().flatten().map(|&x| ("types", x)));
        v.extend(c.trans.iter().flatten().map(|&x| ("trans", x)));
        v.extend(c.end.iter().map(|&x| ("end", x)));
        v.extend(c.cont.iter().map(|&x| ("cont", x)));
        v
    };
    let (got, want) = (flat(counts), flat(&oracle.counts));
    if got.len() != want.len() {
        return Some(format!("{} counts vs {}", got.len(), want.len()));
    }
    got.iter()
        .zip(&want)
        .find(|((_, a), (_, b))| !close(*a, *b))
        .map(|((name, a), (_, b))| format!("{name} count {a} vs {b}"))
}

/// One EM iteration's worth of parameter drift, so differential checks
/// also run on non-uniform parameters.
fn drifted_params(ev: &[Evidence], dims: Dims, opts: &ProbOptions) -> Params {
    let mut params = Params::uniform(dims.num_columns, vec![1.0; dims.num_columns]);
    let chain = build_chain(dims, &params, opts);
    let emits = log_emissions(ev, &params, dims, opts);
    let fb = forward_backward(&chain, &emits, ev);
    params.update(
        &fb.counts.types,
        &fb.counts.col,
        &fb.counts.trans,
        &fb.counts.end,
        &fb.counts.cont,
    );
    params
}

/// Runs the production structured pass and the log-space oracle on the
/// same parameters; returns the structured workspace and the first
/// mismatch, if any.
fn struct_vs_oracle(
    ev: &[Evidence],
    dims: Dims,
    params: &Params,
    opts: &ProbOptions,
) -> (FbWorkspace, Option<String>) {
    let chain = build_chain(dims, params, opts);
    let emits = log_emissions(ev, params, dims, opts);
    let fb = forward_backward(&chain, &emits, ev);
    let mut ws = FbWorkspace::new();
    emissions_into(ev, params, dims, opts, &mut ws);
    let ll = forward_backward_struct(dims, params, opts, &mut ws, ev);
    let mismatch = counts_mismatch(ll, &ws.counts, &fb);
    (ws, mismatch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The production structured E-step, negligible-mass flush included,
    /// reproduces the log-space oracle within 1e-9: log-likelihood and
    /// every expected count, on uniform and on EM-drifted parameters.
    #[test]
    fn struct_fb_matches_log_space(ev in arb_evidence(4), drift in proptest::bool::ANY) {
        let dims = Dims { num_records: 4, num_columns: 3 };
        let opts = ProbOptions::default();
        let params = if drift {
            drifted_params(&ev, dims, &opts)
        } else {
            Params::uniform(3, vec![1.0; 3])
        };
        let mismatch = struct_vs_oracle(&ev, dims, &params, &opts).1;
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }

    /// The scaled Viterbi decodes a MAP path of the same score as the
    /// log-space one. (Per-row emission scaling shifts every path's score
    /// equally, so the argmax set is unchanged — but distinct paths can
    /// tie exactly, and the ~1e-16 rounding difference between linear
    /// products and log sums may break such ties differently. Scores are
    /// compared, not indices.)
    #[test]
    fn scaled_viterbi_matches_log_space(ev in arb_evidence(3), drift in any::<bool>()) {
        let dims = Dims { num_records: 3, num_columns: 3 };
        let opts = ProbOptions::default();
        let params = if drift {
            drifted_params(&ev, dims, &opts)
        } else {
            Params::uniform(3, vec![1.0; 3])
        };
        let chain = build_chain(dims, &params, &opts);
        let emits = log_emissions(&ev, &params, dims, &opts);
        let log_path = viterbi(&chain, &emits);

        let mut ws = FbWorkspace::new();
        emissions_into(&ev, &params, dims, &opts, &mut ws);
        let scaled_path = viterbi_scaled(&chain, &ws);
        prop_assert_eq!(scaled_path.len(), log_path.len());
        let score = |path: &[usize]| -> f64 {
            let mut s = chain.init[path[0]] + emits[0][path[0]];
            for (i, w) in path.windows(2).enumerate() {
                let e = chain.edges[w[0]]
                    .iter()
                    .find(|e| e.to == w[1])
                    .expect("path follows chain edges");
                s += e.logp + emits[i + 1][w[1]];
            }
            s
        };
        let (a, b) = (score(&scaled_path), score(&log_path));
        prop_assert!(close(a, b), "scaled path scores {a}, log path {b}");
    }

    /// The workspace arenas stop growing after the first iteration: EM
    /// re-runs on the same instance never reallocate the tables.
    #[test]
    fn workspace_arenas_do_not_grow_across_iterations(ev in arb_evidence(4)) {
        let dims = Dims { num_records: 4, num_columns: 3 };
        let opts = ProbOptions::default();
        let mut params = Params::uniform(3, vec![1.0; 3]);
        let mut ws = FbWorkspace::new();

        emissions_into(&ev, &params, dims, &opts, &mut ws);
        forward_backward_struct(dims, &params, &opts, &mut ws, &ev);
        let cap_after_first = ws.table_capacity();
        for _ in 0..5 {
            params.update(
                &ws.counts.types,
                &ws.counts.col,
                &ws.counts.trans,
                &ws.counts.end,
                &ws.counts.cont,
            );
            emissions_into(&ev, &params, dims, &opts, &mut ws);
            forward_backward_struct(dims, &params, &opts, &mut ws, &ev);
            prop_assert_eq!(ws.table_capacity(), cap_after_first, "arena grew");
        }
    }
}

/// Adversarial fixture for the negligible-mass flush: the page walks
/// records 0–6 with three extracts each, then shows three extracts whose
/// `D_i` point back to record 0. By then the forward pass has decayed
/// record 0's α̂ cells far below the flush threshold (each step costs
/// them the fallback times ε relative to the advancing records), so the
/// structured pass zeroes them — and must still match the unflushed
/// log-space oracle on uniform and on EM-drifted parameters.
#[test]
fn flush_fixture_with_backward_pointing_evidence_matches_log_space() {
    let dims = Dims {
        num_records: 8,
        num_columns: 3,
    };
    let opts = ProbOptions::default();
    let record = |page: u32| {
        [0b001, 0b010, 0b100].map(|bits| Evidence {
            types: TypeSet::from_bits(bits),
            pages: vec![page],
        })
    };
    let ev: Vec<Evidence> = (0..7).chain([0]).flat_map(record).collect();

    for params in [
        Params::uniform(3, vec![1.0; 3]),
        drifted_params(&ev, dims, &opts),
    ] {
        let (ws, mismatch) = struct_vs_oracle(&ev, dims, &params, &opts);
        assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
        // The flush fired: record 0's cells at the last extract are
        // exactly zero (every state is reachable from extract 1 on, so
        // without the flush no α̂ cell would be).
        let ns = dims.num_states();
        let last = &ws.alpha[(ev.len() - 1) * ns..];
        assert_eq!(
            &last[..dims.num_columns],
            [0.0; 3],
            "record 0 was never flushed"
        );
    }
}

#[test]
fn empty_sequence_edge_case() {
    let dims = Dims {
        num_records: 2,
        num_columns: 2,
    };
    let opts = ProbOptions::default();
    let params = Params::uniform(2, vec![1.0, 1.0]);
    let chain = build_chain(dims, &params, &opts);
    let mut ws = FbWorkspace::new();
    emissions_into(&[], &params, dims, &opts, &mut ws);
    let ll = forward_backward_struct(dims, &params, &opts, &mut ws, &[]);
    assert_eq!(ll, 0.0);
    assert!(viterbi_scaled(&chain, &ws).is_empty());
    let fb = forward_backward(&chain, &[], &[]);
    assert_eq!(fb.log_likelihood, 0.0);
}

#[test]
fn single_state_edge_case() {
    // One record, one column: a single chain state, held alive by the
    // fallback self-loop.
    let dims = Dims {
        num_records: 1,
        num_columns: 1,
    };
    let opts = ProbOptions::default();
    let params = Params::uniform(1, vec![1.0]);
    let ev = vec![
        Evidence {
            types: TypeSet::from_bits(0b1),
            pages: vec![0],
        },
        Evidence {
            types: TypeSet::from_bits(0b10),
            pages: vec![],
        },
    ];
    let chain = build_chain(dims, &params, &opts);
    let emits = log_emissions(&ev, &params, dims, &opts);
    let fb = forward_backward(&chain, &emits, &ev);

    let mut ws = FbWorkspace::new();
    emissions_into(&ev, &params, dims, &opts, &mut ws);
    let ll = forward_backward_struct(dims, &params, &opts, &mut ws, &ev);
    let mismatch = counts_mismatch(ll, &ws.counts, &fb);
    assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    // Both extracts sit in the one state with posterior 1.
    assert!(close(ws.counts.col[0], 2.0), "{:?}", ws.counts.col);
    assert_eq!(viterbi_scaled(&chain, &ws), viterbi(&chain, &emits));
}
