//! Differential property tests for the production structured passes
//! against the log-space chain oracle (`tests/oracle`): the E-step
//! (`emissions_into` + `forward_struct` + `backward_struct`,
//! negligible-mass flush included) and the MAP `decode`, at every
//! width the kernels are instantiated for; plus the arena-reuse
//! regression of the workspace.

mod oracle;

use proptest::prelude::*;

use oracle::{build_chain, forward_backward, log_emissions, path_score, viterbi, FbResult};
use tableseg_html::TypeSet;
use tableseg_prob::forward_backward::{
    backward_struct, emissions_into, forward_struct, Counts, FbWorkspace,
};
use tableseg_prob::model::{Dims, Evidence};
use tableseg_prob::params::Params;
use tableseg_prob::viterbi::decode;
use tableseg_prob::width::MAX_FIXED_WIDTH;
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

/// Every column count with a fixed-width kernel instance, plus two
/// runtime widths above them.
const WIDTHS: std::ops::RangeInclusive<usize> = 1..=MAX_FIXED_WIDTH + 2;

/// A page of 1 to 8 records and its evidence.
fn arb_page() -> impl Strategy<Value = (usize, Vec<Evidence>)> {
    (1..=8usize).prop_flat_map(|nk| (Just(nk), arb_evidence(nk)))
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

/// The production E-step: emissions, the forward sweep, then the backward
/// sweep; returns the log-likelihood.
fn struct_e_step(
    ev: &[Evidence],
    dims: Dims,
    params: &Params,
    opts: &ProbOptions,
    ws: &mut FbWorkspace,
) -> f64 {
    emissions_into(ev, params, dims, opts, ws);
    let ll = forward_struct(dims, params, opts, ws, ev);
    backward_struct(dims, params, opts, ws, ev);
    ll
}

/// Total reserved capacity of the workspace's per-extract tables, in `f64`
/// cells: the emission rows and their scales, α̂ and the normalizers.
fn table_capacity(ws: &FbWorkspace) -> usize {
    ws.emit_rows.capacity() + ws.row_scale.capacity() + ws.alpha.capacity() + ws.scale.capacity()
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
    let ll = struct_e_step(ev, dims, params, opts, &mut ws);
    let mismatch = counts_mismatch(ll, &ws.counts, &fb);
    (ws, mismatch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The production structured E-step, negligible-mass flush included,
    /// reproduces the log-space oracle within 1e-9: log-likelihood and
    /// every expected count, on uniform and on EM-drifted parameters, at
    /// every width the kernels dispatch to a fixed-width instance and at
    /// two runtime widths above them, over 1 to 8 records.
    #[test]
    fn struct_fb_matches_log_space(page in arb_page(), drift in proptest::bool::ANY) {
        let (nk, ev) = page;
        let opts = ProbOptions::default();
        for k in WIDTHS {
            let dims = Dims { num_records: nk, num_columns: k };
            let params = if drift {
                drifted_params(&ev, dims, &opts)
            } else {
                Params::uniform(k, vec![1.0; k])
            };
            let mismatch = struct_vs_oracle(&ev, dims, &params, &opts).1;
            prop_assert!(mismatch.is_none(), "k={k}: {}", mismatch.unwrap_or_default());
        }
    }

    /// The structured decode returns a MAP path: every step follows an
    /// oracle-chain edge, and the path's score under the oracle chain is
    /// within 1e-9 of the log-space Viterbi path's, on uniform and on
    /// EM-drifted parameters, at every dispatched width as above.
    /// (Distinct paths can tie exactly, and the decode's boundary weights
    /// `ln hz + j·ln q − ln total` round differently from the chain's
    /// `ln(hz·q^j/total)`, so such ties may break differently. Scores are
    /// compared, not indices.)
    #[test]
    fn scaled_viterbi_matches_log_space(page in arb_page(), drift in any::<bool>()) {
        let (nk, ev) = page;
        let opts = ProbOptions::default();
        for k in WIDTHS {
            let dims = Dims { num_records: nk, num_columns: k };
            let params = if drift {
                drifted_params(&ev, dims, &opts)
            } else {
                Params::uniform(k, vec![1.0; k])
            };
            let chain = build_chain(dims, &params, &opts);
            let emits = log_emissions(&ev, &params, dims, &opts);
            let log_path = viterbi(&chain, &emits);

            let mut ws = FbWorkspace::new();
            emissions_into(&ev, &params, dims, &opts, &mut ws);
            let path = decode(dims, &params, &opts, &ws, &ev);
            prop_assert_eq!(path.len(), log_path.len());
            let a = path_score(&chain, &emits, &path);
            prop_assert!(a.is_some(), "k={k}: decoded path {:?} leaves the chain", path);
            let (a, b) = (a.unwrap(), path_score(&chain, &emits, &log_path).unwrap());
            prop_assert!(close(a, b), "k={k}: decoded path scores {a}, log path {b}");
        }
    }

    /// The workspace arenas stop growing after the first iteration: EM
    /// re-runs on the same instance never reallocate the tables.
    #[test]
    fn workspace_arenas_do_not_grow_across_iterations(ev in arb_evidence(4)) {
        let dims = Dims { num_records: 4, num_columns: 3 };
        let opts = ProbOptions::default();
        let mut params = Params::uniform(3, vec![1.0; 3]);
        let mut ws = FbWorkspace::new();

        struct_e_step(&ev, dims, &params, &opts, &mut ws);
        let cap_after_first = table_capacity(&ws);
        for _ in 0..5 {
            params.update(
                &ws.counts.types,
                &ws.counts.col,
                &ws.counts.trans,
                &ws.counts.end,
                &ws.counts.cont,
            );
            struct_e_step(&ev, dims, &params, &opts, &mut ws);
            prop_assert_eq!(table_capacity(&ws), cap_after_first, "arena grew");
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
    let ll = struct_e_step(&[], dims, &params, &opts, &mut ws);
    assert_eq!(ll, 0.0);
    assert!(decode(dims, &params, &opts, &ws, &[]).is_empty());
    let fb = forward_backward(&chain, &[], &[]);
    assert_eq!(fb.log_likelihood, 0.0);
    assert!(viterbi(&chain, &[]).is_empty());
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
    let ll = struct_e_step(&ev, dims, &params, &opts, &mut ws);
    let mismatch = counts_mismatch(ll, &ws.counts, &fb);
    assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    // Both extracts sit in the one state with posterior 1.
    assert!(close(ws.counts.col[0], 2.0), "{:?}", ws.counts.col);
    assert_eq!(
        decode(dims, &params, &opts, &ws, &ev),
        viterbi(&chain, &emits)
    );
}
