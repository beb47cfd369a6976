//! The EM loop (Section 5.2.3).
//!
//! "The basic components of the algorithm are: 1. Compute initial
//! distribution for the global period π using the current values for the
//! `S_i`. ... 3. For each potential starting point and record length, we
//! update the column start probabilities ... 4. Next we update `P(S_i|C_i)`
//! 5. And finally we update `P(R_i|R_{i-1},D_i,S_i)`. In the end we output
//! the most likely assignment to R and C."

use std::time::Instant;

use tableseg_extract::{Observations, Segmentation};

use crate::bootstrap;
use crate::forward_backward::{backward_struct, emissions_into, forward_struct, FbWorkspace};
use crate::model::{evidence, Dims, Evidence};
use crate::params::Params;
use crate::viterbi::decode;
use crate::{EmTiming, ProbOptions, ProbOutcome};

/// Runs bootstrapped EM and decodes the MAP segmentation.
pub fn run(obs: &Observations, opts: &ProbOptions) -> ProbOutcome {
    let ev = evidence(obs);
    if ev.is_empty() {
        return ProbOutcome {
            segmentation: Segmentation::unassigned(obs.num_records, 0),
            columns: Vec::new(),
            log_likelihood: 0.0,
            iterations: 0,
            period: Vec::new(),
            timing: EmTiming::default(),
        };
    }

    // Bootstrap (Section 5.2.1): k from the definite segments, π from
    // their lengths.
    let k = bootstrap::num_columns(&ev);
    let dims = Dims {
        num_records: obs.num_records.max(1),
        num_columns: k,
    };
    let pi0 = bootstrap::initial_period(&ev, k);
    let mut params = Params::uniform(k, pi0);

    let mut timing = EmTiming::default();
    let (log_likelihood, iterations, path) = run_scaled(&ev, dims, &mut params, opts, &mut timing);

    let mut assignments = Vec::with_capacity(ev.len());
    let mut columns = Vec::with_capacity(ev.len());
    for &s in &path {
        let (r, c) = dims.unpack(s);
        assignments.push(Some(r as u32));
        columns.push(c as u32);
    }

    ProbOutcome {
        segmentation: Segmentation {
            num_records: obs.num_records,
            assignments,
        },
        columns,
        log_likelihood,
        iterations,
        period: params.pi.clone(),
        timing,
    }
}

/// The EM loop: emissions and forward variables live in flat arenas
/// reused across iterations, and inference runs in scaled linear space
/// over the transition structure read straight from the parameters. Each
/// iteration runs the forward sweep; the backward sweep that feeds the
/// M-step runs only when the likelihood has not converged, so the final
/// iteration's counts, which no M-step would read, are never computed.
/// The MAP decode walks the same structure in log space ([`decode`]).
fn run_scaled(
    ev: &[Evidence],
    dims: Dims,
    params: &mut Params,
    opts: &ProbOptions,
    timing: &mut EmTiming,
) -> (f64, usize, Vec<usize>) {
    let mut ws = FbWorkspace::new();
    let mut prev_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    // `true` while the emission rows match the current `params`, so a converged
    // loop can feed the decode without another emission pass.
    let mut rows_fresh = false;
    for it in 0..opts.max_iterations {
        iterations = it + 1;
        let t = Instant::now();
        emissions_into(ev, params, dims, opts, &mut ws);
        let ll = forward_struct(dims, params, opts, &mut ws, ev);
        rows_fresh = true;

        // Log-likelihood-delta early exit *before* the backward sweep and
        // the M-step: once the likelihood has stopped moving, the extra
        // parameter update buys nothing and would force an emission
        // refresh for the decode.
        let converged = (ll - prev_ll).abs() < opts.tolerance;
        prev_ll = ll;
        if converged {
            timing.e_step_ns += t.elapsed().as_nanos() as u64;
            break;
        }
        backward_struct(dims, params, opts, &mut ws, ev);
        timing.e_step_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        params.update(
            &ws.counts.types,
            &ws.counts.col,
            &ws.counts.trans,
            &ws.counts.end,
            &ws.counts.cont,
        );
        rows_fresh = false;
        timing.m_step_ns += t.elapsed().as_nanos() as u64;
    }

    // MAP decode with the final parameters (the emission rows are
    // refreshed only when the loop exhausted its iteration budget with the
    // M-step as the last word).
    let t = Instant::now();
    if !rows_fresh {
        emissions_into(ev, params, dims, opts, &mut ws);
    }
    let path = decode(dims, params, opts, &ws, ev);
    timing.viterbi_ns += t.elapsed().as_nanos() as u64;
    (prev_ll, iterations, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{build_chain, em_run, log_emissions, path_score, viterbi};
    use tableseg_extract::build_observations;

    fn run_on(list: &str, details: &[&str]) -> (Observations, ProbOutcome) {
        let obs = build_observations(list, &[], details);
        let out = run(&obs, &ProbOptions::default());
        (obs, out)
    }

    #[test]
    fn clean_three_records() {
        let (obs, out) = run_on(
            "<td>Alpha One</td><td>100 Main</td><td>Beta Two</td><td>200 Oak</td><td>Gamma Three</td><td>300 Pine</td>",
            &[
                "<p>Alpha One</p><p>100 Main</p>",
                "<p>Beta Two</p><p>200 Oak</p>",
                "<p>Gamma Three</p><p>300 Pine</p>",
            ],
        );
        assert_eq!(
            out.segmentation.assignments,
            vec![Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)],
            "{out:?}"
        );
        assert!(out.segmentation.check(&obs).is_empty());
        // Column extraction: names in L1, addresses in a later column.
        assert_eq!(out.columns[0], 0);
        assert_eq!(out.columns[2], 0);
        assert_eq!(out.columns[4], 0);
        assert!(out.columns[1] > 0);
        // Period learned: records of length 2 dominate.
        assert!(out.period.len() >= 2);
        assert!(out.period[1] > out.period[0], "{:?}", out.period);
    }

    #[test]
    fn superpages_example_with_shared_values() {
        // The paper's running example: shared name/phone across r1/r2.
        let (obs, out) = run_on(
            "<td>John Smith</td><td>221 Washington</td><td>New Holland</td><td>(740) 335-5555</td>\
             <td>John Smith</td><td>221R Washington St</td><td>Wash CH</td><td>(740) 335-5555</td>\
             <td>George W. Smith</td><td>Findlay, OH</td><td>(419) 423-1212</td>",
            &[
                "<h1>John Smith</h1><p>221 Washington</p><p>New Holland</p><p>(740) 335-5555</p>",
                "<h1>John Smith</h1><p>221R Washington St</p><p>Wash CH</p><p>(740) 335-5555</p>",
                "<h1>George W. Smith</h1><p>Findlay, OH</p><p>(419) 423-1212</p>",
            ],
        );
        let expected: Vec<Option<u32>> = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
            .into_iter()
            .map(Some)
            .collect();
        assert_eq!(out.segmentation.assignments, expected, "{out:?}");
        assert!(out.segmentation.check(&obs).is_empty());
    }

    #[test]
    fn tolerates_inconsistent_data() {
        // "Parole"/"Parolee": the record-2 status value only matches an
        // unrelated context on r1. The CSP fails here; the probabilistic
        // approach must still produce a *total* segmentation.
        let (_, out) = run_on(
            "<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>",
            &[
                "<p>Alpha One</p><p>Parole</p>",
                "<p>Beta Two</p><p>Parolee</p>",
            ],
        );
        assert!(out.segmentation.is_total());
        // The names anchor their records despite the dirty status fields.
        assert_eq!(out.segmentation.assignments[0], Some(0));
        assert_eq!(out.segmentation.assignments[2], Some(1));
    }

    #[test]
    fn empty_observations() {
        let obs = build_observations("", &[], &[]);
        let out = run(&obs, &ProbOptions::default());
        assert!(out.segmentation.assignments.is_empty());
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn converged_run_skips_the_last_m_step() {
        // With a huge tolerance, iteration 2 converges immediately (the
        // first delta is infinite): the decode must then use the
        // parameters of the single M-step that ran, matching the
        // log-space oracle's early exit.
        let obs = build_observations(
            "<td>Alpha One</td><td>100 Main</td><td>Beta Two</td><td>200 Oak</td>",
            &[],
            &[
                "<p>Alpha One</p><p>100 Main</p>",
                "<p>Beta Two</p><p>200 Oak</p>",
            ],
        );
        let opts = ProbOptions {
            tolerance: 1e300,
            ..ProbOptions::default()
        };
        let fast = run(&obs, &opts);
        assert_eq!(fast.iterations, 2);
        let oracle = em_run(&obs, &opts);
        assert_eq!(oracle.iterations, 2);
        assert_eq!(fast.segmentation, oracle.segmentation);
        assert_eq!(fast.columns, oracle.columns);
        assert_eq!(fast.period.len(), oracle.period.len());
        for (a, b) in fast.period.iter().zip(&oracle.period) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn deterministic() {
        let args = (
            "<td>A B</td><td>1</td><td>C D</td><td>2</td>",
            ["<p>A B</p><p>1</p>", "<p>C D</p><p>2</p>", "<p>zz</p>"],
        );
        let (_, a) = run_on(args.0, &args.1);
        let (_, b) = run_on(args.0, &args.1);
        assert_eq!(a.segmentation, b.segmentation);
        assert_eq!(a.columns, b.columns);
    }

    #[test]
    fn period_model_ablation_still_segments_clean_data() {
        let list = "<td>Alpha One</td><td>100 Main</td><td>Beta Two</td><td>200 Oak</td><td>Gamma Three</td><td>300 Pine</td>";
        let details = [
            "<p>Alpha One</p><p>100 Main</p>",
            "<p>Beta Two</p><p>200 Oak</p>",
            "<p>Gamma Three</p><p>300 Pine</p>",
        ];
        let obs = build_observations(list, &[], &details);
        let out = run(
            &obs,
            &ProbOptions {
                period_model: false,
                ..ProbOptions::default()
            },
        );
        assert_eq!(
            out.segmentation.assignments,
            vec![Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)]
        );
    }

    #[test]
    fn k1_four_record_tie_decodes_an_equal_score_path() {
        // One column, four records, and no detail-page evidence on the last
        // three extracts: [0, 1, 2, 3, 3] and [0, 1, 1, 2, 3] take the same
        // three boundary edges and one fallback self-loop, so they score
        // the same. The materialized-chain decode returned the second; the
        // structured decode, whose boundary weights round as
        // `ln hz + j·ln q − ln total` instead of `ln(hz·q^j/total)`,
        // returns the first. Both are MAP paths.
        let ev: Vec<Evidence> = [
            (199, &[][..]),
            (109, &[1, 3][..]),
            (245, &[][..]),
            (159, &[][..]),
            (36, &[][..]),
        ]
        .iter()
        .map(|&(bits, pages)| Evidence {
            types: tableseg_html::TypeSet::from_bits(bits),
            pages: pages.to_vec(),
        })
        .collect();
        let k = bootstrap::num_columns(&ev);
        assert_eq!(k, 1);
        let dims = Dims {
            num_records: 4,
            num_columns: k,
        };
        let opts = ProbOptions::default();
        let mut params = Params::uniform(k, bootstrap::initial_period(&ev, k));
        let (_, _, path) = run_scaled(&ev, dims, &mut params, &opts, &mut EmTiming::default());
        assert_eq!(path, vec![0, 1, 2, 3, 3]);

        let chain = build_chain(dims, &params, &opts);
        let logs = log_emissions(&ev, &params, dims, &opts);
        let score = |p: &[usize]| path_score(&chain, &logs, p).expect("valid path");
        let best = score(&viterbi(&chain, &logs));
        for p in [&path[..], &[0, 1, 1, 2, 3]] {
            assert!((score(p) - best).abs() <= 1e-9 * best.abs(), "{p:?}");
        }
    }
}
