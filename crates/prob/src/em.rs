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
use crate::forward_backward::{build_chain, emissions_into, forward_backward_struct, FbWorkspace};
use crate::model::{evidence, Dims, Evidence};
use crate::params::Params;
use crate::viterbi::viterbi_scaled;
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

/// The EM loop: emissions and posteriors live in flat arenas reused
/// across iterations, and inference runs in scaled linear space over the
/// transition structure read straight from the parameters, so the chain
/// is built only for the final Viterbi decode.
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
    // `true` while `ws.emits` matches the current `params`, so a converged
    // loop can feed Viterbi without another emission pass.
    let mut emits_fresh = false;
    for it in 0..opts.max_iterations {
        iterations = it + 1;
        let t = Instant::now();
        emissions_into(ev, params, dims, opts, &mut ws);
        let ll = forward_backward_struct(dims, params, opts, &mut ws, ev);
        emits_fresh = true;
        timing.e_step_ns += t.elapsed().as_nanos() as u64;

        // Log-likelihood-delta early exit *before* the M-step: once the
        // likelihood has stopped moving, the extra parameter update buys
        // nothing and would force an emission refresh for the decode.
        if (ll - prev_ll).abs() < opts.tolerance {
            prev_ll = ll;
            break;
        }
        prev_ll = ll;

        let t = Instant::now();
        params.update(
            &ws.counts.types,
            &ws.counts.col,
            &ws.counts.trans,
            &ws.counts.end,
            &ws.counts.cont,
        );
        emits_fresh = false;
        timing.m_step_ns += t.elapsed().as_nanos() as u64;
    }

    // MAP decode with the final parameters (the emission arena is
    // refreshed only when the loop exhausted its iteration budget with the
    // M-step as the last word).
    let t = Instant::now();
    if !emits_fresh {
        emissions_into(ev, params, dims, opts, &mut ws);
    }
    let chain = build_chain(dims, params, opts);
    let path = viterbi_scaled(&chain, &ws);
    timing.viterbi_ns += t.elapsed().as_nanos() as u64;
    (prev_ll, iterations, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward_backward::{forward_backward, log_emissions};
    use crate::viterbi::viterbi;
    use tableseg_extract::build_observations;
    use tableseg_html::{lexer::tokenize, Token};

    fn run_on(list: &str, details: &[&str]) -> (Observations, ProbOutcome) {
        let list_toks = tokenize(list);
        let detail_toks: Vec<Vec<tableseg_html::Token>> =
            details.iter().map(|d| tokenize(d)).collect();
        let refs: Vec<&[Token]> = detail_toks.iter().map(Vec::as_slice).collect();
        let obs = build_observations(&list_toks, &[], &refs);
        let out = run(&obs, &ProbOptions::default());
        (obs, out)
    }

    /// The log-space EM oracle: `run`'s bootstrap, then a fresh chain and
    /// emission table every iteration with per-cell `ln`/`exp` inference
    /// ([`forward_backward`]), the same pre-M-step early exit, and a
    /// log-space Viterbi decode.
    fn oracle_run(obs: &Observations, opts: &ProbOptions) -> ProbOutcome {
        let ev = evidence(obs);
        let k = bootstrap::num_columns(&ev);
        let dims = Dims {
            num_records: obs.num_records.max(1),
            num_columns: k,
        };
        let mut params = Params::uniform(k, bootstrap::initial_period(&ev, k));
        let mut prev_ll = f64::NEG_INFINITY;
        let mut iterations = 0;
        for it in 0..opts.max_iterations {
            iterations = it + 1;
            let chain = build_chain(dims, &params, opts);
            let emits = log_emissions(&ev, &params, dims, opts);
            let fb = forward_backward(&chain, &emits, &ev);
            let converged = (fb.log_likelihood - prev_ll).abs() < opts.tolerance;
            prev_ll = fb.log_likelihood;
            if converged {
                break;
            }
            params.update(
                &fb.counts.types,
                &fb.counts.col,
                &fb.counts.trans,
                &fb.counts.end,
                &fb.counts.cont,
            );
        }
        let chain = build_chain(dims, &params, opts);
        let path = viterbi(&chain, &log_emissions(&ev, &params, dims, opts));
        let (assignments, columns) = path
            .iter()
            .map(|&s| {
                let (r, c) = dims.unpack(s);
                (Some(r as u32), c as u32)
            })
            .unzip();
        ProbOutcome {
            segmentation: Segmentation {
                num_records: obs.num_records,
                assignments,
            },
            columns,
            log_likelihood: prev_ll,
            iterations,
            period: params.pi,
            timing: EmTiming::default(),
        }
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
        let obs = build_observations(&[], &[], &[]);
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
        let list_toks =
            tokenize("<td>Alpha One</td><td>100 Main</td><td>Beta Two</td><td>200 Oak</td>");
        let d: Vec<Vec<tableseg_html::Token>> = [
            "<p>Alpha One</p><p>100 Main</p>",
            "<p>Beta Two</p><p>200 Oak</p>",
        ]
        .iter()
        .map(|s| tokenize(s))
        .collect();
        let refs: Vec<&[Token]> = d.iter().map(Vec::as_slice).collect();
        let obs = build_observations(&list_toks, &[], &refs);
        let opts = ProbOptions {
            tolerance: 1e300,
            ..ProbOptions::default()
        };
        let fast = run(&obs, &opts);
        assert_eq!(fast.iterations, 2);
        let oracle = oracle_run(&obs, &opts);
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
        let list = tokenize(
            "<td>Alpha One</td><td>100 Main</td><td>Beta Two</td><td>200 Oak</td><td>Gamma Three</td><td>300 Pine</td>",
        );
        let d: Vec<Vec<tableseg_html::Token>> = [
            "<p>Alpha One</p><p>100 Main</p>",
            "<p>Beta Two</p><p>200 Oak</p>",
            "<p>Gamma Three</p><p>300 Pine</p>",
        ]
        .iter()
        .map(|s| tokenize(s))
        .collect();
        let refs: Vec<&[Token]> = d.iter().map(Vec::as_slice).collect();
        let obs = build_observations(&list, &[], &refs);
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
}
