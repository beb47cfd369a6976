//! The full CSP segmentation pipeline with the paper's relaxation ladder.
//!
//! "The CSP algorithm could not find an assignment of the variables that
//! satisfied all the constraints. ... In such cases we relaxed the
//! constraints, for example, by requiring that an extract appear on at most
//! one detail page. WSAT(OIP) was able to find solutions for the relaxed
//! constraint problem, but the solution corresponded to a partial
//! assignment." (Section 6.3)
//!
//! The ladder implemented here:
//!
//! 1. encode with hard equalities, [`reduce_model`] the encoding
//!    (propagation + decomposition — on clean sites this alone solves the
//!    instance), and solve each remaining component with WSAT(OIP), in
//!    parallel when [`WsatConfig::threads`] allows;
//! 2. a component the stochastic search fails is cross-checked by the
//!    exact branch-and-bound: if it finds a solution, use it; if it
//!    *proves* infeasibility (or runs out of budget), fall through;
//! 3. relax the same encoding in place
//!    ([`Encoding::relax`](crate::Encoding::relax): equalities
//!    become `≤`), reduce again, and solve each component with the
//!    warm-started portfolio ([`solve_warm`]), seeded from the strict
//!    rung's best assignment — relaxing keeps the variable layout, so the
//!    previous rung's solution projects directly onto each component.
//!
//! Setting [`CspOptions::reduce`] to `false` restores the whole-instance
//! ladder (encode → solve → BnB → relax), which doubles as the
//! differential oracle for the reduced path in tests and `solvebench`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use tableseg_extract::{Observations, Segmentation};

use crate::encoder::{encode, EncodeOptions};
use crate::exact::{solve_bnb, BnbOutcome};
use crate::model::Model;
use crate::reduce::{reduce_model, Component};
use crate::solution::decode;
use crate::wsat::{reference::solve_reference, solve, solve_warm, WsatConfig, WsatResult};

/// Node cap for the exact-first pass over relaxed components. Small
/// components finish in well under this; anything that does not is
/// cheaper to hand to the warm-started portfolio than to prove optimal.
const BNB_FIRST_BUDGET: u64 = 50_000;

/// Options for [`segment_csp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CspOptions {
    /// Stochastic-solver configuration.
    pub wsat: WsatConfig,
    /// Include the Section 4.2 position constraints.
    pub position_constraints: bool,
    /// Node budget for the exact cross-check.
    pub bnb_budget: u64,
    /// Variable cap for the exact cross-check: encodings (or components)
    /// larger than this skip branch-and-bound entirely (treated as
    /// `Unknown`) and go straight to the stochastic relaxation path.
    pub bnb_var_cap: usize,
    /// Use the pre-overhaul sequential WSAT implementation instead of the
    /// cached-delta parallel one. The `solvebench` baseline; leave `false`
    /// everywhere else. Implies the whole-instance (unreduced) ladder.
    pub reference_solver: bool,
    /// Reduce each encoding (propagation + entailment + decomposition)
    /// and solve components independently with warm starts. `false`
    /// restores the whole-instance ladder — the differential oracle and
    /// the `solvebench` "prev" leg.
    pub reduce: bool,
}

impl Default for CspOptions {
    fn default() -> CspOptions {
        CspOptions {
            wsat: WsatConfig::default(),
            position_constraints: true,
            bnb_budget: 2_000_000,
            bnb_var_cap: 220,
            reference_solver: false,
            reduce: true,
        }
    }
}

/// How the segmentation was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CspStatus {
    /// All hard constraints satisfied (the paper's clean-data case).
    Solved,
    /// No solution to the hard problem existed (or was found); the relaxed
    /// problem produced a partial assignment — the paper's notes `c` and
    /// `d` in Table 4.
    SolvedRelaxed,
    /// Not even the relaxed problem yielded a usable assignment.
    Failed,
}

/// The result of the CSP approach on one list page.
#[derive(Debug, Clone)]
pub struct CspOutcome {
    /// The segmentation (possibly partial under [`CspStatus::SolvedRelaxed`]).
    pub segmentation: Segmentation,
    /// How it was obtained.
    pub status: CspStatus,
    /// Residual violation of the *strict* encoding by the best strict
    /// assignment found (0 when `status == Solved`). A diagnostic for how
    /// inconsistent the site data is.
    pub strict_violation: i64,
    /// Total WSAT flips spent across the strict and relaxed solves —
    /// the throughput denominator reported by `solvebench`.
    pub flips: u64,
    /// Total WSAT restarts (tries) across the strict and relaxed solves.
    pub tries: u64,
    /// Constraint-graph components solved independently, summed over the
    /// strict and relaxed phases (0 when reduction is off or propagation
    /// solved everything).
    pub components: usize,
    /// Variables removed from the search space by reduction (forced by
    /// propagation + assigned free), summed over phases.
    pub pruned_vars: usize,
    /// Warm-started component solves whose best assignment came from a
    /// warm seed.
    pub warm_start_hits: u64,
    /// Wall-clock nanoseconds spent building the encoding and deriving
    /// its relaxation — the `solve.encode` timing sub-stage.
    pub encode_ns: u64,
    /// Wall-clock nanoseconds spent in [`reduce_model`] — the
    /// `solve.reduce` timing sub-stage.
    pub reduce_ns: u64,
}

impl CspOutcome {
    /// Convenience: `true` when constraints had to be relaxed (or failed).
    pub fn relaxed(&self) -> bool {
        self.status != CspStatus::Solved
    }
}

/// Running totals across the two rungs of the reduced ladder.
#[derive(Default)]
struct SolveStats {
    flips: u64,
    tries: u64,
    components: usize,
    pruned_vars: usize,
    warm_start_hits: u64,
    encode_ns: u64,
    reduce_ns: u64,
}

/// Runs the CSP approach of Section 4 on an observation table.
pub fn segment_csp(obs: &Observations, opts: &CspOptions) -> CspOutcome {
    if obs.items.is_empty() {
        return CspOutcome {
            segmentation: Segmentation::unassigned(obs.num_records, 0),
            status: CspStatus::Solved,
            strict_violation: 0,
            flips: 0,
            tries: 0,
            components: 0,
            pruned_vars: 0,
            warm_start_hits: 0,
            encode_ns: 0,
            reduce_ns: 0,
        };
    }
    if opts.reduce && !opts.reference_solver {
        segment_reduced(obs, opts)
    } else {
        segment_whole(obs, opts)
    }
}

/// Solves every component (work-stealing over scoped threads when
/// `threads != 1`), returning results in component order. `solve_one`
/// must be a pure function of `(index, component)`, so scheduling never
/// shows in the output.
fn solve_components(
    components: &[Component],
    threads: usize,
    solve_one: impl Fn(usize, &Component) -> WsatResult + Sync,
) -> Vec<WsatResult> {
    let workers = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(components.len());
    if workers <= 1 {
        return components
            .iter()
            .enumerate()
            .map(|(i, c)| solve_one(i, c))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, WsatResult)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let solve_one = &solve_one;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(c) = components.get(i) else { break };
                if tx.send((i, solve_one(i, c))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<WsatResult>> = components.iter().map(|_| None).collect();
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every component produced a result"))
        .collect()
}

/// The reduced ladder: reduce → solve components → (BnB per failed
/// component) → relax → reduce → warm-started components.
fn segment_reduced(obs: &Observations, opts: &CspOptions) -> CspOutcome {
    let mut stats = SolveStats::default();

    // Rung 1: strict problem, reduced.
    let t = Instant::now();
    let mut enc = encode(
        obs,
        &EncodeOptions {
            position_constraints: opts.position_constraints,
        },
    );
    stats.encode_ns += t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let red = reduce_model(&enc.model);
    stats.reduce_ns += t.elapsed().as_nanos() as u64;
    stats.components += red.components.len();
    stats.pruned_vars += red.pruned_vars();

    let (strict_best, strict_solved) = if red.infeasible {
        // Propagation *proved* the strict problem unsatisfiable; the
        // completed partial assignment is the violation witness.
        (red.completed(), false)
    } else {
        let results = solve_components(&red.components, opts.wsat.threads, |_, comp| {
            // Components run on the outer pool; inner restarts stay
            // sequential (WSAT results are thread-invariant anyway).
            let cfg = WsatConfig {
                threads: 1,
                ..opts.wsat
            };
            solve(&comp.model, &cfg)
        });
        let mut all_ok = true;
        let mut parts: Vec<Vec<bool>> = Vec::with_capacity(results.len());
        for (comp, r) in red.components.iter().zip(results) {
            stats.flips += r.flips;
            stats.tries += r.tries;
            if r.feasible {
                parts.push(r.assignment);
            } else if comp.model.num_vars <= opts.bnb_var_cap {
                // Exact cross-check, now per component: decomposition
                // keeps these small enough for BnB far more often than
                // the whole instance was.
                match solve_bnb(&comp.model, opts.bnb_budget) {
                    BnbOutcome::Optimal { assignment, .. } => parts.push(assignment),
                    BnbOutcome::Infeasible | BnbOutcome::Unknown => {
                        all_ok = false;
                        parts.push(r.assignment);
                    }
                }
            } else {
                all_ok = false;
                parts.push(r.assignment);
            }
        }
        (red.stitch(&parts), all_ok)
    };
    if strict_solved {
        debug_assert!(enc.model.feasible(&strict_best));
        return CspOutcome {
            segmentation: decode(&enc, &strict_best, obs),
            status: CspStatus::Solved,
            strict_violation: 0,
            flips: stats.flips,
            tries: stats.tries,
            components: stats.components,
            pruned_vars: stats.pruned_vars,
            warm_start_hits: stats.warm_start_hits,
            encode_ns: stats.encode_ns,
            reduce_ns: stats.reduce_ns,
        };
    }
    let strict_violation = enc.model.total_violation(&strict_best);

    // Rung 2: relaxed optimization, reduced and warm-started. Relaxing
    // keeps the variable layout, so the strict rung's best assignment
    // maps var-for-var onto the relaxed model — the warm seed below.
    let t = Instant::now();
    enc.relax();
    stats.encode_ns += t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let red = reduce_model(&enc.model);
    stats.reduce_ns += t.elapsed().as_nanos() as u64;
    stats.components += red.components.len();
    stats.pruned_vars += red.pruned_vars();
    if red.infeasible {
        return CspOutcome {
            segmentation: Segmentation::unassigned(obs.num_records, obs.items.len()),
            status: CspStatus::Failed,
            strict_violation,
            flips: stats.flips,
            tries: stats.tries,
            components: stats.components,
            pruned_vars: stats.pruned_vars,
            warm_start_hits: stats.warm_start_hits,
            encode_ns: stats.encode_ns,
            reduce_ns: stats.reduce_ns,
        };
    }
    let results = solve_components(&red.components, opts.wsat.threads, |_, comp| {
        // Exact first: decomposition keeps most relaxed components down to
        // a handful of variables, where branch-and-bound proves the true
        // per-component optimum in microseconds. That optimum becomes the
        // portfolio's objective target: the search used to chase the
        // extract-count upper bound — often unreachable on dirty pages —
        // and so burned its full stall budget per try; against a *proven*
        // target the warm try exits the moment it matches the optimum.
        // The node budget is deliberately small: a component whose search
        // tree is not tiny falls back to the upper-bound target instead of
        // paying for an exponential proof.
        let exact = if comp.model.num_vars <= opts.bnb_var_cap {
            match solve_bnb(&comp.model, opts.bnb_budget.min(BNB_FIRST_BUDGET)) {
                BnbOutcome::Optimal {
                    assignment,
                    objective,
                } => Some((assignment, objective)),
                BnbOutcome::Infeasible | BnbOutcome::Unknown => None,
            }
        } else {
            None
        };
        // Warm seed: the strict rung's best assignment restricted to this
        // component. Objective target: the proven optimum where BnB
        // finished, else the relaxation's per-component upper bound —
        // each extract with a variable here can contribute at most one
        // assignment (its uniqueness constraint lives in this component
        // too).
        let warm: Vec<Vec<bool>> = vec![comp.vars.iter().map(|&v| strict_best[v]).collect()];
        let mut extracts: Vec<usize> = comp.vars.iter().map(|&v| enc.vars[v].0).collect();
        extracts.dedup();
        let target = match &exact {
            Some((_, objective)) => *objective,
            None => extracts.len() as i64,
        };
        let cfg = WsatConfig {
            threads: 1,
            objective_target: Some(target),
            ..opts.wsat
        };
        let result = solve_warm(&comp.model, &cfg, &warm);
        // The stochastic pick wins ties (its seeds carry the strict rung's
        // structure); the exact assignment steps in only when the
        // portfolio provably fell short of the optimum.
        match exact {
            Some((assignment, objective)) if !result.feasible || result.objective < objective => {
                WsatResult {
                    feasible: true,
                    violation: 0,
                    objective,
                    flips: result.flips,
                    tries: result.tries,
                    warm_start_hit: false,
                    assignment,
                }
            }
            _ => result,
        }
    });
    let mut feasible = true;
    let mut parts: Vec<Vec<bool>> = Vec::with_capacity(results.len());
    for r in results {
        stats.flips += r.flips;
        stats.tries += r.tries;
        stats.warm_start_hits += u64::from(r.warm_start_hit);
        feasible &= r.feasible;
        parts.push(r.assignment);
    }
    if !feasible {
        return CspOutcome {
            segmentation: Segmentation::unassigned(obs.num_records, obs.items.len()),
            status: CspStatus::Failed,
            strict_violation,
            flips: stats.flips,
            tries: stats.tries,
            components: stats.components,
            pruned_vars: stats.pruned_vars,
            warm_start_hits: stats.warm_start_hits,
            encode_ns: stats.encode_ns,
            reduce_ns: stats.reduce_ns,
        };
    }
    let stitched = red.stitch(&parts);
    CspOutcome {
        segmentation: decode(&enc, &stitched, obs),
        status: CspStatus::SolvedRelaxed,
        strict_violation,
        flips: stats.flips,
        tries: stats.tries,
        components: stats.components,
        pruned_vars: stats.pruned_vars,
        warm_start_hits: stats.warm_start_hits,
        encode_ns: stats.encode_ns,
        reduce_ns: stats.reduce_ns,
    }
}

/// The pre-reduction whole-instance ladder, kept as the differential
/// oracle (and the `reference_solver` path).
fn segment_whole(obs: &Observations, opts: &CspOptions) -> CspOutcome {
    let solver: fn(&Model, &WsatConfig) -> WsatResult = if opts.reference_solver {
        solve_reference
    } else {
        solve
    };

    // Step 1: strict problem via stochastic search.
    let t = Instant::now();
    let mut enc = encode(
        obs,
        &EncodeOptions {
            position_constraints: opts.position_constraints,
        },
    );
    let mut encode_ns = t.elapsed().as_nanos() as u64;
    let strict = solver(&enc.model, &opts.wsat);
    if strict.feasible {
        return CspOutcome {
            segmentation: decode(&enc, &strict.assignment, obs),
            status: CspStatus::Solved,
            strict_violation: 0,
            flips: strict.flips,
            tries: strict.tries,
            components: 0,
            pruned_vars: 0,
            warm_start_hits: 0,
            encode_ns,
            reduce_ns: 0,
        };
    }

    // Step 2: exact cross-check (skipped for oversized encodings).
    let strict_bnb = if enc.model.num_vars <= opts.bnb_var_cap {
        solve_bnb(&enc.model, opts.bnb_budget)
    } else {
        BnbOutcome::Unknown
    };
    match strict_bnb {
        BnbOutcome::Optimal { assignment, .. } => {
            return CspOutcome {
                segmentation: decode(&enc, &assignment, obs),
                status: CspStatus::Solved,
                strict_violation: 0,
                flips: strict.flips,
                tries: strict.tries,
                components: 0,
                pruned_vars: 0,
                warm_start_hits: 0,
                encode_ns,
                reduce_ns: 0,
            };
        }
        BnbOutcome::Infeasible | BnbOutcome::Unknown => {}
    }

    // Step 3: relaxed optimization.
    let t = Instant::now();
    enc.relax();
    encode_ns += t.elapsed().as_nanos() as u64;
    // The relaxed problem is solved by stochastic search alone, exactly as
    // the paper did with WSAT(OIP): the resulting partial assignment is a
    // good local optimum but not necessarily the global maximum — which is
    // precisely why the paper's relaxed solutions on dirty sites were
    // partial ("not every extract was assigned to a record", Section 6.3).
    // The relaxation itself yields an objective upper bound (one record
    // per extract), letting the search stop as soon as every extract is
    // assigned rather than burning the remaining restart budget.
    let relaxed_cfg = WsatConfig {
        objective_target: enc.objective_upper_bound(),
        ..opts.wsat
    };
    let relaxed = solver(&enc.model, &relaxed_cfg);
    let flips = strict.flips + relaxed.flips;
    let tries = strict.tries + relaxed.tries;
    if !relaxed.feasible {
        return CspOutcome {
            segmentation: Segmentation::unassigned(obs.num_records, obs.items.len()),
            status: CspStatus::Failed,
            strict_violation: strict.violation,
            flips,
            tries,
            components: 0,
            pruned_vars: 0,
            warm_start_hits: 0,
            encode_ns,
            reduce_ns: 0,
        };
    }
    let best_assignment = relaxed.assignment;

    CspOutcome {
        segmentation: decode(&enc, &best_assignment, obs),
        status: CspStatus::SolvedRelaxed,
        strict_violation: strict.violation,
        flips,
        tries,
        components: 0,
        pruned_vars: 0,
        warm_start_hits: 0,
        encode_ns,
        reduce_ns: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_extract::build_observations;
    use tableseg_html::{lexer::tokenize, Token};

    fn segment(list: &str, details: &[&str]) -> (Observations, CspOutcome) {
        let list_toks = tokenize(list);
        let detail_toks: Vec<Vec<tableseg_html::Token>> =
            details.iter().map(|d| tokenize(d)).collect();
        let refs: Vec<&[Token]> = detail_toks.iter().map(Vec::as_slice).collect();
        let obs = build_observations(&list_toks, &[], &refs);
        let out = segment_csp(&obs, &CspOptions::default());
        (obs, out)
    }

    #[test]
    fn clean_data_solved_exactly() {
        let (obs, out) = segment(
            "<td>Alpha One</td><td>100 Main</td><td>Beta Two</td><td>200 Oak</td><td>Gamma Three</td><td>300 Pine</td>",
            &[
                "<p>Alpha One</p><p>100 Main</p>",
                "<p>Beta Two</p><p>200 Oak</p>",
                "<p>Gamma Three</p><p>300 Pine</p>",
            ],
        );
        assert_eq!(out.status, CspStatus::Solved);
        assert!(out.segmentation.is_total());
        assert!(out.segmentation.check(&obs).is_empty());
        assert_eq!(
            out.segmentation.assignments,
            vec![Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)]
        );
    }

    #[test]
    fn paper_superpages_example() {
        let obs = crate::encoder::tests::superpages_obs();
        let out = segment_csp(&obs, &CspOptions::default());
        assert_eq!(out.status, CspStatus::Solved, "{out:?}");
        let seg = &out.segmentation;
        assert!(seg.check(&obs).is_empty());
        // The paper's Table 2: E1-E4 → r1, E5-E8 → r2, E9-E11 → r3.
        let expected: Vec<Option<u32>> = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
            .into_iter()
            .map(Some)
            .collect();
        assert_eq!(seg.assignments, expected);
    }

    #[test]
    fn clean_sites_are_solved_by_propagation_alone() {
        // The tentpole claim of the reduction pass: on consistent data the
        // uniqueness singletons cascade until everything is forced — no
        // stochastic search, zero flips.
        let obs = crate::encoder::tests::superpages_obs();
        let out = segment_csp(&obs, &CspOptions::default());
        assert_eq!(out.status, CspStatus::Solved);
        assert_eq!(out.flips, 0, "{out:?}");
        assert_eq!(out.components, 0);
        assert!(out.pruned_vars > 0);
    }

    #[test]
    fn inconsistent_data_relaxes_to_partial() {
        // "Parole"/"Parolee" style inconsistency: the list value of record
        // 2 appears on an unrelated detail page (r1) but not on its own, so
        // the strict constraints are unsatisfiable for it.
        let (obs, out) = segment(
            "<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>",
            &[
                "<p>Alpha One</p><p>Parole</p>",
                "<p>Beta Two</p><p>Parolee</p>",
            ],
        );
        // Both "Parole" extracts can only be on r1 — but they flank "Beta
        // Two" (r2 only) so consecutiveness + uniqueness conflict with the
        // position constraint (both at the same r1 position).
        assert_eq!(out.status, CspStatus::SolvedRelaxed, "{out:?}");
        assert!(!out.segmentation.is_total());
        assert!(out.segmentation.assigned_count() >= 2, "{out:?}");
        assert!(out.strict_violation > 0);
        let _ = obs;
    }

    #[test]
    fn reduced_path_agrees_with_whole_instance_oracle() {
        // The differential gate of the PR 9 tentpole: on every fixture the
        // reduced/decomposed/warm-started ladder must reach the same status
        // as the whole-instance ladder, with a valid segmentation.
        let fixtures: Vec<Observations> = vec![crate::encoder::tests::superpages_obs(), {
            let list =
                tokenize("<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>");
            let d1 = tokenize("<p>Alpha One</p><p>Parole</p>");
            let d2 = tokenize("<p>Beta Two</p><p>Parolee</p>");
            let refs: Vec<&[Token]> = vec![&d1, &d2];
            build_observations(&list, &[], &refs)
        }];
        for obs in &fixtures {
            let reduced = segment_csp(obs, &CspOptions::default());
            let whole = segment_csp(
                obs,
                &CspOptions {
                    reduce: false,
                    ..CspOptions::default()
                },
            );
            assert_eq!(reduced.status, whole.status);
            assert_eq!(reduced.strict_violation > 0, whole.strict_violation > 0);
            for (i, &a) in reduced.segmentation.assignments.iter().enumerate() {
                if let Some(r) = a {
                    assert!(obs.items[i].on_page(r));
                }
            }
            if reduced.status == CspStatus::Solved {
                assert_eq!(reduced.segmentation, whole.segmentation);
            }
        }
    }

    #[test]
    fn component_parallelism_is_deterministic() {
        let (_, base) = segment(
            "<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>",
            &[
                "<p>Alpha One</p><p>Parole</p>",
                "<p>Beta Two</p><p>Parolee</p>",
            ],
        );
        let list = tokenize("<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>");
        let d1 = tokenize("<p>Alpha One</p><p>Parole</p>");
        let d2 = tokenize("<p>Beta Two</p><p>Parolee</p>");
        let refs: Vec<&[Token]> = vec![&d1, &d2];
        let obs = build_observations(&list, &[], &refs);
        for threads in [2, 4, 0] {
            let mut opts = CspOptions::default();
            opts.wsat.threads = threads;
            let out = segment_csp(&obs, &opts);
            assert_eq!(out.segmentation, base.segmentation, "threads={threads}");
            assert_eq!(out.status, base.status);
            assert_eq!(out.flips, base.flips);
            assert_eq!(out.warm_start_hits, base.warm_start_hits);
        }
    }

    #[test]
    fn empty_observation_table() {
        let obs = build_observations(&[], &[], &[]);
        let out = segment_csp(&obs, &CspOptions::default());
        assert_eq!(out.status, CspStatus::Solved);
        assert!(out.segmentation.assignments.is_empty());
    }

    #[test]
    fn deterministic() {
        let obs = crate::encoder::tests::superpages_obs();
        let a = segment_csp(&obs, &CspOptions::default());
        let b = segment_csp(&obs, &CspOptions::default());
        assert_eq!(a.segmentation, b.segmentation);
        assert_eq!(a.status, b.status);
    }

    #[test]
    fn position_constraints_matter_for_shared_values() {
        // Without position constraints, both "John Smith" extracts could
        // legally go to the same record set {r1} ∪ {r2} in several ways;
        // with them, the paper's intended split is forced. Here we only
        // check both modes produce valid (occurrence-respecting) results.
        let obs = crate::encoder::tests::superpages_obs();
        for pc in [true, false] {
            let out = segment_csp(
                &obs,
                &CspOptions {
                    position_constraints: pc,
                    ..CspOptions::default()
                },
            );
            assert_ne!(out.status, CspStatus::Failed);
            for (i, &a) in out.segmentation.assignments.iter().enumerate() {
                if let Some(r) = a {
                    assert!(obs.items[i].on_page(r));
                }
            }
        }
    }
}
