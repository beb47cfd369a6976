//! The full CSP segmentation pipeline with the paper's relaxation ladder.
//!
//! "The CSP algorithm could not find an assignment of the variables that
//! satisfied all the constraints. ... In such cases we relaxed the
//! constraints, for example, by requiring that an extract appear on at most
//! one detail page. WSAT(OIP) was able to find solutions for the relaxed
//! constraint problem, but the solution corresponded to a partial
//! assignment." (Section 6.3)
//!
//! The paper's local search could only fail to find a strict solution;
//! this ladder answers both of its questions exactly, with encode →
//! [`reduce_model`] → [`branch_and_bound`] per component:
//!
//! 1. encode with hard equalities and reduce the encoding (propagation +
//!    decomposition — on clean sites this alone solves the instance).
//!    The branch-and-bound searches each remaining component for a
//!    feasible assignment; the strict model has no objective, so it stops
//!    at the first feasible leaf. A component it proves infeasible, or
//!    that runs out of budget, sends the page down a rung and contributes
//!    the all-false assignment to the strict rung's best assignment;
//! 2. relax the same encoding in place
//!    ([`Encoding::relax`](crate::Encoding::relax): equalities become
//!    `≤`), reduce again through the strict encoding's occurrence index
//!    (relaxing changes no row's terms), and prove each component's
//!    optimum. Relaxing keeps the variable layout, so the strict rung's
//!    best assignment projects onto each component as a warm seed: every
//!    variable is branched first on its seed value, and the first optimum
//!    found is kept, so ties go to the optimum nearest the seed. A
//!    component that runs out of budget keeps the search's incumbent, or
//!    else the seed where the seed satisfies it; otherwise the page
//!    fails.
//!
//! One node budget, [`CspOptions::bnb_budget`], bounds every
//! branch-and-bound call of both rungs; the calls it cuts short are
//! counted in [`CspOutcome::exhausted_components`]. Every step is
//! deterministic. The exact branch-and-bound over the whole strict
//! encoding ([`solve_bnb`](crate::exact::solve_bnb)) is the differential
//! oracle for this ladder in tests.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use tableseg_extract::{Observations, Segmentation};

use crate::encoder::{encode, EncodeOptions};
use crate::exact::{branch_and_bound, BnbOutcome};
use crate::model::{Model, Occurrences};
use crate::reduce::{reduce_model, Component, Reduction};
use crate::solution::decode;

/// Options for [`segment_csp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CspOptions {
    /// Include the Section 4.2 position constraints.
    pub position_constraints: bool,
    /// Node budget of each branch-and-bound call, on either rung. A call
    /// that runs out counts as `Unknown`.
    pub bnb_budget: u64,
}

impl Default for CspOptions {
    fn default() -> CspOptions {
        CspOptions {
            position_constraints: true,
            bnb_budget: 50_000,
        }
    }
}

/// How the segmentation was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CspStatus {
    /// All hard constraints satisfied (the paper's clean-data case).
    Solved,
    /// The hard problem was proven unsatisfiable (or a component ran out
    /// of budget); the relaxed problem produced a partial assignment —
    /// the paper's notes `c` and `d` in Table 4.
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
    /// inconsistent the site data is. Each row counts its distance to
    /// feasibility, so a consecutiveness at-most-one row with `m` of its
    /// variables set counts `m − 1`.
    pub strict_violation: i64,
    /// Total branch-and-bound nodes explored across both rungs.
    pub bnb_nodes: u64,
    /// Constraint-graph components solved independently, summed over the
    /// strict and relaxed phases (0 when propagation solved everything).
    pub components: usize,
    /// Variables removed from the search space by reduction (forced by
    /// propagation + assigned free), summed over phases.
    pub pruned_vars: usize,
    /// Components whose branch-and-bound ran out of
    /// [`CspOptions::bnb_budget`], summed over the strict and relaxed
    /// phases.
    pub exhausted_components: usize,
    /// Wall-clock nanoseconds spent building the encoding and its
    /// occurrence index and deriving its relaxation — the `solve.encode`
    /// timing sub-stage.
    pub encode_ns: u64,
    /// Wall-clock nanoseconds spent in [`reduce_model`] — the
    /// `solve.reduce` timing sub-stage.
    pub reduce_ns: u64,
}

/// Running totals across the two rungs of the ladder.
#[derive(Default)]
struct SolveStats {
    bnb_nodes: u64,
    components: usize,
    pruned_vars: usize,
    exhausted_components: usize,
    encode_ns: u64,
    reduce_ns: u64,
}

impl SolveStats {
    /// [`reduce_model`], timed and counted.
    fn reduce(&mut self, model: &Model, occ: &Occurrences) -> Reduction {
        let t = Instant::now();
        let red = reduce_model(model, occ);
        self.reduce_ns += t.elapsed().as_nanos() as u64;
        self.components += red.components.len();
        self.pruned_vars += red.pruned_vars();
        red
    }

    /// [`branch_and_bound`] on one component, counted.
    fn search(&mut self, comp: &Component, budget: u64, warm: Option<&[bool]>) -> BnbOutcome {
        let (outcome, nodes) = branch_and_bound(&comp.model, &comp.occurrences, budget, warm);
        self.bnb_nodes += nodes;
        if matches!(outcome, BnbOutcome::Unknown { .. }) {
            self.exhausted_components += 1;
        }
        outcome
    }

    fn finish(
        self,
        segmentation: Segmentation,
        status: CspStatus,
        strict_violation: i64,
    ) -> CspOutcome {
        CspOutcome {
            segmentation,
            status,
            strict_violation,
            bnb_nodes: self.bnb_nodes,
            components: self.components,
            pruned_vars: self.pruned_vars,
            exhausted_components: self.exhausted_components,
            encode_ns: self.encode_ns,
            reduce_ns: self.reduce_ns,
        }
    }
}

/// Runs the CSP approach of Section 4 on an observation table: reduce →
/// branch-and-bound per component → (if any is infeasible) relax →
/// reduce → warm-seeded branch-and-bound per component.
pub fn segment_csp(obs: &Observations, opts: &CspOptions) -> CspOutcome {
    let mut stats = SolveStats::default();
    if obs.items.is_empty() {
        return stats.finish(
            Segmentation::unassigned(obs.num_records, 0),
            CspStatus::Solved,
            0,
        );
    }

    // Rung 1: strict problem, reduced.
    let t = Instant::now();
    let mut enc = encode(
        obs,
        &EncodeOptions {
            position_constraints: opts.position_constraints,
        },
    );
    // Relaxing keeps every row's terms, so one index serves both rungs.
    let occ = Occurrences::new(&enc.model);
    stats.encode_ns += t.elapsed().as_nanos() as u64;
    let red = stats.reduce(&enc.model, &occ);

    let (strict_best, strict_solved) = if red.infeasible {
        // Propagation *proved* the strict problem unsatisfiable; the
        // completed partial assignment is the violation witness.
        (red.completed(), false)
    } else {
        let mut all_ok = true;
        let mut parts: Vec<Vec<bool>> = Vec::with_capacity(red.components.len());
        for comp in &red.components {
            let outcome = stats.search(comp, opts.bnb_budget, None);
            parts.push(outcome.into_assignment().unwrap_or_else(|| {
                all_ok = false;
                vec![false; comp.vars.len()]
            }));
        }
        (red.stitch(&parts), all_ok)
    };
    if strict_solved {
        debug_assert!(enc.model.feasible(&strict_best));
        return stats.finish(decode(&enc, &strict_best, obs), CspStatus::Solved, 0);
    }
    let strict_violation = enc.model.total_violation(&strict_best);
    let failed = |stats: SolveStats| {
        stats.finish(
            Segmentation::unassigned(obs.num_records, obs.items.len()),
            CspStatus::Failed,
            strict_violation,
        )
    };

    // Rung 2: relaxed optimization, reduced and warm-seeded. Relaxing
    // keeps the variable layout, so the strict rung's best assignment
    // maps var-for-var onto the relaxed model.
    let t = Instant::now();
    enc.relax();
    stats.encode_ns += t.elapsed().as_nanos() as u64;
    let red = stats.reduce(&enc.model, &occ);
    if red.infeasible {
        return failed(stats);
    }
    let mut parts: Vec<Vec<bool>> = Vec::with_capacity(red.components.len());
    for comp in &red.components {
        let seed: Vec<bool> = comp.vars.iter().map(|&v| strict_best[v]).collect();
        let outcome = stats.search(comp, opts.bnb_budget, Some(&seed));
        match outcome.into_assignment() {
            Some(assignment) => parts.push(assignment),
            None if comp.model.feasible(&seed) => parts.push(seed),
            None => return failed(stats),
        }
    }
    let stitched = red.stitch(&parts);
    stats.finish(
        decode(&enc, &stitched, obs),
        CspStatus::SolvedRelaxed,
        strict_violation,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tableseg_extract::build_observations;

    fn observations(list: &str, details: &[&str]) -> Observations {
        build_observations(list, &[], details)
    }

    fn segment(list: &str, details: &[&str]) -> (Observations, CspOutcome) {
        let obs = observations(list, details);
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
        // The claim of the reduction pass: on consistent data the
        // uniqueness singletons cascade until everything is forced — no
        // search, zero branch-and-bound nodes.
        let obs = crate::encoder::tests::superpages_obs();
        let out = segment_csp(&obs, &CspOptions::default());
        assert_eq!(out.status, CspStatus::Solved);
        assert_eq!(out.bnb_nodes, 0, "{out:?}");
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
        // The differential gate for the reduced/decomposed/warm-started
        // ladder: exact branch-and-bound over the whole strict encoding
        // decides satisfiability, and `Solved` must match it exactly.
        let fixtures: Vec<Observations> = vec![
            crate::encoder::tests::superpages_obs(),
            observations(
                "<td>Alpha One</td><td>100 Main</td><td>Beta Two</td><td>200 Oak</td>",
                &[
                    "<p>Alpha One</p><p>100 Main</p>",
                    "<p>Beta Two</p><p>200 Oak</p>",
                ],
            ),
            observations(
                "<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>",
                &[
                    "<p>Alpha One</p><p>Parole</p>",
                    "<p>Beta Two</p><p>Parolee</p>",
                ],
            ),
        ];
        for obs in &fixtures {
            let out = segment_csp(obs, &CspOptions::default());
            let enc = encode(obs, &EncodeOptions::default());
            let oracle = crate::exact::solve_bnb(&enc.model, CspOptions::default().bnb_budget);
            assert!(!matches!(oracle, BnbOutcome::Unknown { .. }), "{obs:?}");
            assert_eq!(
                out.status == CspStatus::Solved,
                matches!(oracle, BnbOutcome::Optimal { .. }),
                "{out:?}"
            );
            for (i, &a) in out.segmentation.assignments.iter().enumerate() {
                if let Some(r) = a {
                    assert!(obs.items[i].on_page(r));
                }
            }
            if out.status == CspStatus::Solved {
                let mut assignment = vec![false; enc.model.num_vars];
                for (i, &a) in out.segmentation.assignments.iter().enumerate() {
                    let r = a.expect("a strict solution assigns every extract");
                    assignment[enc.var(i, r).expect("assigned records are candidates")] = true;
                }
                assert!(enc.model.feasible(&assignment), "{out:?}");
            }
        }
    }

    #[test]
    fn ambiguous_clean_page_is_solved_by_the_strict_search() {
        // Without the position constraints the two "John Smith" and the
        // two phone extracts of the paper's example may each go to r1 or
        // r2, so propagation leaves a strict component; the
        // branch-and-bound stops at its first feasible leaf.
        let obs = crate::encoder::tests::superpages_obs();
        let out = segment_csp(
            &obs,
            &CspOptions {
                position_constraints: false,
                ..CspOptions::default()
            },
        );
        assert_eq!(out.status, CspStatus::Solved, "{out:?}");
        assert!(out.components > 0, "{out:?}");
        assert!(out.bnb_nodes > 0, "{out:?}");
        assert!(out.segmentation.is_total());
        assert!(out.segmentation.check(&obs).is_empty());
    }

    #[test]
    fn every_budget_yields_a_feasible_relaxed_assignment_or_fails() {
        // From no node at all up to a full proof, a relaxed component
        // keeps the optimum, the incumbent or a feasible seed, or the
        // page fails — never an assignment that breaks a relaxed row.
        let obs = observations(
            "<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>",
            &[
                "<p>Alpha One</p><p>Parole</p>",
                "<p>Beta Two</p><p>Parolee</p>",
            ],
        );
        let mut enc = encode(&obs, &EncodeOptions::default());
        enc.relax();
        let full = segment_csp(&obs, &CspOptions::default());
        for bnb_budget in 0..=full.bnb_nodes {
            let out = segment_csp(
                &obs,
                &CspOptions {
                    bnb_budget,
                    ..CspOptions::default()
                },
            );
            assert!(out.bnb_nodes <= full.bnb_nodes, "budget {bnb_budget}");
            if out.status == CspStatus::Failed {
                continue;
            }
            assert_eq!(out.status, CspStatus::SolvedRelaxed);
            let mut assignment = vec![false; enc.model.num_vars];
            for (i, &a) in out.segmentation.assignments.iter().enumerate() {
                if let Some(r) = a {
                    assignment[enc.var(i, r).expect("assigned records are candidates")] = true;
                }
            }
            assert!(enc.model.feasible(&assignment), "budget {bnb_budget}");
        }
        assert_eq!(full.status, CspStatus::SolvedRelaxed);
    }

    #[test]
    fn budget_exhaustion_is_counted_per_component() {
        // A full budget proves every component; no budget cuts short
        // every search that gets past the root bounds.
        let obs = observations(
            "<td>Alpha One</td><td>Parole</td><td>Beta Two</td><td>Parole</td>",
            &[
                "<p>Alpha One</p><p>Parole</p>",
                "<p>Beta Two</p><p>Parolee</p>",
            ],
        );
        let full = segment_csp(&obs, &CspOptions::default());
        assert!(full.components > 0, "{full:?}");
        assert_eq!(full.exhausted_components, 0);
        let none = segment_csp(
            &obs,
            &CspOptions {
                bnb_budget: 0,
                ..CspOptions::default()
            },
        );
        assert_eq!(none.exhausted_components, none.components, "{none:?}");
    }

    #[test]
    fn empty_observation_table() {
        let obs = build_observations("", &[], &[]);
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
