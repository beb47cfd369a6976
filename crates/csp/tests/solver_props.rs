//! Property tests cross-checking the stochastic WSAT(OIP) solver against
//! the exact branch-and-bound, validating the ordered DP's invariants,
//! and checking the encoder against its oracle.

use std::collections::HashMap;

use proptest::prelude::*;

use tableseg_csp::exact::{solve_bnb, solve_ordered, BnbOutcome};
use tableseg_csp::model::{Constraint, Model, Relation, Term};
use tableseg_csp::wsat::{solve, WsatConfig};
use tableseg_csp::{encode, reduce_model, EncodeOptions};
use tableseg_extract::positions::position_groups;
use tableseg_extract::{Extract, ObsItem, Observations, PagePos};

/// One constraint row as the encoder oracle emits it.
type Row = (Vec<Term>, Relation, i32);

/// The encoder oracle: the direct construction of Sections 4.1–4.2, with
/// a hash map from `(i, j)` to variables and, for every candidate pair, a
/// scan of the extracts between them. Returns the variable layout, the
/// rows and the objective of the strict (or relaxed) model.
fn oracle_encode(
    obs: &Observations,
    relaxed: bool,
    position_constraints: bool,
) -> (Vec<(usize, u32)>, Vec<Row>, Vec<Term>) {
    let mut vars = Vec::new();
    let mut var_of = HashMap::new();
    for (i, item) in obs.items.iter().enumerate() {
        for &j in &item.pages {
            var_of.insert((i, j), vars.len());
            vars.push((i, j));
        }
    }
    let unit = |vs: Vec<usize>| vs.into_iter().map(|var| Term { var, coef: 1 }).collect();
    let eq = if relaxed { Relation::Le } else { Relation::Eq };
    let mut rows: Vec<Row> = Vec::new();
    for (i, item) in obs.items.iter().enumerate() {
        rows.push((
            unit(item.pages.iter().map(|&j| var_of[&(i, j)]).collect()),
            eq,
            1,
        ));
    }
    for j in 0..obs.num_records as u32 {
        let members: Vec<usize> = (0..obs.items.len())
            .filter(|&i| obs.items[i].on_page(j))
            .collect();
        for (a, &k) in members.iter().enumerate() {
            for &i in &members[a + 1..] {
                if (k + 1..i).any(|n| !obs.items[n].on_page(j)) {
                    rows.push((
                        unit(vec![var_of[&(k, j)], var_of[&(i, j)]]),
                        Relation::Le,
                        1,
                    ));
                } else {
                    for n in k + 1..i {
                        let terms = vec![
                            Term {
                                var: var_of[&(k, j)],
                                coef: 1,
                            },
                            Term {
                                var: var_of[&(i, j)],
                                coef: 1,
                            },
                            Term {
                                var: var_of[&(n, j)],
                                coef: -1,
                            },
                        ];
                        rows.push((terms, Relation::Le, 1));
                    }
                }
            }
        }
    }
    if position_constraints {
        for group in position_groups(obs) {
            let vs = group
                .extracts
                .iter()
                .map(|&i| var_of[&(i, group.page)])
                .collect();
            rows.push((unit(vs), eq, 1));
        }
    }
    let objective = if relaxed {
        unit((0..vars.len()).collect())
    } else {
        Vec::new()
    };
    (vars, rows, objective)
}

/// Asserts that `encode` (strict) and `encode` + `relax` (relaxed) match
/// the oracle row for row.
fn assert_encoder_matches_oracle(obs: &Observations, position_constraints: bool) {
    let mut enc = encode(
        obs,
        &EncodeOptions {
            position_constraints,
        },
    );
    for relaxed in [false, true] {
        if relaxed {
            enc.relax();
        }
        let (vars, rows, objective) = oracle_encode(obs, relaxed, position_constraints);
        assert_eq!(enc.vars, vars, "relaxed={relaxed}");
        assert_eq!(enc.model.num_vars, vars.len());
        let got: Vec<Row> = enc
            .model
            .constraints
            .iter()
            .map(|c| (c.terms.clone(), c.rel, c.rhs))
            .collect();
        assert_eq!(got.len(), rows.len(), "relaxed={relaxed}");
        for (r, (g, o)) in got.iter().zip(&rows).enumerate() {
            assert_eq!(g, o, "row {r}, relaxed={relaxed}");
        }
        assert_eq!(enc.model.objective, objective, "relaxed={relaxed}");
    }
}

/// A random observation table: `D_i` drawn per extract, and one or two
/// observed positions per candidate page from a narrow range, so that
/// position groups form often.
fn arb_observations() -> impl Strategy<Value = Observations> {
    (1usize..6).prop_flat_map(|records| {
        let item = (
            proptest::collection::btree_set(0..records as u32, 0..=records),
            proptest::collection::vec(0u32..3, 2),
        );
        proptest::collection::vec(item, 0..14).prop_map(move |items| Observations {
            num_records: records,
            items: items
                .into_iter()
                .enumerate()
                .map(|(index, (pages, pos))| {
                    let pages: Vec<u32> = pages.into_iter().collect();
                    let positions = pages
                        .iter()
                        .enumerate()
                        .flat_map(|(k, &page)| {
                            let first = PagePos { page, pos: pos[0] };
                            let second = PagePos {
                                page,
                                pos: pos[1] + 3,
                            };
                            std::iter::once(first).chain((k % 2 == 1).then_some(second))
                        })
                        .collect();
                    let extract = Extract {
                        index,
                        tokens: Vec::new(),
                        start: index,
                    };
                    ObsItem::new(extract, pages, positions)
                })
                .collect(),
            skipped: Vec::new(),
        })
    })
}

/// The encoder matches its oracle on every list page of the twelve
/// simulated paper sites.
#[test]
fn encoder_matches_oracle_on_paper_pages() {
    let mut pages = 0;
    for spec in tableseg_sitegen::paper_sites::all() {
        let site = tableseg_sitegen::site::generate(&spec);
        let template = tableseg::SiteTemplate::build(&site.list_htmls());
        for (page, generated) in site.pages.iter().enumerate() {
            let details: Vec<&str> = generated.detail_html.iter().map(String::as_str).collect();
            let obs = tableseg::prepare_with_template(&template, page, &details).observations;
            for position_constraints in [true, false] {
                assert_encoder_matches_oracle(&obs, position_constraints);
            }
            pages += 1;
        }
    }
    assert_eq!(pages, 24);
}

/// A random small pseudo-boolean model.
fn arb_model() -> impl Strategy<Value = Model> {
    let num_vars = 2usize..8;
    num_vars.prop_flat_map(|n| {
        let constraint = (
            proptest::collection::vec(0..n, 1..=n.min(4)),
            prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)],
            0i32..3,
        );
        proptest::collection::vec(constraint, 0..6).prop_map(move |cs| {
            let mut m = Model::new(n);
            for (mut vars, rel, rhs) in cs {
                vars.sort_unstable();
                vars.dedup();
                m.add(Constraint::sum(vars, rel, rhs));
            }
            m
        })
    })
}

/// A random small model with non-unit (including negative) coefficients —
/// the shape the encoder's consecutiveness triples take.
fn arb_weighted_model() -> impl Strategy<Value = Model> {
    let num_vars = 2usize..7;
    num_vars.prop_flat_map(|n| {
        let term = (0..n, prop_oneof![Just(-2i32), Just(-1), Just(1), Just(2)]);
        let constraint = (
            proptest::collection::vec(term, 1..=n.min(4)),
            prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)],
            -2i32..4,
        );
        proptest::collection::vec(constraint, 0..5).prop_map(move |cs| {
            let mut m = Model::new(n);
            for (terms, rel, rhs) in cs {
                let mut seen = vec![false; n];
                let terms: Vec<Term> = terms
                    .into_iter()
                    .filter(|&(var, _)| !std::mem::replace(&mut seen[var], true))
                    .map(|(var, coef)| Term { var, coef })
                    .collect();
                m.add(Constraint { terms, rel, rhs });
            }
            m
        })
    })
}

/// Builds the pseudo-boolean translation of an ordered segmentation
/// instance: occurrence (variables only for candidate records), relaxed
/// uniqueness, consecutiveness (pairs and triples, as the encoder emits
/// them), plus the horizontal-layout monotonicity the ordered DP assumes,
/// maximizing the number of assigned extracts.
fn ordered_instance_model(cands: &[&[u32]]) -> (Model, Vec<(usize, u32)>) {
    let mut vars: Vec<(usize, u32)> = Vec::new();
    let mut var_of = std::collections::HashMap::new();
    for (i, c) in cands.iter().enumerate() {
        for &j in *c {
            var_of.insert((i, j), vars.len());
            vars.push((i, j));
        }
    }
    let mut m = Model::new(vars.len());
    // Uniqueness (relaxed): each extract in at most one record.
    for (i, c) in cands.iter().enumerate() {
        m.add(Constraint::sum(
            c.iter().map(|&j| var_of[&(i, j)]),
            Relation::Le,
            1,
        ));
    }
    // Consecutiveness per record.
    for (i, ci) in cands.iter().enumerate() {
        for &j in *ci {
            for (k, ck) in cands.iter().enumerate().skip(i + 1) {
                if !ck.contains(&j) {
                    continue;
                }
                if (i + 1..k).all(|n| cands[n].contains(&j)) {
                    for n in i + 1..k {
                        m.add(Constraint {
                            terms: vec![
                                Term {
                                    var: var_of[&(i, j)],
                                    coef: 1,
                                },
                                Term {
                                    var: var_of[&(k, j)],
                                    coef: 1,
                                },
                                Term {
                                    var: var_of[&(n, j)],
                                    coef: -1,
                                },
                            ],
                            rel: Relation::Le,
                            rhs: 1,
                        });
                    }
                } else {
                    m.add(Constraint::sum(
                        [var_of[&(i, j)], var_of[&(k, j)]],
                        Relation::Le,
                        1,
                    ));
                }
            }
        }
    }
    // Monotone record labels in stream order.
    for (i, ci) in cands.iter().enumerate() {
        for &j in *ci {
            for (k, ck) in cands.iter().enumerate().skip(i + 1) {
                for &j2 in *ck {
                    if j2 < j {
                        m.add(Constraint::sum(
                            [var_of[&(i, j)], var_of[&(k, j2)]],
                            Relation::Le,
                            1,
                        ));
                    }
                }
            }
        }
    }
    m.maximize_sum(0..vars.len());
    (m, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The encoder matches its oracle row for row on random observation
    /// tables, strict and relaxed, with and without position constraints.
    #[test]
    fn encoder_matches_oracle_on_random_tables(
        obs in arb_observations(),
        position_constraints in any::<bool>(),
    ) {
        assert_encoder_matches_oracle(&obs, position_constraints);
    }

    /// If B&B proves the model satisfiable, WSAT must find a feasible
    /// assignment too (these models are tiny); if B&B proves infeasibility,
    /// WSAT must never claim feasibility.
    #[test]
    fn wsat_agrees_with_bnb_on_feasibility(model in arb_model()) {
        let exact = solve_bnb(&model, 1_000_000);
        let stochastic = solve(&model, &WsatConfig::default());
        match exact {
            BnbOutcome::Optimal { .. } => {
                prop_assert!(stochastic.feasible, "WSAT missed a solution");
                prop_assert!(model.feasible(&stochastic.assignment));
            }
            BnbOutcome::Infeasible => {
                prop_assert!(!stochastic.feasible, "WSAT claims feasible on infeasible model");
            }
            BnbOutcome::Unknown => unreachable!("budget is ample for <=8 vars"),
        }
    }

    /// With a maximize-sum objective, WSAT must reach the B&B optimum on
    /// these tiny models.
    #[test]
    fn wsat_reaches_optimum_on_small_models(mut model in arb_model()) {
        model.maximize_sum(0..model.num_vars);
        let exact = solve_bnb(&model, 1_000_000);
        if let BnbOutcome::Optimal { objective, .. } = exact {
            let stochastic = solve(&model, &WsatConfig { max_flips: 5_000, ..WsatConfig::default() });
            prop_assert!(stochastic.feasible);
            prop_assert_eq!(stochastic.objective, objective);
        }
    }

    /// Ordered-DP output always satisfies occurrence, uniqueness,
    /// contiguity and monotonicity, and its count is consistent.
    #[test]
    fn ordered_dp_invariants(
        spec in proptest::collection::vec(
            proptest::collection::btree_set(0u32..5, 0..4), 0..12),
    ) {
        let owned: Vec<Vec<u32>> = spec.iter().map(|s| s.iter().copied().collect()).collect();
        let cands: Vec<&[u32]> = owned.iter().map(Vec::as_slice).collect();
        let sol = solve_ordered(&cands, 5);
        prop_assert_eq!(sol.assignments.len(), cands.len());
        let count = sol.assignments.iter().filter(|a| a.is_some()).count();
        prop_assert_eq!(count, sol.assigned);
        // Occurrence.
        for (i, a) in sol.assignments.iter().enumerate() {
            if let Some(r) = a {
                prop_assert!(cands[i].contains(r));
            }
        }
        // Monotone labels.
        let labels: Vec<u32> = sol.assignments.iter().flatten().copied().collect();
        prop_assert!(labels.windows(2).all(|w| w[0] <= w[1]));
        // Contiguity per record.
        for r in 0..5u32 {
            let idxs: Vec<usize> = sol
                .assignments
                .iter()
                .enumerate()
                .filter_map(|(i, a)| (*a == Some(r)).then_some(i))
                .collect();
            if let (Some(&first), Some(&last)) = (idxs.first(), idxs.last()) {
                prop_assert_eq!(last - first + 1, idxs.len(), "record {} split", r);
            }
        }
    }

    /// The DP count is maximal: no greedy single-record assignment beats it.
    #[test]
    fn ordered_dp_at_least_singleton_lower_bound(
        spec in proptest::collection::vec(
            proptest::collection::btree_set(0u32..4, 0..3), 1..10),
    ) {
        let owned: Vec<Vec<u32>> = spec.iter().map(|s| s.iter().copied().collect()).collect();
        let cands: Vec<&[u32]> = owned.iter().map(Vec::as_slice).collect();
        let sol = solve_ordered(&cands, 4);
        // Lower bound: the longest contiguous run assignable to a single
        // record r.
        let mut best_run = 0;
        for r in 0..4u32 {
            let mut run = 0;
            for c in &cands {
                if c.contains(&r) {
                    run += 1;
                    best_run = best_run.max(run);
                } else {
                    run = 0;
                }
            }
        }
        prop_assert!(sol.assigned >= best_run);
    }

    /// Feasibility agreement extends to non-unit (and negative)
    /// coefficients — the shape the encoder's consecutiveness triples use.
    #[test]
    fn wsat_agrees_with_bnb_on_weighted_models(model in arb_weighted_model()) {
        let exact = solve_bnb(&model, 1_000_000);
        let stochastic = solve(&model, &WsatConfig::default());
        match exact {
            BnbOutcome::Optimal { .. } => {
                prop_assert!(stochastic.feasible, "WSAT missed a solution");
                prop_assert!(model.feasible(&stochastic.assignment));
            }
            BnbOutcome::Infeasible => {
                prop_assert!(!stochastic.feasible, "WSAT claims feasible on infeasible model");
            }
            BnbOutcome::Unknown => unreachable!("budget is ample for <=7 vars"),
        }
    }

    /// Three-way differential on ordered segmentation instances: the
    /// branch-and-bound optimum of the pseudo-boolean translation must
    /// equal the ordered DP's assigned count, and WSAT must reach it too.
    #[test]
    fn dp_bnb_wsat_agree_on_segmentation_instances(
        spec in proptest::collection::vec(
            proptest::collection::btree_set(0u32..4, 0..3), 1..8),
    ) {
        let owned: Vec<Vec<u32>> = spec.iter().map(|s| s.iter().copied().collect()).collect();
        let cands: Vec<&[u32]> = owned.iter().map(Vec::as_slice).collect();
        let dp = solve_ordered(&cands, 4);

        let (model, vars) = ordered_instance_model(&cands);
        let exact = solve_bnb(&model, 1_000_000);
        let BnbOutcome::Optimal { objective, .. } = exact else {
            // All-zero is always feasible under the relaxed encoding.
            return Err(TestCaseError::fail("B&B must find the all-zero solution"));
        };
        prop_assert_eq!(
            objective,
            dp.assigned as i64,
            "B&B optimum disagrees with ordered DP on {:?}",
            owned
        );

        // The DP's own assignment must be feasible in the model.
        let mut assignment = vec![false; model.num_vars];
        for (v, &(i, j)) in vars.iter().enumerate() {
            assignment[v] = dp.assignments[i] == Some(j);
        }
        prop_assert!(model.feasible(&assignment), "DP solution infeasible in PB model");

        // And WSAT, given the same model, reaches the optimum.
        let stochastic = solve(&model, &WsatConfig { max_flips: 10_000, ..WsatConfig::default() });
        prop_assert!(stochastic.feasible);
        prop_assert_eq!(stochastic.objective, objective);
    }

    /// Parallel restarts are a pure scheduling change: 1, 2 and N worker
    /// threads return byte-identical results (assignment, feasibility,
    /// violation, objective *and* total flips) on random weighted models,
    /// for arbitrary seeds, with and without an objective.
    #[test]
    fn parallel_restarts_equal_sequential(
        mut model in arb_weighted_model(),
        with_objective in any::<bool>(),
        seed in any::<u64>(),
    ) {
        if with_objective {
            model.maximize_sum(0..model.num_vars);
        }
        let base = WsatConfig {
            max_flips: 400,
            max_tries: 5,
            seed,
            threads: 1,
            ..WsatConfig::default()
        };
        let sequential = solve(&model, &base);
        for threads in [2, 4, 0] {
            let parallel = solve(&model, &WsatConfig { threads, ..base });
            prop_assert_eq!(&sequential, &parallel, "threads = {}", threads);
        }
    }

    /// Instance reduction is exact: solving the components independently
    /// and stitching the parts back together reaches the same optimum as
    /// the whole-instance oracle on random segmentation instances, and
    /// the stitched assignment is feasible in the *original* model.
    #[test]
    fn reduced_components_equal_whole_instance_oracle(
        spec in proptest::collection::vec(
            proptest::collection::btree_set(0u32..4, 0..3), 1..8),
    ) {
        let owned: Vec<Vec<u32>> = spec.iter().map(|s| s.iter().copied().collect()).collect();
        let cands: Vec<&[u32]> = owned.iter().map(Vec::as_slice).collect();
        let (model, _) = ordered_instance_model(&cands);

        let BnbOutcome::Optimal { objective, .. } = solve_bnb(&model, 1_000_000) else {
            return Err(TestCaseError::fail("all-zero is always feasible here"));
        };

        let red = reduce_model(&model);
        prop_assert!(!red.infeasible, "reduction must not refute a feasible model");
        let mut parts = Vec::with_capacity(red.components.len());
        for comp in &red.components {
            let BnbOutcome::Optimal { assignment, .. } = solve_bnb(&comp.model, 1_000_000) else {
                return Err(TestCaseError::fail("component of a feasible model infeasible"));
            };
            parts.push(assignment);
        }
        let stitched = red.stitch(&parts);
        prop_assert!(model.feasible(&stitched), "stitched assignment violates the model");
        prop_assert_eq!(
            model.objective_value(&stitched),
            objective,
            "decomposed optimum diverged from the whole-instance oracle on {:?}",
            owned
        );
    }

    /// Reduction is exact on arbitrary weighted models too, including
    /// infeasible ones: propagation may refute the model outright, a
    /// component may be infeasible, or the stitched component optima
    /// must match the whole-instance optimum.
    #[test]
    fn reduction_preserves_weighted_model_optimum(mut model in arb_weighted_model()) {
        model.maximize_sum(0..model.num_vars);
        let whole = solve_bnb(&model, 1_000_000);
        let red = reduce_model(&model);
        if red.infeasible {
            prop_assert!(
                matches!(whole, BnbOutcome::Infeasible),
                "reduction refuted a feasible model"
            );
            return Ok(());
        }
        let mut parts = Vec::with_capacity(red.components.len());
        let mut any_infeasible = false;
        for comp in &red.components {
            match solve_bnb(&comp.model, 1_000_000) {
                BnbOutcome::Optimal { assignment, .. } => parts.push(assignment),
                BnbOutcome::Infeasible => {
                    any_infeasible = true;
                    break;
                }
                BnbOutcome::Unknown => unreachable!("budget is ample for <=7 vars"),
            }
        }
        match whole {
            BnbOutcome::Optimal { objective, .. } => {
                prop_assert!(!any_infeasible, "component infeasible on a feasible model");
                let stitched = red.stitch(&parts);
                prop_assert!(model.feasible(&stitched));
                prop_assert_eq!(model.objective_value(&stitched), objective);
            }
            BnbOutcome::Infeasible => {
                prop_assert!(any_infeasible, "every component solvable on an infeasible model");
            }
            BnbOutcome::Unknown => unreachable!("budget is ample for <=7 vars"),
        }
    }

    /// The objective-target early exit never *changes* the answer when the
    /// target is the true optimum — it only saves flips. (A looser bound
    /// could stop at any feasible assignment reaching it; the relaxation
    /// ladder always passes the exact relaxed optimum.)
    #[test]
    fn objective_target_preserves_optimum(model in arb_model()) {
        let mut model = model;
        model.maximize_sum(0..model.num_vars);
        let BnbOutcome::Optimal { objective, .. } = solve_bnb(&model, 1_000_000) else {
            return Ok(()); // infeasible models have no target to reach
        };
        let free = solve(&model, &WsatConfig { max_flips: 5_000, ..WsatConfig::default() });
        let capped = solve(&model, &WsatConfig {
            max_flips: 5_000,
            objective_target: Some(objective),
            ..WsatConfig::default()
        });
        prop_assert!(capped.feasible);
        prop_assert_eq!(capped.objective, free.objective);
        prop_assert!(capped.flips <= free.flips);
    }
}
