//! Property tests cross-checking the exact branch-and-bound (cold and
//! warm-seeded) against a brute-force enumerator and against the ordered
//! DP oracle, validating the DP's invariants, checking the encoder
//! against its oracle, and certifying the relaxed optima of the
//! simulated paper corpus.

mod oracle;

use std::collections::HashMap;

use proptest::prelude::*;

use oracle::solve_ordered;
use tableseg_csp::exact::{bnb_root_bound, branch_and_bound, solve_bnb, BnbOutcome};
use tableseg_csp::model::{Constraint, Model, Relation, Term};
use tableseg_csp::{encode, reduce_model, segment_csp, CspOptions, CspStatus, EncodeOptions};
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

/// Observation tables of the 24 list pages of the twelve simulated paper
/// sites.
fn paper_pages() -> Vec<Observations> {
    let mut pages = Vec::new();
    for spec in tableseg_sitegen::paper_sites::all() {
        let site = tableseg_sitegen::site::generate(&spec);
        let template = tableseg::SiteTemplate::build(&site.list_htmls());
        for (page, generated) in site.pages.iter().enumerate() {
            let details: Vec<&str> = generated.detail_html.iter().map(String::as_str).collect();
            let prepared = tableseg::try_prepare_with_template(&template, page, &details)
                .expect("clean paper page");
            pages.push(prepared.observations);
        }
    }
    pages
}

/// The encoder matches its oracle on every list page of the twelve
/// simulated paper sites.
#[test]
fn encoder_matches_oracle_on_paper_pages() {
    let pages = paper_pages();
    for obs in &pages {
        for position_constraints in [true, false] {
            assert_encoder_matches_oracle(obs, position_constraints);
        }
    }
    assert_eq!(pages.len(), 24);
}

/// The relaxed rung's answers are proven: on every relaxed component of
/// the paper corpus the cold branch-and-bound finishes within two nodes
/// per variable, the warm-seeded search reaches the same optimum, the
/// ladder's assignment of each component is exactly that warm-seeded
/// optimum, and the ladder assigns the proven number of extracts. The
/// four large components sit below their extract-count bound.
#[test]
fn bnb_certifies_every_relaxed_component_of_the_paper_corpus() {
    let opts = CspOptions::default();
    let mut components = 0;
    // (variables, proven optimum, extract-count bound)
    let mut large = Vec::new();
    for obs in &paper_pages() {
        let out = segment_csp(obs, &opts);
        if out.status == CspStatus::Solved {
            continue;
        }
        assert_eq!(out.status, CspStatus::SolvedRelaxed);
        let mut enc = encode(obs, &EncodeOptions::default());
        // Propagation refutes every dirty strict encoding of the corpus,
        // so the ladder's warm seed is the completed strict reduction.
        let strict = reduce_model(&enc.model);
        assert!(strict.infeasible);
        let strict_best = strict.completed();
        enc.relax();
        let red = reduce_model(&enc.model);
        // The ladder's assignment of the relaxed encoding.
        let mut ladder = vec![false; enc.model.num_vars];
        for (i, &a) in out.segmentation.assignments.iter().enumerate() {
            if let Some(r) = a {
                ladder[enc.var(i, r).expect("assigned records are candidates")] = true;
            }
        }
        let mut parts = Vec::new();
        let mut cold_nodes = 0;
        for comp in &red.components {
            let (cold, nodes) = branch_and_bound(&comp.model, opts.bnb_budget, None);
            cold_nodes += nodes;
            let BnbOutcome::Optimal { objective, .. } = cold else {
                panic!("{}-variable component not proven", comp.vars.len());
            };
            let seed: Vec<bool> = comp.vars.iter().map(|&v| strict_best[v]).collect();
            let BnbOutcome::Optimal {
                assignment,
                objective: warm_objective,
            } = branch_and_bound(&comp.model, opts.bnb_budget, Some(&seed)).0
            else {
                panic!("{}-variable component not proven warm", comp.vars.len());
            };
            assert_eq!(warm_objective, objective, "{} vars", comp.vars.len());
            let chosen: Vec<bool> = comp.vars.iter().map(|&v| ladder[v]).collect();
            assert_eq!(chosen, assignment, "{} vars", comp.vars.len());
            if comp.vars.len() >= 30 {
                let mut extracts: Vec<usize> = comp.vars.iter().map(|&v| enc.vars[v].0).collect();
                extracts.dedup();
                large.push((comp.vars.len(), objective, extracts.len()));
            }
            parts.push(assignment);
            components += 1;
        }
        let optimum = enc.model.objective_value(&red.stitch(&parts));
        assert_eq!(out.segmentation.assigned_count() as i64, optimum);
        let vars: usize = red.components.iter().map(|c| c.vars.len()).sum();
        assert!(cold_nodes <= 2 * vars as u64, "{cold_nodes} nodes");
    }
    assert_eq!(components, 40);
    large.sort_unstable();
    assert_eq!(
        large,
        [(35, 19, 20), (71, 35, 37), (72, 38, 40), (692, 116, 117)]
    );
}

/// The brute-force oracle for [`solve_bnb`]: the best objective over
/// every feasible assignment, `None` when there is none.
fn brute_force(model: &Model) -> Option<i64> {
    let n = model.num_vars;
    assert!(n <= 12, "brute force is for at most 12 variables");
    (0u32..1 << n)
        .filter_map(|bits| {
            let assignment: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
            model
                .feasible(&assignment)
                .then(|| model.objective_value(&assignment))
        })
        .max()
}

/// Every assignment scoring brute force's optimum, in enumeration order.
fn optimal_assignments(model: &Model) -> Vec<Vec<bool>> {
    let Some(optimum) = brute_force(model) else {
        return Vec::new();
    };
    let n = model.num_vars;
    (0u32..1 << n)
        .map(|bits| (0..n).map(|v| bits >> v & 1 == 1).collect::<Vec<bool>>())
        .filter(|a| model.feasible(a) && model.objective_value(a) == optimum)
        .collect()
}

/// Gives a model a random objective, with negative and zero weights.
fn with_objective(model: impl Strategy<Value = Model>) -> impl Strategy<Value = Model> {
    model.prop_flat_map(|m| {
        let n = m.num_vars;
        proptest::collection::vec(-2i32..4, n).prop_map(move |coefs| {
            let mut m = m.clone();
            m.objective = coefs
                .into_iter()
                .enumerate()
                .filter(|&(_, coef)| coef != 0)
                .map(|(var, coef)| Term { var, coef })
                .collect();
            m
        })
    })
}

/// A random model shaped like a segmentation component: overlapping
/// at-most-one rows (`≤ 1` and `= 1`) over up to 12 variables, plus
/// weighted `≤`/`≥`/`=` rows such as the consecutiveness triples.
fn arb_grouped_model() -> impl Strategy<Value = Model> {
    (2usize..=12).prop_flat_map(|n| {
        let group = (
            proptest::collection::btree_set(0..n, 1..=n.min(4)),
            prop_oneof![Just(Relation::Le), Just(Relation::Eq)],
        );
        let term = (0..n, prop_oneof![Just(-1i32), Just(1), Just(2)]);
        let row = (
            proptest::collection::vec(term, 1..=3),
            prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)],
            -1i32..3,
        );
        (
            proptest::collection::vec(group, 1..8),
            proptest::collection::vec(row, 0..5),
        )
            .prop_map(move |(groups, rows)| {
                let mut m = Model::new(n);
                for (vars, rel) in groups {
                    m.add(Constraint::sum(vars, rel, 1));
                }
                for (terms, rel, rhs) in rows {
                    let mut seen = vec![false; n];
                    let terms = terms
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

/// Asserts that [`solve_bnb`] and its root bound agree with brute force.
fn assert_bnb_matches_brute_force(model: &Model) -> Result<(), TestCaseError> {
    let truth = brute_force(model);
    match solve_bnb(model, 1_000_000) {
        BnbOutcome::Optimal {
            assignment,
            objective,
        } => {
            prop_assert_eq!(Some(objective), truth);
            prop_assert!(model.feasible(&assignment));
            prop_assert_eq!(model.objective_value(&assignment), objective);
        }
        BnbOutcome::Infeasible => prop_assert_eq!(truth, None),
        BnbOutcome::Unknown { .. } => unreachable!("budget is ample for <=12 vars"),
    }
    if let Some(optimum) = truth {
        let bound = bnb_root_bound(model);
        prop_assert!(
            bound.is_some_and(|b| b >= optimum),
            "root bound {:?} below the optimum {}",
            bound,
            optimum
        );
    }
    Ok(())
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

    /// Branch-and-bound is exact, and its root bound is a bound, on
    /// random unit-row models with random objectives.
    #[test]
    fn bnb_equals_brute_force_on_unit_models(model in with_objective(arb_model())) {
        assert_bnb_matches_brute_force(&model)?;
    }

    /// The same on weighted rows, including negative coefficients.
    #[test]
    fn bnb_equals_brute_force_on_weighted_models(model in with_objective(arb_weighted_model())) {
        assert_bnb_matches_brute_force(&model)?;
    }

    /// The same on overlapping at-most-one groups, the structure the
    /// bound reads off the model.
    #[test]
    fn bnb_equals_brute_force_on_grouped_models(model in with_objective(arb_grouped_model())) {
        assert_bnb_matches_brute_force(&model)?;
    }

    /// Warm-seeded branch-and-bound reaches brute force's optimum from
    /// any seed, feasible or not.
    #[test]
    fn warm_bnb_equals_brute_force_from_any_seed(
        model in with_objective(arb_grouped_model()),
        bits in any::<u16>(),
    ) {
        let seed: Vec<bool> = (0..model.num_vars).map(|v| bits >> v & 1 == 1).collect();
        let truth = brute_force(&model);
        match branch_and_bound(&model, 1_000_000, Some(&seed)).0 {
            BnbOutcome::Optimal { assignment, objective } => {
                prop_assert_eq!(Some(objective), truth);
                prop_assert!(model.feasible(&assignment));
                prop_assert_eq!(model.objective_value(&assignment), objective);
            }
            BnbOutcome::Infeasible => prop_assert_eq!(truth, None),
            BnbOutcome::Unknown { .. } => unreachable!("budget is ample for <=12 vars"),
        }
    }

    /// A seed that is itself feasible and optimal comes back unchanged:
    /// among equal optima the warm-seeded search keeps the seed's.
    #[test]
    fn warm_bnb_returns_an_optimal_seed_unchanged(
        model in with_objective(arb_grouped_model()),
        pick in any::<u32>(),
    ) {
        let optima = optimal_assignments(&model);
        prop_assume!(!optima.is_empty());
        let seed = &optima[pick as usize % optima.len()];
        let outcome = branch_and_bound(&model, 1_000_000, Some(seed)).0;
        let BnbOutcome::Optimal { assignment, .. } = outcome else {
            return Err(TestCaseError::fail(format!("{outcome:?}")));
        };
        prop_assert_eq!(&assignment, seed, "{} optima", optima.len());
    }

    /// The encoder matches its oracle row for row on random observation
    /// tables, strict and relaxed, with and without position constraints.
    #[test]
    fn encoder_matches_oracle_on_random_tables(
        obs in arb_observations(),
        position_constraints in any::<bool>(),
    ) {
        assert_encoder_matches_oracle(&obs, position_constraints);
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

    /// Differential on ordered segmentation instances: the
    /// branch-and-bound optimum of the pseudo-boolean translation must
    /// equal the ordered DP's assigned count.
    #[test]
    fn dp_bnb_agree_on_segmentation_instances(
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
                BnbOutcome::Unknown { .. } => unreachable!("budget is ample for <=7 vars"),
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
            BnbOutcome::Unknown { .. } => unreachable!("budget is ample for <=7 vars"),
        }
    }
}
