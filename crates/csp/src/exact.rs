//! The exact solver: a depth-first branch-and-bound over any [`Model`]
//! with forward checking.
//!
//! The relaxation ladder runs it on every component of both rungs: on a
//! strict component (no objective) it stops at the first feasible leaf
//! or proves the component infeasible; on a relaxed component it proves
//! the optimum. Over the whole strict encoding it is the CSP oracle in
//! tests. Its objective bound reads at-most-one groups off the model (the
//! encoder's uniqueness rows, Section 4.1): each group still open can add
//! at most its best *live* variable, one that can still be set to 1
//! without breaking a row. Branching on the smallest groups first settles
//! the extracts with few candidate records early, and the bound then
//! proves the paper corpus's relaxed optima within two nodes per
//! variable.
//!
//! A warm seed orders the values: each variable is tried first at its
//! value in the seed. The search keeps the first optimum it finds (a
//! later leaf of equal value is pruned by the bound), so among equal
//! optima the one closest to the seed along the branching order wins; a
//! feasible, optimal seed is returned as it is. The search is still
//! worst-case exponential, so it takes a node budget and reports
//! [`BnbOutcome::Unknown`], with its incumbent, when the budget ends it.

use crate::model::{Model, Relation};

/// Result of branch-and-bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BnbOutcome {
    /// A feasible assignment, proven optimal: the search finished.
    Optimal {
        /// The assignment.
        assignment: Vec<bool>,
        /// Its objective value.
        objective: i64,
    },
    /// The model was proven infeasible.
    Infeasible,
    /// The node budget ended the search before a proof.
    Unknown {
        /// The best feasible assignment found before the budget ran out,
        /// if any; not proven optimal.
        incumbent: Option<Vec<bool>>,
    },
}

impl BnbOutcome {
    /// The best feasible assignment the search found: the optimum, or an
    /// unproven incumbent. `None` when it found none.
    pub(crate) fn into_assignment(self) -> Option<Vec<bool>> {
        match self {
            BnbOutcome::Optimal { assignment, .. } => Some(assignment),
            BnbOutcome::Unknown { incumbent } => incumbent,
            BnbOutcome::Infeasible => None,
        }
    }
}

/// Branch-and-bound over a pseudo-boolean model, exploring at most
/// `node_budget` nodes.
pub fn solve_bnb(model: &Model, node_budget: u64) -> BnbOutcome {
    branch_and_bound(model, node_budget, None).0
}

/// [`solve_bnb`] with an optional warm seed (one value per variable,
/// tried first at every branch), also returning the number of nodes it
/// explored. Without a seed, each variable is tried first at the value
/// its objective coefficient favors.
pub fn branch_and_bound(
    model: &Model,
    node_budget: u64,
    warm: Option<&[bool]>,
) -> (BnbOutcome, u64) {
    assert!(
        warm.is_none_or(|w| w.len() == model.num_vars),
        "a warm seed holds one value per variable"
    );
    let Some(mut search) = Search::new(model, node_budget, warm) else {
        return (BnbOutcome::Infeasible, 0);
    };
    search.recurse(0);
    let outcome = match (search.best, search.exhausted) {
        (best, true) => BnbOutcome::Unknown {
            incumbent: best.map(|(assignment, _)| assignment),
        },
        (Some((assignment, objective)), false) => BnbOutcome::Optimal {
            assignment,
            objective,
        },
        (None, false) => BnbOutcome::Infeasible,
    };
    (outcome, search.nodes)
}

/// The objective bound [`solve_bnb`] starts from: no feasible assignment
/// scores above it. `None` when the constraint bounds alone refute the
/// model.
pub fn bnb_root_bound(model: &Model) -> Option<i64> {
    Search::new(model, 0, None).map(|s| s.fixed_obj + s.rest)
}

/// Marks a variable without an at-most-one group.
const NO_GROUP: usize = usize::MAX;

/// The branch-and-bound state. Occurrences are flat CSR arrays next to
/// the model's own rows; setting a variable touches only
/// its own rows (and, where a row's slack shrank, that row's terms), and
/// a trail of killed variables undoes it.
struct Search<'a> {
    model: &'a Model,
    /// Rows of variable `v`: `occ_row`/`occ_coef[occ_start[v]..occ_start[v + 1]]`.
    occ_start: Vec<usize>,
    occ_row: Vec<u32>,
    occ_coef: Vec<i32>,
    /// Per row: the least and the greatest value its left-hand side can
    /// still take, given the assigned terms.
    lo: Vec<i32>,
    hi: Vec<i32>,
    obj_coef: Vec<i64>,
    /// `group[v]`: the at-most-one group `v` belongs to, or [`NO_GROUP`].
    group: Vec<usize>,
    /// The row that formed each group; its members are the terms of that
    /// row whose variable belongs to the group.
    group_row: Vec<usize>,
    /// Live members per group, and the largest positive objective
    /// coefficient among them (0 when none is live).
    group_live: Vec<u32>,
    group_best: Vec<i64>,
    /// `live[v]`: unassigned, and setting it to 1 leaves every `≤`/`=`
    /// row it is in satisfiable.
    live: Vec<bool>,
    /// Killed variables in order, each with its group's best before it
    /// died.
    trail: Vec<(usize, i64)>,
    /// The most the unassigned variables can add to the objective: every
    /// group's best plus each live ungrouped variable's positive
    /// coefficient.
    rest: i64,
    /// Objective contribution of the variables assigned so far.
    fixed_obj: i64,
    /// Branching order: ascending group size, stable by index.
    order: Vec<usize>,
    /// The value each variable is tried at first, if seeded.
    warm: Option<&'a [bool]>,
    assign: Vec<bool>,
    best: Option<(Vec<bool>, i64)>,
    nodes: u64,
    budget: u64,
    exhausted: bool,
}

impl<'a> Search<'a> {
    /// The root state, or `None` when a row is already unsatisfiable.
    fn new(model: &'a Model, budget: u64, warm: Option<&'a [bool]>) -> Option<Search<'a>> {
        let n = model.num_vars;
        let rows = &model.constraints;
        let mut occ_start = vec![0usize; n + 1];
        for t in rows.iter().flat_map(|c| &c.terms) {
            occ_start[t.var + 1] += 1;
        }
        for v in 0..n {
            occ_start[v + 1] += occ_start[v];
        }
        let mut fill = occ_start.clone();
        let mut occ_row = vec![0u32; occ_start[n]];
        let mut occ_coef = vec![0i32; occ_start[n]];
        let mut lo = vec![0i32; rows.len()];
        let mut hi = vec![0i32; rows.len()];
        for (r, c) in rows.iter().enumerate() {
            for t in &c.terms {
                occ_row[fill[t.var]] = u32::try_from(r).expect("fewer than 2^32 rows");
                occ_coef[fill[t.var]] = t.coef;
                fill[t.var] += 1;
                if t.coef > 0 {
                    hi[r] += t.coef;
                } else {
                    lo[r] += t.coef;
                }
            }
        }
        let mut obj_coef = vec![0i64; n];
        for t in &model.objective {
            obj_coef[t.var] += i64::from(t.coef);
        }

        // At-most-one groups: each variable joins the first unit `≤ 1` or
        // `= 1` row that holds it. The encoder emits the uniqueness rows
        // first, so on segmentation models a group is one extract's
        // candidate records.
        let mut group = vec![NO_GROUP; n];
        let mut group_row = Vec::new();
        let mut group_size = Vec::new();
        for (r, c) in rows.iter().enumerate() {
            let at_most_one = matches!(c.rel, Relation::Le | Relation::Eq)
                && c.rhs == 1
                && c.terms.iter().all(|t| t.coef == 1);
            if !at_most_one {
                continue;
            }
            let g = group_row.len();
            let mut size = 0;
            for t in &c.terms {
                if group[t.var] == NO_GROUP {
                    group[t.var] = g;
                    size += 1;
                }
            }
            if size > 0 {
                group_row.push(r);
                group_size.push(size);
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| group_size.get(group[v]).copied().unwrap_or(1));
        let groups = group_row.len();

        let mut search = Search {
            model,
            occ_start,
            occ_row,
            occ_coef,
            lo,
            hi,
            obj_coef,
            group,
            group_row,
            group_live: vec![0; groups],
            group_best: vec![0; groups],
            live: vec![false; n],
            trail: Vec::new(),
            rest: 0,
            fixed_obj: 0,
            order,
            warm,
            assign: vec![false; n],
            best: None,
            nodes: 0,
            budget,
            exhausted: false,
        };
        if (0..rows.len()).any(|r| search.constraint_bad(r)) {
            return None;
        }
        for v in 0..n {
            let live = (search.occ_start[v]..search.occ_start[v + 1]).all(|k| {
                let r = search.occ_row[k] as usize;
                !search.caps(r) || search.occ_coef[k] <= search.slack(r)
            });
            if !live {
                continue;
            }
            search.live[v] = true;
            let gain = search.obj_coef[v].max(0);
            match search.group[v] {
                NO_GROUP => search.rest += gain,
                g => {
                    search.group_live[g] += 1;
                    search.group_best[g] = search.group_best[g].max(gain);
                }
            }
        }
        search.rest += search.group_best.iter().sum::<i64>();
        Some(search)
    }

    /// Can row `r` still be satisfied under the current bounds?
    #[inline]
    fn constraint_bad(&self, r: usize) -> bool {
        let c = &self.model.constraints[r];
        match c.rel {
            Relation::Le => self.lo[r] > c.rhs,
            Relation::Ge => self.hi[r] < c.rhs,
            Relation::Eq => self.lo[r] > c.rhs || self.hi[r] < c.rhs,
        }
    }

    /// Does row `r` cap its left-hand side (`≤` or `=`)?
    #[inline]
    fn caps(&self, r: usize) -> bool {
        self.model.constraints[r].rel != Relation::Ge
    }

    /// How far row `r`'s least reachable value sits below its right-hand
    /// side: an unassigned positive term fits iff its coefficient does
    /// not exceed this.
    #[inline]
    fn slack(&self, r: usize) -> i32 {
        self.model.constraints[r].rhs - self.lo[r]
    }

    /// Incremental bound check: only the rows of `var`.
    fn pruned_after(&self, var: usize) -> bool {
        (self.occ_start[var]..self.occ_start[var + 1])
            .any(|k| self.constraint_bad(self.occ_row[k] as usize))
    }

    /// Marks live variable `v` dead and lowers the bound to match.
    fn kill(&mut self, v: usize) {
        self.live[v] = false;
        let g = self.group[v];
        if g == NO_GROUP {
            self.rest -= self.obj_coef[v].max(0);
            self.trail.push((v, 0));
            return;
        }
        self.group_live[g] -= 1;
        let old = self.group_best[g];
        if old > 0 && self.obj_coef[v] == old {
            let new = if self.group_live[g] == 0 {
                0
            } else {
                self.model.constraints[self.group_row[g]]
                    .terms
                    .iter()
                    .filter(|t| self.group[t.var] == g && self.live[t.var])
                    .map(|t| self.obj_coef[t.var].max(0))
                    .max()
                    .unwrap_or(0)
            };
            self.group_best[g] = new;
            self.rest += new - old;
        }
        self.trail.push((v, old));
    }

    /// Undoes the kills recorded after trail position `mark`.
    fn revive_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (v, old) = self.trail.pop().expect("trail is longer than the mark");
            self.live[v] = true;
            match self.group[v] {
                NO_GROUP => self.rest += self.obj_coef[v].max(0),
                g => {
                    self.group_live[g] += 1;
                    self.rest += old - self.group_best[g];
                    self.group_best[g] = old;
                }
            }
        }
    }

    fn set(&mut self, var: usize, value: bool) {
        if self.live[var] {
            self.kill(var);
        }
        self.assign[var] = value;
        if value {
            self.fixed_obj += self.obj_coef[var];
        }
        for k in self.occ_start[var]..self.occ_start[var + 1] {
            let (r, coef) = (self.occ_row[k] as usize, self.occ_coef[k]);
            // A term taking the value that adds more raises the row's
            // least value; the other value lowers its greatest.
            let raises_lo = value == (coef > 0);
            if raises_lo {
                self.lo[r] += coef.abs();
            } else {
                self.hi[r] -= coef.abs();
            }
            // Positive terms that no longer fit under the cap die.
            if raises_lo && self.caps(r) {
                let slack = self.slack(r);
                let model = self.model;
                for t in &model.constraints[r].terms {
                    if self.live[t.var] && t.coef > slack {
                        self.kill(t.var);
                    }
                }
            }
        }
    }

    fn unset(&mut self, var: usize, value: bool, mark: usize) {
        for k in self.occ_start[var]..self.occ_start[var + 1] {
            let (r, coef) = (self.occ_row[k] as usize, self.occ_coef[k]);
            if value == (coef > 0) {
                self.lo[r] -= coef.abs();
            } else {
                self.hi[r] += coef.abs();
            }
        }
        if value {
            self.fixed_obj -= self.obj_coef[var];
        }
        self.assign[var] = false;
        self.revive_to(mark);
    }

    fn recurse(&mut self, depth: usize) {
        if let Some((_, best_obj)) = &self.best {
            if self.fixed_obj + self.rest <= *best_obj {
                return;
            }
        }
        self.nodes += 1;
        if self.nodes > self.budget {
            self.exhausted = true;
            return;
        }
        let Some(&var) = self.order.get(depth) else {
            // Every variable is assigned (and dead), so the bound above is
            // this leaf's objective and it beats the incumbent.
            debug_assert!(self.model.feasible(&self.assign));
            self.best = Some((self.assign.clone(), self.fixed_obj));
            return;
        };
        // Value order follows the warm seed, else favors the objective; a
        // dead variable's 1-branch would break a row, so it is skipped.
        let first = match self.warm {
            Some(warm) => warm[var],
            None => self.obj_coef[var] >= 0,
        };
        for value in [first, !first] {
            if value && !self.live[var] {
                continue;
            }
            let mark = self.trail.len();
            self.set(var, value);
            if !self.pruned_after(var) {
                self.recurse(depth + 1);
            }
            self.unset(var, value, mark);
            if self.exhausted {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Constraint, Model, Relation, Term};
    use crate::oracle::solve_ordered;

    // ---- branch and bound ----

    #[test]
    fn bnb_finds_unique_solution() {
        let mut m = Model::new(3);
        m.add(Constraint::sum([0, 1], Relation::Eq, 1));
        m.add(Constraint::sum([1, 2], Relation::Eq, 1));
        m.add(Constraint::sum([0, 2], Relation::Eq, 2));
        match solve_bnb(&m, 10_000) {
            BnbOutcome::Optimal { assignment, .. } => {
                assert_eq!(assignment, vec![true, false, true]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bnb_proves_infeasible() {
        let mut m = Model::new(2);
        m.add(Constraint::sum([0, 1], Relation::Ge, 3));
        assert_eq!(solve_bnb(&m, 10_000), BnbOutcome::Infeasible);
    }

    #[test]
    fn bnb_maximizes_objective() {
        let mut m = Model::new(4);
        m.add(Constraint::sum([0, 1], Relation::Le, 1));
        m.add(Constraint::sum([2, 3], Relation::Le, 1));
        m.maximize_sum([0, 1, 2, 3]);
        match solve_bnb(&m, 100_000) {
            BnbOutcome::Optimal { objective, .. } => assert_eq!(objective, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bnb_budget_exhaustion_reports_unknown() {
        // An odd cycle of exactly-one constraints is infeasible, but the
        // root bounds cannot see it — proving it needs search, which a
        // 2-node budget does not allow.
        let mut m = Model::new(3);
        m.add(Constraint::sum([0, 1], Relation::Eq, 1));
        m.add(Constraint::sum([1, 2], Relation::Eq, 1));
        m.add(Constraint::sum([2, 0], Relation::Eq, 1));
        assert_eq!(solve_bnb(&m, 2), BnbOutcome::Unknown { incumbent: None });
        // With enough budget it is proven infeasible.
        assert_eq!(solve_bnb(&m, 1_000), BnbOutcome::Infeasible);
    }

    #[test]
    fn bnb_budget_exhaustion_with_an_incumbent_is_not_optimal() {
        // x0 and x1 exclude each other, and x1 is worth more. The search
        // sets x0 = 1 first and holds the incumbent 1 after 3 nodes; only
        // the x0 = 0 branch reaches the optimum 5.
        let mut m = Model::new(2);
        m.add(Constraint::sum([0, 1], Relation::Le, 1));
        m.objective = vec![Term { var: 0, coef: 1 }, Term { var: 1, coef: 5 }];
        let BnbOutcome::Unknown {
            incumbent: Some(incumbent),
        } = solve_bnb(&m, 3)
        else {
            panic!("three nodes reach the first leaf but no proof");
        };
        assert_eq!(incumbent, vec![true, false]);
        assert!(m.feasible(&incumbent));
        assert_eq!(
            solve_bnb(&m, 100),
            BnbOutcome::Optimal {
                assignment: vec![false, true],
                objective: 5
            }
        );
    }

    #[test]
    fn warm_seed_picks_among_equal_optima() {
        // Two equal optima: x0 alone or x1 alone. Unseeded, the search
        // tries x0 = 1 first and keeps it; a seed naming x1 wins instead.
        let mut m = Model::new(2);
        m.add(Constraint::sum([0, 1], Relation::Le, 1));
        m.maximize_sum([0, 1]);
        let optimal = |assignment: Vec<bool>| BnbOutcome::Optimal {
            assignment,
            objective: 1,
        };
        assert_eq!(solve_bnb(&m, 100), optimal(vec![true, false]));
        // The all-false seed scores 0, so the search backtracks from it
        // to the nearest optimum along the branching order; the
        // infeasible all-true seed is cut at x1.
        for (seed, want) in [
            ([false, true], [false, true]),
            ([true, false], [true, false]),
            ([false, false], [false, true]),
            ([true, true], [true, false]),
        ] {
            let (outcome, _) = branch_and_bound(&m, 100, Some(&seed));
            assert_eq!(outcome, optimal(want.to_vec()), "seed {seed:?}");
        }
    }

    #[test]
    fn root_bound_counts_one_live_variable_per_group() {
        // Two at-most-one groups over four variables score one each; a
        // third row then rules out x2 and x3, so only the first can.
        let mut m = Model::new(4);
        m.add(Constraint::sum([0, 1], Relation::Le, 1));
        m.add(Constraint::sum([2, 3], Relation::Eq, 1));
        m.maximize_sum([0, 1, 2, 3]);
        assert_eq!(bnb_root_bound(&m), Some(2));
        m.constraints[1].rel = Relation::Le;
        m.add(Constraint::sum([2, 3], Relation::Le, 0));
        assert_eq!(bnb_root_bound(&m), Some(1));
        assert!(matches!(
            solve_bnb(&m, 100),
            BnbOutcome::Optimal { objective: 1, .. }
        ));
    }

    // ---- ordered DP ----

    fn cands<'a>(spec: &[&'a [u32]]) -> Vec<&'a [u32]> {
        spec.to_vec()
    }

    #[test]
    fn ordered_paper_example() {
        // The Superpages example, Table 1: D_i sets for E1..E11.
        let d: Vec<&[u32]> = cands(&[
            &[0, 1], // E1 John Smith
            &[0],    // E2
            &[0],    // E3
            &[0, 1], // E4 phone
            &[0, 1], // E5 John Smith
            &[1],    // E6
            &[1],    // E7
            &[0, 1], // E8 phone
            &[2],    // E9
            &[2],    // E10
            &[2],    // E11
        ]);
        let sol = solve_ordered(&d, 3);
        // The structural constraints alone admit a total assignment; the
        // exact split between r1 and r2 additionally needs the Section 4.2
        // position constraints (E1/E5 compete for one occurrence), which
        // the DP deliberately does not model — so assert validity, not the
        // specific tie-break.
        assert!(sol.is_total(), "{sol:?}");
        for (i, a) in sol.assignments.iter().enumerate() {
            let r = a.expect("total");
            assert!(d[i].contains(&r), "E{} assigned outside D_i", i + 1);
        }
        // Monotone record labels.
        let labels: Vec<u32> = sol.assignments.iter().map(|a| a.unwrap()).collect();
        assert!(labels.windows(2).all(|w| w[0] <= w[1]));
        // Record 3 is exactly E9..E11.
        assert_eq!(&labels[8..], &[2, 2, 2]);
    }

    #[test]
    fn ordered_detects_infeasibility() {
        // E2 can only be in r1 but E1 and E3 must both be r2: E1,E3 block
        // is non-contiguous around E2 → not totally assignable.
        let d: Vec<&[u32]> = cands(&[&[1], &[0], &[1]]);
        let sol = solve_ordered(&d, 2);
        assert!(!sol.is_total());
        assert_eq!(sol.assigned, 2);
    }

    #[test]
    fn ordered_respects_candidates() {
        let d: Vec<&[u32]> = cands(&[&[0], &[1], &[2]]);
        let sol = solve_ordered(&d, 3);
        assert!(sol.is_total());
        assert_eq!(sol.assignments, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn ordered_empty_input() {
        let sol = solve_ordered(&[], 3);
        assert_eq!(sol.assigned, 0);
        assert!(sol.assignments.is_empty());
    }

    #[test]
    fn ordered_extract_with_empty_candidates_stays_unassigned() {
        let empty: &[u32] = &[];
        let d: Vec<&[u32]> = cands(&[&[0], empty, &[1]]);
        let sol = solve_ordered(&d, 2);
        assert_eq!(sol.assigned, 2);
        assert_eq!(sol.assignments, vec![Some(0), None, Some(1)]);
    }

    #[test]
    fn ordered_monotonicity_enforced() {
        // Record labels may not decrease: E1 only r2, E2 only r1.
        let d: Vec<&[u32]> = cands(&[&[1], &[0]]);
        let sol = solve_ordered(&d, 2);
        assert_eq!(sol.assigned, 1, "{sol:?}");
    }

    #[test]
    fn ordered_contiguity_enforced() {
        // E1 r1, E2 unassignable, E3 r1 again: r1 would be split.
        let empty: &[u32] = &[];
        let d: Vec<&[u32]> = cands(&[&[0], empty, &[0]]);
        let sol = solve_ordered(&d, 1);
        assert_eq!(sol.assigned, 1);
    }

    #[test]
    fn ordered_allows_skipped_records() {
        // Record r2 has no extract on the list page.
        let d: Vec<&[u32]> = cands(&[&[0], &[2]]);
        let sol = solve_ordered(&d, 3);
        assert!(sol.is_total());
        assert_eq!(sol.assignments, vec![Some(0), Some(2)]);
    }
}
