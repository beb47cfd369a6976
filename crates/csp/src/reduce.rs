//! Instance reduction for pseudo-boolean models: bounds-consistency
//! propagation, entailed-constraint elimination, and connected-component
//! decomposition.
//!
//! The segmentation encodings of Section 4 are mostly *easy*: on clean
//! sites the uniqueness singletons (`x = 1`) cascade through the
//! consecutiveness and position constraints until every variable is
//! forced, and even on dirty sites the constraint graph falls apart into
//! small independent clusters (one per run of entangled extracts). This
//! pass exploits both structures before any search runs:
//!
//! 1. **Propagation.** For every constraint, the achievable range
//!    `[lo, hi]` of its left-hand side under the current partial
//!    assignment is kept current through the model's [`Occurrences`]
//!    index. A constraint whose range excludes the right-hand side
//!    proves the model infeasible; a variable whose value `v` would make
//!    a constraint unsatisfiable regardless of the other variables is
//!    forced to `!v`. Forcing re-enqueues the variable's rows (a
//!    worklist to fixpoint).
//! 2. **Entailment.** A constraint satisfied by *every* completion of the
//!    partial assignment (`hi ≤ rhs` for `≤`, `lo ≥ rhs` for `≥`,
//!    `lo = hi = rhs` for `=`) is dropped — it can never steer the search.
//! 3. **Free variables.** An unfixed variable in no remaining constraint
//!    is assigned greedily by its objective coefficient (`> 0` → true):
//!    optimal, since nothing else observes it.
//! 4. **Components.** The remaining variables are grouped by union-find
//!    over co-occurrence in active constraints; each group becomes an
//!    independent sub-[`Model`] with remapped variables and
//!    fixed-term-adjusted right-hand sides, written with its occurrence
//!    index in one pass once the rows and terms are counted.
//!    [`Reduction::stitch`] reassembles a full assignment.
//!
//! Relaxing an encoding changes no row's terms, so one index serves both
//! rungs. The per-row pass in `tests/reduce_oracle/` is the differential
//! oracle; exact branch-and-bound over the whole, unreduced model checks
//! that stitched component solutions keep its feasibility and optimum
//! (see `tests/solver_props.rs`).

use std::collections::VecDeque;

use crate::model::{Model, Occurrences, Relation, Term, Var};

/// One independent sub-instance of a reduced model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Global variable ids, ascending; sub-model variable `k` is
    /// `vars[k]`.
    pub vars: Vec<Var>,
    /// The remapped sub-model (constraints restricted to `vars`, right-
    /// hand sides adjusted for fixed terms, objective restricted).
    pub model: Model,
    /// The occurrence index of `model`.
    pub occurrences: Occurrences,
}

/// The result of [`reduce_model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduction {
    /// Per-variable fixed value: `Some` for propagation-forced and free
    /// variables, `None` for variables owned by a component.
    pub fixed: Vec<Option<bool>>,
    /// Independent sub-instances, ordered by their smallest global
    /// variable.
    pub components: Vec<Component>,
    /// Propagation proved the model unsatisfiable.
    pub infeasible: bool,
    /// Variables fixed by propagation.
    pub forced: usize,
    /// Unconstrained variables assigned greedily by objective sign.
    pub free: usize,
    /// Constraints dropped as entailed.
    pub entailed: usize,
}

impl Reduction {
    /// Variables removed from the search space (forced + free) — the
    /// `solve.pruned_vars` counter.
    pub fn pruned_vars(&self) -> usize {
        self.forced + self.free
    }

    /// Stitches per-component assignments (in component order) and the
    /// fixed variables back into a full assignment of the original model.
    pub fn stitch(&self, parts: &[Vec<bool>]) -> Vec<bool> {
        debug_assert_eq!(parts.len(), self.components.len());
        let mut full = self.completed();
        for (comp, part) in self.components.iter().zip(parts) {
            for (k, &v) in comp.vars.iter().enumerate() {
                full[v] = part[k];
            }
        }
        full
    }

    /// The propagated partial assignment completed with `false` — the
    /// best-effort witness used for infeasibility diagnostics.
    pub fn completed(&self) -> Vec<bool> {
        self.fixed.iter().map(|f| f.unwrap_or(false)).collect()
    }
}

/// `true` when no completion can satisfy `rel rhs` given LHS in `[lo, hi]`.
fn range_infeasible(rel: Relation, lo: i64, hi: i64, rhs: i64) -> bool {
    match rel {
        Relation::Le => lo > rhs,
        Relation::Ge => hi < rhs,
        Relation::Eq => lo > rhs || hi < rhs,
    }
}

/// `true` when every completion satisfies `rel rhs`.
fn range_entailed(rel: Relation, lo: i64, hi: i64, rhs: i64) -> bool {
    match rel {
        Relation::Le => hi <= rhs,
        Relation::Ge => lo >= rhs,
        Relation::Eq => lo == rhs && hi == rhs,
    }
}

fn find(uf: &mut [usize], mut v: usize) -> usize {
    while uf[v] != v {
        uf[v] = uf[uf[v]];
        v = uf[v];
    }
    v
}

/// Union by smallest root, so component order is the variable order.
fn union(uf: &mut [usize], a: usize, b: usize) {
    let ra = find(uf, a);
    let rb = find(uf, b);
    if ra != rb {
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        uf[hi] = lo;
    }
}

/// Marks a missing variable, slot or component.
const NONE: usize = usize::MAX;

/// Reduces `model`, whose occurrence index is `occ`: propagates forced
/// assignments to fixpoint, drops entailed constraints, assigns free
/// variables, and splits what is left into independent components.
pub fn reduce_model(model: &Model, occ: &Occurrences) -> Reduction {
    debug_assert_eq!(occ.row.len(), model.terms.len(), "another model's index");
    let n = model.num_vars;
    let ncon = model.num_rows();
    let mut fixed: Vec<Option<bool>> = vec![None; n];
    let mut forced = 0usize;

    // `[lo, hi]` of every row's left-hand side over the completions of
    // `fixed`.
    let mut lo = vec![0i64; ncon];
    let mut hi = vec![0i64; ncon];
    for (r, c) in model.rows().enumerate() {
        for t in c.terms {
            if t.coef > 0 {
                hi[r] += i64::from(t.coef);
            } else {
                lo[r] += i64::from(t.coef);
            }
        }
    }

    // Propagation worklist over constraints.
    let mut queued = vec![true; ncon];
    let mut queue: VecDeque<u32> = (0..ncon as u32).collect();
    let mut infeasible = false;
    'prop: while let Some(ci) = queue.pop_front() {
        let ci = ci as usize;
        queued[ci] = false;
        let c = model.row(ci);
        let (lo_c, hi_c, rhs) = (lo[ci], hi[ci], i64::from(c.rhs));
        if range_infeasible(c.rel, lo_c, hi_c, rhs) {
            infeasible = true;
            break 'prop;
        }
        // A term can be forced only if moving it by its `|coef|` leaves
        // the range; when no term is that wide, the scan below would
        // find nothing.
        let widest = c
            .terms
            .iter()
            .map(|t| i64::from(t.coef.abs()))
            .max()
            .unwrap_or(0);
        let (caps, floors) = (c.rel != Relation::Ge, c.rel != Relation::Le);
        if !(caps && lo_c + widest > rhs || floors && hi_c - widest < rhs) {
            continue;
        }
        for t in c.terms {
            if fixed[t.var].is_some() {
                continue;
            }
            let (tlo, thi) = if t.coef > 0 {
                (0i64, i64::from(t.coef))
            } else {
                (i64::from(t.coef), 0i64)
            };
            // The rest of the constraint with this term's value pinned to
            // `cv`: if no completion of the rest can save it, the value is
            // impossible.
            let (rest_lo, rest_hi) = (lo_c - tlo, hi_c - thi);
            let impossible = |cv: i64| match c.rel {
                Relation::Le => rest_lo + cv > rhs,
                Relation::Ge => rest_hi + cv < rhs,
                Relation::Eq => rest_lo + cv > rhs || rest_hi + cv < rhs,
            };
            let true_imp = impossible(i64::from(t.coef));
            let false_imp = impossible(0);
            if true_imp && false_imp {
                infeasible = true;
                break 'prop;
            }
            if true_imp || false_imp {
                let value = false_imp;
                fixed[t.var] = Some(value);
                forced += 1;
                // Narrow the ranges of the variable's rows and requeue
                // them; this row is one of them, so it is rescanned
                // fresh.
                let (rows, coefs) = occ.of(t.var);
                for (&cj, &coef) in rows.iter().zip(coefs) {
                    let r = cj as usize;
                    if value == (coef > 0) {
                        lo[r] += i64::from(coef.abs());
                    } else {
                        hi[r] -= i64::from(coef.abs());
                    }
                    if !queued[r] {
                        queued[r] = true;
                        queue.push_back(cj);
                    }
                }
                continue 'prop;
            }
        }
    }

    if infeasible {
        return Reduction {
            fixed,
            components: Vec::new(),
            infeasible: true,
            forced,
            free: 0,
            entailed: 0,
        };
    }

    // Entailment drops the rows that can no longer bite; each active row
    // unites its unfixed variables (union-find) and is kept with the
    // first of them. `uses[v]` counts the active rows' terms on `v`.
    let mut active: Vec<(usize, Var)> = Vec::new();
    let mut entailed = 0usize;
    let mut uf: Vec<usize> = (0..n).collect();
    let mut uses = vec![0usize; n];
    for ci in 0..ncon {
        if range_entailed(model.rel[ci], lo[ci], hi[ci], i64::from(model.rhs[ci])) {
            entailed += 1;
            continue;
        }
        let mut first = NONE;
        for t in model.row(ci).terms {
            if fixed[t.var].is_some() {
                continue;
            }
            uses[t.var] += 1;
            if first == NONE {
                first = t.var;
            } else {
                union(&mut uf, first, t.var);
            }
        }
        debug_assert_ne!(first, NONE, "an active row has unfixed terms");
        active.push((ci, first));
    }

    // Free variables: unfixed, observed by no active constraint. Greedy by
    // objective coefficient — optimal, nothing else sees them.
    let mut obj = vec![0i64; n];
    for t in &model.objective {
        obj[t.var] += i64::from(t.coef);
    }
    let mut free = 0usize;
    for v in 0..n {
        if fixed[v].is_none() && uses[v] == 0 {
            fixed[v] = Some(obj[v] > 0);
            free += 1;
        }
    }

    // Group the remaining variables into components (ascending var order
    // within and across components).
    let mut comp_of_root = vec![NONE; n];
    let mut comp_of_var = vec![NONE; n];
    let mut local = vec![NONE; n];
    let mut comp_vars: Vec<Vec<Var>> = Vec::new();
    for v in (0..n).filter(|&v| fixed[v].is_none()) {
        let r = find(&mut uf, v);
        if comp_of_root[r] == NONE {
            comp_of_root[r] = comp_vars.len();
            comp_vars.push(Vec::new());
        }
        let k = comp_of_root[r];
        local[v] = comp_vars[k].len();
        comp_of_var[v] = k;
        comp_vars[k].push(v);
    }

    // Size each component's row store and index: its active rows, and
    // `uses` of its variables for the terms; `slot[v]` is where the next
    // index entry of `v` goes.
    let mut rows = vec![0usize; comp_vars.len()];
    for &(_, first) in &active {
        rows[comp_of_var[first]] += 1;
    }
    let mut slot = vec![NONE; n];
    let mut components: Vec<Component> = comp_vars
        .into_iter()
        .zip(rows)
        .map(|(vars, rows)| {
            let mut start = Vec::with_capacity(vars.len() + 1);
            start.push(0);
            for &v in &vars {
                slot[v] = start[start.len() - 1];
                start.push(slot[v] + uses[v]);
            }
            let terms = start[vars.len()];
            Component {
                model: Model::with_capacity(vars.len(), rows, terms),
                occurrences: Occurrences {
                    start,
                    row: vec![0; terms],
                    coef: vec![0; terms],
                },
                vars,
            }
        })
        .collect();

    // Write each active row into its component's row store and index.
    for &(ci, first) in &active {
        let c = model.row(ci);
        let comp = &mut components[comp_of_var[first]];
        let (sub, index) = (&mut comp.model, &mut comp.occurrences);
        let r = u32::try_from(sub.num_rows()).expect("fewer than 2^32 rows");
        let mut rhs = c.rhs;
        for t in c.terms {
            match fixed[t.var] {
                Some(true) => rhs -= t.coef,
                Some(false) => {}
                None => {
                    sub.terms.push(Term {
                        var: local[t.var],
                        coef: t.coef,
                    });
                    index.row[slot[t.var]] = r;
                    index.coef[slot[t.var]] = t.coef;
                    slot[t.var] += 1;
                }
            }
        }
        sub.row_start.push(sub.terms.len());
        sub.rel.push(c.rel);
        sub.rhs.push(rhs);
    }
    for t in &model.objective {
        if fixed[t.var].is_none() {
            components[comp_of_var[t.var]].model.objective.push(Term {
                var: local[t.var],
                coef: t.coef,
            });
        }
    }

    Reduction {
        fixed,
        components,
        infeasible: false,
        forced,
        free,
        entailed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode, EncodeOptions};
    use crate::exact::{solve_bnb, BnbOutcome};

    fn reduce(model: &Model) -> Reduction {
        reduce_model(model, &Occurrences::new(model))
    }

    /// Solves a component to optimality (or first feasibility).
    fn solve(model: &Model) -> Vec<bool> {
        match solve_bnb(model, 10_000) {
            BnbOutcome::Optimal { assignment, .. } => assignment,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn superpages_strict_encoding_fully_forced_by_propagation() {
        // On the paper's clean running example the uniqueness singletons
        // cascade through consecutiveness and position constraints until
        // every variable is forced — zero search needed.
        let obs = crate::encoder::tests::superpages_obs();
        let enc = encode(&obs, &EncodeOptions::default());
        let red = reduce(&enc.model);
        assert!(!red.infeasible);
        assert!(red.components.is_empty(), "{:?}", red.components.len());
        assert_eq!(red.forced, enc.model.num_vars);
        let full = red.stitch(&[]);
        assert!(enc.model.feasible(&full));
        // The forced assignment is the paper's Table 2.
        let seg = crate::solution::decode(&enc, &full, &obs);
        let expected: Vec<Option<u32>> = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
            .into_iter()
            .map(Some)
            .collect();
        assert_eq!(seg.assignments, expected);
    }

    #[test]
    fn relaxed_encoding_decomposes_without_forcing() {
        let obs = crate::encoder::tests::superpages_obs();
        let mut enc = encode(&obs, &EncodeOptions::default());
        enc.relax();
        let red = reduce(&enc.model);
        assert!(!red.infeasible);
        assert_eq!(red.forced, 0, "pure ≤ constraints cannot force");
        let in_comps: usize = red.components.iter().map(|c| c.vars.len()).sum();
        assert_eq!(red.forced + red.free + in_comps, enc.model.num_vars);
        // Singleton uniq/pos constraints are entailed and dropped.
        assert!(red.entailed > 0);
    }

    #[test]
    fn contradiction_is_infeasible() {
        let mut m = Model::new(1);
        m.add_sum([0], Relation::Eq, 1);
        m.add_sum([0], Relation::Eq, 0);
        let red = reduce(&m);
        assert!(red.infeasible);
    }

    #[test]
    fn unreachable_rhs_is_infeasible() {
        let mut m = Model::new(2);
        m.add_sum([0, 1], Relation::Ge, 3);
        assert!(reduce(&m).infeasible);
    }

    #[test]
    fn free_vars_follow_objective_sign() {
        let mut m = Model::new(3);
        m.maximize_sum([0]);
        let red = reduce(&m);
        assert!(!red.infeasible);
        assert_eq!(red.free, 3);
        assert_eq!(red.fixed, vec![Some(true), Some(false), Some(false)]);
    }

    #[test]
    fn entailed_constraints_release_their_vars() {
        let mut m = Model::new(2);
        m.add_sum([0, 1], Relation::Le, 2);
        m.maximize_sum([0, 1]);
        let red = reduce(&m);
        assert_eq!(red.entailed, 1);
        assert_eq!(red.free, 2);
        assert!(red.components.is_empty());
        assert_eq!(m.objective_value(&red.stitch(&[])), 2);
    }

    #[test]
    fn independent_constraints_split_into_components() {
        let mut m = Model::new(4);
        m.add_sum([0, 1], Relation::Eq, 1);
        m.add_sum([2, 3], Relation::Eq, 1);
        let red = reduce(&m);
        assert_eq!(red.components.len(), 2);
        assert_eq!(red.components[0].vars, vec![0, 1]);
        assert_eq!(red.components[1].vars, vec![2, 3]);
        let parts: Vec<Vec<bool>> = red.components.iter().map(|c| solve(&c.model)).collect();
        assert!(m.feasible(&red.stitch(&parts)));
    }

    #[test]
    fn fixed_terms_adjust_component_rhs() {
        // x0 = 1 forced; x0 + x1 - x2 ≤ 1 becomes x1 - x2 ≤ 0 in the
        // component of {x1, x2}.
        let mut m = Model::new(3);
        m.add_sum([0], Relation::Eq, 1);
        m.add(
            [(0, 1), (1, 1), (2, -1)].map(|(var, coef)| Term { var, coef }),
            Relation::Le,
            1,
        );
        let red = reduce(&m);
        assert!(!red.infeasible);
        assert_eq!(red.fixed[0], Some(true));
        assert_eq!(red.components.len(), 1);
        let comp = &red.components[0];
        assert_eq!(comp.vars, vec![1, 2]);
        assert_eq!(comp.model.num_rows(), 1);
        assert_eq!(comp.model.row(0).rhs, 0);
        assert_eq!(comp.model.row(0).terms.len(), 2);
    }

    #[test]
    fn stitched_component_solutions_satisfy_the_original_model() {
        // A chain that partially propagates and leaves one cluster.
        let mut m = Model::new(6);
        m.add_sum([0], Relation::Eq, 1);
        m.add_sum([0, 1], Relation::Le, 1); // forces x1 = 0
        m.add_sum([2, 3, 4], Relation::Eq, 2);
        m.add_sum([4, 5], Relation::Le, 1);
        let red = reduce(&m);
        assert!(!red.infeasible);
        assert_eq!(red.fixed[0], Some(true));
        assert_eq!(red.fixed[1], Some(false));
        let parts: Vec<Vec<bool>> = red.components.iter().map(|c| solve(&c.model)).collect();
        assert!(m.feasible(&red.stitch(&parts)));
    }
}
