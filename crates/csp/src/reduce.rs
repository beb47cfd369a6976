//! Instance reduction for pseudo-boolean models: bounds-consistency
//! propagation, entailed-constraint elimination, and connected-component
//! decomposition.
//!
//! The segmentation encodings of Section 4 are mostly *easy*: on clean
//! sites the uniqueness singletons (`x = 1`) cascade through the
//! consecutiveness and position constraints until every variable is
//! forced, and even on dirty sites the constraint graph falls apart into
//! small independent clusters (one per run of entangled extracts). This
//! pass exploits both structures before any stochastic search runs:
//!
//! 1. **Propagation.** For every constraint, the achievable range
//!    `[lo, hi]` of its left-hand side under the current partial
//!    assignment is maintained. A constraint whose range excludes the
//!    right-hand side proves the model infeasible; a variable whose value
//!    `v` would make a constraint unsatisfiable regardless of the other
//!    variables is forced to `!v`. Forcing re-enqueues the variable's
//!    other constraints (a worklist to fixpoint).
//! 2. **Entailment.** A constraint satisfied by *every* completion of the
//!    partial assignment (`hi ≤ rhs` for `≤`, `lo ≥ rhs` for `≥`,
//!    `lo = hi = rhs` for `=`) is dropped — it can never steer the search.
//! 3. **Free variables.** An unfixed variable in no remaining constraint
//!    is assigned greedily by its objective coefficient (`> 0` → true):
//!    optimal, since nothing else observes it.
//! 4. **Components.** The remaining variables are grouped by union-find
//!    over co-occurrence in active constraints; each group becomes an
//!    independent sub-[`Model`] with remapped variables and
//!    fixed-term-adjusted right-hand sides, solvable in isolation (and in
//!    parallel). [`Reduction::stitch`] reassembles a full assignment.
//!
//! The whole-instance solver stays available as a differential oracle:
//! stitching component solutions must reproduce exactly the feasibility
//! the unreduced model has (see `tests/solver_props.rs`).

use std::collections::VecDeque;

use crate::model::{Constraint, Model, Relation, Term, Var};

/// One independent sub-instance of a reduced model.
#[derive(Debug, Clone)]
pub struct Component {
    /// Global variable ids, ascending; sub-model variable `k` is
    /// `vars[k]`.
    pub vars: Vec<Var>,
    /// The remapped sub-model (constraints restricted to `vars`, right-
    /// hand sides adjusted for fixed terms, objective restricted).
    pub model: Model,
}

/// The result of [`reduce_model`].
#[derive(Debug, Clone)]
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
        let mut full: Vec<bool> = self.fixed.iter().map(|f| f.unwrap_or(false)).collect();
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

/// `[lo, hi]` of a constraint's LHS over all completions of `fixed`.
fn bounds(c: &Constraint, fixed: &[Option<bool>]) -> (i64, i64) {
    let mut lo = 0i64;
    let mut hi = 0i64;
    for t in &c.terms {
        match fixed[t.var] {
            Some(true) => {
                lo += i64::from(t.coef);
                hi += i64::from(t.coef);
            }
            Some(false) => {}
            None => {
                if t.coef > 0 {
                    hi += i64::from(t.coef);
                } else {
                    lo += i64::from(t.coef);
                }
            }
        }
    }
    (lo, hi)
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

/// Reduces `model`: propagates forced assignments to fixpoint, drops
/// entailed constraints, assigns free variables, and splits what is left
/// into independent components.
pub fn reduce_model(model: &Model) -> Reduction {
    let n = model.num_vars;
    let ncon = model.constraints.len();
    let mut fixed: Vec<Option<bool>> = vec![None; n];
    let mut forced = 0usize;

    let mut occurs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, c) in model.constraints.iter().enumerate() {
        for t in &c.terms {
            occurs[t.var].push(ci);
        }
    }

    // Propagation worklist over constraints.
    let mut queued = vec![true; ncon];
    let mut queue: VecDeque<usize> = (0..ncon).collect();
    let mut infeasible = false;
    'prop: while let Some(ci) = queue.pop_front() {
        queued[ci] = false;
        let c = &model.constraints[ci];
        let (lo, hi) = bounds(c, &fixed);
        let rhs = i64::from(c.rhs);
        if range_infeasible(c.rel, lo, hi, rhs) {
            infeasible = true;
            break 'prop;
        }
        for t in &c.terms {
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
            let (rest_lo, rest_hi) = (lo - tlo, hi - thi);
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
                fixed[t.var] = Some(false_imp);
                forced += 1;
                for &cj in &occurs[t.var] {
                    if !queued[cj] {
                        queued[cj] = true;
                        queue.push_back(cj);
                    }
                }
                // This constraint's bounds just moved: rescan it fresh.
                if !queued[ci] {
                    queued[ci] = true;
                    queue.push_back(ci);
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

    // Entailment: keep only constraints that can still bite.
    let mut active: Vec<usize> = Vec::new();
    let mut entailed = 0usize;
    for (ci, c) in model.constraints.iter().enumerate() {
        let (lo, hi) = bounds(c, &fixed);
        if range_entailed(c.rel, lo, hi, i64::from(c.rhs)) {
            entailed += 1;
        } else {
            active.push(ci);
        }
    }

    // Union-find over unfixed variables co-occurring in active constraints.
    let mut uf: Vec<usize> = (0..n).collect();
    let mut in_active = vec![false; n];
    for &ci in &active {
        let mut first: Option<usize> = None;
        for t in &model.constraints[ci].terms {
            if fixed[t.var].is_some() {
                continue;
            }
            in_active[t.var] = true;
            match first {
                None => first = Some(t.var),
                Some(f) => union(&mut uf, f, t.var),
            }
        }
    }

    // Free variables: unfixed, observed by no active constraint. Greedy by
    // objective coefficient — optimal, nothing else sees them.
    let mut obj = vec![0i64; n];
    for t in &model.objective {
        obj[t.var] += i64::from(t.coef);
    }
    let mut free = 0usize;
    for v in 0..n {
        if fixed[v].is_none() && !in_active[v] {
            fixed[v] = Some(obj[v] > 0);
            free += 1;
        }
    }

    // Group the remaining variables into components (ascending var order
    // within and across components).
    let mut comp_of_root: Vec<usize> = vec![usize::MAX; n];
    let mut comp_vars: Vec<Vec<usize>> = Vec::new();
    let mut local = vec![usize::MAX; n];
    let mut comp_of_var = vec![usize::MAX; n];
    for v in 0..n {
        if fixed[v].is_none() {
            let r = find(&mut uf, v);
            if comp_of_root[r] == usize::MAX {
                comp_of_root[r] = comp_vars.len();
                comp_vars.push(Vec::new());
            }
            let idx = comp_of_root[r];
            local[v] = comp_vars[idx].len();
            comp_of_var[v] = idx;
            comp_vars[idx].push(v);
        }
    }

    let mut components: Vec<Component> = comp_vars
        .iter()
        .map(|vars| Component {
            vars: vars.clone(),
            model: Model::new(vars.len()),
        })
        .collect();
    for &ci in &active {
        let c = &model.constraints[ci];
        let mut rhs = c.rhs;
        let mut terms = Vec::new();
        let mut comp = usize::MAX;
        for t in &c.terms {
            match fixed[t.var] {
                Some(true) => rhs -= t.coef,
                Some(false) => {}
                None => {
                    comp = comp_of_var[t.var];
                    terms.push(Term {
                        var: local[t.var],
                        coef: t.coef,
                    });
                }
            }
        }
        debug_assert_ne!(comp, usize::MAX, "active constraint has unfixed vars");
        components[comp].model.add(Constraint {
            terms,
            rel: c.rel,
            rhs,
        });
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
    use crate::model::{Constraint, Model, Relation};
    use crate::wsat::{solve, WsatConfig};

    #[test]
    fn superpages_strict_encoding_fully_forced_by_propagation() {
        // On the paper's clean running example the uniqueness singletons
        // cascade through consecutiveness and position constraints until
        // every variable is forced — zero search needed.
        let obs = crate::encoder::tests::superpages_obs();
        let enc = encode(&obs, &EncodeOptions::default());
        let red = reduce_model(&enc.model);
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
        let red = reduce_model(&enc.model);
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
        m.add(Constraint::sum([0], Relation::Eq, 1));
        m.add(Constraint::sum([0], Relation::Eq, 0));
        let red = reduce_model(&m);
        assert!(red.infeasible);
    }

    #[test]
    fn unreachable_rhs_is_infeasible() {
        let mut m = Model::new(2);
        m.add(Constraint::sum([0, 1], Relation::Ge, 3));
        assert!(reduce_model(&m).infeasible);
    }

    #[test]
    fn free_vars_follow_objective_sign() {
        let mut m = Model::new(3);
        m.maximize_sum([0]);
        let red = reduce_model(&m);
        assert!(!red.infeasible);
        assert_eq!(red.free, 3);
        assert_eq!(red.fixed, vec![Some(true), Some(false), Some(false)]);
    }

    #[test]
    fn entailed_constraints_release_their_vars() {
        let mut m = Model::new(2);
        m.add(Constraint::sum([0, 1], Relation::Le, 2));
        m.maximize_sum([0, 1]);
        let red = reduce_model(&m);
        assert_eq!(red.entailed, 1);
        assert_eq!(red.free, 2);
        assert!(red.components.is_empty());
        assert_eq!(m.objective_value(&red.stitch(&[])), 2);
    }

    #[test]
    fn independent_constraints_split_into_components() {
        let mut m = Model::new(4);
        m.add(Constraint::sum([0, 1], Relation::Eq, 1));
        m.add(Constraint::sum([2, 3], Relation::Eq, 1));
        let red = reduce_model(&m);
        assert_eq!(red.components.len(), 2);
        assert_eq!(red.components[0].vars, vec![0, 1]);
        assert_eq!(red.components[1].vars, vec![2, 3]);
        let parts: Vec<Vec<bool>> = red
            .components
            .iter()
            .map(|c| {
                let r = solve(&c.model, &WsatConfig::default());
                assert!(r.feasible);
                r.assignment
            })
            .collect();
        assert!(m.feasible(&red.stitch(&parts)));
    }

    #[test]
    fn fixed_terms_adjust_component_rhs() {
        // x0 = 1 forced; x0 + x1 - x2 ≤ 1 becomes x1 - x2 ≤ 0 in the
        // component of {x1, x2}.
        let mut m = Model::new(3);
        m.add(Constraint::sum([0], Relation::Eq, 1));
        m.add(Constraint {
            terms: vec![
                Term { var: 0, coef: 1 },
                Term { var: 1, coef: 1 },
                Term { var: 2, coef: -1 },
            ],
            rel: Relation::Le,
            rhs: 1,
        });
        let red = reduce_model(&m);
        assert!(!red.infeasible);
        assert_eq!(red.fixed[0], Some(true));
        assert_eq!(red.components.len(), 1);
        let comp = &red.components[0];
        assert_eq!(comp.vars, vec![1, 2]);
        assert_eq!(comp.model.constraints.len(), 1);
        assert_eq!(comp.model.constraints[0].rhs, 0);
        assert_eq!(comp.model.constraints[0].terms.len(), 2);
    }

    #[test]
    fn stitched_component_solutions_satisfy_the_original_model() {
        // A chain that partially propagates and leaves one cluster.
        let mut m = Model::new(6);
        m.add(Constraint::sum([0], Relation::Eq, 1));
        m.add(Constraint::sum([0, 1], Relation::Le, 1)); // forces x1 = 0
        m.add(Constraint::sum([2, 3, 4], Relation::Eq, 2));
        m.add(Constraint::sum([4, 5], Relation::Le, 1));
        let red = reduce_model(&m);
        assert!(!red.infeasible);
        assert_eq!(red.fixed[0], Some(true));
        assert_eq!(red.fixed[1], Some(false));
        let parts: Vec<Vec<bool>> = red
            .components
            .iter()
            .map(|c| solve(&c.model, &WsatConfig::default()).assignment)
            .collect();
        assert!(m.feasible(&red.stitch(&parts)));
    }
}
