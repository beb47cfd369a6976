//! The per-row reduction: the differential oracle for
//! `tableseg_csp::reduce_model`.
//!
//! It recomputes a row's `[lo, hi]` from the partial assignment every
//! time the worklist pops the row, keeps one occurrence list per
//! variable, and builds each component row by row before indexing it.
//! The production pass keeps the ranges current through the shared
//! occurrence index and writes components straight into flat stores; the
//! property tests check that both return the same [`Reduction`]. Test
//! binaries include it with `mod reduce_oracle;`.

#![allow(dead_code)]

use std::collections::VecDeque;

use tableseg_csp::model::{Model, Relation, Row, Term};
use tableseg_csp::{Component, Occurrences, Reduction};

/// `[lo, hi]` of a row's left-hand side over all completions of `fixed`.
fn bounds(c: &Row<'_>, fixed: &[Option<bool>]) -> (i64, i64) {
    let mut lo = 0i64;
    let mut hi = 0i64;
    for t in c.terms {
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

fn range_infeasible(rel: Relation, lo: i64, hi: i64, rhs: i64) -> bool {
    match rel {
        Relation::Le => lo > rhs,
        Relation::Ge => hi < rhs,
        Relation::Eq => lo > rhs || hi < rhs,
    }
}

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

fn union(uf: &mut [usize], a: usize, b: usize) {
    let ra = find(uf, a);
    let rb = find(uf, b);
    if ra != rb {
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        uf[hi] = lo;
    }
}

/// Reduces `model` the per-row way: propagation to fixpoint,
/// entailment, free variables and components, each component model
/// built with [`Model::add`] and indexed afterwards.
pub fn reduce_per_row(model: &Model) -> Reduction {
    let n = model.num_vars;
    let ncon = model.num_rows();
    let mut fixed: Vec<Option<bool>> = vec![None; n];
    let mut forced = 0usize;

    let mut occurs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, c) in model.rows().enumerate() {
        for t in c.terms {
            occurs[t.var].push(ci);
        }
    }

    let mut queued = vec![true; ncon];
    let mut queue: VecDeque<usize> = (0..ncon).collect();
    let mut infeasible = false;
    'prop: while let Some(ci) = queue.pop_front() {
        queued[ci] = false;
        let c = model.row(ci);
        let (lo, hi) = bounds(&c, &fixed);
        let rhs = i64::from(c.rhs);
        if range_infeasible(c.rel, lo, hi, rhs) {
            infeasible = true;
            break 'prop;
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

    let mut active: Vec<usize> = Vec::new();
    let mut entailed = 0usize;
    for (ci, c) in model.rows().enumerate() {
        let (lo, hi) = bounds(&c, &fixed);
        if range_entailed(c.rel, lo, hi, i64::from(c.rhs)) {
            entailed += 1;
        } else {
            active.push(ci);
        }
    }

    let mut uf: Vec<usize> = (0..n).collect();
    let mut in_active = vec![false; n];
    for &ci in &active {
        let mut first: Option<usize> = None;
        for t in model.row(ci).terms {
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

    let mut models: Vec<Model> = comp_vars
        .iter()
        .map(|vars| Model::new(vars.len()))
        .collect();
    for &ci in &active {
        let c = model.row(ci);
        let mut rhs = c.rhs;
        let mut terms = Vec::new();
        let mut comp = usize::MAX;
        for t in c.terms {
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
        assert_ne!(comp, usize::MAX, "active constraint has unfixed vars");
        models[comp].add(terms, c.rel, rhs);
    }
    for t in &model.objective {
        if fixed[t.var].is_none() {
            models[comp_of_var[t.var]].objective.push(Term {
                var: local[t.var],
                coef: t.coef,
            });
        }
    }
    let components = comp_vars
        .into_iter()
        .zip(models)
        .map(|(vars, model)| Component {
            vars,
            occurrences: Occurrences::new(&model),
            model,
        })
        .collect();

    Reduction {
        fixed,
        components,
        infeasible: false,
        forced,
        free,
        entailed,
    }
}
