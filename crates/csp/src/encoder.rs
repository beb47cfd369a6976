//! Encoding the record-segmentation problem as a pseudo-boolean model
//! (Sections 4.1–4.2 of the paper).
//!
//! Let `x_ij` be the assignment variable: `x_ij = 1` when extract `E_i` is
//! assigned to record `r_j`. Variables exist only for `r_j ∈ D_i`
//! (occurrence); all other `x_ij` are fixed 0 and never materialize.
//!
//! * **Uniqueness** — "Every extract `E_i` belongs to exactly one record
//!   `r_j`": `Σ_j x_ij = 1`, relaxable to `Σ_j x_ij ≤ 1`.
//! * **Consecutiveness** — "only contiguous blocks of extracts can be
//!   assigned to the same record": `x_ij + x_kj ≤ 1` when some extract
//!   between `k` and `i` cannot be in `r_j` at all, and
//!   `x_kj + x_ij − x_nj ≤ 1` for every in-between candidate `n`.
//! * **Position** — extracts observed at the same position of detail page
//!   `j` compete for one field occurrence: exactly one of them may be
//!   assigned to `r_j` (`Σ x_ij = 1`, relaxable to `≤ 1`).

use tableseg_extract::positions::position_groups;
use tableseg_extract::Observations;

use crate::model::{Constraint, Model, Relation, Term};

/// Options controlling the encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeOptions {
    /// Include the Section 4.2 position constraints.
    pub position_constraints: bool,
}

impl Default for EncodeOptions {
    fn default() -> EncodeOptions {
        EncodeOptions {
            position_constraints: true,
        }
    }
}

/// A pseudo-boolean encoding of a segmentation problem, with the mapping
/// between model variables and `(extract, record)` pairs.
#[derive(Debug, Clone)]
pub struct Encoding {
    /// The model to solve.
    pub model: Model,
    /// `vars[v] = (i, j)`: model variable `v` is the paper's `x_ij`.
    /// Variables run extract by extract, each extract's in ascending
    /// record order.
    pub vars: Vec<(usize, u32)>,
    /// `first[i]` is extract `i`'s first variable; one extra entry closes
    /// the last extract's range.
    first: Vec<usize>,
}

/// The variable for `x_ij` in a layout given by `vars` and `first`.
fn lookup(vars: &[(usize, u32)], first: &[usize], extract: usize, record: u32) -> Option<usize> {
    let start = *first.get(extract)?;
    let end = *first.get(extract + 1)?;
    vars[start..end]
        .binary_search_by_key(&record, |&(_, j)| j)
        .ok()
        .map(|k| start + k)
}

impl Encoding {
    /// The variable for `x_ij`, if `r_j ∈ D_i`.
    pub fn var(&self, extract: usize, record: u32) -> Option<usize> {
        lookup(&self.vars, &self.first, extract, record)
    }

    /// Relaxes the encoding in place, the paper's response to
    /// unsatisfiable data (Section 6.3): the uniqueness and position
    /// equalities become `≤` and the objective maximizes the number of
    /// assigned extracts. The variable layout is unchanged, so an
    /// assignment of the strict model carries over to the relaxed one
    /// variable for variable.
    pub fn relax(&mut self) {
        for c in &mut self.model.constraints {
            if c.rel == Relation::Eq {
                c.rel = Relation::Le;
            }
        }
        self.model.maximize_sum(0..self.vars.len());
    }

    /// Upper bound on the objective, derived from the relaxation itself:
    /// the objective counts assigned extracts and uniqueness caps each
    /// extract at one record, so no assignment can exceed the number of
    /// distinct extracts with at least one candidate record. `None` when
    /// the encoding has no objective (the strict, pure-satisfaction case).
    pub fn objective_upper_bound(&self) -> Option<i64> {
        if self.model.objective.is_empty() {
            return None;
        }
        Some(self.first.windows(2).filter(|w| w[0] < w[1]).count() as i64)
    }
}

/// Builds the strict encoding of an observation table; [`Encoding::relax`]
/// derives the relaxed one from it.
pub fn encode(obs: &Observations, opts: &EncodeOptions) -> Encoding {
    let mut vars = Vec::new();
    let mut first = Vec::with_capacity(obs.items.len() + 1);
    // Per record `j`: its candidate extracts in ascending order, each with
    // its variable `x_ij`.
    let mut members: Vec<Vec<(usize, usize)>> = vec![Vec::new(); obs.num_records];
    for (i, item) in obs.items.iter().enumerate() {
        first.push(vars.len());
        for &j in &item.pages {
            if let Some(m) = members.get_mut(j as usize) {
                m.push((i, vars.len()));
            }
            vars.push((i, j));
        }
    }
    first.push(vars.len());
    let mut model = Model::new(vars.len());

    // Uniqueness.
    for w in first.windows(2) {
        model.add(Constraint::sum(w[0]..w[1], Relation::Eq, 1));
    }

    // Consecutiveness, per record.
    for members in &members {
        for (a, &(k, xk)) in members.iter().enumerate() {
            for (b, &(i, xi)) in members.iter().enumerate().skip(a + 1) {
                if i - k != b - a {
                    // Fewer candidates than extracts lie between the two:
                    // an in-between extract cannot be in r_j, which makes
                    // the pair mutually exclusive.
                    model.add(Constraint::sum([xk, xi], Relation::Le, 1));
                } else {
                    // Every in-between extract is a candidate: the pair may
                    // co-exist only if each middle is also assigned to r_j.
                    for &(_, xn) in &members[a + 1..b] {
                        model.add(Constraint {
                            terms: vec![
                                Term { var: xk, coef: 1 },
                                Term { var: xi, coef: 1 },
                                Term { var: xn, coef: -1 },
                            ],
                            rel: Relation::Le,
                            rhs: 1,
                        });
                    }
                }
            }
        }
    }

    // Position constraints (Section 4.2).
    if opts.position_constraints {
        for group in position_groups(obs) {
            let vs = group.extracts.iter().map(|&i| {
                lookup(&vars, &first, i, group.page)
                    .expect("an extract is a candidate of every page it was observed on")
            });
            model.add(Constraint::sum(vs, Relation::Eq, 1));
        }
    }

    Encoding { model, vars, first }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tableseg_extract::build_observations;
    use tableseg_html::{lexer::tokenize, Token};

    /// The paper's Superpages example (Tables 1-3).
    pub(crate) fn superpages_obs() -> Observations {
        let list = tokenize(
            "<tr><td>John Smith</td><td>221 Washington</td><td>New Holland</td><td>(740) 335-5555</td></tr>\
             <tr><td>John Smith</td><td>221R Washington St</td><td>Wash CH</td><td>(740) 335-5555</td></tr>\
             <tr><td>George W. Smith</td><td>Findlay, OH</td><td>(419) 423-1212</td></tr>",
        );
        let d1 = tokenize(
            "<h1>John Smith</h1><p>221 Washington</p><p>New Holland</p><p>(740) 335-5555</p>",
        );
        let d2 = tokenize(
            "<h1>John Smith</h1><p>221R Washington St</p><p>Wash CH</p><p>(740) 335-5555</p>",
        );
        let d3 = tokenize("<h1>George W. Smith</h1><p>Findlay, OH</p><p>(419) 423-1212</p>");
        let details: Vec<&[Token]> = vec![&d1, &d2, &d3];
        build_observations(&list, &[], &details)
    }

    #[test]
    fn variables_follow_occurrence() {
        let obs = superpages_obs();
        let enc = encode(&obs, &EncodeOptions::default());
        // E1 "John Smith" on r1, r2 → two variables; none for r3.
        assert!(enc.var(0, 0).is_some());
        assert!(enc.var(0, 1).is_some());
        assert!(enc.var(0, 2).is_none());
        // E2 "221 Washington" only on r1.
        assert!(enc.var(1, 0).is_some());
        assert!(enc.var(1, 1).is_none());
        assert!(enc.var(obs.items.len(), 0).is_none());
        // Total variables = Σ |D_i|, and the lookup inverts `vars`.
        let expected: usize = obs.items.iter().map(|it| it.pages.len()).sum();
        assert_eq!(enc.vars.len(), expected);
        for (v, &(i, j)) in enc.vars.iter().enumerate() {
            assert_eq!(enc.var(i, j), Some(v));
        }
    }

    #[test]
    fn uniqueness_constraints_lead_the_model() {
        let obs = superpages_obs();
        let enc = encode(&obs, &EncodeOptions::default());
        for (i, c) in enc.model.constraints[..obs.items.len()].iter().enumerate() {
            assert!(c.rel == Relation::Eq && c.rhs == 1);
            let vars: Vec<usize> = c.terms.iter().map(|t| t.var).collect();
            let expected: Vec<usize> = obs.items[i]
                .pages
                .iter()
                .map(|&j| enc.var(i, j).unwrap())
                .collect();
            assert_eq!(vars, expected);
        }
    }

    #[test]
    fn relaxing_turns_equalities_into_inequalities_and_adds_the_objective() {
        let obs = superpages_obs();
        let strict = encode(&obs, &EncodeOptions::default());
        let mut relaxed = strict.clone();
        relaxed.relax();
        assert!(relaxed
            .model
            .constraints
            .iter()
            .all(|c| c.rel == Relation::Le));
        assert_eq!(relaxed.model.objective.len(), relaxed.vars.len());
        assert_eq!(relaxed.vars, strict.vars);
        for (r, s) in relaxed
            .model
            .constraints
            .iter()
            .zip(&strict.model.constraints)
        {
            assert_eq!((&r.terms, r.rhs), (&s.terms, s.rhs));
        }
        assert_eq!(strict.objective_upper_bound(), None);
        assert_eq!(
            relaxed.objective_upper_bound(),
            Some(obs.items.len() as i64)
        );
    }

    #[test]
    fn position_constraints_toggle() {
        let obs = superpages_obs();
        let with = encode(&obs, &EncodeOptions::default());
        let without = encode(
            &obs,
            &EncodeOptions {
                position_constraints: false,
            },
        );
        let groups = position_groups(&obs).len();
        assert!(groups > 0);
        assert_eq!(
            with.model.constraints.len(),
            without.model.constraints.len() + groups
        );
        assert_eq!(
            with.model.constraints[..without.model.constraints.len()],
            without.model.constraints[..]
        );
    }

    #[test]
    fn consecutiveness_blocks_non_contiguous_pairs() {
        let obs = superpages_obs();
        let enc = encode(&obs, &EncodeOptions::default());
        // Past the uniqueness rows, consecutiveness emits both pairwise
        // exclusions (blocked middles) and triples (candidate middles).
        let consec = &enc.model.constraints[obs.items.len()..];
        assert!(consec.iter().any(|c| c.terms.len() == 2));
        assert!(consec.iter().any(|c| c.terms.len() == 3));
    }

    #[test]
    fn empty_observations_empty_model() {
        let obs = build_observations(&[], &[], &[]);
        let enc = encode(&obs, &EncodeOptions::default());
        assert_eq!(enc.model.num_vars, 0);
        assert!(enc.model.constraints.is_empty());
    }

    /// The paper lists the Superpages constraints explicitly in Sections
    /// 4.1–4.2; this pins the encoder to that list.
    #[test]
    fn paper_constraint_list() {
        let obs = superpages_obs();
        let enc = encode(&obs, &EncodeOptions::default());
        let m = &enc.model;
        let x = |i: usize, j: u32| enc.var(i, j).expect("candidate");
        let has = |vars: &[usize], coefs: &[i32], rel: Relation| {
            m.constraints.iter().any(|c| {
                c.rel == rel
                    && c.rhs == 1
                    && c.terms.len() == vars.len()
                    && c.terms
                        .iter()
                        .zip(vars.iter().zip(coefs))
                        .all(|(t, (&v, &coef))| t.var == v && t.coef == coef)
            })
        };

        // The uniqueness constraint of extract i contains exactly the
        // variables x_ij for j in D_i, with "= 1".
        let uniq = &m.constraints[..obs.items.len()];
        // x11 + x12 = 1 (the paper's first listed constraint).
        let vars: Vec<usize> = uniq[0].terms.iter().map(|t| t.var).collect();
        assert_eq!(vars, vec![x(0, 0), x(0, 1)]);
        // x21 = 1 (E2 can only be in r1).
        assert_eq!(uniq[1].terms.len(), 1);
        assert_eq!(uniq[1].terms[0].var, x(1, 0));
        // x62 = 1 (E6 can only be in r2).
        assert_eq!(uniq[5].terms.len(), 1);
        assert_eq!(uniq[5].terms[0].var, x(5, 1));

        // Consecutiveness: E1 (row 1) and E8 (row 2 phone) for record r1
        // are blocked by the middles E6, E7, which cannot be in r1:
        // x11 + x81 ≤ 1.
        assert!(
            has(&[x(0, 0), x(7, 0)], &[1, 1], Relation::Le),
            "expected pairwise consecutiveness for E1/E8 on r1"
        );
        // E1 and E4 on r1 have only candidate middles: x11 + x41 − x21 ≤ 1.
        assert!(has(&[x(0, 0), x(3, 0), x(1, 0)], &[1, 1, -1], Relation::Le));

        // The paper's position constraints: x11 + x51 = 1 and x41 + x81 = 1
        // (shared name at position 0 of r1, shared phone at its tail).
        assert!(
            has(&[x(0, 0), x(4, 0)], &[1, 1], Relation::Eq),
            "x11 + x51 = 1"
        );
        assert!(
            has(&[x(0, 1), x(4, 1)], &[1, 1], Relation::Eq),
            "x12 + x52 = 1"
        );
        assert!(
            has(&[x(3, 0), x(7, 0)], &[1, 1], Relation::Eq),
            "x41 + x81 = 1"
        );
        assert!(
            has(&[x(3, 1), x(7, 1)], &[1, 1], Relation::Eq),
            "x42 + x82 = 1"
        );
    }
}
