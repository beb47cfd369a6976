//! Pseudo-boolean models: 0-1 variables, linear constraints, optional
//! linear objective.
//!
//! "In a pseudo-boolean representation, variables are 0-1, and the
//! constraints can be inequalities. ... When constraints are inequalities,
//! the resulting problem is an optimization problem." (Section 4)
//!
//! A [`Model`] stores its rows flat: one `terms` array cut by row offsets,
//! plus one relation and one right-hand side per row, read through the
//! borrowed [`Row`] view. [`Occurrences`] is the transposed index, each
//! variable's rows with its coefficient there. It depends only on the
//! terms, so the strict encoding's index serves its relaxation too.

/// Index of a 0-1 variable.
pub type Var = usize;

/// The relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// One term `a·x` of a linear expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Term {
    /// The variable.
    pub var: Var,
    /// Its coefficient.
    pub coef: i32,
}

/// A linear pseudo-boolean constraint `Σ aᵢxᵢ ⋈ b`, borrowed from a
/// [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row<'a> {
    /// The left-hand-side terms.
    pub terms: &'a [Term],
    /// The relation.
    pub rel: Relation,
    /// The right-hand side.
    pub rhs: i32,
}

impl Row<'_> {
    /// The left-hand-side value under `assignment`.
    pub fn lhs(&self, assignment: &[bool]) -> i32 {
        self.terms
            .iter()
            .map(|t| if assignment[t.var] { t.coef } else { 0 })
            .sum()
    }

    /// The violation amount of the constraint under `assignment`:
    /// 0 when satisfied, otherwise the (positive) distance to feasibility.
    pub fn violation(&self, assignment: &[bool]) -> i32 {
        let lhs = self.lhs(assignment);
        match self.rel {
            Relation::Le => (lhs - self.rhs).max(0),
            Relation::Ge => (self.rhs - lhs).max(0),
            Relation::Eq => (lhs - self.rhs).abs(),
        }
    }

    /// Returns `true` if satisfied under `assignment`.
    pub fn satisfied(&self, assignment: &[bool]) -> bool {
        self.violation(assignment) == 0
    }
}

/// A pseudo-boolean model: hard constraints plus an optional objective to
/// maximize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    /// Number of 0-1 variables.
    pub num_vars: usize,
    /// Every row's terms, row after row.
    pub(crate) terms: Vec<Term>,
    /// Row `r`'s terms are `terms[row_start[r]..row_start[r + 1]]`.
    pub(crate) row_start: Vec<usize>,
    /// Per row: its relation and its right-hand side.
    pub(crate) rel: Vec<Relation>,
    pub(crate) rhs: Vec<i32>,
    /// Objective terms, maximized subject to the constraints. Empty means
    /// pure satisfaction.
    pub objective: Vec<Term>,
}

impl Model {
    /// Creates a model with `num_vars` variables and no constraints.
    pub fn new(num_vars: usize) -> Model {
        Model::with_capacity(num_vars, 0, 0)
    }

    /// [`Model::new`] with room for `rows` constraints of `terms` terms
    /// in all.
    pub fn with_capacity(num_vars: usize, rows: usize, terms: usize) -> Model {
        let mut row_start = Vec::with_capacity(rows + 1);
        row_start.push(0);
        Model {
            num_vars,
            terms: Vec::with_capacity(terms),
            row_start,
            rel: Vec::with_capacity(rows),
            rhs: Vec::with_capacity(rows),
            objective: Vec::new(),
        }
    }

    /// Adds the constraint `Σ terms ⋈ rhs`.
    pub fn add(&mut self, terms: impl IntoIterator<Item = Term>, rel: Relation, rhs: i32) {
        let first = self.terms.len();
        self.terms.extend(terms);
        debug_assert!(self.terms[first..].iter().all(|t| t.var < self.num_vars));
        self.row_start.push(self.terms.len());
        self.rel.push(rel);
        self.rhs.push(rhs);
    }

    /// Adds `Σ xᵢ ⋈ rhs` over unit-coefficient variables.
    pub fn add_sum(&mut self, vars: impl IntoIterator<Item = Var>, rel: Relation, rhs: i32) {
        self.add(vars.into_iter().map(|var| Term { var, coef: 1 }), rel, rhs);
    }

    /// Number of constraints.
    pub fn num_rows(&self) -> usize {
        self.rel.len()
    }

    /// Constraint `r`.
    #[inline]
    pub fn row(&self, r: usize) -> Row<'_> {
        Row {
            terms: &self.terms[self.row_start[r]..self.row_start[r + 1]],
            rel: self.rel[r],
            rhs: self.rhs[r],
        }
    }

    /// Every constraint, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> {
        (0..self.num_rows()).map(|r| self.row(r))
    }

    /// Sets the objective to maximize the sum of the given variables.
    pub fn maximize_sum(&mut self, vars: impl IntoIterator<Item = Var>) {
        self.objective = vars.into_iter().map(|var| Term { var, coef: 1 }).collect();
    }

    /// Total violation of all constraints under `assignment`.
    pub fn total_violation(&self, assignment: &[bool]) -> i64 {
        self.rows()
            .map(|c| i64::from(c.violation(assignment)))
            .sum()
    }

    /// Objective value under `assignment`.
    pub fn objective_value(&self, assignment: &[bool]) -> i64 {
        self.objective
            .iter()
            .filter(|t| assignment[t.var])
            .map(|t| i64::from(t.coef))
            .sum()
    }

    /// Returns `true` if all constraints are satisfied.
    pub fn feasible(&self, assignment: &[bool]) -> bool {
        self.rows().all(|c| c.satisfied(assignment))
    }
}

/// The occurrence index of a model: each variable's rows, in row order,
/// with its coefficient there (one entry per term).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Occurrences {
    /// Variable `v`'s entries are `row`/`coef[start[v]..start[v + 1]]`.
    pub(crate) start: Vec<usize>,
    pub(crate) row: Vec<u32>,
    pub(crate) coef: Vec<i32>,
}

impl Occurrences {
    /// Builds the index of `model`'s rows.
    pub fn new(model: &Model) -> Occurrences {
        let n = model.num_vars;
        let mut start = vec![0usize; n + 1];
        for t in &model.terms {
            start[t.var + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut row = vec![0u32; model.terms.len()];
        let mut coef = vec![0i32; model.terms.len()];
        for (r, c) in model.rows().enumerate() {
            for t in c.terms {
                row[fill[t.var]] = u32::try_from(r).expect("fewer than 2^32 rows");
                coef[fill[t.var]] = t.coef;
                fill[t.var] += 1;
            }
        }
        Occurrences { start, row, coef }
    }

    /// Variable `v`'s rows and its coefficient in each.
    #[inline]
    pub fn of(&self, v: Var) -> (&[u32], &[i32]) {
        let range = self.start[v]..self.start[v + 1];
        (&self.row[range.clone()], &self.coef[range])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model of `n` variables holding the one row `Σ xᵢ ⋈ rhs`.
    fn one(n: usize, vars: &[Var], rel: Relation, rhs: i32) -> Model {
        let mut m = Model::new(n);
        m.add_sum(vars.iter().copied(), rel, rhs);
        m
    }

    #[test]
    fn lhs_and_violation() {
        let m = one(3, &[0, 1, 2], Relation::Eq, 1);
        let con = m.row(0);
        assert_eq!(con.lhs(&[true, false, false]), 1);
        assert_eq!(con.violation(&[true, false, false]), 0);
        assert!(con.satisfied(&[true, false, false]));
        assert_eq!(con.violation(&[true, true, false]), 1);
        assert_eq!(con.violation(&[false, false, false]), 1);
        assert_eq!(con.violation(&[true, true, true]), 2);
    }

    #[test]
    fn relations() {
        let a = [true, true, false];
        let v = |vars: &[Var], rel, rhs| one(3, vars, rel, rhs).row(0).violation(&a);
        assert_eq!(v(&[0, 1], Relation::Le, 1), 1);
        assert_eq!(v(&[0, 1], Relation::Le, 2), 0);
        assert_eq!(v(&[0, 1, 2], Relation::Ge, 3), 1);
        assert_eq!(v(&[0, 1], Relation::Ge, 1), 0);
    }

    #[test]
    fn negative_coefficients() {
        // x0 + x1 - x2 <= 1 (the consecutiveness triple constraint).
        let mut m = Model::new(3);
        m.add(
            [(0, 1), (1, 1), (2, -1)].map(|(var, coef)| Term { var, coef }),
            Relation::Le,
            1,
        );
        let con = m.row(0);
        assert!(con.satisfied(&[true, true, true]));
        assert!(!con.satisfied(&[true, true, false]));
        assert!(con.satisfied(&[true, false, false]));
    }

    #[test]
    fn model_accounting() {
        let mut m = Model::new(3);
        m.add_sum([0, 1], Relation::Eq, 1);
        m.add_sum([1, 2], Relation::Le, 1);
        m.maximize_sum([0, 1, 2]);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(
            m.row(1).terms,
            &[Term { var: 1, coef: 1 }, Term { var: 2, coef: 1 }]
        );

        let a = [true, false, true];
        assert!(m.feasible(&a));
        assert_eq!(m.total_violation(&a), 0);
        assert_eq!(m.objective_value(&a), 2);

        let b = [true, true, true];
        assert!(!m.feasible(&b));
        assert_eq!(m.rows().filter(|c| !c.satisfied(&b)).count(), 2);
        assert_eq!(m.total_violation(&b), 2);
    }

    #[test]
    fn occurrences_list_each_variables_rows_in_order() {
        let mut m = Model::new(4);
        m.add_sum([0, 1], Relation::Eq, 1);
        m.add(
            [Term { var: 1, coef: -2 }, Term { var: 2, coef: 3 }],
            Relation::Le,
            1,
        );
        m.add_sum([0, 2], Relation::Ge, 1);
        let occ = Occurrences::new(&m);
        assert_eq!(occ.of(0), (&[0u32, 2][..], &[1, 1][..]));
        assert_eq!(occ.of(1), (&[0u32, 1][..], &[1, -2][..]));
        assert_eq!(occ.of(2), (&[1u32, 2][..], &[3, 1][..]));
        assert_eq!(occ.of(3), (&[][..], &[][..]));
    }
}
