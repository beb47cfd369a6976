//! A WSAT(OIP)-style stochastic local-search solver for pseudo-boolean
//! models.
//!
//! The paper solves its constraint systems "using WSAT(OIP), an integer
//! optimization algorithm" (Walser). That solver is closed source; this is
//! a from-scratch implementation of the same strategy:
//!
//! 1. start from a random assignment;
//! 2. while hard constraints are violated, pick a random violated
//!    constraint and flip one of its variables — with probability `noise` a
//!    random one (the random-walk move), otherwise the variable whose flip
//!    most reduces total violation (breaking ties toward better objective),
//!    subject to a short tabu tenure with aspiration;
//! 3. once feasible, make objective-improving flips (which may re-violate
//!    constraints, continuing the search) while remembering the best
//!    feasible assignment seen;
//! 4. restart with a fresh random assignment every `max_flips` flips.
//!
//! Two throughput mechanisms on top of the basic strategy:
//!
//! * **Cached flip deltas.** The change in total violation caused by
//!   flipping each variable is kept in a per-variable table (`vdelta`)
//!   that `flip` patches incrementally — only variables sharing a
//!   constraint with the flipped one are touched. Move selection then
//!   reads a single cell instead of re-scanning the occurrence lists of
//!   every candidate (the classic make/break cache of local-search SAT
//!   solvers).
//! * **Parallel restarts.** Each of the `max_tries` restarts runs an
//!   independent search seeded `seed ^ mix64(try_no)`, so a try's
//!   trajectory does not depend on which thread runs it or in what order.
//!   The results are reduced by `(violation asc, objective desc, try_no
//!   asc)`; 1, 2 and N worker threads therefore return byte-identical
//!   [`WsatResult`]s. The only cross-try dependency is a deterministic
//!   gate: when try 0 is already perfect (feasible, and the objective —
//!   if any — has reached [`WsatConfig::objective_target`]), the
//!   remaining tries are skipped.
//!
//! All randomness is seeded: identical configs give identical results,
//! regardless of `threads`.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::model::{violation_of, Model, Term};

/// Configuration for the WSAT(OIP) solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WsatConfig {
    /// Maximum flips per restart.
    pub max_flips: usize,
    /// Number of restarts.
    pub max_tries: usize,
    /// Probability of a random-walk move.
    pub noise: f64,
    /// Tabu tenure: a variable flipped within the last `tabu` flips is not
    /// flipped again unless doing so reaches a new best (aspiration).
    pub tabu: usize,
    /// Stagnation cutoff: end a try when its best assignment has not
    /// improved within this many flips. Keeps converged searches from
    /// burning the whole flip budget.
    pub stall: usize,
    /// Random seed.
    pub seed: u64,
    /// Weight of a unit of constraint violation against a unit of
    /// objective when scoring greedy moves: `score = violation_delta *
    /// violation_weight - objective_delta`. Violation dominates as long as
    /// this exceeds the largest objective swing of a single flip.
    pub violation_weight: i64,
    /// Worker threads for parallel restarts. `1` runs tries sequentially;
    /// `0` uses the machine's available parallelism. The result is
    /// byte-identical for every value.
    pub threads: usize,
    /// Known upper bound on the objective. A try (and the whole solve)
    /// ends early once a feasible assignment reaches it. `None` disables
    /// the early exit.
    pub objective_target: Option<i64>,
}

impl Default for WsatConfig {
    fn default() -> WsatConfig {
        WsatConfig {
            max_flips: 20_000,
            max_tries: 8,
            noise: 0.15,
            tabu: 2,
            stall: 3_000,
            seed: 0x5EED,
            violation_weight: 10_000,
            threads: 1,
            objective_target: None,
        }
    }
}

/// The outcome of a WSAT(OIP) run.
#[derive(Debug, Clone, PartialEq)]
pub struct WsatResult {
    /// The best assignment found.
    pub assignment: Vec<bool>,
    /// `true` if the best assignment satisfies every constraint.
    pub feasible: bool,
    /// Total constraint violation of the best assignment (0 iff feasible).
    pub violation: i64,
    /// Objective value of the best assignment.
    pub objective: i64,
    /// Total number of flips performed, summed over all tries that ran.
    pub flips: u64,
    /// Number of restarts (tries) that actually ran. Deterministic: the
    /// early-exit gates depend only on per-try outcomes, never on
    /// scheduling, so the count is thread-count-invariant.
    pub tries: u64,
    /// `true` when the best assignment came out of a warm-started try of
    /// [`solve_warm`] (always `false` for [`solve`]) — the
    /// `solve.warm_start_hits` counter.
    pub warm_start_hit: bool,
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...): the universal
/// cutoff schedule of Luby, Sinclair & Zuckerman. [`solve_warm`] scales
/// each try's flip budget by `luby(try_no + 1)`, so cheap probes of the
/// warm seeds come first and budgets grow only when restarts keep failing.
pub fn luby(i: u64) -> u64 {
    debug_assert!(i >= 1);
    let mut k = 1u64;
    while (1u64 << k) - 1 < i {
        k += 1;
    }
    if (1u64 << k) - 1 == i {
        1u64 << (k - 1)
    } else {
        luby(i - (1u64 << (k - 1)) + 1)
    }
}

/// SplitMix64 finalizer: decorrelates per-try seeds derived from
/// consecutive try numbers.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Immutable per-solve tables shared by every try.
struct Problem {
    /// Occurrence lists: constraints (and coefficients) touching each var.
    occurs: Vec<Vec<(usize, i32)>>,
    /// Objective coefficient of each variable.
    obj_coef: Vec<i64>,
    /// Objective-term positions of each variable, in CSR form: those of
    /// `x` are `obj_terms[obj_start[x]..obj_start[x + 1]]`.
    obj_start: Vec<usize>,
    obj_terms: Vec<usize>,
}

impl Problem {
    fn new(model: &Model) -> Problem {
        let n = model.num_vars;
        let mut occurs: Vec<Vec<(usize, i32)>> = vec![Vec::new(); n];
        for (ci, c) in model.constraints.iter().enumerate() {
            for t in &c.terms {
                occurs[t.var].push((ci, t.coef));
            }
        }
        let mut obj_coef = vec![0i64; n];
        let mut obj_start = vec![0usize; n + 1];
        for &Term { var, coef } in &model.objective {
            obj_coef[var] += i64::from(coef);
            obj_start[var + 1] += 1;
        }
        for x in 0..n {
            obj_start[x + 1] += obj_start[x];
        }
        let mut obj_terms: Vec<usize> = (0..model.objective.len()).collect();
        obj_terms.sort_by_key(|&pos| model.objective[pos].var);
        Problem {
            occurs,
            obj_coef,
            obj_start,
            obj_terms,
        }
    }
}

/// A set of objective-term positions: a bitset plus its size, so that a
/// uniform draw in `0..len` picks the draw-th member in term order.
struct TermSet {
    words: Vec<u64>,
    len: usize,
}

impl TermSet {
    fn new(terms: usize) -> TermSet {
        TermSet {
            words: vec![0; terms.div_ceil(64)],
            len: 0,
        }
    }

    fn set(&mut self, pos: usize, member: bool) {
        let (word, bit) = (&mut self.words[pos / 64], 1u64 << (pos % 64));
        if (*word & bit != 0) != member {
            *word ^= bit;
            if member {
                self.len += 1;
            } else {
                self.len -= 1;
            }
        }
    }

    /// The `k`-th member in ascending order; requires `k < len`.
    fn nth(&self, mut k: usize) -> usize {
        for (w, &word) in self.words.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if k < ones {
                let mut word = word;
                for _ in 0..k {
                    word &= word - 1;
                }
                return w * 64 + word.trailing_zeros() as usize;
            }
            k -= ones;
        }
        unreachable!("TermSet::nth past the last member")
    }

    /// Every member in ascending order.
    #[cfg(any(test, feature = "wsat-paranoid"))]
    fn members(&self) -> Vec<usize> {
        (0..self.words.len() * 64)
            .filter(|&p| self.words[p / 64] & (1u64 << (p % 64)) != 0)
            .collect()
    }
}

/// Incremental search state for one restart.
struct SearchState<'a> {
    model: &'a Model,
    /// Current assignment.
    assign: Vec<bool>,
    /// Current LHS value of each constraint.
    lhs: Vec<i32>,
    /// Indices of currently violated constraints.
    violated: Vec<usize>,
    /// Position of each constraint in `violated` (usize::MAX when absent).
    violated_pos: Vec<usize>,
    /// Cached change in total violation if each variable were flipped.
    /// Patched incrementally in [`SearchState::flip`].
    vdelta: Vec<i64>,
    /// Occurrence lists: constraints (and coefficients) touching each var.
    occurs: &'a [Vec<(usize, i32)>],
    /// Objective coefficient of each variable.
    obj_coef: &'a [i64],
    /// Objective-term positions of each variable (see [`Problem`]).
    obj_start: &'a [usize],
    obj_terms: &'a [usize],
    /// Objective-term positions whose variable's flip improves the
    /// objective. Patched in [`SearchState::flip`] alongside `vdelta`.
    improving: TermSet,
    /// The `improving` positions whose flip leaves the total violation
    /// unchanged.
    harmless: TermSet,
    /// Flip counter at the time each variable was last flipped.
    last_flip: Vec<u64>,
    /// Total violation.
    total_violation: i64,
    /// Current objective value.
    objective: i64,
}

impl<'a> SearchState<'a> {
    fn new(model: &'a Model, problem: &'a Problem, assign: Vec<bool>) -> SearchState<'a> {
        let mut state = SearchState {
            model,
            lhs: vec![0; model.constraints.len()],
            violated: Vec::new(),
            violated_pos: vec![usize::MAX; model.constraints.len()],
            vdelta: vec![0; model.num_vars],
            occurs: &problem.occurs,
            obj_coef: &problem.obj_coef,
            obj_start: &problem.obj_start,
            obj_terms: &problem.obj_terms,
            improving: TermSet::new(model.objective.len()),
            harmless: TermSet::new(model.objective.len()),
            last_flip: vec![0; model.num_vars],
            total_violation: 0,
            objective: 0,
            assign,
        };
        for (ci, c) in model.constraints.iter().enumerate() {
            let lhs = c.lhs(&state.assign);
            state.lhs[ci] = lhs;
            let v = violation_of(c.rel, lhs, c.rhs);
            state.total_violation += i64::from(v);
            if v > 0 {
                state.violated_pos[ci] = state.violated.len();
                state.violated.push(ci);
            }
            // Seed the delta cache: each variable's contribution from this
            // constraint is v(lhs with the var flipped) - v(lhs).
            for t in &c.terms {
                let dir: i32 = if state.assign[t.var] { -1 } else { 1 };
                state.vdelta[t.var] +=
                    i64::from(violation_of(c.rel, lhs + dir * t.coef, c.rhs) - v);
            }
        }
        state.objective = model.objective_value(&state.assign);
        for var in 0..model.num_vars {
            state.refresh_pools(var);
        }
        state
    }

    /// Re-derives the pool membership of `var`'s objective terms from its
    /// current objective and violation deltas.
    fn refresh_pools(&mut self, var: usize) {
        let terms = &self.obj_terms[self.obj_start[var]..self.obj_start[var + 1]];
        if terms.is_empty() {
            return;
        }
        let improving = self.objective_delta(var) > 0;
        let harmless = improving && self.vdelta[var] == 0;
        for &pos in terms {
            self.improving.set(pos, improving);
            self.harmless.set(pos, harmless);
        }
    }

    /// Change in total violation if `var` were flipped (cached).
    fn violation_delta(&self, var: usize) -> i64 {
        self.vdelta[var]
    }

    /// Change in objective if `var` were flipped.
    fn objective_delta(&self, var: usize) -> i64 {
        if self.assign[var] {
            -self.obj_coef[var]
        } else {
            self.obj_coef[var]
        }
    }

    fn flip(&mut self, var: usize, flip_no: u64) {
        let (model, occurs) = (self.model, self.occurs);
        let dir: i32 = if self.assign[var] { -1 } else { 1 };
        // The objective delta is defined relative to the pre-flip state.
        self.objective += self.objective_delta(var);
        self.assign[var] = !self.assign[var];
        for &(ci, coef) in &occurs[var] {
            let c = &model.constraints[ci];
            let old_lhs = self.lhs[ci];
            let new_lhs = old_lhs + dir * coef;
            let old_v = violation_of(c.rel, old_lhs, c.rhs);
            let new_v = violation_of(c.rel, new_lhs, c.rhs);
            self.lhs[ci] = new_lhs;
            self.total_violation += i64::from(new_v - old_v);
            if old_v == 0 && new_v > 0 {
                self.violated_pos[ci] = self.violated.len();
                self.violated.push(ci);
            } else if old_v > 0 && new_v == 0 {
                let pos = self.violated_pos[ci];
                let last = *self.violated.last().expect("non-empty");
                self.violated.swap_remove(pos);
                if pos < self.violated.len() {
                    self.violated_pos[last] = pos;
                }
                self.violated_pos[ci] = usize::MAX;
            }
            // Patch the delta cache of every variable in this constraint:
            // its contribution from `ci` changed from one relative to
            // `old_lhs`/`old_v` to one relative to `new_lhs`/`new_v`. For
            // `var` itself the pre-flip direction was the opposite of its
            // current one.
            for t in &c.terms {
                let du: i32 = if self.assign[t.var] { -1 } else { 1 };
                let old_du = if t.var == var { -du } else { du };
                let old_contrib = violation_of(c.rel, old_lhs + old_du * t.coef, c.rhs) - old_v;
                let new_contrib = violation_of(c.rel, new_lhs + du * t.coef, c.rhs) - new_v;
                if new_contrib != old_contrib {
                    self.vdelta[t.var] += i64::from(new_contrib) - i64::from(old_contrib);
                    self.refresh_pools(t.var);
                }
            }
        }
        // The flip negated `var`'s objective delta.
        self.refresh_pools(var);
        self.last_flip[var] = flip_no;
        self.paranoid_audit();
    }

    /// Full recomputation of the incremental state, compiled in only under
    /// the `wsat-paranoid` feature (it makes every flip O(model size),
    /// turning debug test runs quadratic).
    #[cfg(feature = "wsat-paranoid")]
    fn paranoid_audit(&self) {
        assert_eq!(self.objective, self.model.objective_value(&self.assign));
        assert_eq!(
            self.total_violation,
            Model::total_violation(self.model, &self.assign)
        );
        for var in 0..self.model.num_vars {
            let dir: i32 = if self.assign[var] { -1 } else { 1 };
            let mut delta = 0i64;
            for &(ci, coef) in &self.occurs[var] {
                let c = &self.model.constraints[ci];
                let old = violation_of(c.rel, self.lhs[ci], c.rhs);
                let new = violation_of(c.rel, self.lhs[ci] + dir * coef, c.rhs);
                delta += i64::from(new - old);
            }
            assert_eq!(self.vdelta[var], delta, "stale vdelta for x{var}");
        }
        let (improving, harmless) = scan_pools(self);
        assert_eq!(self.improving.members(), improving, "stale improving pool");
        assert_eq!(self.improving.len, improving.len());
        assert_eq!(self.harmless.members(), harmless, "stale harmless pool");
        assert_eq!(self.harmless.len, harmless.len());
    }

    #[cfg(not(feature = "wsat-paranoid"))]
    #[inline]
    fn paranoid_audit(&self) {}
}

/// The best assignment one try found, plus its flip count.
struct TryOutcome {
    try_no: usize,
    violation: i64,
    objective: i64,
    assignment: Vec<bool>,
    flips: u64,
}

/// `true` when an outcome cannot be improved upon: feasible, and the
/// objective (if any) has provably reached its upper bound.
fn is_perfect(outcome: &TryOutcome, model: &Model, cfg: &WsatConfig) -> bool {
    outcome.violation == 0
        && (model.objective.is_empty()
            || cfg.objective_target.is_some_and(|t| outcome.objective >= t))
}

/// How a try builds its starting assignment.
enum TryInit<'w> {
    /// All-false for try 0, seeded-random for later tries — the legacy
    /// [`solve`] behaviour.
    Default,
    /// Start from a caller-provided assignment (a warm seed).
    Seeded(&'w [bool]),
    /// Start all-false regardless of try number.
    AllFalse,
}

/// Runs one independent restart. The trajectory depends only on
/// `(model, cfg, try_no)` — never on other tries or the thread it runs on.
fn run_try(model: &Model, problem: &Problem, cfg: &WsatConfig, try_no: usize) -> TryOutcome {
    run_try_from(
        model,
        problem,
        cfg,
        try_no,
        TryInit::Default,
        cfg.max_flips as u64,
    )
}

/// [`run_try`] with an explicit starting assignment and flip budget — the
/// warm-started portfolio entry point.
fn run_try_from(
    model: &Model,
    problem: &Problem,
    cfg: &WsatConfig,
    try_no: usize,
    init: TryInit<'_>,
    max_flips: u64,
) -> TryOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ mix64(try_no as u64));
    // Default: first try starts all-false (often near-feasible for ≤
    // constraints); later tries are random.
    let init: Vec<bool> = match init {
        TryInit::Seeded(seed) => {
            debug_assert_eq!(seed.len(), model.num_vars);
            seed.to_vec()
        }
        TryInit::AllFalse => vec![false; model.num_vars],
        TryInit::Default if try_no == 0 => vec![false; model.num_vars],
        TryInit::Default => (0..model.num_vars).map(|_| rng.random_bool(0.5)).collect(),
    };
    let mut state = SearchState::new(model, problem, init);
    let mut best = TryOutcome {
        try_no,
        violation: state.total_violation,
        objective: state.objective,
        assignment: state.assign.clone(),
        flips: 0,
    };

    let mut last_best_flip = 0u64;
    let mut flips = 0u64;
    while flips < max_flips {
        // Early exit: nothing left to improve in this try.
        if is_perfect(&best, model, cfg) {
            break;
        }
        flips += 1;
        if cfg.stall > 0 && flips - last_best_flip > cfg.stall as u64 {
            break; // stagnated
        }
        let var = if state.violated.is_empty() {
            // Feasible: try to improve the objective. Stop if there is
            // no objective to improve.
            if model.objective.is_empty() {
                flips -= 1;
                break;
            }
            match pick_objective_move(&state, &mut rng) {
                Some(v) => v,
                None => {
                    flips -= 1;
                    break; // objective is at a local maximum
                }
            }
        } else {
            let ci = state.violated[rng.random_range(0..state.violated.len())];
            match pick_constraint_move(&state, ci, cfg, flips, best.violation, &mut rng) {
                Some(v) => v,
                None => continue,
            }
        };
        state.flip(var, flips);
        let better = state.total_violation < best.violation
            || (state.total_violation == best.violation && state.objective > best.objective);
        if better {
            best.violation = state.total_violation;
            best.objective = state.objective;
            best.assignment.clone_from(&state.assign);
            last_best_flip = flips;
        }
    }
    best.flips = flips;
    best
}

/// Runs tries `range` (sequentially or on a small worker pool) and returns
/// their outcomes in try order. `run` must be a pure function of the try
/// number — results are collected by index, so scheduling never shows.
fn run_tries(
    threads: usize,
    range: Range<usize>,
    run: impl Fn(usize) -> TryOutcome + Sync,
) -> Vec<TryOutcome> {
    let tries: Vec<usize> = range.collect();
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(tries.len());
    if threads <= 1 {
        return tries.iter().map(|&t| run(t)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, TryOutcome)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let tries = &tries;
            let run = &run;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&t) = tries.get(i) else { break };
                if tx.send((i, run(t))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<TryOutcome>> = tries.iter().map(|_| None).collect();
    for (i, outcome) in rx {
        slots[i] = Some(outcome);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every try produced an outcome"))
        .collect()
}

/// Deterministic reduction: best `(violation asc, objective desc, try_no
/// asc)`; flips are summed over all tries that ran. Independent of the
/// order tries finished in. `warm_count` is the number of leading tries
/// that were warm-seeded (0 for the cold portfolio).
fn reduce(outcomes: Vec<TryOutcome>, warm_count: usize) -> WsatResult {
    let total_flips: u64 = outcomes.iter().map(|o| o.flips).sum();
    let tries = outcomes.len() as u64;
    let best = outcomes
        .into_iter()
        .reduce(|best, o| {
            if o.violation < best.violation
                || (o.violation == best.violation && o.objective > best.objective)
            {
                o
            } else {
                best
            }
        })
        .expect("at least one try ran");
    WsatResult {
        feasible: best.violation == 0,
        violation: best.violation,
        objective: best.objective,
        flips: total_flips,
        tries,
        warm_start_hit: best.try_no < warm_count,
        assignment: best.assignment,
    }
}

/// Solves `model`, returning the best assignment found within the
/// configured search budget. Results are identical for any
/// [`WsatConfig::threads`] value.
pub fn solve(model: &Model, cfg: &WsatConfig) -> WsatResult {
    let problem = Problem::new(model);
    let tries = cfg.max_tries.max(1);
    // Try 0 always runs first: when it is already perfect the remaining
    // tries are skipped — a deterministic gate (it depends only on try
    // 0's own outcome), so the result is still thread-count-invariant.
    let first = run_try(model, &problem, cfg, 0);
    let skip_rest = is_perfect(&first, model, cfg);
    let mut outcomes = vec![first];
    if !skip_rest && tries > 1 {
        outcomes.extend(run_tries(cfg.threads, 1..tries, |t| {
            run_try(model, &problem, cfg, t)
        }));
    }
    reduce(outcomes, 0)
}

/// Solves `model` with a warm-started restart portfolio under a Luby
/// cutoff schedule.
///
/// Try layout: tries `0..warm.len()` start from the given seeds (the
/// relaxation ladder passes the previous rung's best assignment and
/// sibling-component solutions here), the next try starts all-false, and
/// any remaining tries start seeded-random exactly like [`solve`]. Try
/// `t` gets a flip budget of `luby(t + 1) · max_flips / 8` (capped at
/// `max_flips`): the warm probes come cheap, and budgets only grow when
/// restarts keep failing.
///
/// The portfolio runs in two waves. Wave one is the probes: every warm
/// seed plus the all-false try. When any probe lands a *feasible*
/// assignment, the seeded-random tail is skipped entirely — random
/// restarts exist to escape infeasible basins, while objective polish
/// comes from the feasible probe's own hill-climbing, so the tail is
/// pure stall burn at that point. Only when every probe is infeasible
/// (and none is perfect) does wave two run the random restarts.
///
/// Determinism matches [`solve`]: each try depends only on `(model, cfg,
/// warm, try_no)`, the wave gates depend only on complete wave outcomes,
/// and results reduce by `(violation asc, objective desc, try_no asc)` —
/// byte-identical at 1, 2 and N threads.
pub fn solve_warm(model: &Model, cfg: &WsatConfig, warm: &[Vec<bool>]) -> WsatResult {
    let problem = Problem::new(model);
    let tries = cfg.max_tries.max(1).max(warm.len() + 1);
    let unit = (cfg.max_flips as u64 / 8).max(1);
    let budget = |t: usize| (luby(t as u64 + 1) * unit).min(cfg.max_flips as u64);
    let run = |t: usize| {
        let init = match warm.get(t) {
            Some(seed) => TryInit::Seeded(seed),
            None if t == warm.len() => TryInit::AllFalse,
            None => TryInit::Default,
        };
        run_try_from(model, &problem, cfg, t, init, budget(t))
    };
    let first = run(0);
    let skip_rest = is_perfect(&first, model, cfg);
    let mut outcomes = vec![first];
    if !skip_rest && tries > 1 {
        // Wave one: the remaining probes (warm seeds + all-false).
        let probe_end = (warm.len() + 1).min(tries);
        if probe_end > 1 {
            outcomes.extend(run_tries(cfg.threads, 1..probe_end, run));
        }
        let probe_feasible = outcomes.iter().any(|o| o.violation == 0);
        let probe_perfect = outcomes.iter().any(|o| is_perfect(o, model, cfg));
        // Wave two: the seeded-random tail, only when the probes left
        // the model unsatisfied.
        if !probe_perfect && !probe_feasible && probe_end < tries {
            outcomes.extend(run_tries(cfg.threads, probe_end..tries, run));
        }
    }
    reduce(outcomes, warm.len())
}

/// Chooses a variable from a violated constraint.
fn pick_constraint_move(
    state: &SearchState<'_>,
    ci: usize,
    cfg: &WsatConfig,
    flip_no: u64,
    best_violation: i64,
    rng: &mut StdRng,
) -> Option<usize> {
    let terms = &state.model.constraints[ci].terms;
    if terms.is_empty() {
        return None;
    }
    if rng.random_bool(cfg.noise) {
        return Some(terms[rng.random_range(0..terms.len())].var);
    }
    let mut best_var = None;
    let mut best_score = i64::MAX;
    for t in terms {
        let var = t.var;
        let dv = state.violation_delta(var);
        // Aspiration: a move reaching a new best ignores tabu.
        let reaches_new_best = state.total_violation + dv < best_violation;
        let tabu_active = cfg.tabu > 0
            && state.last_flip[var] != 0
            && flip_no.saturating_sub(state.last_flip[var]) <= cfg.tabu as u64;
        if tabu_active && !reaches_new_best {
            continue;
        }
        // Score: violation first, objective as a tie-breaker.
        let score = dv * cfg.violation_weight - state.objective_delta(var);
        if score < best_score {
            best_score = score;
            best_var = Some(var);
        }
    }
    // All candidates tabu: fall back to a random walk move.
    best_var.or_else(|| Some(terms[rng.random_range(0..terms.len())].var))
}

/// Chooses an objective-improving move when the state is feasible: a
/// uniform draw over the objective terms whose flip improves the
/// objective, preferring those that also keep feasibility.
fn pick_objective_move(state: &SearchState<'_>, rng: &mut StdRng) -> Option<usize> {
    let pool = if state.harmless.len > 0 {
        &state.harmless
    } else {
        &state.improving
    };
    if pool.len == 0 {
        return None;
    }
    let pos = pool.nth(rng.random_range(0..pool.len));
    Some(state.model.objective[pos].var)
}

/// The improving and harmless objective-term positions, in term order,
/// found by scanning every objective term — the construction the
/// incremental pools replace, kept as their oracle.
#[cfg(any(test, feature = "wsat-paranoid"))]
fn scan_pools(state: &SearchState<'_>) -> (Vec<usize>, Vec<usize>) {
    let objective = &state.model.objective;
    let improving: Vec<usize> = (0..objective.len())
        .filter(|&p| state.objective_delta(objective[p].var) > 0)
        .collect();
    let harmless: Vec<usize> = improving
        .iter()
        .copied()
        .filter(|&p| state.violation_delta(objective[p].var) == 0)
        .collect();
    (improving, harmless)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Constraint, Model, Relation};

    fn cfg() -> WsatConfig {
        WsatConfig::default()
    }

    #[test]
    fn satisfies_simple_equalities() {
        // x0 + x1 = 1; x1 + x2 = 1; x0 + x2 = 2 → x0 = x2 = 1, x1 = 0.
        let mut m = Model::new(3);
        m.add(Constraint::sum([0, 1], Relation::Eq, 1));
        m.add(Constraint::sum([1, 2], Relation::Eq, 1));
        m.add(Constraint::sum([0, 2], Relation::Eq, 2));
        let r = solve(&m, &cfg());
        assert!(r.feasible);
        assert_eq!(r.assignment, vec![true, false, true]);
    }

    #[test]
    fn reports_infeasibility_via_violation() {
        // x0 = 1 and x0 = 0 cannot both hold.
        let mut m = Model::new(1);
        m.add(Constraint::sum([0], Relation::Eq, 1));
        m.add(Constraint::sum([0], Relation::Eq, 0));
        let r = solve(
            &m,
            &WsatConfig {
                max_flips: 200,
                max_tries: 2,
                ..cfg()
            },
        );
        assert!(!r.feasible);
        assert_eq!(r.violation, 1);
    }

    #[test]
    fn maximizes_objective_subject_to_constraints() {
        // At most 2 of 4 variables; maximize their sum → exactly 2 set.
        let mut m = Model::new(4);
        m.add(Constraint::sum([0, 1, 2, 3], Relation::Le, 2));
        m.maximize_sum([0, 1, 2, 3]);
        let r = solve(&m, &cfg());
        assert!(r.feasible);
        assert_eq!(r.objective, 2);
        assert_eq!(r.assignment.iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn pure_satisfaction_stops_at_first_solution() {
        let mut m = Model::new(2);
        m.add(Constraint::sum([0, 1], Relation::Ge, 1));
        let r = solve(&m, &cfg());
        assert!(r.feasible);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut m = Model::new(6);
        m.add(Constraint::sum([0, 1, 2], Relation::Eq, 1));
        m.add(Constraint::sum([3, 4, 5], Relation::Eq, 2));
        m.add(Constraint::sum([0, 3], Relation::Le, 1));
        m.maximize_sum([0, 1, 2, 3, 4, 5]);
        let r1 = solve(&m, &cfg());
        let r2 = solve(&m, &cfg());
        assert_eq!(r1, r2);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let mut m = Model::new(8);
        m.add(Constraint::sum([0, 1, 2, 3], Relation::Eq, 2));
        m.add(Constraint::sum([4, 5, 6, 7], Relation::Le, 1));
        m.add(Constraint::sum([0, 4], Relation::Ge, 1));
        m.maximize_sum([0, 1, 2, 3, 4, 5, 6, 7]);
        let base = solve(
            &m,
            &WsatConfig {
                threads: 1,
                ..cfg()
            },
        );
        for threads in [2, 3, 0] {
            let r = solve(&m, &WsatConfig { threads, ..cfg() });
            assert_eq!(r, base, "result changed at threads={threads}");
        }
    }

    #[test]
    fn objective_target_short_circuits() {
        // The bound (2) is reachable: the solver must stop there with far
        // fewer flips than the untargeted search.
        let mut m = Model::new(4);
        m.add(Constraint::sum([0, 1, 2, 3], Relation::Le, 2));
        m.maximize_sum([0, 1, 2, 3]);
        let capped = solve(
            &m,
            &WsatConfig {
                objective_target: Some(2),
                ..cfg()
            },
        );
        assert!(capped.feasible);
        assert_eq!(capped.objective, 2);
        let uncapped = solve(&m, &cfg());
        assert_eq!(uncapped.objective, 2);
        assert!(
            capped.flips < uncapped.flips,
            "target {} vs untargeted {}",
            capped.flips,
            uncapped.flips
        );
    }

    #[test]
    fn empty_model_is_feasible() {
        let m = Model::new(0);
        let r = solve(&m, &cfg());
        assert!(r.feasible);
        assert!(r.assignment.is_empty());
    }

    #[test]
    fn handles_negative_coefficients() {
        // x0 + x1 - x2 <= 1 with x0 = x1 = 1 forced → x2 must be 1.
        let mut m = Model::new(3);
        m.add(Constraint::sum([0], Relation::Eq, 1));
        m.add(Constraint::sum([1], Relation::Eq, 1));
        m.add(Constraint {
            terms: vec![
                crate::model::Term { var: 0, coef: 1 },
                crate::model::Term { var: 1, coef: 1 },
                crate::model::Term { var: 2, coef: -1 },
            ],
            rel: Relation::Le,
            rhs: 1,
        });
        let r = solve(&m, &cfg());
        assert!(r.feasible, "{r:?}");
        assert_eq!(r.assignment, vec![true, true, true]);
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn warm_seed_hits_on_a_solved_instance() {
        // Seeding with a known optimum: the first (warm) try is already
        // perfect, so the portfolio stops there and reports the hit.
        let mut m = Model::new(3);
        m.add(Constraint::sum([0, 1], Relation::Eq, 1));
        m.add(Constraint::sum([1, 2], Relation::Eq, 1));
        m.add(Constraint::sum([0, 2], Relation::Eq, 2));
        let seed = vec![true, false, true];
        let r = solve_warm(&m, &cfg(), std::slice::from_ref(&seed));
        assert!(r.feasible);
        assert!(r.warm_start_hit);
        assert_eq!(r.assignment, seed);
        assert_eq!(r.tries, 1, "perfect warm try gates the rest");
        // A cold solve never reports a warm hit.
        assert!(!solve(&m, &cfg()).warm_start_hit);
    }

    #[test]
    fn warm_portfolio_recovers_from_a_bad_seed() {
        let mut m = Model::new(3);
        m.add(Constraint::sum([0, 1], Relation::Eq, 1));
        m.add(Constraint::sum([1, 2], Relation::Eq, 1));
        m.add(Constraint::sum([0, 2], Relation::Eq, 2));
        // An infeasible seed: the later cold tries must still solve it.
        let r = solve_warm(&m, &cfg(), &[vec![false, true, false]]);
        assert!(r.feasible, "{r:?}");
        assert_eq!(r.assignment, vec![true, false, true]);
    }

    #[test]
    fn warm_solve_is_thread_count_invariant() {
        let mut m = Model::new(8);
        m.add(Constraint::sum([0, 1, 2, 3], Relation::Eq, 2));
        m.add(Constraint::sum([4, 5, 6, 7], Relation::Le, 1));
        m.add(Constraint::sum([0, 4], Relation::Ge, 1));
        m.maximize_sum([0, 1, 2, 3, 4, 5, 6, 7]);
        let warm = vec![vec![false; 8], vec![true; 8]];
        let base = solve_warm(
            &m,
            &WsatConfig {
                threads: 1,
                ..cfg()
            },
            &warm,
        );
        for threads in [2, 3, 0] {
            let r = solve_warm(&m, &WsatConfig { threads, ..cfg() }, &warm);
            assert_eq!(r, base, "warm result changed at threads={threads}");
        }
    }

    /// The scan-and-filter objective pick the incremental pools replaced.
    fn scan_pick(state: &SearchState<'_>, rng: &mut StdRng) -> Option<usize> {
        let (improving, harmless) = scan_pools(state);
        let pool = if harmless.is_empty() {
            &improving
        } else {
            &harmless
        };
        if pool.is_empty() {
            return None;
        }
        Some(state.model.objective[pool[rng.random_range(0..pool.len())]].var)
    }

    #[test]
    fn pool_pick_matches_scan_pick_at_every_objective_move() {
        // The relaxed Superpages encoding, plus a model whose objective
        // repeats a variable and carries a negative coefficient.
        let obs = crate::encoder::tests::superpages_obs();
        let mut relaxed = crate::encoder::encode(&obs, &Default::default());
        relaxed.relax();
        let mut dup = Model::new(6);
        dup.add(Constraint::sum([0, 1, 2], Relation::Le, 1));
        dup.add(Constraint::sum([2, 3], Relation::Eq, 1));
        dup.add(Constraint::sum([3, 4, 5], Relation::Le, 2));
        dup.maximize_sum([0, 1, 2, 3, 4, 5, 0, 4]);
        dup.objective.push(crate::model::Term { var: 5, coef: -1 });
        let mut objective_moves = 0;
        for model in [&relaxed.model, &dup] {
            let problem = Problem::new(model);
            for seed in 0..8u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = (0..model.num_vars).map(|_| rng.random_bool(0.5)).collect();
                let mut state = SearchState::new(model, &problem, init);
                for flip_no in 1..=400u64 {
                    let var = if state.violated.is_empty() {
                        let mut scan_rng = rng.clone();
                        let picked = pick_objective_move(&state, &mut rng);
                        assert_eq!(picked, scan_pick(&state, &mut scan_rng), "seed {seed}");
                        assert_eq!(
                            rng.random_range(0..u64::MAX),
                            scan_rng.random_range(0..u64::MAX)
                        );
                        match picked {
                            Some(v) => {
                                objective_moves += 1;
                                v
                            }
                            // Local maximum: perturb and keep going.
                            None => rng.random_range(0..model.num_vars),
                        }
                    } else {
                        let ci = state.violated[rng.random_range(0..state.violated.len())];
                        match pick_constraint_move(&state, ci, &cfg(), flip_no, 0, &mut rng) {
                            Some(v) => v,
                            None => continue,
                        }
                    };
                    state.flip(var, flip_no);
                    let (improving, harmless) = scan_pools(&state);
                    assert_eq!(state.improving.members(), improving);
                    assert_eq!(state.harmless.members(), harmless);
                }
            }
        }
        assert!(
            objective_moves > 200,
            "only {objective_moves} objective moves"
        );
    }
}
