//! The ordered dynamic program: the segmentation-specialized oracle for
//! the branch-and-bound of `tableseg-csp`.
//!
//! It relies on the paper's horizontal-layout observation (Section 3.2:
//! "the order in which records appear in the text stream of the page is
//! the same as the order in which they appear in the table"), i.e.
//! record labels are non-decreasing along the stream. It maximizes the
//! number of assigned extracts subject to occurrence (`R_i ∈ D_i`),
//! uniqueness and consecutiveness in polynomial time; a full assignment
//! exists iff the maximum equals the number of extracts. The property
//! tests check the branch-and-bound optimum of the pseudo-boolean
//! translation against it. Test binaries include it with `mod oracle;`;
//! the crate's unit tests include the same file.

#![allow(dead_code)]

/// An ordered-DP solution: per-extract record assignment and the number of
/// assigned extracts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderedSolution {
    /// Record assignment for each extract (`None` = unassigned).
    pub assignments: Vec<Option<u32>>,
    /// Number of assigned extracts (maximal).
    pub assigned: usize,
}

impl OrderedSolution {
    /// `true` if every extract is assigned — i.e. the strict (hard) problem
    /// is satisfiable under the horizontal-layout ordering.
    pub fn is_total(&self) -> bool {
        self.assigned == self.assignments.len()
    }
}

/// Maximizes the number of extracts assigned to records, subject to:
/// `R_i ∈ candidates[i]` (occurrence), each record's extracts contiguous
/// (consecutiveness), each extract in at most one record (uniqueness by
/// construction), and record labels non-decreasing in stream order
/// (horizontal layout).
///
/// `candidates[i]` lists, in ascending order, the records extract `i` may
/// belong to (the observation sets `D_i`).
pub fn solve_ordered(candidates: &[&[u32]], num_records: usize) -> OrderedSolution {
    let n = candidates.len();
    let k = num_records;
    if n == 0 {
        return OrderedSolution {
            assignments: Vec::new(),
            assigned: 0,
        };
    }

    // DP over states (j, open): j ∈ 0..=k where 0 = "no record started yet"
    // and j >= 1 means record j-1 is the most recent; `open` means the most
    // recent record can still be extended (no gap since its last extract).
    const NEG: i32 = i32::MIN / 2;
    let states = (k + 1) * 2;
    let idx = |j: usize, open: bool| j * 2 + usize::from(open);

    let mut dp = vec![NEG; states];
    dp[idx(0, false)] = 0;
    // parent[i][state] = (prev_state, action): action = record assigned + 1,
    // or 0 for unassigned.
    let mut parent = vec![vec![(usize::MAX, 0u32); states]; n];

    for i in 0..n {
        let mut next = vec![NEG; states];
        for j in 0..=k {
            for open in [false, true] {
                let cur = dp[idx(j, open)];
                if cur == NEG {
                    continue;
                }
                // Option 1: leave extract i unassigned → record closes.
                let st = idx(j, false);
                if cur > next[st] {
                    next[st] = cur;
                    parent[i][st] = (idx(j, open), 0);
                }
                // Option 2: extend the open record with extract i.
                if open && j >= 1 && candidates[i].binary_search(&((j - 1) as u32)).is_ok() {
                    let st = idx(j, true);
                    if cur + 1 > next[st] {
                        next[st] = cur + 1;
                        parent[i][st] = (idx(j, open), j as u32);
                    }
                }
                // Option 3: start a new record r strictly after the most
                // recent one (r > j-1, i.e. state index jp = r+1 > j).
                for &r in candidates[i] {
                    let jp = r as usize + 1;
                    if jp <= j {
                        continue;
                    }
                    let st = idx(jp, true);
                    if cur + 1 > next[st] {
                        next[st] = cur + 1;
                        parent[i][st] = (idx(j, open), jp as u32);
                    }
                }
            }
        }
        dp = next;
    }

    // Best final state; prefer larger count, then lower record index for
    // determinism.
    let mut best_state = 0;
    let mut best = NEG;
    for (st, &score) in dp.iter().enumerate() {
        if score > best {
            best = score;
            best_state = st;
        }
    }

    // Backtrack.
    let mut assignments = vec![None; n];
    let mut st = best_state;
    for i in (0..n).rev() {
        let (prev, action) = parent[i][st];
        debug_assert_ne!(prev, usize::MAX, "state must have a parent");
        if action > 0 {
            assignments[i] = Some(action - 1);
        }
        st = prev;
    }

    OrderedSolution {
        assignments,
        assigned: best.max(0) as usize,
    }
}
