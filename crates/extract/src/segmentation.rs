//! The common output type of both segmentation algorithms: an assignment
//! of extracts to records (the paper's Table 2).

use serde::{Deserialize, Serialize};
use tableseg_html::{Interner, Symbol};

use crate::observations::Observations;

/// An assignment of observation-table extracts to records.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segmentation {
    /// `K`: the number of records (detail pages).
    pub num_records: usize,
    /// For each kept extract (indexing `Observations::items`), the record
    /// it was assigned to, or `None` if it could not be assigned (partial
    /// solutions produced by relaxed constraints).
    pub assignments: Vec<Option<u32>>,
}

impl Segmentation {
    /// An empty segmentation with all extracts unassigned.
    pub fn unassigned(num_records: usize, num_extracts: usize) -> Segmentation {
        Segmentation {
            num_records,
            assignments: vec![None; num_extracts],
        }
    }

    /// Groups extract indices by record: `records()[j]` lists the extracts
    /// assigned to record `j`, in stream order.
    pub fn records(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_records];
        for (i, &a) in self.assignments.iter().enumerate() {
            if let Some(r) = a {
                out[r as usize].push(i);
            }
        }
        out
    }

    /// Number of assigned extracts.
    pub fn assigned_count(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_some()).count()
    }

    /// Returns `true` if every extract is assigned.
    pub fn is_total(&self) -> bool {
        self.assignments.iter().all(Option::is_some)
    }

    /// Checks the paper's three structural constraints against an
    /// observation table. Returns the list of violations (empty = valid).
    pub fn check(&self, obs: &Observations) -> Vec<String> {
        let mut violations = Vec::new();
        if self.assignments.len() != obs.items.len() {
            violations.push(format!(
                "assignment length {} != {} extracts",
                self.assignments.len(),
                obs.items.len()
            ));
            return violations;
        }
        // Occurrence: E_i may only go to a record in D_i.
        for (i, &a) in self.assignments.iter().enumerate() {
            if let Some(r) = a {
                if !obs.items[i].on_page(r) {
                    violations.push(format!("E{} assigned to r{} not in its D_i", i + 1, r + 1));
                }
            }
        }
        // Consecutiveness: each record's extracts form a contiguous block.
        for (r, extracts) in self.records().iter().enumerate() {
            if let (Some(&first), Some(&last)) = (extracts.first(), extracts.last()) {
                if last - first + 1 != extracts.len() {
                    violations.push(format!("record r{} is not contiguous: {extracts:?}", r + 1));
                }
            }
        }
        violations
    }

    /// Renders the assignment in the format of the paper's Table 2. `slot`
    /// is the symbol stream `obs`'s extracts were derived from, read
    /// through `interner`.
    pub fn render_table(&self, obs: &Observations, slot: &[Symbol], interner: &Interner) -> String {
        let mut out = String::from("|    |");
        for (i, item) in obs.items.iter().enumerate() {
            let text = item.extract.text(slot, interner);
            out.push_str(&format!(" E{}: {text} |", i + 1));
        }
        out.push('\n');
        for (r, extracts) in self.records().iter().enumerate() {
            if extracts.is_empty() {
                continue;
            }
            out.push_str(&format!("| r{} |", r + 1));
            for i in 0..obs.items.len() {
                out.push_str(if extracts.contains(&i) {
                    " 1 |"
                } else {
                    "   |"
                });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observations::build_observations;

    const LIST: &str = "<td>A</td><td>B</td><td>C</td><td>D</td>";

    fn obs() -> Observations {
        let list = LIST;
        let d1 = "<p>A</p><p>B</p>";
        let d2 = "<p>C</p><p>D</p>";
        let d3 = "<p>unrelated</p>";
        let details = [d1, d2, d3];
        build_observations(list, &[], &details)
    }

    #[test]
    fn records_groups_by_assignment() {
        let seg = Segmentation {
            num_records: 3,
            assignments: vec![Some(0), Some(0), Some(1), Some(1)],
        };
        assert_eq!(seg.records(), vec![vec![0, 1], vec![2, 3], vec![]]);
        assert_eq!(seg.assigned_count(), 4);
        assert!(seg.is_total());
    }

    #[test]
    fn check_accepts_valid_segmentation() {
        let seg = Segmentation {
            num_records: 3,
            assignments: vec![Some(0), Some(0), Some(1), Some(1)],
        };
        assert!(seg.check(&obs()).is_empty());
    }

    #[test]
    fn check_rejects_wrong_page() {
        let seg = Segmentation {
            num_records: 3,
            assignments: vec![Some(1), Some(0), Some(1), Some(1)],
        };
        let v = seg.check(&obs());
        assert!(v.iter().any(|m| m.contains("E1")), "{v:?}");
    }

    #[test]
    fn check_rejects_non_contiguous_record() {
        // A on r1, then C unassigned, D on r1 again: r1 = {0, 3}? A is on
        // d1 only so use extracts 0 and 1 for r0 split by an unassigned 1.
        let seg = Segmentation {
            num_records: 3,
            assignments: vec![Some(0), None, Some(0), None],
        };
        let v = seg.check(&obs());
        assert!(v.iter().any(|m| m.contains("not contiguous")), "{v:?}");
    }

    #[test]
    fn check_rejects_length_mismatch() {
        let seg = Segmentation {
            num_records: 3,
            assignments: vec![Some(0)],
        };
        assert!(!seg.check(&obs()).is_empty());
    }

    #[test]
    fn unassigned_constructor() {
        let seg = Segmentation::unassigned(2, 5);
        assert_eq!(seg.assigned_count(), 0);
        assert!(!seg.is_total());
        assert_eq!(seg.records(), vec![Vec::<usize>::new(), Vec::new()]);
    }

    #[test]
    fn render_table_marks_cells() {
        let seg = Segmentation {
            num_records: 3,
            assignments: vec![Some(0), Some(0), Some(1), Some(1)],
        };
        let mut interner = Interner::new();
        let (slot, _) = interner.intern_page(LIST);
        let t = seg.render_table(&obs(), &slot, &interner);
        assert!(t.contains("| E1: A | E2: B |"), "{t}");
        assert!(t.contains("| r1 | 1 | 1 |"));
        assert!(t.contains("r2"));
        assert!(!t.contains("r3"), "empty records are omitted");
    }
}
