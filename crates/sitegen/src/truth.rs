//! Ground truth: the byte span of every record row in a generated list
//! page.
//!
//! The paper's authors "manually checked the results of automatic
//! segmentation" (Section 6.2). The simulator knows exactly where each
//! record was written, so the evaluation can be mechanical: an extract
//! belongs to record `j` iff its source offset falls inside `spans[j]`.

use serde::{Deserialize, Serialize};

/// The byte range `[start, end)` of one record row in a list page's HTML,
/// plus the values it displays (for reports and debugging).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordSpan {
    /// Start byte offset (inclusive).
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
    /// The field values rendered inside this row, in order.
    pub values: Vec<String>,
}

/// Ground truth for one list page.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    /// One span per record, in row (= detail page) order.
    pub records: Vec<RecordSpan>,
}

impl GroundTruth {
    /// Number of records on the page.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the page has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> GroundTruth {
        GroundTruth {
            records: vec![
                RecordSpan {
                    start: 100,
                    end: 200,
                    values: vec!["a".into()],
                },
                RecordSpan {
                    start: 200,
                    end: 320,
                    values: vec!["b".into()],
                },
            ],
        }
    }

    #[test]
    fn len_counts_records() {
        let t = truth();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(GroundTruth::default().is_empty());
    }
}
