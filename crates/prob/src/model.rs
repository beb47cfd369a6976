//! The chain structure of the factored model: states, transitions, and the
//! observed feature vectors.
//!
//! The hidden state for extract `i` is the pair `(R_i, C_i)`; transitions
//! either continue the current record in a strictly later column
//! (`(r, c) → (r, c')`, `c' > c` — column *skips* model missing fields,
//! Section 5.2.2) or start a new record at the first column
//! (`(r, c) → (r', 0)`, `r' > r` — record skips model records without
//! list-page extracts). Record labels never decrease: the tables are laid
//! out horizontally (Section 3.2).

use std::ops::Range;

use tableseg_extract::Observations;
use tableseg_html::{TokenType, TypeSet};

/// Dimensions of the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// `K`: number of records (detail pages).
    pub num_records: usize,
    /// `k`: number of column labels `L1..Lk`.
    pub num_columns: usize,
}

impl Dims {
    /// Number of `(r, c)` states.
    pub fn num_states(&self) -> usize {
        self.num_records * self.num_columns
    }

    /// Unpacks a state index into `(r, c)`.
    #[inline]
    pub fn unpack(&self, s: usize) -> (usize, usize) {
        (s / self.num_columns, s % self.num_columns)
    }
}

/// The observed evidence for one extract: its token-type vector and its
/// detail-page occurrence set.
#[derive(Debug, Clone)]
pub struct Evidence {
    /// `T_i`: one bit per [`TokenType`], the union of the types of the
    /// extract's tokens.
    pub types: TypeSet,
    /// `D_i` as a sorted list of distinct record indices.
    pub pages: Vec<u32>,
}

impl Evidence {
    /// The binary feature vector `T_{i,1..8}`.
    pub fn features(&self) -> [bool; TokenType::COUNT] {
        let mut out = [false; TokenType::COUNT];
        for (t, slot) in TokenType::ALL.iter().zip(out.iter_mut()) {
            *slot = self.types.contains(*t);
        }
        out
    }

    /// Whether each record of `records`, in order, is in `D_i`: one
    /// cursor over the sorted pages, started at the range's first record.
    pub fn on_pages(&self, records: Range<usize>) -> impl Iterator<Item = bool> + '_ {
        let from = self
            .pages
            .partition_point(|&p| (p as usize) < records.start);
        let mut pages = self.pages[from..].iter().map(|&p| p as usize).peekable();
        records.map(move |r| {
            while pages.next_if(|&p| p < r).is_some() {}
            pages.peek() == Some(&r)
        })
    }
}

/// Builds the evidence sequence from an observation table.
pub fn evidence(obs: &Observations) -> Vec<Evidence> {
    obs.items
        .iter()
        .map(|item| Evidence {
            // `T_i` was unioned once at extraction; no token walk here.
            types: item.extract.types,
            pages: item.pages.clone(),
        })
        .collect()
}

/// A human-readable description of the graphical model, used by the
/// experiment binary that regenerates Figures 2 and 3.
pub fn describe(period_model: bool) -> String {
    let mut s = String::new();
    s.push_str("Variables (per extract i):\n");
    s.push_str("  observed T_i  : token types of E_i (8 binary features)\n");
    s.push_str("  observed D_i  : detail pages on which E_i occurs\n");
    s.push_str("  hidden   R_i  : record number (1..K)\n");
    s.push_str("  hidden   C_i  : column label (L1..Lk)\n");
    s.push_str("  hidden   S_i  : record-start indicator\n");
    s.push_str("Dependencies:\n");
    s.push_str("  P(T_i | C_i)             token type depends on the column\n");
    s.push_str("  P(C_i | C_{i-1})         column transition\n");
    s.push_str("  P(S_i | C_i)             deterministic: S_i = (C_i = L1)\n");
    s.push_str("  P(R_i | R_{i-1}, D_i, S_i) record advance, constrained by D_i\n");
    if period_model {
        s.push_str("  pi, pi_j                 hierarchical record-period model\n");
        s.push_str("  P(C_i | ..., pi_j)       column conditioned on record length\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{on_page, state};
    use tableseg_extract::build_observations;

    #[test]
    fn dims_pack_unpack() {
        let d = Dims {
            num_records: 3,
            num_columns: 4,
        };
        assert_eq!(d.num_states(), 12);
        for r in 0..3 {
            for c in 0..4 {
                let s = state(d, r, c);
                assert_eq!(d.unpack(s), (r, c));
            }
        }
    }

    #[test]
    fn evidence_unions_token_types() {
        let list = "<td>John Smith</td><td>(740) 335-5555</td>";
        let d1 = "<p>John Smith</p>";
        let d2 = "<p>(740) 335-5555</p>";
        let d3 = "<p>other</p>";
        let details = [d1, d2, d3];
        let obs = build_observations(list, &[], &details);
        let ev = evidence(&obs);
        assert_eq!(ev.len(), 2);
        // "John Smith": capitalized alphabetic.
        assert!(ev[0].types.contains(TokenType::Capitalized));
        assert!(ev[0].types.contains(TokenType::Alphanumeric));
        assert!(!ev[0].types.contains(TokenType::Numeric));
        // Phone: punctuation + numeric.
        assert!(ev[1].types.contains(TokenType::Punctuation));
        assert!(ev[1].types.contains(TokenType::Numeric));
        assert!(!ev[1].types.contains(TokenType::Alphabetic));
        // Page lookups.
        assert!(on_page(&ev[0], 0));
        assert!(!on_page(&ev[0], 1));
    }

    #[test]
    fn page_cursor_matches_per_record_lookups() {
        for pages in [&[][..], &[0], &[2], &[0, 1, 2], &[1, 3], &[0, 5, 9]] {
            let ev = Evidence {
                types: TypeSet::default(),
                pages: pages.to_vec(),
            };
            for nk in 0..6 {
                for from in 0..=nk {
                    let want: Vec<bool> = (from..nk).map(|r| on_page(&ev, r)).collect();
                    let got: Vec<bool> = ev.on_pages(from..nk).collect();
                    assert_eq!(got, want, "{pages:?} {from}..{nk}");
                }
            }
        }
    }

    #[test]
    fn features_vector_matches_typeset() {
        let ev = Evidence {
            types: TypeSet::single(TokenType::Numeric)
                .union(TypeSet::single(TokenType::Alphanumeric)),
            pages: vec![],
        };
        let f = ev.features();
        assert!(f[TokenType::Numeric.bit() as usize]);
        assert!(f[TokenType::Alphanumeric.bit() as usize]);
        assert_eq!(f.iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn describe_mentions_period_only_when_enabled() {
        assert!(describe(true).contains("pi"));
        assert!(!describe(false).contains("pi_j"));
    }
}
