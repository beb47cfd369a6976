//! Position analysis (Section 4.2, Table 3 of the paper).
//!
//! "Detail pages present another source of constraints ... no two extracts
//! assigned to the same record can appear in the same position on that
//! page. The corollary is: if two extracts appear in the same position on
//! the detail page, they must be assigned to different records."
//!
//! (The formal statement in the paper reads `pos_j(E_i) ≠ pos_j(E_k)`;
//! from the worked example — `x₁₁ + x₅₁ = 1` for the two "John Smith"
//! extracts observed at the *same* position 730 of page r₁ — the intended
//! condition is clearly *equality* of positions, and that is what this
//! module implements.)

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::observations::Observations;

/// A set of extracts observed at the same position of the same detail page.
/// A page position holds one field occurrence, so exactly one of the
/// extracts in the group can be the one assigned to that page's record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PositionGroup {
    /// Detail-page index.
    pub page: u32,
    /// Token position within the page's reduced stream.
    pub pos: u32,
    /// Indices (into `Observations::items`) of the extracts observed there,
    /// in ascending order. Always at least 2 entries.
    pub extracts: Vec<usize>,
}

/// Finds all positions shared by two or more extracts.
pub fn position_groups(obs: &Observations) -> Vec<PositionGroup> {
    let mut by_pos: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for (i, item) in obs.items.iter().enumerate() {
        for pp in &item.positions {
            by_pos.entry((pp.page, pp.pos)).or_default().push(i);
        }
    }
    let mut groups: Vec<PositionGroup> = by_pos
        .into_iter()
        .filter(|(_, v)| v.len() >= 2)
        .map(|((page, pos), mut extracts)| {
            extracts.sort_unstable();
            extracts.dedup();
            PositionGroup {
                page,
                pos,
                extracts,
            }
        })
        .filter(|g| g.extracts.len() >= 2)
        .collect();
    groups.sort_by_key(|g| (g.page, g.pos));
    groups
}

/// Renders position observations in the format of the paper's Table 3:
/// one row per `(page, position)`, marking which extracts were seen there.
pub fn render_table(obs: &Observations) -> String {
    let mut rows: Vec<(u32, u32, Vec<usize>)> = {
        let mut by_pos: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
        for (i, item) in obs.items.iter().enumerate() {
            for pp in &item.positions {
                by_pos.entry((pp.page, pp.pos)).or_default().push(i);
            }
        }
        by_pos
            .into_iter()
            .map(|((page, pos), v)| (page, pos, v))
            .collect()
    };
    rows.sort_by_key(|&(page, pos, _)| (page, pos));

    let n = obs.items.len();
    let mut out = String::new();
    out.push_str("| pos |");
    for i in 0..n {
        out.push_str(&format!(" E{} |", i + 1));
    }
    out.push('\n');
    for (page, pos, extracts) in rows {
        out.push_str(&format!("| pos_{}^{} |", page + 1, pos));
        for i in 0..n {
            if extracts.contains(&i) {
                out.push_str(" 1 |");
            } else {
                out.push_str("   |");
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observations::build_observations;

    fn fixture() -> Observations {
        // Three records so that values shared by the first two records are
        // not on *all* detail pages (which would filter them out).
        let list = "<td>John Smith</td><td>221 Washington</td><td>(740) 335-5555</td>\
             <td>John Smith</td><td>221R Washington</td><td>(740) 335-5555</td>\
             <td>George Major</td><td>Findlay, OH</td><td>(419) 423-1212</td>";
        let d1 = "<h1>John Smith</h1><p>221 Washington</p><p>(740) 335-5555</p>";
        let d2 = "<h1>John Smith</h1><p>221R Washington</p><p>(740) 335-5555</p>";
        let d3 = "<h1>George Major</h1><p>Findlay, OH</p><p>(419) 423-1212</p>";
        let details = [d1, d2, d3];
        build_observations(list, &[], &details)
    }

    #[test]
    fn shared_name_and_phone_form_groups() {
        let obs = fixture();
        let groups = position_groups(&obs);
        // "John Smith" at position 0 of pages r1 and r2 (extracts 0 & 3),
        // and the shared phone at position 4 of both pages (extracts 2 & 5).
        assert_eq!(groups.len(), 4);
        let name_group_p0 = groups
            .iter()
            .find(|g| g.page == 0 && g.pos == 0)
            .expect("name group on page 0");
        assert_eq!(name_group_p0.extracts, vec![0, 3]);
        let name_group_p1 = groups
            .iter()
            .find(|g| g.page == 1 && g.pos == 0)
            .expect("name group on page 1");
        assert_eq!(name_group_p1.extracts, vec![0, 3]);
        // Every group has >= 2 extracts.
        assert!(groups.iter().all(|g| g.extracts.len() >= 2));
    }

    #[test]
    fn unique_positions_form_no_group() {
        let list = "<td>Alpha</td><td>Beta</td>";
        let d1 = "<p>Alpha</p>";
        let d2 = "<p>Beta</p>";
        let details = [d1, d2];
        let obs = build_observations(list, &[], &details);
        assert!(position_groups(&obs).is_empty());
    }

    #[test]
    fn groups_sorted_by_page_then_pos() {
        let obs = fixture();
        let groups = position_groups(&obs);
        for w in groups.windows(2) {
            assert!((w[0].page, w[0].pos) < (w[1].page, w[1].pos));
        }
    }

    #[test]
    fn render_table_has_one_row_per_position() {
        let obs = fixture();
        let table = render_table(&obs);
        // Header plus one row per distinct (page, position).
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines.len() > 2);
        assert!(lines[0].contains("E1"));
        assert!(table.contains("pos_1^0"));
    }
}
