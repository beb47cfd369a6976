//! Decoding solver assignments into [`Segmentation`]s.

use tableseg_extract::{Observations, Segmentation};

use crate::encoder::Encoding;

/// Decodes a variable assignment into a segmentation. If several `x_ij`
/// are set for the same extract (only possible for infeasible best-effort
/// assignments), the lowest record wins.
pub fn decode(encoding: &Encoding, assignment: &[bool], obs: &Observations) -> Segmentation {
    let mut seg = Segmentation::unassigned(obs.num_records, obs.items.len());
    for (v, &(i, j)) in encoding.vars.iter().enumerate() {
        if assignment[v] {
            let slot = &mut seg.assignments[i];
            match slot {
                Some(existing) if *existing <= j => {}
                _ => *slot = Some(j),
            }
        }
    }
    seg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{encode, EncodeOptions};
    use tableseg_extract::build_observations;
    use tableseg_html::{lexer::tokenize, Token};

    #[test]
    fn decode_roundtrip() {
        let list = tokenize("<td>A</td><td>B</td>");
        let d1 = tokenize("<p>A</p>");
        let d2 = tokenize("<p>B</p>");
        let details: Vec<&[Token]> = vec![&d1, &d2];
        let obs = build_observations(&list, &[], &details);
        let enc = encode(&obs, &EncodeOptions::default());
        // A → r1, B → r2.
        let mut assignment = vec![false; enc.model.num_vars];
        assignment[enc.var(0, 0).unwrap()] = true;
        assignment[enc.var(1, 1).unwrap()] = true;
        let seg = decode(&enc, &assignment, &obs);
        assert_eq!(seg.assignments, vec![Some(0), Some(1)]);
        assert!(seg.check(&obs).is_empty());
    }

    #[test]
    fn decode_partial() {
        let list = tokenize("<td>A</td><td>B</td>");
        let d1 = tokenize("<p>A</p>");
        let d2 = tokenize("<p>B</p>");
        let details: Vec<&[Token]> = vec![&d1, &d2];
        let obs = build_observations(&list, &[], &details);
        let mut enc = encode(&obs, &EncodeOptions::default());
        enc.relax();
        let mut assignment = vec![false; enc.model.num_vars];
        assignment[enc.var(1, 1).unwrap()] = true;
        let seg = decode(&enc, &assignment, &obs);
        assert_eq!(seg.assignments, vec![None, Some(1)]);
        assert_eq!(seg.assigned_count(), 1);
    }

    #[test]
    fn decode_conflict_takes_lowest_record() {
        let list = tokenize("<td>X</td><td>Y</td><td>Z</td>");
        let d1 = tokenize("<p>X</p>");
        let d2 = tokenize("<p>X</p><p>Y</p>");
        let d3 = tokenize("<p>Z</p>");
        let details: Vec<&[Token]> = vec![&d1, &d2, &d3];
        let obs = build_observations(&list, &[], &details);
        let enc = encode(&obs, &EncodeOptions::default());
        let mut assignment = vec![false; enc.model.num_vars];
        assignment[enc.var(0, 0).unwrap()] = true;
        assignment[enc.var(0, 1).unwrap()] = true;
        let seg = decode(&enc, &assignment, &obs);
        assert_eq!(seg.assignments[0], Some(0));
    }
}
