//! Assembling the final records.
//!
//! "Only the strings that appeared on both list and detail pages were used
//! in record segmentation. The rest of the table data are assumed to
//! belong to the same record as the last assigned extract." (Section 6.2)

use tableseg_extract::{Extract, Segmentation};

use crate::pipeline::{PreparedPage, SiteTemplate};

/// One assembled record: the extracts assigned to it, in stream order,
/// including the unmatched remainder data attached per the paper's rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembledRecord {
    /// 0-based record index (detail page index).
    pub index: usize,
    /// Field texts, in the order they appear on the list page.
    pub fields: Vec<String>,
}

/// Assembles records from a segmentation: kept extracts go to their
/// assigned records; skipped extracts (not observed on detail pages)
/// attach to the record of the last assigned extract before them.
/// `prepared` is list page `target` of `template`, whose slot texts give
/// the fields.
pub fn assemble_records(
    template: &SiteTemplate,
    target: usize,
    prepared: &PreparedPage,
    seg: &Segmentation,
) -> Vec<AssembledRecord> {
    // Merge kept and skipped extracts back into stream order; the
    // derivation index on each extract gives the order.
    enum Item {
        Kept(usize, Extract),
        Skipped(Extract),
    }
    let obs = &prepared.observations;
    let mut items: Vec<(usize, Item)> = Vec::with_capacity(obs.items.len() + obs.skipped.len());
    for (i, it) in obs.items.iter().enumerate() {
        items.push((it.extract.index, Item::Kept(i, it.extract)));
    }
    for s in &obs.skipped {
        items.push((s.extract.index, Item::Skipped(s.extract)));
    }
    items.sort_by_key(|&(idx, _)| idx);
    let slot = &template.streams[target][prepared.slot.clone()];
    let text = |e: Extract| e.text(slot, &template.interner);

    let mut fields: Vec<Vec<String>> = vec![Vec::new(); seg.num_records];
    let mut current: Option<u32> = None;
    for (_, item) in items {
        match item {
            Item::Kept(i, extract) => {
                if let Some(r) = seg.assignments.get(i).copied().flatten() {
                    current = Some(r);
                    fields[r as usize].push(text(extract));
                }
                // An unassigned kept extract does not change the current
                // record and is dropped (partial CSP solutions).
            }
            Item::Skipped(extract) => {
                if let Some(r) = current {
                    fields[r as usize].push(text(extract));
                }
                // Remainder data before any assigned extract is page
                // furniture; it belongs to no record.
            }
        }
    }

    fields
        .into_iter()
        .enumerate()
        .filter(|(_, f)| !f.is_empty())
        .map(|(index, fields)| AssembledRecord { index, fields })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::try_prepare_with_template;

    /// A two-page site and list page 0 prepared against it.
    fn prepared() -> (SiteTemplate, PreparedPage) {
        // "More Info" appears in each row but on no detail page: it is
        // skipped, and must be re-attached to the preceding record.
        let a = "<html><h1>Example Results Here</h1><table>\
                 <tr><td>Ada Lovelace</td><td>(555) 100-0001</td><td>More Info A</td></tr>\
                 <tr><td>Alan Turing</td><td>(555) 100-0002</td><td>More Info B</td></tr>\
                 </table><p>Copyright 2004 Example Inc Notice</p></html>";
        let b = "<html><h1>Example Results Here</h1><table>\
                 <tr><td>Grace Hopper</td><td>(555) 100-0003</td><td>More Info C</td></tr>\
                 </table><p>Copyright 2004 Example Inc Notice</p></html>";
        let details = [
            "<html><h2>Ada Lovelace</h2><p>(555) 100-0001</p></html>",
            "<html><h2>Alan Turing</h2><p>(555) 100-0002</p></html>",
        ];
        let template = SiteTemplate::build(&[a, b]);
        let prepared = try_prepare_with_template(&template, 0, &details).expect("prepared");
        (template, prepared)
    }

    #[test]
    fn remainder_attaches_to_preceding_record() {
        let (template, prep) = prepared();
        let seg = Segmentation {
            num_records: 2,
            assignments: vec![Some(0), Some(0), Some(1), Some(1)],
        };
        let records = assemble_records(&template, 0, &prep, &seg);
        assert_eq!(records.len(), 2);
        assert!(records[0].fields.iter().any(|f| f.contains("Ada")));
        assert!(
            records[0].fields.iter().any(|f| f.contains("More Info A")),
            "{records:?}"
        );
        assert!(records[1].fields.iter().any(|f| f.contains("More Info B")));
    }

    #[test]
    fn unassigned_extracts_are_dropped() {
        let (template, prep) = prepared();
        let seg = Segmentation {
            num_records: 2,
            assignments: vec![Some(0), None, Some(1), Some(1)],
        };
        let records = assemble_records(&template, 0, &prep, &seg);
        let all: Vec<&String> = records.iter().flat_map(|r| r.fields.iter()).collect();
        assert!(!all.iter().any(|f| f.contains("100-0001")), "{all:?}");
    }

    #[test]
    fn empty_records_are_omitted() {
        let (template, prep) = prepared();
        let seg = Segmentation {
            num_records: 2,
            assignments: vec![Some(0), Some(0), Some(0), Some(0)],
        };
        let records = assemble_records(&template, 0, &prep, &seg);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].index, 0);
    }
}
