//! The owned-[`Token`] front end: template induction, quality, the table
//! slot and region detection over `Vec<Token>` pages, as the pipeline ran
//! them before list pages became symbol streams. It is the differential
//! oracle of the symbol path (`tests/frontend_oracle.rs`): texts are read
//! off the tokens, never through an interner, so a symbol-path slip —
//! a wrong interner, a misaligned span — shows as a divergence.
//!
//! The LCS cores and the candidate filter are shared with production;
//! they have their own oracles in `tableseg-template`.

#![allow(dead_code)]

use std::ops::Range;

use tableseg::html::{Interner, Symbol, Token};
use tableseg::template::quality::{SIGNIFICANT_SLOT_SHARE, SIGNIFICANT_SLOT_TOKENS};
use tableseg::template::{candidate_streams, lcs_indices_histogram, TemplateQuality};
use tableseg::{DetectOptions, Detection, Region, RegionKind};

/// An induced template: representative tokens (from the first page) and
/// each page's anchor positions.
#[derive(Debug, Clone)]
pub struct TokenInduction {
    pub template: Vec<Token>,
    pub anchors: Vec<Vec<usize>>,
}

/// Template induction over owned token pages: tokens unique on every
/// page, folded by histogram LCS in canonical order (shortest candidate
/// stream first, token texts as tie-break), then the anchor-stability
/// pass.
pub fn induce(pages: &[Vec<Token>]) -> TokenInduction {
    if pages.len() < 2 {
        return TokenInduction {
            template: Vec::new(),
            anchors: vec![Vec::new(); pages.len()],
        };
    }
    let mut interner = Interner::new();
    let streams: Vec<Vec<Symbol>> = pages
        .iter()
        .map(|p| {
            p.iter()
                .map(|t| interner.intern_typed(&t.text, t.types))
                .collect()
        })
        .collect();
    let filtered = candidate_streams(&streams, interner.len());
    let mut order: Vec<usize> = (0..filtered.len()).collect();
    order.sort_by(|&p, &q| {
        filtered[p].len().cmp(&filtered[q].len()).then_with(|| {
            let texts = |page: usize| {
                filtered[page]
                    .iter()
                    .map(move |&(_, i)| pages[page][i].text.as_str())
            };
            texts(p).cmp(texts(q))
        })
    });
    let mut template: Vec<Symbol> = filtered[order[0]].iter().map(|&(s, _)| s).collect();
    for &p in &order[1..] {
        if template.is_empty() {
            break;
        }
        let s_syms: Vec<Symbol> = filtered[p].iter().map(|&(s, _)| s).collect();
        let pairs = lcs_indices_histogram(&template, &s_syms);
        template = pairs.iter().map(|&(ti, _)| template[ti]).collect();
    }
    let embeddings: Vec<Vec<Option<usize>>> = filtered
        .iter()
        .map(|stream| {
            template
                .iter()
                .map(|&sym| stream.iter().find(|&&(s, _)| s == sym).map(|&(_, pos)| pos))
                .collect()
        })
        .collect();
    let kept: Vec<usize> = (0..template.len())
        .filter(|&col| embeddings.iter().all(|e| e[col].is_some()))
        .collect();
    let mut induction = TokenInduction {
        template: kept
            .iter()
            .map(|&col| pages[0][embeddings[0][col].unwrap_or_default()].clone())
            .collect(),
        anchors: embeddings
            .iter()
            .map(|e| kept.iter().map(|&col| e[col].unwrap_or_default()).collect())
            .collect(),
    };
    drop_unstable_anchors(&mut induction);
    induction
}

/// Anchors linked when at most this many tokens apart on every page.
const LINK_GAP: usize = 4;
/// Minimum linked-run length kept as template.
const MIN_RUN: usize = 3;

/// Drops anchors outside linked runs of [`MIN_RUN`], except members of
/// an entry-numbering chain, to a fixpoint.
fn drop_unstable_anchors(induction: &mut TokenInduction) {
    let enumeration = enumeration_members(&induction.template);
    loop {
        let t = induction.template.len();
        if t == 0 {
            return;
        }
        let linked: Vec<bool> = (0..t - 1)
            .map(|k| {
                induction
                    .anchors
                    .iter()
                    .all(|a| a[k + 1] - a[k] <= LINK_GAP)
            })
            .collect();
        let mut drop = vec![false; t];
        let mut run_start = 0;
        for (k, &lk) in linked.iter().chain(std::iter::once(&false)).enumerate() {
            if !lk {
                if k + 1 - run_start < MIN_RUN {
                    drop[run_start..=k].iter_mut().for_each(|d| *d = true);
                }
                run_start = k + 1;
            }
        }
        for (k, d) in drop.iter_mut().enumerate() {
            if enumeration.contains(&induction.template[k].text) {
                *d = false;
            }
        }
        if !drop.contains(&true) {
            return;
        }
        let keep: Vec<usize> = (0..t).filter(|&k| !drop[k]).collect();
        induction.template = keep
            .iter()
            .map(|&k| induction.template[k].clone())
            .collect();
        for anchor in &mut induction.anchors {
            *anchor = keep.iter().map(|&k| anchor[k]).collect();
        }
    }
}

/// Texts of template tokens on an ascending `+1` integer chain of length
/// ≥ 3 starting at 1 or 2.
fn enumeration_members(tokens: &[Token]) -> Vec<String> {
    let values: Vec<Option<u64>> = tokens.iter().map(|t| t.text.parse().ok()).collect();
    let mut members = Vec::new();
    let mut chain: Vec<usize> = Vec::new();
    let flush = |chain: &mut Vec<usize>, members: &mut Vec<String>| {
        if chain.len() >= 3 && values[chain[0]].is_some_and(|first| first <= 2) {
            members.extend(chain.iter().map(|&k| tokens[k].text.clone()));
        }
        chain.clear();
    };
    for (k, v) in values.iter().enumerate() {
        let Some(n) = v else { continue };
        if chain
            .last()
            .and_then(|&prev| values[prev])
            .is_some_and(|p| p + 1 == *n)
        {
            chain.push(k);
        } else if *n <= 2 {
            flush(&mut chain, &mut members);
            chain.push(k);
        }
    }
    flush(&mut chain, &mut members);
    members
}

/// Per slot (the gap before template token `k`, then the tail), each
/// page's token range.
pub fn slots(induction: &TokenInduction, pages: &[Vec<Token>]) -> Vec<Vec<Range<usize>>> {
    let t = induction.template.len();
    (0..=t)
        .map(|k| {
            induction
                .anchors
                .iter()
                .zip(pages)
                .map(|(anchor, page)| {
                    let start = if k == 0 { 0 } else { anchor[k - 1] + 1 };
                    let end = if k == t { page.len() } else { anchor[k] };
                    start..end
                })
                .collect()
        })
        .collect()
}

/// Text (non-tag) tokens of one slot over all pages.
fn text_tokens(ranges: &[Range<usize>], pages: &[Vec<Token>]) -> usize {
    ranges
        .iter()
        .zip(pages)
        .map(|(r, page)| page[r.clone()].iter().filter(|t| t.is_text()).count())
        .sum()
}

/// The template diagnostics over token pages.
pub fn assess(induction: &TokenInduction, pages: &[Vec<Token>]) -> TemplateQuality {
    let slots = slots(induction, pages);
    let per_slot: Vec<usize> = slots.iter().map(|r| text_tokens(r, pages)).collect();
    let total: usize = per_slot.iter().sum();
    let largest = per_slot.iter().copied().max().unwrap_or(0);
    TemplateQuality {
        template_len: induction.template.len(),
        total_slot_text: total,
        largest_slot_text: largest,
        largest_slot_fraction: if total == 0 {
            0.0
        } else {
            largest as f64 / total as f64
        },
        non_empty_slots: slots
            .iter()
            .filter(|r| r.iter().any(|r| !r.is_empty()))
            .count(),
        significant_slots: per_slot
            .iter()
            .filter(|&&n| {
                n >= SIGNIFICANT_SLOT_TOKENS && n as f64 / total as f64 >= SIGNIFICANT_SLOT_SHARE
            })
            .count(),
    }
}

/// The table slot's per-page ranges — the slot with the most text
/// tokens (the first on ties) — or `None` on an unusable template or
/// when no slot holds text.
pub fn table_slot(induction: &TokenInduction, pages: &[Vec<Token>]) -> Option<Vec<Range<usize>>> {
    if !assess(induction, pages).is_usable() {
        return None;
    }
    let slots = slots(induction, pages);
    let (idx, _) = slots
        .iter()
        .map(|r| text_tokens(r, pages))
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .max_by_key(|&(_, n)| n)?;
    Some(slots[idx].clone())
}

const CONTAINER_TAGS: [&str; 5] = ["table", "ul", "ol", "dl", "div"];
const ROW_TAGS: [&str; 4] = ["tr", "li", "p", "dt"];

fn tag_name(token: &Token) -> Option<(&str, bool)> {
    if !token.is_html() {
        return None;
    }
    let inner = token.text.strip_prefix('<')?;
    let inner = inner.strip_suffix('>').unwrap_or(inner);
    let (closing, inner) = match inner.strip_prefix('/') {
        Some(rest) => (true, rest),
        None => (false, inner),
    };
    let end = inner
        .find(|c: char| c.is_whitespace() || c == '/')
        .unwrap_or(inner.len());
    Some((&inner[..end], closing))
}

/// Region detection over a token page. A region's byte range ends at
/// its last token's offset plus text length — short of the source end
/// when that text was normalized or decoded.
pub fn detect_regions(tokens: &[Token], opts: &DetectOptions) -> Detection {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match tag_name(&tokens[i]) {
            Some((name, false)) if CONTAINER_TAGS.contains(&name) => {
                let mut depth = 0usize;
                let mut end = tokens.len();
                for (j, t) in tokens.iter().enumerate().skip(i) {
                    match tag_name(t) {
                        Some((n, false)) if n == name => depth += 1,
                        Some((n, true)) if n == name => {
                            depth -= 1;
                            if depth == 0 {
                                end = j + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                regions.push(classify_block(tokens, i..end, opts));
                i = end;
            }
            _ => i += 1,
        }
    }
    if regions
        .iter()
        .filter(|r| r.kind == RegionKind::Table)
        .count()
        <= 1
    {
        return Detection {
            regions: vec![Region {
                tokens: 0..tokens.len(),
                bytes: 0..tokens.last().map_or(0, |t| t.offset + t.text.len()),
                kind: RegionKind::Table,
                rows: regions.iter().map(|r| r.rows).sum(),
            }],
            pass_through: true,
        };
    }
    Detection {
        regions,
        pass_through: false,
    }
}

fn classify_block(tokens: &[Token], range: Range<usize>, opts: &DetectOptions) -> Region {
    let (mut rows, mut linked_rows, mut text, mut link_text, mut depth) = (0, 0, 0, 0, 0usize);
    let mut row_sizes: Vec<usize> = Vec::new();
    let mut row_linked = false;
    for t in &tokens[range.clone()] {
        match tag_name(t) {
            Some(("a", true)) => depth = depth.saturating_sub(1),
            Some(("a", false)) => {
                depth += 1;
                row_linked |= !row_sizes.is_empty();
            }
            Some((name, false)) if ROW_TAGS.contains(&name) => {
                linked_rows += usize::from(row_linked);
                rows += 1;
                row_sizes.push(0);
                row_linked = false;
            }
            None if t.is_text() || t.is_punctuation() => {
                text += 1;
                link_text += usize::from(depth > 0);
                if let Some(size) = row_sizes.last_mut() {
                    *size += 1;
                }
            }
            _ => {}
        }
    }
    linked_rows += usize::from(row_linked);
    let link_fraction = if text == 0 {
        0.0
    } else {
        link_text as f64 / text as f64
    };
    let regularity = match (
        row_sizes.iter().filter(|&&s| s > 0).min(),
        row_sizes.iter().max(),
    ) {
        (Some(&min), Some(&max)) if max > 0 => min as f64 / max as f64,
        _ => 0.0,
    };
    let kind = if linked_rows >= opts.min_rows
        && link_fraction <= opts.max_link_fraction
        && regularity >= opts.min_row_regularity
    {
        RegionKind::Table
    } else if linked_rows >= opts.min_rows && link_fraction > opts.max_link_fraction {
        RegionKind::Navigation
    } else {
        RegionKind::Other
    };
    let last = &tokens[range.end - 1];
    Region {
        bytes: tokens[range.start].offset..last.offset + last.text.len(),
        tokens: range,
        kind,
        rows,
    }
}
