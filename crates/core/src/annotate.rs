//! Semantic column annotation.
//!
//! Section 3.4 of the paper: "The column labels will be `L1, ..., Lk` ...
//! To provide them with more semantically meaningful labels, we can use
//! other automatic extraction techniques, such as those described in the
//! Roadrunner system \[2\]." — and Section 6.3 envisions using them to
//! "reconstruct the relational database behind the Web site".
//!
//! This module implements that annotation step: a pattern-based field-type
//! recognizer over an extract's token sequence, and a majority vote per
//! learned column. It is deliberately syntactic (token shapes, not
//! vocabularies) to stay domain independent like the rest of the system.

use std::fmt;

use tableseg_html::{Interner, Symbol, TokenType, TypeSet};

use crate::pipeline::{PreparedPage, SiteTemplate};

/// A recognized semantic field type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemanticLabel {
    /// `(740) 335-5555` or `740-335-5555`.
    PhoneNumber,
    /// A five-digit code.
    ZipCode,
    /// An amount with a two-digit decimal fraction, e.g. `115000.00`.
    Money,
    /// `03-17-1998`-style dates.
    Date,
    /// A single year between 1800 and 2100.
    Year,
    /// `Findlay, OH`: capitalized word(s), comma, two-letter state code.
    CityState,
    /// `221 Washington St`: leading number, capitalized words.
    StreetAddress,
    /// Two or three capitalized words (possibly with a middle initial).
    PersonName,
    /// Digit-heavy codes: long digit runs or digit groups with dashes.
    Identifier,
    /// Anything textual that fits no stronger pattern.
    Text,
}

impl SemanticLabel {
    /// A short lowercase name.
    pub const fn name(self) -> &'static str {
        match self {
            SemanticLabel::PhoneNumber => "phone",
            SemanticLabel::ZipCode => "zip",
            SemanticLabel::Money => "money",
            SemanticLabel::Date => "date",
            SemanticLabel::Year => "year",
            SemanticLabel::CityState => "city-state",
            SemanticLabel::StreetAddress => "street-address",
            SemanticLabel::PersonName => "person-name",
            SemanticLabel::Identifier => "identifier",
            SemanticLabel::Text => "text",
        }
    }
}

impl fmt::Display for SemanticLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One token of an extract, read through the interner.
struct Tok<'a> {
    text: &'a str,
    types: TypeSet,
}

fn is_num(t: &Tok<'_>) -> bool {
    t.types.contains(TokenType::Numeric)
}

fn is_cap(t: &Tok<'_>) -> bool {
    t.types.contains(TokenType::Capitalized)
}

fn digits(t: &Tok<'_>) -> usize {
    t.text.chars().filter(char::is_ascii_digit).count()
}

/// Recognizes the semantic type of one extract from its symbols, whose
/// texts and types `interner` holds.
pub fn recognize(syms: &[Symbol], interner: &Interner) -> SemanticLabel {
    let tokens: Vec<Tok<'_>> = syms
        .iter()
        .map(|&s| Tok {
            text: interner.text(s),
            types: interner.types(s),
        })
        .collect();
    let texts: Vec<&str> = tokens.iter().map(|t| t.text).collect();
    let n = tokens.len();
    if n == 0 {
        return SemanticLabel::Text;
    }

    // Phone: ( ddd ) ddd - dddd  or  ddd - ddd - dddd.
    if n == 6
        && texts[0] == "("
        && is_num(&tokens[1])
        && texts[2] == ")"
        && is_num(&tokens[3])
        && texts[4] == "-"
        && is_num(&tokens[5])
        && digits(&tokens[5]) == 4
    {
        return SemanticLabel::PhoneNumber;
    }
    if n == 5
        && is_num(&tokens[0])
        && texts[1] == "-"
        && is_num(&tokens[2])
        && texts[3] == "-"
        && is_num(&tokens[4])
        && digits(&tokens[0]) == 3
        && digits(&tokens[4]) == 4
        // North American area codes never start with 0 or 1 — this is
        // what separates dashed phone numbers from parcel-id-style codes.
        && !texts[0].starts_with(['0', '1'])
    {
        return SemanticLabel::PhoneNumber;
    }

    // Date: dd - dd - yyyy.
    if n == 5
        && is_num(&tokens[0])
        && texts[1] == "-"
        && is_num(&tokens[2])
        && texts[3] == "-"
        && is_num(&tokens[4])
        && digits(&tokens[0]) <= 2
        && digits(&tokens[2]) <= 2
        && digits(&tokens[4]) == 4
    {
        return SemanticLabel::Date;
    }

    // Money: d+ . dd
    if n == 3
        && is_num(&tokens[0])
        && texts[1] == "."
        && is_num(&tokens[2])
        && digits(&tokens[2]) == 2
    {
        return SemanticLabel::Money;
    }

    // Single-token cases.
    if n == 1 && is_num(&tokens[0]) {
        let d = digits(&tokens[0]);
        if d == 5 {
            return SemanticLabel::ZipCode;
        }
        if d == 4 {
            if let Ok(y) = tokens[0].text.parse::<u32>() {
                if (1800..=2100).contains(&y) {
                    return SemanticLabel::Year;
                }
            }
        }
        if d >= 6 {
            return SemanticLabel::Identifier;
        }
    }

    // Identifier: digit groups joined by dashes (e.g. 042-118-0937).
    if n >= 3
        && n % 2 == 1
        && tokens.iter().step_by(2).all(is_num)
        && texts.iter().skip(1).step_by(2).all(|&t| t == "-")
        && digits(&tokens[0]) >= 3
    {
        return SemanticLabel::Identifier;
    }

    // City, ST: capitalized word(s) , ALLCAPS-2.
    if n >= 3 {
        let last = &tokens[n - 1];
        if texts[n - 2] == ","
            && last.types.contains(TokenType::Allcaps)
            && last.text.len() == 2
            && tokens[..n - 2].iter().all(is_cap)
        {
            return SemanticLabel::CityState;
        }
    }

    // Street address: number then capitalized words.
    if n >= 2 && is_num(&tokens[0]) && tokens[1..].iter().all(is_cap) {
        return SemanticLabel::StreetAddress;
    }

    // Person name: 2-3 capitalized words, optionally with a middle
    // initial ("George W . Smith").
    let name_like = tokens.iter().all(|t| {
        is_cap(t) || t.text == "." // middle initial dot
    });
    let cap_count = tokens.iter().filter(|t| is_cap(t)).count();
    if name_like && (2..=4).contains(&cap_count) {
        return SemanticLabel::PersonName;
    }

    SemanticLabel::Text
}

/// The annotation of one learned column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnAnnotation {
    /// The column label index (the paper's `L1` is 0).
    pub column: u32,
    /// The majority semantic label of the column's extracts.
    pub label: SemanticLabel,
    /// Fraction of the column's extracts that voted for the label.
    pub confidence: f64,
    /// Number of extracts observed in the column.
    pub support: usize,
}

/// Annotates the columns of a probabilistic segmentation: for each column
/// label, the majority [`SemanticLabel`] over its extracts.
///
/// `prepared` is list page `target` of `template`, and `columns[i]` is the
/// learned column of `prepared.observations.items[i]` (from
/// [`crate::ProbSegmenter`]).
pub fn annotate_columns(
    template: &SiteTemplate,
    target: usize,
    prepared: &PreparedPage,
    columns: &[u32],
) -> Vec<ColumnAnnotation> {
    let obs = &prepared.observations;
    assert_eq!(obs.items.len(), columns.len());
    let slot = &template.streams[target][prepared.slot.clone()];
    let num_columns = columns.iter().max().map_or(0, |&c| c as usize + 1);
    let mut votes: Vec<std::collections::HashMap<SemanticLabel, usize>> =
        vec![std::collections::HashMap::new(); num_columns];
    for (item, &c) in obs.items.iter().zip(columns) {
        let label = recognize(item.extract.symbols(slot), &template.interner);
        *votes[c as usize].entry(label).or_default() += 1;
    }
    votes
        .into_iter()
        .enumerate()
        .filter_map(|(c, v)| {
            let support: usize = v.values().sum();
            // An unvoted column yields no max and drops out here.
            v.into_iter()
                .max_by_key(|&(l, n)| (n, std::cmp::Reverse(l.name())))
                .map(|(label, count)| ColumnAnnotation {
                    column: c as u32,
                    label,
                    confidence: count as f64 / support as f64,
                    support,
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(s: &str) -> SemanticLabel {
        let mut interner = Interner::new();
        let (syms, _) = interner.intern_page(s);
        recognize(&syms, &interner)
    }

    #[test]
    fn phone_patterns() {
        assert_eq!(rec("(740) 335-5555"), SemanticLabel::PhoneNumber);
        assert_eq!(rec("740-335-5555"), SemanticLabel::PhoneNumber);
        assert_ne!(rec("335-5555"), SemanticLabel::PhoneNumber);
    }

    #[test]
    fn zip_year_identifier() {
        assert_eq!(rec("45840"), SemanticLabel::ZipCode);
        assert_eq!(rec("1998"), SemanticLabel::Year);
        assert_eq!(rec("123456"), SemanticLabel::Identifier);
        assert_eq!(rec("042-118-0937"), SemanticLabel::Identifier);
    }

    #[test]
    fn money_and_date() {
        assert_eq!(rec("115000.00"), SemanticLabel::Money);
        assert_eq!(rec("24.99"), SemanticLabel::Money);
        assert_eq!(rec("03-17-1998"), SemanticLabel::Date);
    }

    #[test]
    fn city_state() {
        assert_eq!(rec("Findlay, OH"), SemanticLabel::CityState);
        assert_eq!(rec("New Holland, PA"), SemanticLabel::CityState);
        assert_ne!(rec("Findlay, Ohio"), SemanticLabel::CityState);
    }

    #[test]
    fn street_address_and_name() {
        assert_eq!(rec("221 Washington St"), SemanticLabel::StreetAddress);
        assert_eq!(rec("John Smith"), SemanticLabel::PersonName);
        assert_eq!(rec("George W. Smith"), SemanticLabel::PersonName);
    }

    #[test]
    fn fallback_text() {
        assert_eq!(rec("street address not available"), SemanticLabel::Text);
        assert_eq!(rec(""), SemanticLabel::Text);
        // Long capitalized phrases (book titles) are not names.
        assert_eq!(rec("The Hidden Empire of the North"), SemanticLabel::Text);
    }

    #[test]
    fn column_majority_vote() {
        use crate::pipeline::try_prepare_with_template;
        let list = "<td>John Smith</td><td>(740) 335-5555</td>\
             <td>Jane Doe</td><td>(614) 222-1111</td>";
        let d1 = "<p>John Smith</p><p>(740) 335-5555</p>";
        let d2 = "<p>Jane Doe</p><p>(614) 222-1111</p>";
        let d3 = "<p>z</p>";
        let template = SiteTemplate::build(&[list]);
        let prepared = try_prepare_with_template(&template, 0, &[d1, d2, d3]).expect("prepared");
        assert_eq!(prepared.observations.len(), 4);
        let columns = vec![0, 1, 0, 1];
        let ann = annotate_columns(&template, 0, &prepared, &columns);
        assert_eq!(ann.len(), 2);
        assert_eq!(ann[0].label, SemanticLabel::PersonName);
        assert_eq!(ann[1].label, SemanticLabel::PhoneNumber);
        assert_eq!(ann[0].confidence, 1.0);
        assert_eq!(ann[0].support, 2);
    }
}
