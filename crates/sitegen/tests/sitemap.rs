//! Integration tests for the link structure of generated pages.

use tableseg_html::lexer::tokenize;
use tableseg_sitegen::paper_sites;
use tableseg_sitegen::site::generate;

/// One hyperlink: its `href` target and its anchor text.
struct Link {
    href: String,
    text: String,
}

/// The links of a page, in document order. The generator always quotes
/// `href` with double quotes and never nests anchors.
fn extract_links(html: &str) -> Vec<Link> {
    let mut links = Vec::new();
    let mut open: Option<Link> = None;
    for tok in tokenize(html) {
        if let Some(rest) = tok.text.strip_prefix("<a href=\"") {
            let href = rest.split('"').next().unwrap_or_default().to_string();
            open = Some(Link {
                href,
                text: String::new(),
            });
        } else if tok.text == "</a>" {
            links.extend(open.take());
        } else if let Some(link) = open.as_mut().filter(|_| tok.is_text()) {
            if !link.text.is_empty() {
                link.text.push(' ');
            }
            link.text.push_str(&tok.text);
        }
    }
    links
}

#[test]
fn every_record_links_its_detail_page_in_order() {
    for spec in [
        paper_sites::butler(),     // grid table
        paper_sites::superpages(), // free form
        paper_sites::bn_books(),   // numbered list
    ] {
        let site = generate(&spec);
        for (p, page) in site.pages.iter().enumerate() {
            let links = extract_links(&page.list_html);
            let detail_links: Vec<&str> = links
                .iter()
                .filter(|l| l.href.starts_with("/detail/"))
                .map(|l| l.href.as_str())
                .collect();
            let expected: Vec<String> = (0..page.detail_html.len())
                .map(|i| format!("/detail/{p}/{i}"))
                .collect();
            assert_eq!(
                detail_links,
                expected.iter().map(String::as_str).collect::<Vec<_>>(),
                "{} page {p}",
                spec.name
            );
        }
    }
}

#[test]
fn list_pages_chain_via_next_links() {
    let site = generate(&paper_sites::ohio());
    let links = extract_links(&site.pages[0].list_html);
    assert!(links
        .iter()
        .any(|l| l.href == "/list/1" && l.text == "Next"));
    let links = extract_links(&site.pages[1].list_html);
    assert!(
        links.iter().any(|l| l.href == "/list/2"),
        "dangling next is fine"
    );
}

#[test]
fn ad_links_present_on_every_list_page() {
    let site = generate(&paper_sites::allegheny());
    for page in &site.pages {
        let links = extract_links(&page.list_html);
        assert!(links.iter().any(|l| l.href == "/ads/0"));
        assert!(links.iter().any(|l| l.href == "/ads/1"));
    }
}

#[test]
fn generated_pages_parse_into_dom() {
    // Every generated page must survive a DOM round trip (well-formedness
    // smoke test over all twelve sites).
    for spec in paper_sites::all() {
        let site = generate(&spec);
        for page in &site.pages {
            let dom = tableseg_html::dom::parse(&page.list_html);
            assert!(
                dom.text_token_count() > 20,
                "{}: list page too empty",
                spec.name
            );
            for d in &page.detail_html {
                let dom = tableseg_html::dom::parse(d);
                assert!(
                    dom.text_token_count() > 5,
                    "{}: thin detail page",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn truth_values_visible_in_dom_text() {
    let site = generate(&paper_sites::sprint_canada());
    for page in &site.pages {
        let dom = tableseg_html::dom::parse(&page.list_html);
        let text = dom.text_content();
        for span in &page.truth.records {
            for value in &span.values {
                // DOM text joins tokens with spaces; compare whitespace-free.
                let squash = |s: &str| s.chars().filter(|c| !c.is_whitespace()).collect::<String>();
                assert!(squash(&text).contains(&squash(value)), "missing {value:?}");
            }
        }
    }
}
