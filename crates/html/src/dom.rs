//! A small, forgiving DOM parser.
//!
//! The paper's methods deliberately avoid the DOM ("A naive approach based
//! on using HTML tags will not work", Section 1), but a DOM is still needed
//! as a *substrate* for two things in this reproduction:
//!
//! * the DOM-heuristic baseline (`tableseg-baselines`), which implements the
//!   `<table>`-based record-boundary detection the paper argues against, and
//! * round-trip tests for the site simulator.
//!
//! The parser reads the page's token stream from [`crate::scan()`] and
//! builds a tree, handling void elements and recovering from mismatched close tags by
//! popping to the nearest matching open element (or ignoring the close tag).

use crate::lexer::{is_closing, tag_name};
use crate::scan::scan;
use crate::token::TokenType;

/// A DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// An element with a lowercase tag name, its raw normalized open tag,
    /// and child nodes.
    Element {
        /// Lowercase tag name, e.g. `td`.
        name: String,
        /// The normalized open tag as produced by the lexer, attributes
        /// included, e.g. `<td align=left>`.
        open_tag: String,
        /// Child nodes in document order.
        children: Vec<Node>,
    },
    /// A run of visible text (one lexer text token).
    Text(String),
}

impl Node {
    /// The tag name if this is an element.
    pub fn name(&self) -> Option<&str> {
        match self {
            Node::Element { name, .. } => Some(name),
            Node::Text(_) => None,
        }
    }

    /// Child nodes (empty for text nodes).
    pub fn children(&self) -> &[Node] {
        match self {
            Node::Element { children, .. } => children,
            Node::Text(_) => &[],
        }
    }

    /// Concatenates all descendant text, separating tokens with spaces.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        match self {
            Node::Text(t) => {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(t);
            }
            Node::Element { children, .. } => {
                for c in children {
                    c.collect_text(out);
                }
            }
        }
    }

    /// Depth-first pre-order iterator over all descendant nodes, including
    /// `self`.
    pub fn descendants(&self) -> Descendants<'_> {
        Descendants { stack: vec![self] }
    }

    /// Finds all descendant elements with the given lowercase tag name.
    pub fn find_all(&self, name: &str) -> Vec<&Node> {
        self.descendants()
            .filter(|n| n.name() == Some(name))
            .collect()
    }

    /// Counts all descendant text tokens.
    pub fn text_token_count(&self) -> usize {
        self.descendants()
            .filter(|n| matches!(n, Node::Text(_)))
            .count()
    }
}

/// Iterator returned by [`Node::descendants`].
pub struct Descendants<'a> {
    stack: Vec<&'a Node>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = &'a Node;

    fn next(&mut self) -> Option<&'a Node> {
        let node = self.stack.pop()?;
        if let Node::Element { children, .. } = node {
            // Push in reverse so iteration is in document order.
            for c in children.iter().rev() {
                self.stack.push(c);
            }
        }
        Some(node)
    }
}

/// HTML void elements: they never have children or close tags.
const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Returns `true` for HTML void elements (`<br>`, `<img>`, ...).
pub fn is_void(name: &str) -> bool {
    VOID_ELEMENTS.contains(&name)
}

/// Parses a document into a virtual root element named `#root`.
pub fn parse(input: &str) -> Node {
    let mut stack: Vec<Node> = vec![Node::Element {
        name: "#root".to_owned(),
        open_tag: String::new(),
        children: Vec::new(),
    }];

    for (raw, types, _) in scan(input).iter(input) {
        if types.contains(TokenType::Html) {
            let name = tag_name(raw).to_owned();
            if is_closing(raw) {
                close_element(&mut stack, &name);
            } else {
                let self_closing = raw.ends_with("/>") || is_void(&name);
                let node = Node::Element {
                    name: name.clone(),
                    open_tag: raw.to_owned(),
                    children: Vec::new(),
                };
                if self_closing {
                    append_child(&mut stack, node);
                } else {
                    stack.push(node);
                }
            }
        } else {
            append_child(&mut stack, Node::Text(raw.to_owned()));
        }
    }

    // Implicitly close any elements left open.
    while stack.len() > 1 {
        let node = stack.pop().expect("len > 1");
        append_child(&mut stack, node);
    }
    stack.pop().expect("root")
}

fn append_child(stack: &mut [Node], child: Node) {
    if let Some(Node::Element { children, .. }) = stack.last_mut() {
        children.push(child);
    }
}

fn close_element(stack: &mut Vec<Node>, name: &str) {
    // Find the matching open element (excluding the root).
    let Some(pos) = stack
        .iter()
        .skip(1)
        .rposition(|n| n.name() == Some(name))
        .map(|p| p + 1)
    else {
        // Stray close tag: ignore.
        return;
    };
    // Implicitly close everything opened after it, then close it.
    while stack.len() > pos {
        let node = stack.pop().expect("len > pos >= 1");
        append_child(stack, node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_tree() {
        let root = parse("<table><tr><td>A</td><td>B</td></tr></table>");
        let tables = root.find_all("table");
        assert_eq!(tables.len(), 1);
        let rows = tables[0].find_all("tr");
        assert_eq!(rows.len(), 1);
        let cells = rows[0].find_all("td");
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].text_content(), "A");
        assert_eq!(cells[1].text_content(), "B");
    }

    #[test]
    fn void_elements_have_no_children() {
        let root = parse("a<br>b<img src=x>c");
        // All three text nodes are siblings under the root.
        assert_eq!(root.children().len(), 5);
        assert_eq!(root.text_content(), "a b c");
    }

    #[test]
    fn self_closing_syntax() {
        let root = parse("x<br/>y");
        assert_eq!(root.text_content(), "x y");
        assert_eq!(root.find_all("br").len(), 1);
    }

    #[test]
    fn recovers_from_unclosed_elements() {
        let root = parse("<div><b>bold<i>both</div>after");
        assert_eq!(root.text_content(), "bold both after");
        let divs = root.find_all("div");
        assert_eq!(divs.len(), 1);
        // <b> and <i> were implicitly closed inside the div.
        assert_eq!(divs[0].find_all("b").len(), 1);
    }

    #[test]
    fn stray_close_tags_ignored() {
        let root = parse("a</td>b</table>c");
        assert_eq!(root.text_content(), "a b c");
    }

    #[test]
    fn mismatched_close_pops_to_match() {
        // </tr> closes the still-open <td> implicitly.
        let root = parse("<tr><td>x</tr><tr><td>y</tr>");
        let rows = root.find_all("tr");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].text_content(), "x");
        assert_eq!(rows[1].text_content(), "y");
    }

    #[test]
    fn text_token_count_counts_words() {
        let root = parse("<td>John Smith</td><td>(740) 335-5555</td>");
        // John, Smith, (, 740, ), 335, -, 5555
        assert_eq!(root.text_token_count(), 8);
    }

    #[test]
    fn descendants_in_document_order() {
        let root = parse("<a>1<b>2</b>3</a>");
        let texts: Vec<String> = root
            .descendants()
            .filter_map(|n| match n {
                Node::Text(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(texts, ["1", "2", "3"]);
    }

    #[test]
    fn empty_document() {
        let root = parse("");
        assert_eq!(root.children().len(), 0);
        assert_eq!(root.text_content(), "");
    }

    #[test]
    fn nested_tables() {
        let root = parse("<table><tr><td><table><tr><td>inner</td></tr></table></td></tr></table>");
        assert_eq!(root.find_all("table").len(), 2);
    }
}
