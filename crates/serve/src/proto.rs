//! The `tablesegd/v1` segmentation codec.
//!
//! A line-oriented text format in which HTML pages travel as
//! length-prefixed blocks (`page <len>\n<len bytes>\n`), so page bytes
//! need no escaping and the parser never scans inside them. One request
//! carries one site's sample list pages plus any number of targets (a
//! list-page index and its detail pages); the response carries one
//! result block per target plus the per-request run manifest.
//!
//! Both directions are parsed by the same helpers; the client
//! ([`crate::client`]) and the black-box test suites reuse this module,
//! so a codec bug fails loudly on both ends.

use tableseg_obs::push_u64;

/// One target to segment: a list-page index plus its detail pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSpec {
    /// Index into the request's list pages of the page to segment.
    pub target: usize,
    /// Detail-page HTML, in record order.
    pub details: Vec<String>,
}

/// A segmentation request: a site's sample list pages plus targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRequest {
    /// Site name — the cache key.
    pub site: String,
    /// Sample list-page HTML.
    pub list_pages: Vec<String>,
    /// The pages to segment.
    pub targets: Vec<TargetSpec>,
}

/// A parsed request. It borrows its site name and page blocks from the
/// body it was read from, so parsing copies no page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRequestRef<'a> {
    /// Site name — the cache key.
    pub site: &'a str,
    /// Sample list-page HTML.
    pub list_pages: Vec<&'a str>,
    /// The pages to segment.
    pub targets: Vec<TargetSpecRef<'a>>,
}

/// A parsed target: a list-page index plus its borrowed detail pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSpecRef<'a> {
    /// Index into the request's list pages of the page to segment.
    pub target: usize,
    /// Detail-page HTML, in record order.
    pub details: Vec<&'a str>,
}

/// One segmenter's verdict on one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmenterMsg {
    /// `true` if the approach relaxed its constraints (notes `c`/`d`).
    pub relaxed: bool,
    /// Record groups: indices into the page's kept extracts.
    pub groups: Vec<Vec<usize>>,
}

/// One per-target result block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageResultMsg {
    /// The target list-page index.
    pub target: usize,
    /// `"ok"`, `"degraded"` or `"failed"`.
    pub status: String,
    /// `true` when the result came from the per-site result cache
    /// (no pipeline stage re-ran for this page).
    pub cached: bool,
    /// Whole-page fallback flag (the paper's notes `a`/`b`).
    pub whole_page: bool,
    /// Warning labels, in detection order.
    pub warnings: Vec<String>,
    /// Byte offsets of the kept extracts in the target page.
    pub offsets: Vec<usize>,
    /// Probabilistic-approach result (absent when the page failed).
    pub prob: Option<SegmenterMsg>,
    /// CSP-approach result (absent when the page failed).
    pub csp: Option<SegmenterMsg>,
    /// `(stage, message)` when the page failed.
    pub error: Option<(String, String)>,
}

/// A segmentation response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentResponse {
    /// Site name, echoed.
    pub site: String,
    /// How the site state was obtained: `"cold"`, `"warm"`,
    /// `"refresh"` or `"rebuild"`.
    pub cache: String,
    /// The site's cache generation after this request.
    pub generation: u64,
    /// Targets attempted (always `ok + degraded + failed`).
    pub pages: usize,
    /// Targets with a clean outcome.
    pub ok: usize,
    /// Targets processed with warnings.
    pub degraded: usize,
    /// Targets that failed.
    pub failed: usize,
    /// One block per target, in request order.
    pub page_results: Vec<PageResultMsg>,
    /// The per-request run manifest (JSON).
    pub manifest: String,
}

const MAGIC_REQUEST: &str = "tablesegd/v1 segment";
const MAGIC_RESPONSE: &str = "tablesegd/v1 result";

fn push_block(out: &mut String, html: &str) {
    out.push_str(&format!("page {}\n{html}\n", html.len()));
}

/// Encodes a request body.
pub fn encode_request(req: &SegmentRequest) -> String {
    let mut out = format!("{MAGIC_REQUEST}\nsite {}\n", req.site);
    out.push_str(&format!("lists {}\n", req.list_pages.len()));
    req.list_pages.iter().for_each(|p| push_block(&mut out, p));
    out.push_str(&format!("targets {}\n", req.targets.len()));
    for t in &req.targets {
        let (target, details) = (t.target, t.details.len());
        out.push_str(&format!("target {target} details {details}\n"));
        t.details.iter().for_each(|d| push_block(&mut out, d));
    }
    out.push_str("end\n");
    out
}

/// A cursor over the line-oriented body. Tracks a byte offset so
/// length-prefixed blocks can be sliced without scanning.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn line(&mut self) -> Result<&'a str, String> {
        if self.pos >= self.text.len() {
            return Err("unexpected end of body".to_string());
        }
        let rest = &self.text[self.pos..];
        let end = rest.find('\n').ok_or("unterminated line")?;
        self.pos += end + 1;
        Ok(&rest[..end])
    }

    /// Reads a `<word> <len>` line plus the block it announces.
    fn block(&mut self, word: &str) -> Result<&'a str, String> {
        let len = parse_usize(self.keyword(word)?, "block length")?;
        if self.pos + len + 1 > self.text.len() {
            return Err(format!("{word} block truncated"));
        }
        if !self.text.is_char_boundary(self.pos + len) {
            return Err(format!("{word} length splits a utf-8 sequence"));
        }
        let block = &self.text[self.pos..self.pos + len];
        self.pos += len;
        if !self.line()?.is_empty() {
            return Err(format!("{word} block not newline-terminated"));
        }
        Ok(block)
    }

    fn keyword(&mut self, word: &str) -> Result<&'a str, String> {
        let line = self.line()?;
        match line.strip_prefix(word) {
            Some("") => Ok(""),
            Some(rest) if rest.starts_with(' ') => Ok(&rest[1..]),
            _ => Err(format!("expected {word:?}, got {line:?}")),
        }
    }
}

fn parse_usize(s: &str, what: &str) -> Result<usize, String> {
    s.trim().parse().map_err(|_| format!("bad {what}: {s:?}"))
}

/// Parses a request body. The pages stay in `body`.
pub fn parse_request(body: &str) -> Result<SegmentRequestRef<'_>, String> {
    let mut c = Cursor { text: body, pos: 0 };
    if c.line()? != MAGIC_REQUEST {
        return Err("not a tablesegd/v1 segment request".to_string());
    }
    let site = c.keyword("site")?;
    if site.is_empty() {
        return Err("empty site name".to_string());
    }
    let lists = parse_usize(c.keyword("lists")?, "list count")?;
    let mut list_pages = Vec::with_capacity(lists.min(64));
    for _ in 0..lists {
        list_pages.push(c.block("page")?);
    }
    let targets = parse_usize(c.keyword("targets")?, "target count")?;
    let mut target_specs = Vec::with_capacity(targets.min(64));
    for _ in 0..targets {
        let rest = c.keyword("target")?;
        let (idx, det) = rest.split_once(" details ").ok_or("bad target line")?;
        let target = parse_usize(idx, "target index")?;
        let details_n = parse_usize(det, "detail count")?;
        let mut details = Vec::with_capacity(details_n.min(64));
        for _ in 0..details_n {
            details.push(c.block("page")?);
        }
        target_specs.push(TargetSpecRef { target, details });
    }
    if c.line()? != "end" {
        return Err("missing end marker".to_string());
    }
    Ok(SegmentRequestRef {
        site,
        list_pages,
        targets: target_specs,
    })
}

/// `values` comma-separated, or `-` when empty.
fn push_list(out: &mut String, values: &[usize]) {
    if values.is_empty() {
        out.push('-');
    }
    push_joined(out, values, ',');
}

fn push_joined(out: &mut String, values: &[usize], sep: char) {
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        push_u64(out, v as u64);
    }
}

fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',').map(|v| parse_usize(v, "list item")).collect()
}

/// Groups `|`-separated, their members space-separated, or `-` when
/// there are no groups.
fn push_groups(out: &mut String, groups: &[Vec<usize>]) {
    if groups.is_empty() {
        out.push('-');
    }
    for (i, group) in groups.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        push_joined(out, group, ' ');
    }
}

fn parse_groups(s: &str) -> Result<Vec<Vec<usize>>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split('|')
        .map(|g| {
            g.split(' ')
                .filter(|t| !t.is_empty())
                .map(|t| parse_usize(t, "group item"))
                .collect()
        })
        .collect()
}

fn push_segmenter(out: &mut String, name: &str, m: &SegmenterMsg) {
    out.push_str(name);
    out.push_str(if m.relaxed {
        " relaxed 1 groups "
    } else {
        " relaxed 0 groups "
    });
    push_groups(out, &m.groups);
    out.push('\n');
}

fn parse_segmenter(rest: &str) -> Result<SegmenterMsg, String> {
    let rest = rest.strip_prefix("relaxed ").ok_or("bad segmenter line")?;
    let (flag, groups) = rest.split_once(" groups ").ok_or("bad segmenter line")?;
    Ok(SegmenterMsg {
        relaxed: flag.trim() == "1",
        groups: parse_groups(groups)?,
    })
}

/// Encodes a response body, writing every field straight into one
/// buffer.
pub fn encode_response(resp: &SegmentResponse) -> String {
    let mut out = String::new();
    let counts = [resp.pages, resp.ok, resp.degraded, resp.failed];
    push_response_head(&mut out, &resp.site, &resp.cache, resp.generation, counts);
    for p in &resp.page_results {
        push_page_head(&mut out, p.target, &p.status, p.cached);
        push_page_section(&mut out, p);
    }
    push_manifest(&mut out, &resp.manifest);
    out
}

/// Writes a response's lines up to its first page block; `counts` are
/// its pages, ok, degraded and failed.
pub(crate) fn push_response_head(
    out: &mut String,
    site: &str,
    cache: &str,
    generation: u64,
    counts: [usize; 4],
) {
    out.push_str(MAGIC_RESPONSE);
    out.push_str("\nsite ");
    out.push_str(site);
    out.push_str("\ncache ");
    out.push_str(cache);
    out.push_str("\ngeneration ");
    push_u64(out, generation);
    let labels = ["\npages ", " ok ", " degraded ", " failed "];
    for (label, n) in labels.into_iter().zip(counts) {
        out.push_str(label);
        push_u64(out, n as u64);
    }
    out.push('\n');
}

/// Writes a page block's first line, the only one that says whether the
/// block was cached.
pub(crate) fn push_page_head(out: &mut String, target: usize, status: &str, cached: bool) {
    out.push_str("page ");
    push_u64(out, target as u64);
    out.push(' ');
    out.push_str(status);
    out.push_str(if cached { " cached\n" } else { " computed\n" });
}

/// Writes the rest of `p`'s page block, through its `endpage` line.
pub(crate) fn push_page_section(out: &mut String, p: &PageResultMsg) {
    out.push_str(if p.whole_page {
        "whole_page 1\nwarnings "
    } else {
        "whole_page 0\nwarnings "
    });
    if p.warnings.is_empty() {
        out.push('-');
    }
    for (i, w) in p.warnings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(w);
    }
    out.push_str("\noffsets ");
    push_list(out, &p.offsets);
    out.push('\n');
    if let Some(prob) = &p.prob {
        push_segmenter(out, "prob", prob);
    }
    if let Some(csp) = &p.csp {
        push_segmenter(out, "csp", csp);
    }
    if let Some((stage, message)) = &p.error {
        // The error travels on one line: newlines become spaces.
        out.push_str("error ");
        out.push_str(stage);
        out.push(' ');
        for (i, line) in message.split('\n').enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(line);
        }
        out.push('\n');
    }
    out.push_str("endpage\n");
}

/// Writes the length-prefixed manifest and the end marker.
pub(crate) fn push_manifest(out: &mut String, manifest: &str) {
    out.push_str("manifest ");
    push_u64(out, manifest.len() as u64);
    out.push('\n');
    out.push_str(manifest);
    out.push_str("\nend\n");
}

/// Parses a response body.
pub fn parse_response(body: &str) -> Result<SegmentResponse, String> {
    let mut c = Cursor { text: body, pos: 0 };
    if c.line()? != MAGIC_RESPONSE {
        return Err("not a tablesegd/v1 result".to_string());
    }
    let site = c.keyword("site")?.to_string();
    let cache = c.keyword("cache")?.to_string();
    let generation: u64 = c
        .keyword("generation")?
        .parse()
        .map_err(|_| "bad generation".to_string())?;
    let counts = c.keyword("pages")?;
    let nums: Vec<&str> = counts.split(' ').collect();
    if nums.len() != 7 || nums[1] != "ok" || nums[3] != "degraded" || nums[5] != "failed" {
        return Err(format!("bad pages line: {counts:?}"));
    }
    let pages = parse_usize(nums[0], "pages")?;
    let ok = parse_usize(nums[2], "ok")?;
    let degraded = parse_usize(nums[4], "degraded")?;
    let failed = parse_usize(nums[6], "failed")?;
    let mut page_results = Vec::with_capacity(pages.min(64));
    for _ in 0..pages {
        let head = c.keyword("page")?;
        let parts: Vec<&str> = head.split(' ').collect();
        if parts.len() != 3 {
            return Err(format!("bad page head: {head:?}"));
        }
        let target = parse_usize(parts[0], "target")?;
        let status = parts[1].to_string();
        let cached = match parts[2] {
            "cached" => true,
            "computed" => false,
            other => return Err(format!("bad cache marker: {other:?}")),
        };
        let whole_page = c.keyword("whole_page")? == "1";
        let warnings_raw = c.keyword("warnings")?;
        let warnings = if warnings_raw == "-" {
            Vec::new()
        } else {
            warnings_raw.split(',').map(str::to_string).collect()
        };
        let offsets = parse_list(c.keyword("offsets")?)?;
        let mut prob = None;
        let mut csp = None;
        let mut error = None;
        loop {
            let line = c.line()?;
            if line == "endpage" {
                break;
            } else if let Some(rest) = line.strip_prefix("prob ") {
                prob = Some(parse_segmenter(rest)?);
            } else if let Some(rest) = line.strip_prefix("csp ") {
                csp = Some(parse_segmenter(rest)?);
            } else if let Some(rest) = line.strip_prefix("error ") {
                let (stage, message) = rest.split_once(' ').unwrap_or((rest, ""));
                error = Some((stage.to_string(), message.to_string()));
            } else {
                return Err(format!("unexpected line in page block: {line:?}"));
            }
        }
        page_results.push(PageResultMsg {
            target,
            status,
            cached,
            whole_page,
            warnings,
            offsets,
            prob,
            csp,
            error,
        });
    }
    let manifest = c.block("manifest")?.to_string();
    if c.line()? != "end" {
        return Err("missing end marker".to_string());
    }
    Ok(SegmentResponse {
        site,
        cache,
        generation,
        pages,
        ok,
        degraded,
        failed,
        page_results,
        manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The owned request whose pages a parsed one borrows.
    fn owned(req: SegmentRequestRef<'_>) -> SegmentRequest {
        SegmentRequest {
            site: req.site.to_string(),
            list_pages: req.list_pages.iter().map(|p| p.to_string()).collect(),
            targets: req
                .targets
                .iter()
                .map(|t| TargetSpec {
                    target: t.target,
                    details: t.details.iter().map(|d| d.to_string()).collect(),
                })
                .collect(),
        }
    }

    fn sample_request() -> SegmentRequest {
        SegmentRequest {
            site: "whitepages".to_string(),
            list_pages: vec![
                "<html>list one\nwith a newline</html>".to_string(),
                "<html>page 12\nend\n</html>".to_string(),
            ],
            targets: vec![
                TargetSpec {
                    target: 0,
                    details: vec!["<h2>Ada</h2>".to_string(), "<h2>Alan</h2>".to_string()],
                },
                TargetSpec {
                    target: 1,
                    details: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn request_roundtrips() {
        let req = sample_request();
        let body = encode_request(&req);
        assert_eq!(owned(parse_request(&body).unwrap()), req);
    }

    #[test]
    fn request_with_protocol_keywords_in_pages_roundtrips() {
        // Page bytes containing codec keywords must not confuse the
        // parser — blocks are length-prefixed, never scanned.
        let mut req = sample_request();
        req.list_pages[0] = "end\ntargets 9\npage 3\nxyz\n".to_string();
        let body = encode_request(&req);
        assert_eq!(owned(parse_request(&body).unwrap()), req);
    }

    #[test]
    fn response_roundtrips() {
        let resp = SegmentResponse {
            site: "whitepages".to_string(),
            cache: "warm".to_string(),
            generation: 3,
            pages: 2,
            ok: 1,
            degraded: 0,
            failed: 1,
            page_results: vec![
                PageResultMsg {
                    target: 0,
                    status: "ok".to_string(),
                    cached: true,
                    whole_page: false,
                    warnings: Vec::new(),
                    offsets: vec![10, 25, 40],
                    prob: Some(SegmenterMsg {
                        relaxed: false,
                        groups: vec![vec![0, 1], vec![2]],
                    }),
                    csp: Some(SegmenterMsg {
                        relaxed: true,
                        groups: vec![vec![0], vec![1, 2]],
                    }),
                    error: None,
                },
                PageResultMsg {
                    target: 1,
                    status: "failed".to_string(),
                    cached: false,
                    whole_page: false,
                    warnings: vec!["empty_list_page".to_string()],
                    offsets: Vec::new(),
                    prob: None,
                    csp: None,
                    error: Some(("serve".to_string(), "deadline exceeded".to_string())),
                },
            ],
            manifest: "{\n  \"tool\": \"tablesegd\"\n}".to_string(),
        };
        let parsed = parse_response(&encode_response(&resp)).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn truncated_and_garbage_bodies_are_errors() {
        assert!(parse_request("").is_err());
        assert!(parse_request("tablesegd/v1 segment\nsite x\nlists 1\npage 99\nshort\n").is_err());
        assert!(parse_request("GET / HTTP/1.1").is_err());
        assert!(parse_response("tablesegd/v1 result\nsite x\n").is_err());
        // A manifest length that splits a UTF-8 sequence is an error, not
        // a panic on the slice.
        let head = "tablesegd/v1 result\nsite x\ncache warm\ngeneration 1\n";
        let split = format!("{head}pages 0 ok 0 degraded 0 failed 0\nmanifest 1\né\nend\n");
        assert!(parse_response(&split).is_err());
    }
}
