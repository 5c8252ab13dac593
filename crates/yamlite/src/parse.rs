//! Indentation-based recursive-descent parser for the YAML subset.
//!
//! The parser works on *logical lines*: raw lines annotated with their indent
//! and 1-based line number. Block structure (mappings, sequences) is derived
//! from indentation; scalars on the remainder of a line are handed to a small
//! cursor-based flow parser that also understands `[...]`/`{...}` flow
//! collections (and therefore JSON).

use crate::error::{ParseError, Position};
use crate::span::SpanIndex;
use crate::value::{Map, Value};

/// Parse a single YAML document from a string.
///
/// A leading `---` document marker is accepted; content after a second
/// document marker is rejected (multi-document streams are out of scope).
pub fn parse_str(text: &str) -> Result<Value, ParseError> {
    parse_impl(text, false).map(|(v, _)| v)
}

/// Parse a single YAML document and also return a [`SpanIndex`] recording
/// the source position of every block mapping key and sequence item, keyed
/// by dotted path (`steps[0].scatter`). Nodes inside flow collections fall
/// back to their nearest block-level ancestor via [`SpanIndex::resolve`].
pub fn parse_str_spanned(text: &str) -> Result<(Value, SpanIndex), ParseError> {
    parse_impl(text, true).map(|(v, s)| (v, s.unwrap_or_default()))
}

fn parse_impl(text: &str, spanned: bool) -> Result<(Value, Option<SpanIndex>), ParseError> {
    let lines = scan_lines(text)?;
    if lines.is_empty() {
        return Ok((Value::Null, spanned.then(SpanIndex::new)));
    }
    let mut p = Parser {
        lines,
        pos: 0,
        path: String::new(),
        spans: spanned.then(SpanIndex::new),
    };
    let v = p.parse_node(0)?;
    if let Some(line) = p.peek() {
        return Err(ParseError::at(
            format!("unexpected content after document root: {:?}", line.content),
            Position::new(line.number, line.indent + 1),
        ));
    }
    Ok((v, p.spans))
}

/// A raw content line with its indentation and source position.
#[derive(Debug, Clone)]
struct Line {
    indent: usize,
    content: String,
    number: usize,
}

/// Split the input into logical lines: tabs rejected in indentation, blank
/// and comment-only lines dropped (except inside block scalars, which are
/// re-read from `raw` later — so we also keep a copy of blank lines tagged by
/// `is_blank` for block-scalar bodies).
fn scan_lines(text: &str) -> Result<Vec<Line>, ParseError> {
    let mut out = Vec::new();
    let mut seen_doc_marker = false;
    for (i, raw) in text.lines().enumerate() {
        let number = i + 1;
        let without_cr = raw.strip_suffix('\r').unwrap_or(raw);
        let indent = without_cr.len() - without_cr.trim_start_matches(' ').len();
        if without_cr[indent..].starts_with('\t') {
            return Err(ParseError::at(
                "tab characters are not allowed in indentation",
                Position::new(number, indent + 1),
            ));
        }
        let content = &without_cr[indent..];
        if content.is_empty() {
            out.push(Line {
                indent,
                content: String::new(),
                number,
            });
            continue;
        }
        if content == "---" || content.starts_with("--- ") {
            if seen_doc_marker {
                return Err(ParseError::at(
                    "multi-document streams are not supported",
                    Position::new(number, 1),
                ));
            }
            seen_doc_marker = true;
            // Content may follow the marker on the same line: `--- foo`.
            let rest = content.trim_start_matches("---").trim_start();
            if !rest.is_empty() {
                out.push(Line {
                    indent,
                    content: rest.to_string(),
                    number,
                });
            }
            continue;
        }
        if content == "..." {
            break; // explicit end-of-document
        }
        out.push(Line {
            indent,
            content: content.to_string(),
            number,
        });
    }
    Ok(out)
}

/// True when the line is blank or only a comment (ignorable for structure).
fn is_ignorable(content: &str) -> bool {
    let t = content.trim_start();
    t.is_empty() || t.starts_with('#')
}

struct Parser {
    lines: Vec<Line>,
    pos: usize,
    /// Dotted path of the node currently being parsed (span recording only).
    path: String,
    /// When `Some`, key/item positions are recorded here as parsing proceeds.
    spans: Option<SpanIndex>,
}

impl Parser {
    /// Next structural (non-blank, non-comment) line without consuming it.
    fn peek(&mut self) -> Option<&Line> {
        while self.pos < self.lines.len() && is_ignorable(&self.lines[self.pos].content) {
            self.pos += 1;
        }
        self.lines.get(self.pos)
    }

    fn err(&self, msg: impl Into<String>, line: &Line) -> ParseError {
        ParseError::at(msg, Position::new(line.number, line.indent + 1))
    }

    /// Extend the current path with a mapping key, returning the length to
    /// truncate back to. No-op (returns the current length) when spans are
    /// not being recorded.
    fn push_key(&mut self, key: &str) -> usize {
        let saved = self.path.len();
        if self.spans.is_some() {
            if !self.path.is_empty() {
                self.path.push('.');
            }
            self.path.push_str(key);
        }
        saved
    }

    /// Extend the current path with a sequence index (see [`Self::push_key`]).
    fn push_index(&mut self, index: usize) -> usize {
        let saved = self.path.len();
        if self.spans.is_some() {
            self.path.push('[');
            self.path.push_str(&index.to_string());
            self.path.push(']');
        }
        saved
    }

    /// Record the position of the node at the current path.
    fn record(&mut self, line: usize, col: usize) {
        if let Some(spans) = self.spans.as_mut() {
            spans.insert(self.path.clone(), Position::new(line, col));
        }
    }

    /// Parse the node starting at the current line, which must have
    /// `indent >= min_indent`. Returns `Null` when there is no such node.
    fn parse_node(&mut self, min_indent: usize) -> Result<Value, ParseError> {
        let Some(line) = self.peek() else {
            return Ok(Value::Null);
        };
        if line.indent < min_indent {
            return Ok(Value::Null);
        }
        let indent = line.indent;
        let content = line.content.clone();
        if content == "-" || content.starts_with("- ") {
            self.parse_sequence(indent)
        } else if let Some(colon) = find_key_colon(&content) {
            let _ = colon;
            self.parse_mapping(indent)
        } else {
            // A standalone scalar (or flow collection) line.
            let number = line.number;
            self.pos += 1;
            let stripped = strip_comment(&content);
            parse_flow_scalar(stripped.trim_end(), number, indent)
        }
    }

    /// Parse a block mapping whose keys sit at exactly `indent`.
    #[allow(clippy::while_let_loop)] // loop body breaks on several conditions
    fn parse_mapping(&mut self, indent: usize) -> Result<Value, ParseError> {
        let mut map = Map::new();
        loop {
            let Some(line) = self.peek() else { break };
            let line = line.clone();
            if line.indent != indent {
                if line.indent > indent {
                    return Err(self.err(
                        format!("unexpected indentation (expected {indent} spaces)"),
                        &line,
                    ));
                }
                break;
            }
            let Some(colon) = find_key_colon(&line.content) else {
                break; // not a mapping entry; let the caller deal with it
            };
            let raw_key = line.content[..colon].trim_end();
            let key = parse_key(raw_key, &line).map_err(|m| self.err(m, &line))?;
            if map.contains_key(&key) {
                return Err(self.err(format!("duplicate mapping key {key:?}"), &line));
            }
            let rest_full = line.content[colon + 1..].trim_start();
            let rest = strip_comment(rest_full);
            let rest = rest.trim_end();
            self.pos += 1;

            let saved = self.push_key(&key);
            self.record(line.number, indent + 1);
            let value = if rest.is_empty() {
                self.parse_child_value(indent)?
            } else if let Some(header) = BlockScalarHeader::parse(rest) {
                self.parse_block_scalar(indent, header)?
            } else {
                parse_flow_scalar(rest, line.number, colon + 2)?
            };
            self.path.truncate(saved);
            map.insert(key, value);
        }
        Ok(Value::Map(map))
    }

    /// Parse the value belonging to a `key:` with nothing after the colon:
    /// either a more-indented block, a sequence at the *same* indent (YAML
    /// permits this), or null.
    fn parse_child_value(&mut self, parent_indent: usize) -> Result<Value, ParseError> {
        let Some(next) = self.peek() else {
            return Ok(Value::Null);
        };
        let next_indent = next.indent;
        let next_is_dash = next.content == "-" || next.content.starts_with("- ");
        if next_indent > parent_indent {
            self.parse_node(next_indent)
        } else if next_indent == parent_indent && next_is_dash {
            self.parse_sequence(parent_indent)
        } else {
            Ok(Value::Null)
        }
    }

    /// Parse a block sequence whose dashes sit at exactly `indent`.
    #[allow(clippy::while_let_loop)] // loop body breaks on several conditions
    fn parse_sequence(&mut self, indent: usize) -> Result<Value, ParseError> {
        let mut items = Vec::new();
        loop {
            let Some(line) = self.peek() else { break };
            if line.indent != indent || !(line.content == "-" || line.content.starts_with("- ")) {
                break;
            }
            let line = line.clone();
            let after_dash_offset = if line.content == "-" { 1 } else { 2 };
            let rest_full = line.content[after_dash_offset.min(line.content.len())..].to_string();
            let rest_trimmed = strip_comment(rest_full.trim_start()).trim_end().to_string();

            let saved = self.push_index(items.len());
            self.record(line.number, indent + 1);
            if rest_trimmed.is_empty() {
                // `-` alone: nested node on following more-indented lines.
                self.pos += 1;
                let item = self.parse_node(indent + 1)?;
                items.push(item);
            } else if let Some(header) = BlockScalarHeader::parse(&rest_trimmed) {
                self.pos += 1;
                items.push(self.parse_block_scalar(indent, header)?);
            } else if find_key_colon(&rest_trimmed).is_some() {
                // `- key: value` — an inline mapping whose keys are indented
                // at the column where the content starts. Rewrite the current
                // line in place to drop the dash, then parse a mapping there.
                let leading_ws = rest_full.len() - rest_full.trim_start().len();
                let content_col = indent + after_dash_offset + leading_ws;
                self.lines[self.pos] = Line {
                    indent: content_col,
                    content: rest_full.trim_start().to_string(),
                    number: line.number,
                };
                let item = self.parse_mapping(content_col)?;
                items.push(item);
            } else {
                self.pos += 1;
                items.push(parse_flow_scalar(&rest_trimmed, line.number, indent + 3)?);
            }
            self.path.truncate(saved);
        }
        Ok(Value::Seq(items))
    }

    /// Parse the body of a literal (`|`) or folded (`>`) block scalar whose
    /// header appeared on a line indented at `parent_indent`.
    fn parse_block_scalar(
        &mut self,
        parent_indent: usize,
        header: BlockScalarHeader,
    ) -> Result<Value, ParseError> {
        // Collect raw body lines: all lines more indented than the parent,
        // plus interleaved blank lines.
        let mut body: Vec<(usize, String)> = Vec::new();
        while self.pos < self.lines.len() {
            let line = &self.lines[self.pos];
            if line.content.is_empty() {
                body.push((0, String::new()));
                self.pos += 1;
                continue;
            }
            if line.indent <= parent_indent {
                break;
            }
            body.push((line.indent, line.content.clone()));
            self.pos += 1;
        }
        // Trim trailing blank lines out of the body; chomping rules decide
        // how many newlines survive.
        let mut trailing_blanks = 0usize;
        while body.last().is_some_and(|(_, c)| c.is_empty()) {
            body.pop();
            trailing_blanks += 1;
        }
        // Determine the block indent: explicit from the header, else the
        // indent of the first non-empty body line.
        let block_indent = match header.explicit_indent {
            Some(n) => parent_indent + n,
            None => body
                .iter()
                .find(|(_, c)| !c.is_empty())
                .map(|(i, _)| *i)
                .unwrap_or(parent_indent + 1),
        };
        let mut text_lines: Vec<String> = Vec::with_capacity(body.len());
        for (ind, content) in &body {
            if content.is_empty() {
                text_lines.push(String::new());
            } else {
                let extra = ind.saturating_sub(block_indent);
                text_lines.push(format!("{}{}", " ".repeat(extra), content));
            }
        }
        let mut text = if header.folded {
            fold_lines(&text_lines)
        } else {
            text_lines.join("\n")
        };
        match header.chomp {
            Chomp::Strip => {}
            Chomp::Clip => {
                if !text.is_empty() {
                    text.push('\n');
                }
            }
            Chomp::Keep => {
                if !text.is_empty() || trailing_blanks > 0 {
                    text.push('\n');
                    for _ in 0..trailing_blanks {
                        text.push('\n');
                    }
                }
            }
        }
        Ok(Value::Str(text))
    }
}

/// Folded-style joining: adjacent non-empty lines are joined with a space;
/// blank lines become newlines. (More-indented lines keep their breaks.)
fn fold_lines(lines: &[String]) -> String {
    let mut out = String::new();
    let mut prev_text = false;
    for line in lines {
        if line.is_empty() {
            out.push('\n');
            prev_text = false;
        } else if line.starts_with(' ') {
            // More-indented content keeps literal line breaks.
            if prev_text {
                out.push('\n');
            }
            out.push_str(line);
            prev_text = true;
        } else {
            if prev_text {
                out.push(' ');
            }
            out.push_str(line);
            prev_text = true;
        }
    }
    out
}

#[derive(Debug, Clone, Copy)]
enum Chomp {
    Clip,
    Strip,
    Keep,
}

#[derive(Debug, Clone, Copy)]
struct BlockScalarHeader {
    folded: bool,
    chomp: Chomp,
    explicit_indent: Option<usize>,
}

impl BlockScalarHeader {
    /// Recognize `|`, `>`, with optional chomping `-`/`+` and explicit indent
    /// digit in either order (e.g. `|-`, `>2`, `|+2`, `|2-`).
    fn parse(s: &str) -> Option<Self> {
        let mut chars = s.chars();
        let first = chars.next()?;
        let folded = match first {
            '|' => false,
            '>' => true,
            _ => return None,
        };
        let mut chomp = Chomp::Clip;
        let mut explicit_indent = None;
        for c in chars {
            match c {
                '-' => chomp = Chomp::Strip,
                '+' => chomp = Chomp::Keep,
                '1'..='9' => explicit_indent = Some(c as usize - '0' as usize),
                _ => return None, // trailing junk: not a header
            }
        }
        Some(Self {
            folded,
            chomp,
            explicit_indent,
        })
    }
}

/// Find the byte index of the `:` that separates a mapping key from its
/// value, or `None` if this line is not a mapping entry. The colon must be
/// outside quotes and brackets and followed by whitespace/EOL.
fn find_key_colon(content: &str) -> Option<usize> {
    let bytes = content.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    let mut in_single = false;
    let mut in_double = false;
    while i < bytes.len() {
        let b = bytes[i];
        if in_single {
            if b == b'\'' {
                in_single = false;
            }
        } else if in_double {
            if b == b'\\' {
                i += 1;
            } else if b == b'"' {
                in_double = false;
            }
        } else {
            match b {
                b'\'' => in_single = true,
                b'"' => in_double = true,
                b'[' | b'{' => depth += 1,
                b']' | b'}' => depth = depth.saturating_sub(1),
                b'#' if i > 0 && bytes[i - 1].is_ascii_whitespace() => return None,
                b':' if depth == 0
                    && (i + 1 >= bytes.len() || bytes[i + 1].is_ascii_whitespace()) =>
                {
                    return Some(i);
                }
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Strip a trailing ` #comment` from a line fragment (outside quotes).
fn strip_comment(s: &str) -> &str {
    let bytes = s.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if in_single {
            if b == b'\'' {
                in_single = false;
            }
        } else if in_double {
            if b == b'\\' {
                i += 1;
            } else if b == b'"' {
                in_double = false;
            }
        } else {
            match b {
                b'\'' => in_single = true,
                b'"' => in_double = true,
                b'#' if i == 0 || bytes[i - 1].is_ascii_whitespace() => {
                    return s[..i].trim_end();
                }
                _ => {}
            }
        }
        i += 1;
    }
    s
}

/// Parse a mapping key: plain or quoted.
fn parse_key(raw: &str, _line: &Line) -> Result<String, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err("empty mapping key".to_string());
    }
    if (raw.starts_with('"') && raw.ends_with('"') && raw.len() >= 2)
        || (raw.starts_with('\'') && raw.ends_with('\'') && raw.len() >= 2)
    {
        let mut cursor = Cursor::new(raw, 0, 0);
        let v = cursor.parse_quoted()?;
        return Ok(match v {
            Value::Str(s) => s,
            other => other.to_display_string(),
        });
    }
    Ok(raw.to_string())
}

/// Parse a single-line value: flow collection, quoted scalar, or plain scalar
/// with core-schema resolution.
fn parse_flow_scalar(s: &str, line_no: usize, col: usize) -> Result<Value, ParseError> {
    let mut cursor = Cursor::new(s, line_no, col);
    cursor.skip_ws();
    let v = cursor
        .parse_flow_value(FlowCtx::Top)
        .map_err(|m| ParseError::at(m, Position::new(line_no, col + cursor.i + 1)))?;
    cursor.skip_ws();
    if !cursor.at_end() {
        return Err(ParseError::at(
            format!("trailing characters after value: {:?}", &s[cursor.i..]),
            Position::new(line_no, col + cursor.i + 1),
        ));
    }
    Ok(v)
}

/// Context a plain flow scalar is being read in — determines terminators.
#[derive(Clone, Copy, PartialEq)]
enum FlowCtx {
    /// Top level of a line: scalar runs to end of line.
    Top,
    /// Inside `[...]`: terminated by `,` or `]`.
    Seq,
    /// Inside `{...}` reading a key: terminated by `:`; or a value:
    /// terminated by `,` or `}`.
    MapKey,
    MapValue,
}

struct Cursor<'a> {
    s: &'a str,
    bytes: &'a [u8],
    i: usize,
    #[allow(dead_code)]
    line: usize,
    #[allow(dead_code)]
    col: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str, line: usize, col: usize) -> Self {
        Self {
            s,
            bytes: s.as_bytes(),
            i: 0,
            line,
            col,
        }
    }

    fn at_end(&self) -> bool {
        self.i >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b == b' ' || b == b'\t') {
            self.i += 1;
        }
    }

    fn parse_flow_value(&mut self, ctx: FlowCtx) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => Ok(Value::Null),
            Some(b'[') => self.parse_flow_seq(),
            Some(b'{') => self.parse_flow_map(),
            Some(b'"') | Some(b'\'') => self.parse_quoted(),
            _ => self.parse_plain(ctx),
        }
    }

    fn parse_flow_seq(&mut self) -> Result<Value, String> {
        debug_assert_eq!(self.peek(), Some(b'['));
        self.i += 1;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err("unterminated flow sequence".to_string()),
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Seq(items));
                }
                Some(b',') => {
                    self.i += 1;
                    continue;
                }
                _ => {
                    let v = self.parse_flow_value(FlowCtx::Seq)?;
                    items.push(v);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.i += 1;
                        }
                        Some(b']') => {}
                        None => return Err("unterminated flow sequence".to_string()),
                        Some(c) => {
                            return Err(format!(
                                "expected ',' or ']' in flow sequence, found {:?}",
                                c as char
                            ))
                        }
                    }
                }
            }
        }
    }

    fn parse_flow_map(&mut self) -> Result<Value, String> {
        debug_assert_eq!(self.peek(), Some(b'{'));
        self.i += 1;
        let mut map = Map::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err("unterminated flow mapping".to_string()),
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Map(map));
                }
                Some(b',') => {
                    self.i += 1;
                    continue;
                }
                _ => {
                    let key = self.parse_flow_value(FlowCtx::MapKey)?;
                    let key = match key {
                        Value::Str(s) => s,
                        other => other.to_display_string(),
                    };
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(format!("expected ':' after flow mapping key {key:?}"));
                    }
                    self.i += 1;
                    let value = self.parse_flow_value(FlowCtx::MapValue)?;
                    map.insert(key, value);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.i += 1;
                        }
                        Some(b'}') => {}
                        None => return Err("unterminated flow mapping".to_string()),
                        Some(c) => {
                            return Err(format!(
                                "expected ',' or '}}' in flow mapping, found {:?}",
                                c as char
                            ))
                        }
                    }
                }
            }
        }
    }

    fn parse_quoted(&mut self) -> Result<Value, String> {
        let quote = self.peek().unwrap();
        self.i += 1;
        let mut out = String::new();
        if quote == b'\'' {
            // Single-quoted: '' is an escaped quote, no other escapes.
            loop {
                match self.peek() {
                    None => return Err("unterminated single-quoted string".to_string()),
                    Some(b'\'') => {
                        self.i += 1;
                        if self.peek() == Some(b'\'') {
                            out.push('\'');
                            self.i += 1;
                        } else {
                            return Ok(Value::Str(out));
                        }
                    }
                    Some(_) => {
                        let c = self.next_char();
                        out.push(c);
                    }
                }
            }
        } else {
            // Double-quoted: C-style escapes.
            loop {
                match self.peek() {
                    None => return Err("unterminated double-quoted string".to_string()),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(Value::Str(out));
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        let esc = self.peek().ok_or("dangling escape at end of string")?;
                        self.i += 1;
                        match esc {
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'0' => out.push('\0'),
                            b'\\' => out.push('\\'),
                            b'"' => out.push('"'),
                            b'\'' => out.push('\''),
                            b'u' => {
                                let hex = self
                                    .s
                                    .get(self.i..self.i + 4)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                                );
                                self.i += 4;
                            }
                            other => {
                                return Err(format!("unknown escape \\{}", other as char));
                            }
                        }
                    }
                    Some(_) => {
                        let c = self.next_char();
                        out.push(c);
                    }
                }
            }
        }
    }

    fn next_char(&mut self) -> char {
        let c = self.s[self.i..].chars().next().unwrap();
        self.i += c.len_utf8();
        c
    }

    fn parse_plain(&mut self, ctx: FlowCtx) -> Result<Value, String> {
        let start = self.i;
        while let Some(b) = self.peek() {
            let stop = match ctx {
                FlowCtx::Top => false,
                FlowCtx::Seq => b == b',' || b == b']',
                FlowCtx::MapValue => b == b',' || b == b'}',
                FlowCtx::MapKey => b == b':' || b == b',' || b == b'}',
            };
            if stop {
                break;
            }
            self.i += 1;
        }
        let raw = self.s[start..self.i].trim();
        Ok(resolve_scalar(raw))
    }
}

/// YAML 1.2 core-schema scalar resolution for plain scalars.
pub(crate) fn resolve_scalar(raw: &str) -> Value {
    match raw {
        "" | "~" | "null" | "Null" | "NULL" => return Value::Null,
        "true" | "True" | "TRUE" => return Value::Bool(true),
        "false" | "False" | "FALSE" => return Value::Bool(false),
        ".inf" | ".Inf" | "+.inf" => return Value::Float(f64::INFINITY),
        "-.inf" | "-.Inf" => return Value::Float(f64::NEG_INFINITY),
        ".nan" | ".NaN" | ".NAN" => return Value::Float(f64::NAN),
        _ => {}
    }
    if let Some(i) = parse_int(raw) {
        return Value::Int(i);
    }
    if looks_like_float(raw) {
        if let Ok(f) = raw.parse::<f64>() {
            return Value::Float(f);
        }
    }
    Value::Str(raw.to_string())
}

fn parse_int(raw: &str) -> Option<i64> {
    let (sign, body) = match raw.strip_prefix('-') {
        Some(b) => (-1i64, b),
        None => (1i64, raw.strip_prefix('+').unwrap_or(raw)),
    };
    if body.is_empty() {
        return None;
    }
    if let Some(hex) = body.strip_prefix("0x") {
        return i64::from_str_radix(hex, 16).ok().map(|v| sign * v);
    }
    if let Some(oct) = body.strip_prefix("0o") {
        return i64::from_str_radix(oct, 8).ok().map(|v| sign * v);
    }
    if body.bytes().all(|b| b.is_ascii_digit()) {
        return body.parse::<i64>().ok().map(|v| sign * v);
    }
    None
}

/// Conservative float shape check so strings like `1.2.3` or `e5` stay strings.
fn looks_like_float(raw: &str) -> bool {
    let body = raw.strip_prefix(['-', '+']).unwrap_or(raw);
    if body.is_empty() {
        return false;
    }
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => seen_digit = true,
            b'.' if !seen_dot && !seen_exp => seen_dot = true,
            b'e' | b'E' if seen_digit && !seen_exp => {
                seen_exp = true;
                if i + 1 < bytes.len() && (bytes[i + 1] == b'+' || bytes[i + 1] == b'-') {
                    i += 1;
                }
            }
            _ => return false,
        }
        i += 1;
    }
    seen_digit && (seen_dot || seen_exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vmap, vseq};

    #[test]
    fn empty_document_is_null() {
        assert_eq!(parse_str("").unwrap(), Value::Null);
        assert_eq!(parse_str("\n\n# just a comment\n").unwrap(), Value::Null);
    }

    #[test]
    fn scalar_resolution() {
        assert_eq!(resolve_scalar("null"), Value::Null);
        assert_eq!(resolve_scalar("~"), Value::Null);
        assert_eq!(resolve_scalar("true"), Value::Bool(true));
        assert_eq!(resolve_scalar("False"), Value::Bool(false));
        assert_eq!(resolve_scalar("42"), Value::Int(42));
        assert_eq!(resolve_scalar("-17"), Value::Int(-17));
        assert_eq!(resolve_scalar("0x1F"), Value::Int(31));
        assert_eq!(resolve_scalar("0o17"), Value::Int(15));
        assert_eq!(resolve_scalar("3.5"), Value::Float(3.5));
        assert_eq!(resolve_scalar("1e3"), Value::Float(1000.0));
        assert_eq!(resolve_scalar("1.2.3"), Value::str("1.2.3"));
        assert_eq!(resolve_scalar("v1.2"), Value::str("v1.2"));
        assert_eq!(resolve_scalar("hello"), Value::str("hello"));
    }

    #[test]
    fn simple_mapping() {
        let v = parse_str("a: 1\nb: two\nc: true\n").unwrap();
        assert_eq!(v, vmap! {"a" => 1i64, "b" => "two", "c" => true});
    }

    #[test]
    fn nested_mapping() {
        let v = parse_str("outer:\n  inner:\n    x: 1\n  y: 2\n").unwrap();
        assert_eq!(v["outer"]["inner"]["x"].as_int(), Some(1));
        assert_eq!(v["outer"]["y"].as_int(), Some(2));
    }

    #[test]
    fn block_sequence() {
        let v = parse_str("- 1\n- two\n- true\n").unwrap();
        assert_eq!(v, vseq![1i64, "two", true]);
    }

    #[test]
    fn sequence_under_key_same_indent() {
        let v = parse_str("items:\n- a\n- b\n").unwrap();
        assert_eq!(v["items"], vseq!["a", "b"]);
    }

    #[test]
    fn sequence_under_key_indented() {
        let v = parse_str("items:\n  - a\n  - b\n").unwrap();
        assert_eq!(v["items"], vseq!["a", "b"]);
    }

    #[test]
    fn sequence_of_mappings_inline() {
        let v = parse_str("steps:\n  - name: one\n    cmd: echo\n  - name: two\n").unwrap();
        let steps = v["steps"].as_seq().unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0]["name"].as_str(), Some("one"));
        assert_eq!(steps[0]["cmd"].as_str(), Some("echo"));
        assert_eq!(steps[1]["name"].as_str(), Some("two"));
    }

    #[test]
    fn sequence_item_nested_block() {
        let v = parse_str("-\n  a: 1\n-\n  a: 2\n").unwrap();
        let items = v.as_seq().unwrap();
        assert_eq!(items[0]["a"].as_int(), Some(1));
        assert_eq!(items[1]["a"].as_int(), Some(2));
    }

    #[test]
    fn flow_collections() {
        let v = parse_str("xs: [1, 2, 3]\nm: {a: 1, b: [x, 'y']}\n").unwrap();
        assert_eq!(v["xs"], vseq![1i64, 2i64, 3i64]);
        assert_eq!(v["m"]["a"].as_int(), Some(1));
        assert_eq!(v["m"]["b"], vseq!["x", "y"]);
    }

    #[test]
    fn json_compatibility() {
        let v = parse_str(r#"{"a": [1, 2.5, null, true], "b": {"c": "d"}}"#).unwrap();
        assert_eq!(v["a"][1].as_float(), Some(2.5));
        assert!(v["a"][2].is_null());
        assert_eq!(v["b"]["c"].as_str(), Some("d"));
    }

    #[test]
    fn quoted_scalars() {
        let v = parse_str("a: \"hello\\nworld\"\nb: 'it''s'\nc: \"\\u0041\"\n").unwrap();
        assert_eq!(v["a"].as_str(), Some("hello\nworld"));
        assert_eq!(v["b"].as_str(), Some("it's"));
        assert_eq!(v["c"].as_str(), Some("A"));
    }

    #[test]
    fn comments_stripped() {
        let v = parse_str("a: 1  # trailing\n# full line\nb: 'x # not comment'\n").unwrap();
        assert_eq!(v["a"].as_int(), Some(1));
        assert_eq!(v["b"].as_str(), Some("x # not comment"));
    }

    #[test]
    fn literal_block_scalar() {
        let v = parse_str("script: |\n  line one\n  line two\nafter: 1\n").unwrap();
        assert_eq!(v["script"].as_str(), Some("line one\nline two\n"));
        assert_eq!(v["after"].as_int(), Some(1));
    }

    #[test]
    fn literal_block_scalar_strip() {
        let v = parse_str("script: |-\n  x\n  y\n").unwrap();
        assert_eq!(v["script"].as_str(), Some("x\ny"));
    }

    #[test]
    fn literal_block_scalar_keep() {
        let v = parse_str("script: |+\n  x\n\n\nafter: 1\n").unwrap();
        assert_eq!(v["script"].as_str(), Some("x\n\n\n"));
        assert_eq!(v["after"].as_int(), Some(1));
    }

    #[test]
    fn literal_block_preserves_inner_indent() {
        let v = parse_str("code: |\n  def f():\n      return 1\n").unwrap();
        assert_eq!(v["code"].as_str(), Some("def f():\n    return 1\n"));
    }

    #[test]
    fn folded_block_scalar() {
        let v = parse_str("text: >\n  one\n  two\n\n  three\n").unwrap();
        assert_eq!(v["text"].as_str(), Some("one two\nthree\n"));
    }

    #[test]
    fn block_scalar_with_blank_interior_lines() {
        let v = parse_str("code: |\n  a\n\n  b\n").unwrap();
        assert_eq!(v["code"].as_str(), Some("a\n\nb\n"));
    }

    #[test]
    fn document_marker() {
        let v = parse_str("---\na: 1\n").unwrap();
        assert_eq!(v["a"].as_int(), Some(1));
    }

    #[test]
    fn multi_document_rejected() {
        assert!(parse_str("---\na: 1\n---\nb: 2\n").is_err());
    }

    #[test]
    fn tabs_in_indent_rejected() {
        let err = parse_str("a:\n\tb: 1\n").unwrap_err();
        assert!(err.message.contains("tab"));
    }

    #[test]
    fn duplicate_keys_rejected() {
        let err = parse_str("a: 1\na: 2\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn urls_are_strings_not_maps() {
        let v = parse_str("url: https://example.com/x\n").unwrap();
        assert_eq!(v["url"].as_str(), Some("https://example.com/x"));
    }

    #[test]
    fn colon_in_value_ok() {
        let v = parse_str("msg: time: is now\n").unwrap();
        // First colon wins as separator; the rest is part of the value.
        assert_eq!(v["msg"].as_str(), Some("time: is now"));
    }

    #[test]
    fn cwl_shaped_document() {
        let text = r#"
cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  message:
    type: string
    default: "Hello World"
    inputBinding:
      position: 1
outputs:
  output:
    type: stdout
stdout: hello.txt
"#;
        let v = parse_str(text).unwrap();
        assert_eq!(v["cwlVersion"].as_str(), Some("v1.2"));
        assert_eq!(v["class"].as_str(), Some("CommandLineTool"));
        assert_eq!(v["inputs"]["message"]["type"].as_str(), Some("string"));
        assert_eq!(
            v["inputs"]["message"]["inputBinding"]["position"].as_int(),
            Some(1)
        );
        assert_eq!(v["stdout"].as_str(), Some("hello.txt"));
    }

    #[test]
    fn requirements_list_of_classes() {
        let text = "requirements:\n  - class: StepInputExpressionRequirement\n  - class: ScatterFeatureRequirement\n";
        let v = parse_str(text).unwrap();
        let reqs = v["requirements"].as_seq().unwrap();
        assert_eq!(
            reqs[0]["class"].as_str(),
            Some("StepInputExpressionRequirement")
        );
        assert_eq!(reqs[1]["class"].as_str(), Some("ScatterFeatureRequirement"));
    }

    #[test]
    fn expression_lib_block() {
        let text = "requirements:\n  - class: InlinePythonRequirement\n    expressionLib: |\n      def f(x):\n          return x\n";
        let v = parse_str(text).unwrap();
        let lib = v["requirements"][0]["expressionLib"].as_str().unwrap();
        assert_eq!(lib, "def f(x):\n    return x\n");
    }

    #[test]
    fn trailing_garbage_after_scalar_rejected() {
        assert!(parse_str("a: [1, 2] junk\n").is_err());
    }

    #[test]
    fn unterminated_flow_rejected() {
        assert!(parse_str("a: [1, 2\n").is_err());
        assert!(parse_str("a: {x: 1\n").is_err());
        assert!(parse_str("a: \"oops\n").is_err());
    }

    #[test]
    fn deep_nesting() {
        let text = "a:\n  b:\n    c:\n      d:\n        - e: 1\n";
        let v = parse_str(text).unwrap();
        assert_eq!(v["a"]["b"]["c"]["d"][0]["e"].as_int(), Some(1));
    }

    #[test]
    fn dollar_expressions_survive() {
        let v = parse_str("arg: $(inputs.message)\nexpr: ${ return 1; }\n").unwrap();
        assert_eq!(v["arg"].as_str(), Some("$(inputs.message)"));
        assert_eq!(v["expr"].as_str(), Some("${ return 1; }"));
    }

    #[test]
    fn empty_value_is_null() {
        let v = parse_str("a:\nb: 1\n").unwrap();
        assert!(v["a"].is_null());
        assert_eq!(v["b"].as_int(), Some(1));
    }

    #[test]
    fn inline_seq_item_scalar_types() {
        let v = parse_str("- null\n- 3\n- 2.5\n").unwrap();
        assert_eq!(
            v,
            Value::Seq(vec![Value::Null, Value::Int(3), Value::Float(2.5)])
        );
    }

    #[test]
    fn spanned_records_mapping_keys() {
        let text = "a: 1\nnested:\n  x: 2\n  y: 3\n";
        let (v, spans) = parse_str_spanned(text).unwrap();
        assert_eq!(v["nested"]["y"].as_int(), Some(3));
        assert_eq!(spans.get("a"), Some(Position::new(1, 1)));
        assert_eq!(spans.get("nested"), Some(Position::new(2, 1)));
        assert_eq!(spans.get("nested.x"), Some(Position::new(3, 3)));
        assert_eq!(spans.get("nested.y"), Some(Position::new(4, 3)));
    }

    #[test]
    fn spanned_records_sequence_items() {
        let text = "steps:\n  - name: one\n    cmd: echo\n  - name: two\n";
        let (_, spans) = parse_str_spanned(text).unwrap();
        assert_eq!(spans.get("steps"), Some(Position::new(1, 1)));
        assert_eq!(spans.get("steps[0]"), Some(Position::new(2, 3)));
        assert_eq!(spans.get("steps[0].name"), Some(Position::new(2, 5)));
        assert_eq!(spans.get("steps[0].cmd"), Some(Position::new(3, 5)));
        assert_eq!(spans.get("steps[1]"), Some(Position::new(4, 3)));
        assert_eq!(spans.get("steps[1].name"), Some(Position::new(4, 5)));
    }

    #[test]
    fn spanned_resolve_flow_children_to_ancestor() {
        let text = "m: {a: 1, b: [x, y]}\n";
        let (v, spans) = parse_str_spanned(text).unwrap();
        assert_eq!(v["m"]["a"].as_int(), Some(1));
        // Flow children are not individually recorded but resolve to the key.
        assert_eq!(spans.get("m.b[1]"), None);
        assert_eq!(spans.resolve("m.b[1]"), Some(Position::new(1, 1)));
    }

    #[test]
    fn spanned_skips_comment_lines() {
        let text = "# header\n# more\na: 1\nb:\n  # interior\n  c: 2\n";
        let (_, spans) = parse_str_spanned(text).unwrap();
        assert_eq!(spans.get("a"), Some(Position::new(3, 1)));
        assert_eq!(spans.get("b.c"), Some(Position::new(6, 3)));
    }

    #[test]
    fn plain_parse_records_no_spans() {
        // `parse_str` must not pay for span bookkeeping.
        let v = parse_str("a:\n  - x\n").unwrap();
        assert_eq!(v["a"][0].as_str(), Some("x"));
    }
}
