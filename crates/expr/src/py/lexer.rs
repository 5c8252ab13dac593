//! Indentation-aware tokenizer for the Python subset.
//!
//! Produces `Newline`/`Indent`/`Dedent` tokens from leading whitespace, the
//! way CPython's tokenizer does, and recognizes f-strings (the syntax the
//! paper's `InlinePythonRequirement` leans on), splitting them into literal
//! and expression parts at lex time.

use crate::error::EvalError;

/// One piece of an f-string.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FPart {
    /// Literal text.
    Lit(String),
    /// Source text of an embedded `{expression}`.
    Expr(String),
}

/// A Python token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Int(i64),
    Float(f64),
    Str(String),
    FString(Vec<FPart>),
    Ident(String),
    // Keywords
    Def,
    Return,
    If,
    Elif,
    Else,
    For,
    While,
    In,
    Not,
    And,
    Or,
    Raise,
    Pass,
    Break,
    Continue,
    True_,
    False_,
    None_,
    Lambda,
    Import,
    // Structure
    Newline,
    Indent,
    Dedent,
    // Punctuation
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Dot,
    Colon,
    // Operators
    Plus,
    Minus,
    Star,
    StarStar,
    Slash,
    SlashSlash,
    Percent,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    NotEq,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    /// A CWL parameter reference `$(path)` embedded in Python code — the
    /// paper's notation for reaching workflow attributes (§V).
    ParamRef(String),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpannedTok {
    pub(crate) tok: Tok,
    pub(crate) line: usize,
}

/// Collapse triple-quoted strings (`"""..."""` / `'''...'''`) into ordinary
/// single-line string literals so the line-based lexer can handle them.
/// Docstrings are the dominant use; embedded newlines become `\n` escapes.
/// Line numbers after a multi-line docstring shift by its height.
fn collapse_triple_quotes(src: &str) -> Result<String, EvalError> {
    if !src.contains("\"\"\"") && !src.contains("'''") {
        return Ok(src.to_string());
    }
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    let mut line = 1usize;
    let mut in_str: Option<u8> = None;
    let mut in_comment = false;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            in_comment = false;
            out.push('\n');
            i += 1;
            continue;
        }
        if in_comment {
            out.push(b as char);
            i += 1;
            continue;
        }
        if let Some(q) = in_str {
            if b == b'\\' && i + 1 < bytes.len() {
                out.push_str(&src[i..i + 2]);
                i += 2;
                continue;
            }
            if b == q {
                in_str = None;
            }
            let c = src[i..].chars().next().expect("in-bounds");
            out.push(c);
            i += c.len_utf8();
            continue;
        }
        match b {
            b'#' => {
                in_comment = true;
                out.push('#');
                i += 1;
            }
            b'"' | b'\'' if bytes[i..].starts_with(&[b, b, b]) => {
                let quote = b;
                let start_line = line;
                let mut j = i + 3;
                let mut content = String::new();
                loop {
                    if j >= bytes.len() {
                        return Err(EvalError::syntax(
                            "unterminated triple-quoted string",
                            start_line,
                        ));
                    }
                    if bytes[j..].starts_with(&[quote, quote, quote]) {
                        j += 3;
                        break;
                    }
                    let c = src[j..].chars().next().expect("in-bounds");
                    if c == '\n' {
                        line += 1;
                    }
                    content.push(c);
                    j += c.len_utf8();
                }
                // Emit as a single-line escaped string literal.
                out.push('"');
                for c in content.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c => out.push(c),
                    }
                }
                out.push('"');
                i = j;
            }
            b'"' | b'\'' => {
                in_str = Some(b);
                out.push(b as char);
                i += 1;
            }
            _ => {
                let c = src[i..].chars().next().expect("in-bounds");
                out.push(c);
                i += c.len_utf8();
            }
        }
    }
    Ok(out)
}

/// Tokenize Python source into a token stream with INDENT/DEDENT structure.
pub(crate) fn lex(raw_src: &str) -> Result<Vec<SpannedTok>, EvalError> {
    let src = &collapse_triple_quotes(raw_src)?;
    let mut out: Vec<SpannedTok> = Vec::new();
    let mut indents: Vec<usize> = vec![0];
    let mut paren_depth = 0usize;

    for (line_idx, raw_line) in src.lines().enumerate() {
        let line_no = line_idx + 1;
        let line = raw_line.strip_suffix('\r').unwrap_or(raw_line);

        // Blank and comment-only lines produce no tokens at all.
        let trimmed = line.trim_start();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }

        // Indentation handling (suppressed inside brackets).
        if paren_depth == 0 {
            let indent = line.len() - trimmed.len();
            if line[..indent].contains('\t') {
                return Err(EvalError::syntax(
                    "tabs are not allowed in indentation",
                    line_no,
                ));
            }
            let current = *indents.last().expect("indent stack never empty");
            if indent > current {
                indents.push(indent);
                out.push(SpannedTok {
                    tok: Tok::Indent,
                    line: line_no,
                });
            } else {
                while indent < *indents.last().expect("indent stack never empty") {
                    indents.pop();
                    out.push(SpannedTok {
                        tok: Tok::Dedent,
                        line: line_no,
                    });
                }
                if indent != *indents.last().expect("indent stack never empty") {
                    return Err(EvalError::syntax("inconsistent dedent", line_no));
                }
            }
        }

        lex_line(trimmed, line_no, &mut out, &mut paren_depth)?;

        if paren_depth == 0 {
            out.push(SpannedTok {
                tok: Tok::Newline,
                line: line_no,
            });
        }
    }
    if paren_depth > 0 {
        return Err(EvalError::syntax(
            "unterminated bracket at end of source",
            src.lines().count(),
        ));
    }
    while indents.len() > 1 {
        indents.pop();
        out.push(SpannedTok {
            tok: Tok::Dedent,
            line: src.lines().count(),
        });
    }
    Ok(out)
}

fn lex_line(
    s: &str,
    line: usize,
    out: &mut Vec<SpannedTok>,
    paren_depth: &mut usize,
) -> Result<(), EvalError> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' => i += 1,
            b'#' => break,
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit())
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    is_float = true;
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text: String = s[start..i].chars().filter(|c| *c != '_').collect();
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|_| {
                        EvalError::syntax(format!("bad float literal {text:?}"), line)
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| {
                        EvalError::syntax(format!("bad int literal {text:?}"), line)
                    })?)
                };
                out.push(SpannedTok { tok, line });
            }
            b'"' | b'\'' => {
                let (text, len) = lex_string(&s[i..], line)?;
                out.push(SpannedTok {
                    tok: Tok::Str(text),
                    line,
                });
                i += len;
            }
            b'f' | b'F' if bytes.get(i + 1).is_some_and(|c| *c == b'"' || *c == b'\'') => {
                let (parts, len) = lex_fstring(&s[i + 1..], line)?;
                out.push(SpannedTok {
                    tok: Tok::FString(parts),
                    line,
                });
                i += 1 + len;
            }
            b'$' if bytes.get(i + 1) == Some(&b'(') => {
                // `$(inputs.message)` — scan to the balanced close paren.
                let start = i + 2;
                let mut depth = 1usize;
                let mut j = start;
                while j < bytes.len() {
                    match bytes[j] {
                        b'(' => depth += 1,
                        b')' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if depth != 0 {
                    return Err(EvalError::syntax(
                        "unterminated $( parameter reference",
                        line,
                    ));
                }
                out.push(SpannedTok {
                    tok: Tok::ParamRef(s[start..j].trim().to_string()),
                    line,
                });
                i = j + 1;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &s[start..i];
                let tok = match word {
                    "def" => Tok::Def,
                    "return" => Tok::Return,
                    "if" => Tok::If,
                    "elif" => Tok::Elif,
                    "else" => Tok::Else,
                    "for" => Tok::For,
                    "while" => Tok::While,
                    "in" => Tok::In,
                    "not" => Tok::Not,
                    "and" => Tok::And,
                    "or" => Tok::Or,
                    "raise" => Tok::Raise,
                    "pass" => Tok::Pass,
                    "break" => Tok::Break,
                    "continue" => Tok::Continue,
                    "True" => Tok::True_,
                    "False" => Tok::False_,
                    "None" => Tok::None_,
                    "lambda" => Tok::Lambda,
                    "import" | "from" => Tok::Import,
                    _ => Tok::Ident(word.to_string()),
                };
                out.push(SpannedTok { tok, line });
            }
            _ => {
                let (tok, len) = lex_punct(&bytes[i..]).ok_or_else(|| {
                    EvalError::syntax(format!("unexpected character {:?}", b as char), line)
                })?;
                match tok {
                    Tok::LParen | Tok::LBracket | Tok::LBrace => *paren_depth += 1,
                    Tok::RParen | Tok::RBracket | Tok::RBrace => {
                        *paren_depth = paren_depth.saturating_sub(1)
                    }
                    _ => {}
                }
                out.push(SpannedTok { tok, line });
                i += len;
            }
        }
    }
    Ok(())
}

/// Lex a plain quoted string starting at `s[0]` (the quote). Returns the
/// decoded text and the number of bytes consumed.
fn lex_string(s: &str, line: usize) -> Result<(String, usize), EvalError> {
    let bytes = s.as_bytes();
    let quote = bytes[0];
    let mut i = 1;
    let mut text = String::new();
    loop {
        if i >= bytes.len() {
            return Err(EvalError::syntax("unterminated string literal", line));
        }
        let c = bytes[i];
        if c == quote {
            return Ok((text, i + 1));
        }
        if c == b'\\' {
            i += 1;
            if i >= bytes.len() {
                return Err(EvalError::syntax("dangling escape", line));
            }
            match bytes[i] {
                b'n' => text.push('\n'),
                b't' => text.push('\t'),
                b'r' => text.push('\r'),
                b'\\' => text.push('\\'),
                b'\'' => text.push('\''),
                b'"' => text.push('"'),
                b'0' => text.push('\0'),
                other => {
                    return Err(EvalError::syntax(
                        format!("unknown escape \\{}", other as char),
                        line,
                    ))
                }
            }
            i += 1;
        } else {
            let ch = s[i..].chars().next().unwrap();
            text.push(ch);
            i += ch.len_utf8();
        }
    }
}

/// Lex an f-string starting at the quote (after the `f` prefix). Splits into
/// literal and `{expression}` parts; `{{`/`}}` are brace escapes.
fn lex_fstring(s: &str, line: usize) -> Result<(Vec<FPart>, usize), EvalError> {
    let bytes = s.as_bytes();
    let quote = bytes[0];
    let mut i = 1;
    let mut parts = Vec::new();
    let mut lit = String::new();
    loop {
        if i >= bytes.len() {
            return Err(EvalError::syntax("unterminated f-string", line));
        }
        let c = bytes[i];
        if c == quote {
            if !lit.is_empty() {
                parts.push(FPart::Lit(lit));
            }
            return Ok((parts, i + 1));
        }
        match c {
            b'{' if bytes.get(i + 1) == Some(&b'{') => {
                lit.push('{');
                i += 2;
            }
            b'}' if bytes.get(i + 1) == Some(&b'}') => {
                lit.push('}');
                i += 2;
            }
            b'}' => return Err(EvalError::syntax("single '}' in f-string", line)),
            b'{' => {
                if !lit.is_empty() {
                    parts.push(FPart::Lit(std::mem::take(&mut lit)));
                }
                // Scan to the matching close brace, respecting nested
                // brackets and string quotes inside the expression.
                let start = i + 1;
                let mut depth = 0usize;
                let mut j = start;
                let mut in_str: Option<u8> = None;
                loop {
                    if j >= bytes.len() {
                        return Err(EvalError::syntax("unterminated '{' in f-string", line));
                    }
                    let b = bytes[j];
                    if let Some(q) = in_str {
                        if b == b'\\' {
                            j += 1;
                        } else if b == q {
                            in_str = None;
                        }
                    } else {
                        match b {
                            b'\'' | b'"' => in_str = Some(b),
                            b'(' | b'[' | b'{' => depth += 1,
                            b')' | b']' => depth = depth.saturating_sub(1),
                            b'}' if depth == 0 => break,
                            b'}' => depth -= 1,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                let expr_src = s[start..j].trim();
                if expr_src.is_empty() {
                    return Err(EvalError::syntax("empty expression in f-string", line));
                }
                parts.push(FPart::Expr(expr_src.to_string()));
                i = j + 1;
            }
            b'\\' => {
                i += 1;
                if i >= bytes.len() {
                    return Err(EvalError::syntax("dangling escape in f-string", line));
                }
                match bytes[i] {
                    b'n' => lit.push('\n'),
                    b't' => lit.push('\t'),
                    b'\\' => lit.push('\\'),
                    b'\'' => lit.push('\''),
                    b'"' => lit.push('"'),
                    other => {
                        return Err(EvalError::syntax(
                            format!("unknown escape \\{} in f-string", other as char),
                            line,
                        ))
                    }
                }
                i += 1;
            }
            _ => {
                let ch = s[i..].chars().next().unwrap();
                lit.push(ch);
                i += ch.len_utf8();
            }
        }
    }
}

fn lex_punct(rest: &[u8]) -> Option<(Tok, usize)> {
    let two: &[(&[u8], Tok)] = &[
        (b"**", Tok::StarStar),
        (b"//", Tok::SlashSlash),
        (b"==", Tok::EqEq),
        (b"!=", Tok::NotEq),
        (b"<=", Tok::Le),
        (b">=", Tok::Ge),
        (b"+=", Tok::PlusAssign),
        (b"-=", Tok::MinusAssign),
        (b"*=", Tok::StarAssign),
        (b"/=", Tok::SlashAssign),
    ];
    for (pat, tok) in two {
        if rest.starts_with(pat) {
            return Some((tok.clone(), 2));
        }
    }
    let one = match rest.first()? {
        b'(' => Tok::LParen,
        b')' => Tok::RParen,
        b'[' => Tok::LBracket,
        b']' => Tok::RBracket,
        b'{' => Tok::LBrace,
        b'}' => Tok::RBrace,
        b',' => Tok::Comma,
        b'.' => Tok::Dot,
        b':' => Tok::Colon,
        b'+' => Tok::Plus,
        b'-' => Tok::Minus,
        b'*' => Tok::Star,
        b'/' => Tok::Slash,
        b'%' => Tok::Percent,
        b'<' => Tok::Lt,
        b'>' => Tok::Gt,
        b'=' => Tok::Assign,
        _ => return None,
    };
    Some((one, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn numbers_int_vs_float() {
        assert_eq!(
            toks("1 2.5 1e3 1_000"),
            vec![
                Tok::Int(1),
                Tok::Float(2.5),
                Tok::Float(1000.0),
                Tok::Int(1000),
                Tok::Newline
            ]
        );
    }

    #[test]
    fn indent_dedent() {
        let ts = toks("if x:\n    y = 1\n    z = 2\nw = 3\n");
        // if x : NEWLINE INDENT y = 1 NEWLINE z = 2 NEWLINE DEDENT w = 3 NEWLINE
        assert!(ts.contains(&Tok::Indent));
        assert!(ts.contains(&Tok::Dedent));
        let indent_pos = ts.iter().position(|t| *t == Tok::Indent).unwrap();
        let dedent_pos = ts.iter().position(|t| *t == Tok::Dedent).unwrap();
        assert!(indent_pos < dedent_pos);
    }

    #[test]
    fn nested_indentation() {
        let ts = toks("def f():\n    if x:\n        return 1\n");
        let indents = ts.iter().filter(|t| **t == Tok::Indent).count();
        let dedents = ts.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(indents, 2);
        assert_eq!(dedents, 2); // closed at EOF
    }

    #[test]
    fn blank_and_comment_lines_ignored() {
        let ts = toks("x = 1\n\n# comment\n   # indented comment\ny = 2\n");
        let newlines = ts.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 2);
        assert!(!ts.contains(&Tok::Indent));
    }

    #[test]
    fn implicit_line_joining_in_brackets() {
        let ts = toks("x = [1,\n     2,\n     3]\ny = 4\n");
        // No INDENT inside the bracketed continuation.
        assert!(!ts.contains(&Tok::Indent));
        let newlines = ts.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 2);
    }

    #[test]
    fn fstring_parts() {
        let ts = toks(r#"f"a{x}b{y.title()}c""#);
        match &ts[0] {
            Tok::FString(parts) => {
                assert_eq!(
                    parts,
                    &vec![
                        FPart::Lit("a".into()),
                        FPart::Expr("x".into()),
                        FPart::Lit("b".into()),
                        FPart::Expr("y.title()".into()),
                        FPart::Lit("c".into()),
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fstring_brace_escapes_and_nesting() {
        let ts = toks(r#"f"{{literal}} {f(a, b['}'])}""#);
        match &ts[0] {
            Tok::FString(parts) => {
                assert_eq!(parts[0], FPart::Lit("{literal} ".into()));
                assert_eq!(parts[1], FPart::Expr("f(a, b['}'])".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fstring_with_paramref() {
        // The paper's notation: f"{capitalize_words($(inputs.message))}"
        let ts = toks(r#"f"{capitalize_words($(inputs.message))}""#);
        match &ts[0] {
            Tok::FString(parts) => {
                assert_eq!(
                    parts,
                    &vec![FPart::Expr("capitalize_words($(inputs.message))".into())]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keywords() {
        assert_eq!(
            toks("def f(): pass"),
            vec![
                Tok::Def,
                Tok::Ident("f".into()),
                Tok::LParen,
                Tok::RParen,
                Tok::Colon,
                Tok::Pass,
                Tok::Newline
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a ** b // c != d"),
            vec![
                Tok::Ident("a".into()),
                Tok::StarStar,
                Tok::Ident("b".into()),
                Tok::SlashSlash,
                Tok::Ident("c".into()),
                Tok::NotEq,
                Tok::Ident("d".into()),
                Tok::Newline
            ]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("x = 'unterminated").is_err());
        assert!(lex("x = f'{'").is_err());
        assert!(lex("x = f'}'").is_err());
        assert!(lex("if x:\n\ty = 1\n").is_err()); // tab indent
        assert!(lex("x = (1,\n").is_err()); // open bracket at EOF
        assert!(lex("  a = 1\n b = 2\n").is_err()); // inconsistent dedent
        assert!(lex("x = 1 ; y").is_err()); // ';' unsupported
    }

    #[test]
    fn string_escapes() {
        assert_eq!(toks(r#"'a\nb'"#)[0], Tok::Str("a\nb".into()));
        assert_eq!(toks(r#""it\"s""#)[0], Tok::Str("it\"s".into()));
    }
}
