//! Tokenizer for the JavaScript subset.

use crate::error::EvalError;

/// A JavaScript token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    // Literals and names
    Num(f64),
    Str(String),
    Ident(String),
    // Keywords
    Var,
    Let,
    Const,
    If,
    Else,
    For,
    While,
    Return,
    Break,
    Continue,
    True,
    False,
    Null,
    Undefined,
    Typeof,
    In,
    Of,
    Function,
    // Punctuation
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Dot,
    Semi,
    Colon,
    Question,
    // Operators
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    NotEq,
    EqEqEq,
    NotEqEqEq,
    AndAnd,
    OrOr,
    Not,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PlusPlus,
    MinusMinus,
}

/// A token with its 1-based source line (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpannedTok {
    pub(crate) tok: Tok,
    pub(crate) line: usize,
}

/// Tokenize JavaScript source.
pub(crate) fn lex(src: &str) -> Result<Vec<SpannedTok>, EvalError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(EvalError::syntax("unterminated block comment", line));
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                let n: f64 = text
                    .parse()
                    .map_err(|_| EvalError::syntax(format!("bad number literal {text:?}"), line))?;
                out.push(SpannedTok {
                    tok: Tok::Num(n),
                    line,
                });
            }
            b'"' | b'\'' => {
                let quote = b;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(EvalError::syntax("unterminated string literal", line));
                    }
                    let c = bytes[i];
                    if c == quote {
                        i += 1;
                        break;
                    }
                    if c == b'\\' {
                        i += 1;
                        if i >= bytes.len() {
                            return Err(EvalError::syntax("dangling escape", line));
                        }
                        match bytes[i] {
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'\\' => s.push('\\'),
                            b'\'' => s.push('\''),
                            b'"' => s.push('"'),
                            b'0' => s.push('\0'),
                            b'u' => {
                                let hex = src.get(i + 1..i + 5).ok_or_else(|| {
                                    EvalError::syntax("truncated \\u escape", line)
                                })?;
                                let code = u32::from_str_radix(hex, 16).map_err(|_| {
                                    EvalError::syntax(format!("bad \\u escape {hex:?}"), line)
                                })?;
                                s.push(char::from_u32(code).ok_or_else(|| {
                                    EvalError::syntax("invalid unicode escape", line)
                                })?);
                                i += 4;
                            }
                            other => {
                                return Err(EvalError::syntax(
                                    format!("unknown escape \\{}", other as char),
                                    line,
                                ))
                            }
                        }
                        i += 1;
                    } else if c == b'\n' {
                        return Err(EvalError::syntax("newline in string literal", line));
                    } else {
                        let ch = src[i..].chars().next().unwrap();
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
                out.push(SpannedTok {
                    tok: Tok::Str(s),
                    line,
                });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                let word = &src[start..i];
                let tok = match word {
                    "var" => Tok::Var,
                    "let" => Tok::Let,
                    "const" => Tok::Const,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "for" => Tok::For,
                    "while" => Tok::While,
                    "return" => Tok::Return,
                    "break" => Tok::Break,
                    "continue" => Tok::Continue,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "null" => Tok::Null,
                    "undefined" => Tok::Undefined,
                    "typeof" => Tok::Typeof,
                    "in" => Tok::In,
                    "of" => Tok::Of,
                    "function" => Tok::Function,
                    _ => Tok::Ident(word.to_string()),
                };
                out.push(SpannedTok { tok, line });
            }
            _ => {
                let (tok, len) = lex_punct(&bytes[i..]).ok_or_else(|| {
                    EvalError::syntax(format!("unexpected character {:?}", b as char), line)
                })?;
                out.push(SpannedTok { tok, line });
                i += len;
            }
        }
    }
    Ok(out)
}

fn lex_punct(rest: &[u8]) -> Option<(Tok, usize)> {
    // Longest match first.
    let three: &[(&[u8], Tok)] = &[(b"===", Tok::EqEqEq), (b"!==", Tok::NotEqEqEq)];
    for (pat, tok) in three {
        if rest.starts_with(pat) {
            return Some((tok.clone(), 3));
        }
    }
    let two: &[(&[u8], Tok)] = &[
        (b"==", Tok::EqEq),
        (b"!=", Tok::NotEq),
        (b"<=", Tok::Le),
        (b">=", Tok::Ge),
        (b"&&", Tok::AndAnd),
        (b"||", Tok::OrOr),
        (b"+=", Tok::PlusAssign),
        (b"-=", Tok::MinusAssign),
        (b"*=", Tok::StarAssign),
        (b"/=", Tok::SlashAssign),
        (b"++", Tok::PlusPlus),
        (b"--", Tok::MinusMinus),
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
        b';' => Tok::Semi,
        b':' => Tok::Colon,
        b'?' => Tok::Question,
        b'+' => Tok::Plus,
        b'-' => Tok::Minus,
        b'*' => Tok::Star,
        b'/' => Tok::Slash,
        b'%' => Tok::Percent,
        b'<' => Tok::Lt,
        b'>' => Tok::Gt,
        b'!' => Tok::Not,
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
    fn numbers() {
        assert_eq!(
            toks("1 2.5 1e3"),
            vec![Tok::Num(1.0), Tok::Num(2.5), Tok::Num(1000.0)]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            toks(r#""a\nb" 'c\'d' "A""#),
            vec![
                Tok::Str("a\nb".into()),
                Tok::Str("c'd".into()),
                Tok::Str("A".into())
            ]
        );
    }

    #[test]
    fn keywords_vs_idents() {
        assert_eq!(
            toks("var foo return trueish"),
            vec![
                Tok::Var,
                Tok::Ident("foo".into()),
                Tok::Return,
                Tok::Ident("trueish".into())
            ]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(toks("=== == ="), vec![Tok::EqEqEq, Tok::EqEq, Tok::Assign]);
        assert_eq!(toks("!== != !"), vec![Tok::NotEqEqEq, Tok::NotEq, Tok::Not]);
        assert_eq!(toks("<= < >= >"), vec![Tok::Le, Tok::Lt, Tok::Ge, Tok::Gt]);
        assert_eq!(
            toks("++ += +"),
            vec![Tok::PlusPlus, Tok::PlusAssign, Tok::Plus]
        );
    }

    #[test]
    fn comments_ignored() {
        assert_eq!(
            toks("1 // comment\n2 /* block\nmore */ 3"),
            vec![Tok::Num(1.0), Tok::Num(2.0), Tok::Num(3.0)]
        );
    }

    #[test]
    fn line_numbers_tracked() {
        let ts = lex("a\nb\n\nc").unwrap();
        let lines: Vec<usize> = ts.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn dollar_in_identifiers() {
        assert_eq!(
            toks("$job _x"),
            vec![Tok::Ident("$job".into()), Tok::Ident("_x".into())]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("'nl\n'").is_err());
        assert!(lex("/* open").is_err());
        assert!(lex("@").is_err());
    }
}
