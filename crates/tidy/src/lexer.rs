//! A minimal, lossless-enough Rust tokenizer.
//!
//! `dqos-tidy` needs to see identifiers, punctuation and literals with
//! line numbers, with comments and string contents *removed* (so a rule
//! never fires on prose) but with **directive comments** (`// tidy:`,
//! `// ordering:`) surfaced as structured data. That is a far smaller
//! job than real Rust parsing, so the lexer is ~300 lines and has no
//! dependencies — the same trade rustc's `tidy` makes.
//!
//! What it understands:
//!
//! * line comments (`//`, `///`, `//!`) — scanned for directives;
//! * nested block comments (`/* /* */ */`) — skipped, no directives;
//! * string, raw string (`r#"…"#`), byte string, byte char and char
//!   literals — emitted as opaque [`TokKind::Str`] / [`TokKind::Char`]
//!   tokens whose contents rules never inspect;
//! * lifetimes vs. char literals (`'a` vs `'a'`);
//! * numeric literals, with the float/int distinction rules need
//!   (`1.5`, `1e9`, `2.0f64` are floats; `1..2` and `1.max(2)` are not);
//! * identifiers (keywords included) and maximal-munch two-character
//!   operators (`==`, `!=`, `::`, `->`, …).

/// Token kind. Contents of string/char literals are not retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Punctuation / operator (possibly two characters, e.g. `==`).
    Punct,
    /// Integer literal.
    Int,
    /// Floating-point literal.
    Float,
    /// String / raw string / byte-string literal (contents dropped).
    Str,
    /// Char or byte-char literal (contents dropped).
    Char,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (empty for string/char literals).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// A parsed directive comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectiveKind {
    /// `// tidy: allow(<rule>) -- <reason>` — suppress one rule on the
    /// same line, or on the next code line when the comment stands
    /// alone.
    Allow {
        /// Rule identifier being suppressed.
        rule: String,
        /// Mandatory human justification.
        reason: String,
    },
    /// `// tidy: sorted-before-use -- <reason>` — sugar for
    /// `allow(hash-iter)`: the unordered container's contents are
    /// sorted (or reduced order-independently) before anything
    /// observable consumes them.
    SortedBeforeUse {
        /// Mandatory human justification.
        reason: String,
    },
    /// `// ordering: <reason>` — justifies a relaxed (non-`SeqCst`)
    /// atomic memory ordering on the same or next code line.
    Ordering {
        /// Why the weaker ordering is sound.
        reason: String,
    },
    /// `// tidy: hot-path` — file-level declaration that this module is
    /// on the per-event hot path: rule `hot-path-alloc` forbids heap
    /// allocation inside loop bodies here.
    HotPath,
}

/// A directive plus where it appeared.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line of the comment.
    pub line: u32,
    /// Parsed payload.
    pub kind: DirectiveKind,
}

/// Lexer output: the token stream, directives, and any malformed
/// directive comments (line, message).
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Tok>,
    /// All well-formed directives in source order.
    pub directives: Vec<Directive>,
    /// Malformed directive comments: `(line, what was wrong)`.
    pub errors: Vec<(u32, String)>,
}

/// Tokenize `src`. Never fails: unrecognized bytes are skipped (the
/// input is expected to be real Rust that rustc already accepted).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                parse_comment(&src[start..i], line, &mut out);
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                let tok_line = line;
                i = skip_string(b, i, &mut line);
                out.tokens.push(Tok { kind: TokKind::Str, text: String::new(), line: tok_line });
            }
            b'r' | b'b' if starts_raw_or_byte_literal(b, i) => {
                let tok_line = line;
                i = skip_raw_or_byte(b, i, &mut line);
                out.tokens.push(Tok { kind: TokKind::Str, text: String::new(), line: tok_line });
            }
            b'\'' => {
                // Lifetime or char literal.
                if is_char_literal(b, i) {
                    i = skip_char_literal(b, i);
                    out.tokens.push(Tok { kind: TokKind::Char, text: String::new(), line });
                } else {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[start..i].to_string(),
                        line,
                    });
                }
            }
            _ if c.is_ascii_digit() => {
                let (end, is_float) = scan_number(b, i);
                out.tokens.push(Tok {
                    kind: if is_float { TokKind::Float } else { TokKind::Int },
                    text: src[i..end].to_string(),
                    line,
                });
                i = end;
            }
            _ if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] >= 0x80)
                {
                    i += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ => {
                // Punctuation: maximal-munch the two-char operators the
                // rules care about distinguishing.
                const TWO: &[&[u8; 2]] = &[
                    b"==", b"!=", b"<=", b">=", b"=>", b"->", b"::", b"..", b"&&", b"||",
                    b"+=", b"-=", b"*=", b"/=", b"%=", b"^=", b"|=", b"&=", b"<<", b">>",
                ];
                let two = i + 1 < b.len() && TWO.iter().any(|t| t[0] == c && t[1] == b[i + 1]);
                let end = if two { i + 2 } else { i + 1 };
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: src[i..end].to_string(),
                    line,
                });
                i = end;
            }
        }
    }
    out
}

/// `r"`, `r#"`, `br"`, `b"`, `b'` starters (but not identifiers like
/// `r` or `br` used as names).
fn starts_raw_or_byte_literal(b: &[u8], i: usize) -> bool {
    let rest = &b[i..];
    if rest.starts_with(b"r\"") || rest.starts_with(b"r#") || rest.starts_with(b"b\"") {
        // `r#ident` is a raw identifier, not a raw string: require the
        // `#` run to end in `"`.
        if rest.starts_with(b"r#") {
            let mut j = 1;
            while j < rest.len() && rest[j] == b'#' {
                j += 1;
            }
            return j < rest.len() && rest[j] == b'"';
        }
        return true;
    }
    if rest.starts_with(b"br\"") || rest.starts_with(b"br#") || rest.starts_with(b"b'") {
        if rest.starts_with(b"br#") {
            let mut j = 2;
            while j < rest.len() && rest[j] == b'#' {
                j += 1;
            }
            return j < rest.len() && rest[j] == b'"';
        }
        return true;
    }
    false
}

fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // Keep the line count right across `\<newline>`
                // continuations and escaped characters.
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_raw_or_byte(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    if b[i] == b'b' {
        i += 1;
    }
    if i < b.len() && b[i] == b'\'' {
        // byte char b'x'
        return skip_char_literal(b, i);
    }
    let raw = i < b.len() && b[i] == b'r';
    if raw {
        i += 1;
    } else {
        // `b"…"` is an ordinary (escape-processing) string with a
        // prefix — `b"\""` must not end at the escaped quote.
        return skip_string(b, i, line);
    }
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i < b.len() && b[i] == b'"' {
        i += 1;
        // Raw string: no escapes; scan for `"` followed by `hashes`
        // many `#`.
        while i < b.len() {
            if b[i] == b'\n' {
                *line += 1;
            }
            if b[i] == b'"' && b[i + 1..].iter().take(hashes).filter(|&&h| h == b'#').count() == hashes
            {
                return i + 1 + hashes;
            }
            i += 1;
        }
    }
    i
}

/// Is the `'` at `i` a char literal (vs a lifetime)?
fn is_char_literal(b: &[u8], i: usize) -> bool {
    match b.get(i + 1) {
        Some(b'\\') => true,
        Some(&c) if c.is_ascii_alphanumeric() || c == b'_' => {
            // `'a'` is a char; `'a` (no closing quote) is a lifetime.
            // Multi-byte chars like 'é' also close with a quote.
            b.get(i + 2) == Some(&b'\'')
        }
        Some(_) => true, // '(' etc — a char literal like '('
        None => false,
    }
}

fn skip_char_literal(b: &[u8], mut i: usize) -> usize {
    if b[i] == b'b' {
        i += 1;
    }
    i += 1; // opening '
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Scan a numeric literal starting at `i`; return (end, is_float).
fn scan_number(b: &[u8], i: usize) -> (usize, bool) {
    let mut j = i;
    let hex = b[j] == b'0' && matches!(b.get(j + 1), Some(b'x' | b'X' | b'o' | b'b'));
    if hex {
        j += 2;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        return (j, false);
    }
    let mut is_float = false;
    while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
        j += 1;
    }
    // `1.5` is a float; `1..2` is a range and `1.max()` a method call.
    if j < b.len() && b[j] == b'.' && b.get(j + 1).is_some_and(u8::is_ascii_digit) {
        is_float = true;
        j += 1;
        while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
            j += 1;
        }
    }
    // Exponent: `1e9`, `1.5e-3`.
    if j < b.len()
        && (b[j] == b'e' || b[j] == b'E')
        && (b.get(j + 1).is_some_and(u8::is_ascii_digit)
            || (matches!(b.get(j + 1), Some(b'+' | b'-'))
                && b.get(j + 2).is_some_and(u8::is_ascii_digit)))
    {
        is_float = true;
        j += 1;
        if matches!(b[j], b'+' | b'-') {
            j += 1;
        }
        while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
            j += 1;
        }
    }
    // Suffix: `1f64`, `2.0f32`, `3u32`.
    let suffix_start = j;
    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
        j += 1;
    }
    let suffix = &b[suffix_start..j];
    if suffix == b"f32" || suffix == b"f64" {
        is_float = true;
    }
    (j, is_float)
}

/// Parse one `//…` comment for directives. Doc comments (`///`, `//!`)
/// never carry directives — they are documentation, and a literal
/// example of the grammar inside one must not count.
fn parse_comment(text: &str, line: u32, out: &mut Lexed) {
    let body = text.trim_start_matches('/');
    if body.starts_with('!') || text.starts_with("///") {
        return;
    }
    let body = body.trim();
    if let Some(rest) = body.strip_prefix("tidy:") {
        match parse_tidy(rest.trim()) {
            Ok(kind) => out.directives.push(Directive { line, kind }),
            Err(msg) => out.errors.push((line, msg)),
        }
    } else if let Some(rest) = body.strip_prefix("ordering:") {
        let reason = rest.trim();
        if reason.len() < 10 {
            out.errors.push((
                line,
                "`// ordering:` needs a real justification (>= 10 chars)".to_string(),
            ));
        } else {
            out.directives.push(Directive {
                line,
                kind: DirectiveKind::Ordering { reason: reason.to_string() },
            });
        }
    }
}

/// Parse the payload after `tidy:`.
fn parse_tidy(rest: &str) -> Result<DirectiveKind, String> {
    if let Some(args) = rest.strip_prefix("allow(") {
        let Some(close) = args.find(')') else {
            return Err("unclosed `allow(`".to_string());
        };
        let rule = args[..close].trim().to_string();
        if rule.is_empty() {
            return Err("`allow()` names no rule".to_string());
        }
        let reason = match args[close + 1..].trim().strip_prefix("--") {
            Some(r) => r.trim().to_string(),
            None => String::new(),
        };
        if reason.len() < 10 {
            return Err(format!(
                "`allow({rule})` needs `-- <reason>` (>= 10 chars) explaining why the \
                 rule does not apply"
            ));
        }
        return Ok(DirectiveKind::Allow { rule, reason });
    }
    if let Some(reason) = rest.strip_prefix("sorted-before-use") {
        let reason = match reason.trim().strip_prefix("--") {
            Some(r) => r.trim().to_string(),
            None => String::new(),
        };
        if reason.len() < 10 {
            return Err(
                "`sorted-before-use` needs `-- <reason>` (>= 10 chars) saying where the \
                 sort happens"
                    .to_string(),
            );
        }
        return Ok(DirectiveKind::SortedBeforeUse { reason });
    }
    if rest == "hot-path" {
        return Ok(DirectiveKind::HotPath);
    }
    Err(format!("unknown tidy directive {rest:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).tokens.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn numbers_floats_ranges_methods() {
        let ks = kinds("1.5 1..2 1.max(2) 1e9 2.0f64 3f32 0x1f 7u64");
        let floats: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Float)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(floats, ["1.5", "1e9", "2.0f64", "3f32"]);
        // `1..2` lexed as Int, Punct(..), Int.
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Punct && t == ".."));
    }

    #[test]
    fn strings_and_comments_hide_contents() {
        let src = r####"let s = "Instant::now()"; /* HashMap */ let r = r#"SystemTime"#; // prose HashMap
"####;
        let l = lex(src);
        assert!(!l.tokens.iter().any(|t| t.text.contains("Instant")));
        assert!(!l.tokens.iter().any(|t| t.text.contains("HashMap")));
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let ks = kinds("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(), 2);
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn directives_parse() {
        let src = "\
// tidy: allow(no-unwrap) -- invariant: pop follows successful peek
// tidy: sorted-before-use -- keys are collected and sorted two lines down
// ordering: counter is monotonic; readers only need eventual visibility
// tidy: hot-path
";
        let l = lex(src);
        assert_eq!(l.errors, vec![]);
        assert_eq!(l.directives.len(), 4);
        assert!(matches!(
            &l.directives[0].kind,
            DirectiveKind::Allow { rule, .. } if rule == "no-unwrap"
        ));
        assert!(matches!(&l.directives[1].kind, DirectiveKind::SortedBeforeUse { .. }));
        assert!(matches!(&l.directives[2].kind, DirectiveKind::Ordering { .. }));
        assert!(matches!(&l.directives[3].kind, DirectiveKind::HotPath));
    }

    #[test]
    fn malformed_directives_error() {
        let l = lex("// tidy: allow(no-unwrap)\n// tidy: frobnicate\n// ordering: meh\n");
        assert_eq!(l.directives.len(), 0);
        assert_eq!(l.errors.len(), 3);
    }

    #[test]
    fn doc_comments_never_carry_directives() {
        let l = lex("/// tidy: allow(no-unwrap) -- doc example, not a directive\n//! ordering: also prose\n");
        assert!(l.directives.is_empty());
        assert!(l.errors.is_empty());
    }
}
