//! Token-level view of a scanned file: the upgrade that lets rules see
//! *structure* — function boundaries, brace depth, statement shape —
//! instead of matching substrings on isolated lines.
//!
//! The [`crate::source`] scanner already separates code from comments
//! and literals; this module tokenizes the masked (code-only) text into
//! a flat stream of identifiers, numbers, and punctuation, each tagged
//! with its 1-based source line. On top of the stream sit two small
//! structural passes:
//!
//! * [`function_spans`] — brace-matched `fn` item boundaries (nested
//!   functions produce nested spans; [`enclosing_fn`] resolves the
//!   innermost), which is what lets the `no-bare-lock` rule exempt the
//!   *bodies* of registered poison-proof helpers while flagging every
//!   call site outside them;
//! * [`guard_scopes`] — lock-guard liveness: a binding produced by a
//!   lock acquisition (a registered helper call, or a bare
//!   `.lock()`/`.read()`/`.write()`) is tracked from its `let` to the
//!   end of its enclosing block (or an explicit `drop`), so the
//!   `no-guard-across-compute` rule can ask "does a compute call happen
//!   while this guard is live?".
//!
//! The tokenizer is deliberately not a full parser: generics, patterns,
//! and macros are navigated by depth counting, which is exact for the
//! brace/paren structure the two passes need.

use crate::source::ScannedFile;

/// What kind of lexeme a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `let`, `tlock`, …).
    Ident,
    /// Numeric literal (lumped into one token).
    Number,
    /// A single punctuation character (`{`, `.`, `;`, …).
    Punct,
}

/// One token of the masked source.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token text (single character for punctuation).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
    /// Lexeme class.
    pub kind: TokenKind,
}

impl Token {
    fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// Tokenizes the masked lines of `file` into a flat stream.
pub fn tokenize(file: &ScannedFile) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let chars: Vec<char> = line.masked.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    text: chars[start..i].iter().collect(),
                    line: idx + 1,
                    kind: TokenKind::Ident,
                });
            } else if c.is_ascii_digit() {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    i += 1;
                }
                out.push(Token {
                    text: chars[start..i].iter().collect(),
                    line: idx + 1,
                    kind: TokenKind::Number,
                });
            } else {
                out.push(Token { text: c.to_string(), line: idx + 1, kind: TokenKind::Punct });
                i += 1;
            }
        }
    }
    out
}

/// One `fn` item's extent in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_token: usize,
    /// Token index of the body's `{` (body-less trait fns are skipped).
    pub body_open: usize,
    /// Token index of the matching `}`.
    pub body_close: usize,
}

/// Finds every `fn` item with a body. Nested functions and functions
/// inside `impl`/`mod` blocks all appear; spans may nest.
pub fn function_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Ident && tokens[i].is("fn") {
            let Some(name_tok) = tokens.get(i + 1) else { break };
            if name_tok.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            // Scan forward for the body `{` — the first brace after the
            // signature. A `;` first means a body-less declaration.
            let mut j = i + 2;
            let mut body_open = None;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "{" => {
                        body_open = Some(j);
                        break;
                    }
                    ";" => break,
                    _ => j += 1,
                }
            }
            if let Some(open) = body_open {
                if let Some(close) = match_brace(tokens, open) {
                    spans.push(FnSpan {
                        name: name_tok.text.clone(),
                        fn_token: i,
                        body_open: open,
                        body_close: close,
                    });
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    spans
}

/// Token index of the `}` matching the `{` at `open`.
pub fn match_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Token index of the `)` matching the `(` at `open`.
pub fn match_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// The innermost function span containing token `idx`, if any.
pub fn enclosing_fn(spans: &[FnSpan], idx: usize) -> Option<&FnSpan> {
    spans
        .iter()
        .filter(|s| s.fn_token <= idx && idx <= s.body_close)
        .min_by_key(|s| s.body_close - s.fn_token)
}

/// How a lock acquisition was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireKind {
    /// Call to a registered poison-proof helper (`tlock(&m)`).
    Helper,
    /// Bare `.lock()` / `.read()` / `.write()` on the lock itself.
    Bare,
}

/// One lock acquisition site in the token stream.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Token index of the method/helper name.
    pub name_token: usize,
    /// The helper or method name (`tlock`, `lock`, `read`, `write`).
    pub name: String,
    /// Token index of the acquisition call's closing `)`.
    pub call_close: usize,
    /// Helper call or bare method call.
    pub kind: AcquireKind,
    /// 1-based line of the acquisition.
    pub line: usize,
}

/// Finds every lock acquisition in `tokens`: calls to one of
/// `helper_names`, plus bare zero-argument `.lock()` / `.read()` /
/// `.write()` method calls (the zero-argument requirement is what keeps
/// `io::Read::read(&mut buf)` out).
pub fn acquisitions(tokens: &[Token], helper_names: &[&str]) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let followed_by_open = tokens.get(i + 1).map(|n| n.is("(")).unwrap_or(false);
        if !followed_by_open {
            continue;
        }
        if helper_names.contains(&t.text.as_str()) {
            // Helper call — but not a method (`x.tlock()`) or a path
            // segment (`self::tlock`? paths still call the helper).
            let is_method = i > 0 && tokens[i - 1].is(".");
            if !is_method {
                if let Some(close) = match_paren(tokens, i + 1) {
                    out.push(Acquisition {
                        name_token: i,
                        name: t.text.clone(),
                        call_close: close,
                        kind: AcquireKind::Helper,
                        line: t.line,
                    });
                }
            }
        } else if matches!(t.text.as_str(), "lock" | "read" | "write")
            && i > 0
            && tokens[i - 1].is(".")
            && tokens.get(i + 2).map(|n| n.is(")")).unwrap_or(false)
        {
            out.push(Acquisition {
                name_token: i,
                name: t.text.clone(),
                call_close: i + 2,
                kind: AcquireKind::Bare,
                line: t.line,
            });
        }
    }
    out
}

/// A lock guard's liveness range in the token stream.
#[derive(Debug, Clone)]
pub struct GuardScope {
    /// The binding name (`"<temporary>"` for unbound guards).
    pub binding: String,
    /// First token index at which the guard is live (just past the
    /// acquisition).
    pub start: usize,
    /// Last token index at which the guard is live (inclusive).
    pub end: usize,
}

/// Start-of-statement token index for the statement containing `idx`:
/// the token after the previous `;`, `{`, or `}` at any depth.
fn statement_start(tokens: &[Token], idx: usize) -> usize {
    let mut j = idx;
    while j > 0 {
        match tokens[j - 1].text.as_str() {
            ";" | "{" | "}" => return j,
            _ => j -= 1,
        }
    }
    0
}

/// Token index of the `;` ending the statement that contains `idx`
/// (skipping over nested blocks and parens), or the end of `limit`.
fn statement_end(tokens: &[Token], idx: usize, limit: usize) -> usize {
    let mut depth = 0i64;
    let mut j = idx;
    while j <= limit && j < tokens.len() {
        match tokens[j].text.as_str() {
            "(" | "{" | "[" => depth += 1,
            ")" | "}" | "]" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    limit.min(tokens.len().saturating_sub(1))
}

/// Computes the liveness scope of the guard produced by `acq`, given
/// the body range of the enclosing function. Returns `None` when the
/// guard is provably dead immediately (the acquisition result is
/// consumed inside a larger expression — `Arc::clone(&rread(x))` — so
/// the temporary dies at the statement's end with nothing to check
/// beyond it... except the statement itself, which is still returned as
/// a narrow scope).
pub fn guard_scope(
    tokens: &[Token],
    acq: &Acquisition,
    body_open: usize,
    body_close: usize,
) -> GuardScope {
    let stmt_start = statement_start(tokens, acq.name_token).max(body_open);
    let first = &tokens[stmt_start];

    // `let NAME = <acquisition>;` — named guard, live to end of the
    // enclosing block or an explicit `drop(NAME)`.
    if first.is("let") {
        // `.unwrap()` / `.expect(..)` after the acquisition still binds
        // the guard itself (`let g = l.read().unwrap();`), so skip the
        // chain before deciding whether the binding is the guard.
        let mut call_close = acq.call_close;
        while tokens.get(call_close + 1).map(|t| t.is(".")).unwrap_or(false)
            && tokens
                .get(call_close + 2)
                .map(|t| t.is("unwrap") || t.is("expect"))
                .unwrap_or(false)
            && tokens.get(call_close + 3).map(|t| t.is("(")).unwrap_or(false)
        {
            match match_paren(tokens, call_close + 3) {
                Some(close) => call_close = close,
                None => break,
            }
        }
        let after_call = tokens.get(call_close + 1).map(|t| t.text.as_str());
        if after_call == Some(";") {
            // Binding name: first identifier after `let`, skipping `mut`.
            let mut name = String::from("<guard>");
            let mut j = stmt_start + 1;
            while j < acq.name_token {
                if tokens[j].kind == TokenKind::Ident && !tokens[j].is("mut") {
                    name = tokens[j].text.clone();
                    break;
                }
                j += 1;
            }
            // Scope: from past the `;` to the `}` closing the block the
            // statement sits in, or an explicit drop(NAME).
            let mut depth = 0i64;
            let mut end = body_close;
            let mut k = call_close + 2;
            while k <= body_close {
                match tokens[k].text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => {
                        if depth == 0 {
                            end = k;
                            break;
                        }
                        depth -= 1;
                    }
                    "drop"
                        if depth == 0
                            && tokens.get(k + 1).map(|t| t.is("(")).unwrap_or(false)
                            && tokens.get(k + 2).map(|t| t.text == name).unwrap_or(false) =>
                    {
                        end = k;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            return GuardScope {
                binding: name,
                start: call_close + 1,
                end,
            };
        }
        // `let x = rread(m).field;` / `let x = Arc::clone(&rread(m));` —
        // the guard is a temporary that dies at the statement's `;`.
        let end = statement_end(tokens, acq.call_close + 1, body_close);
        return GuardScope {
            binding: "<temporary>".into(),
            start: acq.call_close + 1,
            end,
        };
    }

    // `if let … = <acq>` / `while let …` / `match <acq>` — the
    // scrutinee temporary lives for the entire following block.
    if first.is("if") || first.is("while") || first.is("match") {
        let mut k = acq.call_close + 1;
        while k <= body_close && !tokens[k].is("{") {
            k += 1;
        }
        let end = match_brace(tokens, k).unwrap_or(body_close).min(body_close);
        return GuardScope {
            binding: "<scrutinee>".into(),
            start: acq.call_close + 1,
            end,
        };
    }

    // Plain expression statement (`tlock(&t).hits += 1;`): temporary,
    // dead at the `;`.
    let end = statement_end(tokens, acq.call_close + 1, body_close);
    GuardScope { binding: "<temporary>".into(), start: acq.call_close + 1, end }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(&scan("x.rs", src, false))
    }

    #[test]
    fn tokenizer_masks_and_lines() {
        let t = toks("fn a() { // comment with fn\n  let x = 1;\n}\n");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["fn", "a", "(", ")", "{", "let", "x", "=", "1", ";", "}"]);
        assert_eq!(t[5].line, 2); // `let` on line 2
    }

    #[test]
    fn function_spans_nest_and_name() {
        let t = toks("fn outer() {\n  fn inner() { }\n}\nfn bodyless();\n");
        let spans = function_spans(&t);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].name, "inner");
        assert!(spans[0].body_close > spans[1].body_close);
        let inner = enclosing_fn(&spans, spans[1].body_open).unwrap();
        assert_eq!(inner.name, "inner");
    }

    #[test]
    fn acquisitions_distinguish_helper_and_bare() {
        let t = toks("fn f() { let g = tlock(&m); let h = m.lock(); m.read(&mut buf); }\n");
        let acqs = acquisitions(&t, &["tlock"]);
        assert_eq!(acqs.len(), 2, "{acqs:?}");
        assert_eq!(acqs[0].kind, AcquireKind::Helper);
        assert_eq!(acqs[1].kind, AcquireKind::Bare);
        // read(&mut buf) has arguments — not a lock acquisition.
        assert!(acqs.iter().all(|a| a.name != "read"));
    }

    #[test]
    fn named_guard_scope_runs_to_block_end() {
        let src = "fn f() {\n  let g = tlock(&m);\n  work();\n}\nfn other() { late(); }\n";
        let t = toks(src);
        let spans = function_spans(&t);
        let acq = &acquisitions(&t, &["tlock"])[0];
        let scope = guard_scope(&t, acq, spans[0].body_open, spans[0].body_close);
        assert_eq!(scope.binding, "g");
        // `work` is inside the scope; `late` (next fn) is not.
        let work = t.iter().position(|x| x.is("work")).unwrap();
        let late = t.iter().position(|x| x.is("late")).unwrap();
        assert!(scope.start <= work && work <= scope.end);
        assert!(late > scope.end);
    }

    #[test]
    fn unwrap_chained_bare_lock_still_binds_a_named_guard() {
        // `let g = l.read().unwrap();` binds the guard itself — the
        // `.unwrap()` must not demote it to a dead temporary.
        let src = "fn f() {\n  let g = l.read().unwrap();\n  work(&g);\n}\n";
        let t = toks(src);
        let spans = function_spans(&t);
        let acq = &acquisitions(&t, &[])[0];
        let scope = guard_scope(&t, acq, spans[0].body_open, spans[0].body_close);
        assert_eq!(scope.binding, "g");
        let work = t.iter().position(|x| x.is("work")).unwrap();
        assert!(scope.start <= work && work <= scope.end, "{scope:?}");
    }

    #[test]
    fn drop_ends_a_named_guard_scope() {
        let src = "fn f() {\n  let g = tlock(&m);\n  early();\n  drop(g);\n  late();\n}\n";
        let t = toks(src);
        let spans = function_spans(&t);
        let acq = &acquisitions(&t, &["tlock"])[0];
        let scope = guard_scope(&t, acq, spans[0].body_open, spans[0].body_close);
        let early = t.iter().position(|x| x.is("early")).unwrap();
        let late = t.iter().position(|x| x.is("late")).unwrap();
        assert!(scope.start <= early && early <= scope.end);
        assert!(late > scope.end);
    }

    #[test]
    fn consumed_temporary_dies_at_statement_end() {
        let src = "fn f() {\n  let bp = Arc::clone(&rread(&m));\n  heavy(bp);\n}\n";
        let t = toks(src);
        let spans = function_spans(&t);
        let acq = &acquisitions(&t, &["rread"])[0];
        let scope = guard_scope(&t, acq, spans[0].body_open, spans[0].body_close);
        assert_eq!(scope.binding, "<temporary>");
        let heavy = t.iter().position(|x| x.is("heavy")).unwrap();
        assert!(heavy > scope.end, "temporary must not cover the next statement");
    }

    #[test]
    fn if_let_scrutinee_covers_the_body_block() {
        let src = "fn f() {\n  if let Some(v) = rread(&m).get(k) {\n    inside();\n  }\n  outside();\n}\n";
        let t = toks(src);
        let spans = function_spans(&t);
        let acq = &acquisitions(&t, &["rread"])[0];
        let scope = guard_scope(&t, acq, spans[0].body_open, spans[0].body_close);
        let inside = t.iter().position(|x| x.is("inside")).unwrap();
        let outside = t.iter().position(|x| x.is("outside")).unwrap();
        assert!(scope.start <= inside && inside <= scope.end);
        assert!(outside > scope.end);
    }
}
