//! Rust source scanning: a small character-level lexer that separates
//! code from comments and literals, so the rules in [`crate::rules`]
//! can pattern-match on *code* without a full parser.
//!
//! For every line of a file the scanner produces:
//!
//! * `masked` — the line with comment text and string/char literal
//!   *contents* replaced by spaces (delimiters kept), so `"partial_cmp"`
//!   inside a doc string never triggers the float-ordering rule;
//! * `comment` — the concatenated comment text on that line, which is
//!   where `// lint: allow(...)` annotations live;
//! * `in_test` — whether the line sits inside a `#[cfg(test)]` item
//!   (detected by brace matching on the masked text).
//!
//! The lexer understands line and nested block comments, string, raw
//! string (`r#"..."#`), byte-string, raw byte-string, and char literals,
//! and disambiguates lifetimes (`'a`) from char literals by look-ahead —
//! the usual traps for a token-level scanner.

/// One scanned line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Original text (without the trailing newline).
    pub raw: String,
    /// Code-only view: comments and literal contents blanked.
    pub masked: String,
    /// Comment text found on this line (empty if none).
    pub comment: String,
    /// True inside a `#[cfg(test)]` region or in a test-only file.
    pub in_test: bool,
}

/// A fully scanned source file.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Path as reported in diagnostics (repo-relative).
    pub path: String,
    /// Per-line views, index 0 = line 1.
    pub lines: Vec<Line>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Scans `text` (the contents of `path`). `whole_file_test` marks every
/// line as test-exempt — used for `tests/`, `benches/`, `examples/`,
/// and fixture files.
pub fn scan(path: &str, text: &str, whole_file_test: bool) -> ScannedFile {
    let mut lines: Vec<Line> = Vec::new();
    let mut state = State::Code;

    for raw_line in text.lines() {
        let chars: Vec<char> = raw_line.chars().collect();
        let mut masked = String::with_capacity(raw_line.len());
        let mut comment = String::new();
        // A line comment never crosses a newline.
        if state == State::LineComment {
            state = State::Code;
        }
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        comment.push_str(&raw_line[char_byte_offset(&chars, i)..]);
                        masked.push_str(&" ".repeat(chars.len() - i));
                        i = chars.len();
                        continue;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        masked.push_str("  ");
                        i += 2;
                        continue;
                    }
                    '"' => {
                        state = State::Str;
                        masked.push('"');
                    }
                    'r' if matches!(next, Some('"') | Some('#')) && raw_prefix(&chars, i + 1).is_some() => {
                        let hashes = raw_prefix(&chars, i + 1).unwrap_or(0);
                        state = State::RawStr(hashes);
                        let consumed = 1 + hashes as usize + 1; // r, #s, quote
                        masked.push_str(&" ".repeat(consumed));
                        i += consumed;
                        continue;
                    }
                    'b' if next == Some('"') => {
                        state = State::Str;
                        masked.push_str("b\"");
                        i += 2;
                        continue;
                    }
                    'b' if next == Some('r') && raw_prefix(&chars, i + 2).is_some() => {
                        let hashes = raw_prefix(&chars, i + 2).unwrap_or(0);
                        state = State::RawStr(hashes);
                        let consumed = 2 + hashes as usize + 1;
                        masked.push_str(&" ".repeat(consumed));
                        i += consumed;
                        continue;
                    }
                    'b' if next == Some('\'') => {
                        // byte char literal b'x'
                        state = State::Char;
                        masked.push_str("  ");
                        i += 2;
                        continue;
                    }
                    '\'' => {
                        // Lifetime or char literal? A lifetime is `'ident`
                        // NOT followed by a closing quote; `'a'` is a char.
                        if is_char_literal(&chars, i) {
                            state = State::Char;
                            masked.push(' ');
                        } else {
                            masked.push('\'');
                        }
                    }
                    _ => masked.push(c),
                },
                State::LineComment => unreachable!("consumed to end of line"),
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        if depth == 1 {
                            state = State::Code;
                        } else {
                            state = State::BlockComment(depth - 1);
                        }
                        comment.push(' ');
                        masked.push_str("  ");
                        i += 2;
                        continue;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        comment.push(' ');
                        masked.push_str("  ");
                        i += 2;
                        continue;
                    }
                    comment.push(c);
                    masked.push(' ');
                }
                State::Str => {
                    if c == '\\' {
                        masked.push(' ');
                        if next.is_some() {
                            masked.push(' ');
                            i += 2;
                            continue;
                        }
                    } else if c == '"' {
                        state = State::Code;
                        masked.push('"');
                    } else {
                        masked.push(' ');
                    }
                }
                State::RawStr(hashes) => {
                    if c == '"' && closes_raw(&chars, i + 1, hashes) {
                        state = State::Code;
                        let consumed = 1 + hashes as usize;
                        masked.push_str(&" ".repeat(consumed));
                        i += consumed;
                        continue;
                    }
                    masked.push(' ');
                }
                State::Char => {
                    if c == '\\' && next.is_some() {
                        masked.push_str("  ");
                        i += 2;
                        continue;
                    }
                    masked.push(' ');
                    if c == '\'' {
                        state = State::Code;
                    }
                }
            }
            i += 1;
        }
        // Unterminated single-line states fall back to code at EOL (a
        // char literal or plain string cannot span lines in valid Rust).
        if matches!(state, State::Str | State::Char) {
            state = State::Code;
        }
        lines.push(Line { raw: raw_line.to_string(), masked, comment, in_test: whole_file_test });
    }

    let mut file = ScannedFile { path: path.to_string(), lines };
    if !whole_file_test {
        mark_test_regions(&mut file);
    }
    file
}

/// Byte offset of char index `i` within the line the chars came from.
fn char_byte_offset(chars: &[char], i: usize) -> usize {
    chars[..i].iter().map(|c| c.len_utf8()).sum()
}

/// If position `from` starts `#*"` (zero or more hashes then a quote),
/// returns the hash count — the raw-string delimiter arity.
fn raw_prefix(chars: &[char], from: usize) -> Option<u32> {
    let mut hashes = 0u32;
    let mut j = from;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(hashes)
}

/// True when `hashes` `#` characters follow position `from` — the
/// closing delimiter of a raw string with that arity.
fn closes_raw(chars: &[char], from: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| chars.get(from + k) == Some(&'#'))
}

/// Distinguishes `'a'` / `'\n'` (char literal) from `'a` (lifetime) at
/// the opening quote position.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Marks every line belonging to a `#[cfg(test)]` item as test code by
/// brace-matching on the masked text: from the attribute, the region
/// extends to the matching `}` of the first `{` that follows (or to the
/// first `;` for brace-less items like `use`).
fn mark_test_regions(file: &mut ScannedFile) {
    let n = file.lines.len();
    let mut start = 0usize;
    while start < n {
        let Some(attr_line) = (start..n).find(|&l| file.lines[l].masked.contains("#[cfg(test)]"))
        else {
            break;
        };
        let mut depth = 0i64;
        let mut opened = false;
        let mut end = attr_line;
        'outer: for (l, line) in file.lines.iter().enumerate().take(n).skip(attr_line) {
            let col0 = if l == attr_line {
                // Search after the attribute itself.
                line.masked.find("#[cfg(test)]").map(|p| p + "#[cfg(test)]".len()).unwrap_or(0)
            } else {
                0
            };
            for ch in line.masked[col0..].chars() {
                match ch {
                    '{' => {
                        opened = true;
                        depth += 1;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            end = l;
                            break 'outer;
                        }
                    }
                    ';' if !opened => {
                        end = l;
                        break 'outer;
                    }
                    _ => {}
                }
            }
            end = l;
        }
        for line in &mut file.lines[attr_line..=end] {
            line.in_test = true;
        }
        start = end + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_masked() {
        let f = scan(
            "x.rs",
            "let a = \"partial_cmp\"; // unwrap() here\nlet b = 1; /* unwrap() */ let c = 2;\n",
            false,
        );
        assert!(!f.lines[0].masked.contains("partial_cmp"));
        assert!(!f.lines[0].masked.contains("unwrap"));
        assert!(f.lines[0].comment.contains("unwrap() here"));
        assert!(!f.lines[1].masked.contains("unwrap"));
        assert!(f.lines[1].masked.contains("let c = 2;"));
    }

    #[test]
    fn multiline_block_comments_and_raw_strings() {
        let src = "/* start\nstill comment unwrap()\n*/ let x = r#\"un\"wrap()\"#;\nlet y = 3;\n";
        let f = scan("x.rs", src, false);
        assert!(!f.lines[1].masked.contains("unwrap"));
        assert!(!f.lines[2].masked.contains("wrap"));
        assert!(f.lines[3].masked.contains("let y = 3;"));
    }

    #[test]
    fn byte_strings_are_masked() {
        let src = "let a = b\"x.unwrap()\"; let b = br#\"y.unwrap()\"#;\nlet c = 1;\n";
        let f = scan("x.rs", src, false);
        assert!(!f.lines[0].masked.contains("unwrap"), "{}", f.lines[0].masked);
        assert!(f.lines[0].masked.contains("let b ="));
        assert!(f.lines[1].masked.contains("let c = 1;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = scan("x.rs", "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\n", false);
        assert!(f.lines[0].masked.contains("fn f<'a>"), "{}", f.lines[0].masked);
        assert!(!f.lines[1].masked.contains('x') || !f.lines[1].masked.contains("'x'"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "\
fn prod() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn prod2() {}
";
        let f = scan("x.rs", src, false);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn whole_file_test_flag() {
        let f = scan("tests/x.rs", "fn t() { y.unwrap(); }\n", true);
        assert!(f.lines[0].in_test);
    }
}
