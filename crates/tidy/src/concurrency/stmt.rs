//! Statements and receiver chains: the shared lexical ground of the
//! concurrency passes.
//!
//! [`statements`] groups a file's lexed code lines into statements (joined
//! text, so multi-line method chains and call argument lists analyze as one
//! unit). The receiver-chain helpers read what an op at a `.` is called on:
//! the guard walk in [`super::blocking`] names a lock by it, and the
//! `atomic-ordering` audit keys disciplines by it ([`receiver_field`]).

use crate::source::SourceFile;

/// One statement: joined code text plus enough position data to map a
/// character offset back to its 1-based source line.
#[derive(Debug)]
pub struct Stmt {
    /// 1-based line the statement starts on.
    pub first_line: usize,
    /// Brace depth at the start of the statement.
    pub depth: usize,
    /// The joined code text (lines separated by single spaces).
    pub text: String,
    /// Whether the statement ends with `{` (opens a block: `for`, `if`,
    /// `match`, fn signatures, ...).
    pub ends_open: bool,
    /// `(char_offset, line)` pairs marking where each source line begins.
    line_starts: Vec<(usize, usize)>,
}

impl Stmt {
    /// The 1-based source line containing character offset `pos`.
    #[must_use]
    pub fn line_of(&self, pos: usize) -> usize {
        match self.line_starts.binary_search_by_key(&pos, |&(o, _)| o) {
            Ok(i) => self.line_starts[i].1,
            Err(0) => self.first_line,
            Err(i) => self.line_starts[i - 1].1,
        }
    }
}

/// Groups a file's code lines into statements. Attribute lines (`#[...]`)
/// and blank lines are skipped; a statement ends at `;`, `}` or `,` once
/// its own parentheses are balanced, or at any `{` (which opens a block).
#[must_use]
pub fn statements(file: &SourceFile) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut cur: Option<Stmt> = None;
    let mut paren = 0i32;
    for (idx, line) in file.lines.iter().enumerate() {
        let ln = idx + 1;
        let code = &line.code;
        let trimmed = code.trim();
        if trimmed.is_empty() || trimmed.starts_with("#[") || trimmed.starts_with("#!") {
            continue;
        }
        let stmt = cur.get_or_insert_with(|| {
            paren = 0;
            Stmt {
                first_line: ln,
                depth: file.depth_at(ln),
                text: String::new(),
                ends_open: false,
                line_starts: Vec::new(),
            }
        });
        // Join trimmed fragments; a fragment continuing a chain or call
        // (`.lock()`, `?`, `)`) glues on with no space so receiver-chain
        // walks see `self.state.lock()`, not `self.state .lock()`.
        if !stmt.text.is_empty() && !trimmed.starts_with(['.', '?', ':', ')']) {
            stmt.text.push(' ');
        }
        stmt.line_starts.push((stmt.text.len(), ln));
        stmt.text.push_str(trimmed);
        for c in code.chars() {
            match c {
                '(' => paren += 1,
                ')' => paren -= 1,
                _ => {}
            }
        }
        let last = trimmed.chars().next_back().unwrap_or(' ');
        let flush = match last {
            '{' => true,
            ';' | '}' | ',' => paren <= 0,
            _ => false,
        };
        if flush {
            if let Some(mut stmt) = cur.take() {
                stmt.ends_open = last == '{';
                out.push(stmt);
            }
        }
    }
    if let Some(stmt) = cur {
        out.push(stmt);
    }
    out
}

/// Walks the receiver chain ending at byte offset `end` (exclusive):
/// identifiers, `.`, `::`, and balanced `[...]`/`(...)` groups.
pub(super) fn chain_before(text: &str, end: usize) -> String {
    let bytes = text.as_bytes();
    let mut j = end;
    while j > 0 {
        let c = bytes[j - 1] as char;
        if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == ':' {
            j -= 1;
            continue;
        }
        if c == ']' || c == ')' {
            let open = if c == ']' { b'[' } else { b'(' };
            let close = bytes[j - 1];
            let mut bal = 1i32;
            let mut k = j - 1;
            while k > 0 && bal > 0 {
                k -= 1;
                if bytes[k] == close {
                    bal += 1;
                } else if bytes[k] == open {
                    bal -= 1;
                }
            }
            if bal != 0 {
                break;
            }
            j = k;
            continue;
        }
        break;
    }
    text[j..end].trim_start_matches(['.', ':']).to_owned()
}

/// Derives the lock class from a receiver chain: the last field segment,
/// with indexes stripped; numeric (tuple) fields qualify with the impl
/// type, e.g. `SharedEngine.0`.
pub(super) fn lock_class(chain: &str, caller_impl: Option<&str>) -> String {
    let mut s = chain.trim_end();
    loop {
        let last = s.chars().next_back();
        if last == Some(']') || last == Some(')') {
            let (open, close) = if last == Some(']') {
                ('[', ']')
            } else {
                ('(', ')')
            };
            let mut bal = 0i32;
            let mut cut = None;
            for (idx, c) in s.char_indices().rev() {
                if c == close {
                    bal += 1;
                } else if c == open {
                    bal -= 1;
                    if bal == 0 {
                        cut = Some(idx);
                        break;
                    }
                }
            }
            match cut {
                Some(idx) => s = s[..idx].trim_end(),
                None => break,
            }
        } else {
            break;
        }
    }
    let seg: String = s
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if seg.is_empty() {
        return "<expr>".to_owned();
    }
    if seg.chars().all(|c| c.is_ascii_digit()) {
        return format!("{}.{seg}", caller_impl.unwrap_or("<fn>"));
    }
    seg
}

/// The receiver field name for an op at `dot` (a `.` position): the
/// last field segment of the receiver chain, with indexes stripped.
/// Shared with the atomic-ordering audit, which keys disciplines by
/// field name.
#[must_use]
pub fn receiver_field(text: &str, dot: usize) -> String {
    lock_class(&chain_before(text, dot), None)
}

/// The index of the `)` matching the `(` at `open`.
pub fn matching_close(text: &str, open: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut bal = 0i32;
    for (idx, &b) in bytes.iter().enumerate().skip(open) {
        if b == b'(' {
            bal += 1;
        } else if b == b')' {
            bal -= 1;
            if bal == 0 {
                return Some(idx);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileRole;
    use std::path::PathBuf;

    #[test]
    fn statements_join_multiline_chains() {
        let file = SourceFile::parse(
            PathBuf::from("src/x.rs"),
            FileRole::Lib,
            "fn f(&self) {\n    self.state\n        .lock()\n        .bump(1);\n}\n",
        );
        let stmts = statements(&file);
        assert_eq!(stmts.len(), 3); // signature, chain, closing brace
        assert!(
            stmts[1].text.contains("self.state.lock().bump(1);"),
            "{:?}",
            stmts[1].text
        );
        assert_eq!(stmts[1].line_of(stmts[1].text.find(".bump").unwrap()), 4);
    }
}
