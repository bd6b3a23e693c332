//! Guard-across-blocking-call check (`guard-blocking`), per function.
//!
//! The walk visits each library function's statements in order, tracking
//! which lock guards are live, and reports every direct blocking operation
//! (channel send/recv, thread join, file I/O — see `BLOCKING_TOKENS`)
//! made while one is held. Acquisitions — `.lock()` / `.read()` /
//! `.write()` and their `try_` variants — add to the held set.
//!
//! Guard liveness is lexical: a `let g = x.lock();` binding lives until its
//! block closes or a `drop(g)`; a guard temporary inside a `for`/`if let`/
//! `match` head lives for the block it opens; other temporaries die at the
//! end of their statement.
//!
//! One deliberate exemption keeps the signal clean, **receiver-is-guard**:
//! `self.wal.lock().write_all(..)` and `writeln!(self.writer.lock(), ..)`
//! exist *to* serialize that I/O — the guard and the blocking call are one
//! design (group commit, a shared journal file).
//!
//! The check does not follow calls: a guard held across a call into a
//! function that blocks is outside its reach. Two real shapes in this
//! workspace are of that kind, and a clean run says nothing about them:
//!
//! - `EngineHost::close` (`smartflux-net`) holds the session mutex across
//!   `SmartFluxSession::checkpoint`, whose fsync is in another crate;
//! - `Telemetry::journal` holds the journal sink-list read guard across the
//!   trait call `JournalSink::record`, which the file sink turns into a
//!   `writeln!` on its own writer guard.

use super::stmt::{chain_before, lock_class, matching_close, statements, Stmt};
use super::symbols::SymbolTable;
use crate::checks::{CheckId, Diagnostic};
use crate::source::{FileRole, SourceFile};

/// Lock acquisition tokens.
const ACQ_TOKENS: [&str; 6] = [
    ".try_lock()",
    ".try_read()",
    ".try_write()",
    ".lock()",
    ".read()",
    ".write()",
];

/// Direct blocking tokens and what they are: `send`/`recv`/`join` and the
/// common file-I/O entry points. `.join()` requires empty parens so that
/// `Path::join(..)`/`slice::join(sep)` never match.
const BLOCKING_TOKENS: [(&str, &str); 16] = [
    (".send(", "channel send"),
    (".recv()", "channel recv"),
    (".recv_timeout(", "channel recv"),
    (".join()", "thread join"),
    (".sync_all()", "fsync"),
    (".sync_data()", "fsync"),
    (".write_all(", "file write"),
    (".read_exact(", "file read"),
    (".read_to_end(", "file read"),
    (".read_to_string(", "file read"),
    (".flush()", "writer flush"),
    ("File::open(", "file open"),
    ("File::create(", "file create"),
    ("OpenOptions::new(", "file open"),
    ("fs::", "file I/O"),
    ("writeln!(", "writer I/O"),
];

/// A live guard during the per-fn walk.
struct LiveGuard {
    class: String,
    name: Option<String>,
    binding_depth: usize,
    temp: bool, // acquired in the current statement
}

/// A blocking token reached while a guard is held.
struct Hit {
    line: usize,
    what: &'static str,
    held: String,
}

/// Runs the check over one crate's files.
#[must_use]
pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    let symbols = SymbolTable::build(files);
    let stmts: Vec<Vec<Stmt>> = files
        .iter()
        .map(|f| {
            if f.role == FileRole::Lib {
                statements(f)
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut out = Vec::new();
    for (fid, def) in symbols.fns.iter().enumerate() {
        if def.is_test {
            continue;
        }
        let file = &files[def.file];
        let mut held: Vec<LiveGuard> = Vec::new();
        let mut hits = Vec::new();
        for stmt in &stmts[def.file] {
            if stmt.first_line < def.decl_line || stmt.first_line > def.body_end {
                continue;
            }
            if symbols.owner(def.file, stmt.first_line) != Some(fid) {
                continue; // nested fn's statement
            }
            if file.is_test_line(stmt.first_line) {
                continue;
            }
            held.retain(|g| stmt.depth >= g.binding_depth);
            scan_stmt(def.impl_type.as_deref(), stmt, &mut held, &mut hits);
        }
        let path = file.path.display().to_string();
        out.extend(hits.into_iter().map(|hit| Diagnostic {
            path: path.clone(),
            line: hit.line,
            check: CheckId::GuardBlocking,
            message: format!(
                "blocking call `{}` in `{}` while holding {} — a guard held across \
                 blocking I/O stalls every contender on that lock",
                hit.what, def.name, hit.held,
            ),
        }));
    }
    out.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    out.dedup();
    out
}

/// Scans one statement, updating `held` and appending reportable hits.
fn scan_stmt(
    caller_impl: Option<&str>,
    stmt: &Stmt,
    held: &mut Vec<LiveGuard>,
    hits: &mut Vec<Hit>,
) {
    let text = &stmt.text;
    let bytes = text.as_bytes();
    let temp_depth = stmt.depth + 1; // survives the block a `{`-stmt opens
    let mut i = 0usize;
    while i < bytes.len() {
        if !bytes[i].is_ascii() {
            // Skip through multi-byte chars so slicing stays on char
            // boundaries (non-ASCII only survives lexing in identifiers,
            // which no token starts with).
            i += 1;
            continue;
        }
        if let Some(tok) = ACQ_TOKENS.iter().find(|t| text[i..].starts_with(*t)) {
            held.push(LiveGuard {
                class: lock_class(&chain_before(text, i), caller_impl),
                name: None,
                binding_depth: temp_depth,
                temp: true,
            });
            i += tok.len();
            continue;
        }
        if let Some(&(tok, what)) = BLOCKING_TOKENS
            .iter()
            .find(|(t, _)| at_token_start(text, i, t))
        {
            let exempt = if tok.starts_with('.') {
                receiver_is_guard(&chain_before(text, i), held)
            } else if tok == "writeln!(" {
                first_arg_is_guard(&text[i + tok.len()..], held)
            } else {
                false
            };
            if !exempt && !held.is_empty() {
                hits.push(Hit {
                    line: stmt.line_of(i),
                    what,
                    held: held_list(held),
                });
            }
            i += tok.len();
            continue;
        }
        if at_token_start(text, i, "drop(") && !text[..i].ends_with('.') {
            // Linear `drop(g)`: the named guard dies here.
            let arg: String = text[i + "drop(".len()..]
                .chars()
                .take_while(|&ch| ch != ')')
                .filter(|ch| !ch.is_whitespace())
                .collect();
            held.retain(|g| g.name.as_deref() != Some(arg.as_str()));
            i += "drop(".len();
            continue;
        }
        i += 1;
    }
    // End of statement: a `let` ending in an acquisition names its guard.
    let binding = binding_name(text);
    if binding.is_some() && ends_in_acq_token(text.trim_end()) {
        if let Some(last_temp) = held.iter_mut().rev().find(|g| g.temp) {
            last_temp.name = binding;
            last_temp.binding_depth = stmt.depth;
            last_temp.temp = false;
        }
    }
    if stmt.ends_open {
        // Temporaries in a `for`/`if let`/`match` head live for the block.
        for g in held.iter_mut() {
            g.temp = false;
        }
    } else {
        held.retain(|g| !g.temp);
    }
}

fn held_list(held: &[LiveGuard]) -> String {
    let mut classes: Vec<String> = held.iter().map(|g| format!("`{}`", g.class)).collect();
    classes.dedup();
    format!(
        "lock{} {}",
        if classes.len() == 1 { "" } else { "s" },
        classes.join(", ")
    )
}

/// Whether `text[i..]` starts with `tok` at a sane boundary (for tokens
/// starting with an identifier, the previous char must not be part of a
/// longer identifier).
fn at_token_start(text: &str, i: usize, tok: &str) -> bool {
    if !text[i..].starts_with(tok) {
        return false;
    }
    let bytes = text.as_bytes();
    let prev_is_ident = i > 0 && {
        let c = bytes[i - 1];
        c.is_ascii_alphanumeric() || c == b'_' || !c.is_ascii()
    };
    !(tok.starts_with(|c: char| c.is_ascii_alphabetic()) && prev_is_ident)
}

/// Whether a receiver chain is itself a guard: it ends in an acquisition
/// token (fresh guard) or its root is a named held guard.
fn receiver_is_guard(chain: &str, held: &[LiveGuard]) -> bool {
    if ACQ_TOKENS.iter().any(|t| chain.ends_with(t)) {
        return true;
    }
    let root: String = chain
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    !root.is_empty()
        && held
            .iter()
            .any(|g| g.name.as_deref() == Some(root.as_str()))
}

/// Whether the first macro argument (up to the first comma) is a guard.
fn first_arg_is_guard(after_paren: &str, held: &[LiveGuard]) -> bool {
    let arg = after_paren
        .split([',', ')'])
        .next()
        .unwrap_or("")
        .trim()
        .trim_start_matches("&mut ")
        .trim_start_matches('*');
    if ACQ_TOKENS.iter().any(|t| arg.ends_with(t)) {
        return true;
    }
    held.iter().any(|g| g.name.as_deref() == Some(arg))
}

/// Whether a `let`-statement's right-hand side ends in a blocking
/// acquisition — possibly through the std-lock idioms `.unwrap()`,
/// `.expect(..)`, or `?`.
fn ends_in_acq_token(trimmed: &str) -> bool {
    let mut s = trimmed.strip_suffix(';').unwrap_or(trimmed).trim_end();
    s = s.strip_suffix('?').unwrap_or(s);
    if let Some(rest) = s.strip_suffix(".unwrap()") {
        s = rest;
    } else if s.ends_with(')') {
        if let Some(pos) = s.rfind(".expect(") {
            if matching_close(s, pos + ".expect(".len() - 1) == Some(s.len() - 1) {
                s = &s[..pos];
            }
        }
    }
    ACQ_TOKENS.iter().any(|t| s.ends_with(t))
}

/// Parses the binding name of a `let name = ...;` statement.
fn binding_name(text: &str) -> Option<String> {
    let rest = text.trim_start().strip_prefix("let ")?;
    let name_end = rest.find(['=', ':'])?;
    let name = rest[..name_end]
        .trim()
        .trim_start_matches("mut ")
        .trim()
        .to_owned();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    Some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse(PathBuf::from("src/x.rs"), FileRole::Lib, src);
        check(std::slice::from_ref(&file))
    }

    #[test]
    fn direct_blocking_under_guard_is_reported() {
        let d = run("impl S {\n\
             \x20   fn bad(&self) {\n\
             \x20       let g = self.state.lock().unwrap();\n\
             \x20       self.tx.send(g.event.clone()).ok();\n\
             \x20   }\n\
             }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("channel send"), "{d:?}");
        assert!(d[0].message.contains("`state`"), "{d:?}");
    }

    #[test]
    fn receiver_is_guard_group_commit_is_exempt() {
        let d = run("impl Manager {\n\
             \x20   fn commit(&self, bytes: &[u8]) {\n\
             \x20       self.wal.lock().write_all(bytes).unwrap();\n\
             \x20   }\n\
             \x20   fn named(&self, bytes: &[u8]) {\n\
             \x20       let mut file = self.wal.lock();\n\
             \x20       file.write_all(bytes).unwrap();\n\
             \x20   }\n\
             }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn blocking_without_guard_is_fine() {
        let d = run("impl S {\n\
             \x20   fn flush_all(&self) {\n\
             \x20       self.file.sync_all().unwrap();\n\
             \x20   }\n\
             }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn named_guard_is_held_until_dropped() {
        let d = run("impl S {\n\
             \x20   fn f(&self) {\n\
             \x20       let g = self.state.lock();\n\
             \x20       self.file.sync_data().ok();\n\
             \x20       drop(g);\n\
             \x20       self.file.sync_all().ok();\n\
             \x20   }\n\
             }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("fsync"), "{d:?}");
    }

    #[test]
    fn for_loop_guard_temporary_lives_for_the_body() {
        let d = run("impl S {\n\
             \x20   fn publish(&self) {\n\
             \x20       for s in self.subs.lock().iter() {\n\
             \x20           s.tx.send(1).ok();\n\
             \x20       }\n\
             \x20       self.tx.send(2).ok();\n\
             \x20   }\n\
             }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("`subs`"), "{d:?}");
    }

    #[test]
    fn calls_into_blocking_functions_are_not_followed() {
        // `persist` blocks, but the check sees one function at a time.
        let d = run("impl S {\n\
             \x20   fn persist(&self) {\n\
             \x20       self.file.sync_all().unwrap();\n\
             \x20   }\n\
             \x20   fn outer(&self) {\n\
             \x20       let g = self.index.lock().unwrap();\n\
             \x20       self.persist();\n\
             \x20       drop(g);\n\
             \x20   }\n\
             }\n");
        assert!(d.is_empty(), "{d:?}");
    }
}
