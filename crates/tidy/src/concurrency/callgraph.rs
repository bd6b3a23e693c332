//! Statement grouping, event extraction, and the per-crate call graph.
//!
//! The scanner groups lexed code lines into *statements* (joined text, so
//! multi-line method chains and call argument lists analyze as one unit),
//! then walks each function's statements in order tracking which lock
//! guards are live. Acquisitions — `.lock()` / `.read()` / `.write()` and
//! their `try_` variants — add to the held set; two kinds of events come
//! out, each with the lock classes held at that point:
//!
//! - **calls** — method, bare, and path calls, resolved against the
//!   crate's symbol table by name (one candidate = resolved, several =
//!   conservatively ambiguous, none = unknown/external),
//! - **blocking hits** — direct `send`/`recv`/`join`/file-I/O tokens.
//!
//! Guard liveness is lexical: a `let g = x.lock();` binding (or a binding
//! of a guard-returning fn, like `let data = self.lock_write();` in
//! `DataStore::write_at`) lives until its block closes or a `drop(g)`; a
//! guard temporary inside a `for`/`if let`/`match` head lives for the
//! block it opens; other temporaries die at the end of their statement.

use std::collections::HashMap;

use super::symbols::SymbolTable;
use crate::source::{FileRole, SourceFile};

/// Lock acquisition tokens: `(token, is_try)`.
pub const ACQ_TOKENS: [(&str, bool); 6] = [
    (".try_lock()", true),
    (".try_read()", true),
    (".try_write()", true),
    (".lock()", false),
    (".read()", false),
    (".write()", false),
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

/// Bare identifiers that look like calls but are control flow or
/// ubiquitous constructors.
const CALL_KEYWORDS: [&str; 11] = [
    "if", "while", "for", "match", "loop", "return", "move", "Some", "Ok", "Err", "Box",
];

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

/// How a call site resolved against the symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Exactly one local definition matched.
    Resolved,
    /// Several local definitions matched (trait dispatch / same-name
    /// methods); all are followed conservatively.
    Ambiguous,
    /// No local definition matched (external, closure, or macro target).
    Unknown,
}

/// One call site with resolution and the guards held around it.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// Callee name (last path segment).
    pub name: String,
    /// Whether this was a `.name(...)` method call.
    pub is_method: bool,
    /// 1-based source line.
    pub line: usize,
    /// Lock classes held at this point (receiver field name, or `Type.N`
    /// for tuple fields).
    pub held: Vec<String>,
    /// The receiver is itself a (fresh or named) guard — the
    /// mutex-protects-the-resource pattern, exempt from `guard-blocking`.
    pub on_guard: bool,
    /// Candidate fn indices into the symbol table.
    pub candidates: Vec<usize>,
    /// Resolution classification.
    pub resolution: Resolution,
}

/// A direct blocking token with the guards held around it.
#[derive(Debug, Clone)]
pub struct BlockingHit {
    /// 1-based source line.
    pub line: usize,
    /// What kind of blocking operation.
    pub what: &'static str,
    /// Lock classes held at this point.
    pub held: Vec<String>,
    /// The blocking call runs *on* a held guard (the guard protects the
    /// resource being driven), which is the intended pattern.
    pub exempt: bool,
}

/// Everything extracted from one function body.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Class of the fn's first blocking (non-`try_`) acquisition: for a
    /// guard-returning fn, the lock its guard protects.
    pub first_acq: Option<String>,
    /// Call sites, in order.
    pub calls: Vec<CallEvent>,
    /// Direct blocking tokens, in order.
    pub blocking: Vec<BlockingHit>,
}

/// The symbol table plus per-fn facts for one crate.
#[derive(Debug)]
pub struct Model {
    /// Extracted function definitions.
    pub symbols: SymbolTable,
    /// Facts parallel to `symbols.fns`.
    pub facts: Vec<FnFacts>,
    /// For guard-returning fns: the lock class their guard protects
    /// (derived from the fn's own first acquisition).
    pub guard_class: HashMap<usize, String>,
}

impl Model {
    /// Builds the symbol table and per-fn facts for one crate's files.
    ///
    /// Runs the scan twice: the first pass discovers which fns return
    /// guards and which lock class each guards (e.g. `DataStore::lock_write`
    /// returning `RwLockWriteGuard` over `tables`), the second pass uses
    /// that so `let data = self.lock_write();` in `DataStore::write_at`
    /// binds a live guard of the right class.
    #[must_use]
    pub fn build(files: &[SourceFile]) -> Self {
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
        let first = scan(&symbols, files, &stmts, &HashMap::new());
        let mut guard_class = HashMap::new();
        for (idx, f) in symbols.fns.iter().enumerate() {
            if f.returns_guard {
                if let Some(class) = first[idx].first_acq.clone() {
                    guard_class.insert(idx, class);
                }
            }
        }
        let facts = scan(&symbols, files, &stmts, &guard_class);
        Self {
            symbols,
            facts,
            guard_class,
        }
    }
}

/// A live guard during the per-fn walk.
struct LiveGuard {
    class: String,
    name: Option<String>,
    binding_depth: usize,
    temp: bool, // acquired in the current statement
}

fn snapshot(held: &[LiveGuard]) -> Vec<String> {
    held.iter().map(|g| g.class.clone()).collect()
}

fn scan(
    symbols: &SymbolTable,
    files: &[SourceFile],
    stmts: &[Vec<Stmt>],
    guard_class: &HashMap<usize, String>,
) -> Vec<FnFacts> {
    let mut facts: Vec<FnFacts> = vec![FnFacts::default(); symbols.fns.len()];
    for (fid, def) in symbols.fns.iter().enumerate() {
        if def.is_test {
            continue;
        }
        let file = &files[def.file];
        let mut held: Vec<LiveGuard> = Vec::new();
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
            scan_stmt(
                symbols,
                def.impl_type.as_deref(),
                guard_class,
                stmt,
                &mut held,
                &mut facts[fid],
            );
        }
    }
    facts
}

/// Scans one statement, updating `held` and appending events to `facts`.
#[allow(clippy::too_many_lines)]
fn scan_stmt(
    symbols: &SymbolTable,
    caller_impl: Option<&str>,
    guard_class: &HashMap<usize, String>,
    stmt: &Stmt,
    held: &mut Vec<LiveGuard>,
    facts: &mut FnFacts,
) {
    let text = &stmt.text;
    let bytes = text.as_bytes();
    let n = bytes.len();
    let temp_depth = stmt.depth + 1; // survives the block a `{`-stmt opens
                                     // (pos of '(' , candidates, all-guard-returning) of each call, for the
                                     // trailing-call binding check at the end.
    let mut call_opens: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut i = 0usize;
    while i < n {
        if !bytes[i].is_ascii() {
            // Skip through multi-byte chars so slicing stays on char
            // boundaries (non-ASCII only survives lexing in identifiers,
            // which no token starts with).
            i += 1;
            continue;
        }
        let c = bytes[i] as char;
        // Acquisition tokens.
        if c == '.' {
            if let Some(&(tok, is_try)) = ACQ_TOKENS.iter().find(|(t, _)| text[i..].starts_with(t))
            {
                let chain = chain_before(text, i);
                let class = lock_class(&chain, caller_impl);
                if !is_try && facts.first_acq.is_none() {
                    facts.first_acq = Some(class.clone());
                }
                held.push(LiveGuard {
                    class,
                    name: None,
                    binding_depth: temp_depth,
                    temp: true,
                });
                i += tok.len();
                continue;
            }
        }
        // Blocking tokens (both `.method(` and path-shaped).
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
            facts.blocking.push(BlockingHit {
                line: stmt.line_of(i),
                what,
                held: snapshot(held),
                exempt,
            });
            i += tok.len();
            continue;
        }
        // Method calls: `.name(`.
        if c == '.' {
            if let Some((name, len)) = ident_then_paren(&text[i + 1..]) {
                let chain = chain_before(text, i);
                let on_guard = receiver_is_guard(&chain, held);
                let mut candidates: Vec<usize> = symbols
                    .named(&name)
                    .iter()
                    .copied()
                    .filter(|&f| symbols.fns[f].impl_type.is_some())
                    .collect();
                if chain == "self" {
                    if let Some(own) = caller_impl {
                        let same: Vec<usize> = candidates
                            .iter()
                            .copied()
                            .filter(|&f| symbols.fns[f].impl_type.as_deref() == Some(own))
                            .collect();
                        if !same.is_empty() {
                            candidates = same;
                        }
                    }
                }
                push_call(
                    facts,
                    &mut call_opens,
                    stmt,
                    i + 1 + len,
                    name,
                    true,
                    held,
                    on_guard,
                    candidates,
                );
                i += 1 + len + 1;
                continue;
            }
            i += 1;
            continue;
        }
        // Bare and path calls: `name(` / `path::name(`.
        if (c.is_ascii_alphabetic() || c == '_') && !prev_is_ident(bytes, i) {
            if let Some((name, len)) = ident_then_paren(&text[i..]) {
                let is_path = text[..i].ends_with("::");
                // `fn name(` is a declaration, not a call.
                let decl = text[..i].trim_end().ends_with(" fn")
                    || text[..i].trim_end() == "fn"
                    || text[..i].ends_with("fn ");
                if !decl && (is_path || !CALL_KEYWORDS.contains(&name.as_str())) {
                    if !is_path && name == "drop" {
                        // Linear `drop(g)`: the named guard dies here.
                        let arg: String = text[i + len + 1..]
                            .chars()
                            .take_while(|&ch| ch != ')')
                            .filter(|ch| !ch.is_whitespace())
                            .collect();
                        held.retain(|g| g.name.as_deref() != Some(arg.as_str()));
                        i += len;
                        continue;
                    }
                    let candidates = if is_path {
                        let root = path_root(text, i);
                        resolve_path_call(symbols, caller_impl, &root, &name)
                    } else {
                        symbols
                            .named(&name)
                            .iter()
                            .copied()
                            .filter(|&f| symbols.fns[f].impl_type.is_none())
                            .collect()
                    };
                    push_call(
                        facts,
                        &mut call_opens,
                        stmt,
                        i + len,
                        name,
                        false,
                        held,
                        false,
                        candidates,
                    );
                }
                i += len + 1;
                continue;
            }
        }
        i += 1;
    }
    // End of statement: resolve temporaries and bindings.
    let binding = binding_name(text);
    let binds_acq = binding.is_some() && ends_in_acq_token(text.trim_end());
    if binds_acq {
        if let Some(last_temp) = held.iter_mut().rev().find(|g| g.temp) {
            last_temp.name = binding.clone();
            last_temp.binding_depth = stmt.depth;
            last_temp.temp = false;
        }
    } else if let Some(name) = &binding {
        // `let data = self.lock_write();` — a trailing call whose every
        // candidate returns a guard binds that guard's class.
        for (open, candidates) in &call_opens {
            let Some(close) = matching_close(text, *open) else {
                continue;
            };
            let rest = text[close + 1..].trim();
            if rest != ";" && rest != "?;" {
                continue;
            }
            if candidates.is_empty() || !candidates.iter().all(|f| guard_class.contains_key(f)) {
                continue;
            }
            held.push(LiveGuard {
                class: guard_class[&candidates[0]].clone(),
                name: Some(name.clone()),
                binding_depth: stmt.depth,
                temp: false,
            });
            break;
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

#[allow(clippy::too_many_arguments)]
fn push_call(
    facts: &mut FnFacts,
    call_opens: &mut Vec<(usize, Vec<usize>)>,
    stmt: &Stmt,
    open_pos: usize,
    name: String,
    is_method: bool,
    held: &[LiveGuard],
    on_guard: bool,
    candidates: Vec<usize>,
) {
    let resolution = match candidates.len() {
        0 => Resolution::Unknown,
        1 => Resolution::Resolved,
        _ => Resolution::Ambiguous,
    };
    call_opens.push((open_pos, candidates.clone()));
    facts.calls.push(CallEvent {
        name,
        is_method,
        line: stmt.line_of(open_pos),
        held: snapshot(held),
        on_guard,
        candidates,
        resolution,
    });
}

/// Candidates for a `path::name(` call: methods of a locally-defined type
/// named like the path root, else free fns (module-qualified path).
/// External roots (`Arc`, `std`, `mem`, ...) match neither and resolve to
/// nothing.
fn resolve_path_call(
    symbols: &SymbolTable,
    caller_impl: Option<&str>,
    root: &str,
    name: &str,
) -> Vec<usize> {
    let root = if root == "Self" {
        caller_impl.unwrap_or(root)
    } else {
        root
    };
    let methods: Vec<usize> = symbols
        .named(name)
        .iter()
        .copied()
        .filter(|&f| symbols.fns[f].impl_type.as_deref() == Some(root))
        .collect();
    if !methods.is_empty() {
        return methods;
    }
    let root_has_impls = symbols
        .fns
        .iter()
        .any(|f| f.impl_type.as_deref() == Some(root));
    if root_has_impls {
        return Vec::new(); // the type exists but has no such method
    }
    symbols
        .named(name)
        .iter()
        .copied()
        .filter(|&f| symbols.fns[f].impl_type.is_none())
        .collect()
}

/// Whether `text[i..]` starts with `tok` at a sane boundary (for tokens
/// starting with an identifier, the previous char must not be part of a
/// longer identifier).
fn at_token_start(text: &str, i: usize, tok: &str) -> bool {
    if !text[i..].starts_with(tok) {
        return false;
    }
    let first = tok.chars().next().unwrap_or(' ');
    if first.is_ascii_alphabetic() {
        !prev_is_ident(text.as_bytes(), i)
    } else {
        true
    }
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && {
        let c = bytes[i - 1];
        c.is_ascii_alphanumeric() || c == b'_' || !c.is_ascii()
    }
}

/// Parses `ident(` at the start of `s`; returns the ident and its length.
fn ident_then_paren(s: &str) -> Option<(String, usize)> {
    let name: String = s
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    if s[name.len()..].starts_with('(') {
        let len = name.len();
        Some((name, len))
    } else {
        None
    }
}

/// Walks the receiver chain ending at byte offset `end` (exclusive):
/// identifiers, `.`, `::`, and balanced `[...]`/`(...)` groups.
fn chain_before(text: &str, end: usize) -> String {
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

/// The first path segment of the chain ending at `i` (e.g. `Wal` for
/// `Wal::append_encoded(`).
fn path_root(text: &str, i: usize) -> String {
    let chain = chain_before(text, i);
    chain
        .split("::")
        .next()
        .unwrap_or(&chain)
        .split('.')
        .next_back()
        .unwrap_or(&chain)
        .to_owned()
}

/// Derives the lock class from a receiver chain: the last field segment,
/// with indexes stripped; numeric (tuple) fields qualify with the impl
/// type, e.g. `SharedEngine.0`.
fn lock_class(chain: &str, caller_impl: Option<&str>) -> String {
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

/// Whether a receiver chain is itself a guard: it ends in an acquisition
/// token (fresh guard) or its root is a named held guard.
fn receiver_is_guard(chain: &str, held: &[LiveGuard]) -> bool {
    if ACQ_TOKENS.iter().any(|(t, _)| chain.ends_with(t)) {
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
    if ACQ_TOKENS.iter().any(|(t, _)| arg.ends_with(t)) {
        return true;
    }
    held.iter().any(|g| g.name.as_deref() == Some(arg))
}

/// The receiver field name for an op at `dot` (a `.` position): the
/// last field segment of the receiver chain, with indexes stripped.
/// Shared with the atomic-ordering audit, which keys disciplines by
/// field name.
#[must_use]
pub fn receiver_field(text: &str, dot: usize) -> String {
    lock_class(&chain_before(text, dot), None)
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
    ACQ_TOKENS.iter().any(|(t, _)| s.ends_with(t))
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

    fn model(src: &str) -> Model {
        let file = SourceFile::parse(PathBuf::from("src/x.rs"), FileRole::Lib, src);
        Model::build(std::slice::from_ref(&file))
    }

    fn fn_named<'m>(m: &'m Model, name: &str) -> &'m FnFacts {
        let idx = m
            .symbols
            .fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn `{name}`"));
        &m.facts[idx]
    }

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

    #[test]
    fn named_binding_tracks_held_guard_until_drop() {
        let m = model(
            "impl S {\n\
             \x20   fn f(&self) {\n\
             \x20       let g = self.state.lock();\n\
             \x20       self.other.ping();\n\
             \x20       drop(g);\n\
             \x20       self.third.ping();\n\
             \x20   }\n\
             }\n",
        );
        let facts = fn_named(&m, "f");
        assert_eq!(facts.first_acq.as_deref(), Some("state"));
        assert_eq!(facts.calls.len(), 2);
        assert_eq!(facts.calls[0].held, ["state"]);
        assert!(
            facts.calls[1].held.is_empty(),
            "drop(g) must clear the guard"
        );
    }

    #[test]
    fn guard_returning_fn_binding_is_a_live_guard() {
        let m = model(
            "impl S {\n\
             \x20   fn lock_write(&self) -> RwLockWriteGuard<'_, Tables> {\n\
             \x20       self.tables.write()\n\
             \x20   }\n\
             \x20   fn put(&self) {\n\
             \x20       let mut data = self.lock_write();\n\
             \x20       self.index.ping();\n\
             \x20   }\n\
             }\n",
        );
        let facts = fn_named(&m, "put");
        let ping = facts.calls.iter().find(|c| c.name == "ping").unwrap();
        assert_eq!(ping.held, ["tables"]);
    }

    #[test]
    fn method_calls_resolve_by_name() {
        let m = model(
            "struct A;\nstruct B;\n\
             impl A {\n    fn go(&self) {}\n    fn run(&self) {\n        self.go();\n    }\n}\n\
             impl B {\n    fn go(&self) {}\n}\n",
        );
        let facts = fn_named(&m, "run");
        let call = facts.calls.iter().find(|c| c.name == "go").unwrap();
        // Receiver is literally `self`, so resolution narrows to A::go.
        assert_eq!(call.resolution, Resolution::Resolved);
        assert_eq!(
            m.symbols.fns[call.candidates[0]].impl_type.as_deref(),
            Some("A")
        );
    }

    #[test]
    fn trait_dispatch_is_conservatively_ambiguous() {
        let m = model(
            "struct A;\nstruct B;\n\
             impl A {\n    fn fire(&self) {}\n}\n\
             impl B {\n    fn fire(&self) {}\n}\n\
             fn run(x: &A) {\n    x.fire();\n}\n",
        );
        let facts = fn_named(&m, "run");
        let call = facts.calls.iter().find(|c| c.name == "fire").unwrap();
        assert_eq!(call.resolution, Resolution::Ambiguous);
        assert_eq!(call.candidates.len(), 2);
    }

    #[test]
    fn closure_callbacks_are_unknown_edges() {
        let m = model("fn timed(op: impl FnOnce()) {\n    op();\n}\n");
        let facts = fn_named(&m, "timed");
        let call = facts.calls.iter().find(|c| c.name == "op").unwrap();
        assert_eq!(call.resolution, Resolution::Unknown);
    }

    #[test]
    fn cross_module_free_calls_resolve() {
        let m = model(
            "fn encode(buf: &mut Vec<u8>) {}\n\
             fn commit() {\n    let mut b = Vec::new();\n    encode(&mut b);\n    codec::encode(&mut b);\n}\n",
        );
        let facts = fn_named(&m, "commit");
        let bare = facts
            .calls
            .iter()
            .find(|c| c.name == "encode" && !c.is_method);
        assert!(bare.is_some_and(|c| c.resolution == Resolution::Resolved));
        // `Vec::new` resolves to nothing local.
        let new = facts.calls.iter().find(|c| c.name == "new").unwrap();
        assert_eq!(new.resolution, Resolution::Unknown);
    }

    #[test]
    fn blocking_on_guard_receiver_is_exempt() {
        let m = model(
            "impl S {\n\
             \x20   fn commit(&self) {\n\
             \x20       self.wal.lock().write_all(b\"x\");\n\
             \x20   }\n\
             \x20   fn bad(&self) {\n\
             \x20       let g = self.state.lock();\n\
             \x20       self.file.write_all(b\"x\");\n\
             \x20   }\n\
             }\n",
        );
        let commit = fn_named(&m, "commit");
        assert!(commit.blocking[0].exempt);
        let bad = fn_named(&m, "bad");
        assert!(!bad.blocking[0].exempt);
        assert_eq!(bad.blocking[0].held.len(), 1);
    }

    #[test]
    fn for_loop_guard_temporary_lives_for_the_body() {
        let m = model(
            "impl S {\n\
             \x20   fn publish(&self) {\n\
             \x20       for s in self.subs.lock().iter() {\n\
             \x20           s.notify();\n\
             \x20       }\n\
             \x20       self.after();\n\
             \x20   }\n\
             }\n",
        );
        let facts = fn_named(&m, "publish");
        let notify = facts.calls.iter().find(|c| c.name == "notify").unwrap();
        assert_eq!(notify.held, ["subs"]);
        let after = facts.calls.iter().find(|c| c.name == "after").unwrap();
        assert!(after.held.is_empty());
    }
}
