//! Atomic ordering-discipline audit.
//!
//! Every atomic field must carry a declared discipline, written next to
//! the field as a machine-readable comment:
//!
//! ```text
//! // tidy:atomic(<field>: <spec>): <reason>
//! ```
//!
//! where `<spec>` is a preset — `relaxed` (all ops Relaxed), `acq-rel`
//! (load=acquire, store=release, rmw=acq-rel), `seqcst` — or an explicit
//! per-op list like `load=acquire|relaxed, store=release, rmw=relaxed`.
//! Ops omitted from an explicit list are not permitted at all.
//!
//! The pass then checks three things per crate: (1) every atomic field
//! declaration (`name: AtomicU64`, `static N: AtomicU64`, arrays,
//! `Arc<AtomicUsize>`) has a discipline, (2) every declared discipline
//! names a field that exists, and (3) every `Ordering::*` use on a
//! receiver matches the discipline for that field name. SeqCst-by-default
//! therefore fails unless the field consciously declares `seqcst`, and a
//! Relaxed load on an acquire/release-disciplined flag fails too.
//!
//! `compare_exchange`/`fetch_update` carry a separate failure-load
//! ordering, so those sites check against the union of the `rmw` and
//! `load` sets.

use std::collections::BTreeMap;

use super::stmt::statements;
use crate::checks::{CheckId, Diagnostic};
use crate::source::{FileRole, SourceFile};

/// Atomic type-name suffixes after the `Atomic` prefix.
const ATOMIC_SUFFIXES: [&str; 13] = [
    "Bool", "U8", "U16", "U32", "U64", "Usize", "I8", "I16", "I32", "I64", "Isize", "Ptr", "F64",
];

/// Atomic op tokens and their kind.
const OP_TOKENS: [(&str, OpKind); 14] = [
    (".load(", OpKind::Load),
    (".store(", OpKind::Store),
    (".swap(", OpKind::Rmw),
    (".fetch_add(", OpKind::Rmw),
    (".fetch_sub(", OpKind::Rmw),
    (".fetch_and(", OpKind::Rmw),
    (".fetch_or(", OpKind::Rmw),
    (".fetch_xor(", OpKind::Rmw),
    (".fetch_nand(", OpKind::Rmw),
    (".fetch_max(", OpKind::Rmw),
    (".fetch_min(", OpKind::Rmw),
    (".fetch_update(", OpKind::RmwWithLoad),
    (".compare_exchange(", OpKind::RmwWithLoad),
    (".compare_exchange_weak(", OpKind::RmwWithLoad),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Load,
    Store,
    Rmw,
    /// RMW ops carrying a separate failure-load ordering.
    RmwWithLoad,
}

impl OpKind {
    fn label(self) -> &'static str {
        match self {
            Self::Load => "load",
            Self::Store => "store",
            Self::Rmw | Self::RmwWithLoad => "rmw",
        }
    }
}

/// A parsed per-field discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Discipline {
    load: Vec<String>,
    store: Vec<String>,
    rmw: Vec<String>,
    /// Normalized display text.
    text: String,
}

fn ordering_set(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| (*s).to_owned()).collect()
}

fn parse_spec(spec: &str) -> Result<Discipline, String> {
    let spec = spec.trim();
    match spec {
        "relaxed" => {
            return Ok(Discipline {
                load: ordering_set(&["relaxed"]),
                store: ordering_set(&["relaxed"]),
                rmw: ordering_set(&["relaxed"]),
                text: "relaxed".to_owned(),
            })
        }
        "acq-rel" => {
            return Ok(Discipline {
                load: ordering_set(&["acquire"]),
                store: ordering_set(&["release"]),
                rmw: ordering_set(&["acq-rel"]),
                text: "acq-rel".to_owned(),
            })
        }
        "seqcst" => {
            return Ok(Discipline {
                load: ordering_set(&["seqcst"]),
                store: ordering_set(&["seqcst"]),
                rmw: ordering_set(&["seqcst"]),
                text: "seqcst".to_owned(),
            })
        }
        _ => {}
    }
    let mut d = Discipline {
        load: Vec::new(),
        store: Vec::new(),
        rmw: Vec::new(),
        text: String::new(),
    };
    for part in spec.split(',') {
        let part = part.trim();
        let (op, orders) = part
            .split_once('=')
            .ok_or_else(|| format!("expected `op=ordering`, got `{part}`"))?;
        let mut parsed = Vec::new();
        for o in orders.split('|') {
            let o = o.trim();
            if !["relaxed", "acquire", "release", "acq-rel", "seqcst"].contains(&o) {
                return Err(format!("unknown ordering `{o}`"));
            }
            parsed.push(o.to_owned());
        }
        match op.trim() {
            "load" => d.load = parsed,
            "store" => d.store = parsed,
            "rmw" => d.rmw = parsed,
            other => return Err(format!("unknown op `{other}` (use load/store/rmw)")),
        }
    }
    let mut parts = Vec::new();
    for (name, set) in [("load", &d.load), ("store", &d.store), ("rmw", &d.rmw)] {
        if !set.is_empty() {
            parts.push(format!("{name}={}", set.join("|")));
        }
    }
    if parts.is_empty() {
        return Err("empty discipline".to_owned());
    }
    d.text = parts.join(", ");
    Ok(d)
}

/// Normalizes an `Ordering::X` variant to its discipline name.
fn ordering_name(variant: &str) -> Option<&'static str> {
    match variant {
        "Relaxed" => Some("relaxed"),
        "Acquire" => Some("acquire"),
        "Release" => Some("release"),
        "AcqRel" => Some("acq-rel"),
        "SeqCst" => Some("seqcst"),
        _ => None,
    }
}

/// Runs the audit over one crate's files.
#[must_use]
pub fn check(crate_name: &str, files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // field -> (discipline, path, line)
    let mut decls: BTreeMap<String, (Discipline, String, usize)> = BTreeMap::new();

    // Pass 1: collect `tidy:atomic` declarations.
    for file in files {
        if file.role != FileRole::Lib {
            continue;
        }
        let path = file.path.display().to_string();
        for (idx, line) in file.lines.iter().enumerate() {
            let ln = idx + 1;
            let mut rest = line.comment.as_str();
            while let Some(start) = rest.find("tidy:atomic(") {
                let abs = line.comment.len() - rest.len() + start;
                if line.comment[..abs].matches('`').count() % 2 == 1 {
                    rest = &rest[start + "tidy:atomic(".len()..];
                    continue; // backticked mention in docs
                }
                let after = &rest[start + "tidy:atomic(".len()..];
                let malformed = |out: &mut Vec<Diagnostic>, why: &str| {
                    out.push(Diagnostic {
                        path: path.clone(),
                        line: ln,
                        check: CheckId::AtomicOrdering,
                        message: format!(
                            "malformed `tidy:atomic` ({why}) — expected \
                             `tidy:atomic(<field>: <spec>): <reason>`"
                        ),
                    });
                };
                let Some(close) = after.find(')') else {
                    malformed(&mut out, "missing `)`");
                    break;
                };
                let inner = &after[..close];
                let tail = &after[close + 1..];
                let reason_ok = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
                if !reason_ok {
                    malformed(&mut out, "missing reason");
                    rest = tail;
                    continue;
                }
                let Some((field, spec)) = inner.split_once(':') else {
                    malformed(&mut out, "missing `<field>: <spec>`");
                    rest = tail;
                    continue;
                };
                let field = field.trim().to_owned();
                match parse_spec(spec) {
                    Err(why) => malformed(&mut out, &why),
                    Ok(d) => {
                        if let Some((prev, ppath, pline)) = decls.get(&field) {
                            if prev.text != d.text {
                                out.push(Diagnostic {
                                    path: path.clone(),
                                    line: ln,
                                    check: CheckId::AtomicOrdering,
                                    message: format!(
                                        "conflicting discipline for atomic `{field}`: `{}` here \
                                         vs `{}` at {ppath}:{pline}",
                                        d.text, prev.text
                                    ),
                                });
                            }
                        } else {
                            decls.insert(field, (d, path.clone(), ln));
                        }
                    }
                }
                rest = tail;
            }
        }
    }

    // Pass 2: every atomic field declaration needs a discipline.
    let mut fields_seen: Vec<String> = Vec::new();
    for file in files {
        if file.role != FileRole::Lib {
            continue;
        }
        let path = file.path.display().to_string();
        for (idx, line) in file.lines.iter().enumerate() {
            let ln = idx + 1;
            if file.is_test_line(ln) {
                continue;
            }
            if let Some(name) = atomic_field_decl(&line.code) {
                fields_seen.push(name.clone());
                if !decls.contains_key(&name) {
                    out.push(Diagnostic {
                        path: path.clone(),
                        line: ln,
                        check: CheckId::AtomicOrdering,
                        message: format!(
                            "atomic field `{name}` has no declared ordering discipline — add \
                             `// tidy:atomic({name}: <spec>): <reason>` \
                             (spec: relaxed | acq-rel | seqcst | load=.., store=.., rmw=..)"
                        ),
                    });
                }
            }
        }
    }
    for (field, (_, path, line)) in &decls {
        if !fields_seen.iter().any(|f| f == field) {
            out.push(Diagnostic {
                path: path.clone(),
                line: *line,
                check: CheckId::AtomicOrdering,
                message: format!(
                    "`tidy:atomic({field}: ...)` declares a field that no atomic declaration \
                     in `{crate_name}` matches"
                ),
            });
        }
    }

    // Pass 3: every Ordering use matches the receiver's discipline.
    for file in files {
        if file.role != FileRole::Lib {
            continue;
        }
        let path = file.path.display().to_string();
        for stmt in statements(file) {
            if file.is_test_line(stmt.first_line) {
                continue;
            }
            check_stmt_ops(crate_name, &decls, &path, &stmt, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    out.dedup();
    out
}

fn check_stmt_ops(
    crate_name: &str,
    decls: &BTreeMap<String, (Discipline, String, usize)>,
    path: &str,
    stmt: &super::stmt::Stmt,
    out: &mut Vec<Diagnostic>,
) {
    let text = &stmt.text;
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'.' {
            i += 1;
            continue;
        }
        let Some(&(tok, kind)) = OP_TOKENS.iter().find(|(t, _)| text[i..].starts_with(t)) else {
            i += 1;
            continue;
        };
        let open = i + tok.len() - 1;
        let args_end = super::stmt::matching_close(text, open).unwrap_or(text.len() - 1);
        let args = &text[open + 1..args_end];
        let orderings = ordering_tokens(args);
        if orderings.is_empty() {
            i += tok.len();
            continue; // not an atomic op (e.g. a codec `.load(path)`)
        }
        let receiver = super::stmt::receiver_field(text, i);
        let line = stmt.line_of(i);
        match decls.get(&receiver) {
            None => out.push(Diagnostic {
                path: path.to_owned(),
                line,
                check: CheckId::AtomicOrdering,
                message: format!(
                    "`{}` on undeclared atomic `{receiver}` — every atomic in `{crate_name}` \
                     needs a `tidy:atomic` discipline declaration",
                    tok.trim_start_matches('.').trim_end_matches('(')
                ),
            }),
            Some((d, _, _)) => {
                let allowed: Vec<&str> = match kind {
                    OpKind::Load => d.load.iter().map(String::as_str).collect(),
                    OpKind::Store => d.store.iter().map(String::as_str).collect(),
                    OpKind::Rmw => d.rmw.iter().map(String::as_str).collect(),
                    OpKind::RmwWithLoad => d
                        .rmw
                        .iter()
                        .chain(d.load.iter())
                        .map(String::as_str)
                        .collect(),
                };
                for (variant, name) in &orderings {
                    if allowed.is_empty() {
                        out.push(Diagnostic {
                            path: path.to_owned(),
                            line,
                            check: CheckId::AtomicOrdering,
                            message: format!(
                                "`{}` op on atomic `{receiver}` but its discipline (`{}`) \
                                 declares no {} orderings",
                                kind.label(),
                                d.text,
                                kind.label()
                            ),
                        });
                        break;
                    }
                    if !allowed.contains(&name.as_str()) {
                        let hint = if *variant == "SeqCst" {
                            " (SeqCst-by-default; pick the weakest ordering that is correct \
                             and declare it)"
                        } else {
                            ""
                        };
                        out.push(Diagnostic {
                            path: path.to_owned(),
                            line,
                            check: CheckId::AtomicOrdering,
                            message: format!(
                                "`Ordering::{variant}` {} on atomic `{receiver}` violates its \
                                 declared discipline `{}`{hint}",
                                kind.label(),
                                d.text
                            ),
                        });
                    }
                }
            }
        }
        i += tok.len();
    }
}

/// All `Ordering::X` variants in an argument span: `(variant, normalized)`.
fn ordering_tokens(args: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = args;
    while let Some(pos) = rest.find("Ordering::") {
        let after = &rest[pos + "Ordering::".len()..];
        let variant: String = after
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if let Some(name) = ordering_name(&variant) {
            out.push((variant.clone(), name.to_owned()));
        }
        rest = &after[variant.len()..];
    }
    out
}

/// Detects an atomic *field/static declaration* on a code line and
/// returns the declared name. Borrows (`&AtomicBool` parameters),
/// expressions (`AtomicU64::new(0)`), and `let` locals don't count.
fn atomic_field_decl(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    if trimmed.starts_with("let ") || trimmed.starts_with("use ") {
        return None;
    }
    let mut search = 0usize;
    while let Some(rel) = code[search..].find("Atomic") {
        let pos = search + rel;
        search = pos + "Atomic".len();
        let after = &code[pos + "Atomic".len()..];
        let Some(suffix) = ATOMIC_SUFFIXES.iter().find(|s| after.starts_with(**s)) else {
            continue;
        };
        let before = code[..pos].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue; // part of a longer identifier
        }
        let tail = &after[suffix.len()..];
        if tail.starts_with("::") {
            continue; // an expression like `AtomicU64::new(0)`
        }
        let head = &code[..pos];
        if head.contains("fn ") {
            continue; // a parameter in a signature
        }
        // The type must be introduced by `name:` with no borrow between.
        let colon = head.rfind(':')?;
        let colon = if colon > 0 && head.as_bytes()[colon - 1] == b':' {
            continue; // path `::`, not a field colon
        } else {
            colon
        };
        if head[colon..].contains('&') {
            continue; // `stop: &AtomicBool` borrow
        }
        let name: String = head[..colon]
            .trim_end()
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        if name.is_empty() || name.chars().all(|c| c.is_ascii_digit()) {
            continue;
        }
        return Some(name);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse(PathBuf::from("src/x.rs"), FileRole::Lib, src);
        check("test-crate", std::slice::from_ref(&file))
    }

    #[test]
    fn undeclared_atomic_field_fails() {
        let d = run("struct S {\n    head: AtomicU64,\n}\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("no declared ordering discipline"));
    }

    #[test]
    fn declared_field_and_matching_use_pass() {
        let d = run("struct S {\n\
             \x20   // tidy:atomic(head: acq-rel): ring claims pair with reads\n\
             \x20   head: AtomicU64,\n\
             }\n\
             impl S {\n\
             \x20   fn claim(&self) -> u64 {\n\
             \x20       self.head.fetch_add(1, Ordering::AcqRel)\n\
             \x20   }\n\
             \x20   fn read(&self) -> u64 {\n\
             \x20       self.head.load(Ordering::Acquire)\n\
             \x20   }\n\
             }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn ordering_violation_and_seqcst_hint() {
        let d = run(
            "// tidy:atomic(stop: acq-rel): shutdown flag publishes state\n\
             struct S {\n    stop: AtomicBool,\n}\n\
             impl S {\n\
             \x20   fn halt(&self) {\n        self.stop.store(true, Ordering::SeqCst);\n    }\n\
             }\n",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("violates its declared discipline"));
        assert!(d[0].message.contains("SeqCst-by-default"));
    }

    #[test]
    fn non_atomic_load_is_ignored_and_arrays_are_fields() {
        let d = run("// tidy:atomic(buckets: relaxed): histogram counters\n\
             struct H {\n    buckets: [AtomicU64; 16],\n}\n\
             impl H {\n\
             \x20   fn bump(&self, i: usize) {\n\
             \x20       self.buckets[i].fetch_add(1, Ordering::Relaxed);\n    }\n\
             \x20   fn model(&self, codec: &Codec) {\n        codec.load(\"path\");\n    }\n\
             }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn stale_declaration_is_flagged() {
        let d = run("// tidy:atomic(ghost: relaxed): nothing here\nfn f() {}\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("no atomic declaration"));
    }

    #[test]
    fn compare_exchange_checks_rmw_and_load_sets() {
        let d = run(
            "// tidy:atomic(state: load=acquire, rmw=acq-rel): CAS state machine\n\
             struct S {\n    state: AtomicU64,\n}\n\
             impl S {\n\
             \x20   fn advance(&self) {\n\
             \x20       let _ = self.state.compare_exchange(\n\
             \x20           0,\n            1,\n            Ordering::AcqRel,\n            Ordering::Acquire,\n\
             \x20       );\n    }\n\
             }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
