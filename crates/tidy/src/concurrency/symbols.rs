//! Per-crate symbol table: function definitions with body ranges.
//!
//! Built on the lexed *code* view only, so strings and comments never
//! confuse the scan. The extraction is a single character walk per file
//! tracking brace depth, `impl`/`trait` blocks (for method owner types),
//! and pending `fn` signatures (to find each body's opening brace even
//! when the signature spans lines).

use crate::source::{FileRole, SourceFile};

/// One function (or method) definition with a body.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare function name (no path, no generics).
    pub name: String,
    /// The `impl`/`trait` target type for methods, `None` for free fns.
    pub impl_type: Option<String>,
    /// Index into the file list this fn was found in.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub decl_line: usize,
    /// 1-based line containing the body's opening `{`.
    pub body_start: usize,
    /// 1-based line containing the body's closing `}`.
    pub body_end: usize,
    /// Whether the definition sits in test code (`#[cfg(test)]` block).
    pub is_test: bool,
}

/// All function definitions of one crate plus a line index.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every extracted definition.
    pub fns: Vec<FnDef>,
    /// Per file: the innermost fn owning each 0-based line, if any.
    owners: Vec<Vec<Option<usize>>>,
}

impl SymbolTable {
    /// Extracts every `fn` with a body from the crate's library files.
    /// Non-`Lib` files (tests, benches, bins, examples) are skipped: the
    /// concurrency passes only reason about library code.
    #[must_use]
    pub fn build(files: &[SourceFile]) -> Self {
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            if file.role == FileRole::Lib {
                extract_file(fi, file, &mut fns);
            }
        }
        // Innermost-wins owner map: assign wide fns first so nested fns
        // (assigned later, being narrower) overwrite their range.
        let mut owners: Vec<Vec<Option<usize>>> =
            files.iter().map(|f| vec![None; f.lines.len()]).collect();
        let mut order: Vec<usize> = (0..fns.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(fns[i].body_end - fns[i].decl_line));
        for idx in order {
            let f = &fns[idx];
            for line in f.decl_line..=f.body_end {
                if let Some(slot) = owners[f.file].get_mut(line - 1) {
                    *slot = Some(idx);
                }
            }
        }
        Self { fns, owners }
    }

    /// The innermost fn owning 1-based `line` of file index `file`.
    #[must_use]
    pub fn owner(&self, file: usize, line: usize) -> Option<usize> {
        self.owners.get(file)?.get(line - 1).copied().flatten()
    }
}

/// State for one in-progress `fn` signature.
struct PendingFn {
    name: String,
    decl_line: usize,
    paren: i32,
}

/// One open `impl`/`trait` block.
struct ImplScope {
    target: String,
    open_depth: usize,
}

/// One open fn body.
struct OpenFn {
    idx: usize,
    open_depth: usize,
}

fn extract_file(fi: usize, file: &SourceFile, fns: &mut Vec<FnDef>) {
    let mut depth = 0usize;
    let mut impl_stack: Vec<ImplScope> = Vec::new();
    let mut open_fns: Vec<OpenFn> = Vec::new();
    let mut pending_fn: Option<PendingFn> = None;
    let mut pending_impl: Option<String> = None; // accumulated decl text

    for (li, line) in file.lines.iter().enumerate() {
        let ln = li + 1;
        let bytes = line.code.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if pending_fn.is_none() && pending_impl.is_none() {
                if let Some((name, consumed)) = fn_decl_at(&line.code, i) {
                    pending_fn = Some(PendingFn {
                        name,
                        decl_line: ln,
                        paren: 0,
                    });
                    i += consumed;
                    continue;
                }
                if kw_at(&line.code, i, "impl") || kw_at(&line.code, i, "trait") {
                    pending_impl = Some(String::new());
                    // fall through so the keyword lands in the text
                }
            }
            if let Some(text) = &mut pending_impl {
                if c == '{' {
                    let target = impl_target(text).unwrap_or_default();
                    impl_stack.push(ImplScope {
                        target,
                        open_depth: depth,
                    });
                    pending_impl = None;
                    depth += 1;
                    i += 1;
                    continue;
                }
                if c == ';' {
                    // `impl Trait for Type;`-like forms don't exist, but a
                    // stray `trait Alias = ...;` would; just abandon.
                    pending_impl = None;
                    i += 1;
                    continue;
                }
                text.push(c);
                i += 1;
                continue;
            }
            if let Some(pf) = &mut pending_fn {
                match c {
                    '(' => pf.paren += 1,
                    ')' => pf.paren -= 1,
                    ';' if pf.paren == 0 => {
                        // Bodiless trait-method declaration: nothing to
                        // analyze, drop it.
                        pending_fn = None;
                        i += 1;
                        continue;
                    }
                    '{' if pf.paren == 0 => {
                        let Some(pf) = pending_fn.take() else {
                            continue;
                        };
                        let impl_type = impl_stack.last().map(|s| s.target.clone());
                        fns.push(FnDef {
                            name: pf.name,
                            impl_type,
                            file: fi,
                            decl_line: pf.decl_line,
                            body_start: ln,
                            body_end: ln, // fixed up at close
                            is_test: file.role != FileRole::Lib || file.is_test_line(pf.decl_line),
                        });
                        open_fns.push(OpenFn {
                            idx: fns.len() - 1,
                            open_depth: depth,
                        });
                        depth += 1;
                        i += 1;
                        continue;
                    }
                    _ => {}
                }
                i += 1;
                continue;
            }
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if open_fns.last().is_some_and(|f| f.open_depth == depth) {
                        if let Some(f) = open_fns.pop() {
                            fns[f.idx].body_end = ln;
                        }
                    }
                    if impl_stack.last().is_some_and(|s| s.open_depth == depth) {
                        impl_stack.pop();
                    }
                }
                _ => {}
            }
            i += 1;
        }
        if let Some(text) = &mut pending_impl {
            text.push(' ');
        }
    }
    // Unterminated bodies at EOF close on the last line.
    let last = file.lines.len().max(1);
    for f in open_fns {
        fns[f.idx].body_end = last;
    }
}

/// Matches keyword `kw` at byte offset `i` with identifier boundaries on
/// both sides (the following char must be whitespace or `<`).
fn kw_at(code: &str, i: usize, kw: &str) -> bool {
    if !code[i..].starts_with(kw) {
        return false;
    }
    let before = code[..i].chars().next_back();
    if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
        return false;
    }
    let after = code[i + kw.len()..].chars().next();
    after.is_some_and(|c| c.is_whitespace() || c == '<')
}

/// Parses `fn name` at offset `i`; returns the name and the bytes consumed
/// through the end of the name.
fn fn_decl_at(code: &str, i: usize) -> Option<(String, usize)> {
    if !kw_at(code, i, "fn") {
        return None;
    }
    let rest = &code[i + 2..];
    let trimmed = rest.trim_start();
    let ws = rest.len() - trimmed.len();
    if ws == 0 {
        return None; // `fn<` has no name here (fn-pointer type)
    }
    let name: String = trimmed
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    let after = trimmed[name.len()..].trim_start().chars().next();
    if !matches!(after, Some('(' | '<')) {
        return None;
    }
    let consumed = 2 + ws + name.len();
    Some((name, consumed))
}

/// Extracts the target type name from accumulated `impl`/`trait` decl text
/// (everything between the keyword's first char and the opening brace).
fn impl_target(text: &str) -> Option<String> {
    let text = text.trim();
    let rest = if let Some(r) = text.strip_prefix("impl") {
        r
    } else {
        // `trait Name ...` (possibly after visibility, which never reaches
        // here since the walk starts at the keyword).
        let r = text.strip_prefix("trait")?;
        let name: String = r
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        return if name.is_empty() { None } else { Some(name) };
    };
    // Skip the generic parameter list, tolerating `->` inside bounds.
    let rest = rest.trim_start();
    let rest = if let Some(stripped) = rest.strip_prefix('<') {
        let mut angle = 1i32;
        let bytes = stripped.as_bytes();
        let mut j = 0usize;
        while j < bytes.len() && angle > 0 {
            match bytes[j] as char {
                '-' if bytes.get(j + 1) == Some(&b'>') => j += 1, // `->`
                '<' => angle += 1,
                '>' => angle -= 1,
                _ => {}
            }
            j += 1;
        }
        &stripped[j..]
    } else {
        rest
    };
    // `impl A for B` targets B; `impl A` targets A. Cut at `where`.
    let rest = rest.split(" where ").next().unwrap_or(rest).trim();
    let target = match rest.find(" for ") {
        Some(pos) => &rest[pos + 5..],
        None => rest,
    };
    let target = target.trim();
    // Last path segment, generics stripped: `store::RowIter<'a>` → RowIter.
    let base = target.split('<').next().unwrap_or(target).trim();
    let last = base.rsplit("::").next().unwrap_or(base).trim();
    let name: String = last
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn table(src: &str) -> SymbolTable {
        let file = SourceFile::parse(PathBuf::from("src/x.rs"), FileRole::Lib, src);
        SymbolTable::build(std::slice::from_ref(&file))
    }

    #[test]
    fn extracts_free_and_method_fns() {
        let t = table(
            "fn free(a: u32) -> u32 {\n    a\n}\n\
             struct S;\n\
             impl S {\n    pub fn method(&self) {}\n}\n\
             impl std::fmt::Display for S {\n    fn fmt(&self) {}\n}\n",
        );
        assert_eq!(t.fns.len(), 3);
        assert_eq!(t.fns[0].name, "free");
        assert_eq!(t.fns[0].impl_type, None);
        assert_eq!((t.fns[0].decl_line, t.fns[0].body_end), (1, 3));
        assert_eq!(t.fns[1].name, "method");
        assert_eq!(t.fns[1].impl_type.as_deref(), Some("S"));
        assert_eq!(t.fns[2].name, "fmt");
        assert_eq!(t.fns[2].impl_type.as_deref(), Some("S"));
    }

    #[test]
    fn multiline_signatures_and_impl_return_position() {
        let t = table(
            "impl S {\n\
             \x20   fn long(\n        &self,\n        x: u32,\n    ) -> impl Iterator<Item = u32> + '_ {\n\
             \x20       std::iter::once(x)\n    }\n\
             }\n",
        );
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "long");
        assert_eq!(t.fns[0].body_start, 5);
        assert_eq!(t.fns[0].body_end, 7);
    }

    #[test]
    fn nested_fn_owns_its_lines() {
        let t = table("fn outer() {\n    fn inner() {\n        work();\n    }\n    inner();\n}\n");
        assert_eq!(t.fns.len(), 2);
        let outer = t.fns.iter().position(|f| f.name == "outer").unwrap();
        let inner = t.fns.iter().position(|f| f.name == "inner").unwrap();
        assert_eq!(t.owner(0, 3), Some(inner));
        assert_eq!(t.owner(0, 5), Some(outer));
    }

    #[test]
    fn trait_default_methods_attach_to_the_trait() {
        let t = table(
            "trait Step {\n    fn run(&self);\n    fn label(&self) -> &str {\n        \"step\"\n    }\n}\n",
        );
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "label");
        assert_eq!(t.fns[0].impl_type.as_deref(), Some("Step"));
    }
}
