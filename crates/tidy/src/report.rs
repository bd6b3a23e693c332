//! Machine-readable `--json` report.
//!
//! Hand-rolled writer (no serde — the crate stays dependency-free)
//! producing a stable document for CI artifacts and `diagnose --json`:
//! which checks ran, per-`(check, crate)` live counts, and every live
//! finding. Consumers should key on `schema_version`.

use std::fmt::Write as _;

use crate::checks::{CheckId, Diagnostic};
use crate::ratchet::Counts;

/// Bump when the report shape changes incompatibly.
///
/// History: 1 = original layout; 2 = the `lock_order` array left with
/// the lock-order check.
pub const SCHEMA_VERSION: u32 = 2;

/// Escapes a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full report document.
#[must_use]
pub fn render(
    checks: &[CheckId],
    file_count: usize,
    crate_count: usize,
    duration_ms: u128,
    diagnostics: &[Diagnostic],
    counts: &Counts,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
    let check_list = checks
        .iter()
        .map(|c| format!("\"{}\"", c.as_str()))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(s, "  \"checks\": [{check_list}],");
    let _ = writeln!(s, "  \"files\": {file_count},");
    let _ = writeln!(s, "  \"crates\": {crate_count},");
    let _ = writeln!(s, "  \"duration_ms\": {duration_ms},");
    let _ = writeln!(s, "  \"finding_count\": {},", diagnostics.len());

    s.push_str("  \"counts\": {");
    let mut first_check = true;
    for (check, cells) in counts {
        if cells.is_empty() {
            continue;
        }
        if !first_check {
            s.push(',');
        }
        first_check = false;
        let _ = write!(s, "\n    \"{}\": {{", esc(check));
        let mut first_cell = true;
        for (krate, n) in cells {
            if !first_cell {
                s.push_str(", ");
            }
            first_cell = false;
            let _ = write!(s, "\"{}\": {n}", esc(krate));
        }
        s.push('}');
    }
    s.push_str("\n  },\n");

    s.push_str("  \"findings\": [");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"path\": \"{}\", \"line\": {}, \"check\": \"{}\", \"message\": \"{}\"}}",
            esc(&d.path),
            d.line,
            d.check.as_str(),
            esc(&d.message)
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_renders_valid_shape() {
        let diags = vec![Diagnostic {
            path: "src/a.rs".into(),
            line: 3,
            check: CheckId::Panic,
            message: "uses `unwrap()` \"here\"\n".into(),
        }];
        let mut counts = Counts::new();
        counts
            .entry("panic".into())
            .or_default()
            .insert("smartflux".into(), 1);
        let out = render(
            &[CheckId::Panic, CheckId::GuardBlocking],
            10,
            2,
            42,
            &diags,
            &counts,
        );
        assert!(out.contains("\"schema_version\": 2"));
        assert!(out.contains("\"checks\": [\"panic\", \"guard-blocking\"]"));
        assert!(out.contains("\\\"here\\\"\\n"));
        assert!(out.contains("\"panic\": {\"smartflux\": 1}"));
        // The findings array closes the document.
        assert!(!out.contains("lock_order"));
        assert!(out.ends_with("\"}\n  ]\n}\n"), "{out}");
        // Balanced braces/brackets as a cheap well-formedness probe.
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
    }
}
