//! Guard-across-blocking-call analysis.
//!
//! The lexical `lock-span` check only sees a guard and a blocking call
//! in the *same* function. This pass generalizes it through the call
//! graph: a function is *blocking* if it directly performs a blocking
//! operation (channel send/recv, thread join, file I/O — see
//! `callgraph::BLOCKING_TOKENS`) or transitively calls one that does.
//! Holding any lock guard across a call into a blocking function is
//! then reported, with the chain of calls that reaches the blocking
//! site as the witness.
//!
//! Two deliberate exemptions keep the signal clean:
//!
//! - **receiver-is-guard**: `self.wal.lock().append_encoded(..)` exists
//!   *to* serialize that I/O — the guard and the blocking call are one
//!   design (group commit). Both the token-level hit and the call are
//!   marked exempt at scan time.
//! - **ambiguous dispatch**: a call that resolves to several candidates
//!   is only reported if *every* candidate blocks; trait dispatch where
//!   one impl blocks and another doesn't stays quiet.

use super::callgraph::{Model, Resolution};
use crate::checks::{CheckId, Diagnostic};
use crate::source::SourceFile;

const MAX_ROUNDS: usize = 64;
const MAX_CHAIN: usize = 16;

/// Per-function blocking summary: the token label that makes the
/// function blocking, plus the callee it was inherited through
/// (`None` = the function blocks directly).
#[derive(Debug, Clone, Copy)]
struct Blocks {
    what: &'static str,
    via: Option<usize>,
}

/// Runs the pass over one crate's model.
#[must_use]
pub fn check(crate_name: &str, files: &[SourceFile], model: &Model) -> Vec<Diagnostic> {
    let n = model.symbols.fns.len();
    let mut blocks: Vec<Option<Blocks>> = vec![None; n];
    for (idx, facts) in model.facts.iter().enumerate() {
        if let Some(hit) = facts.blocking.first() {
            blocks[idx] = Some(Blocks {
                what: hit.what,
                via: None,
            });
        }
    }
    // Fixpoint: inherit blocking through uniquely-resolved calls.
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for idx in 0..n {
            if blocks[idx].is_some() {
                continue;
            }
            for call in &model.facts[idx].calls {
                if call.resolution != Resolution::Resolved {
                    continue;
                }
                let callee = call.candidates[0];
                if callee == idx {
                    continue;
                }
                if let Some(b) = blocks[callee] {
                    blocks[idx] = Some(Blocks {
                        what: b.what,
                        via: Some(callee),
                    });
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for (idx, facts) in model.facts.iter().enumerate() {
        let def = &model.symbols.fns[idx];
        if def.is_test {
            continue;
        }
        let path = files[def.file].path.display().to_string();
        for hit in &facts.blocking {
            if hit.exempt || hit.held.is_empty() {
                continue;
            }
            out.push(Diagnostic {
                path: path.clone(),
                line: hit.line,
                check: CheckId::GuardBlocking,
                message: format!(
                    "blocking call `{}` in `{}` while holding {} — a guard held across \
                     blocking I/O stalls every contender on that lock",
                    hit.what,
                    def.name,
                    held_list(&hit.held),
                ),
            });
        }
        for call in &facts.calls {
            if call.held.is_empty() || call.on_guard || call.resolution == Resolution::Unknown {
                continue;
            }
            let candidate_blocks: Vec<Blocks> = call
                .candidates
                .iter()
                .filter(|&&c| c != idx)
                .filter_map(|&c| blocks[c])
                .collect();
            let considered = call.candidates.iter().filter(|&&c| c != idx).count();
            if considered == 0 || candidate_blocks.len() != considered {
                continue; // some candidate doesn't block — stay quiet
            }
            let first = call
                .candidates
                .iter()
                .copied()
                .find(|&c| c != idx)
                .unwrap_or(idx);
            let chain = blocking_chain(model, &blocks, first);
            let via = if chain.len() > 1 {
                format!(" (via {})", chain.join(" -> "))
            } else {
                String::new()
            };
            out.push(Diagnostic {
                path: path.clone(),
                line: call.line,
                check: CheckId::GuardBlocking,
                message: format!(
                    "`{}` calls `{}`, which blocks on `{}`{via}, while holding {} — \
                     release the guard before the call or move the blocking work out",
                    def.name,
                    call.name,
                    candidate_blocks[0].what,
                    held_list(&call.held),
                ),
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    out.dedup();
    let _ = crate_name;
    out
}

fn held_list(held: &[String]) -> String {
    let mut classes: Vec<String> = held.iter().map(|class| format!("`{class}`")).collect();
    classes.dedup();
    format!(
        "lock{} {}",
        if classes.len() == 1 { "" } else { "s" },
        classes.join(", ")
    )
}

/// Follows `via` links from `start` down to the function that blocks
/// directly, returning the function names along the way.
fn blocking_chain(model: &Model, blocks: &[Option<Blocks>], start: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut cur = start;
    for _ in 0..MAX_CHAIN {
        chain.push(model.symbols.fns[cur].name.clone());
        match blocks[cur].and_then(|b| b.via) {
            Some(next) if next != cur => cur = next,
            _ => break,
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileRole, SourceFile};
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse(PathBuf::from("src/x.rs"), FileRole::Lib, src);
        let files = vec![file];
        let model = Model::build(&files);
        check("test-crate", &files, &model)
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
        assert!(d[0].message.contains("channel send"), "{d:?}");
        assert!(d[0].message.contains("`state`"), "{d:?}");
    }

    #[test]
    fn transitive_blocking_through_call_graph_is_reported() {
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
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("persist"), "{d:?}");
        assert!(d[0].message.contains("fsync"), "{d:?}");
        assert!(d[0].message.contains("`index`"), "{d:?}");
    }

    #[test]
    fn receiver_is_guard_group_commit_is_exempt() {
        let d = run("impl Manager {\n\
             \x20   fn commit(&self, bytes: &[u8]) {\n\
             \x20       self.wal.lock().write_all(bytes).unwrap();\n\
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
    fn guard_dropped_before_call_is_fine() {
        let d = run("impl S {\n\
             \x20   fn persist(&self) {\n\
             \x20       self.file.sync_all().unwrap();\n\
             \x20   }\n\
             \x20   fn outer(&self) {\n\
             \x20       let g = self.index.lock().unwrap();\n\
             \x20       drop(g);\n\
             \x20       self.persist();\n\
             \x20   }\n\
             }\n");
        assert!(d.is_empty(), "{d:?}");
    }
}
