//! Causal span-tree reconstruction and invariant checks.
//!
//! [`SpanEvent`]s arrive from the ring as a flat, completion-ordered
//! stream. [`build_forest`] reassembles them into one tree per trace root
//! using the `trace_id`/`span_id`/`parent_id` identities, and reports the
//! anomalies the trace-tree invariants care about: spans whose parent
//! never completed into the ring (orphans) and traces with more than one
//! root.

use std::collections::{BTreeMap, BTreeSet};

use smartflux_telemetry::SpanEvent;

/// One reassembled span with its children, sorted by start time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The completed span.
    pub event: SpanEvent,
    /// Child spans, ordered by `start_ns`.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total number of spans in this subtree (including itself).
    #[must_use]
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }

    /// Depth-first pre-order walk over the subtree.
    pub fn walk(&self, visit: &mut impl FnMut(&SpanNode)) {
        visit(self);
        for child in &self.children {
            child.walk(visit);
        }
    }
}

/// One causal tree: a root span and everything it encloses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// The `trace_id` shared by every span in the tree.
    pub trace_id: u64,
    /// The root span (its `parent_id` is 0).
    pub root: SpanNode,
}

/// The result of reassembling a flat span stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceForest {
    /// One tree per root span, ordered by root `start_ns`. A well-formed
    /// capture has exactly one tree per trace id.
    pub trees: Vec<TraceTree>,
    /// Spans referencing a parent that is not in the stream (typically
    /// because the ring lapped it). They are excluded from the trees.
    pub orphans: usize,
    /// Spans with `trace_id == 0` (completed without a sink attached).
    pub untraced: usize,
}

impl TraceForest {
    /// Number of distinct trace ids across the trees.
    #[must_use]
    pub fn trace_count(&self) -> usize {
        let mut ids: Vec<u64> = self.trees.iter().map(|t| t.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// `true` when every trace id has exactly one root tree.
    #[must_use]
    pub fn single_rooted(&self) -> bool {
        self.trace_count() == self.trees.len()
    }
}

/// Reassembles a flat stream of completed spans into causal trees.
///
/// Spans are grouped by `trace_id`; within a group, `parent_id == 0`
/// marks a root and every other span hangs off its parent. Children are
/// ordered by `start_ns`. Spans whose parent is missing from the stream
/// are counted as orphans and dropped rather than misattached.
#[must_use]
pub fn build_forest(events: &[SpanEvent]) -> TraceForest {
    let mut forest = TraceForest::default();

    // Group events by trace, remembering each span's slot.
    let mut by_trace: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for event in events {
        if !event.is_traced() {
            forest.untraced += 1;
            continue;
        }
        by_trace.entry(event.trace_id).or_default().push(event);
    }

    for (trace_id, spans) in by_trace {
        // parent span id -> children events
        let mut children: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
        let present: BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
        let mut roots: Vec<&SpanEvent> = Vec::new();
        for span in &spans {
            if span.parent_id == 0 {
                roots.push(span);
            } else if present.contains(&span.parent_id) {
                children.entry(span.parent_id).or_default().push(span);
            } else {
                forest.orphans += 1;
            }
        }
        for root in roots {
            forest.trees.push(TraceTree {
                trace_id,
                root: assemble(root, &children),
            });
        }
    }

    forest
        .trees
        .sort_by_key(|t| (t.root.event.start_ns, t.root.event.span_id));
    forest
}

/// Builds the subtree under `event` from the parent→children index.
fn assemble(event: &SpanEvent, children: &BTreeMap<u64, Vec<&SpanEvent>>) -> SpanNode {
    let mut kids: Vec<SpanNode> = children
        .get(&event.span_id)
        .map(|list| list.iter().map(|c| assemble(c, children)).collect())
        .unwrap_or_default();
    kids.sort_by_key(|n| (n.event.start_ns, n.event.span_id));
    SpanNode {
        event: event.clone(),
        children: kids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ev(trace: u64, span: u64, parent: u64, start: u64) -> SpanEvent {
        SpanEvent {
            name: "t",
            tag: span,
            trace_id: trace,
            span_id: span,
            parent_id: parent,
            start_ns: start,
            elapsed: Duration::from_nanos(5),
        }
    }

    #[test]
    fn forest_reassembles_nested_spans() {
        // root(1) -> a(2) -> b(3); root -> c(4). Completion order is
        // innermost-first, as RAII drop order produces.
        let events = vec![
            ev(1, 3, 2, 30),
            ev(1, 2, 1, 20),
            ev(1, 4, 1, 40),
            ev(1, 1, 0, 10),
        ];
        let forest = build_forest(&events);
        assert_eq!(forest.trees.len(), 1);
        assert!(forest.single_rooted());
        assert_eq!(forest.orphans, 0);
        let root = &forest.trees[0].root;
        assert_eq!(root.event.span_id, 1);
        assert_eq!(root.size(), 4);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].event.span_id, 2);
        assert_eq!(root.children[0].children[0].event.span_id, 3);
        assert_eq!(root.children[1].event.span_id, 4);
    }

    #[test]
    fn separate_traces_become_separate_trees() {
        let events = vec![ev(1, 1, 0, 10), ev(2, 5, 0, 50), ev(2, 6, 5, 60)];
        let forest = build_forest(&events);
        assert_eq!(forest.trees.len(), 2);
        assert_eq!(forest.trace_count(), 2);
        assert!(forest.single_rooted());
        // Trees are ordered by root start time.
        assert_eq!(forest.trees[0].trace_id, 1);
        assert_eq!(forest.trees[1].trace_id, 2);
        assert_eq!(forest.trees[1].root.size(), 2);
    }

    #[test]
    fn missing_parents_count_as_orphans() {
        let events = vec![ev(1, 1, 0, 10), ev(1, 9, 8, 90)];
        let forest = build_forest(&events);
        assert_eq!(forest.orphans, 1);
        assert_eq!(forest.trees[0].root.size(), 1);
    }

    #[test]
    fn untraced_events_are_counted_not_treed() {
        let mut plain = ev(0, 0, 0, 0);
        plain.trace_id = 0;
        let forest = build_forest(&[plain]);
        assert_eq!(forest.untraced, 1);
        assert!(forest.trees.is_empty());
    }

    #[test]
    fn double_root_is_detectable() {
        let events = vec![ev(1, 1, 0, 10), ev(1, 2, 0, 20)];
        let forest = build_forest(&events);
        assert_eq!(forest.trees.len(), 2);
        assert_eq!(forest.trace_count(), 1);
        assert!(!forest.single_rooted());
    }

    #[test]
    fn walk_visits_every_span_once() {
        let events = vec![ev(1, 1, 0, 10), ev(1, 2, 1, 20), ev(1, 3, 2, 30)];
        let forest = build_forest(&events);
        let mut seen = Vec::new();
        forest.trees[0]
            .root
            .walk(&mut |n| seen.push(n.event.span_id));
        assert_eq!(seen, vec![1, 2, 3]);
    }
}
