//! Binding steps to implementations, containers and QoD annotations.

use std::fmt;
use std::sync::Arc;

use smartflux_datastore::ContainerRef;

use crate::graph::{StepId, WorkflowGraph};
use crate::retry::RetryPolicy;
use crate::step::Step;

/// Everything a scheduler or middleware needs to know about one step:
/// containers it reads and writes, whether it must always run, and its
/// declared error bound.
///
/// This is the Rust-typed equivalent of the paper's extended Oozie XML
/// schema, which attaches data containers and error bounds (values in
/// `[0, 1]`) to each `<action>` element.
#[derive(Clone)]
pub struct StepInfo {
    step: Option<Arc<dyn Step>>,
    inputs: Vec<ContainerRef>,
    outputs: Vec<ContainerRef>,
    always_run: bool,
    error_bound: Option<f64>,
    retry: RetryPolicy,
}

impl StepInfo {
    fn new() -> Self {
        Self {
            step: None,
            inputs: Vec::new(),
            outputs: Vec::new(),
            always_run: false,
            error_bound: None,
            retry: RetryPolicy::none(),
        }
    }

    /// The bound implementation, if any.
    #[must_use]
    pub fn implementation(&self) -> Option<&Arc<dyn Step>> {
        self.step.as_ref()
    }

    /// Containers this step reads (its QoD-monitored input).
    #[must_use]
    pub fn inputs(&self) -> &[ContainerRef] {
        &self.inputs
    }

    /// Containers this step writes.
    #[must_use]
    pub fn outputs(&self) -> &[ContainerRef] {
        &self.outputs
    }

    /// Whether this step runs on every wave regardless of policy (sources,
    /// and steps that "do not tolerate error" such as LRB's query answering
    /// or the fire-confirmation steps).
    #[must_use]
    pub fn always_run(&self) -> bool {
        self.always_run
    }

    /// The maximum tolerated output error (`maxε`), if the step tolerates
    /// any. `None` means the step was not given a QoD bound and is treated
    /// as always-run by adaptive policies.
    #[must_use]
    pub fn error_bound(&self) -> Option<f64> {
        self.error_bound
    }

    /// How the scheduler retries this step on failure. Defaults to
    /// [`RetryPolicy::none`] — one attempt, fail the wave on error.
    #[must_use]
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }
}

impl fmt::Debug for StepInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepInfo")
            .field("bound", &self.step.is_some())
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("always_run", &self.always_run)
            .field("error_bound", &self.error_bound)
            .field("retry", &self.retry)
            .finish()
    }
}

/// A workflow: a validated DAG plus per-step bindings.
///
/// Create with [`Workflow::new`], then call [`bind`](Workflow::bind) for each
/// step. The scheduler refuses to run a workflow with unbound steps.
pub struct Workflow {
    graph: WorkflowGraph,
    bindings: Vec<StepInfo>,
}

impl Workflow {
    /// Creates a workflow over `graph` with no bindings yet.
    #[must_use]
    pub fn new(graph: WorkflowGraph) -> Self {
        let bindings = (0..graph.len()).map(|_| StepInfo::new()).collect();
        Self { graph, bindings }
    }

    /// The underlying DAG.
    #[must_use]
    pub fn graph(&self) -> &WorkflowGraph {
        &self.graph
    }

    /// Binds an implementation to a step and returns a builder for its
    /// annotations.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this workflow's graph.
    pub fn bind(&mut self, id: StepId, step: impl Step + 'static) -> StepBindingBuilder<'_> {
        self.bindings[id.index()].step = Some(Arc::new(step));
        StepBindingBuilder {
            info: &mut self.bindings[id.index()],
        }
    }

    /// The binding information for a step.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this workflow's graph.
    #[must_use]
    pub fn info(&self, id: StepId) -> &StepInfo {
        &self.bindings[id.index()]
    }

    /// Re-sets the `maxε` of a step that already carries an error bound.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this workflow's graph, if the step
    /// carries no bound, or if `bound` is outside `[0, 1]` or not finite.
    pub fn set_error_bound(&mut self, id: StepId, bound: f64) {
        let info = &mut self.bindings[id.index()];
        assert!(
            info.error_bound.is_some(),
            "step {} carries no error bound to re-set",
            self.graph.step_name(id)
        );
        info.error_bound = Some(checked_bound(bound));
    }

    /// Ids of steps that carry an error bound (the QoD-managed steps).
    #[must_use]
    pub fn qod_steps(&self) -> Vec<StepId> {
        self.graph
            .step_ids()
            .filter(|id| self.bindings[id.index()].error_bound.is_some())
            .collect()
    }

    /// Returns the first unbound step, if any.
    #[must_use]
    pub fn first_unbound(&self) -> Option<StepId> {
        self.graph
            .step_ids()
            .find(|id| self.bindings[id.index()].step.is_none())
    }
}

impl fmt::Debug for Workflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workflow")
            .field("name", &self.graph.name())
            .field("steps", &self.graph.len())
            .finish()
    }
}

/// Fluent annotation builder returned by [`Workflow::bind`].
#[derive(Debug)]
pub struct StepBindingBuilder<'a> {
    info: &'a mut StepInfo,
}

impl StepBindingBuilder<'_> {
    /// Declares a container this step reads.
    pub fn reads(&mut self, container: ContainerRef) -> &mut Self {
        self.info.inputs.push(container);
        self
    }

    /// Declares a container this step writes.
    pub fn writes(&mut self, container: ContainerRef) -> &mut Self {
        self.info.outputs.push(container);
        self
    }

    /// Marks the step as always-run (sources and zero-error-tolerance steps).
    pub fn source(&mut self) -> &mut Self {
        self.info.always_run = true;
        self
    }

    /// Sets the maximum tolerated output error `maxε` for this step.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is outside `[0, 1]` or not finite — the paper's
    /// schema restricts bounds to values from 0 to 1.
    pub fn error_bound(&mut self, bound: f64) -> &mut Self {
        self.info.error_bound = Some(checked_bound(bound));
        self
    }

    /// Sets the retry policy the scheduler applies when this step fails.
    pub fn retry(&mut self, policy: RetryPolicy) -> &mut Self {
        self.info.retry = policy;
        self
    }
}

/// `bound` if it is a valid `maxε`: the paper's schema restricts bounds to
/// values from 0 to 1.
fn checked_bound(bound: f64) -> f64 {
    assert!(
        bound.is_finite() && (0.0..=1.0).contains(&bound),
        "error bound must be within [0, 1], got {bound}"
    );
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::step::{FnStep, StepContext, StepError};

    fn noop() -> impl Step + 'static {
        FnStep::new(|_: &StepContext| Ok::<(), StepError>(()))
    }

    fn two_step() -> (WorkflowGraph, StepId, StepId) {
        let mut b = GraphBuilder::new("w");
        let a = b.add_step("a");
        let c = b.add_step("c");
        b.add_edge(a, c).unwrap();
        (b.build().unwrap(), a, c)
    }

    #[test]
    fn bind_and_annotate() {
        let (g, a, c) = two_step();
        let mut w = Workflow::new(g);
        let input = ContainerRef::family("t", "in");
        let output = ContainerRef::family("t", "out");
        w.bind(a, noop()).source().writes(input.clone());
        w.bind(c, noop())
            .reads(input.clone())
            .writes(output.clone())
            .error_bound(0.1);

        assert!(w.info(a).always_run());
        assert_eq!(w.info(a).retry(), RetryPolicy::none());
        assert_eq!(w.info(c).inputs(), &[input]);
        assert_eq!(w.info(c).outputs(), &[output]);
        assert_eq!(w.info(c).error_bound(), Some(0.1));
        assert_eq!(w.qod_steps(), vec![c]);
        assert!(w.first_unbound().is_none());
    }

    #[test]
    fn unbound_step_is_reported() {
        let (g, a, c) = two_step();
        let mut w = Workflow::new(g);
        w.bind(a, noop());
        assert_eq!(w.first_unbound(), Some(c));
    }

    #[test]
    fn retry_policy_is_carried() {
        let (g, a, c) = two_step();
        let mut w = Workflow::new(g);
        let policy = RetryPolicy::attempts(3);
        w.bind(a, noop()).retry(policy);
        w.bind(c, noop());
        assert_eq!(w.info(a).retry(), policy);
        assert_eq!(w.info(c).retry(), RetryPolicy::none());
    }

    #[test]
    #[should_panic(expected = "error bound must be within")]
    fn out_of_range_bound_panics() {
        let (g, a, _) = two_step();
        let mut w = Workflow::new(g);
        w.bind(a, noop()).error_bound(1.5);
    }

    #[test]
    fn a_declared_bound_can_be_re_set() {
        let (g, a, c) = two_step();
        let mut w = Workflow::new(g);
        w.bind(a, noop()).source();
        w.bind(c, noop()).error_bound(0.1);
        w.set_error_bound(c, 0.05);
        assert_eq!(w.info(c).error_bound(), Some(0.05));
    }

    #[test]
    #[should_panic(expected = "carries no error bound")]
    fn re_setting_an_unbounded_step_panics() {
        let (g, a, _) = two_step();
        let mut w = Workflow::new(g);
        w.bind(a, noop()).source();
        w.set_error_bound(a, 0.1);
    }
}
