//! How a workflow's error bound is split between its managed steps.
//!
//! The paper's contract is per step: a skipped step keeps its own output
//! within its `maxε`. A managed step (bounded, not always-run) whose output
//! no other managed step reads is an output of the workflow, so it gets the
//! full bound. A managed step with a managed descendant also feeds that
//! descendant, whose deviation compounds every upstream skip; it spends only
//! a fraction of its bound, leaving the rest to the steps downstream.

use smartflux::eval::{managed_sinks, managed_steps};
use smartflux_wms::Workflow;

/// The fraction of the bound a managed step with a managed descendant
/// spends: half the tolerance goes to upstream staleness, so a sink's
/// compounded deviation stays within its own bound.
pub const UPSTREAM_FRACTION: f64 = 0.5;

/// Applies the budget rule to a workflow whose managed steps all declare
/// the workflow's bound: every managed step with a managed descendant gets
/// `fraction ×` its declared bound, and every managed sink keeps it.
///
/// # Panics
///
/// Panics if a reduced bound falls outside `[0, 1]`
/// ([`Workflow::set_error_bound`]).
pub fn budget_upstream(workflow: &mut Workflow, fraction: f64) {
    let sinks = managed_sinks(workflow);
    for step in managed_steps(workflow)
        .into_iter()
        .filter(|s| !sinks.contains(s))
    {
        if let Some(bound) = workflow.info(step).error_bound() {
            workflow.set_error_bound(step, fraction * bound);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aqhi::AqhiFactory;
    use crate::fire::{self, FireFactory};
    use crate::lrb::LrbFactory;
    use crate::pagerank::PagerankFactory;
    use smartflux::eval::WorkloadFactory;
    use smartflux_datastore::DataStore;

    /// Asserts that `factory`'s managed steps are `upstream` and `sinks`,
    /// that each of `upstream` declares `fraction × bound` and has a managed
    /// descendant, and that each sink declares `bound`, has none, and
    /// includes the designated output.
    fn assert_budget(
        factory: &dyn WorkloadFactory,
        fraction: f64,
        upstream: &[&str],
        sinks: &[&str],
    ) {
        let bound = 0.05;
        let wf = factory.build(&DataStore::new());
        let g = wf.graph();
        let managed = managed_steps(&wf);
        let mut names: Vec<&str> = managed.iter().map(|&s| g.step_name(s)).collect();
        let mut want: Vec<&str> = upstream.iter().chain(sinks).copied().collect();
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want, "{}: managed steps", factory.name());
        for &step in &managed {
            let at = format!("{}: {}", factory.name(), g.step_name(step));
            let feeds_managed = managed.iter().any(|&d| g.precedes(step, d));
            assert_eq!(feeds_managed, upstream.contains(&g.step_name(step)), "{at}");
            let want = if feeds_managed {
                fraction * bound
            } else {
                bound
            };
            assert_eq!(wf.info(step).error_bound(), Some(want), "{at}");
        }
        assert!(sinks.contains(&factory.output_step()), "{}", factory.name());
    }

    /// Every managed step with a managed descendant declares `fraction ×
    /// bound`, and every other managed step `bound`, in each workload.
    #[test]
    fn only_steps_upstream_of_a_managed_step_spend_a_fraction() {
        let lrb_upstream = [
            "update-positions",
            "avg-speed",
            "car-count",
            "detect-accidents",
            "congestion",
        ];
        assert_budget(
            &LrbFactory::with_bound(0.05),
            UPSTREAM_FRACTION,
            &lrb_upstream,
            &["classify"],
        );
        assert_budget(
            &AqhiFactory::with_bound(0.05),
            UPSTREAM_FRACTION,
            &["concentration", "zones", "hotspots"],
            &["interp", "index"],
        );
        let mut wide = PagerankFactory::with_bound(0.05);
        wide.config.pages = 1000;
        wide.config.crawl_batch = 25;
        for pagerank in [PagerankFactory::with_bound(0.05), wide] {
            assert_budget(
                &pagerank,
                UPSTREAM_FRACTION,
                &["link-histogram", "pagerank"],
                &["word-counts", "ranking"],
            );
        }
        assert_budget(
            &FireFactory::with_bound(0.05),
            fire::UPSTREAM_FRACTION,
            &["calculate-areas", "assess-area-risk"],
            &["thermal-map", "overall-risk"],
        );
    }
}
