//! Ablations of the reproduction-critical design choices recorded in
//! DESIGN.md §5: feature mode, accumulation mode, impact combiner, custom
//! impact functions, decision threshold, and training length.
//!
//! Each ablation flips exactly one decision against the calibrated default
//! and reports the savings/confidence pair it costs.

use smartflux::eval::EvalPolicy;
use smartflux::{AccumulationMode, EngineConfig, ImpactCombiner, MetricKind, ModelKind};

use crate::{heading, pct, write_csv, Workload};

/// One ablation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Which knob was flipped.
    pub variant: String,
    /// Executions relative to the synchronous model.
    pub normalized_executions: f64,
    /// Bound-compliance confidence.
    pub confidence: f64,
}

fn run_with(workload: Workload, config: EngineConfig, label: &str) -> Ablation {
    let bound = 0.05;
    let report = workload.evaluate_policy(
        bound,
        EvalPolicy::SmartFlux(Box::new(config)),
        workload.application_waves(),
    );
    Ablation {
        variant: label.to_owned(),
        normalized_executions: report.normalized_executions(),
        confidence: report.confidence.confidence(),
    }
}

/// Runs every ablation of one workload at the 5% bound.
#[must_use]
pub fn ablate(workload: Workload) -> Vec<Ablation> {
    let baseline = workload.engine_config();
    let mut out = vec![run_with(workload, baseline.clone(), "calibrated-default")];

    // 1. Accumulate mode instead of Cancel (no error cancellation).
    {
        let mut config = baseline.clone();
        let mut spec = config.default_spec.clone();
        spec.mode = AccumulationMode::Accumulate;
        config.default_spec = spec;
        out.push(run_with(workload, config, "accumulate-mode"));
    }

    // 2. Geometric-mean combiner everywhere (the paper's default) instead
    //    of the calibrated Max (only differs for AQHI's anchored steps).
    {
        let mut config = baseline.clone();
        let mut spec = config.default_spec.clone();
        spec.combiner = ImpactCombiner::GeometricMean;
        config.default_spec = spec;
        out.push(run_with(workload, config, "geometric-mean-combiner"));
    }

    // 3. Without the custom/step-specific impact functions.
    {
        let mut config = baseline.clone();
        config.per_step_specs.clear();
        out.push(run_with(workload, config, "no-custom-impact-fns"));
    }

    // 4. Eq. 2 relative impact instead of Eq. 1 magnitude.
    {
        let mut config = baseline.clone();
        let mut spec = config.default_spec.clone();
        spec.impact = MetricKind::RelativeImpact;
        config.default_spec = spec;
        config.per_step_specs.clear();
        out.push(run_with(workload, config, "eq2-relative-impact"));
    }

    let ModelKind::RandomForest {
        trees,
        max_depth,
        threshold,
    } = baseline.model;

    // 5. Balanced decision threshold (no recall optimisation).
    {
        let mut config = baseline.clone();
        config.model = ModelKind::RandomForest {
            trees,
            max_depth,
            threshold: 0.5,
        };
        out.push(run_with(workload, config, "balanced-threshold"));
    }

    // 6. Short training: a single pattern cycle instead of two.
    {
        let mut config = baseline.clone();
        config.training_waves = workload.training_waves();
        out.push(run_with(workload, config, "single-cycle-training"));
    }

    // 7. A one-tree forest instead of the full forest.
    {
        let mut config = baseline;
        config.model = ModelKind::RandomForest {
            trees: 1,
            max_depth,
            threshold,
        };
        out.push(run_with(workload, config, "single-tree-model"));
    }

    out
}

/// Runs the ablations for both workloads and writes the table.
pub fn run() {
    heading("Ablations — design choices at the 5% bound (DESIGN.md §5)");
    let mut csv = Vec::new();
    for wl in [Workload::Lrb, Workload::Aqhi] {
        println!("\n{}:", wl.id());
        println!(
            "  {:<26} {:>11} {:>11}",
            "variant", "executions", "confidence"
        );
        for a in ablate(wl) {
            println!(
                "  {:<26} {:>11} {:>11}",
                a.variant,
                pct(a.normalized_executions),
                pct(a.confidence)
            );
            csv.push(format!(
                "{},{},{:.4},{:.4}",
                wl.id(),
                a.variant,
                a.normalized_executions,
                a.confidence
            ));
        }
    }
    write_csv(
        "ablations.csv",
        "workload,variant,normalized_executions,confidence",
        &csv,
    );
}
