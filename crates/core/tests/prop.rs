//! Property-based tests for the SmartFlux core invariants.

use proptest::prelude::*;

use smartflux::{
    ConfidenceTracker, ErrorBound, ImpactCombiner, MagnitudeImpact, MeanRelativeError,
    MetricContext, MetricFn, RelativeError, RelativeImpact, RmseError,
};
use smartflux_datastore::Value;

fn pairs() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-1e5f64..1e5, -1e5f64..1e5), 0..40)
}

fn run_metric(metric: &mut dyn MetricFn, pairs: &[(f64, f64)], ctx: &MetricContext) -> f64 {
    for (new, old) in pairs {
        metric.update(Some(&Value::from(*new)), Some(&Value::from(*old)));
    }
    metric.compute(ctx)
}

proptest! {
    /// All metric functions are non-negative and zero on identical states.
    #[test]
    fn metrics_nonnegative_and_zero_on_identity(pairs in pairs()) {
        let ctx = MetricContext::new(pairs.len().max(1), 100.0);
        let metrics: Vec<Box<dyn MetricFn>> = vec![
            Box::new(MagnitudeImpact::new()),
            Box::new(RelativeImpact::new()),
            Box::new(RelativeError::new()),
            Box::new(MeanRelativeError::new()),
            Box::new(RmseError::new()),
        ];
        for mut m in metrics {
            let v = run_metric(m.as_mut(), &pairs, &ctx);
            prop_assert!(v >= 0.0, "negative metric {v}");
            m.reset();
            let identical: Vec<(f64, f64)> = pairs.iter().map(|(_, o)| (*o, *o)).collect();
            let z = run_metric(m.as_mut(), &identical, &ctx);
            prop_assert_eq!(z, 0.0);
        }
    }

    /// The ratio metrics (Eq. 2, Eq. 3, mean-relative) stay in [0, 1].
    #[test]
    fn ratio_metrics_bounded(pairs in pairs(), prev_sum in 0.0f64..1e6) {
        let ctx = MetricContext::new(pairs.len().max(1), prev_sum);
        for mut m in [
            Box::new(RelativeImpact::new()) as Box<dyn MetricFn>,
            Box::new(RelativeError::new()),
            Box::new(MeanRelativeError::new()),
        ] {
            let v = run_metric(m.as_mut(), &pairs, &ctx);
            prop_assert!((0.0..=1.0).contains(&v), "ratio {v} out of range");
        }
    }

    /// Magnitude impact is monotone under additional changes.
    #[test]
    fn magnitude_monotone(pairs in pairs(), extra_new in -1e5f64..1e5, extra_old in -1e5f64..1e5) {
        let ctx = MetricContext::new(pairs.len() + 1, 0.0);
        let mut a = MagnitudeImpact::new();
        let base = run_metric(&mut a, &pairs, &ctx);
        let mut b = MagnitudeImpact::new();
        let mut extended = pairs.clone();
        extended.push((extra_new, extra_old));
        let more = run_metric(&mut b, &extended, &ctx);
        prop_assert!(more >= base);
    }

    /// The geometric mean lies between min and max of positive inputs and
    /// is annulled by any zero.
    #[test]
    fn geometric_mean_bounds(values in prop::collection::vec(1e-6f64..1e6, 1..8)) {
        let g = ImpactCombiner::GeometricMean.combine(&values);
        let lo = values.iter().copied().fold(f64::MAX, f64::min);
        let hi = values.iter().copied().fold(f64::MIN, f64::max);
        prop_assert!(g >= lo * 0.999999 && g <= hi * 1.000001, "{lo} ≤ {g} ≤ {hi}");

        let mut with_zero = values;
        with_zero.push(0.0);
        prop_assert_eq!(ImpactCombiner::GeometricMean.combine(&with_zero), 0.0);
    }

    /// All combiners are permutation-invariant.
    #[test]
    fn combiners_permutation_invariant(values in prop::collection::vec(0.0f64..1e5, 2..8)) {
        let mut reversed = values.clone();
        reversed.reverse();
        for c in [
            ImpactCombiner::GeometricMean,
            ImpactCombiner::Mean,
            ImpactCombiner::Max,
            ImpactCombiner::Sum,
        ] {
            let a = c.combine(&values);
            let b = c.combine(&reversed);
            prop_assert!((a - b).abs() <= a.abs() * 1e-12 + 1e-12);
        }
    }

    /// Error bounds accept exactly [0, 1] and violation is strict.
    #[test]
    fn error_bound_contract(v in -2.0f64..3.0) {
        let result = ErrorBound::new(v);
        prop_assert_eq!(result.is_ok(), (0.0..=1.0).contains(&v));
        if let Ok(b) = result {
            prop_assert!(!b.is_violated_by(v));
            prop_assert!(b.is_violated_by(v + 1e-9));
        }
    }

    /// Confidence equals compliant/total and never leaves [0, 1] on the way.
    #[test]
    fn confidence_is_a_running_ratio(outcomes in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut t = ConfidenceTracker::new();
        let series: Vec<f64> = outcomes.iter().map(|&ok| t.record(ok)).collect();
        let compliant = outcomes.iter().filter(|&&b| b).count() as f64;
        prop_assert!((t.confidence() - compliant / outcomes.len() as f64).abs() < 1e-12);
        prop_assert!(series.iter().all(|c| (0.0..=1.0).contains(c)));
        prop_assert_eq!(t.waves() as usize, outcomes.len());
    }

    /// RMSE with a scale divides the unscaled value exactly.
    #[test]
    fn rmse_scaling_is_linear(pairs in pairs(), scale in 0.1f64..1e4) {
        let ctx = MetricContext::new(pairs.len().max(1), 0.0);
        let mut plain = RmseError::new();
        let mut scaled = RmseError::with_scale(scale);
        let p = run_metric(&mut plain, &pairs, &ctx);
        let s = run_metric(&mut scaled, &pairs, &ctx);
        prop_assert!((s * scale - p).abs() < p.abs() * 1e-9 + 1e-9);
    }
}
