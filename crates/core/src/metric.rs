//! Input-impact and output-error metric functions (Eq. 1–4 of the paper).
//!
//! Both metric families share the paper's two-method API (§4.2): `update` is
//! called once per changed element with its current and previous values, and
//! `compute` finalises the metric once no more elements are expected,
//! receiving container-level statistics (total element count, previous state
//! sum) that some equations need.

use std::fmt;
use std::sync::Arc;

use smartflux_datastore::{SlotChange, SnapshotDiff, Value};

/// Container-level statistics supplied to [`MetricFn::compute`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricContext {
    /// Total number of elements in the data container (the paper's `n`).
    pub total_elements: usize,
    /// Sum of the previous state of all elements (`Σ x'_i` over all `n`,
    /// needed by Eq. 3's denominator).
    pub previous_state_sum: f64,
}

impl MetricContext {
    /// A context for a container with `total_elements` elements whose
    /// previous values sum to `previous_state_sum`.
    #[must_use]
    pub fn new(total_elements: usize, previous_state_sum: f64) -> Self {
        Self {
            total_elements,
            previous_state_sum,
        }
    }
}

/// A streaming metric over element changes in one data container.
///
/// Implement this trait to supply custom impact or error functions, exactly
/// as the paper's `update`/`compute` Java API allows. Built-in
/// implementations cover the paper's Equations 1–4.
pub trait MetricFn: Send {
    /// Clears all accumulated state.
    fn reset(&mut self);

    /// Accounts one changed element. `new` is the updated value (`None` if
    /// the element was deleted); `old` is its latest saved state (`None` if
    /// the element is a fresh insert — treated as a zero previous state for
    /// numeric values, per §2.1).
    fn update(&mut self, new: Option<&Value>, old: Option<&Value>);

    /// Finalises the metric for the container described by `ctx`.
    fn compute(&self, ctx: &MetricContext) -> f64;
}

/// How much one element changed: `|new − old|` over numeric values, the
/// value's own magnitude for a numeric insert or delete, and 1 for any other
/// change (a categorical value, or a numeric one replacing it).
pub(crate) fn change_magnitude(new: Option<&Value>, old: Option<&Value>) -> f64 {
    match (old, new) {
        (Some(o), Some(n)) => n.abs_diff(o),
        (None, Some(n)) => n.as_f64().map_or(1.0, f64::abs),
        (Some(o), None) => o.as_f64().map_or(1.0, f64::abs),
        (None, None) => 0.0,
    }
}

/// An element's numeric reading: its value, or 0 if it is absent or not
/// numeric.
pub(crate) fn numeric_or_zero(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_f64).unwrap_or(0.0)
}

/// Eq. 1: `ι = Σ|x_i − x'_i| × m` — absolute magnitude of changes scaled by
/// the number of modified elements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MagnitudeImpact {
    sum_abs_diff: f64,
    modified: usize,
}

impl MagnitudeImpact {
    /// Creates a zeroed accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricFn for MagnitudeImpact {
    fn reset(&mut self) {
        *self = Self::default();
    }

    fn update(&mut self, new: Option<&Value>, old: Option<&Value>) {
        let d = change_magnitude(new, old);
        if d > 0.0 {
            self.sum_abs_diff += d;
            self.modified += 1;
        }
    }

    fn compute(&self, _ctx: &MetricContext) -> f64 {
        self.sum_abs_diff * self.modified as f64
    }
}

/// Eq. 2: `ι = (Σ|x_i − x'_i| × m) / (Σ max(x_i, x'_i) × n)` — the relative
/// impact over the previous state, in `[0, 1]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelativeImpact {
    sum_abs_diff: f64,
    sum_max: f64,
    modified: usize,
}

impl RelativeImpact {
    /// Creates a zeroed accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricFn for RelativeImpact {
    fn reset(&mut self) {
        *self = Self::default();
    }

    fn update(&mut self, new: Option<&Value>, old: Option<&Value>) {
        let d = change_magnitude(new, old);
        if d > 0.0 {
            self.sum_abs_diff += d;
            self.sum_max += numeric_or_zero(new).abs().max(numeric_or_zero(old).abs());
            self.modified += 1;
        }
    }

    fn compute(&self, ctx: &MetricContext) -> f64 {
        if self.modified == 0 {
            return 0.0;
        }
        let den = self.sum_max * ctx.total_elements as f64;
        if den <= 0.0 {
            return 1.0; // all-categorical changes: saturate
        }
        ((self.sum_abs_diff * self.modified as f64) / den).clamp(0.0, 1.0)
    }
}

/// Eq. 3: `ε = (Σ|x_i − x'_i| × m) / (Σ x'_i × n)` — relative impact of new
/// updates on the latest state, in `[0, 1]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelativeError {
    sum_abs_diff: f64,
    modified: usize,
}

impl RelativeError {
    /// Creates a zeroed accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricFn for RelativeError {
    fn reset(&mut self) {
        *self = Self::default();
    }

    fn update(&mut self, new: Option<&Value>, old: Option<&Value>) {
        let d = change_magnitude(new, old);
        if d > 0.0 {
            self.sum_abs_diff += d;
            self.modified += 1;
        }
    }

    fn compute(&self, ctx: &MetricContext) -> f64 {
        if self.modified == 0 {
            return 0.0;
        }
        let den = ctx.previous_state_sum * ctx.total_elements as f64;
        if den <= 0.0 {
            return 1.0; // no previous state: any change saturates
        }
        ((self.sum_abs_diff * self.modified as f64) / den).clamp(0.0, 1.0)
    }
}

/// Eq. 4: `ε = √(Σ(x_i − x'_i)² / m)` — root-mean-square error over the
/// modified elements, attenuating small differences and penalising large
/// ones. Optionally divided by a caller-supplied scale so it can be compared
/// against `maxε` bounds in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RmseError {
    sum_sq_diff: f64,
    modified: usize,
    scale: f64,
}

impl Default for RmseError {
    fn default() -> Self {
        Self::new()
    }
}

impl RmseError {
    /// Unscaled RMSE (`scale = 1`).
    #[must_use]
    pub fn new() -> Self {
        Self {
            sum_sq_diff: 0.0,
            modified: 0,
            scale: 1.0,
        }
    }

    /// RMSE divided by `scale` (e.g. the value range of the container), so
    /// the result is comparable with a `[0, 1]` error bound.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    #[must_use]
    pub fn with_scale(scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        Self {
            sum_sq_diff: 0.0,
            modified: 0,
            scale,
        }
    }
}

impl MetricFn for RmseError {
    fn reset(&mut self) {
        self.sum_sq_diff = 0.0;
        self.modified = 0;
    }

    fn update(&mut self, new: Option<&Value>, old: Option<&Value>) {
        let d = change_magnitude(new, old);
        if d > 0.0 {
            self.sum_sq_diff += d * d;
            self.modified += 1;
        }
    }

    fn compute(&self, _ctx: &MetricContext) -> f64 {
        if self.modified == 0 {
            return 0.0;
        }
        (self.sum_sq_diff / self.modified as f64).sqrt() / self.scale
    }
}

/// A scale-free variant of Eq. 3: `ε = Σ|x_i − x'_i| / Σ x'_i` — the total
/// magnitude of missed changes relative to the total previous state, in
/// `[0, 1]`.
///
/// Eq. 3's literal `×m / ×n` factors make the error shrink quadratically
/// with container size, which in practice makes any bound trivially
/// satisfiable on large containers. This variant (equal to Eq. 3 when every
/// element changes, i.e. `m = n`) keeps the error comparable across
/// containers of different sizes and is the default error function used by
/// the engine and the evaluation harness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeanRelativeError {
    sum_abs_diff: f64,
    modified: usize,
}

impl MeanRelativeError {
    /// Creates a zeroed accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricFn for MeanRelativeError {
    fn reset(&mut self) {
        *self = Self::default();
    }

    fn update(&mut self, new: Option<&Value>, old: Option<&Value>) {
        let d = change_magnitude(new, old);
        if d > 0.0 {
            self.sum_abs_diff += d;
            self.modified += 1;
        }
    }

    fn compute(&self, ctx: &MetricContext) -> f64 {
        if self.modified == 0 {
            return 0.0;
        }
        if ctx.previous_state_sum <= 0.0 {
            return 1.0; // no previous state: any change saturates
        }
        (self.sum_abs_diff / ctx.previous_state_sum).clamp(0.0, 1.0)
    }
}

/// A factory for metric instances: selects among the built-in equations or a
/// user-supplied custom function (§4.2's extension point).
#[derive(Clone)]
pub enum MetricKind {
    /// Eq. 1 ([`MagnitudeImpact`]).
    Magnitude,
    /// Eq. 2 ([`RelativeImpact`]).
    RelativeImpact,
    /// Eq. 3 ([`RelativeError`]).
    RelativeError,
    /// Scale-free Eq. 3 variant ([`MeanRelativeError`]) — the default error
    /// function.
    MeanRelative,
    /// Eq. 4 ([`RmseError`]), divided by the given scale.
    Rmse {
        /// Normalisation scale (1.0 for the raw RMSE).
        scale: f64,
    },
    /// A custom metric supplied as a factory closure.
    Custom(Arc<dyn Fn() -> Box<dyn MetricFn> + Send + Sync>),
}

impl MetricKind {
    /// Instantiates a fresh accumulator of this kind.
    #[must_use]
    pub fn instantiate(&self) -> Box<dyn MetricFn> {
        match self {
            MetricKind::Magnitude => Box::new(MagnitudeImpact::new()),
            MetricKind::RelativeImpact => Box::new(RelativeImpact::new()),
            MetricKind::RelativeError => Box::new(RelativeError::new()),
            MetricKind::MeanRelative => Box::new(MeanRelativeError::new()),
            MetricKind::Rmse { scale } => Box::new(RmseError::with_scale(*scale)),
            MetricKind::Custom(f) => f(),
        }
    }

    /// Whether [`MetricFn::compute`] may read
    /// [`MetricContext::previous_state_sum`] — the one statistic that costs
    /// a pass over the whole container to produce. A custom metric is
    /// opaque, so it is assumed to.
    #[must_use]
    pub fn reads_previous_state_sum(&self) -> bool {
        matches!(
            self,
            MetricKind::RelativeError | MetricKind::MeanRelative | MetricKind::Custom(_)
        )
    }

    /// Evaluates this metric over a snapshot diff in one call.
    #[must_use]
    pub fn evaluate(&self, diff: &SnapshotDiff, ctx: &MetricContext) -> f64 {
        let mut m = self.instantiate();
        for change in diff.changes() {
            let SlotChange { old, new, .. } = change;
            m.update(new.as_ref(), old.as_ref());
        }
        m.compute(ctx)
    }
}

impl fmt::Debug for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricKind::Magnitude => f.write_str("Magnitude"),
            MetricKind::RelativeImpact => f.write_str("RelativeImpact"),
            MetricKind::RelativeError => f.write_str("RelativeError"),
            MetricKind::MeanRelative => f.write_str("MeanRelative"),
            MetricKind::Rmse { scale } => write!(f, "Rmse(scale={scale})"),
            MetricKind::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f64) -> Value {
        Value::from(x)
    }

    #[test]
    fn magnitude_matches_eq1_by_hand() {
        // Elements change by 2 and 3 → sum 5, m = 2 → ι = 10.
        let mut m = MagnitudeImpact::new();
        m.update(Some(&v(3.0)), Some(&v(1.0)));
        m.update(Some(&v(10.0)), Some(&v(7.0)));
        assert_eq!(m.compute(&MetricContext::new(10, 0.0)), 10.0);
    }

    #[test]
    fn magnitude_insert_counts_from_zero() {
        // New element with value 4: |4 − 0| = 4, m = 1 → ι = 4.
        let mut m = MagnitudeImpact::new();
        m.update(Some(&v(4.0)), None);
        assert_eq!(m.compute(&MetricContext::new(1, 0.0)), 4.0);
    }

    #[test]
    fn relative_impact_matches_eq2_by_hand() {
        // x: 1→3 (max 3), 7→10 (max 10); num = (2+3)*2 = 10; den = 13*n.
        let mut m = RelativeImpact::new();
        m.update(Some(&v(3.0)), Some(&v(1.0)));
        m.update(Some(&v(10.0)), Some(&v(7.0)));
        let ctx = MetricContext::new(4, 0.0);
        assert!((m.compute(&ctx) - 10.0 / 52.0).abs() < 1e-12);
    }

    #[test]
    fn relative_impact_bounds() {
        let mut m = RelativeImpact::new();
        assert_eq!(m.compute(&MetricContext::new(5, 0.0)), 0.0);
        // Full replacement: 0→10 for all elements → ratio clamps to 1.
        for _ in 0..3 {
            m.update(Some(&v(10.0)), Some(&v(0.0)));
        }
        let r = m.compute(&MetricContext::new(3, 0.0));
        assert!(r <= 1.0 && r > 0.0);
    }

    #[test]
    fn relative_error_matches_eq3_by_hand() {
        // Changes: |5−4|=1 on one element, m=1; previous total sum = 20, n = 5.
        let mut m = RelativeError::new();
        m.update(Some(&v(5.0)), Some(&v(4.0)));
        let ctx = MetricContext::new(5, 20.0);
        assert!((m.compute(&ctx) - 1.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn relative_error_saturates_without_previous_state() {
        let mut m = RelativeError::new();
        m.update(Some(&v(5.0)), None);
        assert_eq!(m.compute(&MetricContext::new(1, 0.0)), 1.0);
    }

    #[test]
    fn rmse_matches_eq4_by_hand() {
        // Diffs 3 and 4 → √((9+16)/2) = √12.5.
        let mut m = RmseError::new();
        m.update(Some(&v(3.0)), Some(&v(0.0)));
        m.update(Some(&v(4.0)), Some(&v(0.0)));
        let ctx = MetricContext::new(2, 0.0);
        assert!((m.compute(&ctx) - 12.5_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rmse_scaling() {
        let mut m = RmseError::with_scale(100.0);
        m.update(Some(&v(10.0)), Some(&v(0.0)));
        assert!((m.compute(&MetricContext::new(1, 0.0)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn unchanged_elements_do_not_count() {
        let mut m = MagnitudeImpact::new();
        m.update(Some(&v(5.0)), Some(&v(5.0)));
        assert_eq!(m.compute(&MetricContext::new(1, 5.0)), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = RelativeImpact::new();
        m.update(Some(&v(2.0)), Some(&v(1.0)));
        m.reset();
        assert_eq!(m.compute(&MetricContext::new(1, 1.0)), 0.0);
    }

    #[test]
    fn categorical_changes_register() {
        let mut m = MagnitudeImpact::new();
        m.update(Some(&Value::from("high")), Some(&Value::from("low")));
        assert_eq!(m.compute(&MetricContext::new(1, 0.0)), 1.0);
    }

    #[test]
    fn kind_instantiates_and_evaluates() {
        use smartflux_datastore::Snapshot;
        let kind = MetricKind::Magnitude;
        let empty_diff = Snapshot::new().diff(&Snapshot::new());
        assert_eq!(kind.evaluate(&empty_diff, &MetricContext::new(0, 0.0)), 0.0);
    }

    #[test]
    fn custom_metric_kind() {
        #[derive(Default)]
        struct CountChanges(usize);
        impl MetricFn for CountChanges {
            fn reset(&mut self) {
                self.0 = 0;
            }
            fn update(&mut self, _n: Option<&Value>, _o: Option<&Value>) {
                self.0 += 1;
            }
            fn compute(&self, _ctx: &MetricContext) -> f64 {
                self.0 as f64
            }
        }
        let kind = MetricKind::Custom(Arc::new(|| Box::new(CountChanges::default())));
        let mut m = kind.instantiate();
        m.update(Some(&v(1.0)), Some(&v(1.0)));
        m.update(Some(&v(2.0)), Some(&v(1.0)));
        assert_eq!(m.compute(&MetricContext::new(0, 0.0)), 2.0);
    }
}
