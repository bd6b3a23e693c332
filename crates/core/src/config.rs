//! Engine configuration: the training window, quality gates, model, QoD
//! specs, an optional training set given beforehand, telemetry and
//! durability. Retraining has no setting here; it is requested through
//! [`SmartFluxSession::request_training`](crate::SmartFluxSession::request_training).

use std::collections::HashMap;
use std::path::PathBuf;

use smartflux_durability::DurabilityOptions;

use crate::knowledge::KnowledgeBase;
use crate::predictor::ModelKind;
use crate::qod::QodSpec;

/// Configuration of a [`QodEngine`].
///
/// [`QodEngine`]: crate::QodEngine
///
/// # Example
///
/// ```
/// use smartflux::{EngineConfig, ModelKind};
///
/// let config = EngineConfig::new()
///     .with_training_waves(150)
///     .with_model(ModelKind::recall_optimised())
///     .with_quality_gates(0.75, 0.85)
///     .with_seed(42);
/// assert_eq!(config.training_waves, 150);
/// ```
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of waves the initial training phase lasts (user-configured
    /// per §3.2 "The duration of this phase is configured by users"). A
    /// model build that fails, or misses the quality gates, extends it by
    /// 50 waves, three times at most.
    pub training_waves: usize,
    /// Minimum test-phase accuracy required to enter the application phase.
    pub min_accuracy: f64,
    /// Minimum test-phase recall required to enter the application phase
    /// (high recall ⇒ few missed `maxε` violations).
    pub min_recall: f64,
    /// Classifier family and hyper-parameters.
    pub model: ModelKind,
    /// Seed for all randomised components.
    pub seed: u64,
    /// Default per-step QoD spec (metric functions, accumulation mode).
    pub default_spec: QodSpec,
    /// Per-step-name overrides of the QoD spec.
    pub per_step_specs: HashMap<String, QodSpec>,
    /// A training set "given beforehand" (§3.2): when present and matching
    /// the workflow's QoD steps, the engine trains on it immediately and
    /// starts in the application phase, skipping the synchronous training
    /// phase entirely. It is built with [`KnowledgeBase::append`] or taken
    /// from another session's
    /// [`knowledge_base`](crate::SmartFluxSession::knowledge_base).
    pub initial_knowledge: Option<KnowledgeBase>,
    /// Whether the unified telemetry subsystem (metrics registry, spans,
    /// wave-decision journal) is live. Disabled by default: every
    /// instrumentation site then costs a single relaxed atomic load.
    pub telemetry_enabled: bool,
    /// When set (and telemetry is enabled), the session attaches a JSONL
    /// sink writing one line per wave to this path: the wave's
    /// [`WaveDiagnostics`] row with the QoD steps' names and `maxε`
    /// (journal schema v2).
    ///
    /// [`WaveDiagnostics`]: smartflux_telemetry::WaveDiagnostics
    pub journal_path: Option<PathBuf>,
    /// When set, the session checkpoints store + engine state at the
    /// configured interval (and on demand, e.g. at an orderly shutdown,
    /// via [`SmartFluxSession::checkpoint`]) and can resume after
    /// a crash via [`SmartFluxSession::recover`], which re-executes the
    /// waves since the last checkpoint. No store mutation is logged, so
    /// the options' sync policy does not apply to a session. `None` (the
    /// default) disables durability entirely.
    ///
    /// [`SmartFluxSession::recover`]: crate::SmartFluxSession::recover
    /// [`SmartFluxSession::checkpoint`]: crate::SmartFluxSession::checkpoint
    pub durability: Option<DurabilityOptions>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            training_waves: 100,
            min_accuracy: 0.7,
            min_recall: 0.8,
            model: ModelKind::default(),
            seed: 0,
            default_spec: QodSpec::default(),
            per_step_specs: HashMap::new(),
            initial_knowledge: None,
            telemetry_enabled: false,
            journal_path: None,
            durability: None,
        }
    }
}

impl EngineConfig {
    /// A configuration with paper-like defaults (100 training waves, RF
    /// model, 70% accuracy / 80% recall gates).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the training-phase length in waves.
    ///
    /// # Panics
    ///
    /// Panics if `waves` is zero.
    #[must_use]
    pub fn with_training_waves(mut self, waves: usize) -> Self {
        assert!(waves > 0, "training needs at least one wave");
        self.training_waves = waves;
        self
    }

    /// Sets the test-phase quality gates.
    ///
    /// # Panics
    ///
    /// Panics if either gate is outside `[0, 1]`.
    #[must_use]
    pub fn with_quality_gates(mut self, min_accuracy: f64, min_recall: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&min_accuracy),
            "accuracy gate in [0,1]"
        );
        assert!((0.0..=1.0).contains(&min_recall), "recall gate in [0,1]");
        self.min_accuracy = min_accuracy;
        self.min_recall = min_recall;
        self
    }

    /// Sets the classifier family.
    #[must_use]
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the default QoD spec applied to every step without an override.
    #[must_use]
    pub fn with_default_spec(mut self, spec: QodSpec) -> Self {
        self.default_spec = spec;
        self
    }

    /// Overrides the QoD spec for one step (by step name).
    #[must_use]
    pub fn with_step_spec(mut self, step_name: impl Into<String>, spec: QodSpec) -> Self {
        self.per_step_specs.insert(step_name.into(), spec);
        self
    }

    /// Supplies a pre-collected training set; the engine skips the
    /// synchronous training phase (§3.2 "Unless a training set is given
    /// beforehand, a training phase starts taking place").
    #[must_use]
    pub fn with_initial_knowledge(mut self, kb: KnowledgeBase) -> Self {
        self.initial_knowledge = Some(kb);
        self
    }

    /// Turns the telemetry subsystem on or off (off by default).
    #[must_use]
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry_enabled = enabled;
        self
    }

    /// Enables telemetry and writes the wave-decision journal to `path`
    /// as JSON lines (one line per wave).
    #[must_use]
    pub fn with_journal_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.telemetry_enabled = true;
        self.journal_path = Some(path.into());
        self
    }

    /// Enables the durability subsystem: periodic checkpoints of store and
    /// engine state every `options.checkpoint_interval()` waves.
    #[must_use]
    pub fn with_durability(mut self, options: DurabilityOptions) -> Self {
        self.durability = Some(options);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qod::AccumulationMode;

    #[test]
    fn builder_chain() {
        let c = EngineConfig::new()
            .with_training_waves(200)
            .with_quality_gates(0.8, 0.9)
            .with_seed(5);
        assert_eq!(c.training_waves, 200);
        assert_eq!(c.min_accuracy, 0.8);
        assert_eq!(c.min_recall, 0.9);
        assert_eq!(c.seed, 5);
    }

    #[test]
    fn per_step_override() {
        let spec = QodSpec::new().with_mode(AccumulationMode::Accumulate);
        let c = EngineConfig::new().with_step_spec("zones", spec);
        assert_eq!(
            c.per_step_specs.get("zones").unwrap().mode,
            AccumulationMode::Accumulate
        );
        assert!(!c.per_step_specs.contains_key("other"));
    }

    #[test]
    #[should_panic(expected = "at least one wave")]
    fn zero_training_waves_panics() {
        let _ = EngineConfig::new().with_training_waves(0);
    }
}
