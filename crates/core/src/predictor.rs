//! The Predictor component: multi-label classification of execution
//! configurations.

use std::fmt;
use std::time::{Duration, Instant};

use smartflux_ml::crossval::{build_forests, BuiltForest, ForestBuild};
use smartflux_ml::metrics::ConfusionMatrix;
use smartflux_ml::{Classifier, MlError, MultiLabelDataset, RandomForest};
use smartflux_telemetry::{names, Telemetry};

use crate::error::CoreError;
use crate::knowledge::KnowledgeBase;

/// The Random Forest the predictor builds per label.
///
/// The paper compares six algorithms once (§3.2) and runs SmartFlux on
/// Random Forest; the others live with that comparison in the bench
/// harness. An enum of one variant, so configurations name it as
/// `ModelKind::RandomForest { .. }`.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelKind {
    /// Random Forest. `threshold < 0.5` optimises for recall.
    RandomForest {
        /// Number of trees ("maximum number of trees to be generated").
        trees: usize,
        /// Maximum tree depth ("maximum depth of the trees").
        max_depth: usize,
        /// Decision threshold; lower favours recall over precision.
        threshold: f64,
    },
}

impl Default for ModelKind {
    fn default() -> Self {
        ModelKind::RandomForest {
            trees: 60,
            max_depth: 12,
            threshold: 0.5,
        }
    }
}

impl ModelKind {
    /// The paper's recall-optimised Random Forest configuration, used for
    /// the LRB workload where `maxε` violations are costlier than wasted
    /// executions.
    #[must_use]
    pub fn recall_optimised() -> Self {
        ModelKind::RandomForest {
            trees: 80,
            max_depth: 14,
            threshold: 0.3,
        }
    }

    /// Refuses the parameters [`build`](Self::build) would panic on: no
    /// trees, zero depth, or a threshold outside `(0, 1)`.
    pub(crate) fn validate(&self) -> Result<(), MlError> {
        let ModelKind::RandomForest {
            trees,
            max_depth,
            threshold,
        } = *self;
        let problem = if trees == 0 {
            "a forest needs at least one tree".to_owned()
        } else if max_depth == 0 {
            "max depth must be positive".to_owned()
        } else if threshold.is_nan() || threshold <= 0.0 || threshold >= 1.0 {
            format!("threshold {threshold} is outside (0, 1)")
        } else {
            return Ok(());
        };
        Err(MlError::InvalidParameter(problem))
    }

    /// An untrained forest of this kind, seeded with `seed`.
    fn build(&self, seed: u64) -> RandomForest {
        let ModelKind::RandomForest {
            trees,
            max_depth,
            threshold,
        } = *self;
        RandomForest::new(trees)
            .with_max_depth(max_depth)
            .with_threshold(threshold)
            .with_seed(seed)
    }
}

/// The fewest knowledge-base rows a model is built from; training on a
/// smaller log is refused and the engine extends its training phase.
pub(crate) const MIN_TRAINING_ROWS: usize = 4;

/// Test-phase quality of a trained predictor (§3.2 "Test Phase"): each
/// label's forest judged by its out-of-bag votes, the confusion counts
/// pooled across labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorQuality {
    /// Proportion of instances correctly classified.
    pub accuracy: f64,
    /// Of the predicted executions, how many were truly needed.
    pub precision: f64,
    /// Of the truly needed executions, how many were predicted.
    pub recall: f64,
}

/// The Predictor: one Random Forest per QoD step, with test-phase quality
/// assessment.
///
/// Queries take the whole impact vector, but label `j`'s classifier sees
/// only step `j`'s own impact. Under adaptive execution a step's neighbours
/// stop producing output whenever they are skipped, so their impacts
/// collapse to zero — a region the synchronous training run never visits.
/// Conditioning each label only on its own impact keeps the training and
/// application feature distributions aligned and avoids the
/// all-steps-deadlocked failure mode (DESIGN.md §5.4).
///
/// # Example
///
/// ```
/// use smartflux::{KnowledgeBase, Predictor, ModelKind};
///
/// let mut kb = KnowledgeBase::new(vec!["s".into()]);
/// for w in 0..40 {
///     // The step must execute when its accumulated impact is large.
///     kb.append(w, vec![(w % 8) as f64], vec![w % 8 >= 5]).unwrap();
/// }
/// let mut p = Predictor::new(ModelKind::default(), 7);
/// let quality = p.train(&kb).unwrap();
/// assert!(quality.accuracy > 0.9);
/// assert_eq!(p.predict(&[7.0]).unwrap(), vec![true]);
/// assert_eq!(p.predict(&[0.0]).unwrap(), vec![false]);
/// ```
pub struct Predictor {
    kind: ModelKind,
    seed: u64,
    models: Vec<RandomForest>,
    quality: Option<PredictorQuality>,
    last_build_time: Option<Duration>,
    /// Inert (disabled) unless the owning engine attaches a handle; feeds
    /// the `ml.predict_ns` / `ml.fit_ns` / `ml.batch_size` instruments.
    telemetry: Telemetry,
}

impl Predictor {
    /// Creates an untrained predictor of `kind` forests.
    #[must_use]
    pub fn new(kind: ModelKind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            models: Vec::new(),
            quality: None,
            last_build_time: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; the predictor then feeds the
    /// ML-kernel instruments (`ml.predict_ns`, `ml.fit_ns`,
    /// `ml.batch_size`).
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Label `j`'s features: step `j`'s impact, borrowed out of the shared
    /// vector — the per-wave query path makes one per label, so allocating
    /// here would put a `Vec` on the hot path of every decision.
    fn project(j: usize, impacts: &[f64]) -> &[f64] {
        &impacts[j..=j]
    }

    /// Rejects queries an untrained or wrong-width model cannot answer:
    /// every query carries the whole `n_labels`-wide impact vector.
    fn check_query(&self, impacts: &[f64]) -> Result<(), CoreError> {
        if self.models.is_empty() {
            return Err(CoreError::NotTrained);
        }
        if impacts.len() != self.models.len() {
            return Err(CoreError::ShapeMismatch {
                expected: self.models.len(),
                found: impacts.len(),
            });
        }
        Ok(())
    }

    /// Records how many labels the latest prediction pass answered (1
    /// for per-step queries, `n_labels` for whole-vector passes). A
    /// gauge rather than a histogram: histograms are exported in time
    /// units by the observability plane.
    fn record_batch_size(&self, n: usize) {
        if self.telemetry.is_enabled() {
            self.telemetry.gauge(names::ML_BATCH_SIZE).set(n as i64);
        }
    }

    /// Builds the single-label training view for label `j`: step `j`'s
    /// impact against step `j`'s label.
    fn label_view(data: &MultiLabelDataset, j: usize) -> Result<smartflux_ml::Dataset, CoreError> {
        let x: Vec<Vec<f64>> = data.x().iter().map(|r| vec![r[j]]).collect();
        let y = data.label_column(j)?;
        Ok(smartflux_ml::Dataset::new(x, y)?)
    }

    /// Returns `true` once a model has been trained.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        !self.models.is_empty()
    }

    /// The model kind in use.
    #[must_use]
    pub fn kind(&self) -> &ModelKind {
        &self.kind
    }

    /// Label `j`'s fitted forest — what node-for-node equality oracles
    /// compare the [`arena`](RandomForest::arena) of. `None` for a label
    /// the predictor has no forest for.
    #[must_use]
    pub fn forest(&self, j: usize) -> Option<&RandomForest> {
        self.models.get(j)
    }

    /// Quality measured at the latest training, if any.
    #[must_use]
    pub fn quality(&self) -> Option<PredictorQuality> {
        self.quality
    }

    /// Wall-clock time the latest model build took (§5.3 reports this as
    /// the dominant — yet sub-second — overhead).
    #[must_use]
    pub fn last_build_time(&self) -> Option<Duration> {
        self.last_build_time
    }

    /// Trains one model per QoD step from the knowledge base and runs the
    /// test phase: each forest's out-of-bag votes, pooled across labels.
    /// One forest per label, the labels fitted side by side.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientTraining`] for logs of fewer than
    /// [`MIN_TRAINING_ROWS`] examples, [`CoreError::EmptyTestPhase`] when
    /// no forest left any row out of bag (nothing was tested, so no quality
    /// is known), and propagates training failures. The predictor is left
    /// as it was on every error.
    pub fn train(&mut self, kb: &KnowledgeBase) -> Result<PredictorQuality, CoreError> {
        // tidy:allow(time): measures model build latency (Table 2), which is
        // reported, never replayed
        let start = Instant::now();
        let built = self.build(&Self::label_views(kb)?, true)?;
        let mut pooled = ConfusionMatrix::default();
        let mut models = Vec::with_capacity(built.len());
        for label in built {
            if let Some(out_of_bag) = label.out_of_bag {
                pooled.merge(&out_of_bag);
            }
            models.push(label.forest);
        }
        if pooled.total() == 0 {
            return Err(CoreError::EmptyTestPhase { rows: kb.len() });
        }
        let quality = PredictorQuality {
            accuracy: pooled.accuracy(),
            precision: pooled.precision(),
            recall: pooled.recall(),
        };
        self.models = models;
        self.quality = Some(quality);
        self.last_build_time = Some(start.elapsed());
        Ok(quality)
    }

    /// The forests [`train`](Self::train) installs for `kb`, without its
    /// test phase. They are a function of `kb`, the model kind and the
    /// seed alone — fitting is seeded and bit-identical at every worker
    /// count — which is what lets a checkpoint keep the knowledge base
    /// and recompute the models from it.
    ///
    /// # Errors
    ///
    /// As [`train`](Self::train).
    pub(crate) fn refit(&self, kb: &KnowledgeBase) -> Result<Vec<RandomForest>, CoreError> {
        let built = self.build(&Self::label_views(kb)?, false)?;
        Ok(built.into_iter().map(|label| label.forest).collect())
    }

    /// Installs what [`refit`](Self::refit) built — no models leave the
    /// predictor untrained — with the quality the test phase measured when
    /// the models were first trained. The build-time measurement does not
    /// survive recovery (it is reporting-only).
    pub(crate) fn restore(&mut self, models: Vec<RandomForest>, quality: Option<PredictorQuality>) {
        self.models = models;
        self.quality = quality;
        self.last_build_time = None;
    }

    /// One single-label training view of `kb` per step; a log of fewer
    /// than [`MIN_TRAINING_ROWS`] examples is refused.
    fn label_views(kb: &KnowledgeBase) -> Result<Vec<smartflux_ml::Dataset>, CoreError> {
        let data = kb.to_dataset()?;
        if data.len() < MIN_TRAINING_ROWS {
            return Err(CoreError::InsufficientTraining {
                have: data.len(),
                need: MIN_TRAINING_ROWS,
            });
        }
        (0..data.n_labels())
            .map(|j| Self::label_view(&data, j))
            .collect()
    }

    /// Fits one forest per label view, label `j`'s seeded with `seed + j`,
    /// collecting its out-of-bag test phase when `test_phase` is set — one
    /// batch, one job per label.
    fn build(
        &self,
        views: &[smartflux_ml::Dataset],
        test_phase: bool,
    ) -> Result<Vec<BuiltForest>, CoreError> {
        // `ml.fit_ns` spans the batch, in `train` and in `refit` alike. The
        // engine-level `engine.train` span adds the phase bookkeeping
        // around it.
        let _fit_span = self
            .telemetry
            .span(names::ML_FIT_LATENCY, views.len() as u64);
        let builds: Vec<ForestBuild<'_>> = views
            .iter()
            .enumerate()
            .map(|(j, view)| {
                ForestBuild::new(self.kind.build(self.seed.wrapping_add(j as u64)), view)
                    .with_out_of_bag(test_phase)
            })
            .collect();
        Ok(build_forests(&builds)?)
    }

    /// Predicts which steps must execute for the given impact vector
    /// (`true` = the step's error bound would otherwise be exceeded).
    ///
    /// Equivalent to [`predict_all`](Self::predict_all), kept under the
    /// paper's name for the `h(X) = Y` query of §3.1.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before training and
    /// [`CoreError::ShapeMismatch`] on a wrong-width feature vector.
    pub fn predict(&self, impacts: &[f64]) -> Result<Vec<bool>, CoreError> {
        self.predict_all(impacts)
    }

    /// Walks every label model over one impact vector in a single pass:
    /// the per-wave query shape. Each label projects its feature slice
    /// out of the shared vector without copying, so the whole pass is
    /// allocation-free apart from the result.
    ///
    /// Queries go through the checked `try_predict` path — a present but
    /// unfitted model is rejected like an absent one, never answered
    /// from the 0.5 prior.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before training (or when any
    /// per-label model is unfitted) and [`CoreError::ShapeMismatch`] on
    /// a wrong-width impact vector.
    pub fn predict_all(&self, impacts: &[f64]) -> Result<Vec<bool>, CoreError> {
        self.check_query(impacts)?;
        let _span = self
            .telemetry
            .span(names::ML_PREDICT_LATENCY, self.models.len() as u64);
        let mut decisions = Vec::with_capacity(self.models.len());
        for (j, m) in self.models.iter().enumerate() {
            decisions.push(
                m.try_predict(Self::project(j, impacts))
                    .map_err(|_| CoreError::NotTrained)?,
            );
        }
        self.record_batch_size(decisions.len());
        Ok(decisions)
    }

    /// Predicts the execution decision for a single step (label index `j`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before training (or when the
    /// model is unfitted) and [`CoreError::ShapeMismatch`] for an
    /// unknown label index or wrong-width impact vector.
    pub fn predict_step(&self, j: usize, impacts: &[f64]) -> Result<bool, CoreError> {
        self.check_query(impacts)?;
        let model = self.models.get(j).ok_or(CoreError::ShapeMismatch {
            expected: self.models.len(),
            found: j,
        })?;
        let _span = self.telemetry.span(names::ML_PREDICT_LATENCY, j as u64);
        let decision = model
            .try_predict(Self::project(j, impacts))
            .map_err(|_| CoreError::NotTrained)?;
        self.record_batch_size(1);
        Ok(decision)
    }

    /// Per-label execution probabilities, in the same single pass as
    /// [`predict_all`](Self::predict_all).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before training (or when any
    /// per-label model is unfitted) and [`CoreError::ShapeMismatch`] on
    /// a wrong-width impact vector.
    pub fn predict_proba(&self, impacts: &[f64]) -> Result<Vec<f64>, CoreError> {
        self.check_query(impacts)?;
        let _span = self
            .telemetry
            .span(names::ML_PREDICT_LATENCY, self.models.len() as u64);
        let mut probabilities = Vec::with_capacity(self.models.len());
        for (j, m) in self.models.iter().enumerate() {
            probabilities.push(
                m.try_predict_proba(Self::project(j, impacts))
                    .map_err(|_| CoreError::NotTrained)?,
            );
        }
        self.record_batch_size(probabilities.len());
        Ok(probabilities)
    }
}

impl fmt::Debug for Predictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Predictor")
            .field("kind", &self.kind)
            .field("trained", &self.is_trained())
            .field("quality", &self.quality)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb_two_steps() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new(vec!["a".into(), "b".into()]);
        for w in 0..60 {
            let ia = (w % 10) as f64;
            let ib = (w % 6) as f64;
            kb.append(w, vec![ia, ib], vec![ia >= 6.0, ib >= 4.0])
                .unwrap();
        }
        kb
    }

    #[test]
    fn trains_and_predicts_per_step() {
        let mut p = Predictor::new(ModelKind::default(), 3);
        let q = p.train(&kb_two_steps()).unwrap();
        assert!(q.accuracy > 0.9, "accuracy {}", q.accuracy);
        assert_eq!(p.predict(&[9.0, 0.0]).unwrap(), vec![true, false]);
        assert_eq!(p.predict(&[0.0, 5.0]).unwrap(), vec![false, true]);
        assert!(p.predict_step(0, &[9.0, 0.0]).unwrap());
        assert!(p.last_build_time().is_some());
    }

    /// The test phase's reference for label view `view` of a `kind` forest
    /// seeded `seed`, computed apart from the build: each tree's bootstrap
    /// re-drawn from the forest seed (`n` draws per tree, in tree order),
    /// the tree re-grown alone on that materialised sample with its own
    /// derived seed, every row the sample never names scored by that tree,
    /// and each row's mean vote cut at the kind's threshold.
    fn out_of_bag_reference(
        kind: &ModelKind,
        seed: u64,
        view: &smartflux_ml::Dataset,
    ) -> ConfusionMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use smartflux_ml::DecisionTree;

        let ModelKind::RandomForest {
            trees,
            max_depth,
            threshold,
        } = *kind;
        let n = view.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut votes = vec![(0.0, 0_u32); n];
        for t in 0..trees {
            let sample: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
            // One feature per label view: `√1` candidates per split.
            let mut tree = DecisionTree::new()
                .with_max_depth(max_depth)
                .with_max_features(1)
                .with_seed(seed.wrapping_add(t as u64).wrapping_mul(0x9E37_79B9));
            tree.fit(&view.subset(&sample)).unwrap();
            for (i, (sum, count)) in votes.iter_mut().enumerate() {
                if !sample.contains(&i) {
                    *sum += tree.predict_proba(view.features(i));
                    *count += 1;
                }
            }
        }
        let mut confusion = ConfusionMatrix::default();
        for (i, &(sum, count)) in votes.iter().enumerate() {
            if count > 0 {
                let predicted = sum / f64::from(count) >= threshold;
                confusion.merge(&ConfusionMatrix::from_pairs(&[view.label(i)], &[predicted]));
            }
        }
        confusion
    }

    #[test]
    fn train_installs_the_lone_fits_and_their_pooled_test_phase() {
        let kb = kb_two_steps();
        let kind = ModelKind::default();
        let mut p = Predictor::new(kind.clone(), 3);
        let quality = p.train(&kb).unwrap();
        let data = kb.to_dataset().unwrap();
        let mut pooled = ConfusionMatrix::default();
        for j in 0..2 {
            let view = Predictor::label_view(&data, j).unwrap();
            let seed = 3 + j as u64;
            let mut alone = kind.build(seed);
            alone.fit(&view).unwrap();
            assert_eq!(p.forest(j).unwrap().arena(), alone.arena(), "label {j}");
            pooled.merge(&out_of_bag_reference(&kind, seed, &view));
        }
        assert!(pooled.total() > 0);
        assert_eq!(quality.accuracy, pooled.accuracy());
        assert_eq!(quality.precision, pooled.precision());
        assert_eq!(quality.recall, pooled.recall());
        let refit = p.refit(&kb).unwrap();
        assert_eq!(refit.len(), 2);
        for (j, forest) in refit.iter().enumerate() {
            assert_eq!(forest.arena(), p.forest(j).unwrap().arena(), "refit {j}");
        }
    }

    #[test]
    fn a_test_phase_that_scored_nothing_is_refused() {
        // One tree on the smallest log a build accepts: at seed 21 its
        // bootstrap draws all four rows, so no row is out of bag and the
        // empty confusion matrix would read as accuracy and recall 1.0.
        let mut kb = KnowledgeBase::new(vec!["a".into()]);
        for w in 0..MIN_TRAINING_ROWS as u64 {
            kb.append(w, vec![w as f64], vec![w % 2 == 0]).unwrap();
        }
        let kind = ModelKind::RandomForest {
            trees: 1,
            max_depth: 4,
            threshold: 0.5,
        };
        let mut p = Predictor::new(kind.clone(), 21);
        assert!(matches!(
            p.train(&kb),
            Err(CoreError::EmptyTestPhase { rows: 4 })
        ));
        assert!(!p.is_trained());
        assert_eq!(p.quality(), None);
        // A seed whose bootstrap leaves a row out is tested and installed.
        let mut p = Predictor::new(kind, 20);
        assert!(p.train(&kb).is_ok());
        assert!(p.is_trained());
    }

    #[test]
    fn untrained_prediction_fails() {
        let p = Predictor::new(ModelKind::default(), 0);
        assert!(matches!(p.predict(&[1.0]), Err(CoreError::NotTrained)));
        assert!(!p.is_trained());
    }

    #[test]
    fn tiny_log_is_rejected() {
        let mut kb = KnowledgeBase::new(vec!["a".into()]);
        kb.append(1, vec![1.0], vec![true]).unwrap();
        let mut p = Predictor::new(ModelKind::default(), 0);
        assert!(matches!(
            p.train(&kb),
            Err(CoreError::InsufficientTraining { .. })
        ));
    }

    #[test]
    fn recall_optimised_catches_more_positives() {
        // Noisy boundary: recall-optimised threshold should fire at least as
        // often as the balanced model.
        let mut kb = KnowledgeBase::new(vec!["a".into()]);
        for w in 0..120 {
            let i = (w % 12) as f64;
            let label = i >= 6.0 || (w % 17 == 0);
            kb.append(w, vec![i], vec![label]).unwrap();
        }
        let mut balanced = Predictor::new(ModelKind::default(), 1);
        let mut recallish = Predictor::new(ModelKind::recall_optimised(), 1);
        balanced.train(&kb).unwrap();
        recallish.train(&kb).unwrap();
        let fires = |p: &Predictor| {
            (0..12)
                .filter(|&i| p.predict(&[i as f64]).unwrap()[0])
                .count()
        };
        assert!(fires(&recallish) >= fires(&balanced));
    }

    #[test]
    fn probabilities_are_in_unit_interval() {
        let mut p = Predictor::new(ModelKind::default(), 3);
        p.train(&kb_two_steps()).unwrap();
        let probs = p.predict_proba(&[5.0, 3.0]).unwrap();
        assert_eq!(probs.len(), 2);
        assert!(probs.iter().all(|v| (0.0..=1.0).contains(v)));
    }
}
