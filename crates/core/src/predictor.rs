//! The Predictor component: multi-label classification of execution
//! configurations.

use std::fmt;
use std::time::{Duration, Instant};

use smartflux_ml::crossval::{build_forests, BuiltForest, ForestBuild};
use smartflux_ml::metrics::ConfusionMatrix;
use smartflux_ml::{Classifier, Dataset, MlError, RandomForest, StepRule};
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
const MIN_TRAINING_ROWS: usize = 4;

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

/// One label's fitted forest and the [`StepRule`] compiled from it, which
/// answers every query.
#[derive(Debug)]
pub(crate) struct LabelModel {
    forest: RandomForest,
    rule: StepRule,
}

impl LabelModel {
    fn compile(forest: RandomForest) -> Result<Self, MlError> {
        let rule = StepRule::compile(&forest)?;
        Ok(Self { forest, rule })
    }

    /// The vote at label features `x`. Debug builds cross-check it against
    /// the forest's arena walk, so every debug-build run checks the rule.
    fn vote(&self, x: &[f64]) -> f64 {
        let vote = self.rule.vote(x[0]);
        debug_assert_eq!(
            vote.to_bits(),
            self.forest.predict_proba(x).to_bits(),
            "step rule and forest disagree at {x:?}"
        );
        vote
    }

    fn predict(&self, x: &[f64]) -> bool {
        self.vote(x) >= self.rule.threshold()
    }
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
/// all-steps-deadlocked failure mode (DESIGN.md §5.4). A forest over one
/// number is a step function of it, so after each build every label's
/// forest is compiled into a [`StepRule`], and queries are answered from
/// the rule: the forest's own vote, bit for bit, by one binary search
/// (DESIGN.md §14, "Compiled step rules").
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
/// assert_eq!(p.predict_all(&[7.0]).unwrap(), vec![true]);
/// assert_eq!(p.predict_all(&[0.0]).unwrap(), vec![false]);
/// ```
pub struct Predictor {
    kind: ModelKind,
    seed: u64,
    models: Vec<LabelModel>,
    quality: Option<PredictorQuality>,
    last_build_time: Option<Duration>,
    /// Inert (disabled) unless the owning engine attaches a handle; feeds
    /// the `ml.fit_ns` instrument.
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

    /// Attaches a telemetry handle; the predictor then times each fit
    /// batch (`ml.fit_ns`), a recovery refit's included. Queries are timed
    /// by the engine's `engine.predict` span around them.
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
        self.models.get(j).map(|m| &m.forest)
    }

    /// Label `j`'s step rule, compiled from [`forest`](Self::forest) —
    /// what every query answers from: the cuts on step `j`'s impact, the
    /// vote on each piece and the threshold it is compared with. `None`
    /// for a label the predictor has no forest for.
    #[must_use]
    pub fn rule(&self, j: usize) -> Option<&StepRule> {
        self.models.get(j).map(|m| &m.rule)
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
    /// `MIN_TRAINING_ROWS` (4) examples, [`CoreError::EmptyTestPhase`] when
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
        for (model, out_of_bag) in built {
            if let Some(out_of_bag) = out_of_bag {
                pooled.merge(&out_of_bag);
            }
            models.push(model);
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

    /// The forests [`train`](Self::train) installs for `kb`, and their
    /// rules, without its test phase. They are a function of `kb`, the
    /// model kind and the seed alone — fitting is seeded and bit-identical
    /// at every worker count — which is what lets a checkpoint keep the
    /// knowledge base and recompute the models from it.
    ///
    /// # Errors
    ///
    /// As [`train`](Self::train).
    pub(crate) fn refit(&self, kb: &KnowledgeBase) -> Result<Vec<LabelModel>, CoreError> {
        let built = self.build(&Self::label_views(kb)?, false)?;
        Ok(built.into_iter().map(|(model, _)| model).collect())
    }

    /// Installs what [`refit`](Self::refit) built — no models leave the
    /// predictor untrained — with the quality the test phase measured when
    /// the models were first trained. The build-time measurement does not
    /// survive recovery (it is reporting-only).
    pub(crate) fn restore(&mut self, models: Vec<LabelModel>, quality: Option<PredictorQuality>) {
        self.models = models;
        self.quality = quality;
        self.last_build_time = None;
    }

    /// One single-label training view of `kb` per step; a log of fewer
    /// than [`MIN_TRAINING_ROWS`] examples is refused.
    fn label_views(kb: &KnowledgeBase) -> Result<Vec<Dataset>, CoreError> {
        if kb.len() < MIN_TRAINING_ROWS {
            return Err(CoreError::InsufficientTraining {
                have: kb.len(),
                need: MIN_TRAINING_ROWS,
            });
        }
        (0..kb.step_names().len())
            .map(|j| kb.label_dataset(j))
            .collect()
    }

    /// Fits one forest per label view, label `j`'s seeded with `seed + j`,
    /// collecting its out-of-bag test phase when `test_phase` is set — one
    /// batch, one job per label — and compiles each forest's rule.
    fn build(
        &self,
        views: &[Dataset],
        test_phase: bool,
    ) -> Result<Vec<(LabelModel, Option<ConfusionMatrix>)>, CoreError> {
        // `ml.fit_ns` spans the batch and the compile, in `train` and in
        // `refit` alike. The engine-level `engine.train` span adds the
        // phase bookkeeping around it.
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
        let mut models = Vec::with_capacity(views.len());
        for BuiltForest { forest, out_of_bag } in build_forests(&builds)? {
            models.push((LabelModel::compile(forest)?, out_of_bag));
        }
        Ok(models)
    }

    /// Predicts which steps must execute for the given impact vector
    /// (`true` = the step's error bound would otherwise be exceeded) — the
    /// paper's `h(X) = Y` query of §3.1 — asking every label's rule about
    /// its own step's impact.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before training and
    /// [`CoreError::ShapeMismatch`] on a wrong-width impact vector.
    pub fn predict_all(&self, impacts: &[f64]) -> Result<Vec<bool>, CoreError> {
        self.check_query(impacts)?;
        Ok(self
            .models
            .iter()
            .enumerate()
            .map(|(j, m)| m.predict(Self::project(j, impacts)))
            .collect())
    }

    /// Predicts the execution decision for a single step (label index `j`)
    /// from its rule: one binary search over the cuts on step `j`'s impact.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before training and
    /// [`CoreError::ShapeMismatch`] for an unknown label index or
    /// wrong-width impact vector.
    pub fn predict_step(&self, j: usize, impacts: &[f64]) -> Result<bool, CoreError> {
        self.check_query(impacts)?;
        let model = self.models.get(j).ok_or(CoreError::ShapeMismatch {
            expected: self.models.len(),
            found: j,
        })?;
        Ok(model.predict(Self::project(j, impacts)))
    }

    /// Per-label execution probabilities: each rule's vote at its own
    /// step's impact.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotTrained`] before training and
    /// [`CoreError::ShapeMismatch`] on a wrong-width impact vector.
    pub fn predict_proba(&self, impacts: &[f64]) -> Result<Vec<f64>, CoreError> {
        self.check_query(impacts)?;
        Ok(self
            .models
            .iter()
            .enumerate()
            .map(|(j, m)| m.vote(Self::project(j, impacts)))
            .collect())
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
        assert_eq!(p.predict_all(&[9.0, 0.0]).unwrap(), vec![true, false]);
        assert_eq!(p.predict_all(&[0.0, 5.0]).unwrap(), vec![false, true]);
        assert!(p.predict_step(0, &[9.0, 0.0]).unwrap());
        assert!(p.last_build_time().is_some());
    }

    /// The test phase's reference for label view `view` of a `kind` forest
    /// seeded `seed`, computed apart from the build: each tree's bootstrap
    /// re-drawn from the forest seed (`n` draws per tree, in tree order),
    /// the tree re-grown alone on that materialised sample with its own
    /// derived seed, every row the sample never names scored by that tree,
    /// and each row's mean vote cut at the kind's threshold.
    fn out_of_bag_reference(kind: &ModelKind, seed: u64, view: &Dataset) -> ConfusionMatrix {
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
        let mut pooled = ConfusionMatrix::default();
        for j in 0..2 {
            let view = kb.label_dataset(j).unwrap();
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
        for (j, model) in refit.iter().enumerate() {
            assert_eq!(
                model.forest.arena(),
                p.forest(j).unwrap().arena(),
                "refit {j}"
            );
            assert_eq!(&model.rule, p.rule(j).unwrap(), "refit {j}");
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
        assert!(matches!(p.predict_all(&[1.0]), Err(CoreError::NotTrained)));
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
                .filter(|&i| p.predict_all(&[i as f64]).unwrap()[0])
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
