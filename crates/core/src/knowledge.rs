//! The Knowledge Base: the training log collected during synchronous
//! execution, or a training set "given beforehand" (§3.2) through
//! [`EngineConfig::with_initial_knowledge`](crate::EngineConfig::with_initial_knowledge).
//! Its one serialised form is the knowledge-base section of the engine's
//! checkpoint blob ([`QodEngine::export_state`](crate::QodEngine::export_state)).

use smartflux_ml::Dataset;

use crate::error::CoreError;

/// One training example: the per-step input impacts observed at a wave and,
/// per step, whether the simulated output error exceeded `maxε` (i.e. the
/// step had to execute).
#[derive(Debug, Clone, PartialEq)]
pub struct KnowledgeRow {
    /// Wave the example was collected at.
    pub wave: u64,
    /// Input impact `ι` per QoD-managed step, in step order.
    pub impacts: Vec<f64>,
    /// `ε > maxε` per QoD-managed step, in the same order.
    pub must_execute: Vec<bool>,
}

/// The training set accumulated by the Monitoring component during the
/// training phase (§4: "input impact and a binary value indicating whether
/// `maxε` of that step is reached is appended to a log").
///
/// # Example
///
/// ```
/// use smartflux::KnowledgeBase;
///
/// let mut kb = KnowledgeBase::new(vec!["zones".into(), "hotspots".into()]);
/// kb.append(1, vec![120.0, 30.5], vec![true, false]).unwrap();
/// kb.append(2, vec![80.0, 55.0], vec![false, true]).unwrap();
/// assert_eq!(kb.len(), 2);
/// // Step 1's forest learns from step 1's impact against step 1's label.
/// let hotspots = kb.label_dataset(1).unwrap();
/// assert_eq!(hotspots.x(), [[30.5], [55.0]]);
/// assert_eq!(hotspots.y(), [false, true]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KnowledgeBase {
    step_names: Vec<String>,
    rows: Vec<KnowledgeRow>,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base for the named QoD steps.
    #[must_use]
    pub fn new(step_names: Vec<String>) -> Self {
        Self {
            step_names,
            rows: Vec::new(),
        }
    }

    /// Names of the QoD steps, defining the column order.
    #[must_use]
    pub fn step_names(&self) -> &[String] {
        &self.step_names
    }

    /// Number of collected examples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no examples were collected yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The collected rows, in wave order.
    #[must_use]
    pub fn rows(&self) -> &[KnowledgeRow] {
        &self.rows
    }

    /// Appends one example.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if the vectors do not match the
    /// number of steps.
    pub fn append(
        &mut self,
        wave: u64,
        impacts: Vec<f64>,
        must_execute: Vec<bool>,
    ) -> Result<(), CoreError> {
        if impacts.len() != self.step_names.len() || must_execute.len() != self.step_names.len() {
            return Err(CoreError::ShapeMismatch {
                expected: self.step_names.len(),
                found: impacts.len().max(must_execute.len()),
            });
        }
        self.rows.push(KnowledgeRow {
            wave,
            impacts,
            must_execute,
        });
        Ok(())
    }

    /// Step `j`'s training set: step `j`'s impact, the one feature its
    /// forest sees, against step `j`'s label. One such set per step is the
    /// paper's binary-relevance (MEKA) view of the multi-label log.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] for a step index out of range
    /// and [`CoreError::Ml`] for an empty log or a non-finite impact of
    /// step `j`.
    pub fn label_dataset(&self, j: usize) -> Result<Dataset, CoreError> {
        if j >= self.step_names.len() {
            return Err(CoreError::ShapeMismatch {
                expected: self.step_names.len(),
                found: j,
            });
        }
        let x = self.rows.iter().map(|r| vec![r.impacts[j]]).collect();
        let y = self.rows.iter().map(|r| r.must_execute[j]).collect();
        Ok(Dataset::new(x, y)?)
    }

    /// Fraction of rows where step `j` had to execute (the label base rate,
    /// useful for diagnosing degenerate training sets).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn positive_rate(&self, j: usize) -> f64 {
        assert!(j < self.step_names.len(), "step index out of range");
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().filter(|r| r.must_execute[j]).count() as f64 / self.rows.len() as f64
    }

    /// Drops all collected rows, keeping the step schema (used when a new
    /// training phase is requested after data patterns change).
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new(vec!["a".into(), "b".into()]);
        kb.append(1, vec![1.0, 2.0], vec![true, false]).unwrap();
        kb.append(2, vec![3.0, 4.0], vec![true, true]).unwrap();
        kb
    }

    #[test]
    fn append_validates_shape() {
        let mut kb = KnowledgeBase::new(vec!["a".into()]);
        assert!(kb.append(1, vec![1.0, 2.0], vec![true]).is_err());
        assert!(kb.append(1, vec![1.0], vec![true, false]).is_err());
        assert!(kb.append(1, vec![1.0], vec![true]).is_ok());
    }

    #[test]
    fn label_datasets_hold_their_own_step_column() {
        let kb = kb();
        let b = kb.label_dataset(1).unwrap();
        assert_eq!(b.x(), [[2.0], [4.0]]);
        assert_eq!(b.y(), [false, true]);
        assert!(matches!(
            kb.label_dataset(2),
            Err(CoreError::ShapeMismatch {
                expected: 2,
                found: 2
            })
        ));
        assert!(matches!(
            KnowledgeBase::new(vec!["a".into()]).label_dataset(0),
            Err(CoreError::Ml(_))
        ));
    }

    #[test]
    fn positive_rate() {
        let kb = kb();
        assert_eq!(kb.positive_rate(0), 1.0);
        assert_eq!(kb.positive_rate(1), 0.5);
    }

    #[test]
    fn clear_keeps_schema() {
        let mut kb = kb();
        kb.clear();
        assert!(kb.is_empty());
        assert_eq!(kb.step_names().len(), 2);
    }
}
