//! The Knowledge Base: the training log collected during synchronous
//! execution.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use smartflux_ml::MultiLabelDataset;

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
/// let dataset = kb.to_dataset().unwrap();
/// assert_eq!(dataset.n_labels(), 2);
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

    /// Converts the log into a multi-label dataset for training.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientTraining`] when the log is empty.
    pub fn to_dataset(&self) -> Result<MultiLabelDataset, CoreError> {
        if self.rows.is_empty() {
            return Err(CoreError::InsufficientTraining { have: 0, need: 1 });
        }
        let x = self.rows.iter().map(|r| r.impacts.clone()).collect();
        let y = self.rows.iter().map(|r| r.must_execute.clone()).collect();
        MultiLabelDataset::new(x, y).map_err(CoreError::from)
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

    /// Serialises the log as CSV (`wave, ι per step, label per step`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("wave");
        for n in &self.step_names {
            let _ = write!(out, ",impact_{n}");
        }
        for n in &self.step_names {
            let _ = write!(out, ",exec_{n}");
        }
        out.push('\n');
        for r in &self.rows {
            let _ = write!(out, "{}", r.wave);
            for v in &r.impacts {
                let _ = write!(out, ",{v}");
            }
            for b in &r.must_execute {
                let _ = write!(out, ",{}", u8::from(*b));
            }
            out.push('\n');
        }
        out
    }

    /// Writes the CSV form to a file, crash-safely.
    ///
    /// The content is written to a sibling temporary file, flushed to
    /// stable storage, and atomically renamed over `path`, so a crash
    /// mid-save leaves either the previous file or the new one — never a
    /// truncated mix.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        use std::io::Write as _;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(self.to_csv().as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Drops all collected rows, keeping the step schema (used when a new
    /// training phase is requested after data patterns change).
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Parses a knowledge base from its CSV form (the inverse of
    /// [`to_csv`](Self::to_csv)).
    ///
    /// §3.2 allows a training set to be "given beforehand", skipping the
    /// synchronous training phase entirely; this is the import side of that
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] for structural problems,
    /// [`CoreError::MalformedCsv`] naming the line and column of a field
    /// that does not parse — a label is exactly `0` or `1`, an impact a
    /// finite number — and [`CoreError::InsufficientTraining`] for a CSV
    /// without data rows.
    pub fn from_csv(csv: &str) -> Result<Self, CoreError> {
        let mut lines = csv.lines();
        let header = lines
            .next()
            .ok_or(CoreError::InsufficientTraining { have: 0, need: 1 })?;
        let columns: Vec<&str> = header.split(',').collect();
        if columns.first() != Some(&"wave") {
            return Err(CoreError::ShapeMismatch {
                expected: 1,
                found: 0,
            });
        }
        let step_names: Vec<String> = columns
            .iter()
            .filter_map(|c| c.strip_prefix("impact_").map(str::to_owned))
            .collect();
        let n = step_names.len();
        if n == 0 || columns.len() != 1 + 2 * n {
            return Err(CoreError::ShapeMismatch {
                expected: 1 + 2 * n,
                found: columns.len(),
            });
        }
        // Verify the label columns mirror the impact columns.
        for (j, name) in step_names.iter().enumerate() {
            let expected = format!("exec_{name}");
            if columns[1 + n + j] != expected {
                return Err(CoreError::ShapeMismatch {
                    expected: 1 + n + j,
                    found: j,
                });
            }
        }

        let mut kb = KnowledgeBase::new(step_names);
        // The header is line 1; data lines count from 2, blank ones too.
        for (line, text) in (2..).zip(lines) {
            if text.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = text.split(',').collect();
            if fields.len() != 1 + 2 * n {
                return Err(CoreError::ShapeMismatch {
                    expected: 1 + 2 * n,
                    found: fields.len(),
                });
            }
            let malformed = |column: usize, expected| CoreError::MalformedCsv {
                line,
                column: column + 1,
                expected,
            };
            let wave: u64 = fields[0]
                .parse()
                .map_err(|_| malformed(0, "an unsigned wave number"))?;
            let impacts: Vec<f64> = (1..=n)
                .map(|c| {
                    fields[c]
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite())
                        .ok_or_else(|| malformed(c, "a finite impact"))
                })
                .collect::<Result<_, _>>()?;
            // A damaged label must not read as "skip": that is the unsafe
            // direction for the error bound, so only `0` and `1` parse.
            let labels: Vec<bool> = (1 + n..=2 * n)
                .map(|c| match fields[c] {
                    "0" => Ok(false),
                    "1" => Ok(true),
                    _ => Err(malformed(c, "a label of exactly 0 or 1")),
                })
                .collect::<Result<_, _>>()?;
            kb.append(wave, impacts, labels)?;
        }
        if kb.is_empty() {
            return Err(CoreError::InsufficientTraining { have: 0, need: 1 });
        }
        Ok(kb)
    }

    /// Reads a CSV knowledge base from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`CoreError::ShapeMismatch`]-free parse
    /// errors wrapped in `std::io::Error` via the returned result.
    pub fn read_csv(path: &Path) -> io::Result<Result<Self, CoreError>> {
        Ok(Self::from_csv(&std::fs::read_to_string(path)?))
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
    fn dataset_roundtrip() {
        let d = kb().to_dataset().unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_labels(), 2);
        assert_eq!(d.label_column(0).unwrap(), vec![true, true]);
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let kb = KnowledgeBase::new(vec!["a".into()]);
        assert!(matches!(
            kb.to_dataset(),
            Err(CoreError::InsufficientTraining { .. })
        ));
    }

    #[test]
    fn positive_rate() {
        let kb = kb();
        assert_eq!(kb.positive_rate(0), 1.0);
        assert_eq!(kb.positive_rate(1), 0.5);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = kb().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("wave,impact_a,impact_b,exec_a,exec_b"));
        assert_eq!(lines.next(), Some("1,1,2,1,0"));
        assert_eq!(lines.next(), Some("2,3,4,1,1"));
    }

    #[test]
    fn csv_roundtrip() {
        let original = kb();
        let parsed = KnowledgeBase::from_csv(&original.to_csv()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(KnowledgeBase::from_csv("").is_err());
        assert!(KnowledgeBase::from_csv("nonsense,header\n1,2").is_err());
        // Header without any data rows.
        assert!(KnowledgeBase::from_csv("wave,impact_a,exec_a\n").is_err());
        // Ragged data row.
        assert!(KnowledgeBase::from_csv("wave,impact_a,exec_a\n1,2").is_err());
        // Mismatched label column name.
        assert!(KnowledgeBase::from_csv("wave,impact_a,exec_b\n1,2,1").is_err());
    }

    #[test]
    fn csv_refuses_every_damaged_field_by_line_and_column() {
        let mut three = kb();
        three
            .append(7, vec![-0.5, 1e-9], vec![false, false])
            .unwrap();
        let csv = three.to_csv();
        assert_eq!(KnowledgeBase::from_csv(&csv).unwrap(), three);

        let lines: Vec<&str> = csv.lines().collect();
        let label_tokens = [
            "true", "false", "2", "-1", "01", "1.0", "", " 1", "\u{fffd}",
        ];
        let number_tokens = ["x", "", "true", "NaN", "inf", "-inf", "1e999", "\u{fffd}"];
        for (r, row) in lines.iter().enumerate().skip(1) {
            let fields: Vec<&str> = row.split(',').collect();
            for column in 0..fields.len() {
                let tokens: &[&str] = if column >= 3 {
                    &label_tokens
                } else {
                    &number_tokens
                };
                for &token in tokens {
                    let mut damaged = fields.clone();
                    damaged[column] = token;
                    let mut text: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
                    text[r] = damaged.join(",");
                    let err = KnowledgeBase::from_csv(&text.join("\n")).unwrap_err();
                    assert!(
                        matches!(
                            err,
                            CoreError::MalformedCsv { line, column: c, .. }
                                if line == r + 1 && c == column + 1
                        ),
                        "line {} column {} token {token:?}: {err}",
                        r + 1,
                        column + 1
                    );
                }
            }
        }
    }

    #[test]
    fn write_csv_is_atomic_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("smartflux-kb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.csv");

        // First save, then an overwrite: the reread content must always be
        // the latest complete CSV and no temporary file may linger.
        kb().write_csv(&path).unwrap();
        let mut bigger = kb();
        bigger.append(3, vec![5.0, 6.0], vec![false, true]).unwrap();
        bigger.write_csv(&path).unwrap();
        let reread = KnowledgeBase::read_csv(&path).unwrap().unwrap();
        assert_eq!(reread, bigger);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temporary file left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_keeps_schema() {
        let mut kb = kb();
        kb.clear();
        assert!(kb.is_empty());
        assert_eq!(kb.step_names().len(), 2);
    }
}
