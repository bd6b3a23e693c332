//! The wave-decision record and its journal: one [`WaveDiagnostics`] row
//! per wave.
//!
//! The row is the engine's decision for a wave: the impact vector ι, the
//! trigger set, the steps deferred, and — on training waves, where ground
//! truth exists — the measured error ε and the running confidence that
//! `maxε` is respected. The engine keeps every row as its decision
//! history, hands each one to the journal sinks, and serves the rows over
//! SFNP. The paper's Fig. 9 (error tracking) and Fig. 10 (confidence) are
//! both derivable from a journal file alone.
//!
//! Step names and `maxε` are session constants ([`QodStep`]): the engine
//! holds them once and passes them beside each row. A journal line prints
//! both, so every line describes itself (schema v3):
//!
//! ```text
//! {"v":3,"wave":31,"phase":"application","steps":["agg","scale"],"max_epsilon":[0.05,0.01],"impacts":[null,0.0015],"decisions":[true,false],"deferred":0}
//! ```
//!
//! A line is JSON whatever the values: a NaN is written `null` — the ι of
//! a step the engine does not monitor — and ±∞ as `±1e999`, which JSON
//! readers take for ±∞. Every finite value prints as the shortest decimal
//! that reads back to its bits. v2 lines, which printed those three as
//! `NaN` and `±inf`, still read.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::json_string;

/// One wave's decision: what the engine observed and decided.
///
/// Every per-step vector is indexed like the session's [`QodStep`]s. Rows
/// compare bitwise: NaN equals NaN, and `0.0` differs from `-0.0`.
#[derive(Debug, Clone)]
pub struct WaveDiagnostics {
    /// Wave number.
    pub wave: u64,
    /// Input impact ι per QoD step; NaN on an application wave for a step
    /// whose ι is not measured (its rule runs it at every ι).
    pub impacts: Vec<f64>,
    /// Decision per QoD step (`true` = executed). On training waves every
    /// step runs and this is the label vector: whether ε exceeded `maxε`.
    pub decisions: Vec<bool>,
    /// Steps deferred this wave because no predecessor had executed yet,
    /// workflow-wide.
    pub deferred: u64,
    /// What only a training wave measures; `Some` exactly when
    /// [`training`](Self::training) is set. Boxed, so an application row
    /// stays small and makes no heap request for it.
    pub ground_truth: Option<Box<GroundTruth>>,
    /// Whether this wave ran in training mode.
    pub training: bool,
}

// The engine retains a row for every wave of a session, so the row must
// not grow: ground truth lives behind one pointer.
const _: () = assert!(size_of::<WaveDiagnostics>() <= 88);

/// The measurements a training wave adds to its row; compared bitwise.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Simulated output error ε per QoD step: the data behind the paper's
    /// ι-vs-ε correlation plots (Fig. 7).
    pub errors: Vec<f64>,
    /// Running confidence per QoD step after this wave: the fraction of
    /// ground-truth waves whose ε stayed within `maxε` (Fig. 10).
    pub confidence: Vec<f64>,
}

/// Whether `a` and `b` hold the same f64 bits.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl PartialEq for WaveDiagnostics {
    fn eq(&self, other: &Self) -> bool {
        self.wave == other.wave
            && same_bits(&self.impacts, &other.impacts)
            && self.decisions == other.decisions
            && self.deferred == other.deferred
            && self.ground_truth == other.ground_truth
            && self.training == other.training
    }
}

impl PartialEq for GroundTruth {
    fn eq(&self, other: &Self) -> bool {
        same_bits(&self.errors, &other.errors) && same_bits(&self.confidence, &other.confidence)
    }
}

impl WaveDiagnostics {
    /// Simulated output error ε per QoD step; empty on application waves,
    /// which cannot observe it.
    #[must_use]
    pub fn errors(&self) -> &[f64] {
        self.ground_truth.as_ref().map_or(&[], |g| &g.errors)
    }
}

/// A QoD-managed step as the decision rows index it: a session constant.
#[derive(Debug, Clone, PartialEq)]
pub struct QodStep {
    /// The step's name.
    pub name: String,
    /// The step's error bound `maxε`.
    pub max_epsilon: f64,
}

/// A row with the steps it is indexed by: one journal line, read back or
/// retained by a sink.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The session's QoD steps.
    pub steps: Arc<[QodStep]>,
    /// The wave's decision.
    pub row: WaveDiagnostics,
}

/// Renders one journal line (no trailing newline).
struct Line<'a>(&'a [QodStep], &'a WaveDiagnostics);

impl fmt::Display for Line<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Line(steps, row) = *self;
        let phase = if row.training {
            "training"
        } else {
            "application"
        };
        write!(f, "{{\"v\":3,\"wave\":{},\"phase\":\"{phase}\"", row.wave)?;
        list(f, "steps", steps.iter().map(|s| json_string(&s.name)))?;
        list(
            f,
            "max_epsilon",
            steps.iter().map(|s| Number(s.max_epsilon)),
        )?;
        list(f, "impacts", row.impacts.iter().map(|&x| Number(x)))?;
        list(f, "decisions", &row.decisions)?;
        write!(f, ",\"deferred\":{}", row.deferred)?;
        if let Some(truth) = &row.ground_truth {
            list(f, "errors", truth.errors.iter().map(|&x| Number(x)))?;
            list(f, "confidence", truth.confidence.iter().map(|&x| Number(x)))?;
        }
        f.write_str("}")
    }
}

/// An f64 as a JSON value: `null` for NaN, `±1e999` for ±∞, the shortest
/// decimal that reads back to its bits otherwise.
struct Number(f64);

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            x if x.is_nan() => f.write_str("null"),
            f64::INFINITY => f.write_str("1e999"),
            f64::NEG_INFINITY => f.write_str("-1e999"),
            x => write!(f, "{x}"),
        }
    }
}

/// Writes `,"key":[item,…]`.
fn list<T: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    key: &str,
    items: impl IntoIterator<Item = T>,
) -> fmt::Result {
    write!(f, ",\"{key}\":[")?;
    for (i, item) in items.into_iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        write!(f, "{comma}{item}")?;
    }
    f.write_str("]")
}

impl fmt::Display for JournalEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Line(&self.steps, &self.row).fmt(f)
    }
}

impl JournalEntry {
    /// Parses one journal line: a complete v3 or v2 object or nothing, so a line
    /// cut short of its closing brace never reads as a record with a
    /// shortened value.
    #[must_use]
    pub fn from_json(line: &str) -> Option<Self> {
        let mut c = Cursor(line);
        let entry = c.entry()?;
        c.0.is_empty().then_some(entry)
    }

    /// Parses a JSON array of journal lines, as `/waves` serves them.
    #[must_use]
    pub fn list_from_json(body: &str) -> Option<Vec<Self>> {
        let mut c = Cursor(body);
        let entries = c.list(Cursor::entry)?;
        c.0.is_empty().then_some(entries)
    }
}

/// A journal file that could not be read back.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read.
    Io(std::io::Error),
    /// A line that is not a complete v3 or v2 record.
    Line {
        /// 1-based line number.
        line: usize,
        /// Whether it is a v1 line (one QoD step of one wave), which this
        /// reader does not convert.
        v1: bool,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "cannot read journal: {e}"),
            Self::Line { line, v1: true } => write!(
                f,
                "journal line {line} is a v1 per-step record; this reader reads v2 and v3, one line per wave"
            ),
            Self::Line { line, v1: false } => {
                write!(f, "journal line {line} is not a complete v3 or v2 record")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// A strict reader for the journal's own output, not a general JSON
/// parser: fields in the order [`Line`] writes them, nothing else.
struct Cursor<'a>(&'a str);

impl Cursor<'_> {
    fn eat(&mut self, token: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(token)?;
        Some(())
    }

    /// A bare number or boolean up to the next `,`, `]` or `}`. The caller then eats
    /// that delimiter, so a value cut short at the end of the text fails.
    fn scalar<T: std::str::FromStr>(&mut self) -> Option<T> {
        let (token, rest) = self.0.split_at(self.0.find([',', ']', '}'])?);
        self.0 = rest;
        token.parse().ok()
    }

    /// A number as [`Number`] writes it; `1e999` parses to ∞. A v2 line's
    /// `NaN` and `inf` parse as Rust spells them.
    fn number(&mut self) -> Option<f64> {
        if self.eat("null").is_some() {
            return Some(f64::NAN);
        }
        self.scalar()
    }

    /// A JSON string as [`json_string`] escapes it.
    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = String::new();
        let mut chars = self.0.char_indices();
        while let Some((i, ch)) = chars.next() {
            out.push(match ch {
                '"' => {
                    self.0 = &self.0[i + 1..];
                    return Some(out);
                }
                '\\' => match chars.next()?.1 {
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'u' => {
                        let hex: String = chars.by_ref().take(4).map(|(_, c)| c).collect();
                        char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                    }
                    c @ ('"' | '\\') => c,
                    _ => return None,
                },
                c => c,
            });
        }
        None
    }

    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.eat("[")?;
        let mut out = Vec::new();
        if self.eat("]").is_none() {
            loop {
                out.push(item(self)?);
                if self.eat("]").is_some() {
                    break;
                }
                self.eat(",")?;
            }
        }
        Some(out)
    }

    /// `,"key":` and then a list of `item`s.
    fn field<T>(&mut self, key: &str, item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.eat(",\"")?;
        self.eat(key)?;
        self.eat("\":")?;
        self.list(item)
    }

    fn entry(&mut self) -> Option<JournalEntry> {
        self.eat("{\"v\":")?;
        let version: u8 = self.scalar()?;
        if !matches!(version, 2 | 3) {
            return None;
        }
        self.eat(",\"wave\":")?;
        let wave = self.scalar()?;
        self.eat(",\"phase\":")?;
        let training = match self.string()?.as_str() {
            "training" => true,
            "application" => false,
            _ => return None,
        };
        let names = self.field("steps", Self::string)?;
        let bounds = self.field("max_epsilon", Self::number)?;
        let impacts = self.field("impacts", Self::number)?;
        let decisions = self.field("decisions", Self::scalar)?;
        self.eat(",\"deferred\":")?;
        let deferred = self.scalar()?;
        let ground_truth = if training {
            let errors = self.field("errors", Self::number)?;
            let confidence = self.field("confidence", Self::number)?;
            Some(Box::new(GroundTruth { errors, confidence }))
        } else {
            None
        };
        self.eat("}")?;
        let n = names.len();
        let truth =
            (ground_truth.as_deref()).map_or([n; 2], |g| [g.errors.len(), g.confidence.len()]);
        if [
            bounds.len(),
            impacts.len(),
            decisions.len(),
            truth[0],
            truth[1],
        ] != [n; 5]
        {
            return None;
        }
        let steps = names
            .into_iter()
            .zip(bounds)
            .map(|(name, max_epsilon)| QodStep { name, max_epsilon })
            .collect();
        let row = WaveDiagnostics {
            wave,
            impacts,
            decisions,
            deferred,
            ground_truth,
            training,
        };
        Some(JournalEntry { steps, row })
    }
}

/// A destination for decision rows.
///
/// Implementations must be cheap per row; the engine calls
/// [`record`](Self::record) once per wave while holding no locks of its
/// own.
pub trait JournalSink: Send + Sync + fmt::Debug {
    /// Appends one wave's row; `steps` index its per-step vectors.
    ///
    /// # Errors
    ///
    /// Reports I/O failures; callers ([`Telemetry`](crate::Telemetry))
    /// count them into the `telemetry.journal_errors` counter instead of
    /// letting a broken sink take a wave down.
    fn record(&self, steps: &Arc<[QodStep]>, row: &WaveDiagnostics) -> std::io::Result<()>;

    /// Flushes buffered records to durable storage (no-op by default).
    ///
    /// # Errors
    ///
    /// Reports I/O failures, like [`record`](Self::record).
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A sink appending one JSON line per wave to a file.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the journal file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl JournalSink for JsonlSink {
    fn record(&self, steps: &Arc<[QodStep]>, row: &WaveDiagnostics) -> std::io::Result<()> {
        writeln!(self.writer.lock(), "{}", Line(steps, row))
    }

    fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().flush()
    }
}

/// An in-memory sink retaining every row (tests, ad-hoc inspection).
#[derive(Debug, Default)]
pub struct MemoryJournal {
    rows: Mutex<Vec<WaveDiagnostics>>,
}

impl MemoryJournal {
    /// Creates an empty in-memory journal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out all rows collected so far.
    #[must_use]
    pub fn rows(&self) -> Vec<WaveDiagnostics> {
        self.rows.lock().clone()
    }
}

impl JournalSink for MemoryJournal {
    fn record(&self, _steps: &Arc<[QodStep]>, row: &WaveDiagnostics) -> std::io::Result<()> {
        self.rows.lock().push(row.clone());
        Ok(())
    }
}

/// Reads every line of a JSONL journal file.
///
/// # Errors
///
/// [`JournalError::Io`] if the file cannot be read, and
/// [`JournalError::Line`] naming the first line that is not a complete
/// v3 or v2 record, and whether it is a v1 line.
pub fn read_journal(path: impl AsRef<Path>) -> Result<Vec<JournalEntry>, JournalError> {
    let content = std::fs::read_to_string(path).map_err(JournalError::Io)?;
    let entry = |(i, line): (usize, &str)| {
        JournalEntry::from_json(line).ok_or(JournalError::Line {
            line: i + 1,
            v1: line.starts_with("{\"wave\":") && line.contains("\"step_index\":"),
        })
    };
    content.lines().enumerate().map(entry).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps() -> Arc<[QodStep]> {
        let step = |name: &str, max_epsilon| QodStep {
            name: name.into(),
            max_epsilon,
        };
        Arc::from(vec![step("agg \"x\"\n", 0.05), step("scale", 0.01)])
    }

    fn sample(wave: u64, training: bool) -> WaveDiagnostics {
        let truth = GroundTruth {
            errors: vec![0.0125, 0.0],
            confidence: vec![0.975, 1.0],
        };
        WaveDiagnostics {
            wave,
            impacts: vec![0.25, 1.5e-3],
            decisions: vec![true, false],
            deferred: 1,
            ground_truth: training.then(|| Box::new(truth)),
            training,
        }
    }

    fn line(row: &WaveDiagnostics) -> String {
        Line(&steps(), row).to_string()
    }

    #[test]
    fn json_roundtrip() {
        for row in [sample(3, true), sample(9, false)] {
            let entry = JournalEntry {
                steps: steps(),
                row,
            };
            assert_eq!(JournalEntry::from_json(&entry.to_string()), Some(entry));
        }
        let body = format!("[{},{}]", line(&sample(1, true)), line(&sample(2, false)));
        let entries = JournalEntry::list_from_json(&body).expect("array parse");
        assert_eq!(entries[1].row, sample(2, false));
        assert_eq!(JournalEntry::list_from_json("[]"), Some(vec![]));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let app = line(&sample(1, false));
        for bad in [
            "not json".to_owned(),
            "{\"v\":3,\"wave\":1}".to_owned(),
            app.replace("\"v\":3", "\"v\":4"),
            app.replace("\"v\":3", "\"v\":1"),
            // A training line must carry its ground truth.
            app.replace("application", "training"),
            // A list one entry short.
            app.replace("[true,false]", "[true]"),
            format!("{app} "),
        ] {
            assert_eq!(JournalEntry::from_json(&bad), None, "{bad}");
        }
    }

    /// Rows with NaN, ±∞, `-0.0` and a subnormal in every f64 field.
    fn awkward(training: bool) -> WaveDiagnostics {
        let tiny = f64::from_bits(1);
        WaveDiagnostics {
            impacts: vec![f64::NAN, -0.0],
            ground_truth: training.then(|| {
                Box::new(GroundTruth {
                    errors: vec![f64::INFINITY, tiny],
                    confidence: vec![f64::NEG_INFINITY, 0.0],
                })
            }),
            ..sample(4, training)
        }
    }

    #[test]
    fn rows_compare_bitwise() {
        let row = awkward(true);
        assert_eq!(row, row.clone(), "NaN equals NaN");
        let mut zero = row.clone();
        zero.impacts[1] = 0.0;
        assert_ne!(row, zero, "0.0 differs from -0.0");
        let mut truth = row.clone();
        if let Some(truth) = &mut truth.ground_truth {
            truth.confidence[1] = -0.0;
        }
        assert_ne!(row, truth, "ground truth compares bitwise");
    }

    #[test]
    fn non_finite_values_are_json_and_read_back_to_their_bits() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for training in [true, false] {
            let row = awkward(training);
            let text = line(&row);
            for token in ["NaN", "inf"] {
                assert!(!text.contains(token), "{text}");
            }
            assert!(text.starts_with("{\"v\":3,") && text.contains("[null,-0]"));
            let back = JournalEntry::from_json(&text).expect("a v3 line").row;
            assert_eq!(bits(&back.impacts), bits(&row.impacts));
            assert_eq!(bits(back.errors()), bits(row.errors()));
            let confidence =
                |r: &WaveDiagnostics| r.ground_truth.as_ref().map(|g| bits(&g.confidence));
            assert_eq!(confidence(&back), confidence(&row));
            assert_eq!(back, row);
        }
        assert!(line(&awkward(true)).contains("[1e999,0.000"));
        assert!(line(&awkward(true)).contains("[-1e999,0]"));
    }

    #[test]
    fn v2_lines_still_read() {
        for row in [sample(3, true), sample(9, false)] {
            let v2 = line(&row).replace("\"v\":3", "\"v\":2");
            assert_eq!(JournalEntry::from_json(&v2).map(|e| e.row), Some(row));
        }
        // v2 printed non-finite values as Rust spells them.
        let v2 = line(&sample(5, false))
            .replace("\"v\":3", "\"v\":2")
            .replace("[0.25,0.0015]", "[NaN,-inf]");
        let row = JournalEntry::from_json(&v2).expect("a v2 line").row;
        assert!(row.impacts[0].is_nan());
        assert_eq!(row.impacts[1], f64::NEG_INFINITY);
    }

    #[test]
    fn memory_journal_collects() {
        let j = MemoryJournal::new();
        j.record(&steps(), &sample(1, false)).expect("record");
        j.record(&steps(), &sample(2, true)).expect("record");
        assert_eq!(j.rows(), [sample(1, false), sample(2, true)]);
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let pid = std::process::id();
        std::env::temp_dir().join(format!("smartflux-journal-test-{tag}-{pid}.jsonl"))
    }

    #[test]
    fn jsonl_sink_writes_readable_file() {
        let path = temp_path("sink");
        let sink = JsonlSink::create(&path).expect("create journal");
        sink.record(&steps(), &sample(1, true)).expect("record");
        sink.record(&steps(), &sample(2, false)).expect("record");
        sink.flush().expect("flush");
        let entries = read_journal(&path).expect("read journal");
        let rows: Vec<_> = entries.into_iter().map(|e| e.row).collect();
        assert_eq!(rows, [sample(1, true), sample(2, false)]);

        let v1 = "{\"wave\":2,\"phase\":\"training\",\"step\":\"agg\",\"step_index\":0}";
        std::fs::write(&path, format!("{}\n{v1}\n", line(&sample(1, true)))).expect("write");
        let err = read_journal(&path).expect_err("a v1 line");
        assert!(
            matches!(err, JournalError::Line { line: 2, v1: true }),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A journal cut at any byte reads back as an error or as exactly the
    /// records written before the cut: a torn value never parses.
    #[test]
    fn every_truncation_is_an_error_or_a_prefix() {
        let rows = [sample(1, true), sample(2, true), sample(3, false)];
        let text: String = rows.iter().map(|r| line(r) + "\n").collect();
        let path = temp_path("torn");
        for cut in 0..=text.len() {
            std::fs::write(&path, &text.as_bytes()[..cut]).expect("write cut");
            match read_journal(&path) {
                Ok(entries) => {
                    let got: Vec<_> = entries.into_iter().map(|e| e.row).collect();
                    assert_eq!(got, rows[..got.len()], "cut at {cut}");
                }
                Err(JournalError::Line { v1: false, .. }) => {}
                Err(e) => panic!("cut at {cut}: {e}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
