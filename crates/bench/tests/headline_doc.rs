//! The prose is pinned to the figures: every row of EXPERIMENTS.md's
//! headline table must print the saved executions, the confidence and the
//! speedup of `results/headline_summary.csv`, and every row of the per-sink
//! table under it the confidence and violations of
//! `results/headline_sinks.csv`, rounded to the precision the tables
//! print; README's lead sentence states the ranges of the first two and
//! how many rows reach the paper's 95 % confidence. A figure regenerated
//! without its prose (or prose edited without its figure) fails here.

use std::fs;
use std::path::Path;

/// One row of the headline table or of the CSV.
#[derive(Debug)]
struct Row {
    workload: String,
    bound: f64,
    saved_pct: f64,
    confidence_pct: f64,
    speedup: f64,
}

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// A printed number with its decimal places: `"**35.7%**"` → (35.7, 1),
/// `"1.56×"` → (1.56, 2).
fn printed(cell: &str) -> (f64, usize) {
    let text = cell.trim().trim_matches('*').trim_end_matches(['%', '×']);
    let decimals = text.split_once('.').map_or(0, |(_, frac)| frac.len());
    let value = text
        .parse()
        .unwrap_or_else(|e| panic!("cell {cell:?} is not a number: {e}"));
    (value, decimals)
}

/// The tables under `## Headline`, in order: each the cells of its rows
/// below the header and separator.
fn doc_tables(doc: &str) -> Vec<Vec<Vec<&str>>> {
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("Headline"))
        .expect("EXPERIMENTS.md has a Headline section");
    section
        .split("\n\n")
        .filter(|block| block.starts_with('|'))
        .map(|table| {
            let rows = table.lines().skip(2); // header and separator
            rows.map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
                .collect()
        })
        .collect()
}

/// The rows of the first table under `## Headline`, each number with the
/// number of decimals it was printed with.
fn doc_rows(doc: &str) -> Vec<(Row, [usize; 3])> {
    doc_tables(doc)[0]
        .iter()
        .map(|cells| {
            assert_eq!(cells.len(), 5, "headline row {cells:?}");
            let (bound_pct, _) = printed(cells[1]);
            let (saved_pct, saved_dp) = printed(cells[2]);
            let (confidence_pct, confidence_dp) = printed(cells[3]);
            let (speedup, speedup_dp) = printed(cells[4]);
            (
                Row {
                    workload: cells[0].to_lowercase(),
                    bound: bound_pct / 100.0,
                    saved_pct,
                    confidence_pct,
                    speedup,
                },
                [saved_dp, confidence_dp, speedup_dp],
            )
        })
        .collect()
}

fn csv_rows(csv: &str) -> Vec<Row> {
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("workload,bound,normalized_executions,saved,confidence,violations,speedup")
    );
    lines
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            let number = |i: usize| -> f64 {
                fields[i]
                    .parse()
                    .unwrap_or_else(|e| panic!("field {i} of {line:?}: {e}"))
            };
            Row {
                workload: fields[0].to_owned(),
                bound: number(1),
                saved_pct: number(3) * 100.0,
                confidence_pct: number(4) * 100.0,
                speedup: number(6),
            }
        })
        .collect()
}

/// One managed sink's row of the per-sink table or of its CSV.
#[derive(Debug)]
struct SinkRow {
    workload: String,
    bound: f64,
    sink: String,
    confidence_pct: f64,
    violations: u64,
}

/// The rows of the per-sink table, the second under `## Headline`, each
/// with the decimals its confidence was printed with.
fn doc_sink_rows(doc: &str) -> Vec<(SinkRow, usize)> {
    let tables = doc_tables(doc);
    assert_eq!(tables.len(), 2, "the headline table and the per-sink table");
    tables[1]
        .iter()
        .map(|cells| {
            assert_eq!(cells.len(), 5, "per-sink row {cells:?}");
            let (bound_pct, _) = printed(cells[1]);
            let (confidence_pct, confidence_dp) = printed(cells[3]);
            let row = SinkRow {
                workload: cells[0].to_lowercase(),
                bound: bound_pct / 100.0,
                sink: cells[2].trim_matches('`').to_owned(),
                confidence_pct,
                violations: cells[4].trim_matches('*').parse().expect("a count"),
            };
            (row, confidence_dp)
        })
        .collect()
}

fn csv_sink_rows(csv: &str) -> Vec<SinkRow> {
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("workload,bound,sink,confidence,violations")
    );
    lines
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            let number = |i: usize| -> f64 {
                fields[i]
                    .parse()
                    .unwrap_or_else(|e| panic!("field {i} of {line:?}: {e}"))
            };
            SinkRow {
                workload: fields[0].to_owned(),
                bound: number(1),
                sink: fields[2].to_owned(),
                confidence_pct: number(3) * 100.0,
                violations: fields[4].parse().expect("a count"),
            }
        })
        .collect()
}

/// `printed` is `exact` rounded to `decimals` places (either way on a tie,
/// since the CSV itself is rounded).
fn rounds_to(exact: f64, printed: f64, decimals: usize) -> bool {
    let half_unit = 0.5 * 10f64.powi(-i32::try_from(decimals).expect("few decimals"));
    (exact - printed).abs() <= half_unit + 1e-9
}

#[test]
fn headline_table_prints_the_headline_csv() {
    let doc = doc_rows(&repo_file("EXPERIMENTS.md"));
    let csv = csv_rows(&repo_file("results/headline_summary.csv"));
    assert_eq!(doc.len(), csv.len(), "one table row per CSV row");
    for (want, (got, [saved_dp, confidence_dp, speedup_dp])) in csv.iter().zip(&doc) {
        let at = format!("{} at {}", want.workload, want.bound);
        assert_eq!(got.workload, want.workload, "{at}: row order");
        assert!((got.bound - want.bound).abs() < 1e-9, "{at}: bound");
        assert!(
            rounds_to(want.saved_pct, got.saved_pct, *saved_dp),
            "{at}: saved {}% printed as {}%",
            want.saved_pct,
            got.saved_pct
        );
        assert!(
            rounds_to(want.confidence_pct, got.confidence_pct, *confidence_dp),
            "{at}: confidence {}% printed as {}%",
            want.confidence_pct,
            got.confidence_pct
        );
        assert!(
            rounds_to(want.speedup, got.speedup, *speedup_dp),
            "{at}: speedup {}x printed as {}x",
            want.speedup,
            got.speedup
        );
    }

    let doc = doc_sink_rows(&repo_file("EXPERIMENTS.md"));
    let csv = csv_sink_rows(&repo_file("results/headline_sinks.csv"));
    assert_eq!(doc.len(), csv.len(), "one per-sink row per CSV row");
    for (want, (got, confidence_dp)) in csv.iter().zip(&doc) {
        let at = format!("{} {} at {}", want.workload, want.sink, want.bound);
        assert_eq!(
            (&got.workload, &got.sink),
            (&want.workload, &want.sink),
            "{at}: row order"
        );
        assert!((got.bound - want.bound).abs() < 1e-9, "{at}: bound");
        assert!(
            rounds_to(want.confidence_pct, got.confidence_pct, *confidence_dp),
            "{at}: confidence {}% printed as {}%",
            want.confidence_pct,
            got.confidence_pct
        );
        assert_eq!(got.violations, want.violations, "{at}: violations");
    }
}

/// A percentage as the README prints it: one decimal, none when it is 0.
fn percent(value: f64) -> String {
    let text = format!("{value:.1}");
    text.strip_suffix(".0").map_or(text.clone(), str::to_owned)
}

#[test]
fn readme_lead_sentence_states_the_headline_csv() {
    let readme = repo_file("README.md");
    let lead = readme
        .split("\n\n")
        .find(|p| p.starts_with("Measured on this repository's two benchmark workloads"))
        .expect("README has the measured lead paragraph")
        .replace('\n', " ")
        .replace('*', "");
    let csv = csv_rows(&repo_file("results/headline_summary.csv"));
    let range = |value: fn(&Row) -> f64| {
        let values = csv.iter().map(value);
        let low = values.clone().fold(f64::INFINITY, f64::min);
        (low, values.fold(f64::NEG_INFINITY, f64::max))
    };
    let (least, most) = range(|r| r.saved_pct);
    let saved = format!("{least:.0}–{most:.0} % of step executions avoided");
    let (least, most) = range(|r| r.confidence_pct);
    let confidence = format!("{}–{} % confidence", percent(least), percent(most));
    let meeting = csv.iter().filter(|r| r.confidence_pct >= 95.0).count();
    let paper = format!(
        "{meeting} of the {} settings reach the paper's > 95 % confidence",
        csv.len()
    );
    for claim in [saved, confidence, paper] {
        assert!(
            lead.contains(&claim),
            "README's lead should say {claim:?}: {lead}"
        );
    }
}
