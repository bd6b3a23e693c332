//! `wavebench compare A.json B.json`: one row per workload × end-to-end
//! metric with both medians, their quartiles, the ratio with its base, and
//! a verdict from the benchmark's bounds. This is what the A/A acceptance
//! run uses, and what a later change's before/after is read with.

use std::process::ExitCode;

use crate::common::Context;
use crate::fmt_value;
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound, and by more
    /// than either side's own run-to-run spread.
    Worse,
    /// Not worse, but a side's spread exceeds the bound: the runs cannot
    /// tell a regression of that size from noise.
    Unresolved,
    Same,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// One side of a comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub spread: f64,
}

#[must_use]
pub fn verdict(def: &MetricDef, a: Side, b: Side) -> Verdict {
    let worsening = def.better.worsening(a.median, b.median);
    let noise = a.spread.max(b.spread);
    if worsening > def.bound && worsening > noise {
        Verdict::Worse
    } else if noise > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn side(result: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let f = |key: &str| m.get(key).and_then(Json::as_f64);
    Some(Side {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
        spread: f("spread")?,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).context(&format!("read {path}"))?;
    let doc = Json::parse(&text).context(&format!("parse {path}"))?;
    match doc.get("schema").and_then(Json::as_f64) {
        Some(v) if v == crate::suite::SCHEMA as f64 => Ok(doc),
        other => Err(format!(
            "{path}: result schema {other:?}, this build reads schema {}",
            crate::suite::SCHEMA
        )),
    }
}

pub fn cmd_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = paths else {
        return Err("compare takes two result files: wavebench compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let describe = |doc: &Json| {
        format!(
            "rev {} seed {} reps {}",
            doc.get("git_rev").and_then(Json::as_str).unwrap_or("?"),
            doc.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN),
            doc.get("repetitions")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        )
    };
    println!("A = {a_path} ({})", describe(&a));
    println!("B = {b_path} ({})", describe(&b));
    println!(
        "{:<14} {:<17} {:>22} {:>22} {:>22} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A (base A)", "bound"
    );
    let mut counts = [0usize; 3];
    let workloads = a.get("workloads").map(Json::members).unwrap_or_default();
    for (name, _) in workloads {
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(&a, name, def.name), side(&b, name, def.name)) else {
                println!("{name:<14} {:<17} missing on one side", def.name);
                continue;
            };
            let v = verdict(def, sa, sb);
            counts[v as usize] += 1;
            let cell = |s: Side| {
                format!(
                    "{} [{}, {}]",
                    fmt_value(s.median),
                    fmt_value(s.q1),
                    fmt_value(s.q3)
                )
            };
            let ratio = if sa.median == 0.0 {
                "n/a".to_owned()
            } else {
                format!(
                    "{:.3} (of {} {})",
                    sb.median / sa.median,
                    fmt_value(sa.median),
                    def.unit
                )
            };
            println!(
                "{name:<14} {:<17} {:>22} {:>22} {:>22} {:>6}  {}",
                def.name,
                cell(sa),
                cell(sb),
                ratio,
                def.bound,
                v.as_str()
            );
        }
    }
    println!(
        "{} worse, {} unresolved (run-to-run spread above the bound), {} same",
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize],
        counts[Verdict::Same as usize]
    );
    Ok(if counts[Verdict::Worse as usize] == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn steady(median: f64, spread: f64) -> Side {
        Side {
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
            spread,
        }
    }

    #[test]
    fn verdict_follows_bound_direction_and_spread() {
        let p50 = end_to_end("wave_p50_us").unwrap(); // lower is better
        let bound = p50.bound;
        let base = steady(1000.0, 0.02);
        assert_eq!(
            verdict(p50, base, steady(1000.0 * (1.0 + bound / 2.0), 0.02)),
            Verdict::Same
        );
        assert_eq!(
            verdict(p50, base, steady(1000.0 * (1.0 + bound * 2.0), 0.02)),
            Verdict::Worse
        );
        // Better is never worse.
        assert_eq!(verdict(p50, base, steady(500.0, 0.02)), Verdict::Same);
        // Noisy sides cannot resolve a shift inside the noise...
        let noisy = steady(1000.0, bound * 3.0);
        assert_eq!(
            verdict(p50, noisy, steady(1000.0 * (1.0 + bound * 2.0), 0.02)),
            Verdict::Unresolved
        );
        // ...but a shift far beyond it is still called.
        assert_eq!(verdict(p50, noisy, steady(3000.0, 0.02)), Verdict::Worse);

        let wps = end_to_end("waves_per_s").unwrap(); // higher is better
        assert_eq!(
            verdict(wps, base, steady(1000.0 * (1.0 - wps.bound * 2.0), 0.02)),
            Verdict::Worse
        );
        assert_eq!(verdict(wps, base, steady(2000.0, 0.02)), Verdict::Same);
    }
}
