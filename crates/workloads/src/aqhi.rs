//! The Air Quality Health Index (AQHI) workload — Fig. 6 of the paper.
//!
//! A grid of detectors, each with three sensors gauging Ozone (O3),
//! Particulate Matter (PM2.5) and Nitrogen Dioxide (NO2). Each wave is one
//! hour; "each sensor corresponds to a different generating function,
//! following a distribution with smooth variations across space" (§5.1),
//! returning values from 0 to 100. The workflow computes combined
//! concentrations, aggregates them into zones, interpolates a pollution
//! map, detects hotspots, and emits a health-risk index classified as low
//! (1–3), moderate (4–6), high (7–10) or very high (above 10).

use std::sync::Arc;

use smartflux::eval::WorkloadFactory;
use smartflux_datastore::{ContainerRef, DataStore, ScanFilter, Value};
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

use crate::gen::{diurnal, periodic_noise, unit_hash};

/// Table name used by this workload.
pub const TABLE: &str = "aqhi";
/// Waves in the paper's full simulated week (168 hourly waves).
pub const WEEK_WAVES: u64 = 168;
/// Intermediate (non-output) steps receive this fraction of the workflow's
/// error bound: budgeting half the tolerance to upstream staleness keeps the
/// *output* step's compounded deviation within its own bound.
pub const INTERMEDIATE_BOUND_FRACTION: f64 = 0.5;

/// Configuration of the AQHI workload.
#[derive(Debug, Clone)]
pub struct AqhiConfig {
    /// Detectors per grid side (`grid × grid` detectors total).
    pub grid: usize,
    /// Detectors per zone side (`zone_size × zone_size` detectors per zone).
    pub zone_size: usize,
    /// Error bound applied to every managed step.
    pub bound: f64,
    /// Concentration above which a zone is a hotspot.
    pub hotspot_reference: f64,
    /// Feed seed.
    pub seed: u64,
}

impl Default for AqhiConfig {
    fn default() -> Self {
        Self {
            grid: 8,
            zone_size: 2,
            bound: 0.10,
            hotspot_reference: 38.0,
            seed: 42,
        }
    }
}

impl AqhiConfig {
    /// A configuration with the given uniform error bound.
    #[must_use]
    pub fn with_bound(bound: f64) -> Self {
        Self {
            bound,
            ..Self::default()
        }
    }

    /// Number of detectors.
    #[must_use]
    pub fn detectors(&self) -> usize {
        self.grid * self.grid
    }

    /// Number of zones.
    #[must_use]
    pub fn zones(&self) -> usize {
        let per_side = self.grid / self.zone_size;
        per_side * per_side
    }
}

/// Generating function for one sensor of one detector at one wave.
///
/// Deterministic in `(seed, pollutant, detector, wave)`; smooth in both
/// space (neighbouring detectors share the spatial gradient) and time
/// (diurnal cycles plus slow value-noise drift). Returns `[0, 100]`.
#[must_use]
pub fn sensor_value(seed: u64, pollutant: Pollutant, x: usize, y: usize, wave: u64) -> f64 {
    PollutantField::new(seed, pollutant, wave).value(x, y)
}

/// One pollutant's field during one wave: everything [`sensor_value`]
/// computes that does not depend on the detector.
#[derive(Debug)]
struct PollutantField {
    seed: u64,
    wave: u64,
    p: u64,
    weight_diurnal: f64,
    drift_period: u64,
    day: f64,
    activity: f64,
    cx: f64,
    cy: f64,
}

impl PollutantField {
    fn new(seed: u64, pollutant: Pollutant, wave: u64) -> Self {
        let (phase, weight_diurnal, drift_period) = match pollutant {
            Pollutant::O3 => (0.0, 0.55, 6),   // photochemical: afternoon peak
            Pollutant::Pm25 => (3.0, 0.4, 8),  // slow-moving particulates
            Pollutant::No2 => (-4.0, 0.45, 4), // traffic-correlated
        };
        let p = pollutant as u64;
        let day = diurnal(wave, phase);
        // Activity regime: pollution dynamics are driven by photochemistry
        // and traffic, so nights are quiet (small input changes AND small
        // output changes) while days are busy — the correlated-regimes
        // premise of §2.3 that makes input impact predictive of output
        // error.
        let activity = 0.02 + 0.98 * day * day.sqrt();
        // A pollution plume wandering smoothly over the grid: the spatial
        // peak moves hour by hour, so zone rankings (and hence hotspots)
        // keep shifting the way real pollution fronts do.
        let cx = 8.0 * periodic_noise(seed ^ 0xC1, p, wave, 56, WEEK_WAVES);
        let cy = 8.0 * periodic_noise(seed ^ 0xC2, p, wave, 84, WEEK_WAVES);
        Self {
            seed,
            wave,
            p,
            weight_diurnal,
            drift_period,
            day,
            activity,
            cx,
            cy,
        }
    }

    /// The reading of the detector at `(x, y)`.
    fn value(&self, x: usize, y: usize) -> f64 {
        let (seed, p) = (self.seed, self.p);
        let dist =
            (((x as f64 - self.cx).powi(2) + (y as f64 - self.cy).powi(2)).sqrt() / 8.0).min(1.0);
        let spatial =
            0.3 + 0.55 * (1.0 - dist) + 0.15 * unit_hash(seed, p * 100 + x as u64, y as u64);
        let fast = periodic_noise(
            seed ^ 0xA0,
            p * 10_000 + (x * 97 + y) as u64,
            self.wave,
            self.drift_period,
            WEEK_WAVES,
        );
        let temporal = self.weight_diurnal * self.day + (1.0 - self.weight_diurnal) * fast;
        let value = (100.0 * spatial * (0.25 + 0.75 * temporal * self.activity)).clamp(0.0, 100.0);
        // Detectors report with a finite resolution of one unit — far above
        // the overnight micro-noise but well below daytime swings — so the
        // quiet regime produces genuinely unchanged readings.
        value.round()
    }
}

/// The three pollutants gauged by each detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pollutant {
    /// Ozone.
    O3 = 0,
    /// Particulate matter ≤ 2.5 µm.
    Pm25 = 1,
    /// Nitrogen dioxide.
    No2 = 2,
}

/// Maps an AQHI index value to the paper's health-risk classes.
#[must_use]
pub fn risk_class(index: f64) -> &'static str {
    if index <= 3.0 {
        "low"
    } else if index <= 6.0 {
        "moderate"
    } else if index <= 10.0 {
        "high"
    } else {
        "very-high"
    }
}

/// The row key of every detector, `det-XX-YY`, indexed by `x * grid + y`.
fn detector_rows(grid: usize) -> Arc<[String]> {
    (0..grid)
        .flat_map(|x| (0..grid).map(move |y| format!("det-{x:02}-{y:02}")))
        .collect()
}

/// The row key of every zone, `zone-X-Y`, indexed by `zx * per_side + zy`.
fn zone_rows(per_side: usize) -> Arc<[String]> {
    (0..per_side)
        .flat_map(|zx| (0..per_side).map(move |zy| format!("zone-{zx}-{zy}")))
        .collect()
}

/// The row key of every interpolation cell (the square between four
/// neighbouring detectors), `cell-XX-YY`, indexed by `x * (grid - 1) + y`.
fn cell_rows(grid: usize) -> Arc<[String]> {
    (0..grid - 1)
        .flat_map(|x| (0..grid - 1).map(move |y| format!("cell-{x:02}-{y:02}")))
        .collect()
}

/// Builds the AQHI workflow over `store` (the [`WorkloadFactory`] for this
/// workload).
///
/// Step structure (Fig. 6): `ingest → concentration → zones → hotspots →
/// index`, with the interpolated pollution map (`interp`) branching off
/// `concentration`.
#[derive(Debug, Clone, Default)]
pub struct AqhiFactory {
    /// Workload parameters.
    pub config: AqhiConfig,
}

impl AqhiFactory {
    /// A factory with the given uniform error bound on all managed steps.
    #[must_use]
    pub fn with_bound(bound: f64) -> Self {
        Self {
            config: AqhiConfig::with_bound(bound),
        }
    }

    /// Container holding the raw sensor readings.
    #[must_use]
    pub fn readings(&self) -> ContainerRef {
        ContainerRef::family(TABLE, "readings")
    }

    /// Container holding the final index.
    #[must_use]
    pub fn index(&self) -> ContainerRef {
        ContainerRef::family(TABLE, "index")
    }
}

impl WorkloadFactory for AqhiFactory {
    fn build(&self, store: &DataStore) -> Workflow {
        let cfg = self.config.clone();
        let families = [
            "readings",
            "concentration",
            "zones",
            "interp",
            "hotspots",
            "index",
        ];
        for f in families {
            store
                .ensure_container(&ContainerRef::family(TABLE, f))
                .expect("container setup cannot fail on a fresh store");
        }

        let mut g = GraphBuilder::new("aqhi");
        let ingest = g.add_step("ingest");
        let concentration = g.add_step("concentration");
        let zones = g.add_step("zones");
        let interp = g.add_step("interp");
        let hotspots = g.add_step("hotspots");
        let index = g.add_step("index");
        g.add_edge(ingest, concentration).expect("valid edge");
        g.add_edge(concentration, zones).expect("valid edge");
        g.add_edge(concentration, interp).expect("valid edge");
        g.add_edge(zones, hotspots).expect("valid edge");
        g.add_edge(hotspots, index).expect("valid edge");
        let mut wf = Workflow::new(g.build().expect("aqhi graph is a DAG"));

        let readings = ContainerRef::family(TABLE, "readings");
        let conc = ContainerRef::family(TABLE, "concentration");
        let zonesc = ContainerRef::family(TABLE, "zones");
        let interpc = ContainerRef::family(TABLE, "interp");
        let hotsc = ContainerRef::family(TABLE, "hotspots");

        // Row keys are built once per workflow and shared by every wave.
        let det_keys = detector_rows(cfg.grid);
        let zone_keys = zone_rows(cfg.grid / cfg.zone_size);
        let cell_keys = cell_rows(cfg.grid);

        // Step 1: simulate asynchronous arrival of sensory data; always runs.
        let (c, d) = (cfg.clone(), Arc::clone(&det_keys));
        wf.bind(
            ingest,
            FnStep::new(move |ctx: &StepContext| {
                let wave = ctx.wave();
                let [o3, pm25, no2] = [Pollutant::O3, Pollutant::Pm25, Pollutant::No2]
                    .map(|pollutant| PollutantField::new(c.seed, pollutant, wave));
                let mut readings = Vec::with_capacity(3 * d.len());
                for x in 0..c.grid {
                    for y in 0..c.grid {
                        let row = &*d[x * c.grid + y];
                        readings.extend([
                            (row, "o3", Value::from(o3.value(x, y))),
                            (row, "pm25", Value::from(pm25.value(x, y))),
                            (row, "no2", Value::from(no2.value(x, y))),
                        ]);
                    }
                }
                ctx.family(TABLE, "readings")?.put_many(readings)?;
                Ok(())
            }),
        )
        .source()
        .writes(readings.clone());
        // NOTE: every managed step below also *monitors* the raw readings
        // container. The paper's extended Oozie schema attaches arbitrary
        // data containers to a step's QoD clause; anchoring deep steps to
        // the always-fresh source keeps their input impact informative even
        // when intermediate steps have been skipped (combined with the Max
        // combiner configured in the engine's QoD spec).

        // Step 2: combined concentration via a multiplicative model.
        let d = Arc::clone(&det_keys);
        wf.bind(
            concentration,
            FnStep::new(move |ctx: &StepContext| {
                let readings = ctx.family(TABLE, "readings")?;
                let mut concentration = Vec::with_capacity(d.len());
                for row in d.iter() {
                    let o3 = readings.get_f64(row, "o3")?.unwrap_or(0.0);
                    let pm = readings.get_f64(row, "pm25")?.unwrap_or(0.0);
                    let no2 = readings.get_f64(row, "no2")?.unwrap_or(0.0);
                    let combined = 100.0
                        * (o3 / 100.0).powf(0.40)
                        * (pm / 100.0).powf(0.35)
                        * (no2 / 100.0).powf(0.25);
                    concentration.push((&**row, "value", Value::from(combined)));
                }
                ctx.family(TABLE, "concentration")?
                    .put_many(concentration)?;
                Ok(())
            }),
        )
        .reads(readings.clone())
        .writes(conc.clone())
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 3a: aggregate concentration per zone.
        let (c, d, z) = (cfg.clone(), Arc::clone(&det_keys), zone_keys);
        wf.bind(
            zones,
            FnStep::new(move |ctx: &StepContext| {
                let per_side = c.grid / c.zone_size;
                let concentration = ctx.family(TABLE, "concentration")?;
                let mut zones = Vec::with_capacity(z.len());
                for zx in 0..per_side {
                    for zy in 0..per_side {
                        let mut sum = 0.0;
                        for dx in 0..c.zone_size {
                            for dy in 0..c.zone_size {
                                let (x, y) = (zx * c.zone_size + dx, zy * c.zone_size + dy);
                                let row = &d[x * c.grid + y];
                                sum += concentration.get_f64(row, "value")?.unwrap_or(0.0);
                            }
                        }
                        let avg = sum / (c.zone_size * c.zone_size) as f64;
                        zones.push((&*z[zx * per_side + zy], "value", Value::from(avg)));
                    }
                }
                ctx.family(TABLE, "zones")?.put_many(zones)?;
                Ok(())
            }),
        )
        .reads(conc.clone())
        .reads(readings.clone())
        .writes(zonesc.clone())
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 3b: interpolate the concentration between detectors (the
        // monitoring-station chart).
        let (grid, d, cells) = (cfg.grid, det_keys, cell_keys);
        wf.bind(
            interp,
            FnStep::new(move |ctx: &StepContext| {
                let concentration = ctx.family(TABLE, "concentration")?;
                let mut interp = Vec::with_capacity(cells.len());
                for x in 0..grid - 1 {
                    for y in 0..grid - 1 {
                        let mut sum = 0.0;
                        for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                            let row = &d[(x + dx) * grid + y + dy];
                            sum += concentration.get_f64(row, "value")?.unwrap_or(0.0);
                        }
                        let cell = &*cells[x * (grid - 1) + y];
                        interp.push((cell, "value", Value::from(sum / 4.0)));
                    }
                }
                ctx.family(TABLE, "interp")?.put_many(interp)?;
                Ok(())
            }),
        )
        .reads(conc.clone())
        .reads(readings.clone())
        .writes(interpc)
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 4: zones above the reference become hotspots.
        let c = cfg.clone();
        wf.bind(
            hotspots,
            FnStep::new(move |ctx: &StepContext| {
                let rows = ctx.scan(TABLE, "zones", &ScanFilter::all())?;
                let mut hotspots = Vec::with_capacity(2 * rows.len());
                for row in &rows {
                    let v = row.f64("value").unwrap_or(0.0);
                    let hot = v > c.hotspot_reference;
                    // Flags are encoded 1 (clear) / 2 (hotspot) so the
                    // container keeps a non-zero previous-state sum for the
                    // relative error metrics.
                    hotspots.extend([
                        (&*row.key, "hot", Value::from(if hot { 2i64 } else { 1i64 })),
                        (
                            &row.key,
                            "excess",
                            Value::from((v - c.hotspot_reference).max(0.0)),
                        ),
                    ]);
                }
                ctx.family(TABLE, "hotspots")?.put_many(hotspots)?;
                Ok(())
            }),
        )
        .reads(zonesc)
        .reads(readings.clone())
        .writes(hotsc.clone())
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 5: additive model over the detected hotspots.
        wf.bind(
            index,
            FnStep::new(move |ctx: &StepContext| {
                // Additive model: each hotspot contributes its pollution
                // excess, so the index moves smoothly as fronts build up
                // rather than jumping by whole units per zone flip.
                let mut hot_excess = 0.0;
                ctx.family(TABLE, "hotspots")?.for_each_row(|_, row| {
                    hot_excess += row.f64("excess").unwrap_or(0.0);
                })?;
                let index_value = 1.0 + hot_excess / 8.0;
                ctx.family(TABLE, "index")?.put_many(vec![
                    ("region", "value", Value::from(index_value)),
                    ("region", "class", Value::from(risk_class(index_value))),
                ])?;
                Ok(())
            }),
        )
        .reads(hotsc)
        .reads(readings)
        .writes(ContainerRef::column(TABLE, "index", "value"))
        .error_bound(cfg.bound);

        debug_assert!(wf.first_unbound().is_none());
        wf
    }

    fn output_step(&self) -> &str {
        "index"
    }

    fn name(&self) -> &str {
        "aqhi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux_wms::{Scheduler, SynchronousPolicy};

    #[test]
    fn sensor_values_bounded_and_smooth() {
        for w in 0..WEEK_WAVES {
            let v = sensor_value(1, Pollutant::O3, 3, 4, w);
            assert!((0.0..=100.0).contains(&v));
        }
        let max_step = (1..WEEK_WAVES)
            .map(|w| {
                (sensor_value(1, Pollutant::Pm25, 2, 2, w)
                    - sensor_value(1, Pollutant::Pm25, 2, 2, w - 1))
                .abs()
            })
            .fold(0.0, f64::max);
        assert!(max_step < 15.0, "hourly jump {max_step} too steep");
    }

    /// The ingest step's path — each pollutant's field once per wave, then
    /// one read per detector — reports `sensor_value` bit for bit, for every
    /// detector and pollutant over a whole week.
    #[test]
    fn per_wave_fields_equal_sensor_value() {
        let cfg = AqhiConfig::default();
        for seed in [42, 17] {
            for wave in 0..WEEK_WAVES {
                for pollutant in [Pollutant::O3, Pollutant::Pm25, Pollutant::No2] {
                    let field = PollutantField::new(seed, pollutant, wave);
                    for x in 0..cfg.grid {
                        for y in 0..cfg.grid {
                            assert_eq!(
                                field.value(x, y).to_bits(),
                                sensor_value(seed, pollutant, x, y, wave).to_bits(),
                                "seed {seed} {pollutant:?} ({x}, {y}) wave {wave}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// What the ingest step writes is `sensor_value`.
    #[test]
    fn ingest_writes_sensor_value() {
        let factory = AqhiFactory::default();
        let cfg = &factory.config;
        let store = DataStore::new();
        let mut sched = Scheduler::new(
            factory.build(&store),
            store.clone(),
            Box::new(SynchronousPolicy),
        );
        for _ in 0..24 {
            let wave = sched.next_wave();
            sched.run_waves(1).unwrap();
            for x in 0..cfg.grid {
                for y in 0..cfg.grid {
                    let row = format!("det-{x:02}-{y:02}");
                    for (col, pollutant) in [
                        ("o3", Pollutant::O3),
                        ("pm25", Pollutant::Pm25),
                        ("no2", Pollutant::No2),
                    ] {
                        let got = store.get(TABLE, "readings", &row, col).unwrap().unwrap();
                        let want = sensor_value(cfg.seed, pollutant, x, y, wave);
                        assert_eq!(got.as_f64(), Some(want), "{row} {col} wave {wave}");
                    }
                }
            }
        }
    }

    /// The prebuilt key tables hold the keys the steps once formatted per
    /// cell, at the index the steps look them up by.
    #[test]
    fn key_tables_match_formatted_keys() {
        let wide = AqhiConfig {
            grid: 10,
            zone_size: 5,
            ..AqhiConfig::default()
        };
        for cfg in [AqhiConfig::default(), wide] {
            let detectors = detector_rows(cfg.grid);
            assert_eq!(detectors.len(), cfg.detectors());
            let per_side = cfg.grid / cfg.zone_size;
            let zones = zone_rows(per_side);
            assert_eq!(zones.len(), cfg.zones());
            let cells = cell_rows(cfg.grid);
            assert_eq!(cells.len(), (cfg.grid - 1) * (cfg.grid - 1));
            for x in 0..cfg.grid {
                for y in 0..cfg.grid {
                    assert_eq!(detectors[x * cfg.grid + y], format!("det-{x:02}-{y:02}"));
                }
            }
            for zx in 0..per_side {
                for zy in 0..per_side {
                    assert_eq!(zones[zx * per_side + zy], format!("zone-{zx}-{zy}"));
                }
            }
            for x in 0..cfg.grid - 1 {
                for y in 0..cfg.grid - 1 {
                    assert_eq!(cells[x * (cfg.grid - 1) + y], format!("cell-{x:02}-{y:02}"));
                }
            }
        }
    }

    #[test]
    fn risk_classes_match_paper_ranges() {
        assert_eq!(risk_class(1.0), "low");
        assert_eq!(risk_class(3.0), "low");
        assert_eq!(risk_class(5.0), "moderate");
        assert_eq!(risk_class(8.0), "high");
        assert_eq!(risk_class(12.0), "very-high");
    }

    #[test]
    fn workflow_runs_synchronously_and_produces_an_index() {
        let factory = AqhiFactory::with_bound(0.1);
        let store = DataStore::new();
        let wf = factory.build(&store);
        let mut sched = Scheduler::new(wf, store.clone(), Box::new(SynchronousPolicy));
        sched.run_waves(6).unwrap();
        let idx = store.get(TABLE, "index", "region", "value").unwrap();
        assert!(idx.is_some());
        let class = store
            .get(TABLE, "index", "region", "class")
            .unwrap()
            .unwrap();
        assert!(["low", "moderate", "high", "very-high"].contains(&class.as_text().unwrap()));
        // All detectors reported.
        assert_eq!(
            store
                .cell_count(&ContainerRef::family(TABLE, "readings"))
                .unwrap(),
            factory.config.detectors() * 3
        );
        assert_eq!(
            store
                .cell_count(&ContainerRef::family(TABLE, "zones"))
                .unwrap(),
            factory.config.zones()
        );
    }

    #[test]
    fn twin_builds_are_identical() {
        let factory = AqhiFactory::with_bound(0.05);
        let (s1, s2) = (DataStore::new(), DataStore::new());
        let mut a = Scheduler::new(factory.build(&s1), s1.clone(), Box::new(SynchronousPolicy));
        let mut b = Scheduler::new(factory.build(&s2), s2.clone(), Box::new(SynchronousPolicy));
        a.run_waves(5).unwrap();
        b.run_waves(5).unwrap();
        let c = ContainerRef::family(TABLE, "index");
        assert_eq!(s1.snapshot(&c).unwrap(), s2.snapshot(&c).unwrap());
        let c = ContainerRef::family(TABLE, "interp");
        assert_eq!(s1.snapshot(&c).unwrap(), s2.snapshot(&c).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let mut f1 = AqhiFactory::with_bound(0.05);
        f1.config.seed = 1;
        let mut f2 = AqhiFactory::with_bound(0.05);
        f2.config.seed = 2;
        let (s1, s2) = (DataStore::new(), DataStore::new());
        let mut a = Scheduler::new(f1.build(&s1), s1.clone(), Box::new(SynchronousPolicy));
        let mut b = Scheduler::new(f2.build(&s2), s2.clone(), Box::new(SynchronousPolicy));
        a.run_waves(2).unwrap();
        b.run_waves(2).unwrap();
        let c = ContainerRef::family(TABLE, "readings");
        assert_ne!(s1.snapshot(&c).unwrap(), s2.snapshot(&c).unwrap());
    }

    #[test]
    fn factory_declares_output_step() {
        let f = AqhiFactory::default();
        let store = DataStore::new();
        let wf = f.build(&store);
        let id = wf.graph().step_id(f.output_step()).unwrap();
        assert!(wf.graph().sinks().contains(&id));
        assert!(wf.info(id).error_bound().is_some());
    }
}
