//! The fire-risk assessment workload — the paper's motivational example
//! (Fig. 1/2) with the Amazon-rainforest weather curves of Fig. 3.
//!
//! A network of sensors equally distributed over a forest reports
//! temperature, precipitation and wind every wave. The workflow updates an
//! internal forest map, divides it into areas, assesses each area's fire
//! risk, and finally the overall risk plus contiguous risky areas
//! (hotspots). Two zero-error-tolerance steps follow: gathering satellite
//! imagery for burning areas and issuing a displacement order to the fire
//! department.

use std::sync::Arc;

use smartflux::eval::WorkloadFactory;
use smartflux_datastore::{ContainerRef, DataStore, ScanFilter, Value};
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

use crate::gen::{diurnal, periodic_noise, unit_hash};

/// Table name used by this workload.
pub const TABLE: &str = "fire";
/// Waves in one repeating weather cycle (a simulated week of hourly waves).
pub const WEEK_WAVES: u64 = 168;
/// Intermediate (non-output) steps receive this fraction of the workflow's
/// error bound. The fraction is small because the risk map amplifies
/// relative staleness: the score is proportional to `T − 24 °C` while the
/// sensor container's relative error is measured against `T ≈ 27 °C`, a
/// gain of roughly 3–4× through the chain.
pub const INTERMEDIATE_BOUND_FRACTION: f64 = 0.15;

/// Configuration of the fire-risk workload.
#[derive(Debug, Clone)]
pub struct FireConfig {
    /// Sensors per grid side.
    pub grid: usize,
    /// Sensors per area side.
    pub area_size: usize,
    /// Error bound applied to every managed step.
    pub bound: f64,
    /// Feed seed.
    pub seed: u64,
    /// Heat-wave intensity in `[0, 1]`; raises temperatures so risk levels
    /// and hotspots actually move (0 reproduces a calm Fig. 3 day).
    pub heat_wave: f64,
}

impl Default for FireConfig {
    fn default() -> Self {
        Self {
            grid: 8,
            area_size: 2,
            bound: 0.10,
            seed: 11,
            heat_wave: 0.4,
        }
    }
}

impl FireConfig {
    /// A configuration with the given uniform error bound.
    #[must_use]
    pub fn with_bound(bound: f64) -> Self {
        Self {
            bound,
            ..Self::default()
        }
    }
}

/// A single wave's weather at one sensor, following the diurnal shapes of
/// Fig. 3: temperature 24–30 °C, precipitation 0–0.8 mm, wind 2–8 km/h,
/// varying "progressively over 24 hours without major steep slopes".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weather {
    /// Temperature in °C.
    pub temperature: f64,
    /// Precipitation in mm.
    pub precipitation: f64,
    /// Wind speed in km/h.
    pub wind: f64,
}

/// Generates the weather for sensor `(x, y)` at `wave` (one wave = one
/// hour).
#[must_use]
pub fn weather(seed: u64, x: usize, y: usize, wave: u64, heat_wave: f64) -> Weather {
    let s = (x * 131 + y) as u64;
    let day = diurnal(wave, 0.0);
    let drift = periodic_noise(seed ^ 0xF1, s, wave, 28, WEEK_WAVES);
    let temperature = 24.0
        + 6.0 * day * (0.8 + 0.2 * drift)
        + 4.0 * heat_wave * periodic_noise(seed ^ 0xF2, s, wave, 56, WEEK_WAVES);
    // Precipitation: mostly near zero, occasional showers (cubed noise),
    // anti-correlated with the afternoon heat.
    let shower = periodic_noise(seed ^ 0xF3, s, wave, 14, WEEK_WAVES).powi(3);
    let precipitation = (0.8 * shower * (1.0 - 0.6 * day)).max(0.0);
    let wind = 2.0 + 6.0 * periodic_noise(seed ^ 0xF4, s, wave, 21, WEEK_WAVES) * (0.6 + 0.4 * day);
    Weather {
        temperature,
        precipitation,
        wind,
    }
}

/// Continuous fire-risk score of an area in `[0, 1]` from its aggregated
/// weather.
#[must_use]
pub fn risk_score(temperature: f64, precipitation: f64, wind: f64) -> f64 {
    let heat = ((temperature - 24.0) / 10.0).clamp(0.0, 1.0);
    let dryness = (1.0 - precipitation / 0.8).clamp(0.0, 1.0);
    let gust = (wind / 8.0).clamp(0.0, 1.0);
    (0.55 * heat + 0.25 * dryness + 0.20 * gust).clamp(0.0, 1.0)
}

/// Discretises a risk score into 5 levels (0 = minimal … 4 = extreme).
#[must_use]
pub fn risk_level(score: f64) -> i64 {
    ((score * 5.0) as i64).min(4)
}

/// The row key of every sensor, `s-XX-YY`, indexed by `x * grid + y`.
fn sensor_rows(grid: usize) -> Arc<[String]> {
    (0..grid)
        .flat_map(|x| (0..grid).map(move |y| format!("s-{x:02}-{y:02}")))
        .collect()
}

/// The row key of every area, `a-X-Y`, indexed by `ax * per_side + ay`.
fn area_rows(per_side: usize) -> Arc<[String]> {
    (0..per_side)
        .flat_map(|ax| (0..per_side).map(move |ay| format!("a-{ax}-{ay}")))
        .collect()
}

/// Builds the fire-risk workflow over a store.
#[derive(Debug, Clone, Default)]
pub struct FireFactory {
    /// Workload parameters.
    pub config: FireConfig,
}

impl FireFactory {
    /// A factory with the given uniform error bound on all managed steps.
    #[must_use]
    pub fn with_bound(bound: f64) -> Self {
        Self {
            config: FireConfig::with_bound(bound),
        }
    }
}

impl WorkloadFactory for FireFactory {
    #[allow(clippy::too_many_lines)]
    fn build(&self, store: &DataStore) -> Workflow {
        let cfg = self.config.clone();
        for f in [
            "sensors",
            "areas",
            "thermal",
            "risk",
            "overall",
            "satellite",
            "orders",
        ] {
            store
                .ensure_container(&ContainerRef::family(TABLE, f))
                .expect("container setup cannot fail on a fresh store");
        }

        let mut g = GraphBuilder::new("fire-risk");
        let map_update = g.add_step("map-update");
        let calc_areas = g.add_step("calculate-areas");
        let thermal = g.add_step("thermal-map");
        let area_risk = g.add_step("assess-area-risk");
        let overall = g.add_step("overall-risk");
        let satellite = g.add_step("satellite-images");
        let orders = g.add_step("displacement-order");
        g.add_edge(map_update, calc_areas).expect("valid edge");
        g.add_edge(calc_areas, thermal).expect("valid edge");
        g.add_edge(calc_areas, area_risk).expect("valid edge");
        g.add_edge(area_risk, overall).expect("valid edge");
        g.add_edge(area_risk, satellite).expect("valid edge");
        g.add_edge(satellite, orders).expect("valid edge");
        let mut wf = Workflow::new(g.build().expect("fire graph is a DAG"));

        let sensors = ContainerRef::family(TABLE, "sensors");
        let areas = ContainerRef::family(TABLE, "areas");
        let thermalc = ContainerRef::family(TABLE, "thermal");
        let riskc = ContainerRef::family(TABLE, "risk");
        let satc = ContainerRef::family(TABLE, "satellite");
        let ordersc = ContainerRef::family(TABLE, "orders");

        // Row keys are built once per workflow and shared by every wave.
        let sensor_keys = sensor_rows(cfg.grid);
        let area_keys = area_rows(cfg.grid / cfg.area_size);

        // Step 1: map update — always executed ("it is not possible to
        // maintain sensory data across waves without the execution of this
        // step").
        let (c, k) = (cfg.clone(), Arc::clone(&sensor_keys));
        wf.bind(
            map_update,
            FnStep::new(move |ctx: &StepContext| {
                let mut sensors = Vec::with_capacity(3 * k.len());
                for x in 0..c.grid {
                    for y in 0..c.grid {
                        let w = weather(c.seed, x, y, ctx.wave(), c.heat_wave);
                        let row = &*k[x * c.grid + y];
                        sensors.extend([
                            (row, "temp", Value::from(w.temperature)),
                            (row, "precip", Value::from(w.precipitation)),
                            (row, "wind", Value::from(w.wind)),
                        ]);
                    }
                }
                ctx.family(TABLE, "sensors")?.put_many(sensors)?;
                Ok(())
            }),
        )
        .source()
        .writes(sensors.clone());
        // Managed steps below also monitor the raw sensors container as a
        // QoD anchor (combine with a Max combiner), keeping deep steps'
        // impact informative when intermediates were skipped.

        // Step 2a: divide the forest into areas, combining sensor measures.
        let c = cfg.clone();
        wf.bind(
            calc_areas,
            FnStep::new(move |ctx: &StepContext| {
                let per_side = c.grid / c.area_size;
                let sensors = ctx.family(TABLE, "sensors")?;
                let mut areas = Vec::with_capacity(3 * area_keys.len());
                for ax in 0..per_side {
                    for ay in 0..per_side {
                        let (mut t, mut p, mut w) = (0.0, 0.0, 0.0);
                        for dx in 0..c.area_size {
                            for dy in 0..c.area_size {
                                let (x, y) = (ax * c.area_size + dx, ay * c.area_size + dy);
                                let row = &sensor_keys[x * c.grid + y];
                                t += sensors.get_f64(row, "temp")?.unwrap_or(0.0);
                                p += sensors.get_f64(row, "precip")?.unwrap_or(0.0);
                                w += sensors.get_f64(row, "wind")?.unwrap_or(0.0);
                            }
                        }
                        let n = (c.area_size * c.area_size) as f64;
                        let row = &*area_keys[ax * per_side + ay];
                        areas.extend([
                            (row, "temp", Value::from(t / n)),
                            (row, "precip", Value::from(p / n)),
                            (row, "wind", Value::from(w / n)),
                        ]);
                    }
                }
                ctx.family(TABLE, "areas")?.put_many(areas)?;
                Ok(())
            }),
        )
        .reads(sensors.clone())
        .writes(areas.clone())
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 2b: thermal map for the monitoring station.
        wf.bind(
            thermal,
            FnStep::new(move |ctx: &StepContext| {
                let rows = ctx.scan(TABLE, "areas", &ScanFilter::all().with_qualifier("temp"))?;
                let mut thermal = Vec::with_capacity(rows.len());
                for row in &rows {
                    let t = row.f64("temp").unwrap_or(24.0);
                    // Shade in [0, 255] for the rendering pipeline.
                    let shade = ((t - 22.0) / 12.0 * 255.0).clamp(0.0, 255.0);
                    thermal.push((&*row.key, "shade", Value::from(shade)));
                }
                ctx.family(TABLE, "thermal")?.put_many(thermal)?;
                Ok(())
            }),
        )
        .reads(areas.clone())
        .writes(thermalc)
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 3: assess each area's fire risk.
        wf.bind(
            area_risk,
            FnStep::new(move |ctx: &StepContext| {
                let rows = ctx.scan(TABLE, "areas", &ScanFilter::all())?;
                let mut risk = Vec::with_capacity(2 * rows.len());
                for row in &rows {
                    let t = row.f64("temp").unwrap_or(24.0);
                    let p = row.f64("precip").unwrap_or(0.0);
                    let w = row.f64("wind").unwrap_or(2.0);
                    let score = risk_score(t, p, w);
                    risk.extend([
                        (&*row.key, "score", Value::from(score)),
                        (&row.key, "level", Value::from(risk_level(score))),
                    ]);
                }
                ctx.family(TABLE, "risk")?.put_many(risk)?;
                Ok(())
            }),
        )
        .reads(areas)
        .reads(sensors.clone())
        .writes(riskc.clone())
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 4a: overall risk and hotspots — the workflow output; its
        // bound should make only decision-relevant changes propagate.
        wf.bind(
            overall,
            FnStep::new(move |ctx: &StepContext| {
                let mut total = 0.0;
                let mut n = 0.0;
                let mut hotspots = 0.0;
                ctx.family(TABLE, "risk")?.for_each_row(|_, row| {
                    let score = row.f64("score").unwrap_or(0.0);
                    total += score;
                    n += 1.0;
                    if row.f64("level").unwrap_or(0.0) >= 3.0 {
                        hotspots += 1.0;
                    }
                })?;
                let avg = if n > 0.0 { total / n } else { 0.0 };
                ctx.family(TABLE, "overall")?.put_many(vec![
                    ("region", "risk", Value::from(avg)),
                    ("region", "hotspots", Value::from(hotspots)),
                    ("region", "level", Value::from(risk_level(avg))),
                ])?;
                Ok(())
            }),
        )
        .reads(riskc.clone())
        .reads(sensors.clone())
        .writes(ContainerRef::column(TABLE, "overall", "risk"))
        .error_bound(cfg.bound);

        // Step 4b: gather satellite images for burning areas — critical,
        // tolerates no error, so it always runs.
        let c = cfg.clone();
        wf.bind(
            satellite,
            FnStep::new(move |ctx: &StepContext| {
                let rows = ctx.scan(TABLE, "risk", &ScanFilter::all().with_qualifier("level"))?;
                let mut satellite = Vec::new();
                for row in &rows {
                    let level = row.f64("level").unwrap_or(0.0);
                    if level >= 4.0 {
                        // Deterministic "image analysis": confirm a fire in
                        // a small fraction of extreme-risk inspections.
                        let confirmed = unit_hash(c.seed ^ 0xAB, ctx.wave(), 0) < 0.3;
                        satellite.push((
                            &*row.key,
                            "fire_confirmed",
                            Value::from(i64::from(confirmed)),
                        ));
                    }
                }
                ctx.family(TABLE, "satellite")?.put_many(satellite)?;
                Ok(())
            }),
        )
        .source()
        .reads(riskc)
        .writes(satc.clone());

        // Step 5: issue a displacement order when a fire is confirmed —
        // critical, always runs.
        wf.bind(
            orders,
            FnStep::new(move |ctx: &StepContext| {
                let mut confirmed = 0i64;
                ctx.family(TABLE, "satellite")?.for_each_row(|_, row| {
                    confirmed += i64::from(row.f64("fire_confirmed").unwrap_or(0.0) > 0.5);
                })?;
                ctx.put(TABLE, "orders", "region", "pending", Value::from(confirmed))?;
                Ok(())
            }),
        )
        .source()
        .reads(satc)
        .writes(ordersc);

        debug_assert!(wf.first_unbound().is_none());
        wf
    }

    fn output_step(&self) -> &str {
        "overall-risk"
    }

    fn name(&self) -> &str {
        "fire-risk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux_wms::{Scheduler, SynchronousPolicy};

    #[test]
    fn weather_matches_fig3_ranges() {
        for wave in 0..168 {
            let w = weather(11, 3, 3, wave, 0.0);
            assert!(
                (23.0..=31.0).contains(&w.temperature),
                "temp {}",
                w.temperature
            );
            assert!((0.0..=0.85).contains(&w.precipitation));
            assert!((1.5..=8.5).contains(&w.wind));
        }
    }

    #[test]
    fn weather_changes_gradually() {
        let max_step = (1..168)
            .map(|wv| {
                (weather(11, 0, 0, wv, 0.3).temperature
                    - weather(11, 0, 0, wv - 1, 0.3).temperature)
                    .abs()
            })
            .fold(0.0, f64::max);
        assert!(max_step < 2.0, "hourly temperature jump {max_step}");
    }

    #[test]
    fn risk_score_ordering() {
        let calm = risk_score(24.0, 0.8, 2.0);
        let scorching = risk_score(34.0, 0.0, 8.0);
        assert!(calm < 0.3);
        assert!(scorching > 0.9);
        assert!(risk_level(calm) < risk_level(scorching));
        assert_eq!(risk_level(1.0), 4);
    }

    #[test]
    fn workflow_produces_overall_risk() {
        let factory = FireFactory::with_bound(0.1);
        let store = DataStore::new();
        let wf = factory.build(&store);
        assert_eq!(wf.graph().len(), 7);
        let mut sched = Scheduler::new(wf, store.clone(), Box::new(SynchronousPolicy));
        sched.run_waves(12).unwrap();
        let risk = store
            .get(TABLE, "overall", "region", "risk")
            .unwrap()
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((0.0..=1.0).contains(&risk));
        assert!(store
            .get(TABLE, "orders", "region", "pending")
            .unwrap()
            .is_some());
    }

    #[test]
    fn twin_builds_are_identical() {
        let factory = FireFactory::with_bound(0.05);
        let (s1, s2) = (DataStore::new(), DataStore::new());
        let mut a = Scheduler::new(factory.build(&s1), s1.clone(), Box::new(SynchronousPolicy));
        let mut b = Scheduler::new(factory.build(&s2), s2.clone(), Box::new(SynchronousPolicy));
        a.run_waves(6).unwrap();
        b.run_waves(6).unwrap();
        let c = ContainerRef::family(TABLE, "overall");
        assert_eq!(s1.snapshot(&c).unwrap(), s2.snapshot(&c).unwrap());
    }

    /// The prebuilt key tables hold the keys the steps once formatted per
    /// cell, at the index the steps look them up by.
    #[test]
    fn key_tables_match_formatted_keys() {
        let wide = FireConfig {
            grid: 10,
            area_size: 5,
            ..FireConfig::default()
        };
        for cfg in [FireConfig::default(), wide] {
            let sensors = sensor_rows(cfg.grid);
            assert_eq!(sensors.len(), cfg.grid * cfg.grid);
            let per_side = cfg.grid / cfg.area_size;
            let areas = area_rows(per_side);
            assert_eq!(areas.len(), per_side * per_side);
            for x in 0..cfg.grid {
                for y in 0..cfg.grid {
                    assert_eq!(sensors[x * cfg.grid + y], format!("s-{x:02}-{y:02}"));
                }
            }
            for ax in 0..per_side {
                for ay in 0..per_side {
                    assert_eq!(areas[ax * per_side + ay], format!("a-{ax}-{ay}"));
                }
            }
        }
    }

    #[test]
    fn critical_steps_always_run() {
        let factory = FireFactory::default();
        let store = DataStore::new();
        let wf = factory.build(&store);
        for name in ["map-update", "satellite-images", "displacement-order"] {
            let id = wf.graph().step_id(name).unwrap();
            assert!(wf.info(id).always_run(), "{name}");
        }
    }
}
