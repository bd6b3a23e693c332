//! The Linear Road Benchmark (LRB) tolling workload — Fig. 5 of the paper.
//!
//! A variable tolling system for a fictional urban expressway structure.
//! The paper feeds it vehicle position reports and historical query
//! requests generated by MIT-SIMLab; we substitute a deterministic seeded
//! micro-simulator that produces the same regimes: vehicles wandering over
//! expressway segments, rush-hour congestion cycles, occasional accidents
//! that stall traffic, and a rotating set of travel-time queries.
//!
//! Workflow steps (grey rectangles are data containers in the paper):
//!
//! ```text
//! feeder ─┬─ update-positions ─┬─ avg-speed ────┐
//!         │                    ├─ car-count ────┤── congestion ── classify
//!         │                    └─ detect-accidents ┘        └─ travel-time
//!         └─ process-queries ───────────────────────────────────┘
//! ```

use std::sync::Arc;

use smartflux::eval::WorkloadFactory;
use smartflux_datastore::{ContainerRef, DataStore, ScanFilter, Value};
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

use crate::gen::{periodic_noise, unit_hash};

/// Table name used by this workload.
pub const TABLE: &str = "lrb";
/// Waves in one simulated traffic day (the cycle of the repeating pattern).
pub const DAY_WAVES: u64 = 240;
/// Intermediate (non-output) steps receive this fraction of the workflow's
/// error bound, budgeting part of the tolerance to upstream staleness so
/// the output step's compounded deviation stays within its own bound.
pub const INTERMEDIATE_BOUND_FRACTION: f64 = 0.5;

/// Configuration of the LRB workload.
#[derive(Debug, Clone)]
pub struct LrbConfig {
    /// Number of expressways.
    pub xways: usize,
    /// Segments per expressway.
    pub segments: usize,
    /// Simulated vehicles.
    pub vehicles: usize,
    /// Rotating historical-query slots.
    pub query_slots: usize,
    /// Error bound applied to every managed step.
    pub bound: f64,
    /// Feed seed.
    pub seed: u64,
}

impl Default for LrbConfig {
    fn default() -> Self {
        Self {
            xways: 4,
            segments: 20,
            vehicles: 240,
            query_slots: 12,
            bound: 0.10,
            seed: 7,
        }
    }
}

impl LrbConfig {
    /// A configuration with the given uniform error bound.
    #[must_use]
    pub fn with_bound(bound: f64) -> Self {
        Self {
            bound,
            ..Self::default()
        }
    }

    /// Total segments across all expressways.
    #[must_use]
    pub fn total_segments(&self) -> usize {
        self.xways * self.segments
    }
}

/// Congestion level of an expressway at a wave, in `[0, 1]`: rush-hour
/// peaks (waves are minutes; a "day" is [`DAY_WAVES`] waves) plus a slow
/// drift.
#[must_use]
pub fn congestion_level(seed: u64, xway: usize, wave: u64) -> f64 {
    let day_wave = wave % DAY_WAVES;
    let hour = day_wave as f64 / 10.0; // 240 waves → 24 "hours"
    let morning = (-((hour - 8.0) / 2.0).powi(2)).exp();
    let evening = (-((hour - 18.0) / 2.5).powi(2)).exp();
    let rush = (morning + evening).min(1.0);
    let drift = periodic_noise(seed ^ 0x11, xway as u64, wave, 40, DAY_WAVES);
    (0.65 * rush + 0.35 * drift).clamp(0.0, 1.0)
}

/// Returns the accident-stricken segment (below `segments`) of `xway`
/// during `wave`, if any.
///
/// Accidents are rare (≈8% of 13-wave windows per expressway) and pin a
/// deterministic segment for the whole window.
#[must_use]
pub fn accident_segment(seed: u64, xway: usize, segments: usize, wave: u64) -> Option<usize> {
    let window = (wave / 12) % (DAY_WAVES / 12);
    let roll = unit_hash(seed ^ 0x22, xway as u64, window);
    if roll < 0.08 {
        Some((unit_hash(seed ^ 0x33, xway as u64, window) * 1e6) as usize % segments)
    } else {
        None
    }
}

/// The segment a vehicle occupies at a wave (wandering smoothly).
#[must_use]
pub fn vehicle_segment(seed: u64, vehicle: usize, segments: usize, wave: u64) -> usize {
    let pos = periodic_noise(seed ^ 0x44, vehicle as u64, wave, 24, DAY_WAVES);
    ((pos * segments as f64) as usize).min(segments - 1)
}

/// What one expressway's traffic looks like during one wave, shared by
/// every vehicle on it.
#[derive(Debug)]
struct XwayWave {
    seed: u64,
    wave: u64,
    congestion: f64,
    accident: Option<usize>,
}

impl XwayWave {
    fn new(cfg: &LrbConfig, xway: usize, wave: u64) -> Self {
        Self {
            seed: cfg.seed,
            wave,
            congestion: congestion_level(cfg.seed, xway, wave),
            accident: accident_segment(cfg.seed, xway, cfg.segments, wave),
        }
    }

    /// The speed `vehicle`, on segment `seg` of this expressway, reports.
    fn speed(&self, vehicle: usize, seg: usize) -> f64 {
        let mut speed = 90.0 * (1.0 - 0.62 * self.congestion);
        if let Some(acc_seg) = self.accident {
            let dist = seg.abs_diff(acc_seg);
            if dist <= 2 {
                speed *= match dist {
                    0 => 0.1,
                    1 => 0.4,
                    _ => 0.7,
                };
            }
        }
        let noise = periodic_noise(self.seed ^ 0x55, vehicle as u64, self.wave, 8, DAY_WAVES);
        (speed * (0.85 + 0.3 * noise)).max(3.0)
    }
}

/// The speed a vehicle reports at a wave (km/h).
#[must_use]
pub fn vehicle_speed(cfg: &LrbConfig, vehicle: usize, wave: u64) -> f64 {
    let seg = vehicle_segment(cfg.seed, vehicle, cfg.segments, wave);
    XwayWave::new(cfg, vehicle % cfg.xways, wave).speed(vehicle, seg)
}

/// Maps a toll level to its congestion class (1..=5), the quantisation the
/// `classify` step applies.
#[must_use]
pub fn toll_class(toll: f64) -> i64 {
    match toll {
        t if t < 0.5 => 1,
        t if t < 2.0 => 2,
        t if t < 5.0 => 3,
        t if t < 10.0 => 4,
        _ => 5,
    }
}

/// A custom input-impact function for the `classify` step (§4.2 of the
/// paper): counts the congestion-container elements whose toll crossed a
/// class boundary, weighting by how many boundaries were crossed. Because
/// `classify` is a pure quantisation of the tolls, this impact tracks its
/// output error almost exactly — the kind of domain-specific function the
/// paper's `update`/`compute` API exists for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TollClassImpact {
    crossings: f64,
}

impl smartflux::MetricFn for TollClassImpact {
    fn reset(&mut self) {
        self.crossings = 0.0;
    }

    fn update(
        &mut self,
        new: Option<&smartflux_datastore::Value>,
        old: Option<&smartflux_datastore::Value>,
    ) {
        let n = new
            .and_then(smartflux_datastore::Value::as_f64)
            .unwrap_or(0.0);
        let o = old
            .and_then(smartflux_datastore::Value::as_f64)
            .unwrap_or(0.0);
        self.crossings += (toll_class(n) - toll_class(o)).abs() as f64;
    }

    fn compute(&self, _ctx: &smartflux::MetricContext) -> f64 {
        self.crossings
    }
}

/// The recommended per-step QoD spec for the `classify` step: boundary
/// crossings as the impact function.
#[must_use]
pub fn classify_qod_spec() -> smartflux::QodSpec {
    smartflux::QodSpec::new().with_impact(smartflux::MetricKind::Custom(std::sync::Arc::new(
        || Box::new(TollClassImpact::default()),
    )))
}

/// The row key of every vehicle, `veh-NNNN`, indexed by vehicle.
fn vehicle_rows(vehicles: usize) -> Arc<[String]> {
    (0..vehicles).map(|v| format!("veh-{v:04}")).collect()
}

/// The row key of every query slot, `q-NN`, indexed by slot.
fn query_rows(slots: usize) -> Arc<[String]> {
    (0..slots).map(|q| format!("q-{q:02}")).collect()
}

/// The row key of every segment, `x{xway}-s{seg:02}`, indexed by
/// `xway * segments + seg`.
fn segment_rows(xways: usize, segments: usize) -> Arc<[String]> {
    (0..xways)
        .flat_map(|xway| (0..segments).map(move |seg| format!("x{xway}-s{seg:02}")))
        .collect()
}

/// Builds the LRB workflow over a store.
#[derive(Debug, Clone, Default)]
pub struct LrbFactory {
    /// Workload parameters.
    pub config: LrbConfig,
}

impl LrbFactory {
    /// A factory with the given uniform error bound on all managed steps.
    #[must_use]
    pub fn with_bound(bound: f64) -> Self {
        Self {
            config: LrbConfig::with_bound(bound),
        }
    }
}

impl WorkloadFactory for LrbFactory {
    #[allow(clippy::too_many_lines)]
    fn build(&self, store: &DataStore) -> Workflow {
        let cfg = self.config.clone();
        for f in [
            "positions",
            "queries",
            "segments",
            "avg_speed",
            "car_counts",
            "accidents",
            "congestion",
            "classes",
            "query_queue",
            "travel_times",
        ] {
            store
                .ensure_container(&ContainerRef::family(TABLE, f))
                .expect("container setup cannot fail on a fresh store");
        }

        let mut g = GraphBuilder::new("lrb");
        let feeder = g.add_step("feeder");
        let update_positions = g.add_step("update-positions");
        let process_queries = g.add_step("process-queries");
        let avg_speed = g.add_step("avg-speed");
        let car_count = g.add_step("car-count");
        let detect_accidents = g.add_step("detect-accidents");
        let congestion = g.add_step("congestion");
        let classify = g.add_step("classify");
        let travel_time = g.add_step("travel-time");
        g.add_edge(feeder, update_positions).expect("valid edge");
        g.add_edge(feeder, process_queries).expect("valid edge");
        g.add_edge(update_positions, avg_speed).expect("valid edge");
        g.add_edge(update_positions, car_count).expect("valid edge");
        g.add_edge(update_positions, detect_accidents)
            .expect("valid edge");
        g.add_edge(avg_speed, congestion).expect("valid edge");
        g.add_edge(car_count, congestion).expect("valid edge");
        g.add_edge(detect_accidents, congestion)
            .expect("valid edge");
        g.add_edge(congestion, classify).expect("valid edge");
        g.add_edge(congestion, travel_time).expect("valid edge");
        g.add_edge(process_queries, travel_time)
            .expect("valid edge");
        let mut wf = Workflow::new(g.build().expect("lrb graph is a DAG"));

        let positions = ContainerRef::family(TABLE, "positions");
        let queries = ContainerRef::family(TABLE, "queries");
        let segments = ContainerRef::family(TABLE, "segments");
        let avgc = ContainerRef::family(TABLE, "avg_speed");
        let countc = ContainerRef::family(TABLE, "car_counts");
        let accc = ContainerRef::family(TABLE, "accidents");
        let congc = ContainerRef::family(TABLE, "congestion");
        let classc = ContainerRef::family(TABLE, "classes");
        let queuec = ContainerRef::family(TABLE, "query_queue");
        let ttc = ContainerRef::family(TABLE, "travel_times");

        // Row keys are built once per workflow and shared by every wave.
        let vehicle_keys = vehicle_rows(cfg.vehicles);
        let query_keys = query_rows(cfg.query_slots);
        let seg_keys = segment_rows(cfg.xways, cfg.segments);

        // Step 1: receive, separate and store position reports and queries.
        let c = cfg.clone();
        wf.bind(
            feeder,
            FnStep::new(move |ctx: &StepContext| {
                let wave = ctx.wave();
                let xways: Vec<XwayWave> =
                    (0..c.xways).map(|x| XwayWave::new(&c, x, wave)).collect();
                let mut positions = Vec::with_capacity(3 * vehicle_keys.len());
                for (v, row) in vehicle_keys.iter().enumerate() {
                    let xway = v % c.xways;
                    let seg = vehicle_segment(c.seed, v, c.segments, wave);
                    let speed = xways[xway].speed(v, seg);
                    positions.extend([
                        (&**row, "xway", Value::from(xway as i64)),
                        (row, "seg", Value::from(seg as i64)),
                        (row, "speed", Value::from(speed)),
                    ]);
                }
                ctx.family(TABLE, "positions")?.put_many(positions)?;
                let mut queries = Vec::new();
                let day_wave = wave % DAY_WAVES;
                for (q, row) in query_keys.iter().enumerate() {
                    // A slot re-issues a query roughly every third wave.
                    if unit_hash(c.seed ^ 0x66, q as u64, day_wave) < 0.34 {
                        let veh = (unit_hash(c.seed ^ 0x77, q as u64, day_wave) * 1e6) as i64
                            % c.vehicles as i64;
                        let from = (unit_hash(c.seed ^ 0x88, q as u64, day_wave) * 1e6) as i64
                            % c.segments as i64;
                        let len = 1 + (unit_hash(c.seed ^ 0x99, q as u64, day_wave) * 6.0) as i64;
                        let to = (from + len).min(c.segments as i64 - 1);
                        queries.extend([
                            (&**row, "veh", Value::from(veh)),
                            (row, "from", Value::from(from)),
                            (row, "to", Value::from(to)),
                            (row, "wave", Value::from(wave as i64)),
                        ]);
                    }
                }
                ctx.family(TABLE, "queries")?.put_many(queries)?;
                Ok(())
            }),
        )
        .source()
        .writes(positions.clone())
        .writes(queries.clone());

        // Step 2a: update per-segment vehicle statistics.
        let (c, k) = (cfg.clone(), Arc::clone(&seg_keys));
        wf.bind(
            update_positions,
            FnStep::new(move |ctx: &StepContext| {
                let mut sum = vec![0.0; k.len()];
                let mut count = vec![0u32; k.len()];
                ctx.family(TABLE, "positions")?.for_each_row(|_, row| {
                    let xway = row.f64("xway").unwrap_or(0.0) as usize;
                    let seg = row.f64("seg").unwrap_or(0.0) as usize;
                    let speed = row.f64("speed").unwrap_or(0.0);
                    let i = xway * c.segments + seg;
                    sum[i] += speed;
                    count[i] += 1;
                })?;
                let mut segments = Vec::with_capacity(2 * k.len());
                for ((key, sum), count) in k.iter().zip(&sum).zip(&count) {
                    segments.extend([
                        (&**key, "sum_speed", Value::from(*sum)),
                        (key, "count", Value::from(i64::from(*count))),
                    ]);
                }
                ctx.family(TABLE, "segments")?.put_many(segments)?;
                Ok(())
            }),
        )
        .reads(positions.clone())
        .writes(segments.clone())
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 2b: process and prioritise queries (answers real-time
        // requests: executed synchronously).
        let c = cfg.clone();
        wf.bind(
            process_queries,
            FnStep::new(move |ctx: &StepContext| {
                let queries = ctx.scan(TABLE, "queries", &ScanFilter::all())?;
                let mut queue = Vec::with_capacity(queries.len());
                for row in &queries {
                    let from = row.f64("from").unwrap_or(0.0);
                    let to = row.f64("to").unwrap_or(0.0);
                    let priority = (to - from).abs() + unit_hash(c.seed, 1, ctx.wave());
                    queue.push((&*row.key, "priority", Value::from(priority)));
                }
                ctx.family(TABLE, "query_queue")?.put_many(queue)?;
                Ok(())
            }),
        )
        .source()
        .reads(queries.clone())
        .writes(queuec.clone());

        // Step 3a: average speed per segment over the last 5 minutes
        // (exponential rolling mean).
        let k = Arc::clone(&seg_keys);
        wf.bind(
            avg_speed,
            FnStep::new(move |ctx: &StepContext| {
                let segments = ctx.family(TABLE, "segments")?;
                let avg_speed = ctx.family(TABLE, "avg_speed")?;
                let mut rolled = Vec::with_capacity(k.len());
                for key in k.iter() {
                    let sum = segments.get_f64(key, "sum_speed")?.unwrap_or(0.0);
                    let count = segments.get_f64(key, "count")?.unwrap_or(0.0);
                    let instant = if count > 0.0 { sum / count } else { 90.0 };
                    let prev = avg_speed.get_f64(key, "value")?.unwrap_or(instant);
                    rolled.push((&**key, "value", Value::from(0.7 * prev + 0.3 * instant)));
                }
                avg_speed.put_many(rolled)?;
                Ok(())
            }),
        )
        .reads(segments.clone())
        .writes(avgc.clone())
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 3b: number of cars per segment.
        let k = Arc::clone(&seg_keys);
        wf.bind(
            car_count,
            FnStep::new(move |ctx: &StepContext| {
                let segments = ctx.family(TABLE, "segments")?;
                let mut counts = Vec::with_capacity(k.len());
                for key in k.iter() {
                    let count = segments.get_f64(key, "count")?.unwrap_or(0.0);
                    counts.push((&**key, "value", Value::from(count)));
                }
                ctx.family(TABLE, "car_counts")?.put_many(counts)?;
                Ok(())
            }),
        )
        .reads(segments.clone())
        .writes(countc.clone())
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 3c: detect accidents (slow, occupied segments).
        let k = Arc::clone(&seg_keys);
        wf.bind(
            detect_accidents,
            FnStep::new(move |ctx: &StepContext| {
                let segments = ctx.family(TABLE, "segments")?;
                let mut accidents = Vec::with_capacity(k.len());
                for key in k.iter() {
                    let sum = segments.get_f64(key, "sum_speed")?.unwrap_or(0.0);
                    let count = segments.get_f64(key, "count")?.unwrap_or(0.0);
                    let avg = if count > 0.0 { sum / count } else { 90.0 };
                    let accident = count >= 2.0 && avg < 20.0;
                    accidents.push((&**key, "value", Value::from(i64::from(accident))));
                }
                ctx.family(TABLE, "accidents")?.put_many(accidents)?;
                Ok(())
            }),
        )
        .reads(segments.clone())
        .writes(accc.clone())
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 4: congestion level / toll per segment (the original
        // benchmark's toll calculation).
        let k = Arc::clone(&seg_keys);
        wf.bind(
            congestion,
            FnStep::new(move |ctx: &StepContext| {
                let avg_speed = ctx.family(TABLE, "avg_speed")?;
                let car_counts = ctx.family(TABLE, "car_counts")?;
                let accidents = ctx.family(TABLE, "accidents")?;
                let mut tolls = Vec::with_capacity(k.len());
                for key in k.iter() {
                    let speed = avg_speed.get_f64(key, "value")?.unwrap_or(90.0);
                    let cars = car_counts.get_f64(key, "value")?.unwrap_or(0.0);
                    let accident = accidents.get_f64(key, "value")?.unwrap_or(0.0) > 0.5;
                    let mut toll = if speed < 55.0 {
                        2.0 * (cars / 4.0).powi(2) * (55.0 - speed) / 55.0
                    } else {
                        0.0
                    };
                    if accident {
                        toll *= 2.0;
                    }
                    tolls.push((&**key, "toll", Value::from(toll)));
                }
                ctx.family(TABLE, "congestion")?.put_many(tolls)?;
                Ok(())
            }),
        )
        .reads(avgc)
        .reads(countc)
        .reads(accc)
        .writes(congc.clone())
        .error_bound(cfg.bound * INTERMEDIATE_BOUND_FRACTION);

        // Step 5a: classify congestion (low / medium / high) — the workflow
        // output used by the evaluation.
        let k = Arc::clone(&seg_keys);
        wf.bind(
            classify,
            FnStep::new(move |ctx: &StepContext| {
                let congestion = ctx.family(TABLE, "congestion")?;
                let mut classes = Vec::with_capacity(k.len());
                for key in k.iter() {
                    let toll = congestion.get_f64(key, "toll")?.unwrap_or(0.0);
                    // Classes 1..=5: low / guarded / medium / high /
                    // extreme. Fine enough that the workflow output
                    // tracks the rush-hour cycle wave by wave.
                    let class = toll_class(toll);
                    classes.push((&**key, "class", Value::from(class)));
                }
                ctx.family(TABLE, "classes")?.put_many(classes)?;
                Ok(())
            }),
        )
        .reads(congc.clone())
        .writes(classc)
        .error_bound(cfg.bound);

        // Step 5b: estimate travel time and cost per query (answers
        // real-time requests: executed synchronously).
        let (c, k) = (cfg.clone(), seg_keys);
        wf.bind(
            travel_time,
            FnStep::new(move |ctx: &StepContext| {
                let queries = ctx.family(TABLE, "queries")?;
                let avg_speed = ctx.family(TABLE, "avg_speed")?;
                let congestion = ctx.family(TABLE, "congestion")?;
                let queue = ctx.scan(TABLE, "query_queue", &ScanFilter::all())?;
                let mut travel_times = Vec::with_capacity(2 * queue.len());
                for row in &queue {
                    let from = queries.get_f64(&row.key, "from")?.unwrap_or(0.0) as usize;
                    let to = queries.get_f64(&row.key, "to")?.unwrap_or(0.0) as usize;
                    let veh = queries.get_f64(&row.key, "veh")?.unwrap_or(0.0) as usize;
                    let xway = veh % c.xways;
                    let mut minutes = 0.0;
                    let mut cost = 0.0;
                    for seg in from..=to.max(from) {
                        let key = &k[xway * c.segments + seg % c.segments];
                        let speed = avg_speed.get_f64(key, "value")?.unwrap_or(90.0);
                        minutes += 60.0 / speed.max(5.0);
                        cost += congestion.get_f64(key, "toll")?.unwrap_or(0.0);
                    }
                    travel_times.extend([
                        (&*row.key, "minutes", Value::from(minutes)),
                        (&row.key, "cost", Value::from(cost)),
                    ]);
                }
                ctx.family(TABLE, "travel_times")?.put_many(travel_times)?;
                Ok(())
            }),
        )
        .source()
        .reads(queuec)
        .reads(congc)
        .writes(ttc);

        debug_assert!(wf.first_unbound().is_none());
        wf
    }

    fn output_step(&self) -> &str {
        "classify"
    }

    fn name(&self) -> &str {
        "lrb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux_wms::{Scheduler, SynchronousPolicy};

    #[test]
    fn congestion_peaks_at_rush_hour() {
        // Wave 80 ≈ hour 8 (morning rush), wave 30 ≈ hour 3 (night).
        let rush = congestion_level(7, 0, 80);
        let night = congestion_level(7, 0, 30);
        assert!(rush > night, "rush {rush} vs night {night}");
        for w in 0..480 {
            let c = congestion_level(7, 1, w);
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn accidents_are_rare_and_windowed() {
        let mut accident_waves = 0;
        for w in 0..2000 {
            if accident_segment(7, 0, 20, w).is_some() {
                accident_waves += 1;
            }
        }
        let rate = accident_waves as f64 / 2000.0;
        assert!(rate > 0.01 && rate < 0.25, "accident rate {rate}");
        // Stable within a window.
        if let Some(seg) = accident_segment(7, 0, 20, 13) {
            assert_eq!(accident_segment(7, 0, 20, 14), Some(seg));
        }
    }

    #[test]
    fn accidents_reach_every_segment_of_a_long_expressway() {
        let cfg = LrbConfig {
            segments: 30,
            ..LrbConfig::default()
        };
        let landed: Vec<usize> = (0..cfg.xways)
            .flat_map(|xway| {
                (0..DAY_WAVES)
                    .filter_map(move |w| accident_segment(cfg.seed, xway, cfg.segments, w))
            })
            .collect();
        assert!(landed.iter().all(|&seg| seg < cfg.segments), "{landed:?}");
        assert!(landed.iter().any(|&seg| seg >= 20), "{landed:?}");
    }

    #[test]
    fn vehicle_motion_is_gradual() {
        let cfg = LrbConfig::default();
        for v in [0, 17, 101] {
            for w in 1..200 {
                let a = vehicle_segment(cfg.seed, v, cfg.segments, w - 1);
                let b = vehicle_segment(cfg.seed, v, cfg.segments, w);
                assert!(a.abs_diff(b) <= 3, "vehicle {v} jumped {a}→{b}");
            }
        }
    }

    #[test]
    fn speeds_are_positive_and_responsive_to_congestion() {
        let cfg = LrbConfig::default();
        for v in 0..40 {
            for w in [10, 80, 180] {
                let s = vehicle_speed(&cfg, v, w);
                assert!(s > 0.0 && s < 130.0, "speed {s}");
            }
        }
    }

    /// The feeder's path — each expressway's signals once per wave, each
    /// vehicle's segment once — reports `vehicle_speed` bit for bit, for
    /// every vehicle over a whole day, accident waves included.
    #[test]
    fn hoisted_speeds_equal_vehicle_speed() {
        for seed in [7, 17] {
            let cfg = LrbConfig {
                seed,
                ..LrbConfig::default()
            };
            let mut accident_reports = 0;
            for wave in 0..DAY_WAVES {
                let xways: Vec<XwayWave> = (0..cfg.xways)
                    .map(|x| XwayWave::new(&cfg, x, wave))
                    .collect();
                for v in 0..cfg.vehicles {
                    let xway = &xways[v % cfg.xways];
                    let seg = vehicle_segment(seed, v, cfg.segments, wave);
                    let hoisted = xway.speed(v, seg);
                    assert_eq!(
                        hoisted.to_bits(),
                        vehicle_speed(&cfg, v, wave).to_bits(),
                        "seed {seed} vehicle {v} wave {wave}"
                    );
                    accident_reports += usize::from(xway.accident.is_some());
                }
            }
            assert!(accident_reports > 0, "seed {seed}: no accident covered");
        }
    }

    /// What the feeder writes is `vehicle_speed` and `vehicle_segment`.
    #[test]
    fn feeder_writes_vehicle_speed() {
        let factory = LrbFactory::default();
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
            for v in 0..cfg.vehicles {
                let row = format!("veh-{v:04}");
                let get = |col| store.get(TABLE, "positions", &row, col).unwrap().unwrap();
                assert_eq!(get("speed").as_f64(), Some(vehicle_speed(cfg, v, wave)));
                let seg = vehicle_segment(cfg.seed, v, cfg.segments, wave);
                assert_eq!(get("seg").as_f64(), Some(seg as f64));
            }
        }
    }

    /// The prebuilt key tables hold the keys the steps once formatted per
    /// cell, at the index the steps look them up by — with two-digit
    /// expressway numbers too.
    #[test]
    fn key_tables_match_formatted_keys() {
        let wide = LrbConfig {
            xways: 12,
            ..LrbConfig::default()
        };
        for cfg in [LrbConfig::default(), wide] {
            let vehicles = vehicle_rows(cfg.vehicles);
            assert_eq!(vehicles.len(), cfg.vehicles);
            for (v, key) in vehicles.iter().enumerate() {
                assert_eq!(*key, format!("veh-{v:04}"));
            }
            let queries = query_rows(cfg.query_slots);
            assert_eq!(queries.len(), cfg.query_slots);
            for (q, key) in queries.iter().enumerate() {
                assert_eq!(*key, format!("q-{q:02}"));
            }
            let segments = segment_rows(cfg.xways, cfg.segments);
            assert_eq!(segments.len(), cfg.total_segments());
            for xway in 0..cfg.xways {
                for seg in 0..cfg.segments {
                    let key = &segments[xway * cfg.segments + seg];
                    assert_eq!(*key, format!("x{xway}-s{seg:02}"));
                }
            }
        }
    }

    #[test]
    fn workflow_executes_end_to_end() {
        let factory = LrbFactory::with_bound(0.1);
        let store = DataStore::new();
        let wf = factory.build(&store);
        assert_eq!(wf.graph().len(), 9);
        let mut sched = Scheduler::new(wf, store.clone(), Box::new(SynchronousPolicy));
        sched.run_waves(8).unwrap();
        // Toll classes exist for every segment.
        assert_eq!(
            store
                .cell_count(&ContainerRef::family(TABLE, "classes"))
                .unwrap(),
            factory.config.total_segments()
        );
        // Queries got travel-time answers.
        assert!(
            store
                .cell_count(&ContainerRef::family(TABLE, "travel_times"))
                .unwrap()
                > 0
        );
    }

    #[test]
    fn twin_builds_are_identical() {
        let factory = LrbFactory::with_bound(0.05);
        let (s1, s2) = (DataStore::new(), DataStore::new());
        let mut a = Scheduler::new(factory.build(&s1), s1.clone(), Box::new(SynchronousPolicy));
        let mut b = Scheduler::new(factory.build(&s2), s2.clone(), Box::new(SynchronousPolicy));
        a.run_waves(6).unwrap();
        b.run_waves(6).unwrap();
        for fam in ["classes", "congestion", "travel_times"] {
            let c = ContainerRef::family(TABLE, fam);
            assert_eq!(s1.snapshot(&c).unwrap(), s2.snapshot(&c).unwrap(), "{fam}");
        }
    }

    #[test]
    fn managed_steps_have_bounds_and_realtime_steps_do_not() {
        let factory = LrbFactory::default();
        let store = DataStore::new();
        let wf = factory.build(&store);
        let g = wf.graph();
        for name in [
            "update-positions",
            "avg-speed",
            "car-count",
            "detect-accidents",
            "congestion",
            "classify",
        ] {
            let id = g.step_id(name).unwrap();
            assert!(
                wf.info(id).error_bound().is_some(),
                "{name} should be bounded"
            );
        }
        for name in ["feeder", "process-queries", "travel-time"] {
            let id = g.step_id(name).unwrap();
            assert!(wf.info(id).always_run(), "{name} should always run");
            assert!(wf.info(id).error_bound().is_none());
        }
    }
}
