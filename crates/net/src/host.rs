//! The multi-session engine host.
//!
//! An [`EngineHost`] holds N independent SmartFlux sessions — each with
//! its own [`SmartFluxSession`] (engine + store + optional checkpoints)
//! — and runs every request on the thread that made it. The host spawns
//! no thread: its callers are already threads waiting for an answer (a
//! [`NetServer`](crate::NetServer) connection has one outstanding
//! request at a time), so a session's mutex *is* its queue.
//!
//! Every request takes its session's *turn* through one private helper:
//! refuse if the host stopped accepting, find the slot, count the caller
//! as waiting, lock the session, run the request body. A submission that
//! finds `queue_capacity` callers already waiting is rejected at once
//! with [`Response::Busy`] instead of piling up; control requests
//! (queries, drain, close) bypass the cap. A session executes one
//! request at a time and stays deterministic, and a slow session delays
//! only the callers waiting for *it*. `Close` empties the slot and unmaps
//! it under the session mutex, so a request racing a close either ran
//! before it or finds the slot empty and is answered `unknown-session` —
//! it cannot be stranded.
//!
//! Shutdown comes in two flavours. Both stop admission, then take each
//! session under its mutex, so a wave that is executing finishes first:
//!
//! - [`shutdown`](EngineHost::shutdown) — orderly: a waiting caller that
//!   gets its turn before the session is taken still runs, and every
//!   durable session is checkpointed so [`SmartFluxSession::recover`]
//!   resumes exactly where processing stopped.
//! - [`kill`](EngineHost::kill) — simulated crash: waiting callers are
//!   answered with a `shutting-down` error and **no** checkpoint is
//!   written, leaving recovery to the periodic checkpoint (and the
//!   re-execution of the waves after it) exactly as a real crash would.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use smartflux::{CoreError, DurabilityError, DurabilityOptions, Phase, SmartFluxSession};
use smartflux_datastore::{DataStore, StoreError};
use smartflux_durability::encode_store_state;
use smartflux_telemetry::{names, Counter, Gauge, Telemetry};
use smartflux_wms::StepId;

use crate::registry::WorkflowRegistry;
use crate::wire::{ContainerWrite, DecisionRow, ErrorCode, Response, SessionSpec, WaveReport};

/// Tuning knobs for an [`EngineHost`].
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Per-session bound on callers waiting for the session (admitted,
    /// not yet executing); a submission beyond it is answered with
    /// [`Response::Busy`].
    pub queue_capacity: usize,
    /// Root directory for durable sessions; each session's
    /// `durable_key` becomes a subdirectory. `None` refuses durable
    /// session specs.
    pub durability_root: Option<PathBuf>,
    /// Checkpoint cadence (in waves) for durable sessions.
    pub checkpoint_interval: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 16,
            durability_root: None,
            checkpoint_interval: 20,
        }
    }
}

impl HostConfig {
    /// Default knobs.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-session bound on waiting callers.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Enables durable sessions under `root`.
    #[must_use]
    pub fn with_durability_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.durability_root = Some(root.into());
        self
    }

    /// Sets the durable sessions' checkpoint cadence.
    #[must_use]
    pub fn with_checkpoint_interval(mut self, waves: u64) -> Self {
        self.checkpoint_interval = waves;
        self
    }
}

/// Cached metric handles so the hot paths never re-resolve names and the
/// whole registry walk happens once, behind a single enabled check.
pub(crate) struct NetMetrics {
    pub(crate) connections: Arc<Counter>,
    pub(crate) active_connections: Arc<Gauge>,
    pub(crate) frames_in: Arc<Counter>,
    pub(crate) frames_out: Arc<Counter>,
    pub(crate) frame_errors: Arc<Counter>,
    busy_rejections: Arc<Counter>,
    sessions_open: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
}

impl NetMetrics {
    fn build(telemetry: &Telemetry) -> Option<Self> {
        if !telemetry.is_enabled() {
            return None;
        }
        Some(Self {
            connections: telemetry.counter(names::NET_CONNECTIONS),
            active_connections: telemetry.gauge(names::NET_ACTIVE_CONNECTIONS),
            frames_in: telemetry.counter(names::NET_FRAMES_IN),
            frames_out: telemetry.counter(names::NET_FRAMES_OUT),
            frame_errors: telemetry.counter(names::NET_FRAME_ERRORS),
            busy_rejections: telemetry.counter(names::NET_BUSY_REJECTIONS),
            sessions_open: telemetry.gauge(names::NET_SESSIONS_OPEN),
            queue_depth: telemetry.gauge(names::NET_QUEUE_DEPTH),
        })
    }
}

struct SessionSlot {
    id: u64,
    durable: bool,
    /// `None` once the session is closed or the host has stopped. Lock
    /// order: this mutex is acquired *before* the host-wide `sessions`
    /// map lock; never the other way around.
    session: Mutex<Option<SmartFluxSession>>,
    /// Callers admitted to this session that do not hold `session` yet.
    // tidy:atomic(waiting: relaxed): admission count — every access is a read-modify-write on this one cell, and no other data is published through it
    waiting: AtomicU32,
}

struct HostInner {
    registry: WorkflowRegistry,
    config: HostConfig,
    telemetry: Telemetry,
    metrics: Option<NetMetrics>,
    sessions: RwLock<HashMap<u64, Arc<SessionSlot>>>,
    // tidy:atomic(next_id: relaxed): id allocator — only uniqueness matters, no ordering with other state
    next_id: AtomicU64,
    // tidy:atomic(accepting: acq-rel): admission flag — the release store at shutdown publishes the decision, acquire loads in request paths observe it; no total order needed
    accepting: AtomicBool,
    // tidy:atomic(abort: acq-rel): kill switch — release store in kill(), acquire load by each caller once it holds its session, so callers that were waiting do not run
    abort: AtomicBool,
}

/// Outcome of an orderly [`EngineHost::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Durable sessions whose close-time checkpoint was written.
    pub checkpointed: usize,
    /// Close-time checkpoint failures, one `session <id>: <error>` line
    /// each. Nothing a session listed here did after its last periodic
    /// checkpoint is on disk — an orderly shutdown with failures must not
    /// be treated as clean.
    pub checkpoint_failures: Vec<String>,
}

/// The multi-session engine host (cheaply cloneable handle).
///
/// The host owns no thread, so dropping the last handle frees every
/// session; call [`shutdown`](Self::shutdown) first when durable
/// sessions must get their close-time checkpoint.
#[derive(Clone)]
pub struct EngineHost {
    inner: Arc<HostInner>,
}

impl EngineHost {
    /// Creates a host over `registry`.
    ///
    /// `telemetry` receives the `net.*` counters, gauges, and the
    /// submit-latency histogram when enabled; pass
    /// [`Telemetry::disabled`] to make every instrumentation site
    /// short-circuit.
    #[must_use]
    pub fn new(registry: WorkflowRegistry, mut config: HostConfig, telemetry: Telemetry) -> Self {
        config.queue_capacity = config.queue_capacity.max(1);
        config.checkpoint_interval = config.checkpoint_interval.max(1);
        let inner = Arc::new(HostInner {
            registry,
            config,
            metrics: NetMetrics::build(&telemetry),
            telemetry,
            sessions: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            accepting: AtomicBool::new(true),
            abort: AtomicBool::new(false),
        });
        Self { inner }
    }

    /// The host's telemetry handle (where `net.*` metrics land).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    pub(crate) fn metrics(&self) -> Option<&NetMetrics> {
        self.inner.metrics.as_ref()
    }

    /// Number of currently open sessions.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.inner.sessions.read().len()
    }

    /// Opens (or, with `spec.resume`, resumes) a session.
    ///
    /// Overrides from the spec (seed, training waves) are applied on top
    /// of the registered base config. A durable spec whose key has no
    /// checkpoint yet falls back to a fresh session with
    /// `resumed = false` — first boot and restart then share one client
    /// code path.
    #[must_use]
    pub fn open_session(&self, spec: &SessionSpec) -> Response {
        let inner = &self.inner;
        if !inner.accepting.load(Ordering::Acquire) {
            return shutting_down();
        }
        let Some((mut config, builder)) = inner.registry.get(&spec.workload) else {
            return error_response(
                ErrorCode::UnknownWorkload,
                &format!("no workload `{}` is registered", spec.workload),
            );
        };
        if let Some(seed) = spec.seed {
            config = config.with_seed(seed);
        }
        if let Some(waves) = spec.training_waves {
            config = config.with_training_waves(waves as usize);
        }
        let durable = spec.durable_key.is_some();
        if let Some(key) = &spec.durable_key {
            let Some(root) = &inner.config.durability_root else {
                return error_response(
                    ErrorCode::Internal,
                    "host has no durability root; durable sessions are unavailable",
                );
            };
            if key.is_empty() || key.contains(['/', '\\', '.']) {
                return error_response(
                    ErrorCode::Internal,
                    &format!("durable key `{key}` must be a plain directory name"),
                );
            }
            config = config.with_durability(
                DurabilityOptions::new(root.join(key))
                    .with_checkpoint_interval(inner.config.checkpoint_interval),
            );
        }

        let mut resumed = false;
        let session = if durable && spec.resume {
            // Recovery builds the store itself from the checkpoint; the
            // builder only runs to reconstruct the (stateless) workflow
            // graph, so it gets a throwaway store.
            let throwaway = DataStore::new();
            let workflow = builder(&throwaway);
            match SmartFluxSession::recover(workflow, config.clone()) {
                Ok(session) => {
                    resumed = true;
                    Ok(session)
                }
                Err(CoreError::Durability(DurabilityError::NoCheckpoint(_))) => {
                    fresh_session(&builder, config)
                }
                Err(e) => Err(e),
            }
        } else {
            fresh_session(&builder, config)
        };
        let session = match session {
            Ok(session) => session,
            Err(e) => {
                return error_response(
                    ErrorCode::SessionFailed,
                    &format!("session construction failed: {e}"),
                )
            }
        };

        let next_wave = session.scheduler().next_wave();
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(SessionSlot {
            id,
            durable,
            session: Mutex::new(Some(session)),
            waiting: AtomicU32::new(0),
        });
        {
            // Construction above is slow (a recovery restores a checkpoint
            // and refits the predictor) and a shutdown may have emptied the
            // map meanwhile. Shutdown clears
            // `accepting` before it takes this lock, so re-checking under
            // it leaves no window in which a session is inserted that
            // nothing will ever checkpoint or close.
            let mut sessions = inner.sessions.write();
            if !inner.accepting.load(Ordering::Acquire) {
                return shutting_down();
            }
            sessions.insert(id, slot);
        }
        if let Some(m) = &inner.metrics {
            m.sessions_open.add(1);
        }
        Response::SessionOpened {
            session: id,
            resumed,
            next_wave,
        }
    }

    /// Applies a batch of container writes (plus, with `run_wave`, one
    /// wave) on the calling thread once the session is free.
    ///
    /// Returns [`Response::Busy`] immediately — without waiting — when
    /// `queue_capacity` callers are already waiting for the session.
    #[must_use]
    pub fn submit(&self, session: u64, writes: Vec<ContainerWrite>, run_wave: bool) -> Response {
        let inner = &self.inner;
        self.turn(session, false, |_, live| {
            Some(execute_submit(inner, live.as_mut()?, writes, run_wave))
        })
    }

    /// Blocks until the requests that took their turn before this one
    /// have executed. Control requests bypass the queue-capacity bound.
    #[must_use]
    pub fn drain(&self, session: u64) -> Response {
        self.turn(session, true, |_, live| {
            Some(Response::Drained {
                session,
                executed_waves: live.as_ref()?.executed_waves(),
            })
        })
    }

    /// Closes `session` once it is free, checkpointing first when the
    /// session is durable.
    #[must_use]
    pub fn close(&self, session: u64) -> Response {
        let inner = &self.inner;
        self.turn(session, true, |slot, live| {
            let mut closing = live.take()?;
            // Unmapped while the session mutex is still held: a racer
            // either never finds the slot or finds it empty.
            inner.sessions.write().remove(&session);
            if let Some(m) = &inner.metrics {
                m.sessions_open.add(-1);
            }
            if slot.durable {
                if let Err(e) = closing.checkpoint() {
                    return Some(error_response(
                        ErrorCode::SessionFailed,
                        &format!("close-time checkpoint failed: {e}"),
                    ));
                }
            }
            Some(Response::Closed { session })
        })
    }

    /// Reads per-wave decision rows from `from_wave` onward.
    #[must_use]
    pub fn query_decisions(&self, session: u64, from_wave: u64) -> Response {
        self.turn(session, true, |_, live| {
            let rows = live.as_ref()?.engine().with(|e| {
                e.diagnostics()
                    .since(from_wave)
                    .map(DecisionRow::from)
                    .collect()
            });
            Some(Response::Decisions { rows })
        })
    }

    /// Reads the session's full store image (durability encoding) and
    /// logical clock.
    #[must_use]
    pub fn query_store(&self, session: u64) -> Response {
        self.turn(session, true, |_, live| {
            let store = live.as_ref()?.scheduler().store();
            let bytes = encode_store_state(&store.export_state());
            Some(Response::StoreImage {
                clock: store.clock(),
                bytes,
            })
        })
    }

    /// Orderly shutdown: stops admitting requests, waits for each
    /// session's executing request, then checkpoints and closes every
    /// durable session. The report counts the checkpoints written and
    /// lists every checkpoint that *failed* — a failure means the
    /// session's waves since its last periodic checkpoint are not on disk,
    /// so callers must not fold it into "nothing to checkpoint".
    /// Idempotent.
    pub fn shutdown(&self) -> ShutdownReport {
        let mut report = ShutdownReport::default();
        for (slot, mut session) in self.take_sessions() {
            if slot.durable {
                match session.checkpoint() {
                    Ok(true) => report.checkpointed += 1,
                    Ok(false) => {}
                    Err(e) => report
                        .checkpoint_failures
                        .push(format!("session {}: {e}", slot.id)),
                }
            }
        }
        report
    }

    /// Simulated crash: callers waiting for a session are answered with
    /// a `shutting-down` error and **no** checkpoint is written —
    /// durable sessions must come back through
    /// [`SmartFluxSession::recover`] from their last periodic
    /// checkpoint, exactly as after a real crash. Idempotent.
    pub fn kill(&self) {
        self.inner.abort.store(true, Ordering::Release);
        drop(self.take_sessions());
    }

    /// Stops admission and empties every slot, each under its session
    /// mutex — so this waits for the request a session is executing, and
    /// every caller that gets the mutex afterwards finds the slot empty.
    fn take_sessions(&self) -> Vec<(Arc<SessionSlot>, SmartFluxSession)> {
        let inner = &self.inner;
        inner.accepting.store(false, Ordering::Release);
        let slots = std::mem::take(&mut *inner.sessions.write());
        let mut taken = Vec::with_capacity(slots.len());
        for slot in slots.into_values() {
            let session = slot.session.lock().take();
            if let Some(session) = session {
                if let Some(m) = &inner.metrics {
                    m.sessions_open.add(-1);
                }
                taken.push((slot, session));
            }
        }
        taken
    }

    fn slot(&self, id: u64) -> Option<Arc<SessionSlot>> {
        self.inner.sessions.read().get(&id).cloned()
    }

    /// Takes session `id`'s turn and runs `body` on the calling thread.
    ///
    /// This is the only place a request meets the host's admission
    /// state: the `accepting` check, the slot lookup, the waiting count
    /// (capped at `queue_capacity` unless `control`), the session lock,
    /// and the `abort` check that turns away callers a kill found
    /// waiting. `body` gets the slot's contents and returns `None` when
    /// it found them gone — closed, or taken by a shutdown, while this
    /// caller waited.
    fn turn(
        &self,
        id: u64,
        control: bool,
        body: impl FnOnce(&SessionSlot, &mut Option<SmartFluxSession>) -> Option<Response>,
    ) -> Response {
        let inner = &self.inner;
        if !inner.accepting.load(Ordering::Acquire) {
            return shutting_down();
        }
        let Some(slot) = self.slot(id) else {
            return unknown_session(id);
        };
        let admitted = slot
            .waiting
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                (control || (depth as usize) < inner.config.queue_capacity).then_some(depth + 1)
            });
        if let Err(depth) = admitted {
            if let Some(m) = &inner.metrics {
                m.busy_rejections.incr();
            }
            return Response::Busy { session: id, depth };
        }
        if let Some(m) = &inner.metrics {
            m.queue_depth.add(1);
        }
        // Simulation mutation: strand a submit that races a close — hold
        // it here until the close has run, and (below) have the close
        // leak the session guard this caller is about to wait for.
        if cfg!(sim_mutation) && !control {
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        let mut live = slot.session.lock();
        slot.waiting.fetch_sub(1, Ordering::Relaxed);
        if let Some(m) = &inner.metrics {
            m.queue_depth.add(-1);
        }
        if inner.abort.load(Ordering::Acquire) {
            return error_response(ErrorCode::ShuttingDown, "host killed");
        }
        let response = body(&slot, &mut live);
        #[cfg(sim_mutation)]
        std::mem::forget(live.is_none().then_some(live));
        response.unwrap_or_else(|| {
            if inner.accepting.load(Ordering::Acquire) {
                unknown_session(id)
            } else {
                shutting_down()
            }
        })
    }
}

impl std::fmt::Debug for EngineHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHost")
            .field("sessions", &self.session_count())
            .field("workloads", &self.inner.registry.names())
            .finish()
    }
}

fn fresh_session(
    builder: &crate::registry::WorkflowBuilder,
    config: smartflux::EngineConfig,
) -> Result<SmartFluxSession, CoreError> {
    let store = DataStore::new();
    let workflow = builder(&store);
    SmartFluxSession::new(workflow, store, config)
}

fn error_response(code: ErrorCode, message: &str) -> Response {
    Response::Error {
        code,
        message: message.to_owned(),
    }
}

fn unknown_session(id: u64) -> Response {
    error_response(ErrorCode::UnknownSession, &format!("no open session {id}"))
}

fn shutting_down() -> Response {
    error_response(ErrorCode::ShuttingDown, "host is shutting down")
}

fn execute_submit(
    inner: &HostInner,
    session: &mut SmartFluxSession,
    writes: Vec<ContainerWrite>,
    run_wave: bool,
) -> Response {
    let store = session.scheduler().store().clone();
    let count = writes.len() as u32;
    // Each value is moved into its cell, and a run of consecutive writes to
    // one `(table, family)` resolves the family once.
    let mut writes = writes.into_iter().peekable();
    while let Some(first) = writes.next() {
        let ContainerWrite {
            table,
            family,
            mut row,
            mut qualifier,
            mut value,
        } = first;
        let failed = |row: &str, e: StoreError| {
            error_response(
                ErrorCode::SessionFailed,
                &format!("write to {table}/{family}/{row} failed: {e}"),
            )
        };
        let handle = match store.family(&table, &family) {
            Ok(handle) => handle,
            Err(e) => return failed(&row, e),
        };
        loop {
            if let Err(e) = handle.put(&row, &qualifier, value) {
                return failed(&row, e);
            }
            let Some(w) = writes.next_if(|w| w.table == table && w.family == family) else {
                break;
            };
            (row, qualifier, value) = (w.row, w.qualifier, w.value);
        }
    }
    if !run_wave {
        return Response::Ingested {
            count,
            clock: store.clock(),
        };
    }
    let wave = session.scheduler().next_wave();
    // Server-side submit→result latency; the span records into the
    // `net.submit` histogram on drop (and is inert when telemetry is
    // off). Client-perceived latency is the bench harness's job — this
    // crate never reads a clock itself.
    // The phase only changes at a wave's end, so the phase going in is the
    // mode the wave runs in.
    let training = matches!(session.phase(), Phase::Training { .. });
    let span = inner.telemetry.span(names::NET_SUBMIT_LATENCY, wave);
    let outcome = session.run_wave();
    drop(span);
    match outcome {
        Ok(outcome) => {
            let graph_names = |ids: &[StepId]| -> Vec<String> {
                let graph = session.scheduler().workflow().graph();
                ids.iter().map(|s| graph.step_name(*s).to_owned()).collect()
            };
            Response::WaveResult(WaveReport {
                wave: outcome.wave,
                training,
                clock: store.clock(),
                executed: graph_names(&outcome.executed),
                skipped: graph_names(&outcome.skipped),
                deferred: graph_names(&outcome.deferred),
            })
        }
        Err(e) => error_response(ErrorCode::SessionFailed, &format!("wave failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux::EngineConfig;
    use smartflux_datastore::{ContainerRef, Value};
    use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};
    use std::time::{Duration, Instant};

    /// The two-step ramp workload; `on_feed` runs inside its first step.
    fn hooked_ramp_workflow(
        store: &DataStore,
        on_feed: impl Fn() + Send + Sync + 'static,
    ) -> Workflow {
        let raw = ContainerRef::family("t", "raw");
        let out = ContainerRef::family("t", "out");
        store.ensure_container(&raw).unwrap();
        store.ensure_container(&out).unwrap();
        let mut g = GraphBuilder::new("ramp");
        let feed = g.add_step("feed");
        let agg = g.add_step("agg");
        g.add_edge(feed, agg).unwrap();
        let mut wf = Workflow::new(g.build().unwrap());
        wf.bind(
            feed,
            FnStep::new(move |ctx: &StepContext| {
                on_feed();
                let w = ctx.wave() as f64;
                ctx.put("t", "raw", "r", "v", Value::from(100.0 + w))?;
                Ok(())
            }),
        )
        .source()
        .writes(raw.clone());
        wf.bind(
            agg,
            FnStep::new(|ctx: &StepContext| {
                let v = ctx.get_f64("t", "raw", "r", "v", 0.0)?;
                ctx.put("t", "out", "r", "v", Value::from(v))?;
                Ok(())
            }),
        )
        .reads(raw)
        .writes(out)
        .error_bound(0.05);
        wf
    }

    fn ramp_workflow(store: &DataStore) -> Workflow {
        hooked_ramp_workflow(store, || {})
    }

    fn registry_of(
        builder: impl Fn(&DataStore) -> Workflow + Send + Sync + 'static,
    ) -> WorkflowRegistry {
        let mut registry = WorkflowRegistry::new();
        registry.register(
            "ramp",
            EngineConfig::new()
                .with_training_waves(10)
                .with_quality_gates(0.3, 0.3)
                .with_seed(1),
            builder,
        );
        registry
    }

    fn test_registry() -> WorkflowRegistry {
        registry_of(ramp_workflow)
    }

    fn ramp_spec() -> SessionSpec {
        SessionSpec {
            workload: "ramp".into(),
            ..SessionSpec::default()
        }
    }

    fn open(host: &EngineHost, spec: &SessionSpec) -> u64 {
        match host.open_session(spec) {
            Response::SessionOpened { session, .. } => session,
            other => panic!("open failed: {other:?}"),
        }
    }

    /// Spawns `n` threads that each submit one wave to `id`.
    fn spawn_submitters(
        host: &EngineHost,
        id: u64,
        n: usize,
    ) -> Vec<std::thread::JoinHandle<Response>> {
        (0..n)
            .map(|_| {
                let host = host.clone();
                std::thread::spawn(move || host.submit(id, vec![], true))
            })
            .collect()
    }

    /// Spins until `n` callers are parked on `slot`'s session mutex.
    fn await_waiting(slot: &SessionSlot, n: u32) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while slot.waiting.load(Ordering::Relaxed) < n {
            assert!(Instant::now() < deadline, "callers never parked");
            std::thread::yield_now();
        }
    }

    fn is_shutting_down(response: &Response) -> bool {
        matches!(
            response,
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }
        )
    }

    fn is_unknown_session(response: &Response) -> bool {
        matches!(
            response,
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        )
    }

    #[test]
    fn open_submit_query_drain_close() {
        let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
        let id = open(&host, &ramp_spec());
        assert_eq!(host.session_count(), 1);

        for wave in 1..=12u64 {
            match host.submit(id, vec![], true) {
                Response::WaveResult(report) => {
                    assert_eq!(report.wave, wave);
                    assert_eq!(report.training, wave <= 10);
                    assert!(report.clock > 0);
                    assert_eq!(report.executed.len() + report.skipped.len(), 2);
                }
                other => panic!("submit failed: {other:?}"),
            }
        }

        match host.query_decisions(id, 11) {
            Response::Decisions { rows } => {
                assert_eq!(rows.len(), 2);
                assert!(rows.iter().all(|r| !r.training));
            }
            other => panic!("query failed: {other:?}"),
        }
        match host.query_store(id) {
            Response::StoreImage { clock, bytes } => {
                assert!(clock > 0);
                let state = smartflux_durability::decode_store_state(&bytes).unwrap();
                let restored = DataStore::from_state(state).unwrap();
                assert_eq!(restored.clock(), clock);
            }
            other => panic!("store query failed: {other:?}"),
        }
        assert!(matches!(
            host.drain(id),
            Response::Drained {
                executed_waves: 12,
                ..
            }
        ));
        assert!(matches!(host.close(id), Response::Closed { .. }));
        assert_eq!(host.session_count(), 0);
        assert!(is_unknown_session(&host.submit(id, vec![], true)));
        host.shutdown();
    }

    #[test]
    fn ingest_only_writes_are_visible_to_steps() {
        let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
        let id = open(&host, &ramp_spec());
        let write = ContainerWrite {
            table: "t".into(),
            family: "raw".into(),
            row: "extern".into(),
            qualifier: "v".into(),
            value: Value::from(3.5),
        };
        match host.submit(id, vec![write], false) {
            Response::Ingested { count, clock } => {
                assert_eq!(count, 1);
                assert!(clock > 0);
            }
            other => panic!("ingest failed: {other:?}"),
        }
        host.shutdown();
    }

    #[test]
    fn a_submit_stops_at_its_first_failing_write_and_names_it() {
        let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
        let id = open(&host, &ramp_spec());
        let write = |family: &str, row: &str, value: Value| ContainerWrite {
            table: "t".into(),
            family: family.into(),
            row: row.into(),
            qualifier: "v".into(),
            value,
        };
        // Two runs (`raw`, `out`), a family that does not exist, and a write
        // behind it that must not be applied; a text value is moved in whole.
        let writes = vec![
            write("raw", "a", Value::from(1.0)),
            write("raw", "b", Value::from("moved")),
            write("out", "c", Value::from(2.0)),
            write("nope", "d", Value::from(3.0)),
            write("raw", "e", Value::from(4.0)),
        ];
        match host.submit(id, writes, false) {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::SessionFailed);
                let cause = StoreError::FamilyNotFound {
                    table: "t".into(),
                    family: "nope".into(),
                };
                assert_eq!(message, format!("write to t/nope/d failed: {cause}"));
            }
            other => panic!("expected the write to fail: {other:?}"),
        }
        let Response::StoreImage { clock, bytes } = host.query_store(id) else {
            panic!("store query failed");
        };
        assert_eq!(clock, 3);
        let store =
            DataStore::from_state(smartflux_durability::decode_store_state(&bytes).unwrap())
                .unwrap();
        assert_eq!(
            store.get("t", "raw", "b", "v").unwrap(),
            Some("moved".into())
        );
        assert_eq!(store.get("t", "out", "c", "v").unwrap(), Some(2.0.into()));
        assert_eq!(store.get("t", "raw", "e", "v").unwrap(), None);
        host.shutdown();
    }

    #[test]
    fn unknown_workload_and_session_are_typed() {
        let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
        assert!(matches!(
            host.open_session(&SessionSpec {
                workload: "nope".into(),
                ..SessionSpec::default()
            }),
            Response::Error {
                code: ErrorCode::UnknownWorkload,
                ..
            }
        ));
        assert!(is_unknown_session(&host.submit(999, vec![], true)));
        // Durable spec without a durability root is refused up front.
        assert!(matches!(
            host.open_session(&SessionSpec {
                durable_key: Some("k".into()),
                ..ramp_spec()
            }),
            Response::Error {
                code: ErrorCode::Internal,
                ..
            }
        ));
        host.shutdown();
    }

    #[test]
    fn requests_run_on_the_calling_thread() {
        let seen = Arc::new(Mutex::new(None));
        let record = Arc::clone(&seen);
        let host = EngineHost::new(
            registry_of(move |store| {
                let record = Arc::clone(&record);
                hooked_ramp_workflow(store, move || {
                    *record.lock() = Some(std::thread::current().id());
                })
            }),
            HostConfig::new(),
            Telemetry::disabled(),
        );
        let id = open(&host, &ramp_spec());
        assert!(matches!(
            host.submit(id, vec![], true),
            Response::WaveResult(_)
        ));
        assert_eq!(*seen.lock(), Some(std::thread::current().id()));
    }

    /// The host owns no thread, so nothing can outlive its last handle:
    /// the registry and every open session (whose steps hold `token`)
    /// are freed by the drop alone, without `shutdown()`.
    #[test]
    fn dropped_host_leaves_nothing_behind() {
        let token = Arc::new(());
        let held = Arc::clone(&token);
        let host = EngineHost::new(
            registry_of(move |store| {
                let held = Arc::clone(&held);
                hooked_ramp_workflow(store, move || {
                    let _ = &held;
                })
            }),
            HostConfig::new(),
            Telemetry::disabled(),
        );
        let id = open(&host, &ramp_spec());
        assert!(matches!(
            host.submit(id, vec![], true),
            Response::WaveResult(_)
        ));
        assert!(Arc::strong_count(&token) > 1);
        drop(host);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn busy_counts_the_parked_callers_and_control_requests_pass_a_full_session() {
        let telemetry = Telemetry::enabled();
        let host = EngineHost::new(
            test_registry(),
            HostConfig::new().with_queue_capacity(2),
            telemetry.clone(),
        );
        let id = open(&host, &ramp_spec());
        let slot = host.slot(id).unwrap();
        let expect_busy = |depth: u32| match host.submit(id, vec![], true) {
            Response::Busy { session, depth: d } => assert_eq!((session, d), (id, depth)),
            other => panic!("expected Busy, got {other:?}"),
        };

        // Hold the session mutex so every caller parks, fill the session
        // to capacity, then watch the third submit bounce.
        let stall = slot.session.lock();
        let parked = spawn_submitters(&host, id, 2);
        await_waiting(&slot, 2);
        expect_busy(2);

        // A control request is admitted past the cap and counted.
        let drainer = {
            let host = host.clone();
            std::thread::spawn(move || host.drain(id))
        };
        await_waiting(&slot, 3);
        expect_busy(3);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.gauge(names::NET_QUEUE_DEPTH), 3);
        assert_eq!(snapshot.counter(names::NET_BUSY_REJECTIONS), 2);

        drop(stall);
        for t in parked {
            assert!(matches!(t.join().unwrap(), Response::WaveResult(_)));
        }
        assert!(matches!(drainer.join().unwrap(), Response::Drained { .. }));
        assert_eq!(telemetry.snapshot().gauge(names::NET_QUEUE_DEPTH), 0);
        host.shutdown();
    }

    /// A submit racing a close is answered — it ran, or it was told the
    /// session is gone — and never stranded: every call below returns.
    #[test]
    fn concurrent_close_and_submit_never_strand_a_caller() {
        for _ in 0..25 {
            let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
            let id = open(&host, &ramp_spec());
            let submitters: Vec<_> = (0..4)
                .map(|_| {
                    let host = host.clone();
                    std::thread::spawn(move || {
                        for _ in 0..8 {
                            let response = host.submit(id, vec![], true);
                            assert!(
                                matches!(response, Response::WaveResult(_))
                                    || is_unknown_session(&response),
                                "submit racing close answered {response:?}"
                            );
                        }
                    })
                })
                .collect();
            let closer = {
                let host = host.clone();
                std::thread::spawn(move || {
                    std::thread::yield_now();
                    host.close(id)
                })
            };
            for t in submitters {
                t.join().unwrap();
            }
            assert!(matches!(closer.join().unwrap(), Response::Closed { .. }));
            assert_eq!(host.session_count(), 0);
            host.shutdown();
        }
    }

    /// A stalled session holds up only its own callers: with three
    /// submits parked on it, another session's submit still completes.
    #[test]
    fn stalled_session_does_not_delay_another_session() {
        let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
        let slow = open(&host, &ramp_spec());
        let fast = open(&host, &ramp_spec());
        let slow_slot = host.slot(slow).unwrap();

        let stall = slow_slot.session.lock();
        let parked = spawn_submitters(&host, slow, 3);
        await_waiting(&slow_slot, 3);

        assert!(matches!(
            host.submit(fast, vec![], true),
            Response::WaveResult(_)
        ));

        drop(stall);
        for t in parked {
            assert!(matches!(t.join().unwrap(), Response::WaveResult(_)));
        }
        host.shutdown();
    }

    #[test]
    fn kill_answers_parked_callers_and_zeroes_the_gauges() {
        let telemetry = Telemetry::enabled();
        let host = EngineHost::new(test_registry(), HostConfig::new(), telemetry.clone());
        let id = open(&host, &ramp_spec());
        let slot = host.slot(id).unwrap();

        // Stall the session so three submits park on it, then kill the
        // host; once the stall lifts, every parked caller must be turned
        // away and both gauges must return to zero.
        let stall = slot.session.lock();
        let parked = spawn_submitters(&host, id, 3);
        await_waiting(&slot, 3);
        let killer = {
            let host = host.clone();
            std::thread::spawn(move || host.kill())
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while !host.inner.abort.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "kill never aborted");
            std::thread::yield_now();
        }
        drop(stall);
        for t in parked {
            assert!(is_shutting_down(&t.join().unwrap()));
        }
        killer.join().unwrap();
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.gauge(names::NET_QUEUE_DEPTH), 0);
        assert_eq!(snapshot.gauge(names::NET_SESSIONS_OPEN), 0);
        assert_eq!(host.session_count(), 0);
    }

    /// Regression: `open_session` checked `accepting` only before it
    /// built the session, so one that was mid-construction while
    /// `shutdown()` emptied the map was inserted afterwards and never
    /// checkpointed, closed or counted.
    #[test]
    fn open_session_losing_to_shutdown_is_refused() {
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        // The builder must be `Sync`; a std receiver alone is not.
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        let telemetry = Telemetry::enabled();
        let host = EngineHost::new(
            registry_of(move |store| {
                entered_tx.lock().send(()).unwrap();
                release_rx.lock().recv().unwrap();
                ramp_workflow(store)
            }),
            HostConfig::new(),
            telemetry.clone(),
        );
        let opener = {
            let host = host.clone();
            std::thread::spawn(move || host.open_session(&ramp_spec()))
        };
        entered_rx.recv().unwrap();
        host.shutdown();
        release_tx.send(()).unwrap();
        assert!(is_shutting_down(&opener.join().unwrap()));
        assert_eq!(host.session_count(), 0);
        assert_eq!(telemetry.snapshot().gauge(names::NET_SESSIONS_OPEN), 0);
    }

    #[test]
    fn shutdown_rejects_new_work_and_is_idempotent() {
        let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
        let id = open(&host, &ramp_spec());
        assert!(matches!(
            host.submit(id, vec![], true),
            Response::WaveResult(_)
        ));
        host.shutdown();
        assert!(is_shutting_down(&host.submit(id, vec![], true)));
        assert!(is_shutting_down(&host.open_session(&ramp_spec())));
        host.shutdown(); // second call is a no-op
        host.kill(); // and so is a kill after shutdown
    }

    #[test]
    fn sessions_are_independent() {
        let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
        let a = open(
            &host,
            &SessionSpec {
                seed: Some(5),
                ..ramp_spec()
            },
        );
        let b = open(
            &host,
            &SessionSpec {
                seed: Some(6),
                ..ramp_spec()
            },
        );
        assert_ne!(a, b);
        for _ in 0..3 {
            assert!(matches!(
                host.submit(a, vec![], true),
                Response::WaveResult(_)
            ));
        }
        assert!(matches!(
            host.submit(b, vec![], true),
            Response::WaveResult(_)
        ));
        match (host.drain(a), host.drain(b)) {
            (
                Response::Drained {
                    executed_waves: wa, ..
                },
                Response::Drained {
                    executed_waves: wb, ..
                },
            ) => {
                assert_eq!(wa, 3);
                assert_eq!(wb, 1);
            }
            other => panic!("drain failed: {other:?}"),
        }
        host.shutdown();
    }

    #[test]
    fn net_metrics_land_on_the_host_telemetry() {
        let telemetry = Telemetry::enabled();
        let host = EngineHost::new(test_registry(), HostConfig::new(), telemetry.clone());
        let id = open(&host, &ramp_spec());
        assert!(matches!(
            host.submit(id, vec![], true),
            Response::WaveResult(_)
        ));
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.gauge(names::NET_SESSIONS_OPEN), 1);
        assert_eq!(snapshot.gauge(names::NET_QUEUE_DEPTH), 0);
        host.shutdown();
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.gauge(names::NET_SESSIONS_OPEN), 0);
    }
}
