//! The multi-session engine host.
//!
//! An [`EngineHost`] multiplexes N independent SmartFlux sessions — each
//! with its own [`SmartFluxSession`] (engine + sharded store + optional
//! WAL) — over a fixed pool of worker threads. Mutating requests
//! (submissions, drain, close) are queued per session and executed
//! strictly FIFO by whichever worker wins the session's mutex, so one
//! slow session never blocks the others while each individual session
//! stays single-threaded and deterministic. Queues are bounded: a
//! submission that arrives with the queue full is rejected immediately
//! with [`Response::Busy`] instead of absorbing unbounded memory.
//!
//! Scheduling works on tickets: a job enqueued onto an *idle* session
//! sends that session's slot down one shared unbounded channel; the
//! ticket wakes one worker, which becomes the session's sole server —
//! it locks the session, pops jobs FIFO, and after each job either
//! parks the session (queue empty) or re-sends the ticket so other
//! sessions' work interleaves fairly across the pool. At most one
//! worker ever serves a given session, so a slow session costs the
//! pool exactly one thread, and every queued job is answered either by
//! its session's server or by the close/kill drain paths — never
//! stranded.
//!
//! Shutdown comes in two flavours:
//!
//! - [`shutdown`](EngineHost::shutdown) — orderly drain: stop admitting,
//!   let the workers finish every queued job, join them, then checkpoint
//!   every durable session so [`SmartFluxSession::recover`] resumes
//!   exactly where processing stopped.
//! - [`kill`](EngineHost::kill) — simulated crash: queued jobs are
//!   answered with a `shutting-down` error and **no** checkpoint is
//!   written, leaving recovery to the periodic checkpoint + WAL exactly
//!   as a real crash would.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use smartflux::{
    CoreError, DurabilityError, DurabilityOptions, Phase, SmartFluxSession, SyncPolicy,
};
use smartflux_datastore::DataStore;
use smartflux_durability::encode_store_state;
use smartflux_telemetry::{names, Counter, Gauge, Telemetry};
use smartflux_wms::StepId;

use crate::registry::WorkflowRegistry;
use crate::wire::{ContainerWrite, DecisionRow, ErrorCode, Response, SessionSpec, WaveReport};

/// Tuning knobs for an [`EngineHost`].
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Worker threads executing queued session jobs.
    pub workers: usize,
    /// Per-session bound on queued (not yet executing) jobs; a
    /// submission beyond it is answered with [`Response::Busy`].
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
            workers: 4,
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

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-session queue bound.
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

enum JobRequest {
    Submit {
        writes: Vec<ContainerWrite>,
        run_wave: bool,
    },
    Drain,
    Close,
}

struct Job {
    request: JobRequest,
    reply: Sender<Response>,
}

/// Queue state behind one mutex, so admission, close, and the serving
/// hand-off all agree on a single interleaving.
#[derive(Default)]
struct SessionQueue {
    /// Pending jobs, strictly FIFO.
    jobs: VecDeque<Job>,
    /// True while a ticket for this session is in flight or a worker is
    /// serving it. [`EngineHost::enqueue`] sends a ticket only on the
    /// idle→serving transition; the server clears the flag only after
    /// observing an empty queue under this mutex.
    serving: bool,
    /// Set (under this mutex) by the Close job *before* it drains
    /// leftovers; `enqueue` checks it under the same lock, so no job
    /// can slip in after the drain and sit in a queue nothing serves.
    closed: bool,
}

struct SessionSlot {
    id: u64,
    durable: bool,
    /// `None` once the session is closed. Lock order: this mutex is
    /// always acquired *before* `queue` and before the host-wide
    /// `sessions` map lock; never the other way around.
    session: Mutex<Option<SmartFluxSession>>,
    queue: Mutex<SessionQueue>,
}

struct HostInner {
    registry: WorkflowRegistry,
    config: HostConfig,
    telemetry: Telemetry,
    metrics: Option<NetMetrics>,
    sessions: RwLock<HashMap<u64, Arc<SessionSlot>>>,
    // tidy:atomic(next_id: relaxed): id allocator — only uniqueness matters, no ordering with other state
    next_id: AtomicU64,
    /// `None` once shutdown begins; cloned out (single statement) before
    /// each send so the channel is never used under the mutex.
    tickets: Mutex<Option<Sender<Arc<SessionSlot>>>>,
    /// Workers share the single receiver; `recv` under the mutex *is*
    /// the dispatch protocol (the holder parks until a ticket arrives,
    /// takes it, and releases before executing). The receiver lives
    /// here for the host's whole lifetime, so a ticket send through a
    /// live sender clone can never fail.
    ticket_rx: Mutex<Receiver<Arc<SessionSlot>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    // tidy:atomic(accepting: acq-rel): admission flag — the release store at shutdown publishes the decision, acquire loads in request paths observe it; no total order needed
    accepting: AtomicBool,
    // tidy:atomic(abort: acq-rel): kill switch — release store in kill(), acquire loads in workers skip queued jobs after it
    abort: AtomicBool,
}

/// Outcome of an orderly [`EngineHost::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Durable sessions whose close-time checkpoint was written.
    pub checkpointed: usize,
    /// Close-time checkpoint failures, one `session <id>: <error>` line
    /// each. Durable sessions run under `SyncPolicy::Never`, so a
    /// session listed here may have an unsynced WAL tail — an orderly
    /// shutdown with failures must not be treated as clean.
    pub checkpoint_failures: Vec<String>,
}

/// The multi-session engine host (cheaply cloneable handle).
///
/// Dropping the last handle without calling [`shutdown`](Self::shutdown)
/// or [`kill`](Self::kill) leaves the worker threads parked until
/// process exit (they hold their own references); orderly teardown is
/// the caller's job, exactly like [`ListenerPool`].
///
/// [`ListenerPool`]: smartflux_obs::ListenerPool
#[derive(Clone)]
pub struct EngineHost {
    inner: Arc<HostInner>,
}

impl EngineHost {
    /// Starts the host's worker pool over `registry`.
    ///
    /// `telemetry` receives the `net.*` counters, gauges, and the
    /// submit-latency histogram when enabled; pass
    /// [`Telemetry::disabled`] to make every instrumentation site
    /// short-circuit.
    #[must_use]
    pub fn new(registry: WorkflowRegistry, config: HostConfig, telemetry: Telemetry) -> Self {
        let (ticket_tx, ticket_rx) = unbounded();
        let inner = Arc::new(HostInner {
            registry,
            metrics: NetMetrics::build(&telemetry),
            telemetry,
            sessions: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            tickets: Mutex::new(Some(ticket_tx)),
            ticket_rx: Mutex::new(ticket_rx),
            workers: Mutex::new(Vec::new()),
            accepting: AtomicBool::new(true),
            abort: AtomicBool::new(false),
            config: inner_config(config),
        });
        let workers: Vec<JoinHandle<()>> = (0..inner.config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        *inner.workers.lock() = workers;
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
            return error_response(ErrorCode::ShuttingDown, "host is shutting down");
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
        let mut durable = false;
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
                    .with_sync(SyncPolicy::Never)
                    .with_checkpoint_interval(inner.config.checkpoint_interval),
            );
            durable = true;
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
            queue: Mutex::new(SessionQueue::default()),
        });
        inner.sessions.write().insert(id, slot);
        if let Some(m) = &inner.metrics {
            m.sessions_open.add(1);
        }
        Response::SessionOpened {
            session: id,
            resumed,
            next_wave,
        }
    }

    /// Queues a batch of container writes (plus, with `run_wave`, one
    /// wave trigger) and blocks until the worker pool executes it.
    ///
    /// Returns [`Response::Busy`] immediately — without queueing — when
    /// the session's queue is at capacity.
    #[must_use]
    pub fn submit(&self, session: u64, writes: Vec<ContainerWrite>, run_wave: bool) -> Response {
        self.enqueue(session, JobRequest::Submit { writes, run_wave }, false)
    }

    /// Blocks until every job queued before this call has executed.
    /// Control jobs bypass the queue-capacity bound.
    #[must_use]
    pub fn drain(&self, session: u64) -> Response {
        self.enqueue(session, JobRequest::Drain, true)
    }

    /// Closes `session` after the jobs already queued ahead of it,
    /// checkpointing first when the session is durable.
    #[must_use]
    pub fn close(&self, session: u64) -> Response {
        self.enqueue(session, JobRequest::Close, true)
    }

    /// Reads per-wave decision rows from `from_wave` onward. Runs on the
    /// caller's thread (it only waits for the session mutex, not for the
    /// session's queue to drain).
    #[must_use]
    pub fn query_decisions(&self, session: u64, from_wave: u64) -> Response {
        let Some(slot) = self.slot(session) else {
            return unknown_session(session);
        };
        let guard = slot.session.lock();
        let Some(live) = guard.as_ref() else {
            return unknown_session(session);
        };
        let rows = live.engine().with(|e| {
            e.diagnostics_since(from_wave)
                .iter()
                .map(|d| DecisionRow {
                    wave: d.wave,
                    training: d.training,
                    impacts: d.impacts.clone(),
                    decisions: d.decisions.clone(),
                })
                .collect()
        });
        Response::Decisions { rows }
    }

    /// Reads the session's full store image (durability encoding) and
    /// logical clock. Runs on the caller's thread.
    #[must_use]
    pub fn query_store(&self, session: u64) -> Response {
        let Some(slot) = self.slot(session) else {
            return unknown_session(session);
        };
        let guard = slot.session.lock();
        let Some(live) = guard.as_ref() else {
            return unknown_session(session);
        };
        let store = live.scheduler().store();
        let bytes = encode_store_state(&store.export_state());
        Response::StoreImage {
            clock: store.clock(),
            bytes,
        }
    }

    /// Orderly shutdown: stops admitting requests, lets the workers
    /// finish every queued job, joins them, then checkpoints and closes
    /// every durable session. The report counts the checkpoints written
    /// and lists every checkpoint that *failed* — a failure means the
    /// session's WAL tail may be unsynced, so callers must not fold it
    /// into "nothing to checkpoint". Idempotent.
    pub fn shutdown(&self) -> ShutdownReport {
        let inner = &self.inner;
        inner.accepting.store(false, Ordering::Release);
        drop(inner.tickets.lock().take());
        let workers = std::mem::take(&mut *inner.workers.lock());
        for worker in workers {
            let _ = worker.join();
        }
        let slots: Vec<Arc<SessionSlot>> = inner
            .sessions
            .write()
            .drain()
            .map(|(_, slot)| slot)
            .collect();
        let mut report = ShutdownReport::default();
        for slot in slots {
            let taken = slot.session.lock().take();
            if let Some(mut session) = taken {
                if let Some(m) = &inner.metrics {
                    m.sessions_open.add(-1);
                }
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
        }
        report
    }

    /// Simulated crash: queued jobs are answered with a
    /// `shutting-down` error, workers are joined, and **no** checkpoint
    /// is written — durable sessions must come back through
    /// [`SmartFluxSession::recover`] from their last periodic
    /// checkpoint, exactly as after a real crash. Idempotent.
    pub fn kill(&self) {
        let inner = &self.inner;
        inner.accepting.store(false, Ordering::Release);
        inner.abort.store(true, Ordering::Release);
        drop(inner.tickets.lock().take());
        let workers = std::mem::take(&mut *inner.workers.lock());
        for worker in workers {
            let _ = worker.join();
        }
        let slots: Vec<Arc<SessionSlot>> = inner
            .sessions
            .write()
            .drain()
            .map(|(_, slot)| slot)
            .collect();
        for slot in slots {
            // Belt and braces: the abort path drained every served
            // session, but any straggler still queued gets a typed
            // reply rather than a hang.
            let leftovers = std::mem::take(&mut slot.queue.lock().jobs);
            for job in leftovers {
                if let Some(m) = &inner.metrics {
                    m.queue_depth.add(-1);
                }
                let _ = job
                    .reply
                    .send(error_response(ErrorCode::ShuttingDown, "host killed"));
            }
            let taken = slot.session.lock().take();
            if taken.is_some() {
                if let Some(m) = &inner.metrics {
                    m.sessions_open.add(-1);
                }
            }
        }
    }

    fn slot(&self, id: u64) -> Option<Arc<SessionSlot>> {
        self.inner.sessions.read().get(&id).cloned()
    }

    fn enqueue(&self, id: u64, request: JobRequest, control: bool) -> Response {
        let inner = &self.inner;
        if !inner.accepting.load(Ordering::Acquire) {
            return error_response(ErrorCode::ShuttingDown, "host is shutting down");
        }
        let Some(slot) = self.slot(id) else {
            return unknown_session(id);
        };
        // Clone the sender out first: holding a clone keeps the channel
        // alive, so a ticket sent below is guaranteed to be drained by a
        // worker even if shutdown takes the original concurrently.
        let ticket_tx = inner.tickets.lock().clone();
        let Some(ticket_tx) = ticket_tx else {
            return error_response(ErrorCode::ShuttingDown, "host is shutting down");
        };
        let (reply_tx, reply_rx) = unbounded();
        // Simulation mutation: reintroduce the PR 9 close-vs-submit race
        // for the harness to catch — widen the window between the map
        // lookup above and the queue admission below, so a concurrent
        // close can complete in between.
        if cfg!(sim_mutation) && !control {
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        let schedule = {
            let mut queue = slot.queue.lock();
            // Checked under the queue mutex the Close drain also holds:
            // either this job lands before the drain (and is answered by
            // it), or it observes `closed` — it can never be pushed into
            // a queue nothing will ever serve again. (Skipped under the
            // sim mutation: the reintroduced bug admits jobs to a closed
            // queue.)
            if cfg!(not(sim_mutation)) && queue.closed {
                return unknown_session(id);
            }
            if !control && queue.jobs.len() >= inner.config.queue_capacity {
                let depth = queue.jobs.len() as u32;
                drop(queue);
                if let Some(m) = &inner.metrics {
                    m.busy_rejections.incr();
                }
                return Response::Busy { session: id, depth };
            }
            queue.jobs.push_back(Job {
                request,
                reply: reply_tx,
            });
            !std::mem::replace(&mut queue.serving, true)
        };
        if let Some(m) = &inner.metrics {
            m.queue_depth.add(1);
        }
        if schedule {
            // Idle→serving transition: wake one worker for this session.
            // The receiver lives in `HostInner` for the host's lifetime,
            // so this send cannot fail while we hold a sender clone.
            let _ = ticket_tx.send(Arc::clone(&slot));
        }
        match reply_rx.recv() {
            Ok(response) => response,
            Err(_) => error_response(ErrorCode::ShuttingDown, "host shut down before replying"),
        }
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

fn inner_config(mut config: HostConfig) -> HostConfig {
    config.workers = config.workers.max(1);
    config.queue_capacity = config.queue_capacity.max(1);
    config.checkpoint_interval = config.checkpoint_interval.max(1);
    config
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

fn worker_loop(inner: &HostInner) {
    loop {
        // The receiver is shared through the mutex: the holder parks in
        // recv until a ticket arrives, then releases the guard (end of
        // statement) before executing, so dispatch stays concurrent.
        let ticket = inner.ticket_rx.lock().recv();
        match ticket {
            Ok(slot) => run_one(inner, &slot),
            // All senders gone: shutdown drained every buffered ticket.
            Err(_) => return,
        }
    }
}

/// Serves queued jobs of one session. The ticket carries the slot
/// itself (never a map lookup — a job stays reachable even after its
/// session leaves the map), and the `serving` flag guarantees at most
/// one worker is in here per session, so a slow session occupies
/// exactly one pool thread. After each job the remaining work is
/// handed back through the ticket channel so other sessions interleave
/// fairly; once shutdown has taken the channel, the drain finishes
/// inline instead.
fn run_one(inner: &HostInner, slot: &Arc<SessionSlot>) {
    let id = slot.id;
    loop {
        let mut session_guard = slot.session.lock();
        let job = {
            let mut queue = slot.queue.lock();
            match queue.jobs.pop_front() {
                Some(job) => job,
                None => {
                    queue.serving = false;
                    return;
                }
            }
        };
        if let Some(m) = &inner.metrics {
            m.queue_depth.add(-1);
        }
        if inner.abort.load(Ordering::Acquire) {
            drop(session_guard);
            let _ = job
                .reply
                .send(error_response(ErrorCode::ShuttingDown, "host killed"));
        } else {
            match job.request {
                JobRequest::Submit { writes, run_wave } => {
                    let response = match session_guard.as_mut() {
                        Some(session) => execute_submit(inner, session, &writes, run_wave),
                        None => unknown_session(id),
                    };
                    drop(session_guard);
                    let _ = job.reply.send(response);
                }
                JobRequest::Drain => {
                    let response = match session_guard.as_ref() {
                        Some(session) => Response::Drained {
                            session: id,
                            executed_waves: session.executed_waves(),
                        },
                        None => unknown_session(id),
                    };
                    drop(session_guard);
                    let _ = job.reply.send(response);
                }
                JobRequest::Close => {
                    let taken = session_guard.take();
                    // Jobs enqueued after the close (FIFO) die with the
                    // session: `closed` flips under the queue mutex, so
                    // every concurrent enqueue either landed in these
                    // leftovers or observes the flag and is refused.
                    let leftovers = {
                        let mut queue = slot.queue.lock();
                        queue.closed = true;
                        std::mem::take(&mut queue.jobs)
                    };
                    inner.sessions.write().remove(&id);
                    drop(session_guard);
                    let response = match taken {
                        None => unknown_session(id),
                        Some(mut session) => {
                            if let Some(m) = &inner.metrics {
                                m.sessions_open.add(-1);
                            }
                            if slot.durable {
                                match session.checkpoint() {
                                    Ok(_) => Response::Closed { session: id },
                                    Err(e) => error_response(
                                        ErrorCode::SessionFailed,
                                        &format!("close-time checkpoint failed: {e}"),
                                    ),
                                }
                            } else {
                                Response::Closed { session: id }
                            }
                        }
                    };
                    for leftover in leftovers {
                        if let Some(m) = &inner.metrics {
                            m.queue_depth.add(-1);
                        }
                        let _ = leftover.reply.send(error_response(
                            ErrorCode::UnknownSession,
                            "session closed before the job ran",
                        ));
                    }
                    let _ = job.reply.send(response);
                    // Simulation mutation: the reintroduced PR 9 bug
                    // assumed the drain emptied the queue and stopped
                    // serving here without re-checking (or clearing
                    // `serving`), stranding any job the racing enqueue
                    // slipped in after the drain.
                    if cfg!(sim_mutation) {
                        return;
                    }
                }
            }
        }
        {
            let mut queue = slot.queue.lock();
            if queue.jobs.is_empty() {
                queue.serving = false;
                return;
            }
        }
        // More work queued: hand the session back through the channel so
        // other sessions' tickets get a turn on this thread. When
        // shutdown/kill already took the channel, keep draining inline —
        // every queued job must still be answered.
        let handoff = inner.tickets.lock().clone();
        match handoff {
            Some(tx) if tx.send(Arc::clone(slot)).is_ok() => return,
            _ => {}
        }
    }
}

fn execute_submit(
    inner: &HostInner,
    session: &mut SmartFluxSession,
    writes: &[ContainerWrite],
    run_wave: bool,
) -> Response {
    let store = session.scheduler().store().clone();
    for w in writes {
        if let Err(e) = store.put(&w.table, &w.family, &w.row, &w.qualifier, w.value.clone()) {
            return error_response(
                ErrorCode::SessionFailed,
                &format!("write to {}/{}/{} failed: {e}", w.table, w.family, w.row),
            );
        }
    }
    if !run_wave {
        return Response::Ingested {
            count: writes.len() as u32,
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

    fn ramp_workflow(store: &DataStore) -> Workflow {
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
            FnStep::new(|ctx: &StepContext| {
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

    fn test_registry() -> WorkflowRegistry {
        let mut registry = WorkflowRegistry::new();
        registry.register(
            "ramp",
            EngineConfig::new()
                .with_training_waves(10)
                .with_quality_gates(0.3, 0.3)
                .with_seed(1),
            ramp_workflow,
        );
        registry
    }

    fn open(host: &EngineHost, spec: &SessionSpec) -> u64 {
        match host.open_session(spec) {
            Response::SessionOpened { session, .. } => session,
            other => panic!("open failed: {other:?}"),
        }
    }

    #[test]
    fn open_submit_query_drain_close() {
        let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
        let id = open(
            &host,
            &SessionSpec {
                workload: "ramp".into(),
                ..SessionSpec::default()
            },
        );
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
        assert!(matches!(
            host.submit(id, vec![], true),
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
        host.shutdown();
    }

    #[test]
    fn ingest_only_writes_are_visible_to_steps() {
        let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
        let id = open(
            &host,
            &SessionSpec {
                workload: "ramp".into(),
                ..SessionSpec::default()
            },
        );
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
        assert!(matches!(
            host.submit(999, vec![], true),
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
        // Durable spec without a durability root is refused up front.
        assert!(matches!(
            host.open_session(&SessionSpec {
                workload: "ramp".into(),
                durable_key: Some("k".into()),
                ..SessionSpec::default()
            }),
            Response::Error {
                code: ErrorCode::Internal,
                ..
            }
        ));
        host.shutdown();
    }

    #[test]
    fn full_queue_answers_busy_without_blocking() {
        let host = EngineHost::new(
            test_registry(),
            HostConfig::new().with_queue_capacity(2),
            Telemetry::disabled(),
        );
        let id = open(
            &host,
            &SessionSpec {
                workload: "ramp".into(),
                ..SessionSpec::default()
            },
        );
        let slot = host.slot(id).unwrap();

        // Hold the session mutex so no worker can pop jobs, fill the
        // queue from two threads, then watch the third submit bounce.
        let stall = slot.session.lock();
        let filler = |host: EngineHost| std::thread::spawn(move || host.submit(id, vec![], true));
        let a = filler(host.clone());
        let b = filler(host.clone());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while slot.queue.lock().jobs.len() < 2 {
            assert!(std::time::Instant::now() < deadline, "queue never filled");
            std::thread::yield_now();
        }
        match host.submit(id, vec![], true) {
            Response::Busy { session, depth } => {
                assert_eq!(session, id);
                assert_eq!(depth, 2);
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        drop(stall);
        assert!(matches!(a.join().unwrap(), Response::WaveResult(_)));
        assert!(matches!(b.join().unwrap(), Response::WaveResult(_)));
        host.shutdown();
    }

    /// Regression: a submit racing a close used to be able to push its
    /// job after the close drain; the ticket then found no slot in the
    /// map and the caller hung forever on its reply channel. Every call
    /// below must return (with a typed answer), never hang.
    #[test]
    fn concurrent_close_and_submit_never_strand_a_caller() {
        for _ in 0..25 {
            let host = EngineHost::new(
                test_registry(),
                HostConfig::new().with_workers(2),
                Telemetry::disabled(),
            );
            let id = open(
                &host,
                &SessionSpec {
                    workload: "ramp".into(),
                    ..SessionSpec::default()
                },
            );
            let submitters: Vec<_> = (0..4)
                .map(|_| {
                    let host = host.clone();
                    std::thread::spawn(move || {
                        for _ in 0..8 {
                            // Every response shape is legal here; the
                            // invariant under test is that one arrives.
                            let _ = host.submit(id, vec![], true);
                        }
                    })
                })
                .collect();
            let closer = {
                let host = host.clone();
                std::thread::spawn(move || {
                    std::thread::yield_now();
                    let _ = host.close(id);
                })
            };
            for t in submitters {
                t.join().unwrap();
            }
            closer.join().unwrap();
            host.shutdown();
        }
    }

    /// A stalled session must occupy at most one worker: with two
    /// workers and several jobs queued on a blocked session, a second
    /// session's submit still completes.
    #[test]
    fn slow_session_never_absorbs_the_whole_pool() {
        let host = EngineHost::new(
            test_registry(),
            HostConfig::new().with_workers(2),
            Telemetry::disabled(),
        );
        let spec = SessionSpec {
            workload: "ramp".into(),
            ..SessionSpec::default()
        };
        let slow = open(&host, &spec);
        let fast = open(&host, &spec);
        let slow_slot = host.slot(slow).unwrap();

        // Stall the slow session and queue three jobs on it; under the
        // old ticket-per-job scheme each would wake (and wedge) its own
        // worker, leaving none for `fast`.
        let stall = slow_slot.session.lock();
        let blocked: Vec<_> = (0..3)
            .map(|_| {
                let host = host.clone();
                std::thread::spawn(move || host.submit(slow, vec![], true))
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while slow_slot.queue.lock().jobs.len() < 3 {
            assert!(std::time::Instant::now() < deadline, "queue never filled");
            std::thread::yield_now();
        }

        assert!(matches!(
            host.submit(fast, vec![], true),
            Response::WaveResult(_)
        ));

        drop(stall);
        for t in blocked {
            assert!(matches!(t.join().unwrap(), Response::WaveResult(_)));
        }
        host.shutdown();
    }

    #[test]
    fn kill_answers_queued_jobs_and_zeroes_queue_depth() {
        let telemetry = Telemetry::enabled();
        let host = EngineHost::new(
            test_registry(),
            HostConfig::new().with_workers(1),
            telemetry.clone(),
        );
        let id = open(
            &host,
            &SessionSpec {
                workload: "ramp".into(),
                ..SessionSpec::default()
            },
        );
        let slot = host.slot(id).unwrap();

        // Stall the session so three submits pile up in its queue, then
        // kill the host; once the stall lifts, every queued job must be
        // answered and the depth gauge must return to zero.
        let stall = slot.session.lock();
        let blocked: Vec<_> = (0..3)
            .map(|_| {
                let host = host.clone();
                std::thread::spawn(move || host.submit(id, vec![], true))
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while slot.queue.lock().jobs.len() < 3 {
            assert!(std::time::Instant::now() < deadline, "queue never filled");
            std::thread::yield_now();
        }
        let killer = {
            let host = host.clone();
            std::thread::spawn(move || host.kill())
        };
        while !host.inner.abort.load(Ordering::Acquire) {
            assert!(std::time::Instant::now() < deadline, "kill never aborted");
            std::thread::yield_now();
        }
        drop(stall);
        for t in blocked {
            assert!(matches!(
                t.join().unwrap(),
                Response::Error {
                    code: ErrorCode::ShuttingDown,
                    ..
                }
            ));
        }
        killer.join().unwrap();
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.gauge(names::NET_QUEUE_DEPTH), 0);
        assert_eq!(snapshot.gauge(names::NET_SESSIONS_OPEN), 0);
    }

    #[test]
    fn shutdown_rejects_new_work_and_is_idempotent() {
        let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
        let id = open(
            &host,
            &SessionSpec {
                workload: "ramp".into(),
                ..SessionSpec::default()
            },
        );
        assert!(matches!(
            host.submit(id, vec![], true),
            Response::WaveResult(_)
        ));
        host.shutdown();
        assert!(matches!(
            host.submit(id, vec![], true),
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }
        ));
        assert!(matches!(
            host.open_session(&SessionSpec {
                workload: "ramp".into(),
                ..SessionSpec::default()
            }),
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }
        ));
        host.shutdown(); // second call is a no-op
        host.kill(); // and so is a kill after shutdown
    }

    #[test]
    fn sessions_are_independent() {
        let host = EngineHost::new(test_registry(), HostConfig::new(), Telemetry::disabled());
        let a = open(
            &host,
            &SessionSpec {
                workload: "ramp".into(),
                seed: Some(5),
                ..SessionSpec::default()
            },
        );
        let b = open(
            &host,
            &SessionSpec {
                workload: "ramp".into(),
                seed: Some(6),
                ..SessionSpec::default()
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
        let id = open(
            &host,
            &SessionSpec {
                workload: "ramp".into(),
                ..SessionSpec::default()
            },
        );
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
