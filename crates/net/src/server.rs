//! The SFNP server: [`ListenerPool`] connections driving an [`EngineHost`].
//!
//! Each accepted connection is served by one pool worker for its whole
//! lifetime (the protocol is strictly request/response, so a connection
//! never needs more than one thread). The handler enforces the
//! handshake-first rule, then loops: read one frame, dispatch to the
//! host, write one response frame. Frames are read through one buffer per
//! connection, so a frame's header and payload usually cost one `read`.
//! Between frames it polls the pool's [`StopFlag`] on a short read
//! timeout so [`NetServer::shutdown`] completes in bounded time even with
//! idle clients connected.
//!
//! Damage never propagates: a torn or corrupt inbound frame bumps
//! `net.frame_errors`, earns a best-effort typed error frame, and closes
//! the connection — the host and its sessions are untouched, because a
//! request is only dispatched after its frame fully decoded. A
//! `SubmitWave` batch is checked whole, then applied from the frame in
//! place ([`EngineHost::submit_batch`]).

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use smartflux_obs::{ListenerPool, StopFlag};

use crate::error::NetError;
use crate::host::{EngineHost, ShutdownReport};
use crate::wire::{self, ErrorCode, FrameIn, Request, RequestRef, Response, VERSION};

/// How long a connection read blocks before the handler re-checks the
/// stop flag. Bounds shutdown latency for idle connections.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Write timeout: a peer that stops draining its socket for this long
/// forfeits the connection instead of wedging a pool worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// A listening SFNP endpoint bound to an [`EngineHost`].
#[derive(Debug)]
pub struct NetServer {
    pool: ListenerPool,
    host: EngineHost,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `host` over
    /// `workers` concurrent connections.
    ///
    /// # Errors
    ///
    /// Returns binding errors (address in use, permission denied, ...).
    pub fn start(addr: &str, host: EngineHost, workers: usize) -> io::Result<Self> {
        let handler_host = host.clone();
        let pool = ListenerPool::start(addr, workers, move |stream, stop| {
            serve_connection(&stream, &handler_host, stop);
        })?;
        Ok(Self { pool, host })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.pool.addr()
    }

    /// The host this server fronts.
    #[must_use]
    pub fn host(&self) -> &EngineHost {
        &self.host
    }

    /// Orderly shutdown: closes the listeners (waking idle connections
    /// via the stop flag), then drains and checkpoints the host
    /// ([`EngineHost::shutdown`]). In-flight waves finish first: the
    /// host keeps accepting until every connection handler has
    /// returned, so no request a connection already read is refused.
    /// The report counts checkpoints written and lists any that failed
    /// (whose sessions' waves since their last periodic checkpoint are
    /// not on disk).
    pub fn shutdown(self) -> ShutdownReport {
        self.pool.shutdown();
        self.host.shutdown()
    }

    /// Simulated crash: aborts the host first ([`EngineHost::kill`] —
    /// waiting requests get `shutting-down` errors, nothing is
    /// checkpointed), then closes the listeners.
    pub fn kill(self) {
        self.host.kill();
        self.pool.shutdown();
    }
}

fn serve_connection(stream: &TcpStream, host: &EngineHost, stop: &StopFlag) {
    if let Some(m) = host.metrics() {
        m.connections.incr();
        m.active_connections.add(1);
    }
    drive_connection(stream, host, stop);
    if let Some(m) = host.metrics() {
        m.active_connections.add(-1);
    }
}

/// Runs one connection to completion. Every exit path has already sent
/// whatever goodbye frame it could; errors never escape to the pool.
fn drive_connection(stream: &TcpStream, host: &EngineHost, stop: &StopFlag) {
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    // A read timeout surfaces through the buffer as it does from the
    // socket, and consumes nothing, so idle polls and the mid-frame stall
    // limit work as on the bare stream.
    let mut frames = BufReader::new(stream);
    let mut hello_done = false;
    loop {
        let payload = match wire::read_frame_from(&mut frames) {
            Ok(FrameIn::Frame(payload)) => payload,
            Ok(FrameIn::Idle) => {
                if stop.is_set() {
                    return;
                }
                continue;
            }
            Ok(FrameIn::Closed) => return,
            Err(e) => {
                note_frame_error(host);
                let (code, message) = match &e {
                    NetError::Torn => (ErrorCode::BadFrame, "torn frame".to_owned()),
                    NetError::Corrupt { context } => {
                        (ErrorCode::BadFrame, format!("corrupt frame: {context}"))
                    }
                    other => (ErrorCode::Internal, other.to_string()),
                };
                // Best effort: the peer that sent garbage may be gone.
                let _ = send_response(stream, host, &Response::Error { code, message });
                return;
            }
        };
        if let Some(m) = host.metrics() {
            m.frames_in.incr();
        }
        let request = match wire::decode_request_ref(&payload) {
            Ok(request) => request,
            Err(e) => {
                note_frame_error(host);
                let _ = send_response(
                    stream,
                    host,
                    &Response::Error {
                        code: ErrorCode::BadFrame,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        if !hello_done {
            match request {
                RequestRef::Other(Request::Hello { version: VERSION }) => {
                    if send_response(stream, host, &Response::HelloOk { version: VERSION }).is_err()
                    {
                        return;
                    }
                    hello_done = true;
                    continue;
                }
                RequestRef::Other(Request::Hello { version }) => {
                    let _ = send_response(
                        stream,
                        host,
                        &Response::Error {
                            code: ErrorCode::UnsupportedVersion,
                            message: format!(
                                "server speaks version {VERSION}, client offered {version}"
                            ),
                        },
                    );
                    return;
                }
                _ => {
                    note_frame_error(host);
                    let _ = send_response(
                        stream,
                        host,
                        &Response::Error {
                            code: ErrorCode::BadFrame,
                            message: "first frame must be the Hello handshake".to_owned(),
                        },
                    );
                    return;
                }
            }
        }
        let response = dispatch(host, request);
        if send_response(stream, host, &response).is_err() {
            return;
        }
    }
}

fn dispatch(host: &EngineHost, request: RequestRef<'_>) -> Response {
    let request = match request {
        RequestRef::SubmitWave {
            session,
            writes,
            run_wave,
        } => return host.submit_batch(session, writes, run_wave),
        RequestRef::Other(request) => request,
    };
    match request {
        Request::Hello { .. } => Response::Error {
            code: ErrorCode::BadFrame,
            message: "duplicate Hello handshake".to_owned(),
        },
        Request::OpenSession(spec) => host.open_session(&spec),
        Request::SubmitWave {
            session,
            writes,
            run_wave,
        } => host.submit(session, writes, run_wave),
        Request::QueryDecisions { session, from_wave } => host.query_decisions(session, from_wave),
        Request::QueryStore { session } => host.query_store(session),
        Request::Drain { session } => host.drain(session),
        Request::Close { session } => host.close(session),
    }
}

fn send_response(
    mut stream: &TcpStream,
    host: &EngineHost,
    response: &Response,
) -> Result<(), NetError> {
    match wire::write_frame_to(&mut stream, &wire::encode_response(response)) {
        Ok(()) => {}
        // The response (e.g. a StoreImage past MAX_FRAME), not the
        // connection, is at fault — and nothing hit the stream, so the
        // client gets a diagnosable typed error on a connection that
        // stays alive instead of a corrupt-frame failure that kills it.
        Err(NetError::FrameTooLarge { len }) => {
            wire::write_frame_to(
                &mut stream,
                &wire::encode_response(&Response::Error {
                    code: ErrorCode::SessionFailed,
                    message: format!(
                        "response of {len} bytes exceeds the {} byte frame limit",
                        wire::MAX_FRAME
                    ),
                }),
            )?;
        }
        Err(e) => return Err(e),
    }
    if let Some(m) = host.metrics() {
        m.frames_out.incr();
    }
    Ok(())
}

fn note_frame_error(host: &EngineHost) {
    if let Some(m) = host.metrics() {
        m.frame_errors.incr();
    }
}
