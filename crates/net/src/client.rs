//! The blocking SFNP client library.
//!
//! One [`Client`] wraps one TCP connection and speaks strictly
//! request/response, so it is deliberately `&mut self` throughout — to
//! submit from several threads, open one client (and usually one
//! session) per thread; sessions on the same host are fully independent.
//!
//! ```no_run
//! use smartflux_net::{Client, SessionSpec};
//!
//! # fn main() -> Result<(), smartflux_net::NetError> {
//! let mut client = Client::connect("127.0.0.1:7171")?;
//! let opened = client.open_session(&SessionSpec {
//!     workload: "lrb".into(),
//!     ..SessionSpec::default()
//! })?;
//! for _ in 0..200 {
//!     let report = client.submit_wave(opened.session, vec![])?;
//!     println!("wave {} executed {:?}", report.wave, report.executed);
//! }
//! client.close_session(opened.session)?;
//! # Ok(())
//! # }
//! ```

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

use smartflux_datastore::StoreState;
use smartflux_durability::decode_store_state;

use crate::error::NetError;
use crate::wire::{
    self, ContainerWrite, DecisionRow, FrameIn, Request, Response, SessionSpec, WaveReport, VERSION,
};

/// What [`Client::open_session`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenedSession {
    /// The session id for subsequent calls.
    pub session: u64,
    /// Whether a durable checkpoint was resumed (`false` on first boot).
    pub resumed: bool,
    /// The wave the session will run next.
    pub next_wave: u64,
}

/// Receipt for an ingest-only submission ([`Client::ingest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Writes applied.
    pub count: u32,
    /// Store logical clock after the batch.
    pub clock: u64,
}

/// A blocking SFNP connection.
#[derive(Debug)]
pub struct Client {
    /// The connection, read through a buffer so a response frame's header
    /// and payload usually cost one `read`; requests are written to the
    /// socket directly.
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` and performs the versioned handshake.
    ///
    /// No read timeout is set: calls block until the server answers
    /// (waves can be slow); a dead server surfaces as
    /// [`NetError::Closed`] or an I/O error when the TCP connection
    /// drops.
    ///
    /// # Errors
    ///
    /// Connection failures, or a typed rejection when the server does
    /// not speak [`VERSION`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = BufReader::new(TcpStream::connect(addr)?);
        let mut client = Self { stream };
        match client.roundtrip(&Request::Hello { version: VERSION })? {
            Response::HelloOk { version: VERSION } => Ok(client),
            Response::HelloOk { version } => Err(NetError::UnsupportedVersion { found: version }),
            other => Err(fail(other)),
        }
    }

    /// Sends one request frame and reads one response frame. The typed
    /// methods below are usually more convenient; this escape hatch
    /// exists for protocol tests and tooling.
    ///
    /// # Errors
    ///
    /// I/O failures, a torn/corrupt response frame, or
    /// [`NetError::Closed`] if the server hung up.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, NetError> {
        wire::write_frame_to(self.stream.get_mut(), &wire::encode_request(request))?;
        self.read_response()
    }

    /// Reads one response frame without sending anything first (tooling
    /// support; the protocol itself never sends unsolicited frames).
    ///
    /// # Errors
    ///
    /// Same as [`roundtrip`](Self::roundtrip).
    pub fn read_response(&mut self) -> Result<Response, NetError> {
        match wire::read_frame_from(&mut self.stream)? {
            FrameIn::Frame(payload) => wire::decode_response(&payload),
            FrameIn::Closed | FrameIn::Idle => Err(NetError::Closed),
        }
    }

    /// Opens (or resumes) a session.
    ///
    /// # Errors
    ///
    /// Transport failures or a typed server rejection
    /// ([`NetError::Remote`] — e.g. `unknown-workload`).
    pub fn open_session(&mut self, spec: &SessionSpec) -> Result<OpenedSession, NetError> {
        match self.roundtrip(&Request::OpenSession(spec.clone()))? {
            Response::SessionOpened {
                session,
                resumed,
                next_wave,
            } => Ok(OpenedSession {
                session,
                resumed,
                next_wave,
            }),
            other => Err(fail(other)),
        }
    }

    /// Applies `writes` and triggers one wave, blocking until the wave
    /// completes on the host.
    ///
    /// # Errors
    ///
    /// [`NetError::Busy`] when the session's queue is full (retry after
    /// backoff), transport failures, or a typed server error.
    pub fn submit_wave(
        &mut self,
        session: u64,
        writes: Vec<ContainerWrite>,
    ) -> Result<WaveReport, NetError> {
        match self.roundtrip(&Request::SubmitWave {
            session,
            writes,
            run_wave: true,
        })? {
            Response::WaveResult(report) => Ok(report),
            other => Err(fail(other)),
        }
    }

    /// Applies `writes` without triggering a wave.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`submit_wave`](Self::submit_wave).
    pub fn ingest(
        &mut self,
        session: u64,
        writes: Vec<ContainerWrite>,
    ) -> Result<IngestReceipt, NetError> {
        match self.roundtrip(&Request::SubmitWave {
            session,
            writes,
            run_wave: false,
        })? {
            Response::Ingested { count, clock } => Ok(IngestReceipt { count, clock }),
            other => Err(fail(other)),
        }
    }

    /// Reads per-wave decision rows from `from_wave` onward (0 = all).
    ///
    /// # Errors
    ///
    /// Transport failures or a typed server error.
    pub fn query_decisions(
        &mut self,
        session: u64,
        from_wave: u64,
    ) -> Result<Vec<DecisionRow>, NetError> {
        match self.roundtrip(&Request::QueryDecisions { session, from_wave })? {
            Response::Decisions { rows } => Ok(rows),
            other => Err(fail(other)),
        }
    }

    /// Reads the session's full store state and logical clock.
    ///
    /// # Errors
    ///
    /// Transport failures, a typed server error, or
    /// [`NetError::Corrupt`] if the returned image fails to decode.
    pub fn query_store(&mut self, session: u64) -> Result<(u64, StoreState), NetError> {
        match self.roundtrip(&Request::QueryStore { session })? {
            Response::StoreImage { clock, bytes } => {
                let state = decode_store_state(&bytes)?;
                Ok((clock, state))
            }
            other => Err(fail(other)),
        }
    }

    /// Blocks until every submission queued before this call executed.
    /// Returns the session's lifetime executed-wave count.
    ///
    /// # Errors
    ///
    /// Transport failures or a typed server error.
    pub fn drain(&mut self, session: u64) -> Result<u64, NetError> {
        match self.roundtrip(&Request::Drain { session })? {
            Response::Drained { executed_waves, .. } => Ok(executed_waves),
            other => Err(fail(other)),
        }
    }

    /// Closes the session (checkpointing it first when durable).
    ///
    /// # Errors
    ///
    /// Transport failures or a typed server error.
    pub fn close_session(&mut self, session: u64) -> Result<(), NetError> {
        match self.roundtrip(&Request::Close { session })? {
            Response::Closed { .. } => Ok(()),
            other => Err(fail(other)),
        }
    }
}

/// Maps a non-matching response to the right error: server error frames
/// become [`NetError::Remote`], `Busy` becomes [`NetError::Busy`], and
/// anything else is a protocol violation.
fn fail(response: Response) -> NetError {
    match response {
        Response::Busy { .. } => NetError::Busy,
        Response::Error { code, message } => NetError::Remote { code, message },
        other => NetError::Corrupt {
            context: format!("unexpected response: {other:?}"),
        },
    }
}
