//! The SFNP v2 wire protocol: framing, message types, and their codec.
//!
//! Every message travels in one CRC-framed envelope reusing the
//! durability layer's conventions ([`smartflux_durability::codec`]):
//!
//! ```text
//! frame   := len:u32 | crc:u32 | payload[len]     (little-endian, CRC-32 of payload)
//! payload := tag:u8 | body
//! ```
//!
//! A connection opens with a versioned handshake — [`Request::Hello`]
//! carrying the `"SFNP"` magic and the protocol version, answered by
//! [`Response::HelloOk`] or a typed [`Response::Error`] frame — then
//! carries strictly one response frame per request frame.
//!
//! Damage classification follows the WAL precedent: a stream that ends
//! mid-frame is *torn* ([`NetError::Torn`]), a complete frame whose CRC
//! or body fails validation is *corrupt* ([`NetError::Corrupt`]). Both
//! close the connection with a typed error and neither ever touches
//! session state.

use std::io::{Read, Write};

use smartflux_datastore::Value;
use smartflux_durability::codec::{
    put_bytes, put_f64, put_str, put_u16, put_u32, put_u64, put_u8, put_value, Reader,
};
use smartflux_durability::crc32;

use crate::error::NetError;

/// Handshake magic carried by [`Request::Hello`].
pub const MAGIC: [u8; 4] = *b"SFNP";

/// The protocol version this build speaks.
pub const VERSION: u16 = 2;

/// Upper bound on a frame's declared payload length. A header
/// announcing more is rejected as corrupt before any allocation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// How many consecutive read timeouts mid-frame are tolerated before
/// the peer is declared dead and the frame torn.
const MAX_MID_FRAME_STALLS: u32 = 150;

/// Machine-readable error classes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The handshake offered a version this peer does not speak.
    UnsupportedVersion,
    /// `OpenSession` named a workload absent from the host registry.
    UnknownWorkload,
    /// A request referenced a session id that is not open.
    UnknownSession,
    /// The frame decoded to no valid request (bad tag or body).
    BadFrame,
    /// The session's engine failed executing the request.
    SessionFailed,
    /// The host is draining; no new work is accepted.
    ShuttingDown,
    /// Unclassified server-side failure.
    Internal,
}

impl ErrorCode {
    /// Stable kebab-case name (used in messages and logs).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::UnknownWorkload => "unknown-workload",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::SessionFailed => "session-failed",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::UnsupportedVersion => 1,
            ErrorCode::UnknownWorkload => 2,
            ErrorCode::UnknownSession => 3,
            ErrorCode::BadFrame => 4,
            ErrorCode::SessionFailed => 5,
            ErrorCode::ShuttingDown => 6,
            ErrorCode::Internal => 7,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::UnsupportedVersion),
            2 => Some(ErrorCode::UnknownWorkload),
            3 => Some(ErrorCode::UnknownSession),
            4 => Some(ErrorCode::BadFrame),
            5 => Some(ErrorCode::SessionFailed),
            6 => Some(ErrorCode::ShuttingDown),
            7 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

/// What a client asks for when opening a session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionSpec {
    /// Name of a workload registered on the host.
    pub workload: String,
    /// Overrides the registered config's RNG seed.
    pub seed: Option<u64>,
    /// Overrides the registered config's training-phase length.
    pub training_waves: Option<u32>,
    /// Keys this session's durability directory under the host's
    /// durability root; `None` runs the session without checkpoints.
    pub durable_key: Option<String>,
    /// With a `durable_key`: resume from that key's checkpoint if one
    /// exists instead of starting fresh.
    pub resume: bool,
}

/// One container write inside a [`Request::SubmitWave`] batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerWrite {
    /// Target table.
    pub table: String,
    /// Target column family.
    pub family: String,
    /// Row key.
    pub row: String,
    /// Column qualifier.
    pub qualifier: String,
    /// The value to write.
    pub value: Value,
}

/// Per-wave decision row served by [`Response::Decisions`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRow {
    /// The wave the row describes.
    pub wave: u64,
    /// Whether the wave ran in the training phase.
    pub training: bool,
    /// Impact ι per QoD step, bit-exact.
    pub impacts: Vec<f64>,
    /// Trigger decision per QoD step.
    pub decisions: Vec<bool>,
}

/// The result of one triggered wave, served by [`Response::WaveResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveReport {
    /// The wave that ran.
    pub wave: u64,
    /// Whether it ran in the training phase.
    pub training: bool,
    /// Store logical clock after the wave.
    pub clock: u64,
    /// Step names that executed, in execution order.
    pub executed: Vec<String>,
    /// Step names the trigger policy skipped.
    pub skipped: Vec<String>,
    /// Step names deferred awaiting a first predecessor execution.
    pub deferred: Vec<String>,
}

/// Client→server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Versioned handshake; must be the first frame on a connection.
    Hello {
        /// The protocol version the client speaks.
        version: u16,
    },
    /// Opens (or resumes) a session.
    OpenSession(SessionSpec),
    /// Applies a batch of container writes and, when `run_wave` is set,
    /// triggers one wave.
    SubmitWave {
        /// Target session.
        session: u64,
        /// Writes applied before the wave trigger.
        writes: Vec<ContainerWrite>,
        /// `false` ingests only (answered by [`Response::Ingested`]).
        run_wave: bool,
    },
    /// Reads per-wave decision rows from `from_wave` onward.
    QueryDecisions {
        /// Target session.
        session: u64,
        /// First wave of interest (0 = everything).
        from_wave: u64,
    },
    /// Reads the session's full store image (durability encoding).
    QueryStore {
        /// Target session.
        session: u64,
    },
    /// Waits until every queued submission has executed.
    Drain {
        /// Target session.
        session: u64,
    },
    /// Closes the session (checkpointing it first when durable).
    Close {
        /// Target session.
        session: u64,
    },
}

/// Server→client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The version the server will speak.
        version: u16,
    },
    /// Session created or resumed.
    SessionOpened {
        /// The session id for subsequent requests.
        session: u64,
        /// Whether a durable checkpoint was resumed.
        resumed: bool,
        /// The wave the session will run next.
        next_wave: u64,
    },
    /// One wave ran; its outcome.
    WaveResult(WaveReport),
    /// An ingest-only submission was applied.
    Ingested {
        /// Writes applied.
        count: u32,
        /// Store logical clock after the batch.
        clock: u64,
    },
    /// Decision rows for a [`Request::QueryDecisions`].
    Decisions {
        /// Matching rows in wave order.
        rows: Vec<DecisionRow>,
    },
    /// The full store image for a [`Request::QueryStore`].
    StoreImage {
        /// Store logical clock at capture.
        clock: u64,
        /// [`smartflux_durability::encode_store_state`] bytes.
        bytes: Vec<u8>,
    },
    /// Every previously queued submission has executed.
    Drained {
        /// The session that drained.
        session: u64,
        /// Waves executed over the session's lifetime.
        executed_waves: u64,
    },
    /// The session is closed.
    Closed {
        /// The session that closed.
        session: u64,
    },
    /// Submission rejected: the session's bounded queue is full.
    Busy {
        /// The overloaded session.
        session: u64,
        /// Jobs queued when the submission was rejected.
        depth: u32,
    },
    /// Typed failure.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable context.
        message: String,
    },
}

// Request tags (< 0x80).
const TAG_HELLO: u8 = 1;
const TAG_OPEN_SESSION: u8 = 2;
const TAG_SUBMIT_WAVE: u8 = 3;
const TAG_QUERY_DECISIONS: u8 = 4;
const TAG_QUERY_STORE: u8 = 5;
const TAG_DRAIN: u8 = 6;
const TAG_CLOSE: u8 = 7;

// Response tags (>= 0x80).
const TAG_HELLO_OK: u8 = 0x81;
const TAG_SESSION_OPENED: u8 = 0x82;
const TAG_WAVE_RESULT: u8 = 0x83;
const TAG_INGESTED: u8 = 0x84;
const TAG_DECISIONS: u8 = 0x85;
const TAG_STORE_IMAGE: u8 = 0x86;
const TAG_DRAINED: u8 = 0x87;
const TAG_CLOSED: u8 = 0x88;
const TAG_BUSY: u8 = 0x89;
const TAG_ERROR: u8 = 0x8A;

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            put_u8(out, 1);
            put_u64(out, v);
        }
        None => put_u8(out, 0),
    }
}

fn read_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, NetError> {
    Ok(match r.u8()? {
        0 => None,
        _ => Some(r.u64()?),
    })
}

fn put_opt_str(out: &mut Vec<u8>, v: Option<&str>) {
    match v {
        Some(s) => {
            put_u8(out, 1);
            put_str(out, s);
        }
        None => put_u8(out, 0),
    }
}

fn read_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, NetError> {
    Ok(match r.u8()? {
        0 => None,
        _ => Some(r.str()?),
    })
}

fn put_str_list(out: &mut Vec<u8>, items: &[String]) {
    put_u32(out, items.len() as u32);
    for s in items {
        put_str(out, s);
    }
}

fn read_str_list(r: &mut Reader<'_>) -> Result<Vec<String>, NetError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(r.str()?);
    }
    Ok(out)
}

/// Encodes `request` into a frame payload (tag + body).
#[must_use]
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match request {
        Request::Hello { version } => {
            put_u8(&mut out, TAG_HELLO);
            out.extend_from_slice(&MAGIC);
            put_u16(&mut out, *version);
        }
        Request::OpenSession(spec) => {
            put_u8(&mut out, TAG_OPEN_SESSION);
            put_str(&mut out, &spec.workload);
            put_opt_u64(&mut out, spec.seed);
            put_opt_u64(&mut out, spec.training_waves.map(u64::from));
            put_opt_str(&mut out, spec.durable_key.as_deref());
            put_u8(&mut out, u8::from(spec.resume));
        }
        Request::SubmitWave {
            session,
            writes,
            run_wave,
        } => {
            put_u8(&mut out, TAG_SUBMIT_WAVE);
            put_u64(&mut out, *session);
            put_u8(&mut out, u8::from(*run_wave));
            put_u32(&mut out, writes.len() as u32);
            for w in writes {
                put_str(&mut out, &w.table);
                put_str(&mut out, &w.family);
                put_str(&mut out, &w.row);
                put_str(&mut out, &w.qualifier);
                put_value(&mut out, &w.value);
            }
        }
        Request::QueryDecisions { session, from_wave } => {
            put_u8(&mut out, TAG_QUERY_DECISIONS);
            put_u64(&mut out, *session);
            put_u64(&mut out, *from_wave);
        }
        Request::QueryStore { session } => {
            put_u8(&mut out, TAG_QUERY_STORE);
            put_u64(&mut out, *session);
        }
        Request::Drain { session } => {
            put_u8(&mut out, TAG_DRAIN);
            put_u64(&mut out, *session);
        }
        Request::Close { session } => {
            put_u8(&mut out, TAG_CLOSE);
            put_u64(&mut out, *session);
        }
    }
    out
}

/// Decodes a frame payload into a [`Request`].
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] on an unknown tag, a truncated body, or
/// trailing bytes; never panics on malformed input.
pub fn decode_request(payload: &[u8]) -> Result<Request, NetError> {
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    let request = match tag {
        TAG_HELLO => {
            let magic = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
            if magic != MAGIC {
                return Err(NetError::Corrupt {
                    context: "handshake magic mismatch".to_owned(),
                });
            }
            Request::Hello { version: r.u16()? }
        }
        TAG_OPEN_SESSION => Request::OpenSession(SessionSpec {
            workload: r.str()?,
            seed: read_opt_u64(&mut r)?,
            training_waves: read_opt_u64(&mut r)?.map(|v| v as u32),
            durable_key: read_opt_str(&mut r)?,
            resume: r.u8()? != 0,
        }),
        TAG_SUBMIT_WAVE => {
            let session = r.u64()?;
            let run_wave = r.u8()? != 0;
            let n = r.u32()? as usize;
            let mut writes = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                writes.push(ContainerWrite {
                    table: r.str()?,
                    family: r.str()?,
                    row: r.str()?,
                    qualifier: r.str()?,
                    value: r.value()?,
                });
            }
            Request::SubmitWave {
                session,
                writes,
                run_wave,
            }
        }
        TAG_QUERY_DECISIONS => Request::QueryDecisions {
            session: r.u64()?,
            from_wave: r.u64()?,
        },
        TAG_QUERY_STORE => Request::QueryStore { session: r.u64()? },
        TAG_DRAIN => Request::Drain { session: r.u64()? },
        TAG_CLOSE => Request::Close { session: r.u64()? },
        other => {
            return Err(NetError::Corrupt {
                context: format!("unknown request tag {other}"),
            })
        }
    };
    finish(&r)?;
    Ok(request)
}

/// Encodes `response` into a frame payload (tag + body).
#[must_use]
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match response {
        Response::HelloOk { version } => {
            put_u8(&mut out, TAG_HELLO_OK);
            put_u16(&mut out, *version);
        }
        Response::SessionOpened {
            session,
            resumed,
            next_wave,
        } => {
            put_u8(&mut out, TAG_SESSION_OPENED);
            put_u64(&mut out, *session);
            put_u8(&mut out, u8::from(*resumed));
            put_u64(&mut out, *next_wave);
        }
        Response::WaveResult(report) => {
            put_u8(&mut out, TAG_WAVE_RESULT);
            put_u64(&mut out, report.wave);
            put_u8(&mut out, u8::from(report.training));
            put_u64(&mut out, report.clock);
            put_str_list(&mut out, &report.executed);
            put_str_list(&mut out, &report.skipped);
            put_str_list(&mut out, &report.deferred);
        }
        Response::Ingested { count, clock } => {
            put_u8(&mut out, TAG_INGESTED);
            put_u32(&mut out, *count);
            put_u64(&mut out, *clock);
        }
        Response::Decisions { rows } => {
            put_u8(&mut out, TAG_DECISIONS);
            put_u32(&mut out, rows.len() as u32);
            for row in rows {
                put_u64(&mut out, row.wave);
                put_u8(&mut out, u8::from(row.training));
                put_u32(&mut out, row.impacts.len() as u32);
                for v in &row.impacts {
                    put_f64(&mut out, *v);
                }
                for d in &row.decisions {
                    put_u8(&mut out, u8::from(*d));
                }
            }
        }
        Response::StoreImage { clock, bytes } => {
            put_u8(&mut out, TAG_STORE_IMAGE);
            put_u64(&mut out, *clock);
            put_bytes(&mut out, bytes);
        }
        Response::Drained {
            session,
            executed_waves,
        } => {
            put_u8(&mut out, TAG_DRAINED);
            put_u64(&mut out, *session);
            put_u64(&mut out, *executed_waves);
        }
        Response::Closed { session } => {
            put_u8(&mut out, TAG_CLOSED);
            put_u64(&mut out, *session);
        }
        Response::Busy { session, depth } => {
            put_u8(&mut out, TAG_BUSY);
            put_u64(&mut out, *session);
            put_u32(&mut out, *depth);
        }
        Response::Error { code, message } => {
            put_u8(&mut out, TAG_ERROR);
            put_u8(&mut out, code.to_u8());
            put_str(&mut out, message);
        }
    }
    out
}

/// Decodes a frame payload into a [`Response`].
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] on an unknown tag, a truncated body, or
/// trailing bytes; never panics on malformed input.
pub fn decode_response(payload: &[u8]) -> Result<Response, NetError> {
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    let response = match tag {
        TAG_HELLO_OK => Response::HelloOk { version: r.u16()? },
        TAG_SESSION_OPENED => Response::SessionOpened {
            session: r.u64()?,
            resumed: r.u8()? != 0,
            next_wave: r.u64()?,
        },
        TAG_WAVE_RESULT => Response::WaveResult(WaveReport {
            wave: r.u64()?,
            training: r.u8()? != 0,
            clock: r.u64()?,
            executed: read_str_list(&mut r)?,
            skipped: read_str_list(&mut r)?,
            deferred: read_str_list(&mut r)?,
        }),
        TAG_INGESTED => Response::Ingested {
            count: r.u32()?,
            clock: r.u64()?,
        },
        TAG_DECISIONS => {
            let n = r.u32()? as usize;
            let mut rows = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                let wave = r.u64()?;
                let training = r.u8()? != 0;
                let k = r.u32()? as usize;
                let mut impacts = Vec::with_capacity(k.min(4096));
                for _ in 0..k {
                    impacts.push(r.f64()?);
                }
                let mut decisions = Vec::with_capacity(k.min(4096));
                for _ in 0..k {
                    decisions.push(r.u8()? != 0);
                }
                rows.push(DecisionRow {
                    wave,
                    training,
                    impacts,
                    decisions,
                });
            }
            Response::Decisions { rows }
        }
        TAG_STORE_IMAGE => Response::StoreImage {
            clock: r.u64()?,
            bytes: r.bytes()?,
        },
        TAG_DRAINED => Response::Drained {
            session: r.u64()?,
            executed_waves: r.u64()?,
        },
        TAG_CLOSED => Response::Closed { session: r.u64()? },
        TAG_BUSY => Response::Busy {
            session: r.u64()?,
            depth: r.u32()?,
        },
        TAG_ERROR => {
            let raw = r.u8()?;
            let code = ErrorCode::from_u8(raw).ok_or_else(|| NetError::Corrupt {
                context: format!("unknown error code {raw}"),
            })?;
            Response::Error {
                code,
                message: r.str()?,
            }
        }
        other => {
            return Err(NetError::Corrupt {
                context: format!("unknown response tag {other}"),
            })
        }
    };
    finish(&r)?;
    Ok(response)
}

fn finish(r: &Reader<'_>) -> Result<(), NetError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(NetError::Corrupt {
            context: format!("{} trailing bytes after message body", r.remaining()),
        })
    }
}

/// Writes one frame (header + payload) to `w`.
///
/// Enforces [`MAX_FRAME`] symmetrically with [`read_frame_from`]: a
/// payload the peer would reject as corrupt is refused here with
/// [`NetError::FrameTooLarge`] *before* any byte is written, so the
/// stream stays frame-aligned and the caller can still send a typed
/// error frame instead. (This also guards the `usize → u32` length
/// conversion, which would otherwise silently truncate.)
///
/// # Errors
///
/// Returns [`NetError::FrameTooLarge`] for payloads over [`MAX_FRAME`];
/// otherwise propagates the underlying write failure.
pub fn write_frame_to(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    if payload.len() > MAX_FRAME {
        return Err(NetError::FrameTooLarge { len: payload.len() });
    }
    let mut buf = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut buf, payload.len() as u32);
    put_u32(&mut buf, crc32(payload));
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    Ok(())
}

/// Outcome of reading one frame from a stream.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameIn {
    /// A complete, CRC-valid frame payload.
    Frame(Vec<u8>),
    /// Clean end of stream before any byte of a new frame — the peer
    /// closed the connection between messages.
    Closed,
    /// The read timed out before any byte of a new frame arrived; the
    /// caller should check its stop condition and retry.
    Idle,
}

/// Reads one frame from `r`, classifying damage the durability way:
/// a stream that ends mid-frame is [`NetError::Torn`], a complete frame
/// with a bad CRC or an oversized declared length is
/// [`NetError::Corrupt`].
///
/// A read timeout *before* the first header byte yields
/// [`FrameIn::Idle`] so pollers can interleave stop-flag checks; a
/// timeout mid-frame retries a bounded number of times, then tears.
///
/// # Errors
///
/// Returns [`NetError::Torn`], [`NetError::Corrupt`], or the underlying
/// [`NetError::Io`] failure.
pub fn read_frame_from(r: &mut impl Read) -> Result<FrameIn, NetError> {
    let mut header = [0u8; 8];
    match read_exact_classified(r, &mut header, true)? {
        ReadOutcome::Done => {}
        ReadOutcome::ClosedAtStart => return Ok(FrameIn::Closed),
        ReadOutcome::IdleAtStart => return Ok(FrameIn::Idle),
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME {
        return Err(NetError::Corrupt {
            context: format!("declared frame length {len} exceeds {MAX_FRAME}"),
        });
    }
    let mut payload = vec![0u8; len];
    match read_exact_classified(r, &mut payload, false)? {
        ReadOutcome::Done => {}
        // Unreachable with allow_idle=false, but keep the typed answer.
        ReadOutcome::ClosedAtStart | ReadOutcome::IdleAtStart => return Err(NetError::Torn),
    }
    if crc32(&payload) != crc {
        return Err(NetError::Corrupt {
            context: "frame CRC mismatch".to_owned(),
        });
    }
    Ok(FrameIn::Frame(payload))
}

enum ReadOutcome {
    Done,
    ClosedAtStart,
    IdleAtStart,
}

/// Fills `buf` from `r`, distinguishing the boundary cases: EOF before
/// the first byte (peer closed cleanly), timeout before the first byte
/// (idle poll), EOF mid-buffer (torn), repeated timeouts mid-buffer
/// (stalled peer → torn).
fn read_exact_classified(
    r: &mut impl Read,
    buf: &mut [u8],
    allow_idle: bool,
) -> Result<ReadOutcome, NetError> {
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && allow_idle {
                    return Ok(ReadOutcome::ClosedAtStart);
                }
                return Err(NetError::Torn);
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if filled == 0 && allow_idle {
                    return Ok(ReadOutcome::IdleAtStart);
                }
                stalls += 1;
                if stalls > MAX_MID_FRAME_STALLS {
                    return Err(NetError::Torn);
                }
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(ReadOutcome::Done)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello { version: VERSION },
            Request::OpenSession(SessionSpec {
                workload: "lrb".into(),
                seed: Some(11),
                training_waves: Some(30),
                durable_key: Some("client-a".into()),
                resume: true,
            }),
            Request::OpenSession(SessionSpec {
                workload: "aqhi".into(),
                ..SessionSpec::default()
            }),
            Request::SubmitWave {
                session: 7,
                writes: vec![
                    ContainerWrite {
                        table: "t".into(),
                        family: "f".into(),
                        row: "r".into(),
                        qualifier: "q".into(),
                        value: Value::from(1.5),
                    },
                    ContainerWrite {
                        table: "t".into(),
                        family: "f".into(),
                        row: "r2".into(),
                        qualifier: "name".into(),
                        value: Value::from("x"),
                    },
                ],
                run_wave: true,
            },
            Request::SubmitWave {
                session: 7,
                writes: vec![],
                run_wave: false,
            },
            Request::QueryDecisions {
                session: 7,
                from_wave: 31,
            },
            Request::QueryStore { session: 7 },
            Request::Drain { session: 7 },
            Request::Close { session: 7 },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::HelloOk { version: VERSION },
            Response::SessionOpened {
                session: 7,
                resumed: true,
                next_wave: 41,
            },
            Response::WaveResult(WaveReport {
                wave: 12,
                training: false,
                clock: 999,
                executed: vec!["feed".into(), "agg".into()],
                skipped: vec!["classify".into()],
                deferred: vec![],
            }),
            Response::Ingested { count: 3, clock: 5 },
            Response::Decisions {
                rows: vec![DecisionRow {
                    wave: 12,
                    training: true,
                    impacts: vec![0.25, f64::NAN],
                    decisions: vec![true, false],
                }],
            },
            Response::StoreImage {
                clock: 77,
                bytes: vec![1, 2, 3, 4],
            },
            Response::Drained {
                session: 7,
                executed_waves: 200,
            },
            Response::Closed { session: 7 },
            Response::Busy {
                session: 7,
                depth: 16,
            },
            Response::Error {
                code: ErrorCode::UnknownWorkload,
                message: "no workload `nope`".into(),
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in sample_requests() {
            let payload = encode_request(&req);
            let back = decode_request(&payload).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in sample_responses() {
            let payload = encode_response(&resp);
            let back = decode_response(&payload).unwrap();
            // NaN impacts make PartialEq fail; compare via re-encoding
            // (the codec is bit-exact for f64).
            assert_eq!(encode_response(&back), payload);
        }
    }

    #[test]
    fn truncated_bodies_are_typed_corruption() {
        for req in sample_requests() {
            let payload = encode_request(&req);
            for cut in 0..payload.len() {
                match decode_request(&payload[..cut]) {
                    Err(NetError::Corrupt { .. }) => {}
                    other => panic!("cut at {cut} of {req:?}: got {other:?}"),
                }
            }
        }
        for resp in sample_responses() {
            let payload = encode_response(&resp);
            for cut in 0..payload.len() {
                match decode_response(&payload[..cut]) {
                    Err(NetError::Corrupt { .. }) => {}
                    other => panic!("cut at {cut} of {resp:?}: got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        assert!(matches!(
            decode_request(&[0x7F]),
            Err(NetError::Corrupt { .. })
        ));
        assert!(matches!(
            decode_response(&[0x01]),
            Err(NetError::Corrupt { .. })
        ));
        let mut payload = encode_request(&Request::Drain { session: 1 });
        payload.push(0);
        assert!(matches!(
            decode_request(&payload),
            Err(NetError::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_handshake_magic_is_rejected() {
        let mut payload = encode_request(&Request::Hello { version: VERSION });
        payload[1] = b'X';
        assert!(matches!(
            decode_request(&payload),
            Err(NetError::Corrupt { .. })
        ));
    }

    #[test]
    fn stream_framing_roundtrips_and_classifies_damage() {
        let payload = encode_request(&Request::QueryStore { session: 3 });
        let mut buf = Vec::new();
        write_frame_to(&mut buf, &payload).unwrap();
        write_frame_to(&mut buf, &payload).unwrap();

        let mut cursor = std::io::Cursor::new(buf.clone());
        assert_eq!(
            read_frame_from(&mut cursor).unwrap(),
            FrameIn::Frame(payload.clone())
        );
        assert_eq!(
            read_frame_from(&mut cursor).unwrap(),
            FrameIn::Frame(payload.clone())
        );
        assert_eq!(read_frame_from(&mut cursor).unwrap(), FrameIn::Closed);

        // Truncation anywhere inside a frame tears, never panics.
        let one_frame = &buf[..buf.len() / 2];
        for cut in 1..one_frame.len() {
            let mut cursor = std::io::Cursor::new(one_frame[..cut].to_vec());
            match read_frame_from(&mut cursor) {
                Err(NetError::Torn) => {}
                other => panic!("cut at {cut}: got {other:?}"),
            }
        }

        // A flipped payload byte in a complete frame is corruption.
        let mut damaged = buf.clone();
        damaged[9] ^= 0xFF;
        let mut cursor = std::io::Cursor::new(damaged);
        assert!(matches!(
            read_frame_from(&mut cursor),
            Err(NetError::Corrupt { .. })
        ));

        // An absurd declared length is rejected before allocation.
        let mut oversized = Vec::new();
        put_u32(&mut oversized, (MAX_FRAME + 1) as u32);
        put_u32(&mut oversized, 0);
        let mut cursor = std::io::Cursor::new(oversized);
        assert!(matches!(
            read_frame_from(&mut cursor),
            Err(NetError::Corrupt { .. })
        ));
    }

    #[test]
    fn oversized_payload_is_refused_before_any_byte_is_written() {
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        match write_frame_to(&mut sink, &payload) {
            Err(NetError::FrameTooLarge { len }) => assert_eq!(len, MAX_FRAME + 1),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // The stream stays frame-aligned: nothing was written, so a
        // typed error frame can still follow.
        assert!(sink.is_empty());
        let payload = vec![0u8; MAX_FRAME];
        write_frame_to(&mut sink, &payload).unwrap();
        assert_eq!(sink.len(), MAX_FRAME + 8);
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownWorkload,
            ErrorCode::UnknownSession,
            ErrorCode::BadFrame,
            ErrorCode::SessionFailed,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()), Some(code));
            assert!(!code.as_str().is_empty());
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(200), None);
    }
}
