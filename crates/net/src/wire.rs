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
//!
//! A `SubmitWave` body is checked whole — every length, count, UTF-8 key
//! and value tag, and that nothing trails it — before anything reads it;
//! the checked [`WriteBatch`] then hands out its writes with their keys
//! borrowed from the frame ([`decode_request_ref`]), so a server applies a
//! batch without building a `String` per key. [`decode_request`] is the
//! same decoder followed by a copy into owned [`ContainerWrite`]s.

use std::io::{Read, Write};

use smartflux_datastore::Value;
use smartflux_durability::codec::{
    put_bytes, put_f64, put_str, put_u16, put_u32, put_u64, put_u8, put_value, Reader,
};
use smartflux_durability::crc32;
use smartflux_telemetry::WaveDiagnostics;

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

impl ContainerWrite {
    /// A borrowed view of this write that moves its value out (leaving
    /// `F64(0.0)` behind), so applying it copies neither keys nor value.
    pub(crate) fn take_ref(&mut self) -> WriteRef<'_> {
        WriteRef {
            table: &self.table,
            family: &self.family,
            row: &self.row,
            qualifier: &self.qualifier,
            value: std::mem::replace(&mut self.value, Value::F64(0.0)),
        }
    }
}

/// One write of a [`WriteBatch`]: its keys borrowed from the frame, its
/// value owned (only a `Text` or `Bytes` value allocates).
#[derive(Debug, Clone, PartialEq)]
pub struct WriteRef<'a> {
    /// Target table.
    pub table: &'a str,
    /// Target column family.
    pub family: &'a str,
    /// Row key.
    pub row: &'a str,
    /// Column qualifier.
    pub qualifier: &'a str,
    /// The value to write.
    pub value: Value,
}

impl WriteRef<'_> {
    /// The owned form, copying the four keys.
    #[must_use]
    pub fn into_owned(self) -> ContainerWrite {
        ContainerWrite {
            table: self.table.to_owned(),
            family: self.family.to_owned(),
            row: self.row.to_owned(),
            qualifier: self.qualifier.to_owned(),
            value: self.value,
        }
    }
}

/// The writes of a `SubmitWave` frame, checked whole and read in place.
///
/// Only [`decode_request_ref`] builds one, and only after every write's
/// keys, value tag and lengths checked out and no byte trails the body —
/// so iterating it cannot fail, and a batch that would fail part-way never
/// reaches a session.
#[derive(Debug, Clone, Copy)]
pub struct WriteBatch<'a> {
    /// The encoded writes, from the first write to the end of the frame.
    body: &'a [u8],
    len: u32,
}

impl WriteBatch<'_> {
    /// Number of writes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the batch carries no write.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> IntoIterator for WriteBatch<'a> {
    type Item = WriteRef<'a>;
    type IntoIter = Writes<'a>;

    fn into_iter(self) -> Writes<'a> {
        Writes {
            r: Reader::new(self.body),
            left: self.len,
        }
    }
}

/// Iterator over a [`WriteBatch`], in frame order.
#[derive(Debug)]
pub struct Writes<'a> {
    r: Reader<'a>,
    left: u32,
}

impl<'a> Iterator for Writes<'a> {
    type Item = WriteRef<'a>;

    fn next(&mut self) -> Option<WriteRef<'a>> {
        self.left = self.left.checked_sub(1)?;
        // The batch was checked whole when it was built, so neither read
        // fails; a failure would end the iteration, never panic.
        let [table, family, row, qualifier] = read_keys(&mut self.r).ok()?;
        Some(WriteRef {
            table,
            family,
            row,
            qualifier,
            value: self.r.value().ok()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for Writes<'_> {}

/// A write's four keys, in place.
fn read_keys<'a>(r: &mut Reader<'a>) -> Result<[&'a str; 4], NetError> {
    Ok([r.str_ref()?, r.str_ref()?, r.str_ref()?, r.str_ref()?])
}

/// Per-wave decision row served by [`Response::Decisions`]. Rows compare
/// bitwise, as [`WaveDiagnostics`] rows do.
#[derive(Debug, Clone)]
pub struct DecisionRow {
    /// The wave the row describes.
    pub wave: u64,
    /// Whether the wave ran in the training phase.
    pub training: bool,
    /// Impact ι per QoD step, bit-exact; NaN where it was not measured.
    pub impacts: Vec<f64>,
    /// Trigger decision per QoD step.
    pub decisions: Vec<bool>,
}

impl PartialEq for DecisionRow {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.impacts, &other.impacts);
        self.wave == other.wave
            && self.training == other.training
            && a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            && self.decisions == other.decisions
    }
}

impl From<&WaveDiagnostics> for DecisionRow {
    fn from(d: &WaveDiagnostics) -> Self {
        Self {
            wave: d.wave,
            training: d.training,
            impacts: d.impacts.clone(),
            decisions: d.decisions.clone(),
        }
    }
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

/// A decoded request whose `SubmitWave` writes stay in their frame
/// ([`decode_request_ref`]).
#[derive(Debug, Clone)]
pub enum RequestRef<'a> {
    /// [`Request::SubmitWave`], its batch checked whole.
    SubmitWave {
        /// Target session.
        session: u64,
        /// Writes applied before the wave trigger.
        writes: WriteBatch<'a>,
        /// `false` ingests only (answered by [`Response::Ingested`]).
        run_wave: bool,
    },
    /// Every other request, decoded as [`decode_request`] decodes it.
    Other(Request),
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

/// The fewest bytes an encoded item can take — an empty string; a decision
/// row with no steps; one step's impact and decision — so a decoded count
/// reserves for no more items than the bytes still unread could hold. (A
/// submitted batch is checked whole before anything is reserved for it.)
const MIN_STR_BYTES: usize = 4;
const MIN_ROW_BYTES: usize = 8 + 1 + 4;
const STEP_BYTES: usize = 8 + 1;

/// Reads a flag or option byte. The encoders write only 0 and 1, so any
/// other byte is damage, named by `what`.
fn read_flag(r: &mut Reader<'_>, what: &str) -> Result<bool, NetError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(NetError::Corrupt {
            context: format!("{what} byte is {other}, not 0 or 1"),
        }),
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            put_u8(out, 1);
            put_u64(out, v);
        }
        None => put_u8(out, 0),
    }
}

fn read_opt_u64(r: &mut Reader<'_>, what: &str) -> Result<Option<u64>, NetError> {
    Ok(if read_flag(r, what)? {
        Some(r.u64()?)
    } else {
        None
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

fn read_opt_str(r: &mut Reader<'_>, what: &str) -> Result<Option<String>, NetError> {
    Ok(if read_flag(r, what)? {
        Some(r.str()?)
    } else {
        None
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
    let mut out = Vec::with_capacity(n.min(r.remaining() / MIN_STR_BYTES));
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

/// Decodes a frame payload into a [`Request`], copying a `SubmitWave`'s
/// writes out of the frame ([`decode_request_ref`] plus
/// [`WriteRef::into_owned`]).
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] on an unknown tag, a truncated body, a
/// flag or option byte other than 0 and 1, or trailing bytes; never panics
/// on malformed input.
pub fn decode_request(payload: &[u8]) -> Result<Request, NetError> {
    Ok(match decode_request_ref(payload)? {
        RequestRef::SubmitWave {
            session,
            writes,
            run_wave,
        } => Request::SubmitWave {
            session,
            writes: writes.into_iter().map(WriteRef::into_owned).collect(),
            run_wave,
        },
        RequestRef::Other(request) => request,
    })
}

/// Decodes a frame payload, leaving a `SubmitWave`'s writes in the frame
/// as a [`WriteBatch`] checked whole.
///
/// # Errors
///
/// As [`decode_request`]: the whole payload is checked before this
/// returns, so a batch that is handed out cannot fail part-way.
pub fn decode_request_ref(payload: &[u8]) -> Result<RequestRef<'_>, NetError> {
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
            seed: read_opt_u64(&mut r, "seed option")?,
            training_waves: read_opt_u64(&mut r, "training_waves option")?
                .map(|v| {
                    u32::try_from(v).map_err(|_| NetError::Corrupt {
                        context: format!("training_waves {v} exceeds u32"),
                    })
                })
                .transpose()?,
            durable_key: read_opt_str(&mut r, "durable_key option")?,
            resume: read_flag(&mut r, "resume flag")?,
        }),
        TAG_SUBMIT_WAVE => {
            let session = r.u64()?;
            let run_wave = read_flag(&mut r, "run_wave flag")?;
            let len = r.u32()?;
            let body = &payload[payload.len() - r.remaining()..];
            for _ in 0..len {
                read_keys(&mut r)?;
                r.skip_value()?;
            }
            finish(&r)?;
            return Ok(RequestRef::SubmitWave {
                session,
                writes: WriteBatch { body, len },
                run_wave,
            });
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
    Ok(RequestRef::Other(request))
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
            resumed: read_flag(&mut r, "resumed flag")?,
            next_wave: r.u64()?,
        },
        TAG_WAVE_RESULT => Response::WaveResult(WaveReport {
            wave: r.u64()?,
            training: read_flag(&mut r, "training flag")?,
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
            let mut rows = Vec::with_capacity(n.min(r.remaining() / MIN_ROW_BYTES));
            for _ in 0..n {
                let wave = r.u64()?;
                let training = read_flag(&mut r, "training flag")?;
                let k = r.u32()? as usize;
                let steps = k.min(r.remaining() / STEP_BYTES);
                let mut impacts = Vec::with_capacity(steps);
                for _ in 0..k {
                    impacts.push(r.f64()?);
                }
                let mut decisions = Vec::with_capacity(steps);
                for _ in 0..k {
                    decisions.push(read_flag(&mut r, "decision")?);
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
            assert_eq!(back, resp);
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
    fn a_submitted_batch_is_read_in_place_from_its_frame() {
        let Request::SubmitWave { writes, .. } = &sample_requests()[3] else {
            panic!("the fourth sample is a submit");
        };
        let payload = encode_request(&sample_requests()[3]);
        let Ok(RequestRef::SubmitWave {
            session: 7,
            writes: batch,
            run_wave: true,
        }) = decode_request_ref(&payload)
        else {
            panic!("the submit decodes in place");
        };
        assert_eq!(batch.len(), writes.len());
        let frame = payload.as_ptr_range();
        for (got, want) in batch.into_iter().zip(writes) {
            assert!(frame.contains(&got.row.as_ptr()), "keys borrow the frame");
            assert_eq!(got.into_owned(), *want);
        }
        // Trailing bytes after the last write refuse the whole batch.
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(matches!(
            decode_request_ref(&trailing),
            Err(NetError::Corrupt { .. })
        ));
        // An empty batch, and an empty body past its count.
        let empty = encode_request(&sample_requests()[4]);
        match decode_request_ref(&empty) {
            Ok(RequestRef::SubmitWave { writes, .. }) => {
                assert!(writes.is_empty());
                assert_eq!(writes.into_iter().next(), None);
            }
            other => panic!("empty submit decoded to {other:?}"),
        }
    }

    #[test]
    fn training_waves_past_u32_is_corrupt_not_wrapped() {
        let open = |waves: u64| {
            let mut p = vec![TAG_OPEN_SESSION];
            put_str(&mut p, "lrb");
            put_opt_u64(&mut p, None);
            put_opt_u64(&mut p, Some(waves));
            put_opt_str(&mut p, None);
            put_u8(&mut p, 0);
            p
        };
        match decode_request(&open((1 << 32) + 5)) {
            Err(NetError::Corrupt { context }) => assert!(context.contains("training_waves")),
            other => panic!("2^32 + 5 training waves decoded to {other:?}"),
        }
        match decode_request(&open(u64::from(u32::MAX))) {
            Ok(Request::OpenSession(spec)) => assert_eq!(spec.training_waves, Some(u32::MAX)),
            other => panic!("u32::MAX training waves decoded to {other:?}"),
        }
    }

    /// `payload` decodes, and with the byte at `at` set to 2 or 0xFF it is
    /// corruption that names `what` — in the owned and the in-place
    /// request decoder alike. Each payload below decodes with 2 in place
    /// of its 1, had that byte been read as "non-zero".
    fn assert_flag_byte(payload: &[u8], at: usize, what: &str, request: bool) {
        let decode = |p: &[u8]| -> Vec<Result<(), NetError>> {
            if request {
                vec![decode_request(p).map(drop), decode_request_ref(p).map(drop)]
            } else {
                vec![decode_response(p).map(drop)]
            }
        };
        assert_eq!(payload[at], 1, "{what} is set in the sample");
        assert!(decode(payload).iter().all(Result::is_ok), "{what}");
        let mut p = payload.to_vec();
        for byte in [2u8, 0xFF] {
            p[at] = byte;
            for result in decode(&p) {
                match result {
                    Err(NetError::Corrupt { context }) => {
                        assert!(context.contains(what), "{what}: {context}");
                    }
                    other => panic!("{what} byte {byte} decoded to {other:?}"),
                }
            }
        }
    }

    /// `OpenSession` with every option present: tag 0, workload 1..6, seed
    /// tag 6, training tag 15, key tag 24, resume 30.
    fn full_open() -> Vec<u8> {
        encode_request(&Request::OpenSession(SessionSpec {
            workload: "w".into(),
            seed: Some(3),
            training_waves: Some(4),
            durable_key: Some("k".into()),
            resume: true,
        }))
    }

    #[test]
    fn seed_option_tag_is_0_or_1() {
        assert_flag_byte(&full_open(), 6, "seed option", true);
    }

    #[test]
    fn training_waves_option_tag_is_0_or_1() {
        assert_flag_byte(&full_open(), 15, "training_waves option", true);
    }

    #[test]
    fn durable_key_option_tag_is_0_or_1() {
        assert_flag_byte(&full_open(), 24, "durable_key option", true);
    }

    #[test]
    fn resume_flag_is_0_or_1() {
        assert_flag_byte(&full_open(), 30, "resume flag", true);
    }

    #[test]
    fn run_wave_flag_is_0_or_1() {
        // Tag 0, session 1..9, run_wave 9.
        let payload = encode_request(&Request::SubmitWave {
            session: 7,
            writes: vec![],
            run_wave: true,
        });
        assert_flag_byte(&payload, 9, "run_wave flag", true);
    }

    #[test]
    fn resumed_flag_is_0_or_1() {
        // Tag 0, session 1..9, resumed 9.
        let payload = encode_response(&Response::SessionOpened {
            session: 7,
            resumed: true,
            next_wave: 41,
        });
        assert_flag_byte(&payload, 9, "resumed flag", false);
    }

    #[test]
    fn wave_report_training_flag_is_0_or_1() {
        // Tag 0, wave 1..9, training 9.
        let payload = encode_response(&Response::WaveResult(WaveReport {
            wave: 3,
            training: true,
            clock: 9,
            executed: vec!["feed".into()],
            skipped: vec![],
            deferred: vec![],
        }));
        assert_flag_byte(&payload, 9, "training flag", false);
    }

    /// One decision row with one step: tag 0, count 1..5, wave 5..13,
    /// training 13, steps 14..18, impact 18..26, decision 26.
    fn one_row() -> Vec<u8> {
        encode_response(&Response::Decisions {
            rows: vec![DecisionRow {
                wave: 12,
                training: true,
                impacts: vec![0.25],
                decisions: vec![true],
            }],
        })
    }

    #[test]
    fn decision_row_training_flag_is_0_or_1() {
        assert_flag_byte(&one_row(), 13, "training flag", false);
    }

    #[test]
    fn step_decision_is_0_or_1() {
        assert_flag_byte(&one_row(), 26, "decision", false);
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
