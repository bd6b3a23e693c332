//! Wire-level robustness: damaged SFNP frames at every byte offset must
//! earn a typed error (never a panic), close the connection cleanly, and
//! leave session state untouched — also when the damage sits behind a fresh
//! CRC, so only the check of the body can catch it; a frame that declares
//! more items than it carries must not make the decoder reserve memory for
//! them; and the in-place batch reads every frame as the owned decode it
//! replaced did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use proptest::prelude::*;
use smartflux::EngineConfig;
use smartflux_datastore::{ContainerRef, DataStore, Value};
use smartflux_durability::codec::Reader;
use smartflux_durability::DurabilityError;
use smartflux_net::wire::{self, FrameIn, RequestRef};
use smartflux_net::{
    Client, ContainerWrite, DecisionRow, EngineHost, ErrorCode, HostConfig, NetError, NetServer,
    Request, Response, SessionSpec, WaveReport, WorkflowRegistry, MAX_FRAME, VERSION,
};
use smartflux_sim::faults::wire as damage;
use smartflux_telemetry::Telemetry;
use smartflux_wms::{FnStep, GraphBuilder, StepContext, Workflow};

/// Forwards to the system allocator, counting the bytes this thread asks
/// for.
struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // No destructor is registered for a const-initialised `Cell<usize>`,
    // so this is reachable at any point of a thread's life.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes this thread asks for in `f`.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

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

/// Accept workers of the test server.
const WORKERS: usize = 4;

fn start_server() -> NetServer {
    let mut registry = WorkflowRegistry::new();
    registry.register(
        "ramp",
        EngineConfig::new()
            .with_training_waves(10)
            .with_quality_gates(0.3, 0.3)
            .with_seed(1),
        ramp_workflow,
    );
    let host = EngineHost::new(registry, HostConfig::new(), Telemetry::disabled());
    NetServer::start("127.0.0.1:0", host, WORKERS).unwrap()
}

/// Encodes `request` as one complete frame (header + payload).
fn frame(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_frame_to(&mut out, &wire::encode_request(request)).unwrap();
    out
}

/// Reads the next response frame, or `None` if the server hung up.
fn read_reply(stream: &mut TcpStream) -> Option<Response> {
    match wire::read_frame_from(stream) {
        Ok(FrameIn::Frame(payload)) => Some(wire::decode_response(&payload).unwrap()),
        Ok(FrameIn::Closed) => None,
        Ok(FrameIn::Idle) => panic!("server sent nothing within the read timeout"),
        Err(e) => panic!("reply was not a clean frame or close: {e}"),
    }
}

/// Like [`read_reply`], but for damage injection, which races with the
/// server's close: a reset connection (the error frame discarded by the
/// kernel) counts as the server hanging up.
fn read_damage_reply(stream: &mut TcpStream) -> Option<Response> {
    match wire::read_frame_from(stream) {
        Ok(FrameIn::Frame(payload)) => Some(wire::decode_response(&payload).unwrap()),
        Ok(FrameIn::Closed) | Err(_) => None,
        Ok(FrameIn::Idle) => panic!("server sent nothing within the read timeout"),
    }
}

fn raw_connection(server: &NetServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Connects and completes the Hello handshake.
fn handshaken(server: &NetServer) -> TcpStream {
    let mut stream = raw_connection(server);
    stream
        .write_all(&frame(&Request::Hello { version: VERSION }))
        .unwrap();
    match read_reply(&mut stream) {
        Some(Response::HelloOk { version }) => assert_eq!(version, VERSION),
        other => panic!("handshake failed: {other:?}"),
    }
    stream
}

#[test]
fn wrong_version_is_rejected_with_a_typed_frame() {
    let server = start_server();
    // The version before this one (its store image has another layout), and
    // one nobody has spoken yet.
    for version in [VERSION - 1, 99] {
        let mut stream = raw_connection(&server);
        stream
            .write_all(&frame(&Request::Hello { version }))
            .unwrap();
        match read_reply(&mut stream) {
            Some(Response::Error { code, message }) => {
                assert_eq!(code, ErrorCode::UnsupportedVersion);
                assert!(message.contains(&version.to_string()));
            }
            other => panic!("expected a typed rejection, got {other:?}"),
        }
        // The server closes the connection after rejecting the handshake.
        assert!(read_reply(&mut stream).is_none());
    }
    server.shutdown();
}

#[test]
fn first_frame_must_be_the_handshake() {
    let server = start_server();
    let mut stream = raw_connection(&server);
    stream
        .write_all(&frame(&Request::Drain { session: 1 }))
        .unwrap();
    match read_reply(&mut stream) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    assert!(read_reply(&mut stream).is_none());
    server.shutdown();
}

#[test]
fn damage_at_every_byte_offset_is_rejected_and_sessions_survive() {
    let server = start_server();

    // A live session the damaged frames will (fail to) reference.
    let mut client = Client::connect(server.addr()).unwrap();
    let opened = client
        .open_session(&SessionSpec {
            workload: "ramp".into(),
            ..SessionSpec::default()
        })
        .unwrap();
    let session = opened.session;
    for _ in 0..3 {
        client.submit_wave(session, vec![]).unwrap();
    }

    let good = frame(&Request::SubmitWave {
        session,
        writes: vec![ContainerWrite {
            table: "t".into(),
            family: "raw".into(),
            row: "x".into(),
            qualifier: "q".into(),
            value: Value::from(1.0),
        }],
        run_wave: true,
    });

    // One flipped byte anywhere in the frame: either the CRC catches it,
    // the declared length collapses, or the stream tears at EOF — always
    // a typed error or a clean close, never a panic, never a mutation.
    // The exhaustive variants come from the shared sim mutator so this
    // battery and the scenario-driven harness damage the same way.
    for (offset, damaged) in damage::flips(&good).enumerate() {
        let mut stream = handshaken(&server);
        // Best-effort: the server may reject and hang up before the
        // write or half-close lands — that's a pass, not a failure.
        if stream.write_all(&damaged).is_err() {
            continue;
        }
        let _ = stream.shutdown(Shutdown::Write);
        match read_damage_reply(&mut stream) {
            Some(Response::Error { .. }) | None => {}
            other => panic!("flip at byte {offset} produced {other:?}"),
        }
    }

    // Every truncation point mid-frame tears cleanly too.
    for (cut, damaged) in damage::truncations(&good) {
        let mut stream = handshaken(&server);
        if stream.write_all(&damaged).is_err() {
            continue;
        }
        let _ = stream.shutdown(Shutdown::Write);
        match read_damage_reply(&mut stream) {
            Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
            None => {}
            other => panic!("cut at byte {cut} produced {other:?}"),
        }
    }

    // The session neither saw a wave nor a stray write from any of the
    // damaged frames, and keeps working.
    let rows = client.query_decisions(session, 0).unwrap();
    assert_eq!(rows.len(), 3, "damaged frames must not reach the session");
    let report = client.submit_wave(session, vec![]).unwrap();
    assert_eq!(report.wave, 4);
    client.close_session(session).unwrap();
    server.shutdown();
}

/// Four writes over both ramp families with every value type and
/// non-ASCII keys.
fn mixed_batch() -> Vec<ContainerWrite> {
    let write = |family: &str, row: &str, qualifier: &str, value: Value| ContainerWrite {
        table: "t".into(),
        family: family.into(),
        row: row.into(),
        qualifier: qualifier.into(),
        value,
    };
    vec![
        write("raw", "héllo", "q", Value::F64(1.5)),
        write("raw", "r→1", "λ", Value::I64(-7)),
        write("out", "𝕊", "v", Value::from("naïve")),
        write("raw", "x", "b", Value::from(vec![0u8, 1, 0xFF])),
    ]
}

/// The session's store clock and image, as `QueryStore` serves them.
fn store_image(client: &mut Client, session: u64) -> (u64, Vec<u8>) {
    match client.roundtrip(&Request::QueryStore { session }).unwrap() {
        Response::StoreImage { clock, bytes } => (clock, bytes),
        other => panic!("store query answered {other:?}"),
    }
}

#[test]
fn a_damaged_batch_behind_a_fresh_crc_is_refused_whole_or_decodes() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client
        .open_session(&SessionSpec {
            workload: "ramp".into(),
            ..SessionSpec::default()
        })
        .unwrap()
        .session;
    let payload = wire::encode_request(&Request::SubmitWave {
        session,
        writes: mixed_batch(),
        run_wave: false,
    });
    // Every payload byte flipped, and every cut short of the whole, each
    // re-framed with its own CRC so the envelope checks out.
    let flips = (0..payload.len()).map(|at| {
        let mut damaged = payload.clone();
        damaged[at] ^= 0xFF;
        (format!("flip at {at}"), damaged)
    });
    let cuts = (0..payload.len()).map(|len| (format!("cut at {len}"), payload[..len].to_vec()));

    let mut image = store_image(&mut client, session);
    let (mut refused, mut decoded) = (0, 0);
    for (case, damaged) in flips.chain(cuts) {
        let mut stream = handshaken(&server);
        let mut framed = Vec::new();
        wire::write_frame_to(&mut framed, &damaged).unwrap();
        stream.write_all(&framed).unwrap();
        let reply = read_reply(&mut stream);
        // Judged by the owned decode this battery's batch path replaced —
        // plus the rule that a flag byte is 0 or 1 (`run_wave`, byte 9) —
        // so a server whose check let damage through disagrees with it.
        if owned_submit_decode(&damaged).is_ok() && damaged[9] <= 1 {
            // A valid request (another value, another session id) is
            // answered as one; it may write, so the image moves on.
            decoded += 1;
            assert!(
                !matches!(
                    reply,
                    None | Some(Response::Error {
                        code: ErrorCode::BadFrame,
                        ..
                    })
                ),
                "{case}: a valid request answered {reply:?}"
            );
            image = store_image(&mut client, session);
        } else {
            refused += 1;
            match reply {
                Some(Response::Error {
                    code: ErrorCode::BadFrame,
                    ..
                }) => {}
                other => panic!("{case}: a malformed batch answered {other:?}"),
            }
            // Not one write of a refused batch landed: no clock tick, no
            // cell changed.
            assert_eq!(store_image(&mut client, session), image, "{case}");
        }
    }
    assert!(refused > payload.len(), "{refused} refused");
    assert!(decoded > 0, "no flip left a valid request");
    client.close_session(session).unwrap();
    server.shutdown();
}

#[test]
fn an_open_session_damaged_at_every_body_byte_is_answered_or_refused() {
    let server = start_server();
    let payload = wire::encode_request(&Request::OpenSession(SessionSpec {
        workload: "ramp".into(),
        seed: Some(7),
        training_waves: Some(10),
        durable_key: None,
        resume: true,
    }));
    // Every payload byte set to 0x00 and then to 0xFF, each re-framed with
    // its own CRC so the envelope checks out.
    let damaged = (0..payload.len()).flat_map(|at| {
        [0x00, 0xFF].map(|byte| {
            let mut damaged = payload.clone();
            damaged[at] = byte;
            (format!("byte {at} set to {byte:#04x}"), damaged)
        })
    });
    let (mut refused, mut decoded) = (0, 0);
    for (case, damaged) in damaged {
        let mut stream = handshaken(&server);
        let mut framed = Vec::new();
        wire::write_frame_to(&mut framed, &damaged).unwrap();
        stream.write_all(&framed).unwrap();
        let reply = read_damage_reply(&mut stream);
        match wire::decode_request(&damaged) {
            Ok(request) => {
                // A request the decoder accepts is answered, whatever it
                // asks; a zero training window as a typed refusal.
                decoded += 1;
                let zero_window = matches!(
                    request,
                    Request::OpenSession(SessionSpec {
                        training_waves: Some(0),
                        ..
                    })
                );
                match reply {
                    Some(Response::Error {
                        code: ErrorCode::BadFrame,
                        ..
                    }) if zero_window => {}
                    Some(_) if !zero_window => {}
                    other => panic!("{case}: {request:?} answered {other:?}"),
                }
            }
            Err(_) => {
                refused += 1;
                match reply {
                    Some(Response::Error {
                        code: ErrorCode::BadFrame,
                        ..
                    })
                    | None => {}
                    other => panic!("{case}: a malformed request answered {other:?}"),
                }
            }
        }
    }
    assert!(
        refused > 0 && decoded > 0,
        "{refused} refused, {decoded} decoded"
    );
    // No damaged request took an accept worker down with it.
    drop(handshaken(&server));
    server.shutdown();
}

/// The owned `SubmitWave` decode the in-place batch replaced: each key is
/// copied into a `String` as it is read, and a non-zero `run_wave` byte is
/// `true`.
fn owned_submit_decode(
    payload: &[u8],
) -> Result<(u64, bool, Vec<ContainerWrite>), DurabilityError> {
    let corrupt = |context: &str| DurabilityError::Corrupt {
        context: context.to_owned(),
    };
    let mut r = Reader::new(payload);
    if r.u8()? != 3 {
        return Err(corrupt("not a submit"));
    }
    let session = r.u64()?;
    let run_wave = r.u8()? != 0;
    let n = r.u32()?;
    let mut writes = Vec::new();
    for _ in 0..n {
        writes.push(ContainerWrite {
            table: r.str()?,
            family: r.str()?,
            row: r.str()?,
            qualifier: r.str()?,
            value: r.value()?,
        });
    }
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes"));
    }
    Ok((session, run_wave, writes))
}

/// `payload` read in place, each write copied out.
fn in_place_submit_decode(payload: &[u8]) -> Result<(u64, bool, Vec<ContainerWrite>), NetError> {
    match wire::decode_request_ref(payload)? {
        RequestRef::SubmitWave {
            session,
            writes,
            run_wave,
        } => Ok((
            session,
            run_wave,
            writes.into_iter().map(wire::WriteRef::into_owned).collect(),
        )),
        RequestRef::Other(other) => panic!("a submit decoded to {other:?}"),
    }
}

/// The in-place read of `batch` equals the owned decode, and every cut of
/// its payload is refused by both.
fn assert_in_place_matches_owned(session: u64, run_wave: bool, batch: Vec<ContainerWrite>) {
    let payload = wire::encode_request(&Request::SubmitWave {
        session,
        writes: batch.clone(),
        run_wave,
    });
    let owned = owned_submit_decode(&payload).unwrap();
    assert_eq!(owned, (session, run_wave, batch));
    assert_eq!(in_place_submit_decode(&payload).unwrap(), owned);
    for len in 0..payload.len() {
        assert!(owned_submit_decode(&payload[..len]).is_err());
        assert!(in_place_submit_decode(&payload[..len]).is_err());
    }
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1e6f64..1e6).prop_map(Value::from),
        any::<u64>().prop_map(|v| Value::I64(v as i64)),
        ".{0,8}".prop_map(Value::from),
        prop::collection::vec(any::<u8>(), 0..6).prop_map(Value::from),
    ]
}

fn write() -> impl Strategy<Value = ContainerWrite> {
    (".{0,4}", ".{0,4}", ".{0,6}", ".{0,4}", value()).prop_map(
        |(table, family, row, qualifier, value)| ContainerWrite {
            table,
            family,
            row,
            qualifier,
            value,
        },
    )
}

#[test]
fn the_empty_batch_reads_in_place_as_the_owned_decode() {
    assert_in_place_matches_owned(7, true, vec![]);
    assert_in_place_matches_owned(u64::MAX, false, vec![]);
}

proptest! {
    #[test]
    fn in_place_batches_read_as_the_owned_decode(
        session in any::<u64>(),
        run_wave in any::<bool>(),
        batch in prop::collection::vec(write(), 0..12),
    ) {
        assert_in_place_matches_owned(session, run_wave, batch);
    }
}

#[test]
fn oversized_declared_length_is_rejected_before_allocation() {
    let server = start_server();
    let mut stream = handshaken(&server);
    let mut header = Vec::new();
    header.extend_from_slice(&u32::try_from(MAX_FRAME + 1).unwrap().to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&header).unwrap();
    match read_reply(&mut stream) {
        Some(Response::Error { code, message }) => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("exceeds"));
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    server.shutdown();
}

/// `payload` with the little-endian `u32` at `at` replaced by `u32::MAX`.
fn declaring_u32_max(mut payload: Vec<u8>, at: usize) -> Vec<u8> {
    payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    payload
}

#[test]
fn a_short_frame_declaring_u32_max_items_fails_typed_without_reserving_for_them() {
    let submit = wire::encode_request(&Request::SubmitWave {
        session: 7,
        writes: vec![],
        run_wave: true,
    });
    let decisions = wire::encode_response(&Response::Decisions { rows: vec![] });
    let row = DecisionRow {
        wave: 3,
        training: false,
        impacts: vec![],
        decisions: vec![],
    };
    let steps = wire::encode_response(&Response::Decisions { rows: vec![row] });
    let report = wire::encode_response(&Response::WaveResult(WaveReport {
        wave: 3,
        training: false,
        clock: 9,
        executed: vec![],
        skipped: vec![],
        deferred: vec![],
    }));
    // Each count is followed by a few bytes, too few for one item.
    let cases = [
        ("submit writes", submit.len() - 4, submit, true),
        ("decision rows", decisions.len() - 4, decisions, false),
        ("decision steps", steps.len() - 4, steps, false),
        ("report step names", report.len() - 12, report, false),
    ];
    for (what, at, payload, request) in cases {
        let mut payload = declaring_u32_max(payload, at);
        payload.extend_from_slice(&[1, 2, 3]);
        let (decoded, bytes) = bytes_during(|| {
            if request {
                wire::decode_request(&payload).map(drop)
            } else {
                wire::decode_response(&payload).map(drop)
            }
        });
        assert!(
            matches!(decoded, Err(NetError::Corrupt { .. })),
            "{what}: {decoded:?}"
        );
        // The error message is all a decoder may allocate here.
        assert!(bytes < 1024, "{what}: {bytes} bytes reserved");
    }
}

#[test]
fn client_surfaces_remote_errors_as_typed_values() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.open_session(&SessionSpec {
        workload: "nope".into(),
        ..SessionSpec::default()
    }) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownWorkload),
        other => panic!("expected unknown-workload, got {other:?}"),
    }
    match client.submit_wave(77, vec![]) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected unknown-session, got {other:?}"),
    }
    // The connection stays usable after typed errors.
    let opened = client
        .open_session(&SessionSpec {
            workload: "ramp".into(),
            ..SessionSpec::default()
        })
        .unwrap();
    assert_eq!(opened.next_wave, 1);
    server.shutdown();
}

#[test]
fn a_zero_training_window_is_refused_and_the_server_lives_on() {
    let server = start_server();
    let zero = SessionSpec {
        workload: "ramp".into(),
        training_waves: Some(0),
        ..SessionSpec::default()
    };
    let mut client = Client::connect(server.addr()).unwrap();
    match client.open_session(&zero) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("training_waves"), "{message}");
        }
        other => panic!("expected bad-frame, got {other:?}"),
    }
    // The same connection opens a session with a real training window.
    let opened = client
        .open_session(&SessionSpec {
            training_waves: Some(1),
            ..zero.clone()
        })
        .unwrap();
    assert_eq!(opened.next_wave, 1);

    // More such requests than there are accept workers, each on its own
    // connection: none of them costs the server a worker.
    for _ in 0..=WORKERS {
        let mut client = Client::connect(server.addr()).unwrap();
        assert!(matches!(
            client.open_session(&zero),
            Err(NetError::Remote {
                code: ErrorCode::BadFrame,
                ..
            })
        ));
    }
    drop(handshaken(&server));
    server.shutdown();
}
