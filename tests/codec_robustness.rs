//! The framing contract, pinned on all four socket planes: the serve
//! daemon's data and admin sockets and the shard router's data and
//! admin sockets. Fed garbage over raw sockets, every plane must answer
//! with one typed error frame or drop the connection — never panic,
//! never leak a session, and never poison state for well-behaved
//! clients on other connections. The per-plane differences the contract
//! allows are exercised too: which requests each plane serves, how its
//! data plane sheds load, and whether a draining connection hears
//! `ShuttingDown` before it closes.

use incprof_suite::serve::frame::{
    crc32, read_frame, write_frame, ErrorCode, ErrorInfo, Frame, FrameType, ReadOutcome,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, VERSION_TRACED,
};
use incprof_suite::serve::{BindAddr, Client, ServeConfig, Server, ServerHandle};
use incprof_suite::shard::{BackendSpec, Router, RouterConfig, RouterHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    ServeData,
    ServeAdmin,
    RouterData,
    RouterAdmin,
}

const PLANES: [Plane; 4] = [
    Plane::ServeData,
    Plane::ServeAdmin,
    Plane::RouterData,
    Plane::RouterAdmin,
];

const DATA_PLANES: [Plane; 2] = [Plane::ServeData, Plane::RouterData];

impl Plane {
    fn is_admin(self) -> bool {
        matches!(self, Plane::ServeAdmin | Plane::RouterAdmin)
    }
}

/// Knobs a case may tighten; everything else is the shared test config.
#[derive(Clone, Copy)]
struct Tuning {
    idle_timeout: Duration,
    /// Squeeze the data plane to one in-flight connection: serve gets
    /// one worker and a one-deep backlog, the router `max_conns = 1`.
    tight: bool,
}

const RELAXED: Tuning = Tuning {
    idle_timeout: Duration::from_secs(2),
    tight: false,
};

/// A running daemon (plus a router in front of it for router planes),
/// addressed through the plane under test.
struct Target {
    plane: Plane,
    server: ServerHandle,
    router: Option<RouterHandle>,
}

impl Target {
    fn start(plane: Plane, tuning: Tuning) -> Target {
        let serve_tuned = matches!(plane, Plane::ServeData | Plane::ServeAdmin);
        let tight = tuning.tight && serve_tuned;
        let server = Server::bind(ServeConfig {
            workers: if tight { 1 } else { 2 },
            backlog: if tight { 1 } else { 32 },
            admin: Some(BindAddr::Tcp("127.0.0.1:0".to_string())),
            read_timeout: Duration::from_millis(25),
            idle_timeout: if serve_tuned {
                tuning.idle_timeout
            } else {
                RELAXED.idle_timeout
            },
            ..ServeConfig::default()
        })
        .expect("bind daemon")
        .start()
        .expect("start daemon");
        let router = (!serve_tuned).then(|| {
            Router::bind(RouterConfig {
                backends: vec![BackendSpec {
                    data: server.addr().to_string(),
                    admin: server.admin_addr().map(str::to_string),
                }],
                admin: Some(BindAddr::Tcp("127.0.0.1:0".to_string())),
                read_timeout: Duration::from_millis(25),
                idle_timeout: tuning.idle_timeout,
                max_conns: if tuning.tight { 1 } else { 64 },
                ..RouterConfig::default()
            })
            .expect("bind router")
            .start()
            .expect("start router")
        });
        Target {
            plane,
            server,
            router,
        }
    }

    fn addr(&self) -> String {
        let addr = match (self.plane, &self.router) {
            (Plane::ServeData, _) => Some(self.server.addr()),
            (Plane::ServeAdmin, _) => self.server.admin_addr(),
            (Plane::RouterData, Some(r)) => Some(r.addr()),
            (Plane::RouterAdmin, Some(r)) => r.admin_addr(),
            _ => None,
        };
        addr.expect("plane is bound").to_string()
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        s
    }

    /// Flip the shutdown flag of the frontend that owns the plane
    /// without joining it.
    fn request_shutdown(&self) {
        match &self.router {
            Some(r) => r.request_shutdown(),
            None => self.server.request_shutdown(),
        }
    }

    fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        self.server.shutdown();
    }

    /// One request the plane serves, and the reply type it answers with.
    fn served_request(&self) -> (Frame, FrameType) {
        if self.plane.is_admin() {
            (Frame::empty(FrameType::Health, 0), FrameType::HealthReply)
        } else {
            (Frame::empty(FrameType::Ping, 0), FrameType::Pong)
        }
    }

    /// One request that belongs to the other plane of the same frontend.
    fn wrong_plane_request(&self) -> Frame {
        if self.plane.is_admin() {
            Frame::empty(FrameType::Open, 0)
        } else {
            Frame::empty(FrameType::Scrape, 0)
        }
    }

    /// One served request/reply round trip on `conn`.
    fn round_trip(&self, conn: &mut TcpStream) {
        let (request, want) = self.served_request();
        write_frame(conn, &request).expect("write request");
        let reply = read_reply(conn).expect("reply");
        assert_eq!(reply.frame_type, want, "{:?}", self.plane);
    }

    /// The plane stays alive and correct after an abusive connection: a
    /// fresh connection is served, and no session leaked.
    fn assert_still_serving(&self) {
        let mut conn = self.connect();
        self.round_trip(&mut conn);
        if !self.plane.is_admin() {
            let mut client = Client::connect_tcp(&self.addr()).expect("fresh connect");
            let id = client.open().expect("open after abuse");
            client.close(id).expect("close after abuse");
        }
        assert_eq!(self.server.active_sessions(), 0, "{:?}", self.plane);
    }
}

/// Read reply frames until the peer answers or hangs up.
fn read_reply(conn: &mut TcpStream) -> Option<Frame> {
    loop {
        match read_frame(conn, DEFAULT_MAX_PAYLOAD).expect("client read") {
            ReadOutcome::Frame(f) => return Some(f),
            ReadOutcome::TimedOut => continue,
            ReadOutcome::Closed => return None,
            ReadOutcome::Malformed(e) => panic!("peer sent malformed reply: {e}"),
        }
    }
}

fn expect_error(conn: &mut TcpStream, code: ErrorCode, plane: Plane) -> ErrorInfo {
    let f = read_reply(conn).unwrap_or_else(|| panic!("{plane:?}: expected an error, got EOF"));
    assert_eq!(f.frame_type, FrameType::Error, "{plane:?}");
    let info = ErrorInfo::decode(&f.payload).expect("decode error payload");
    assert_eq!(info.code, code, "{plane:?}: {}", info.message);
    info
}

/// The peer hangs up: depending on how much of a bad frame it consumed
/// before closing this surfaces as a clean EOF or a reset — either way,
/// no further frames.
fn expect_closed(conn: &mut TcpStream, plane: Plane) {
    match read_frame(conn, DEFAULT_MAX_PAYLOAD) {
        Ok(ReadOutcome::Closed) | Err(_) => {}
        other => panic!("{plane:?}: connection must drop, got {other:?}"),
    }
}

fn restamp_crc(bytes: &mut [u8]) {
    let crc_at = bytes.len() - 4;
    let crc = crc32(&bytes[..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

/// Framing violations: the bytes to send and the one typed error each
/// must draw before the connection closes.
fn malformed_cases() -> Vec<(&'static str, Vec<u8>, ErrorCode)> {
    let mut bad_magic = Frame::empty(FrameType::Ping, 0).encode();
    bad_magic[0] = b'X';
    // Version 2 is the (valid) traced layout, so the first genuinely
    // unsupported version is VERSION_TRACED + 1; the CRC is re-stamped
    // so only the version is wrong.
    let mut bad_version = Frame::empty(FrameType::Ping, 0).encode();
    bad_version[4] = VERSION_TRACED + 1;
    restamp_crc(&mut bad_version);
    let mut bad_crc = Frame::with_payload(FrameType::Query, 1, vec![0]).encode();
    let last = bad_crc.len() - 1;
    bad_crc[last] ^= 0xFF;
    // Claim a payload far beyond the cap; only the header is ever sent,
    // so the plane must reject on the declared length alone.
    let mut oversize = Frame::empty(FrameType::Snapshot, 1).encode();
    oversize[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
    oversize.truncate(HEADER_LEN);
    vec![
        ("bad magic", bad_magic, ErrorCode::BadMagic),
        ("bad version", bad_version, ErrorCode::BadVersion),
        ("bad crc", bad_crc, ErrorCode::BadCrc),
        ("oversize", oversize, ErrorCode::Oversize),
    ]
}

#[test]
fn malformed_frames_get_one_typed_error_then_close_on_every_plane() {
    for plane in PLANES {
        let target = Target::start(plane, RELAXED);
        for (what, bytes, code) in malformed_cases() {
            let mut conn = target.connect();
            conn.write_all(&bytes).expect("write");
            let info = expect_error(&mut conn, code, plane);
            assert!(!info.message.is_empty(), "{plane:?} {what}");
            expect_closed(&mut conn, plane);
        }
        target.assert_still_serving();
        target.shutdown();
    }
}

#[test]
fn truncated_frame_mid_payload_closes_quietly_on_every_plane() {
    for plane in PLANES {
        let target = Target::start(plane, RELAXED);
        {
            let mut conn = target.connect();
            let bytes = Frame::with_payload(FrameType::Snapshot, 1, vec![0u8; 256]).encode();
            // Send the header plus half the payload, then hang up.
            conn.write_all(&bytes[..HEADER_LEN + 128])
                .expect("write partial");
            conn.shutdown(std::net::Shutdown::Both).expect("shutdown");
        }
        // A mid-frame EOF is a dead peer: no panic, no leaked session,
        // and the next connection is served normally.
        target.assert_still_serving();
        target.shutdown();
    }
}

#[test]
fn raw_garbage_stream_never_panics_any_plane() {
    for plane in PLANES {
        let target = Target::start(plane, RELAXED);
        for chunk in [
            &b"\x00\x00\x00\x00"[..],
            &b"GET / HTTP/1.1\r\n\r\n"[..],
            &[0xFFu8; 64][..],
            &MAGIC[..],
        ] {
            let mut conn = target.connect();
            conn.write_all(chunk).expect("write garbage");
            // Drain whatever the plane says (error frame or EOF) without
            // asserting a specific code — only that nothing panics and
            // the plane keeps serving.
            let mut sink = Vec::new();
            let _ = conn.read_to_end(&mut sink);
        }
        target.assert_still_serving();
        target.shutdown();
    }
}

#[test]
fn idle_connections_close_after_idle_timeout_on_every_plane() {
    let idle = Duration::from_millis(300);
    for plane in PLANES {
        let target = Target::start(
            plane,
            Tuning {
                idle_timeout: idle,
                tight: false,
            },
        );
        let mut conn = target.connect();
        // One round trip proves the connection is being served, so the
        // idle clock starts now.
        target.round_trip(&mut conn);
        let t0 = Instant::now();
        match read_frame(&mut conn, DEFAULT_MAX_PAYLOAD) {
            Ok(ReadOutcome::Closed) | Err(_) => {}
            other => panic!("{plane:?}: idle connection must close, got {other:?}"),
        }
        let waited = t0.elapsed();
        assert!(
            waited >= idle / 2,
            "{plane:?}: closed after {waited:?}, before the {idle:?} idle timeout"
        );
        target.shutdown();
    }
}

#[test]
fn wrong_plane_requests_get_bad_type_and_keep_the_connection() {
    for plane in PLANES {
        let target = Target::start(plane, RELAXED);
        let mut conn = target.connect();
        write_frame(&mut conn, &target.wrong_plane_request()).expect("write");
        expect_error(&mut conn, ErrorCode::BadType, plane);
        // A reply type used as a request is a protocol violation but
        // not a framing one either.
        write_frame(&mut conn, &Frame::empty(FrameType::Pong, 0)).expect("write pong");
        expect_error(&mut conn, ErrorCode::BadType, plane);
        target.round_trip(&mut conn);
        target.shutdown();
    }
}

#[test]
fn over_the_cap_gets_busy_on_both_data_planes() {
    for plane in DATA_PLANES {
        let target = Target::start(
            plane,
            Tuning {
                idle_timeout: RELAXED.idle_timeout,
                tight: true,
            },
        );
        // The first connection occupies the only worker (serve) or the
        // only connection slot (router); the round trip proves it does.
        let mut first = target.connect();
        target.round_trip(&mut first);
        // Serve still queues one more connection in its backlog.
        let queued = (plane == Plane::ServeData).then(|| target.connect());
        let mut over = target.connect();
        let busy = read_reply(&mut over).expect("busy reply");
        assert_eq!(busy.frame_type, FrameType::Busy, "{plane:?}");
        expect_closed(&mut over, plane);
        // The served connection is unaffected.
        target.round_trip(&mut first);
        drop((first, queued));
        target.shutdown();
    }
}

#[test]
fn draining_data_planes_reply_shutting_down_and_admin_planes_close() {
    for plane in PLANES {
        let target = Target::start(plane, RELAXED);
        let mut conn = target.connect();
        target.round_trip(&mut conn);
        target.request_shutdown();
        if plane.is_admin() {
            expect_closed(&mut conn, plane);
        } else {
            expect_error(&mut conn, ErrorCode::ShuttingDown, plane);
            expect_closed(&mut conn, plane);
        }
        target.shutdown();
    }
}

#[test]
fn garbage_snapshot_payload_keeps_connection_and_session_on_data_planes() {
    for plane in DATA_PLANES {
        let target = Target::start(plane, RELAXED);
        let mut client = Client::connect_tcp(&target.addr()).expect("connect");
        let session = client.open().expect("open");

        // A well-framed Snapshot whose payload is not gmon data: payload
        // errors are recoverable, so the same connection keeps working.
        let mut conn = target.connect();
        let frame = Frame::with_payload(FrameType::Snapshot, session, b"not gmon".to_vec());
        write_frame(&mut conn, &frame).expect("write");
        expect_error(&mut conn, ErrorCode::BadPayload, plane);
        target.round_trip(&mut conn);

        // The session survived the garbage.
        assert_eq!(target.server.active_sessions(), 1, "{plane:?}");
        client.close(session).expect("close");
        assert_eq!(target.server.active_sessions(), 0, "{plane:?}");
        target.shutdown();
    }
}

#[test]
fn u64_max_session_id_on_the_wire_is_unknown_not_mangled() {
    // The extreme id must travel the full stack intact — through the
    // router too: the daemon should answer "no session
    // 18446744073709551615", proving the id was neither truncated nor
    // sign-mangled en route.
    for plane in DATA_PLANES {
        let target = Target::start(plane, RELAXED);
        let mut conn = target.connect();
        write_frame(
            &mut conn,
            &Frame::with_payload(FrameType::Query, u64::MAX, vec![0]),
        )
        .expect("write query");
        let info = expect_error(&mut conn, ErrorCode::UnknownSession, plane);
        assert!(
            info.message.contains(&u64::MAX.to_string()),
            "{plane:?}: message should echo the full id: {}",
            info.message
        );
        target.round_trip(&mut conn);
        target.shutdown();
    }
}

#[test]
fn codec_roundtrips_boundary_payload_sizes() {
    // 0, 1, cap−1, and cap exactly — the off-by-one edges of the length
    // field and the cap check. Encode → decode must be the identity, and
    // try_encode must agree with what decode will accept.
    let cap: u32 = 4096;
    for size in [0usize, 1, cap as usize - 1, cap as usize] {
        let f = Frame::with_payload(FrameType::Report, 3, vec![0x5A; size]);
        let bytes = f
            .try_encode(cap)
            .unwrap_or_else(|e| panic!("size {size}: {e}"));
        let (back, used) =
            Frame::decode(&bytes, cap).unwrap_or_else(|e| panic!("size {size}: {e}"));
        assert_eq!(used, bytes.len(), "size {size}");
        assert_eq!(back, f, "size {size}");
    }
    // cap+1 is refused symmetrically on both sides.
    let over = Frame::with_payload(FrameType::Report, 3, vec![0x5A; cap as usize + 1]);
    assert!(over.try_encode(cap).is_err());
    let bytes = over.encode();
    assert!(Frame::decode(&bytes, cap).is_err());
}

#[test]
fn codec_roundtrips_u64_max_session_id() {
    for id in [u64::MAX, u64::MAX - 1, 1u64 << 63] {
        let f = Frame::with_payload(FrameType::Query, id, vec![1]);
        let (back, _) = Frame::decode(&f.encode(), DEFAULT_MAX_PAYLOAD).expect("decode");
        assert_eq!(back.session_id, id);
        assert_eq!(back, f);
    }
}
