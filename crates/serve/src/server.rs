//! The streaming phase-detection daemon.
//!
//! Architecture (all std, no async runtime):
//!
//! ```text
//!             ┌────────────┐   bounded conn queue   ┌──────────────┐
//!  accept ───▶│  acceptor  │ ──────────────────────▶│ worker pool  │──▶ session
//!  (TCP/Unix) │   thread   │   (BUSY reply + drop   │ (N threads,  │    registry
//!             └────────────┘    when full)          │  blocking IO)│
//!                                                   └──────────────┘
//! ```
//!
//! The socket plumbing — accept loop, worker queue, frame loop, drain
//! replies, handle lifecycle — is [`crate::listen`]'s; this module
//! holds the data plane's concurrency policy (`workers` threads behind
//! a `backlog`-deep queue, `Busy` when it is full) and its dispatch.
//! Ingest is bounded end to end: the connection queue, each session's
//! pending queue, and the frame payload size all have hard caps, and
//! every overflow answers with a typed reply instead of buffering.
//!
//! Shutdown is graceful by construction: the flag flips (via a
//! [`FrameType::Shutdown`] frame or [`ServerHandle::shutdown`]), the
//! acceptors wake themselves with a loopback connection and stop,
//! workers finish their in-flight request, the threads join, and every
//! session's pending queue is drained.

use crate::frame::{ErrorCode, Frame, FrameType, SnapshotAck, DEFAULT_MAX_PAYLOAD};
use crate::listen::{self, lock, ConnQueue, Lifecycle, Limits, Link, Listener, Plane};
use crate::session::{Enqueue, IngestAck, Registry, ReportMode, Session};
use incprof_core::online::OnlineConfig;
use incprof_core::{PhaseDetector, SourceGraph};
use incprof_profile::GmonData;
use incprof_store::{RetentionPolicy, Store};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::listen::BindAddr;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address.
    pub addr: BindAddr,
    /// Connection-handler threads.
    pub workers: usize,
    /// Cap on concurrently open sessions.
    pub max_sessions: usize,
    /// Per-session ingest queue bound (frames).
    pub max_pending: usize,
    /// Cap on a single frame's payload bytes.
    pub max_payload: u32,
    /// Socket read poll interval; also the shutdown-observation latency.
    pub read_timeout: Duration,
    /// Idle connections are dropped after this long without a frame.
    pub idle_timeout: Duration,
    /// Bounded queue of accepted-but-unclaimed connections.
    pub backlog: usize,
    /// The offline detector answering report queries.
    pub detector: PhaseDetector,
    /// The incremental detector fed per frame.
    pub online: OnlineConfig,
    /// Optional read-only admin listener (scrape, trace lookup, flight
    /// recorder, health). `None` = no admin surface.
    pub admin: Option<BindAddr>,
    /// Root directory for durable session storage (`--store-dir`).
    /// `None` runs memory-only; sessions die with the daemon.
    pub store_dir: Option<PathBuf>,
    /// Tiered retention applied to each session's snapshot log (only
    /// meaningful with a store). Default keeps everything.
    pub retention: RetentionPolicy,
    /// With a store: evict the most idle sessions to disk once more
    /// than this many are live (0 = never evict).
    pub max_live: usize,
    /// With a store: write an analysis checkpoint after this many
    /// appended snapshots (clamped to at least 1).
    pub checkpoint_every: u64,
    /// Static call graph joined against phases in Full reports'
    /// `source_context` section. Empty = report empty contexts.
    pub source_graph: SourceGraph,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: BindAddr::Tcp("127.0.0.1:0".to_string()),
            workers: 4,
            max_sessions: 64,
            max_pending: 64,
            max_payload: DEFAULT_MAX_PAYLOAD,
            read_timeout: Duration::from_millis(100),
            idle_timeout: Duration::from_secs(30),
            backlog: 32,
            detector: PhaseDetector::default(),
            online: OnlineConfig::default(),
            admin: None,
            store_dir: None,
            retention: RetentionPolicy::keep_all(),
            max_live: 0,
            checkpoint_every: 16,
            source_graph: SourceGraph::default(),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) registry: Registry,
    pub(crate) life: Lifecycle,
    queue: ConnQueue,
}

impl Shared {
    /// Flag shutdown, wake both acceptors and every idle worker.
    fn stop(&self) {
        self.life.request_stop();
        self.queue.wake_all();
    }
}

/// A bound (but not yet running) daemon.
pub struct Server {
    listener: Listener,
    admin: Option<Listener>,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the configured address. For `BindAddr::Tcp` with port 0 the
    /// kernel picks an ephemeral port; [`Server::local_addr`] reports it.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let limits = Limits {
            read_timeout: config.read_timeout,
            idle_timeout: config.idle_timeout,
            max_payload: config.max_payload,
        };
        let (life, listener, admin) = Lifecycle::bind(&config.addr, config.admin.as_ref(), limits)?;
        let mut registry = Registry::new(
            config.online.clone(),
            config.max_sessions,
            config.max_pending,
        )
        .with_source_graph(config.source_graph.clone());
        if let Some(dir) = &config.store_dir {
            let store = Store::open(dir, config.retention, config.checkpoint_every)?;
            registry = registry.with_store(store, config.max_live);
            let recovered = registry.recover();
            if !recovered.is_empty() {
                incprof_obs::info!(
                    "store: {} session(s) recoverable under {}",
                    recovered.len(),
                    dir.display()
                );
            }
        }
        let shared = Arc::new(Shared {
            queue: ConnQueue::new(config.backlog),
            config,
            registry,
            life,
        });
        Ok(Server {
            listener,
            admin,
            shared,
        })
    }

    /// The bound address: `ip:port` for TCP, the path for Unix.
    pub fn local_addr(&self) -> &str {
        self.shared.life.addr()
    }

    /// Spawn the acceptor and worker threads and return a handle.
    pub fn start(self) -> io::Result<ServerHandle> {
        let mut threads = Vec::with_capacity(self.shared.config.workers + 2);
        for i in 0..self.shared.config.workers.max(1) {
            let shared = Arc::clone(&self.shared);
            threads.push(listen::spawn(
                format!("incprof-serve-worker-{i}"),
                move || {
                    while let Some(conn) = shared.queue.take(&shared.life) {
                        listen::frame_loop(conn, &DATA_PLANE, &shared.life, |link, frame| {
                            dispatch(link, &shared, frame)
                        });
                    }
                },
            )?);
        }
        if let Some(listener) = self.admin {
            let shared = Arc::clone(&self.shared);
            threads.push(listen::spawn(
                "incprof-serve-admin".to_string(),
                move || crate::admin::admin_loop(&listener, &shared),
            )?);
        }
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        threads.push(listen::spawn(
            "incprof-serve-accept".to_string(),
            move || {
                listen::accept_loop(&listener, &DATA_PLANE, &shared.life, |conn| {
                    if let Err(conn) = shared.queue.offer(conn) {
                        // Explicit backpressure instead of unbounded queueing.
                        incprof_obs::counter(incprof_obs::names::SERVE_BUSY_REPLIES).inc();
                        incprof_obs::recorder().record(
                            incprof_obs::EventKind::BusyReply,
                            0,
                            BUSY_CONN_BACKLOG,
                        );
                        listen::reply_busy(conn);
                    }
                })
            },
        )?);
        Ok(ServerHandle {
            shared: self.shared,
            threads,
        })
    }
}

/// The daemon's data plane: a bounded queue in front of the worker
/// pool, full accounting, and a `ShuttingDown` reply on drain.
static DATA_PLANE: Plane = Plane {
    name: "serve data",
    accepted: incprof_obs::names::SERVE_CONNS_ACCEPTED,
    frames_in: Some(incprof_obs::names::SERVE_FRAMES_IN),
    bytes_in: Some(incprof_obs::names::SERVE_BYTES_IN),
    serve_counters: true,
    error_events: true,
    drain_reply: Some("daemon draining"),
};

/// Handle to a running daemon.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (`ip:port` or Unix path).
    pub fn addr(&self) -> &str {
        self.shared.life.addr()
    }

    /// The admin socket's bound address, when one was configured.
    pub fn admin_addr(&self) -> Option<&str> {
        self.shared.life.admin_addr()
    }

    /// Number of live sessions.
    pub fn active_sessions(&self) -> usize {
        self.shared.registry.active()
    }

    /// Flip the shutdown flag without joining (idempotent; a `Shutdown`
    /// frame does the same from the wire).
    pub fn request_shutdown(&self) {
        self.shared.stop();
    }

    /// Whether shutdown has been requested (by flag or by frame).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.life.stopping()
    }

    /// Block until shutdown is requested — by a `Shutdown` frame from
    /// the wire or by `external` flipping true (e.g. a SIGINT flag).
    pub fn wait(&self, external: Option<&AtomicBool>) {
        self.shared.life.wait(external);
    }

    /// Gracefully stop: flag, wake, join every thread, release the Unix
    /// socket files, and drain every session's pending queue.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// [`ServerHandle::shutdown`], then render one final admin
    /// exposition reflecting the drained state — the `--final-scrape`
    /// snapshot a scraper would have seen just before exit.
    pub fn shutdown_scraped(mut self) -> String {
        self.shutdown_inner();
        crate::admin::render_exposition(&self.shared.registry, Instant::now())
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop();
        self.shared.life.finish(std::mem::take(&mut self.threads));
        let drained = self.shared.registry.active() as u64;
        self.shared.registry.drain_all();
        incprof_obs::recorder().record(incprof_obs::EventKind::Shutdown, drained, 0);
    }
}

/// Handle one good frame; returns false when the connection should end.
fn dispatch(link: &mut Link, shared: &Shared, frame: Frame) -> bool {
    match frame.frame_type {
        // session_id 0 asks the daemon to allocate; a nonzero id adopts
        // that id (idempotently, rehydrating shared-store state when it
        // exists) — the shard router's failover handoff path.
        FrameType::Open if frame.session_id == 0 => match shared.registry.open() {
            Ok((id, _)) => link.send(&Frame::empty(FrameType::OpenAck, id)),
            Err(e) => link.send_error_info(frame.session_id, &e),
        },
        FrameType::Open => match shared.registry.open_with_id(frame.session_id) {
            Ok(_) => link.send(&Frame::empty(FrameType::OpenAck, frame.session_id)),
            Err(e) => link.send_error_info(frame.session_id, &e),
        },
        FrameType::Snapshot => handle_snapshot(link, shared, &frame),
        FrameType::Query => handle_query(link, shared, &frame),
        FrameType::Close => match shared.registry.close(frame.session_id) {
            Some(session) => {
                let _ = lock(&session).drain();
                link.send(&Frame::empty(FrameType::CloseAck, frame.session_id))
            }
            // Not live — but a store may still hold it (evicted or
            // recovered-but-untouched): closing deletes the durable
            // state without paying for a rehydration first.
            None if shared.registry.purge(frame.session_id) => {
                link.send(&Frame::empty(FrameType::CloseAck, frame.session_id))
            }
            None => send_unknown_session(link, frame.session_id),
        },
        FrameType::Ping => link.send(&Frame::empty(FrameType::Pong, frame.session_id)),
        FrameType::Shutdown => {
            // Wakes both acceptors too, so a bare wire-initiated
            // shutdown terminates promptly without a handle waiter.
            shared.stop();
            link.send(&Frame::empty(FrameType::ShutdownAck, 0));
            false
        }
        // Admin requests are only answered on the admin socket: the
        // data plane stays write-shaped and the read-only surface can
        // be firewalled separately.
        FrameType::Scrape | FrameType::TraceGet | FrameType::RecorderDump | FrameType::Health => {
            link.send_error(
                frame.session_id,
                ErrorCode::BadType,
                &format!("{:?} is admin-only; use the admin socket", frame.frame_type),
            )
        }
        // Checkpoint frames exist only inside session stores on disk.
        FrameType::Checkpoint => link.send_error(
            frame.session_id,
            ErrorCode::BadType,
            "Checkpoint is an on-disk record type, not a wire request",
        ),
        // A reply type arriving as a request is a confused peer.
        FrameType::OpenAck
        | FrameType::SnapshotAck
        | FrameType::Report
        | FrameType::CloseAck
        | FrameType::Pong
        | FrameType::ShutdownAck
        | FrameType::Busy
        | FrameType::Error
        | FrameType::ScrapeReply
        | FrameType::TraceReply
        | FrameType::RecorderReply
        | FrameType::HealthReply => link.send_error(
            frame.session_id,
            ErrorCode::BadType,
            &format!("{:?} is a reply type", frame.frame_type),
        ),
    }
}

fn handle_snapshot(link: &mut Link, shared: &Shared, frame: &Frame) -> bool {
    let received_at = Instant::now();
    // A traced frame opens a wire-linked root span; every span opened
    // below on this thread (the online observation, core's pipeline
    // spans) auto-inherits into the same trace tree. Untraced frames
    // open nothing — the hot path records zero spans — and the traced
    // path is deliberately held to two server-side spans per push
    // (root + observe): decode, enqueue, and drain all happen right
    // here on one thread under one session lock, so separate spans for
    // them would triple the tracing tax to say "same place, same time".
    let traced = frame.trace.is_some();
    let _root = frame.trace.map(|tw| {
        incprof_obs::global().spans().enter_traced(
            incprof_obs::names::SERVE_TRACE_SNAPSHOT,
            tw.trace_id,
            tw.parent_span,
        )
    });
    let gmon = match GmonData::decode(&frame.payload) {
        Ok(g) => g,
        Err(e) => {
            incprof_obs::counter(incprof_obs::names::SERVE_DECODE_ERRORS).inc();
            incprof_obs::recorder().record(
                incprof_obs::EventKind::DecodeError,
                frame.session_id,
                ErrorCode::BadPayload as u64,
            );
            return link.send_error(
                frame.session_id,
                ErrorCode::BadPayload,
                &format!("gmon decode: {e}"),
            );
        }
    };
    let sample_index = gmon.sample_index;
    let mut gmon = Some(gmon);
    // Enqueue and drain under one lock hold: the queue bound gives
    // overflow a BUSY answer, and atomicity guarantees this worker
    // drains (and can ack) the frame it just enqueued.
    let handled = with_session(shared, frame.session_id, |session| {
        let sent = match session.enqueue(
            // lint: allow(P01, with_session invokes its closure at most once, so the Option is always populated here)
            gmon.take().expect("with_session runs its closure once"),
            received_at,
        ) {
            Err(e) => link.send_error_info(frame.session_id, &e),
            Ok(Enqueue::Busy) => {
                incprof_obs::counter(incprof_obs::names::SERVE_BUSY_REPLIES).inc();
                incprof_obs::recorder().record(
                    incprof_obs::EventKind::BusyReply,
                    frame.session_id,
                    BUSY_SESSION_QUEUE,
                );
                link.send(&Frame::empty(FrameType::Busy, frame.session_id))
            }
            // A retransmission of the most recently acked snapshot
            // (client reconnect or router failover): replay the
            // remembered ack so at-least-once delivery is invisible.
            Ok(Enqueue::Duplicate) => match session.last_ack() {
                Some(ack) => send_ack(link, frame.session_id, &ack),
                None => link.send_error(
                    frame.session_id,
                    ErrorCode::Internal,
                    "duplicate verdict without a remembered ack",
                ),
            },
            Ok(Enqueue::Accepted) => match session.drain_traced(traced) {
                Err(e) => link.send_error_info(frame.session_id, &e),
                Ok(acks) => {
                    let Some(ack) = acks.iter().find(|a| a.sample_index == sample_index) else {
                        return link.send_error(
                            frame.session_id,
                            ErrorCode::Internal,
                            "drained batch missed the enqueued frame",
                        );
                    };
                    send_ack(link, frame.session_id, ack)
                }
            },
        };
        session.maybe_checkpoint();
        sent
    });
    let replied = match handled {
        Some(sent) => sent,
        None => send_unknown_session(link, frame.session_id),
    };
    // Pushes grow the live set (transparent rehydration included), so
    // this is where the LRU bound is re-established. No-op without a
    // store or an eviction limit.
    shared.registry.maybe_evict(Instant::now());
    replied
}

/// Reply `SnapshotAck` for one ingested snapshot.
fn send_ack(link: &mut Link, session_id: u64, ack: &IngestAck) -> bool {
    let payload = SnapshotAck {
        interval: ack.sample_index,
        phase: ack.observation.phase as u32,
        new_phase: ack.observation.new_phase,
        transition: ack.observation.transition,
        capped: ack.observation.capped,
    }
    .encode();
    link.send(&Frame::with_payload(
        FrameType::SnapshotAck,
        session_id,
        payload,
    ))
}

fn send_unknown_session(link: &mut Link, session_id: u64) -> bool {
    link.send_error(
        session_id,
        ErrorCode::UnknownSession,
        &format!("no session {session_id}"),
    )
}

/// Flight-recorder `b` tag on [`incprof_obs::EventKind::BusyReply`]:
/// the acceptor's bounded connection queue was full.
pub const BUSY_CONN_BACKLOG: u64 = 1;
/// Flight-recorder `b` tag: a session's bounded pending queue was full.
pub const BUSY_SESSION_QUEUE: u64 = 2;

fn handle_query(link: &mut Link, shared: &Shared, frame: &Frame) -> bool {
    let received_at = Instant::now();
    // Same inheritance contract as `handle_snapshot`: the analysis
    // cache's `core.cache.analyze` span (and the whole pipeline under
    // it) joins this trace automatically via the thread-local stack.
    let _root = frame.trace.map(|tw| {
        incprof_obs::global().spans().enter_traced(
            incprof_obs::names::SERVE_TRACE_QUERY,
            tw.trace_id,
            tw.parent_span,
        )
    });
    let mode = match frame.payload.first() {
        None | Some(0) => ReportMode::Full,
        Some(1) => ReportMode::AnalysisOnly,
        Some(other) => {
            return link.send_error(
                frame.session_id,
                ErrorCode::BadPayload,
                &format!("unknown query mode {other}"),
            );
        }
    };
    let json = with_session(shared, frame.session_id, |session| {
        session.touch(received_at);
        let json = session.report_json(&shared.config.detector, mode);
        // The cache is freshest right after a report; a due checkpoint
        // written here rehydrates warm.
        session.maybe_checkpoint();
        json
    });
    let Some(json) = json else {
        return send_unknown_session(link, frame.session_id);
    };
    link.send(&Frame::with_payload(
        FrameType::Report,
        frame.session_id,
        json.into_bytes(),
    ))
}

/// Fetch session `id` and run `f` on it under its lock, transparently
/// rehydrating from the store when needed. The evicted check happens
/// under the same lock `f` runs under — eviction marks a session while
/// holding that lock — so `f` can never mutate an object the registry
/// has already handed over to disk; a stale `Arc` is dropped and the
/// lookup retried. Returns `None` when the session exists nowhere.
fn with_session<R>(shared: &Shared, id: u64, f: impl FnOnce(&mut Session) -> R) -> Option<R> {
    let mut f = Some(f);
    // Two iterations suffice in practice (fetch, lose the eviction race
    // at most once, rehydrate); the bound is paranoia against a pathological
    // evict/touch interleave, after which the client simply retries.
    for _ in 0..4 {
        let session = shared.registry.get(id)?;
        let mut session = lock(&session);
        if session.is_evicted() {
            continue;
        }
        // lint: allow(P01, the loop returns on the same iteration it takes the closure, so it is taken at most once)
        return Some(f.take().expect("closure consumed once")(&mut session));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, ReadOutcome};
    use std::net::TcpStream;

    #[test]
    fn bind_ephemeral_tcp_reports_real_port() {
        let server = Server::bind(ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        assert!(addr.starts_with("127.0.0.1:"), "{addr}");
        assert!(!addr.ends_with(":0"), "ephemeral port must be resolved");
        let handle = server.start().unwrap();
        assert_eq!(handle.active_sessions(), 0);
        handle.shutdown();
    }

    #[test]
    fn bind_unix_socket_and_shutdown_removes_file() {
        let path = std::env::temp_dir().join(format!("incprof_serve_{}.sock", std::process::id()));
        let config = ServeConfig {
            addr: BindAddr::Unix(path.clone()),
            ..ServeConfig::default()
        };
        let handle = Server::bind(config).unwrap().start().unwrap();
        assert!(path.exists());
        handle.shutdown();
        assert!(!path.exists(), "socket file must be cleaned up");
    }

    #[test]
    fn wire_shutdown_frame_stops_the_daemon() {
        let handle = Server::bind(ServeConfig::default())
            .unwrap()
            .start()
            .unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        write_frame(&mut conn, &Frame::empty(FrameType::Shutdown, 0)).unwrap();
        match read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap() {
            ReadOutcome::Frame(f) => assert_eq!(f.frame_type, FrameType::ShutdownAck),
            other => panic!("expected ShutdownAck, got {other:?}"),
        }
        handle.wait(None);
        assert!(handle.shutdown_requested());
        handle.shutdown();
    }
}
