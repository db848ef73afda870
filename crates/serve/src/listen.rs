//! The connection layer under every socket plane.
//!
//! Four planes speak IPRF frames over a listener: the daemon's data and
//! admin sockets ([`crate::server`], [`crate::admin`]) and the shard
//! router's data and admin sockets (`incprof-shard`). They differ only
//! in what they answer and in how many connections they serve at once;
//! everything else lives here, once:
//!
//! - [`Lifecycle`] — binding, the shutdown flag, waking parked
//!   acceptors, waiting, joining, and releasing Unix socket files;
//! - [`accept_loop`] — accept, count, and hand each connection to the
//!   plane's concurrency policy: served inline on the acceptor, queued
//!   for a worker pool ([`ConnQueue`]), or given its own thread under a
//!   cap ([`ConnThreads`]);
//! - [`frame_loop`] — read frames under a poll timeout, close idle
//!   connections, answer a malformed frame once and hang up, tell a
//!   draining connection why it is being dropped (when the plane says
//!   so), and hand every good frame to the plane's dispatch;
//! - [`Link`] — the reply side dispatch answers through, counted the
//!   way the plane's [`Plane`] description says.
//!
//! `docs/PROTOCOL.md` ("Connection lifecycle") states the contract.

use crate::frame::{read_frame, write_frame, ErrorCode, ErrorInfo, Frame, FrameType, ReadOutcome};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Lock a mutex, continuing through poisoning: shared state behind
/// these locks is plain data and every mutation is small and
/// panic-free, so a poisoned lock only means a *peer* thread died
/// mid-request.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Where a listener binds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// A TCP address like `127.0.0.1:7077` (`:0` picks an ephemeral
    /// port; read the bound address back from the running handle).
    Tcp(String),
    /// A Unix-domain socket path (taken over: a stale file is removed).
    Unix(PathBuf),
}

impl BindAddr {
    /// Read a dial address: a Unix socket path when it contains `/`,
    /// `host:port` otherwise.
    pub fn parse(addr: &str) -> BindAddr {
        if addr.contains('/') {
            BindAddr::Unix(PathBuf::from(addr))
        } else {
            BindAddr::Tcp(addr.to_string())
        }
    }
}

/// One connection (TCP or Unix), accepted or dialed.
pub enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain socket connection.
    Unix(UnixStream),
}

impl Conn {
    /// Dial `addr` with the read poll interval set.
    pub fn connect(addr: &BindAddr, read_timeout: Duration) -> io::Result<Conn> {
        let conn = match addr {
            BindAddr::Tcp(spec) => Conn::Tcp(TcpStream::connect(spec.as_str())?),
            BindAddr::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
        };
        conn.set_read_timeout(read_timeout)?;
        Ok(conn)
    }

    /// Set the read poll interval (shutdown-observation latency).
    pub fn set_read_timeout(&self, t: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(t)),
            Conn::Unix(s) => s.set_read_timeout(Some(t)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener (TCP or Unix), the accepting half of [`Conn`].
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain socket listener.
    Unix(UnixListener),
}

impl Listener {
    /// Accept one connection.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// Bind one [`BindAddr`], returning the listener and its resolved
/// address (`ip:port` for TCP — ephemeral ports resolved — or the path
/// for Unix, whose stale socket file is taken over).
fn bind_addr(addr: &BindAddr) -> io::Result<(Listener, String)> {
    match addr {
        BindAddr::Tcp(spec) => {
            let l = TcpListener::bind(spec.as_str())?;
            let addr = l.local_addr()?.to_string();
            Ok((Listener::Tcp(l), addr))
        }
        BindAddr::Unix(path) => {
            // Take the path over; a stale socket file from a dead
            // process would otherwise fail the bind forever.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            Ok((Listener::Unix(l), path.display().to_string()))
        }
    }
}

/// Dial a bound listener once so a blocking `accept` observes the
/// shutdown flag.
fn wake_acceptor(bind: &BindAddr, addr: &str) {
    match bind {
        BindAddr::Tcp(_) => {
            if let Ok(parsed) = addr.parse() {
                let _ = TcpStream::connect_timeout(&parsed, Duration::from_millis(250));
            }
        }
        BindAddr::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
    }
}

/// Spawn one named thread of a plane (acceptor, worker, admin).
pub fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(f)
}

/// A frontend's shutdown flag, its bound data and admin addresses, and
/// the limits its frame loops run under: what its handle, its
/// acceptors, and every frame loop share.
pub struct Lifecycle {
    stop: AtomicBool,
    data: (BindAddr, String),
    admin: Option<(BindAddr, String)>,
    limits: Limits,
}

impl Lifecycle {
    /// Bind the data listener and, when configured, the admin listener.
    pub fn bind(
        data: &BindAddr,
        admin: Option<&BindAddr>,
        limits: Limits,
    ) -> io::Result<(Lifecycle, Listener, Option<Listener>)> {
        let (data_listener, data_addr) = bind_addr(data)?;
        let (admin, admin_listener) = match admin {
            Some(spec) => {
                let (listener, addr) = bind_addr(spec)?;
                (Some((spec.clone(), addr)), Some(listener))
            }
            None => (None, None),
        };
        let life = Lifecycle {
            stop: AtomicBool::new(false),
            data: (data.clone(), data_addr),
            admin,
            limits,
        };
        Ok((life, data_listener, admin_listener))
    }

    /// The bound data address (`ip:port` or Unix path).
    pub fn addr(&self) -> &str {
        &self.data.1
    }

    /// The bound admin address, when one was configured.
    pub fn admin_addr(&self) -> Option<&str> {
        self.admin.as_ref().map(|(_, addr)| addr.as_str())
    }

    /// Whether shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Flip the shutdown flag and wake both acceptors (idempotent).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        for (spec, addr) in std::iter::once(&self.data).chain(&self.admin) {
            wake_acceptor(spec, addr);
        }
    }

    /// Block until shutdown is requested — by a `Shutdown` frame from
    /// the wire or by `external` flipping true (e.g. a SIGINT flag).
    pub fn wait(&self, external: Option<&AtomicBool>) {
        while !self.stopping() && !external.is_some_and(|f| f.load(Ordering::Acquire)) {
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Join `threads` (call after [`Lifecycle::request_stop`]) and
    /// release the Unix socket files this frontend bound.
    pub fn finish(&self, threads: Vec<JoinHandle<()>>) {
        for t in threads {
            let _ = t.join();
        }
        for (spec, _) in std::iter::once(&self.data).chain(&self.admin) {
            if let BindAddr::Unix(path) = spec {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// What one plane counts and how its draining connections end. Each
/// field names the metric a plane emits on that event; `None`/`false`
/// means the plane emits nothing there.
pub struct Plane {
    /// Names the plane in logs.
    pub name: &'static str,
    /// Counted once per accepted connection.
    pub accepted: &'static str,
    /// Counted once per well-formed inbound frame.
    pub frames_in: Option<&'static str>,
    /// Counted by each well-formed inbound frame's encoded size.
    pub bytes_in: Option<&'static str>,
    /// Count replies under `serve.frames.sent` / `serve.bytes.sent`, and
    /// malformed frames under `serve.decode_errors` plus a
    /// `DecodeError` flight-recorder event.
    pub serve_counters: bool,
    /// Record an `ErrorReply` flight-recorder event (and, at debug log
    /// level, the recorder tail) for every error reply.
    pub error_events: bool,
    /// A connection found draining is told `ShuttingDown` with this
    /// message before it closes; `None` closes it quietly.
    pub drain_reply: Option<&'static str>,
}

/// Socket poll, idle and frame-size limits of a frontend's frame loops.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Socket read poll interval; also the shutdown-observation latency.
    pub read_timeout: Duration,
    /// A connection is dropped after this long without a frame.
    pub idle_timeout: Duration,
    /// Cap on a single frame's payload bytes.
    pub max_payload: u32,
}

/// Accept connections until `life` stops, counting each and passing it
/// to `handoff` — the plane's concurrency policy. A failed accept is
/// logged and retried after 10 ms.
pub fn accept_loop(
    listener: &Listener,
    plane: &Plane,
    life: &Lifecycle,
    mut handoff: impl FnMut(Conn),
) {
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                if life.stopping() {
                    return;
                }
                incprof_obs::warn!("{} accept failed: {e}", plane.name);
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if life.stopping() {
            return;
        }
        incprof_obs::counter(plane.accepted).inc();
        handoff(conn);
    }
}

/// Answer a connection the plane has no room for with `Busy`, then drop
/// it.
pub fn reply_busy(mut conn: Conn) {
    let _ = write_frame(&mut conn, &Frame::empty(FrameType::Busy, 0));
}

/// Serve one connection until it closes, errors, idles out, or `life`
/// stops. Framing violations answer with one typed error and then drop
/// the connection (the stream is no longer frame-aligned); everything
/// else is `dispatch`'s to answer, and it returns false to end the
/// connection.
pub fn frame_loop(
    conn: Conn,
    plane: &'static Plane,
    life: &Lifecycle,
    mut dispatch: impl FnMut(&mut Link, Frame) -> bool,
) {
    let limits = life.limits;
    if conn.set_read_timeout(limits.read_timeout).is_err() {
        return;
    }
    let mut link = Link { conn, plane };
    let idle_limit = limits.idle_timeout.as_nanos();
    let mut idle_polls: u128 = 0;
    loop {
        if life.stopping() {
            if let Some(message) = plane.drain_reply {
                link.send_error(0, ErrorCode::ShuttingDown, message);
            }
            return;
        }
        let frame = match read_frame(&mut link.conn, limits.max_payload) {
            Ok(ReadOutcome::Frame(f)) => f,
            Ok(ReadOutcome::TimedOut) => {
                idle_polls += 1;
                if idle_polls * limits.read_timeout.as_nanos() >= idle_limit {
                    return;
                }
                continue;
            }
            Ok(ReadOutcome::Malformed(e)) => {
                let code = ErrorCode::of_frame_error(&e);
                if plane.serve_counters {
                    incprof_obs::counter(incprof_obs::names::SERVE_DECODE_ERRORS).inc();
                    incprof_obs::recorder().record(
                        incprof_obs::EventKind::DecodeError,
                        0,
                        code as u64,
                    );
                }
                link.send_error(0, code, &e.to_string());
                return;
            }
            Ok(ReadOutcome::Closed) | Err(_) => return,
        };
        idle_polls = 0;
        if let Some(name) = plane.frames_in {
            incprof_obs::counter(name).inc();
        }
        if let Some(name) = plane.bytes_in {
            incprof_obs::counter(name).add(frame.encoded_len() as u64);
        }
        if !dispatch(&mut link, frame) {
            return;
        }
    }
}

/// The connection a dispatch function answers on, counted per its
/// plane. Every send returns false when the peer is gone.
pub struct Link {
    conn: Conn,
    plane: &'static Plane,
}

impl Link {
    /// Write one reply frame.
    pub fn send(&mut self, frame: &Frame) -> bool {
        match write_frame(&mut self.conn, frame) {
            Ok(n) => {
                if self.plane.serve_counters {
                    incprof_obs::counter(incprof_obs::names::SERVE_FRAMES_OUT).inc();
                    incprof_obs::counter(incprof_obs::names::SERVE_BYTES_OUT).add(n as u64);
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Reply with a typed [`FrameType::Error`].
    pub fn send_error(&mut self, session_id: u64, code: ErrorCode, message: &str) -> bool {
        self.send_error_info(session_id, &ErrorInfo::new(code, message))
    }

    /// Reply with an already-built [`ErrorInfo`].
    pub fn send_error_info(&mut self, session_id: u64, info: &ErrorInfo) -> bool {
        if self.plane.error_events {
            record_error_reply(session_id, info);
        }
        self.send(&Frame::with_payload(
            FrameType::Error,
            session_id,
            info.encode(),
        ))
    }
}

fn record_error_reply(session_id: u64, info: &ErrorInfo) {
    incprof_obs::recorder().record(
        incprof_obs::EventKind::ErrorReply,
        session_id,
        info.code as u64,
    );
    // The postmortem hook: every typed error reply dumps the recorder
    // tail at debug level, so `INCPROF_LOG=debug` shows the events
    // leading up to the failure without an admin round trip. Gated so
    // the disabled path pays one atomic load, not a ring scan.
    if incprof_obs::logger::enabled(incprof_obs::Level::Debug, module_path!()) {
        incprof_obs::debug!(
            "error reply {:?} (session {session_id}): {}",
            info.code,
            info.message
        );
        for e in incprof_obs::recorder().snapshot().iter().rev().take(16) {
            incprof_obs::debug!(
                "  recorder[{}] t={}ns {:?} a={} b={}",
                e.seq,
                e.t_ns,
                e.kind,
                e.a,
                e.b
            );
        }
    }
}

/// Worker-pool policy: the bounded queue between an acceptor and the
/// workers that serve its connections.
pub struct ConnQueue {
    backlog: usize,
    queue: Mutex<VecDeque<Conn>>,
    ready: Condvar,
}

impl ConnQueue {
    /// A queue holding at most `backlog` unclaimed connections.
    pub fn new(backlog: usize) -> ConnQueue {
        ConnQueue {
            backlog,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    /// Queue `conn` for a worker; hands it back when the queue is full.
    pub fn offer(&self, conn: Conn) -> Result<(), Conn> {
        let mut q = lock(&self.queue);
        if q.len() >= self.backlog {
            return Err(conn);
        }
        q.push_back(conn);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// The next queued connection, blocking; `None` once `life` stops
    /// and the queue is empty (queued connections are still handed out
    /// so their frame loops can tell them the daemon is draining).
    pub fn take(&self, life: &Lifecycle) -> Option<Conn> {
        let mut q = lock(&self.queue);
        loop {
            if let Some(conn) = q.pop_front() {
                return Some(conn);
            }
            if life.stopping() {
                return None;
            }
            q = match self.ready.wait_timeout(q, Duration::from_millis(100)) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Wake every blocked [`ConnQueue::take`] to re-check the flag.
    pub fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// Thread-per-connection policy: one named thread per connection, at
/// most `max` live at once.
pub struct ConnThreads {
    max: usize,
    live: Arc<AtomicUsize>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ConnThreads {
    /// Room for `max` concurrently served connections.
    pub fn new(max: usize) -> ConnThreads {
        ConnThreads {
            max,
            live: Arc::new(AtomicUsize::new(0)),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Serve `conn` on a new thread called `name`; hands it back when
    /// `max` connections are already live. Each call first joins the
    /// handles of connection threads that have finished, so a
    /// long-running frontend holds one handle per live connection, not
    /// one per connection it ever accepted.
    pub fn spawn(
        &self,
        name: &str,
        conn: Conn,
        serve: impl FnOnce(Conn) + Send + 'static,
    ) -> Result<(), Conn> {
        let mut handles = lock(&self.handles);
        let (done, running) = handles.drain(..).partition(|h| h.is_finished());
        *handles = running;
        for t in done {
            if t.join().is_err() {
                incprof_obs::warn!("a connection thread panicked");
            }
        }
        if self.live.load(Ordering::Acquire) >= self.max {
            return Err(conn);
        }
        self.live.fetch_add(1, Ordering::AcqRel);
        let live = Arc::clone(&self.live);
        let spawned = spawn(name.to_string(), move || {
            serve(conn);
            live.fetch_sub(1, Ordering::AcqRel);
        });
        match spawned {
            Ok(t) => handles.push(t),
            Err(e) => {
                self.live.fetch_sub(1, Ordering::AcqRel);
                incprof_obs::warn!("could not spawn connection thread: {e}");
            }
        }
        Ok(())
    }

    /// Connections being served right now.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Thread handles held: the live connections plus those finished
    /// since the last [`ConnThreads::spawn`].
    pub fn tracked(&self) -> usize {
        lock(&self.handles).len()
    }

    /// Join every connection thread (call once the acceptor has
    /// stopped, so no new ones appear).
    pub fn join_all(&self) {
        let handles = std::mem::take(&mut *lock(&self.handles));
        for t in handles {
            let _ = t.join();
        }
    }
}
