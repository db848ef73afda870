//! `live-stream` and `routed-stream`: an open-loop generator replays
//! the paper applications' pre-encoded snapshot series into sessions of
//! an in-process daemon, directly or through an in-process router
//! fronting two backends that share one store directory. After each
//! push the sending thread queries that session's analysis.

use crate::inputs::{paper_apps, Run};
use crate::record::cpu_ms;
use crate::trace::{names, now_ns, Tracer};
use incprof_collect::SampleSeries;
use incprof_profile::GmonData;
use incprof_serve::{retry_backoff, Client, Push, ServeConfig, Server, ServerHandle};
use incprof_shard::{BackendSpec, Router, RouterConfig, RouterHandle};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Duration;

/// Generator threads, each with one connection; each daemon runs one
/// worker per connection.
pub const THREADS: usize = 2;
/// Worker threads of each analysis (`incprof_par`). The daemon's own
/// workers already run sessions concurrently, so each analysis runs on
/// the worker that serves it, as `incprof --threads 1` configures.
pub const ANALYSIS_THREADS: usize = 1;
/// Pushes per second across all sessions.
pub const RATE_PER_S: f64 = 120.0;
/// Push→report latency limit (ms) a run is judged against.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Attempts per push before a run of `Busy` replies counts as a failure.
const MAX_PUSH_ATTEMPTS: usize = 20;
/// Seeds of the application runs the sessions replay, relative to the
/// workload seed: each paper app twice.
const SESSION_SEED_OFFSETS: [u64; 2] = [0, 1];

/// One session's input: its run and the series pre-encoded for the wire.
pub struct SessionInput {
    pub run: Run,
    pub gmon: Vec<GmonData>,
}

/// Give the serving process one glibc malloc arena. With the default of
/// eight per core, which threads get an arena of their own is a race,
/// and the daemon's resident memory lands on one of several levels from
/// run to run; one arena makes it repeatable. Must run before the
/// process starts a second thread.
pub fn limit_malloc_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: mallopt only sets an allocator tunable; it takes plain
        // integers, and the caller runs it while the process has one thread.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// The sessions a stream replays, made from the workload seed.
pub fn setup_inputs(seed: u64) -> Vec<SessionInput> {
    SESSION_SEED_OFFSETS
        .iter()
        .flat_map(|off| paper_apps(seed.wrapping_add(*off)))
        .map(|run| SessionInput {
            gmon: run.gmon(),
            run,
        })
        .collect()
}

/// Where the generator sends: one daemon, or a router over two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    Direct,
    Routed,
}

/// A running daemon, or a router and its backends.
pub struct Cluster {
    pub addr: String,
    servers: Vec<ServerHandle>,
    router: Option<RouterHandle>,
}

/// Start a daemon that persists into `store`.
pub fn start_server(store: &Path) -> std::io::Result<ServerHandle> {
    Server::bind(ServeConfig {
        workers: THREADS,
        store_dir: Some(store.to_path_buf()),
        ..ServeConfig::default()
    })?
    .start()
}

impl Cluster {
    pub fn start(topology: Topology, store: &Path) -> std::io::Result<Cluster> {
        match topology {
            Topology::Direct => {
                let server = start_server(store)?;
                Ok(Cluster {
                    addr: server.addr().to_string(),
                    servers: vec![server],
                    router: None,
                })
            }
            Topology::Routed => {
                let servers = (0..2)
                    .map(|_| start_server(store))
                    .collect::<std::io::Result<Vec<_>>>()?;
                let router = Router::bind(RouterConfig {
                    backends: servers
                        .iter()
                        .map(|s| BackendSpec {
                            data: s.addr().to_string(),
                            admin: None,
                        })
                        .collect(),
                    store_dir: Some(store.to_path_buf()),
                    max_conns: 8,
                    ..RouterConfig::default()
                })?
                .start()?;
                Ok(Cluster {
                    addr: router.addr().to_string(),
                    servers,
                    router: Some(router),
                })
            }
        }
    }

    /// Frames the router forwarded to each backend (empty when direct).
    pub fn routed_per_backend(&self) -> Vec<u64> {
        self.router
            .as_ref()
            .map_or_else(Vec::new, |r| r.routed_per_backend())
    }

    /// Stop the router, then every daemon, and wait for their threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

/// One request's timings in ms from when it was due. A failed push or
/// query leaves `f64::INFINITY`.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub ack_ms: f64,
    pub report_ms: f64,
    pub lag_ms: f64,
}

/// One session the generator opened and what it received.
#[derive(Debug, Clone)]
pub struct Session {
    /// Index of the input it replays.
    pub input: usize,
    pub id: u64,
    /// Snapshots acknowledged.
    pub pushed: usize,
    /// The last analysis reply.
    pub last: Option<String>,
    /// FNV-1a over every analysis reply, in order.
    pub digest: u64,
}

/// What one stream produced.
pub struct StreamResult {
    pub timings: Vec<Timing>,
    /// Every session opened, ordered by (round, input).
    pub sessions: Vec<Session>,
    pub busy_replies: u64,
    pub client_retries: u64,
    pub failures: u64,
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub tracer: Tracer,
}

impl StreamResult {
    /// The digests of every session, in order: equal digests mean every
    /// reply was byte-identical.
    pub fn digests(&self) -> Vec<(usize, u64)> {
        self.sessions.iter().map(|s| (s.pushed, s.digest)).collect()
    }
}

/// FNV-1a continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

struct ThreadOut {
    timings: Vec<Timing>,
    /// (round, session) pairs.
    sessions: Vec<(usize, Session)>,
    busy: u64,
    retries: u64,
    failures: u64,
    tracer: Tracer,
}

/// Push with bounded retries on `Busy`.
fn push_with_retry(
    client: &mut Client,
    sid: u64,
    gmon: &GmonData,
    busy: &mut u64,
    retries: &mut u64,
) -> Result<(), String> {
    for attempt in 0..MAX_PUSH_ATTEMPTS {
        match client.push(sid, gmon) {
            Ok(Push::Ack(_)) => return Ok(()),
            Ok(Push::Busy) => {
                *busy += 1;
                if attempt + 1 < MAX_PUSH_ATTEMPTS {
                    *retries += 1;
                    std::thread::sleep(retry_backoff(attempt, sid ^ gmon.sample_index));
                }
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Err(format!(
        "session {sid}: still busy after {MAX_PUSH_ATTEMPTS} attempts"
    ))
}

/// Open one session per input in `mine`, as round `round`.
fn open_round(
    client: &mut Client,
    mine: &[usize],
    round: usize,
) -> Result<Vec<(usize, Session)>, String> {
    mine.iter()
        .map(|&input| {
            let id = client.open().map_err(|e| e.to_string())?;
            Ok((
                round,
                Session {
                    input,
                    id,
                    pushed: 0,
                    last: None,
                    digest: FNV_SEED,
                },
            ))
        })
        .collect()
}

/// One generator thread: open its sessions, then send its share of the
/// schedule. Request `k` of thread `t` is due at
/// `t0 + (k * THREADS + t) / rate`, whatever happened to earlier ones.
/// Sessions are served round-robin; when all of them have replayed
/// their series, a new round of sessions starts (the old ones stay
/// open).
fn generator(
    t: usize,
    addr: &str,
    inputs: &[SessionInput],
    budget_s: f64,
    trace: bool,
    start: &Barrier,
) -> Result<ThreadOut, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mine: Vec<usize> = (0..inputs.len()).filter(|i| i % THREADS == t).collect();
    let mut out = ThreadOut {
        timings: Vec::new(),
        sessions: open_round(&mut client, &mine, 0)?,
        busy: 0,
        retries: 0,
        failures: 0,
        tracer: Tracer::new(trace),
    };
    start.wait();
    let t0 = now_ns();
    let period_ns = 1e9 / RATE_PER_S;
    let budget_ns = (budget_s * 1e9) as u64;
    let mut next = 0usize;
    for k in 0u64.. {
        let due = t0 + ((k * THREADS as u64 + t as u64) as f64 * period_ns) as u64;
        if due - t0 >= budget_ns {
            break;
        }
        let live = |s: &Session| s.pushed < inputs[s.input].gmon.len();
        if !out.sessions.iter().any(|(_, s)| live(s)) {
            let round = out.sessions.last().map_or(0, |(r, _)| r + 1);
            next = out.sessions.len();
            let fresh = open_round(&mut client, &mine, round)?;
            out.sessions.extend(fresh);
        }
        let n = out.sessions.len();
        let slot = (0..n)
            .map(|j| (next + j) % n)
            .find(|&j| live(&out.sessions[j].1))
            .expect("a session with snapshots left");
        next = slot + 1;
        let now = now_ns();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let sent = now_ns();
        let (sid, gmon) = {
            let s = &out.sessions[slot].1;
            (s.id, &inputs[s.input].gmon[s.pushed])
        };
        let request = ((t as u64) << 32) | k;
        out.tracer.begin(names::REQUEST, request);
        let pushed = out.tracer.span(names::PUSH, request, || {
            push_with_retry(&mut client, sid, gmon, &mut out.busy, &mut out.retries)
        });
        let ack = now_ns();
        let push_ok = pushed.is_ok();
        let reply = match pushed {
            Ok(()) => {
                out.sessions[slot].1.pushed += 1;
                out.tracer
                    .span(names::QUERY, request, || client.query_analysis(sid))
                    .map_err(|e| e.to_string())
            }
            Err(e) => Err(e),
        };
        let done = now_ns();
        out.tracer.end();
        let ms = |at: u64| (at - due) as f64 / 1e6;
        let timing = match reply {
            Ok(json) => {
                let s = &mut out.sessions[slot].1;
                s.digest = fnv(s.digest, json.as_bytes());
                s.last = Some(json);
                Timing {
                    ack_ms: ms(ack),
                    report_ms: ms(done),
                    lag_ms: ms(sent),
                }
            }
            Err(_) => {
                out.failures += 1;
                Timing {
                    ack_ms: if push_ok { ms(ack) } else { f64::INFINITY },
                    report_ms: f64::INFINITY,
                    lag_ms: ms(sent),
                }
            }
        };
        out.timings.push(timing);
    }
    Ok(out)
}

/// Replay `inputs` into the cluster at `addr` for `budget_s`.
pub fn run_stream(addr: &str, inputs: &[SessionInput], budget_s: f64, trace: bool) -> StreamResult {
    let start = Barrier::new(THREADS + 1);
    // lint: allow(D03, the load generator's threads, joined before run_stream returns)
    let (outs, wall_s, cpu) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let start = &start;
                scope.spawn(move || {
                    let out = generator(t, addr, inputs, budget_s, trace, start);
                    if out.is_err() {
                        // Release the others if this thread failed to set up.
                        start.wait();
                    }
                    out
                })
            })
            .collect();
        start.wait();
        let cpu_start = cpu_ms();
        let t0 = now_ns();
        let outs: Vec<Result<ThreadOut, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect();
        let wall = (now_ns() - t0) as f64 / 1e9;
        (outs, wall, cpu_ms() - cpu_start)
    });
    let mut res = StreamResult {
        timings: Vec::new(),
        sessions: Vec::new(),
        busy_replies: 0,
        client_retries: 0,
        failures: 0,
        wall_s,
        cpu_ms: cpu,
        tracer: Tracer::new(trace),
    };
    let mut sessions = Vec::new();
    for out in outs {
        match out {
            Ok(o) => {
                res.timings.extend(o.timings);
                res.busy_replies += o.busy;
                res.client_retries += o.retries;
                res.failures += o.failures;
                res.tracer.absorb(o.tracer);
                sessions.extend(o.sessions);
            }
            Err(_) => res.failures += 1,
        }
    }
    sessions.sort_by_key(|(round, s)| (*round, s.input));
    res.sessions = sessions.into_iter().map(|(_, s)| s).collect();
    res
}

/// The first `n` snapshots of a series.
pub fn prefix(series: &SampleSeries, n: usize) -> SampleSeries {
    let mut s = SampleSeries::new();
    for snap in &series.snapshots()[..n] {
        s.push(snap.clone());
    }
    s
}

/// A fresh directory under `root` for one store.
pub fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
