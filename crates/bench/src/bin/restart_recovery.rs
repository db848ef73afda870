//! Restart-recovery bench for durable `incprof-serve` sessions.
//!
//! Measures what a daemon restart actually costs with `--store-dir`
//! enabled, at the registry layer (no sockets — the wire is not what's
//! being measured):
//!
//! 1. **Warm vs cold rehydration.** A session with a long synthetic
//!    snapshot series is made durable, its analysis checkpointed, and
//!    then rehydrated two ways: *warm* (snapshot log + the
//!    `AnalysisCache` checkpoint, so the report query memo-hits) and
//!    *cold* (checkpoint removed, so the query recomputes the full
//!    phase analysis from the replayed series). Both must produce
//!    byte-identical reports; the bench gates on warm being at least
//!    [`WARM_SPEEDUP_GATE`]× faster than cold, the point of shipping
//!    checkpoints at all.
//!
//! 2. **Bounded residency under eviction.** Many idle durable sessions
//!    are opened against a `max_live` cap; after one eviction sweep the
//!    registry must hold at most `max_live` sessions in memory while
//!    every evicted one remains reachable (rehydrated on demand,
//!    byte-identical).
//!
//! Output goes to `$INCPROF_METRICS` or
//! `experiments_out/restart_report.json` (the `store.bench.*` gauges).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use incprof_core::online::OnlineConfig;
use incprof_core::PhaseDetector;
use incprof_profile::{FlatProfile, FunctionStats, FunctionTable, GmonData};
use incprof_serve::{Registry, ReportMode, RetentionPolicy, Store};

/// Warm rehydration must beat cold replay by at least this factor.
const WARM_SPEEDUP_GATE: f64 = 5.0;

/// Timed rounds per arm; the median is reported.
const ROUNDS: usize = 7;

/// Snapshots in the main bench series. Long enough that the full
/// phase analysis (pairwise distances, k-means sweep) dwarfs the
/// linear log replay both arms share.
const SERIES_LEN: u64 = 1024;

/// Functions in the synthetic workload.
const FUNCS: u32 = 12;

/// Appends between analysis checkpoints while building the session.
const CHECKPOINT_EVERY: u64 = 16;

/// Sessions opened for the eviction phase, and the residency cap.
const EVICT_SESSIONS: usize = 32;
const EVICT_MAX_LIVE: usize = 4;
const EVICT_SNAPSHOTS: u64 = 24;

/// A three-phase synthetic cumulative series: each phase keeps a
/// different third of the functions hot, so the analysis has real
/// cluster structure to find.
fn synth_series(n: u64, funcs: u32) -> Vec<GmonData> {
    let mut table = FunctionTable::new();
    let ids: Vec<_> = (0..funcs)
        .map(|i| table.register(format!("fn_{i:03}")))
        .collect();
    let mut self_ns = vec![0u64; funcs as usize];
    let mut calls = vec![0u64; funcs as usize];
    let mut out = Vec::with_capacity(n as usize);
    for s in 0..n {
        let phase = (s * 3 / n.max(1)) as usize;
        for j in 0..funcs as usize {
            if j % 3 == phase % 3 {
                self_ns[j] += 1_000_000 + (j as u64 * 37 + s * 13) % 500_000;
                calls[j] += 1 + s % 3;
            }
        }
        let mut flat = FlatProfile::new();
        for (j, id) in ids.iter().enumerate() {
            if self_ns[j] > 0 {
                flat.set(
                    *id,
                    FunctionStats {
                        self_time: self_ns[j],
                        calls: calls[j],
                        child_time: 0,
                    },
                );
            }
        }
        out.push(GmonData {
            sample_index: s,
            timestamp_ns: 1_000_000 * (s + 1),
            functions: table.clone(),
            flat,
            callgraph: Default::default(),
        });
    }
    out
}

fn registry_over(root: &Path, max_live: usize) -> Registry {
    let store =
        Store::open(root, RetentionPolicy::keep_all(), CHECKPOINT_EVERY).expect("open store");
    Registry::new(OnlineConfig::default(), 2 * EVICT_SESSIONS, 8).with_store(store, max_live)
}

/// Stream a series into a fresh session of `registry`; returns
/// (session id, its analysis-only report).
fn ingest(registry: &Registry, series: &[GmonData], detector: &PhaseDetector) -> (u64, String) {
    let (id, session) = registry.open().expect("open session");
    let mut s = session.lock().expect("session lock");
    for gmon in series {
        s.enqueue(gmon.clone(), Instant::now()).expect("enqueue");
        s.drain().expect("drain");
    }
    let report = s.report_json(detector, ReportMode::AnalysisOnly);
    (id, report)
}

/// One timed rehydration: fresh registry over `root`, fetch the
/// session (log replay + optional checkpoint adoption), query the
/// analysis report. Returns the report bytes and the elapsed time.
fn rehydrate_round(root: &Path, id: u64, detector: &PhaseDetector) -> (String, Duration) {
    let registry = registry_over(root, 0);
    let started = Instant::now();
    let session = registry.get(id).expect("rehydrate session");
    let got = started.elapsed();
    let report = session
        .lock()
        .expect("session lock")
        .report_json(detector, ReportMode::AnalysisOnly);
    if std::env::var_os("RESTART_DEBUG").is_some() {
        eprintln!("    get: {:?}  query: {:?}", got, started.elapsed() - got);
    }
    (report, started.elapsed())
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incprof_restart_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let detector = PhaseDetector::default();

    println!("== restart_recovery: warm checkpoint rehydration vs cold replay ==");
    println!("building a {SERIES_LEN}-snapshot, {FUNCS}-function durable session...");
    let series = synth_series(SERIES_LEN, FUNCS);
    let root = tmp_root("speed");
    let (id, live_report) = {
        let registry = registry_over(&root, 0);
        let (id, report) = ingest(&registry, &series, &detector);
        // Graceful-shutdown path: final drain + analysis checkpoint.
        registry.drain_all();
        (id, report)
    };

    println!("timing warm rehydration ({ROUNDS} rounds)...");
    let mut warm = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let (report, t) = rehydrate_round(&root, id, &detector);
        assert_eq!(report, live_report, "warm report must be byte-identical");
        warm.push(t);
    }

    // Remove the checkpoint: rehydration now replays the log and the
    // query recomputes the whole analysis.
    let checkpoint = root.join(id.to_string()).join("checkpoint.iprf");
    std::fs::remove_file(&checkpoint).expect("remove checkpoint");
    println!("timing cold replay ({ROUNDS} rounds, checkpoint removed)...");
    let mut cold = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let (report, t) = rehydrate_round(&root, id, &detector);
        assert_eq!(report, live_report, "cold report must be byte-identical");
        cold.push(t);
    }

    let warm_med = median(&mut warm);
    let cold_med = median(&mut cold);
    let speedup = cold_med.as_secs_f64() / warm_med.as_secs_f64().max(1e-9);
    println!(
        "  warm (log + checkpoint): median {:.3}ms   cold (log only): median {:.3}ms",
        warm_med.as_secs_f64() * 1e3,
        cold_med.as_secs_f64() * 1e3
    );
    println!("  warm speedup: {speedup:.1}x (gate: >= {WARM_SPEEDUP_GATE}x)");

    println!(
        "\n== bounded residency: {EVICT_SESSIONS} idle sessions, max_live={EVICT_MAX_LIVE} =="
    );
    let evict_root = tmp_root("evict");
    let registry = registry_over(&evict_root, EVICT_MAX_LIVE);
    let evict_series = synth_series(EVICT_SNAPSHOTS, FUNCS);
    let mut reports = Vec::with_capacity(EVICT_SESSIONS);
    for _ in 0..EVICT_SESSIONS {
        reports.push(ingest(&registry, &evict_series, &detector));
    }
    let before = registry.active();
    let evicted = registry.maybe_evict(Instant::now());
    let after = registry.active();
    let resident_snapshots: u64 = registry
        .stats(Instant::now())
        .iter()
        .map(|s| s.snapshots)
        .sum();
    println!(
        "  live sessions: {before} -> {after} ({evicted} evicted); \
         resident snapshots {resident_snapshots} of {}",
        EVICT_SESSIONS as u64 * EVICT_SNAPSHOTS
    );
    assert!(
        after <= EVICT_MAX_LIVE,
        "eviction must bound live sessions at {EVICT_MAX_LIVE}, got {after}"
    );
    // Every evicted session stays reachable, byte-identically.
    let (probe_id, probe_report) = &reports[0];
    let session = registry.get(*probe_id).expect("evicted session reachable");
    let report = session
        .lock()
        .expect("session lock")
        .report_json(&detector, ReportMode::AnalysisOnly);
    assert_eq!(&report, probe_report, "rehydrated evictee must match");

    incprof_obs::gauge("store.bench.series_len").set(SERIES_LEN);
    incprof_obs::gauge("store.bench.warm_rehydrate_us").set(warm_med.as_micros() as u64);
    incprof_obs::gauge("store.bench.cold_replay_us").set(cold_med.as_micros() as u64);
    incprof_obs::gauge("store.bench.warm_speedup_x100").set((speedup * 100.0) as u64);
    incprof_obs::gauge("store.bench.evict_sessions").set(EVICT_SESSIONS as u64);
    incprof_obs::gauge("store.bench.evict_max_live").set(EVICT_MAX_LIVE as u64);
    incprof_obs::gauge("store.bench.evict_live_after").set(after as u64);
    incprof_obs::gauge("store.bench.evict_resident_snapshots").set(resident_snapshots);

    let out = std::env::var("INCPROF_METRICS")
        .unwrap_or_else(|_| "experiments_out/restart_report.json".into());
    let path = std::path::PathBuf::from(out);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    incprof_obs::report()
        .write(&path)
        .expect("write restart recovery report");
    println!(
        "\nrun report (store.bench.* gauges + store.* counters): {}",
        path.display()
    );

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&evict_root);
    if speedup < WARM_SPEEDUP_GATE {
        eprintln!(
            "FAIL: warm rehydration only {speedup:.1}x faster than cold replay \
             (gate {WARM_SPEEDUP_GATE}x)"
        );
        std::process::exit(1);
    }
    println!("warm-rehydration gate (>= {WARM_SPEEDUP_GATE}x): ok");
}
