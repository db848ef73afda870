//! The layer profile (`--trace 1`).
//!
//! One traced run covers four scenarios whatever workload is named: the
//! two end-to-end workloads, plus routed-stream (the live-stream load
//! through the shard router) and profiled-run (Graph500 with IncProf off
//! and on), whose wall times follow the shared machine's speed too
//! closely to be bounded end to end. Several per-layer figures compare
//! scenarios (the router hop is routed-stream's ack latency minus
//! live-stream's). Each scenario runs once untraced and once with the
//! benchmark's spans around every call into a layer; the ratio of the
//! two is `obs.trace_overhead_ratio.<scenario>`. The layer
//! probes then time single public functions on the same inputs. No span
//! or counter is added inside the program: the program's existing obs
//! counters and histograms are read in-process.
//!
//! A `_p99` figure is the highest percentile with at least ten samples
//! beyond it, capped at p99; the record's details give the quantile.

use crate::inputs::Run;
use crate::offline::{self, Answer};
use crate::profiled;
use crate::spec::Workload;
use crate::stats::{highest_supported, loglog_slope, median};
use crate::stream::{self, Cluster, SessionInput, StreamResult, Topology};
use crate::trace::{self, names, now_ns, secs_since, Tracer};
use crate::workloads::{check_offline_equivalence, latency_json, mismatches, restart_tail};
use crate::{num, Outcome};
use incprof_collect::SampleSeries;
use incprof_core::{AnalysisCache, OnlineConfig, OnlinePhaseDetector, PhaseDetector};
use incprof_obs::names as obs_names;
use incprof_profile::GmonData;
use incprof_runtime::ProfilerRuntime;
use incprof_shard::Ring;
use incprof_store::SnapshotLog;
use std::hint::black_box;
use std::path::Path;

/// Share of `--seconds` each of the four stream passes runs for.
const STREAM_SHARE: f64 = 0.3;
/// Share of `--seconds` the untraced profiled pairs run for; the traced
/// pairs repeat the same number.
const PROFILED_SHARE: f64 = 0.2;

pub fn profile(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    out.detail("workload_named", format!("\"{}\"", w.name()));
    let mut spans = Tracer::new(true);
    offline_layers(&mut out, &mut spans, seed);
    stream_layers(&mut out, &mut spans, seed, seconds * STREAM_SHARE, scratch);
    profiled_layers(&mut out, &mut spans, seed, seconds * PROFILED_SHARE);
    runtime_probes(&mut out);
    out.metric("shard.route_ns", route_ns(), "ns");
    out.spans = Some(spans);
    out
}

fn counter(name: &str) -> u64 {
    incprof_obs::counter(name).get()
}

fn kmeans_iterations() -> u64 {
    (1..=8)
        .map(|k| counter(&obs_names::cluster_kmeans_iterations_total(k)))
        .sum()
}

/// Tail percentile of `xs` (at most p99) and the quantile it was taken at.
fn tail(xs: &[f64]) -> (f64, f64) {
    highest_supported(xs, 0.99).map_or((f64::NAN, f64::NAN), |p| (p.value, p.q))
}

fn offline_layers(out: &mut Outcome, spans: &mut Tracer, seed: u64) {
    let runs = offline::setup(seed);
    let det = PhaseDetector::default();
    let (reference, untraced_s) = offline::pass(&det, &runs);
    out.attempted += runs.len() as u64;
    out.failed += reference.iter().filter(|a| a.is_err()).count() as u64;

    let iters0 = kmeans_iterations();
    let pruned0 = counter(obs_names::CLUSTER_KMEANS_PRUNED);
    let mut tr = Tracer::new(true);
    let t = now_ns();
    let traced: Vec<Answer> = runs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            offline::traced_analysis(&det, r, &mut tr, i as u64 + 1)
                .and_then(|a| serde_json::to_string(&a).map_err(|e| e.to_string()))
        })
        .collect();
    let traced_s = secs_since(t);
    let analyses = runs.len() as f64;
    out.metric(
        "cluster.kmeans_iters_per_analysis",
        (kmeans_iterations() - iters0) as f64 / analyses,
        "count",
    );
    out.metric(
        "cluster.kmeans_pruned_per_analysis",
        (counter(obs_names::CLUSTER_KMEANS_PRUNED) - pruned0) as f64 / analyses,
        "count",
    );
    out.attempted += runs.len() as u64;
    let bad = mismatches(&reference, &traced);
    out.failed += bad;
    out.check("layer-composed analysis == detect_series", bad == 0);

    incprof_par::set_threads(1);
    let (one, one_s) = offline::pass(&det, &runs);
    incprof_par::set_threads(0);
    out.attempted += runs.len() as u64;
    let bad = mismatches(&reference, &one);
    out.failed += bad;
    out.check("1 worker == default workers", bad == 0);

    let s = tr.spans();
    let total_ms = |name: &str| trace::durations(s, name).iter().sum::<u64>() as f64 / 1e6;
    out.metric("collect.delta_ms", total_ms(names::DELTA), "ms");
    out.metric("collect.matrix_ms", total_ms(names::MATRIX), "ms");
    out.metric("core.features_ms", total_ms(names::FEATURES), "ms");
    out.metric("cluster.scale_ms", total_ms(names::SCALE), "ms");
    out.metric("core.algorithm1_ms", total_ms(names::ALGORITHM1), "ms");
    let glue = trace::self_time_by_name(s)
        .get(names::DETECT_SERIES)
        .copied()
        .unwrap_or(0);
    out.metric("core.detect_glue_ms", glue as f64 / 1e6, "ms");
    let fold = fold_by_size(&runs, s);
    for (n, ms) in &fold {
        out.metric(format!("cluster.fold_ms.n{n}"), *ms, "ms");
    }
    let xs: Vec<f64> = fold.iter().map(|(n, _)| *n as f64).collect();
    let ys: Vec<f64> = fold.iter().map(|(_, ms)| *ms).collect();
    out.metric("cluster.fold_exponent", loglog_slope(&xs, &ys), "ratio");
    out.metric("par.detect_batch_1w_s", one_s, "s");
    out.metric("e2e.detect_batch_s", untraced_s, "s");
    let ari = offline::mean_ari(&runs, &reference).unwrap_or(f64::NAN);
    out.metric("e2e.detect_ari", ari, "ratio");
    out.metric(
        "obs.trace_overhead_ratio.offline-detect",
        traced_s / untraced_s,
        "ratio",
    );
    spans.absorb(tr);
}

/// Fold time (ms) of each planted run, by interval count.
fn fold_by_size(runs: &[Run], spans: &[trace::Span]) -> Vec<(usize, f64)> {
    let folds: Vec<&trace::Span> = spans.iter().filter(|s| s.name == names::FOLD).collect();
    crate::inputs::SYNTH_SIZES
        .iter()
        .filter_map(|&n| {
            let i = runs.iter().position(|r| r.name == format!("synth-n{n}"))?;
            // Request ids number the runs from 1.
            let f = folds.iter().find(|s| s.request == i as u64 + 1)?;
            Some((n, (f.end_ns - f.start_ns) as f64 / 1e6))
        })
        .collect()
}

/// One stream pass and the program counters it moved.
struct Pass {
    res: StreamResult,
    busy: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Ingest-latency histogram buckets before and after the pass.
    ingest: (Buckets, Buckets),
    routed: Vec<u64>,
}

/// A histogram's non-empty buckets as (upper bound, count).
type Buckets = Vec<(u64, u64)>;

fn histogram_buckets(name: &str) -> Buckets {
    incprof_obs::histogram(name)
        .snapshot()
        .buckets
        .iter()
        .map(|b| (b.le, b.count))
        .collect()
}

/// Quantile of the observations recorded between two bucket readings,
/// as the upper bound of the bucket holding the rank.
fn bucket_quantile(before: &[(u64, u64)], after: &[(u64, u64)], q: f64) -> f64 {
    let diff: Buckets = after
        .iter()
        .map(|&(le, c)| {
            let b = before.iter().find(|x| x.0 == le).map_or(0, |x| x.1);
            (le, c - b)
        })
        .collect();
    let total: u64 = diff.iter().map(|d| d.1).sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (le, c) in diff {
        seen += c;
        if seen >= rank {
            return le as f64;
        }
    }
    f64::NAN
}

fn stream_pass(
    topology: Topology,
    inputs: &[SessionInput],
    store: &Path,
    seconds: f64,
    trace: bool,
) -> Result<Pass, String> {
    let cluster = Cluster::start(topology, store).map_err(|e| e.to_string())?;
    let busy0 = counter(obs_names::SERVE_BUSY_REPLIES);
    let hits0 = counter(obs_names::CORE_CACHE_HITS);
    let misses0 = counter(obs_names::CORE_CACHE_MISSES);
    let ingest0 = histogram_buckets(obs_names::SERVE_INGEST_DETECT_LATENCY_NS);
    let res = stream::run_stream(&cluster.addr, inputs, seconds, trace);
    let routed = cluster.routed_per_backend();
    cluster.shutdown();
    let ingest1 = histogram_buckets(obs_names::SERVE_INGEST_DETECT_LATENCY_NS);
    Ok(Pass {
        busy: counter(obs_names::SERVE_BUSY_REPLIES) - busy0,
        cache_hits: counter(obs_names::CORE_CACHE_HITS) - hits0,
        cache_misses: counter(obs_names::CORE_CACHE_MISSES) - misses0,
        ingest: (ingest0, ingest1),
        routed,
        res,
    })
}

fn report_ms(p: &Pass) -> Vec<f64> {
    p.res.timings.iter().map(|t| t.report_ms).collect()
}

fn ack_ms(p: &Pass) -> Vec<f64> {
    p.res.timings.iter().map(|t| t.ack_ms).collect()
}

/// Record one pass's end-to-end figures under `prefix`.
fn stream_e2e_metrics(out: &mut Outcome, prefix: &str, p: &Pass) {
    let ack = ack_ms(p);
    let report = report_ms(p);
    out.metric(format!("e2e.{prefix}.push_ack_ms_p50"), median(&ack), "ms");
    out.metric(format!("e2e.{prefix}.push_ack_ms_p99"), tail(&ack).0, "ms");
    out.metric(
        format!("e2e.{prefix}.push_report_ms_p50"),
        median(&report),
        "ms",
    );
    out.metric(
        format!("e2e.{prefix}.push_report_ms_p99"),
        tail(&report).0,
        "ms",
    );
    out.detail(format!("{prefix}_push_ack_ms"), latency_json(&ack));
    out.detail(format!("{prefix}_push_report_ms"), latency_json(&report));
    out.attempted += p.res.timings.len() as u64;
    out.failed += p.res.failures;
}

fn stream_layers(out: &mut Outcome, spans: &mut Tracer, seed: u64, seconds: f64, scratch: &Path) {
    let inputs = stream::setup_inputs(seed);
    incprof_par::set_threads(stream::ANALYSIS_THREADS);
    let mut passes = Vec::new();
    for (i, (topology, traced)) in [
        (Topology::Direct, false),
        (Topology::Direct, true),
        (Topology::Routed, false),
        (Topology::Routed, true),
    ]
    .into_iter()
    .enumerate()
    {
        let store = stream::fresh_dir(scratch, &format!("layer-store-{i}"));
        match stream_pass(topology, &inputs, &store, seconds, traced) {
            Ok(p) => passes.push((store, p)),
            Err(e) => {
                out.check(format!("stream pass {i} starts: {e}"), false);
                out.failed += 1;
                return;
            }
        }
    }
    let [(live_store, live), (_, live_traced), (_, routed), (_, routed_traced)] =
        <[(std::path::PathBuf, Pass); 4]>::try_from(passes)
            .ok()
            .expect("four passes");

    for (name, p) in [("live", &live), ("routed", &routed)] {
        let bad = check_offline_equivalence(&inputs, &p.res);
        out.failed += bad;
        out.check(
            format!("{name}: final served report == offline detect_series"),
            bad == 0,
        );
    }
    let same = live.res.digests() == routed.res.digests();
    out.check("routed replies == live replies", same);
    out.check(
        "traced replies == untraced replies",
        live.res.digests() == live_traced.res.digests()
            && routed.res.digests() == routed_traced.res.digests(),
    );

    stream_e2e_metrics(out, "live", &live);
    stream_e2e_metrics(out, "routed", &routed);
    out.attempted += (live_traced.res.timings.len() + routed_traced.res.timings.len()) as u64;
    out.failed += live_traced.res.failures + routed_traced.res.failures;

    // Store: the daemon's logs after the untraced live pass, then the
    // restart tail over the same store.
    let mut replay_ms = Vec::new();
    let mut log_bytes = 0u64;
    for sid in live.res.sessions.iter().map(|s| s.id) {
        let path = live_store.join(sid.to_string()).join("log.iprf");
        let t = now_ns();
        match SnapshotLog::open(&path, sid) {
            Ok((log, _)) => {
                replay_ms.push(secs_since(t) * 1e3);
                log_bytes += log.total_bytes();
            }
            Err(_) => out.check(format!("session {sid} log reopens"), false),
        }
    }
    out.metric("store.replay_ms", mean(&replay_ms), "ms");
    out.metric("store.log_bytes", log_bytes as f64, "bytes");
    let (rehydrate, bad) = restart_tail(&live_store, &live.res);
    out.attempted += rehydrate.len() as u64;
    out.failed += bad;
    out.check("reply after restart == reply before", bad == 0);
    out.metric("e2e.rehydrate_ms_p50", median(&rehydrate), "ms");

    // Serve and shard, from the untraced passes.
    let (before, after) = &live.ingest;
    out.metric(
        "serve.ingest_latency_ms_p50",
        bucket_quantile(before, after, 0.5) / 1e6,
        "ms",
    );
    out.metric(
        "serve.ingest_latency_ms_p99",
        bucket_quantile(before, after, 0.99) / 1e6,
        "ms",
    );
    out.metric(
        "serve.busy_replies",
        (live.busy + routed.busy) as f64,
        "count",
    );
    out.metric(
        "serve.client_retries",
        (live.res.client_retries + routed.res.client_retries) as f64,
        "count",
    );
    let lookups = live.cache_hits + live.cache_misses;
    out.metric(
        "core.cache_hit_ratio",
        live.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.metric("core.cache_lookups", lookups as f64, "count");
    out.metric(
        "shard.hop_ms_p50",
        median(&ack_ms(&routed)) - median(&ack_ms(&live)),
        "ms",
    );
    for (b, frames) in routed.routed.iter().enumerate() {
        out.metric(format!("shard.frames_routed.b{b}"), *frames as f64, "count");
    }
    let lag: Vec<f64> = live.res.timings.iter().map(|t| t.lag_ms).collect();
    out.metric("bench.generator_lag_ms_p99", tail(&lag).0, "ms");
    let request_self: Vec<f64> = {
        let s = live_traced.res.tracer.spans();
        let own = trace::self_times(s);
        s.iter()
            .zip(own)
            .filter(|(sp, _)| sp.name == names::REQUEST)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    };
    out.metric(
        "bench.request_self_us_p50",
        median_or_nan(&request_self),
        "us",
    );
    out.metric(
        "obs.trace_overhead_ratio.live-stream",
        median(&report_ms(&live_traced)) / median(&report_ms(&live)),
        "ratio",
    );
    out.metric(
        "obs.trace_overhead_ratio.routed-stream",
        median(&report_ms(&routed_traced)) / median(&report_ms(&routed)),
        "ratio",
    );

    session_probes(out, spans, &inputs, &live.res, scratch);
    incprof_par::set_threads(0);
    spans.absorb(live_traced.res.tracer);
    spans.absorb(routed_traced.res.tracer);
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn median_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        median(xs)
    }
}

/// Mean microseconds per call of `f` over `items`.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = now_ns();
    for x in items {
        f(x);
    }
    secs_since(t) * 1e6 / items.len().max(1) as f64
}

/// Probes over the sessions the live pass served: the analysis cache
/// replayed over each prefix (every reply checked against the served
/// ones), checkpoints, the online detector, the codec, and log appends.
fn session_probes(
    out: &mut Outcome,
    spans: &mut Tracer,
    inputs: &[SessionInput],
    res: &StreamResult,
    scratch: &Path,
) {
    let det = PhaseDetector::default();
    let mut tr = Tracer::new(true);
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut digest_bad = 0;
    let mut request = 1u64 << 40;
    for (i, session) in res.sessions.iter().enumerate() {
        let snapshots = inputs[session.input].run.series.snapshots();
        let mut cache = AnalysisCache::new();
        let mut series = SampleSeries::new();
        let mut digest = stream::FNV_SEED;
        for snap in &snapshots[..session.pushed] {
            series.push(snap.clone());
            request += 1;
            let json = tr
                .span(names::CACHE_ANALYZE, request, || {
                    cache.analyze(&det, &series)
                })
                .ok()
                .and_then(|a| serde_json::to_string(&a).ok())
                .unwrap_or_default();
            digest = stream::fnv(digest, json.as_bytes());
        }
        digest_bad += u64::from(digest != session.digest);
        let t = now_ns();
        let blob = cache.encode_state();
        encode_us.push(secs_since(t) * 1e6);
        let t = now_ns();
        let back = AnalysisCache::decode_state(&blob);
        decode_us.push(secs_since(t) * 1e6);
        if back.is_none() {
            out.check(format!("session {i} checkpoint decodes"), false);
        }
    }
    let analyze_ms: Vec<f64> = trace::durations(tr.spans(), names::CACHE_ANALYZE)
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    out.failed += digest_bad;
    out.check(
        "every served reply == analysis cache replay",
        digest_bad == 0,
    );
    out.metric(
        "core.cache_analyze_ms_p50",
        median_or_nan(&analyze_ms),
        "ms",
    );
    let (p99, q) = tail(&analyze_ms);
    out.metric("core.cache_analyze_ms_p99", p99, "ms");
    out.detail("core_cache_analyze_tail_q", num(q));
    out.metric("core.checkpoint_encode_us", mean(&encode_us), "us");
    out.metric("core.checkpoint_decode_us", mean(&decode_us), "us");
    spans.absorb(tr);

    // Online detector over each session's interval profiles.
    let intervals: Vec<_> = inputs
        .iter()
        .filter_map(|s| s.run.series.interval_profiles().ok())
        .collect();
    let calls: usize = intervals.iter().map(Vec::len).sum();
    let t = now_ns();
    for profiles in &intervals {
        let mut online = OnlinePhaseDetector::new(OnlineConfig::default());
        for p in profiles {
            black_box(online.observe(p));
        }
    }
    out.metric(
        "core.online_observe_us",
        secs_since(t) * 1e6 / calls.max(1) as f64,
        "us",
    );

    // Codec and log appends over the pushed snapshots.
    let gmon: Vec<&GmonData> = inputs.iter().flat_map(|s| s.gmon.iter()).collect();
    let encoded: Vec<Vec<u8>> = gmon.iter().map(|g| g.encode().to_vec()).collect();
    out.metric(
        "profile.gmon_encode_us",
        per_call_us(&gmon, |g| {
            black_box(g.encode());
        }),
        "us",
    );
    out.metric(
        "profile.gmon_decode_us",
        per_call_us(&encoded, |b| {
            black_box(GmonData::decode(b).ok());
        }),
        "us",
    );
    let dir = stream::fresh_dir(scratch, "append-probe");
    let mut append_us = Vec::new();
    if std::fs::create_dir_all(&dir).is_ok() {
        for (i, s) in inputs.iter().enumerate() {
            let Ok(mut log) = SnapshotLog::create(&dir.join(format!("{i}.iprf")), i as u64 + 1)
            else {
                continue;
            };
            let payloads: Vec<(u64, Vec<u8>)> = s
                .gmon
                .iter()
                .map(|g| (g.sample_index, g.encode().to_vec()))
                .collect();
            append_us.push(per_call_us(&payloads, |(idx, p)| {
                black_box(log.append(*idx, p).ok());
            }));
        }
    }
    out.metric("store.append_us", mean(&append_us), "us");
}

fn profiled_layers(out: &mut Outcome, spans: &mut Tracer, seed: u64, budget: f64) {
    let cfg = profiled::config(seed);
    profiled::run_once(&cfg, false);
    let ticks0 = counter(obs_names::COLLECT_TICKS_MISSED);
    let plain = profiled::pairs(&cfg, budget, 3, &mut Tracer::new(false));
    let mut tr = Tracer::new(true);
    let traced = profiled::pairs(&cfg, 0.0, plain.len(), &mut tr);
    let ticks = counter(obs_names::COLLECT_TICKS_MISSED) - ticks0;
    let prof: Vec<f64> = plain.iter().map(|(_, p)| p.wall_s).collect();
    let bare: Vec<f64> = plain.iter().map(|(b, _)| b.wall_s).collect();
    let ratios: Vec<f64> = plain.iter().map(|(b, p)| p.wall_s / b.wall_s).collect();
    let calls = plain[0].1.calls;
    let all = plain.iter().chain(&traced);
    let differing = all.filter(|(_, p)| p.calls != calls).count() as u64;
    out.attempted += 2 * (plain.len() + traced.len()) as u64;
    out.failed += differing;
    out.check(
        "runtime.calls identical across profiled runs",
        differing == 0,
    );
    let samples: Vec<f64> = plain.iter().map(|(_, p)| p.samples as f64).collect();
    out.metric("runtime.calls", calls as f64, "count");
    out.metric(
        "runtime.overhead_ns_per_call",
        (median(&prof) - median(&bare)) * 1e9 / calls.max(1) as f64,
        "ns",
    );
    out.metric("collect.samples", median(&samples), "count");
    out.metric("collect.ticks_missed", ticks as f64, "count");
    out.metric("e2e.profiled_run_s", median(&prof), "s");
    out.metric("e2e.overhead_ratio", median(&ratios), "ratio");
    let traced_prof: Vec<f64> = traced.iter().map(|(_, p)| p.wall_s).collect();
    out.metric(
        "obs.trace_overhead_ratio.profiled-run",
        median(&traced_prof) / median(&prof),
        "ratio",
    );
    spans.absorb(tr);
}

/// Median over `rounds` of the mean nanoseconds per iteration of `f`.
fn ns_per_iter(rounds: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::new();
    for _ in 0..rounds {
        let t = now_ns();
        for _ in 0..iters {
            f();
        }
        per.push((now_ns() - t) as f64 / iters as f64);
    }
    median(&per)
}

fn runtime_probes(out: &mut Outcome) {
    let rt = ProfilerRuntime::new();
    let a = rt.register_function("probe_outer");
    let b = rt.register_function("probe_inner");
    out.metric(
        "runtime.guard_pair_ns",
        ns_per_iter(7, 200_000, || drop(black_box(rt.enter(a)))),
        "ns",
    );
    {
        let _outer = rt.enter(a);
        out.metric(
            "runtime.guard_pair_nested_ns",
            ns_per_iter(7, 200_000, || drop(black_box(rt.enter(b)))),
            "ns",
        );
    }
    out.metric(
        "runtime.instant_now_ns",
        ns_per_iter(7, 200_000, || {
            // lint: allow(D01, this probe times Instant::now itself)
            black_box(std::time::Instant::now());
            // lint: allow(D01, this probe times Instant::now itself)
            black_box(std::time::Instant::now());
        }),
        "ns",
    );
    let off = ProfilerRuntime::new();
    off.set_enabled(false);
    let c = off.register_function("probe_disabled");
    out.metric(
        "runtime.guard_disabled_ns",
        ns_per_iter(7, 200_000, || drop(black_box(off.enter(c)))),
        "ns",
    );
    for functions in [64usize, 1024] {
        let rt = ProfilerRuntime::new();
        let ids: Vec<_> = (0..functions)
            .map(|i| rt.register_function(format!("probe_{i}")))
            .collect();
        for &id in &ids {
            drop(rt.enter(id));
        }
        let mut idx = 0u64;
        let us = ns_per_iter(7, 50, || {
            idx += 1;
            black_box(rt.snapshot(idx));
        }) / 1e3;
        out.metric(format!("runtime.snapshot_us.f{functions}"), us, "us");
    }
}

/// Nanoseconds per `Ring::route` call over two backends.
fn route_ns() -> f64 {
    let ring = Ring::new(2);
    let mut sid = 0u64;
    ns_per_iter(7, 200_000, || {
        sid += 1;
        black_box(ring.route(black_box(sid), |_| true));
    })
}
