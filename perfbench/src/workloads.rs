//! End-to-end runs, untraced. Every workload reports the same
//! end-to-end metrics, each defined for what the workload does:
//!
//! * `setup_s`: median CPU time of three set-ups (input generation, plus
//!   daemon bind and start);
//! * `peak_rss_mb`: the process's VmHWM;
//! * `cpu_ms_per_op`: process CPU time (every thread, client and daemon
//!   alike) per operation: a cold analysis of the whole batch, or a push
//!   and the analysis query after it.
//!
//! Times are CPU times because on a shared virtual machine the host
//! steals whole milliseconds from the vCPUs under load, which CPU time
//! leaves out and wall time does not. Wall-clock figures, among them `op_ms_p50` (the
//! batch time, or push→report latency from when the push was due), are
//! in the details.

use crate::inputs::Run;
use crate::offline::{self, Answer};
use crate::record::{cpu_ms, peak_rss_mb};
use crate::spec::Workload;
use crate::stats::{highest_supported, median, percentile};
use crate::stream::{self, Cluster, Topology};
use crate::trace::{now_ns, secs_since};
use crate::{num, num_list, Outcome};
use incprof_core::PhaseDetector;
use incprof_serve::Client;
use std::path::Path;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Lowest acceptable mean ARI of the planted analyses.
const ARI_FLOOR: f64 = 0.6;

pub fn run(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> Outcome {
    match w {
        Workload::OfflineDetect => offline_detect(seed, seconds),
        Workload::LiveStream => live_stream(seed, seconds, scratch),
    }
}

/// CPU and wall seconds of each set-up.
struct Setups {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
}

/// Run `SETUPS` set-ups, timing each; keep the last one's product.
fn timed_setups<T>(mut f: impl FnMut(usize) -> T) -> (Setups, T) {
    let mut times = Setups {
        cpu_s: Vec::new(),
        wall_s: Vec::new(),
    };
    let mut last = None;
    for i in 0..SETUPS {
        drop(last.take());
        let cpu0 = cpu_ms();
        let t = now_ns();
        let v = f(i);
        times.wall_s.push(secs_since(t));
        times.cpu_s.push((cpu_ms() - cpu0) / 1e3);
        last = Some(v);
    }
    (times, last.expect("at least one set-up"))
}

fn common_metrics(out: &mut Outcome, setups: &Setups, cpu_ms_per_op: f64) {
    out.metric("setup_s", median(&setups.cpu_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("cpu_ms_per_op", cpu_ms_per_op, "ms");
    out.detail("setup_cpu_s_samples", num_list(&setups.cpu_s));
    out.detail("setup_wall_s_samples", num_list(&setups.wall_s));
}

/// Compare two passes' answers; returns how many differ or failed.
pub fn mismatches(a: &[Answer], b: &[Answer]) -> u64 {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.is_err() || y.is_err() || x != y)
        .count() as u64
}

fn batch_sizes(runs: &[Run]) -> String {
    let items: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"intervals\":{},\"functions\":{}}}",
                r.name,
                r.series.len(),
                r.functions()
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn offline_detect(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setups, runs) = timed_setups(|_| offline::setup(seed));
    let det = PhaseDetector::default();
    let mut passes: Vec<f64> = Vec::new();
    let mut first: Option<Vec<Answer>> = None;
    let mut repeat_bad = 0;
    let cpu0 = cpu_ms();
    let start = now_ns();
    while passes.len() < 2 || secs_since(start) < seconds {
        let (answers, secs) = offline::pass(&det, &runs);
        passes.push(secs);
        out.attempted += runs.len() as u64;
        out.failed += answers.iter().filter(|a| a.is_err()).count() as u64;
        match &first {
            None => first = Some(answers),
            Some(f) => repeat_bad += mismatches(f, &answers),
        }
    }
    out.failed += repeat_bad;
    out.check("repeated passes agree", repeat_bad == 0);
    let cpu = cpu_ms() - cpu0;
    let first = first.expect("at least one pass");

    incprof_par::set_threads(1);
    let (one, one_s) = offline::pass(&det, &runs);
    incprof_par::set_threads(0);
    out.attempted += runs.len() as u64;
    let bad = mismatches(&first, &one);
    out.failed += bad;
    out.check("1 worker == default workers", bad == 0);

    let ari = offline::mean_ari(&runs, &first);
    out.check(
        "planted ARI above floor",
        ari.is_some_and(|a| a >= ARI_FLOOR),
    );

    common_metrics(&mut out, &setups, cpu / passes.len() as f64);
    out.detail("op_ms_p50", num(median(&passes) * 1e3));
    out.detail("detect_batch_s_samples", num_list(&passes));
    out.detail("detect_batch_1w_s", num(one_s));
    out.detail("detect_ari", num(ari.unwrap_or(f64::NAN)));
    out.detail("default_workers", incprof_par::threads().to_string());
    out.detail("batch", batch_sizes(&runs));
    out
}

/// Percentile summary `{p50, tail, q, samples}` as JSON.
pub fn latency_json(xs: &[f64]) -> String {
    if xs.is_empty() {
        return "null".into();
    }
    let tail = highest_supported(xs, 0.99);
    format!(
        "{{\"p50\":{},\"p99\":{},\"tail\":{},\"tail_q\":{},\"samples\":{}}}",
        num(median(xs)),
        percentile(xs, 0.99).map_or("null".into(), |p| num(p.value)),
        tail.map_or("null".into(), |p| num(p.value)),
        tail.map_or("null".into(), |p| num(p.q)),
        xs.len()
    )
}

/// After a stream: every session's final served report equals offline
/// `detect_series` over the snapshots it was sent. Returns mismatches.
pub fn check_offline_equivalence(
    inputs: &[stream::SessionInput],
    res: &stream::StreamResult,
) -> u64 {
    let det = PhaseDetector::default();
    let mut bad = 0;
    for s in &res.sessions {
        let ok = s.pushed > 0
            && s.last.as_ref().is_some_and(|served| {
                det.detect_series(&stream::prefix(&inputs[s.input].run.series, s.pushed))
                    .ok()
                    .and_then(|a| serde_json::to_string(&a).ok())
                    .is_some_and(|offline| offline == *served)
            });
        bad += u64::from(!ok);
    }
    bad
}

/// Restart tail: a fresh daemon over the same store answers one query
/// per session. Returns the latencies (ms, infinite on failure) and the
/// number of replies that differ from the pre-restart ones.
pub fn restart_tail(store: &Path, res: &stream::StreamResult) -> (Vec<f64>, u64) {
    let n = res.sessions.len();
    let Ok(server) = stream::start_server(store) else {
        return (vec![f64::INFINITY; n], n as u64);
    };
    let mut lat = Vec::new();
    let mut bad = 0;
    match Client::connect(server.addr()) {
        Ok(mut client) => {
            for s in &res.sessions {
                let t = now_ns();
                let reply = client.query_analysis(s.id);
                let ms = secs_since(t) * 1e3;
                match reply {
                    Ok(r) if Some(&r) == s.last.as_ref() => lat.push(ms),
                    Ok(_) => {
                        lat.push(ms);
                        bad += 1;
                    }
                    Err(_) => {
                        lat.push(f64::INFINITY);
                        bad += 1;
                    }
                }
            }
        }
        Err(_) => bad = n as u64,
    }
    server.shutdown();
    (lat, bad)
}

fn live_stream(seed: u64, seconds: f64, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    incprof_par::set_threads(stream::ANALYSIS_THREADS);
    let (setups, made) = timed_setups(|i| {
        let inputs = stream::setup_inputs(seed);
        let store = stream::fresh_dir(scratch, &format!("store-{i}"));
        let cluster = Cluster::start(Topology::Direct, &store);
        (inputs, store, cluster)
    });
    let (inputs, store, cluster) = made;
    let cluster = match cluster {
        Ok(c) => c,
        Err(e) => {
            out.check(format!("daemon starts: {e}"), false);
            out.failed = 1;
            return out;
        }
    };
    let busy0 = incprof_obs::counter(incprof_obs::names::SERVE_BUSY_REPLIES).get();
    let res = stream::run_stream(&cluster.addr, &inputs, seconds, false);
    let busy = incprof_obs::counter(incprof_obs::names::SERVE_BUSY_REPLIES).get() - busy0;
    cluster.shutdown();

    out.attempted = res.timings.len() as u64;
    out.failed = res.failures;
    let offline_bad = check_offline_equivalence(&inputs, &res);
    out.failed += offline_bad;
    out.check(
        "final served report == offline detect_series",
        offline_bad == 0,
    );
    let lag: Vec<f64> = res.timings.iter().map(|t| t.lag_ms).collect();
    let lag_tail = highest_supported(&lag, 0.99).map_or(f64::INFINITY, |p| p.value);
    out.check(
        "generator lag tail below the latency limit",
        lag_tail < stream::LATENCY_LIMIT_MS,
    );
    let (rehydrate, bad) = restart_tail(&store, &res);
    out.attempted += rehydrate.len() as u64;
    out.failed += bad;
    out.check("reply after restart == reply before", bad == 0);
    out.detail("rehydrate_ms", latency_json(&rehydrate));

    let report: Vec<f64> = res.timings.iter().map(|t| t.report_ms).collect();
    let ack: Vec<f64> = res.timings.iter().map(|t| t.ack_ms).collect();
    common_metrics(
        &mut out,
        &setups,
        res.cpu_ms / res.timings.len().max(1) as f64,
    );
    out.detail("op_ms_p50", num(median(&report)));
    out.detail("push_ack_ms", latency_json(&ack));
    out.detail("push_report_ms", latency_json(&report));
    out.detail("generator_lag_ms", latency_json(&lag));
    out.detail("busy_replies", busy.to_string());
    out.detail("client_retries", res.client_retries.to_string());
    out.detail("stream_wall_s", num(res.wall_s));
    out.detail("sessions", res.sessions.len().to_string());
    let digests: Vec<String> = res
        .sessions
        .iter()
        .map(|s| format!("\"{:016x}\"", s.digest))
        .collect();
    out.detail("reply_digests", format!("[{}]", digests.join(",")));
    out
}
