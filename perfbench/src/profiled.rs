//! The profiled-run scenario of the layer profile: wall-clock Graph500
//! at its `run_wall` size, as interleaved pairs with IncProf off and on.

use crate::trace::{names, now_ns, secs_since, Tracer};
use hpc_apps::{graph500, HeartbeatPlan, RunMode};

/// Collector interval. Scaled down with the run length: a profiled run
/// takes about half a second, so it yields dozens of snapshots, as the
/// paper's minutes-long runs did at one per second.
pub const INTERVAL_NS: u64 = 10_000_000;

/// Graph500 at the size `App::run_wall` uses, seeded.
pub fn config(seed: u64) -> graph500::Graph500Config {
    graph500::Graph500Config {
        scale: 15,
        edge_factor: 16,
        num_roots: 24,
        seed,
        procs: 1,
    }
}

/// One run's measurements.
#[derive(Debug, Clone, Copy)]
pub struct RunCost {
    pub wall_s: f64,
    /// Completed calls in the final profile (0 when not profiled).
    pub calls: u64,
    /// Snapshots the collector took.
    pub samples: usize,
}

/// Run Graph500 once with IncProf `profile`d or not.
pub fn run_once(cfg: &graph500::Graph500Config, profile: bool) -> RunCost {
    let mode = RunMode::Wall {
        interval_ns: INTERVAL_NS,
        profile,
    };
    let t = now_ns();
    let out = graph500::run(cfg, mode, &HeartbeatPlan::none());
    let wall_s = secs_since(t);
    let series = &out.rank0.series;
    RunCost {
        wall_s,
        calls: series.last().map_or(0, |s| s.flat.total_calls()),
        samples: series.len(),
    }
}

/// Interleaved (bare, profiled) pairs until `budget_s` has passed, at
/// least `min_pairs`; the order alternates pair to pair. Each run is
/// one traced request.
pub fn pairs(
    cfg: &graph500::Graph500Config,
    budget_s: f64,
    min_pairs: usize,
    tr: &mut Tracer,
) -> Vec<(RunCost, RunCost)> {
    let start = now_ns();
    let mut out = Vec::new();
    let mut request = 0u64;
    let mut run = |profile: bool, tr: &mut Tracer| {
        request += 1;
        let name = if profile {
            names::PROFILED_RUN
        } else {
            names::BARE_RUN
        };
        tr.span(name, request, || run_once(cfg, profile))
    };
    while out.len() < min_pairs || secs_since(start) < budget_s {
        if out.len() % 2 == 1 {
            let prof = run(true, tr);
            out.push((run(false, tr), prof));
        } else {
            let bare = run(false, tr);
            out.push((bare, run(true, tr)));
        }
    }
    out
}
