//! Parallel speedup of the k sweep — the `incprof-par` gate.
//!
//! Runs the paper's k = 1..8 k-means sweep (elbow configuration) as the
//! cold fold that `PhaseDetector::detect` runs
//! (`SweepChains::new().evaluate`) over a synthetic interval matrix at
//! several worker counts, verifies that the chosen k and the cluster
//! assignments are identical at every count (the pool's determinism
//! contract), and reports the speedup of each count over the 1-thread
//! baseline. The measurements are recorded as `par.speedup.*` gauges and
//! written, together with the pool's scheduling counters, to an
//! `incprof-obs` run report (`experiments_out/speedup_report.json`, or
//! the `INCPROF_METRICS` path).
//!
//! On hardware with ≥ 4 cores the 4-thread sweep must reach ≥ 2×, and
//! the binary exits nonzero if it does not; on narrower machines (CI
//! containers) the gate is reported but not enforced — parallel speedup
//! cannot exist without parallel hardware.
//!
//! ```text
//! cargo run --release -p incprof-bench --bin speedup
//! ```

use incprof_cluster::{
    ChainConfig, Dataset, KMeansConfig, KSelection, KSelectionMethod, SweepChains,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Synthetic interval matrix: `n` intervals over `d` functions in 4
/// planted phases (the shape of a long profiled run).
fn dataset(n: usize, d: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(7);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let phase = (i * 4) / n;
            (0..d)
                .map(|j| {
                    if j % 4 == phase {
                        1.0 + rng.gen::<f64>() * 0.05
                    } else {
                        rng.gen::<f64>() * 0.01
                    }
                })
                .collect()
        })
        .collect();
    Dataset::from_rows(rows)
}

/// Best-of-`reps` sweep time at the given worker count, plus the last
/// selection for the determinism check.
fn measure(data: &Dataset, workers: usize, reps: usize) -> (f64, KSelection) {
    incprof_par::set_threads(workers);
    let mut best = f64::INFINITY;
    let mut last = None;
    let cfg = ChainConfig::new(KMeansConfig::new(0));
    for _ in 0..reps {
        let start = Instant::now();
        let sel = black_box(SweepChains::new().evaluate(
            data,
            8,
            KSelectionMethod::Elbow,
            &cfg,
            None,
            false,
        ));
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(sel);
    }
    (best, last.expect("reps >= 1"))
}

fn main() {
    let data = dataset(360, 48);
    let reps = 5;
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("k-sweep speedup bench: n=360 d=48 k=1..8 cold fold, best of {reps}, {hw} hw cores\n");

    let (t1, base) = measure(&data, 1, reps);
    println!(
        "  threads=1  {:>9.1} ms  (baseline, k={})",
        t1 * 1e3,
        base.k
    );
    incprof_obs::gauge("par.speedup.baseline_us").set((t1 * 1e6) as u64);

    let mut gate_speedup = None;
    for workers in [2usize, 4, 8] {
        let (t, sel) = measure(&data, workers, reps);
        assert_eq!(sel.k, base.k, "chosen k changed at {workers} threads");
        assert_eq!(
            sel.result.assignments, base.result.assignments,
            "cluster assignments changed at {workers} threads"
        );
        let speedup = t1 / t;
        println!(
            "  threads={workers}  {:>9.1} ms  {speedup:>5.2}x  (identical assignments)",
            t * 1e3
        );
        incprof_obs::gauge(&format!("par.speedup.t{workers}_us")).set((t * 1e6) as u64);
        incprof_obs::gauge(&format!("par.speedup.x1000.t{workers}")).set((speedup * 1e3) as u64);
        if workers == 4 {
            gate_speedup = Some(speedup);
        }
    }
    incprof_par::set_threads(0);

    let out = std::env::var("INCPROF_METRICS")
        .unwrap_or_else(|_| "experiments_out/speedup_report.json".into());
    let path = std::path::PathBuf::from(out);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    incprof_obs::report()
        .write(&path)
        .expect("write speedup run report");
    println!(
        "\nrun report (speedup gauges + par.pool.* counters): {}",
        path.display()
    );

    let speedup4 = gate_speedup.expect("4-thread measurement ran");
    if hw >= 4 {
        assert!(
            speedup4 >= 2.0,
            "k sweep reached only {speedup4:.2}x at 4 threads (gate: >= 2x)"
        );
        println!("gate: {speedup4:.2}x >= 2x at 4 threads — PASS");
    } else {
        println!(
            "gate: {speedup4:.2}x at 4 threads not enforced ({hw} hw cores < 4; \
             parallel speedup needs parallel hardware)"
        );
    }
}
