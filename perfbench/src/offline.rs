//! `offline-detect`: cold `PhaseDetector::detect_series`, one analysis
//! at a time, over a fixed batch of the five paper applications and
//! planted synthetic runs.

use crate::inputs::{paper_apps, planted_run, Run, SYNTH_SIZES};
use crate::trace::{names, now_ns, secs_since, Tracer};
use incprof_cluster::distance::euclidean;
use incprof_cluster::{adjusted_rand_index, ChainConfig, Dataset, KMeansConfig, SweepChains};
use incprof_collect::IntervalMatrix;
use incprof_core::algorithm1::{identify_instrumentation, Algorithm1Config, ClusterIntervals};
use incprof_core::{ClusteringMethod, PhaseAnalysis, PhaseDetector};

/// The batch: paper apps first, then the planted runs by size.
pub fn setup(seed: u64) -> Vec<Run> {
    let mut runs = paper_apps(seed);
    runs.extend(SYNTH_SIZES.iter().map(|&n| planted_run(n, seed)));
    runs
}

/// One analysis's serialized result, or the error it failed with.
pub type Answer = Result<String, String>;

fn to_json(a: &PhaseAnalysis) -> Answer {
    serde_json::to_string(a).map_err(|e| e.to_string())
}

/// Cold-analyse every run once through the public entry point.
/// Returns the answers and the pass's wall seconds.
pub fn pass(det: &PhaseDetector, runs: &[Run]) -> (Vec<Answer>, f64) {
    let t = now_ns();
    let answers = runs
        .iter()
        .map(|r| {
            det.detect_series(&r.series)
                .map_err(|e| e.to_string())
                .and_then(|a| to_json(&a))
        })
        .collect();
    (answers, secs_since(t))
}

/// The same cold analysis composed from each layer's public functions,
/// with a span around every call. `request` numbers the analyses.
pub fn traced_analysis(
    det: &PhaseDetector,
    run: &Run,
    tr: &mut Tracer,
    request: u64,
) -> Result<PhaseAnalysis, String> {
    let ClusteringMethod::KMeans { k_max, selection } = det.clustering else {
        return Err("the traced pipeline covers k-means detectors only".into());
    };
    tr.begin(names::DETECT_SERIES, request);
    let intervals = tr.span(names::DELTA, request, || run.series.interval_profiles());
    let intervals = intervals.map_err(|e| e.to_string())?;
    let matrix = tr.span(names::MATRIX, request, || {
        IntervalMatrix::from_interval_profiles(&intervals)
    });
    let raw = tr.span(names::FEATURES, request, || {
        Dataset::from_rows(matrix.feature_rows())
    });
    let data = tr.span(names::SCALE, request, || det.scaling.apply(&raw));
    let cfg = ChainConfig {
        base: KMeansConfig {
            restarts: det.restarts,
            ..KMeansConfig::new(1).with_seed(det.seed)
        },
        review_every: det.review_every,
        review_candidates: det.review_candidates,
    };
    let sel = tr.span(names::FOLD, request, || {
        SweepChains::new().evaluate(&data, k_max, selection, &cfg, None, det.sweep_early_exit)
    });
    let phases = tr.span(names::ALGORITHM1, request, || {
        let assignments = &sel.result.assignments;
        let k = assignments.iter().copied().max().unwrap_or(0) + 1;
        let clusters: Vec<ClusterIntervals> = (0..k)
            .map(|c| {
                let intervals: Vec<usize> = (0..assignments.len())
                    .filter(|&i| assignments[i] == c)
                    .collect();
                let centroid_dist = intervals
                    .iter()
                    .map(|&i| euclidean(data.row(i), sel.result.centroids.row(c)))
                    .collect();
                ClusterIntervals {
                    intervals,
                    centroid_dist,
                }
            })
            .collect();
        identify_instrumentation(
            &matrix,
            &clusters,
            Algorithm1Config {
                coverage_threshold: det.coverage_threshold,
            },
        )
    });
    tr.end();
    Ok(PhaseAnalysis {
        k: phases.len(),
        assignments: sel.result.assignments.clone(),
        phases,
        wcss_sweep: sel.sweep.wcss.clone(),
        silhouette_sweep: sel.sweep.silhouettes.clone(),
    })
}

/// Mean adjusted Rand index of the planted runs' analyses against their
/// truth (the trailing partial interval has no planted label).
pub fn mean_ari(runs: &[Run], answers: &[Answer]) -> Option<f64> {
    let mut aris = Vec::new();
    for (run, answer) in runs.iter().zip(answers) {
        let (Some(truth), Ok(json)) = (&run.truth, answer) else {
            continue;
        };
        let a: PhaseAnalysis = serde_json::from_str(json).ok()?;
        if a.assignments.len() < truth.len() {
            return None;
        }
        aris.push(adjusted_rand_index(truth, &a.assignments[..truth.len()]));
    }
    (!aris.is_empty()).then(|| aris.iter().sum::<f64>() / aris.len() as f64)
}
