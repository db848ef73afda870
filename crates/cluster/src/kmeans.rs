//! k-means clustering: k-means++ seeding + Lloyd's iterations.
//!
//! This is the clustering step of the IncProf pipeline (§V-A): "Interval
//! data is then clustered using the k-means clustering algorithm, and each
//! cluster is interpreted as a phase of execution."
//!
//! The implementation is deterministic given [`KMeansConfig::seed`], uses
//! several restarts and keeps the best (lowest-WCSS) run, and repairs empty
//! clusters by reseeding them on the point farthest from its centroid.
//!
//! Several cost controls keep the hot path cheap without moving a single
//! output bit:
//!
//! * **Hamerly-style pruning** ([`KMeansConfig::pruning`]): per-point
//!   triangle-inequality bounds skip the k distance evaluations whenever
//!   the assigned centroid is provably still the unique nearest; when
//!   they do not, one exact distance to the own centroid often proves it.
//!   Bounds are padded conservatively, so a bound error can only cause an
//!   extra exact recomputation — never a wrong (or even differently
//!   tie-broken) assignment.
//! * **Resumable state**: a run also returns the state it ended in —
//!   per-point bounds, per-cluster sums and counts accumulated in index
//!   order, per-point WCSS terms — and a fold step of
//!   [`crate::incremental`] resumes from it after appending one row,
//!   recomputing only what the new row can change (see the private
//!   `lloyd` for why each reuse is bit-identical). The state is a cost
//!   cache, never checkpointed: without it a step simply runs cold.
//! * **Seed distances**: k-means++ seeding computes every point's
//!   distance to every seed; the first assignment step reads them
//!   instead of computing them again.
//! * **Fixed-point detection**: a Lloyd iteration is a deterministic
//!   function of the `(assignments, centroids)` state, so an iteration
//!   that ends in exactly the state the previous one ended in will repeat
//!   it forever. Empty-cluster repair on duplicate-heavy data (more
//!   clusters than distinct points) used to oscillate at such a fixed
//!   point — the repair re-homed a point *after* the `changed` flag was
//!   computed, the next assignment step undid it, and every restart burned
//!   the full `max_iters` budget (the k=7/k=8 "~1650 iterations" burn in
//!   `serve_report.json`). Detecting the repeated state exits with the
//!   exact same final state, just without the burn.

use crate::dataset::Dataset;
use crate::distance::sq_euclidean;
use incprof_obs::{Counter, Histogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iters: usize,
    /// Number of independent seeded restarts; the best (lowest WCSS) wins.
    pub restarts: usize,
    /// RNG seed for the k-means++ initialization.
    pub seed: u64,
    /// Convergence tolerance on centroid movement (squared distance).
    pub tol: f64,
    /// Skip provably-unchanged assignments via Hamerly-style bounds.
    /// Output is bit-identical either way; `false` exists as the test
    /// oracle and for debugging.
    pub pruning: bool,
}

impl KMeansConfig {
    /// A reasonable default configuration for `k` clusters.
    pub fn new(k: usize) -> KMeansConfig {
        KMeansConfig {
            k,
            max_iters: 100,
            restarts: 8,
            seed: 0x1AC0_FFEE,
            tol: 1e-12,
            pruning: true,
        }
    }

    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> KMeansConfig {
        self.seed = seed;
        self
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index (0..k) for every input row.
    pub assignments: Vec<usize>,
    /// Final centroids, one row per cluster.
    pub centroids: Dataset,
    /// Within-cluster sum of squares (inertia) of the final assignment.
    pub wcss: f64,
    /// Lloyd iterations performed by the winning restart.
    pub iterations: usize,
    /// Lloyd iterations summed across every restart of the call (for a
    /// single warm run, equal to `iterations`). This is the compute-cost
    /// view the `cluster.kmeans.iterations_total.k*` counter tracks;
    /// `iterations` is the convergence view.
    pub total_iterations: u64,
}

impl KMeansResult {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.nrows()
    }

    /// Row indices belonging to cluster `c`, in ascending order.
    pub fn members_of(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Squared distance from row `i` of `data` to its assigned centroid.
    pub fn sq_dist_to_centroid(&self, data: &Dataset, i: usize) -> f64 {
        sq_euclidean(data.row(i), self.centroids.row(self.assignments[i]))
    }
}

/// Run k-means on `data`.
///
/// # Panics
/// Panics if `config.k == 0` or the dataset is empty, or `k > n`.
pub fn kmeans(data: &Dataset, config: &KMeansConfig) -> KMeansResult {
    kmeans_head(data, data.nrows(), config, &mut KMeansObs::new(config.k)).0
}

/// Best-of-restarts k-means over the first `n` rows of `data`, read in
/// place. Also returns the winning restart's [`LloydCarry`], so a fold
/// step can resume from it.
pub(crate) fn kmeans_head(
    data: &Dataset,
    n: usize,
    config: &KMeansConfig,
    obs: &mut KMeansObs,
) -> (KMeansResult, LloydCarry) {
    assert!(config.k >= 1, "k must be at least 1");
    assert!(n >= 1, "cannot cluster an empty dataset");
    assert!(
        config.k <= n,
        "k = {} exceeds number of points {n}",
        config.k
    );
    assert!(n <= data.nrows());

    let mut best: Option<(KMeansResult, LloydCarry)> = None;
    let mut total_iterations = 0u64;
    for r in 0..config.restarts.max(1) {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(r as u64));
        let (init, seed_dists) = kmeanspp_init(data, n, config.k, &mut rng);
        let run = lloyd(data, n, config, init, Start::Seeded(seed_dists), true, obs);
        total_iterations += run.0.iterations as u64;
        if best.as_ref().is_none_or(|(b, _)| run.0.wcss < b.wcss) {
            best = Some(run);
        }
    }
    // lint: allow(P01, restarts.max(1) above guarantees the loop body ran at least once)
    let (mut best, carry) = best.expect("at least one restart ran");
    best.total_iterations = total_iterations;
    // Two views of the same sweep: the winner's iteration count measures
    // convergence, the cross-restart total measures compute spent. The
    // old single counter conflated them (it added the total under the
    // winner's name).
    obs.iterations().add(best.iterations as u64);
    obs.iterations_total.add(total_iterations);
    (best, carry)
}

/// Run Lloyd's algorithm once, warm-started from `init` (no k-means++
/// seeding, no restarts): the cold form of one step of the incremental
/// fold in [`crate::incremental`]. From near-converged centroids Lloyd
/// typically settles in one or two iterations.
///
/// # Panics
/// Panics if `config.k == 0`, the dataset is empty, `k > n`, or `init`
/// is not a `k × d` centroid matrix for `data`.
pub fn kmeans_warm(data: &Dataset, config: &KMeansConfig, init: &Dataset) -> KMeansResult {
    let n = data.nrows();
    assert!(config.k >= 1, "k must be at least 1");
    assert!(n >= 1, "cannot cluster an empty dataset");
    assert!(
        config.k <= n,
        "k = {} exceeds number of points {n}",
        config.k
    );
    assert_eq!(
        init.nrows(),
        config.k,
        "warm start has {} centroids but k = {}",
        init.nrows(),
        config.k
    );
    assert_eq!(
        init.ncols(),
        data.ncols(),
        "warm start dimensionality {} does not match data {}",
        init.ncols(),
        data.ncols()
    );
    let obs = KMeansObs::new(config.k);
    let (result, _) = lloyd(data, n, config, init.clone(), Start::Cold, true, &obs);
    obs.iterations_total.add(result.iterations as u64);
    result
}

/// One warm fold step: Lloyd over the first `n` rows of `data`, from
/// where the previous step ended — `prev` (whose assignments it takes)
/// and the `carry` that run returned. The result is bit-identical to
/// [`kmeans_warm`] from `prev.centroids` on a copy of those rows; an
/// empty or ill-fitting carry simply makes it that cold run. With
/// `wcss` false the result's WCSS is left NaN and its terms stay in the
/// carry for a later step to bring up to date.
pub(crate) fn lloyd_resume(
    data: &Dataset,
    n: usize,
    config: &KMeansConfig,
    prev: &mut KMeansResult,
    carry: LloydCarry,
    wcss: bool,
    obs: &KMeansObs,
) -> (KMeansResult, LloydCarry) {
    let from = Start::Resume(std::mem::take(&mut prev.assignments), carry);
    let run = lloyd(data, n, config, prev.centroids.clone(), from, wcss, obs);
    obs.iterations_total.add(run.0.iterations as u64);
    run
}

/// The k-means metric handles for one `k`, looked up once per call
/// rather than once per Lloyd run (the per-k names are `format!`ed).
pub(crate) struct KMeansObs {
    k: usize,
    /// Only restart-based runs record the winner's count; created on
    /// first use so warm-only calls do not register it.
    iterations: Option<Arc<Counter>>,
    iterations_total: Arc<Counter>,
    pruned: Arc<Counter>,
    delta: Arc<Histogram>,
}

impl KMeansObs {
    pub(crate) fn new(k: usize) -> KMeansObs {
        KMeansObs {
            k,
            iterations: None,
            iterations_total: incprof_obs::counter(
                &incprof_obs::names::cluster_kmeans_iterations_total(k),
            ),
            pruned: incprof_obs::counter(incprof_obs::names::CLUSTER_KMEANS_PRUNED),
            delta: incprof_obs::histogram(incprof_obs::names::CLUSTER_KMEANS_CONVERGENCE_DELTA_E12),
        }
    }

    fn iterations(&mut self) -> &Counter {
        let k = self.k;
        self.iterations.get_or_insert_with(|| {
            incprof_obs::counter(&incprof_obs::names::cluster_kmeans_iterations(k))
        })
    }
}

/// The Lloyd state a run ends in beyond its [`KMeansResult`] — a cost
/// cache that lets the next fold step resume instead of starting over.
/// Every field is exactly what a cold run would recompute, or a
/// conservative bound on it, so resuming changes no output bit; see
/// [`lloyd`]. The carry covers the first `terms.len()` rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct LloydCarry {
    /// Hamerly bounds against the final centroids: `upper[i]` on the
    /// distance to point i's own centroid, `lower[i]` on every other.
    upper: Vec<f64>,
    lower: Vec<f64>,
    /// Per-cluster coordinate sums (`k × d`, row-major) and member
    /// counts, each accumulated in row-index order.
    sums: Vec<f64>,
    counts: Vec<usize>,
    /// Clusters whose sums no longer match the assignments (an
    /// empty-cluster repair re-homed a point after they were summed).
    stale: Vec<bool>,
    /// Per-point WCSS terms against the centroids in `terms_at`
    /// (`k × d`, row-major); NaN marks a point re-assigned since.
    terms: Vec<f64>,
    terms_at: Vec<f64>,
}

impl LloydCarry {
    /// The state of a cold start: no rows covered, zero sums.
    fn empty(k: usize, d: usize) -> LloydCarry {
        LloydCarry {
            sums: vec![0.0; k * d],
            counts: vec![0; k],
            stale: vec![false; k],
            ..LloydCarry::default()
        }
    }

    /// Whether this carry describes `rows` assigned rows of a `k × d`
    /// clustering (a dropped carry, or one from before a column remap,
    /// does not).
    fn fits(&self, rows: usize, k: usize, d: usize) -> bool {
        rows > 0
            && self.terms.len() == rows
            && self.upper.len() == rows
            && self.lower.len() == rows
            && self.counts.len() == k
            && self.sums.len() == k * d
            && self.terms_at.len() == k * d
    }
}

/// Below this many distance-term evaluations (points × k × d) in an
/// assignment step, fork/join overhead outweighs the split.
const PARALLEL_ASSIGN_WORK: usize = 200_000;

/// Where a [`lloyd`] run starts from, beside its centroids.
enum Start {
    /// All-zero assignments and unknown bounds.
    Cold,
    /// A cold start from k-means++ seeds, with the squared distance
    /// from every point to every seed (`n × k`, row-major) that seeding
    /// computed anyway: the first assignment step reads them instead of
    /// recomputing the same values.
    Seeded(Vec<f64>),
    /// Where a previous run over the first `m ≤ n` rows ended, at exactly
    /// these centroids: its `m` final assignments and its carry.
    Resume(Vec<usize>, LloydCarry),
}

/// Lloyd's algorithm over the first `n` rows of `data`, from `centroids`.
///
/// Resuming ([`Start::Resume`]) is bit-identical to the cold run from
/// all-zero assignments and unknown bounds:
///
/// * a carried point's argmin is skipped only while its bounds prove its
///   assignment is the unique nearest, which is what the cold argmin
///   would compute; iteration 1's `changed` is computed against zero
///   assignments, as the cold run does;
/// * a cluster's sum is reused only while its membership among the
///   summed rows is unchanged; appended rows have the highest indices,
///   so adding them last keeps the cold index-order summation;
/// * a WCSS term is reused only while its point's assignment and its
///   centroid's bits are unchanged, and the terms are summed in index
///   order as the cold run sums them.
///
/// With `wcss` false the WCSS is not formed (the result holds NaN) and
/// stale terms wait in the carry. With `pruning` off nothing is reused,
/// not even the seed distances: every distance, sum and term is
/// recomputed (the test oracle).
fn lloyd(
    data: &Dataset,
    n: usize,
    config: &KMeansConfig,
    mut centroids: Dataset,
    start: Start,
    wcss: bool,
    obs: &KMeansObs,
) -> (KMeansResult, LloydCarry) {
    let d = data.ncols();
    let k = config.k;

    let (mut assignments, carry, mut seeded) = match start {
        Start::Resume(a, carry) if config.pruning && a.len() <= n && carry.fits(a.len(), k, d) => {
            (a, carry, None)
        }
        Start::Seeded(dists) if config.pruning => {
            (Vec::new(), LloydCarry::empty(k, d), Some(dists))
        }
        _ => (Vec::new(), LloydCarry::empty(k, d), None),
    };
    let LloydCarry {
        mut upper,
        mut lower,
        mut sums,
        mut counts,
        mut stale,
        mut terms,
        mut terms_at,
    } = carry;
    // Rows [0, summed) are folded into `sums`/`counts`; the rest are new.
    let mut summed = assignments.len();
    // Points the next assignment step expects to scan in full: all of
    // them on a cold start, the appended rows on a resume.
    let mut active = n - summed;
    assignments.resize(n, 0);
    // Hamerly-style bounds, in plain (square-rooted) distance space:
    // `upper[i]` bounds the distance from point i to its assigned
    // centroid from above, `lower[i]` bounds the distance to every
    // *other* centroid from below. While strictly `upper[i] < lower[i]`,
    // the assigned centroid is provably the unique nearest, so the naive
    // argmin (strict `<`, lowest index on ties) would reproduce the same
    // assignment — skipping it is bit-identical. New rows start unknown
    // (∞ / 0), which never prunes. `travel` is how far the centroids
    // moved in the last update; it loosens the bounds via the triangle
    // inequality, applied point by point in the next pass over them.
    upper.resize(n, f64::INFINITY);
    lower.resize(n, 0.0);
    terms.resize(n, f64::NAN);

    let mut travel = Travel::none(k);
    let mut new_c = vec![0.0f64; d];
    let mut iterations = 0;
    let mut last_movement = 0.0f64;
    let mut pruned_points = 0u64;

    // End-of-iteration state of the previous iteration, for the
    // fixed-point break (see the module docs).
    let mut prev_assignments: Vec<usize> = Vec::new();
    let mut prev_centroid_bits: Vec<u64> = Vec::new();

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Assignment step. Each point's outcome is independent and
        // deterministic, so once the work left after pruning justifies
        // the fork/join it runs on the pool; inside the k sweep's per-k
        // tasks this call already runs on a pool worker, so the nested call
        // degrades to sequential.
        let step = AssignStep {
            data,
            centroids: &centroids,
            pruning: config.pruning,
            travel: &travel,
            seeded: seeded.as_deref(),
        };
        let parallel = active * k * d >= PARALLEL_ASSIGN_WORK;
        let settled: Option<Vec<Settle>> = parallel.then(|| {
            incprof_par::par_map_index(n, |i| step.settle(i, assignments[i], upper[i], lower[i]))
        });
        let mut changed = false;
        active = 0;
        for i in 0..n {
            let outcome = match &settled {
                Some(s) => s[i],
                None => step.settle(i, assignments[i], upper[i], lower[i]),
            };
            let c = match outcome {
                Settle::Pruned(up, lo) => {
                    pruned_points += 1;
                    upper[i] = up;
                    lower[i] = lo;
                    continue;
                }
                Settle::Confirmed(up, lo) => {
                    upper[i] = up;
                    lower[i] = lo;
                    continue;
                }
                Settle::Nearest(c, up, lo) => {
                    active += 1;
                    upper[i] = up;
                    lower[i] = lo;
                    c
                }
            };
            let old = assignments[i];
            if old != c {
                if i < summed {
                    stale[old] = true;
                    stale[c] = true;
                }
                assignments[i] = c;
                terms[i] = f64::NAN;
                changed = true;
            }
        }

        seeded = None;

        // Update step: re-sum only the clusters whose membership among
        // the summed rows changed, then append the new rows in order.
        if !config.pruning {
            stale.fill(true);
        }
        if stale.contains(&true) {
            for c in (0..k).filter(|&c| stale[c]) {
                sums[c * d..(c + 1) * d].fill(0.0);
                counts[c] = 0;
            }
            for i in 0..summed {
                let c = assignments[i];
                if stale[c] {
                    add_row(&mut sums[c * d..(c + 1) * d], data.row(i));
                    counts[c] += 1;
                }
            }
            stale.fill(false);
        }
        for i in summed..n {
            let c = assignments[i];
            add_row(&mut sums[c * d..(c + 1) * d], data.row(i));
            counts[c] += 1;
        }
        summed = n;
        if iter == 0 {
            // The cold run starts from all-zero assignments.
            changed = counts[0] != n;
        }

        let mut movement: f64 = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: reseed on the point farthest from its
                // current centroid (a standard repair strategy).
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = sq_euclidean(data.row(a), centroids.row(assignments[a]));
                        let db = sq_euclidean(data.row(b), centroids.row(assignments[b]));
                        da.total_cmp(&db)
                    })
                    // lint: allow(P01, lloyd is only reachable with a non-empty dataset so max_by has candidates)
                    .expect("n >= 1");
                let row = data.row(far);
                let m = sq_euclidean(row, centroids.row(c));
                movement += m;
                travel.moved[c] = pad_up(m.sqrt());
                centroids.row_mut(c).copy_from_slice(row);
                // The repair re-homed `far` outside the assignment step:
                // both clusters' sums are now stale, its WCSS term is
                // void, and its bounds describe the old assignment, so
                // force an exact recomputation next iteration.
                stale[assignments[far]] = true;
                stale[c] = true;
                assignments[far] = c;
                terms[far] = f64::NAN;
                upper[far] = f64::INFINITY;
                lower[far] = 0.0;
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            for (v, s) in new_c.iter_mut().zip(&sums[c * d..(c + 1) * d]) {
                *v = s * inv;
            }
            let m = sq_euclidean(&new_c, centroids.row(c));
            movement += m;
            // A centroid whose bits did not change has not moved at all:
            // the bounds stay exact and need no padding.
            travel.moved[c] = if bits_equal(&new_c, centroids.row(c)) {
                0.0
            } else {
                pad_up(m.sqrt())
            };
            centroids.row_mut(c).copy_from_slice(&new_c);
        }
        travel.refresh();

        last_movement = movement;
        if !changed && movement <= config.tol {
            break;
        }
        // Fixed-point break: the next iteration is a deterministic
        // function of (assignments, centroids), so a repeated
        // end-of-iteration state would replay forever — the final state
        // at max_iters is exactly this one. Catches the empty-cluster
        // repair oscillation on duplicate-heavy data without changing a
        // single output bit.
        let centroid_bits: Vec<u64> = (0..k)
            .flat_map(|c| centroids.row(c).iter().map(|v| v.to_bits()))
            .collect();
        if prev_assignments == assignments && prev_centroid_bits == centroid_bits {
            break;
        }
        prev_assignments.clone_from(&assignments);
        prev_centroid_bits = centroid_bits;
    }
    if config.pruning && travel.max > 0.0 {
        // The last update's travel is still pending: apply it, so the
        // carried bounds hold against the final centroids.
        for i in 0..n {
            (upper[i], lower[i]) = travel.loosen(assignments[i], upper[i], lower[i]);
        }
    }

    // Centroid movement of the final iteration, in picounits (×1e12) so
    // sub-tolerance deltas still land in distinguishable buckets.
    obs.delta.record((last_movement * 1e12) as u64);
    obs.pruned.add(pruned_points);

    let wcss = if wcss {
        // Recompute the terms of points whose centroid's bits changed
        // since the terms were taken (re-assigned and new points hold
        // NaN), then sum in point order.
        let current = |c: usize| {
            terms_at.len() == k * d && bits_equal(centroids.row(c), &terms_at[c * d..(c + 1) * d])
        };
        let valid: Vec<bool> = (0..k).map(current).collect();
        for i in 0..n {
            let c = assignments[i];
            if !valid[c] || terms[i].is_nan() {
                terms[i] = sq_euclidean(data.row(i), centroids.row(c));
            }
        }
        terms_at.clear();
        for c in 0..k {
            terms_at.extend_from_slice(centroids.row(c));
        }
        // lint: allow(D04, WCSS is summed sequentially in point order on the caller thread after assignment settles)
        terms.iter().sum()
    } else {
        f64::NAN
    };
    let result = KMeansResult {
        assignments,
        centroids,
        wcss,
        iterations,
        total_iterations: iterations as u64,
    };
    let carry = LloydCarry {
        upper,
        lower,
        sums,
        counts,
        stale,
        terms,
        terms_at,
    };
    (result, carry)
}

/// One point's assignment-step outcome, with its updated bounds.
#[derive(Debug, Clone, Copy)]
enum Settle {
    /// The bounds prove the assignment: nothing computed.
    Pruned(f64, f64),
    /// One exact distance to the own centroid proved the assignment.
    Confirmed(f64, f64),
    /// The full argmin: cluster, upper bound, lower bound.
    Nearest(usize, f64, f64),
}

/// How far each centroid moved in one update, for loosening bounds.
struct Travel {
    moved: Vec<f64>,
    /// The farthest-moved centroid, its travel, and the largest travel
    /// among the others.
    far: usize,
    max: f64,
    second: f64,
}

impl Travel {
    /// No centroid has moved.
    fn none(k: usize) -> Travel {
        Travel {
            moved: vec![0.0; k],
            far: 0,
            max: 0.0,
            second: 0.0,
        }
    }

    /// Recompute the summary after `moved` was rewritten (the first
    /// centroid on ties; 0 when there is no other).
    fn refresh(&mut self) {
        (self.far, self.max, self.second) = (0, 0.0, 0.0);
        for (c, &m) in self.moved.iter().enumerate() {
            if m > self.max {
                (self.far, self.max, self.second) = (c, m, self.max);
            } else if m > self.second {
                self.second = m;
            }
        }
    }

    /// Triangle inequality: a point's distance to its own centroid grew
    /// by at most that centroid's travel; its distance to any other
    /// centroid shrank by at most the largest travel among the *other*
    /// centroids — the runner-up travel for members of the farthest-
    /// moved cluster. When nothing moved, the bounds stay as they are.
    #[inline]
    fn loosen(&self, assigned: usize, upper: f64, lower: f64) -> (f64, f64) {
        if self.max == 0.0 {
            return (upper, lower);
        }
        let shrink = if assigned == self.far {
            self.second
        } else {
            self.max
        };
        (
            pad_up(upper + self.moved[assigned]),
            pad_down(lower - shrink),
        )
    }
}

/// What the assignment step reads besides the per-point state.
struct AssignStep<'a> {
    data: &'a Dataset,
    centroids: &'a Dataset,
    pruning: bool,
    /// The previous update's travel, not yet applied to the bounds.
    travel: &'a Travel,
    /// Seed distances for the first step of a [`Start::Seeded`] run.
    seeded: Option<&'a [f64]>,
}

impl AssignStep<'_> {
    /// Settle point `i`: loosen its bounds by the pending travel, skip
    /// it while they prove its assignment is the unique nearest;
    /// otherwise tighten the upper bound with the exact distance to its
    /// own centroid and check again; otherwise scan every centroid
    /// (strict `<`, lowest index on ties — the cold argmin).
    #[inline]
    fn settle(&self, i: usize, assigned: usize, upper: f64, lower: f64) -> Settle {
        let row = self.data.row(i);
        if self.pruning {
            let (upper, lower) = self.travel.loosen(assigned, upper, lower);
            if upper < lower {
                return Settle::Pruned(upper, lower);
            }
            if lower > 0.0 {
                let up = pad_up(sq_euclidean(row, self.centroids.row(assigned)).sqrt());
                if up < lower {
                    return Settle::Confirmed(up, lower);
                }
            }
        }
        let k = self.centroids.nrows();
        match self.seeded {
            Some(dists) => nearest(dists[i * k..(i + 1) * k].iter().copied()),
            None => nearest((0..k).map(|c| sq_euclidean(row, self.centroids.row(c)))),
        }
    }
}

/// The argmin over squared distances in centroid order (strict `<`,
/// lowest index on ties), with a padded upper bound on its distance and
/// a padded lower bound on every other.
#[inline]
fn nearest(dists: impl Iterator<Item = f64>) -> Settle {
    let mut best_c = 0;
    let mut best_d = f64::INFINITY;
    let mut second_d = f64::INFINITY;
    for (c, dist) in dists.enumerate() {
        if dist < best_d {
            second_d = best_d;
            best_d = dist;
            best_c = c;
        } else if dist < second_d {
            second_d = dist;
        }
    }
    Settle::Nearest(best_c, pad_up(best_d.sqrt()), pad_down(second_d.sqrt()))
}

/// `sum[j] += row[j]` for every column, in column order.
#[inline]
fn add_row(sum: &mut [f64], row: &[f64]) {
    for (s, v) in sum.iter_mut().zip(row) {
        *s += v;
    }
}

/// Whether two equal-length vectors hold bit-identical values.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Round a bound up so that accumulated floating-point error can never
/// make it optimistic. ~4500 ulps of relative slack plus a subnormal
/// floor covers the handful of rounded operations per bound update by
/// orders of magnitude; the only cost of over-padding is an extra exact
/// distance computation.
#[inline]
fn pad_up(x: f64) -> f64 {
    x + (x.abs() * 1e-12 + 1e-300)
}

/// Mirror of [`pad_up`] for lower bounds. An infinite bound (k = 1: no
/// other centroid) stays infinite rather than padding to NaN, which
/// would never prune.
#[inline]
fn pad_down(x: f64) -> f64 {
    if x == f64::INFINITY {
        return x;
    }
    x - (x.abs() * 1e-12 + 1e-300)
}

/// k-means++ seeding over the first `n` rows of `data`: first centroid
/// uniform, each subsequent centroid sampled with probability
/// proportional to squared distance from the nearest already-chosen
/// centroid. Also returns the squared distance from every point to
/// every seed (`n × k`, row-major), for Lloyd's first assignment step.
fn kmeanspp_init(data: &Dataset, n: usize, k: usize, rng: &mut StdRng) -> (Dataset, Vec<f64>) {
    let d = data.ncols();
    let mut centroids = Dataset::zeros(k, d);
    let mut dists = vec![0.0f64; n * k];
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));

    let mut min_sq = vec![f64::INFINITY; n];
    for c in 1..k {
        for (i, m) in min_sq.iter_mut().enumerate() {
            let dist = sq_euclidean(data.row(i), centroids.row(c - 1));
            dists[i * k + c - 1] = dist;
            if dist < *m {
                *m = dist;
            }
        }
        // lint: allow(D04, kmeans++ seeding is sequential by construction; the running distance sum never crosses threads)
        let total: f64 = min_sq.iter().sum();
        let chosen = if total > 0.0 {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &w) in min_sq.iter().enumerate() {
                if target < w {
                    pick = i;
                    break;
                }
                target -= w;
            }
            pick
        } else {
            // All points coincide with chosen centroids; pick uniformly.
            rng.gen_range(0..n)
        };
        centroids.row_mut(c).copy_from_slice(data.row(chosen));
    }
    for i in 0..n {
        dists[i * k + k - 1] = sq_euclidean(data.row(i), centroids.row(k - 1));
    }
    (centroids, dists)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Dataset {
        // Two well-separated 2-D blobs of 5 points each.
        let mut rows = Vec::new();
        for i in 0..5 {
            rows.push(vec![0.0 + 0.1 * i as f64, 0.0 - 0.1 * i as f64]);
        }
        for i in 0..5 {
            rows.push(vec![10.0 + 0.1 * i as f64, 10.0 - 0.1 * i as f64]);
        }
        Dataset::from_rows(rows)
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let res = kmeans(&data, &KMeansConfig::new(2));
        let first = res.assignments[0];
        assert!(res.assignments[..5].iter().all(|&a| a == first));
        assert!(res.assignments[5..].iter().all(|&a| a == 1 - first));
        assert!(res.wcss < 1.0);
    }

    #[test]
    fn k_equals_one_centroid_is_mean() {
        let data = Dataset::from_rows(vec![vec![1.0], vec![3.0], vec![5.0]]);
        let res = kmeans(&data, &KMeansConfig::new(1));
        assert!((res.centroids.get(0, 0) - 3.0).abs() < 1e-12);
        // WCSS = (2^2 + 0 + 2^2) = 8
        assert!((res.wcss - 8.0).abs() < 1e-12);
    }

    #[test]
    fn k_equals_n_gives_zero_wcss() {
        let data = Dataset::from_rows(vec![vec![1.0, 0.0], vec![2.0, 0.0], vec![3.0, 0.0]]);
        let res = kmeans(&data, &KMeansConfig::new(3));
        assert!(res.wcss < 1e-18);
        let mut sorted = res.assignments.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "each point in its own cluster");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = two_blobs();
        let cfg = KMeansConfig::new(3).with_seed(1234);
        let a = kmeans(&data, &cfg);
        let b = kmeans(&data, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn assignments_are_nearest_centroid() {
        let data = two_blobs();
        let res = kmeans(&data, &KMeansConfig::new(2));
        for i in 0..data.nrows() {
            let own = res.sq_dist_to_centroid(&data, i);
            for c in 0..res.k() {
                let other = sq_euclidean(data.row(i), res.centroids.row(c));
                assert!(own <= other + 1e-12);
            }
        }
    }

    #[test]
    fn members_of_partitions_all_rows() {
        let data = two_blobs();
        let res = kmeans(&data, &KMeansConfig::new(4));
        let mut all: Vec<usize> = (0..res.k()).flat_map(|c| res.members_of(c)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..data.nrows()).collect::<Vec<_>>());
    }

    #[test]
    fn identical_points_do_not_crash() {
        let data = Dataset::from_rows(vec![vec![5.0, 5.0]; 6]);
        let res = kmeans(&data, &KMeansConfig::new(3));
        assert_eq!(res.assignments.len(), 6);
        assert!(res.wcss < 1e-18);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let data = two_blobs();
        let _ = kmeans(&data, &KMeansConfig::new(0));
    }

    #[test]
    #[should_panic(expected = "exceeds number of points")]
    fn k_larger_than_n_panics() {
        let data = Dataset::from_rows(vec![vec![1.0]]);
        let _ = kmeans(&data, &KMeansConfig::new(2));
    }

    #[test]
    fn wcss_never_increases_with_k() {
        // Over best-of-restarts runs, optimal WCSS is non-increasing in k;
        // with enough restarts the heuristic should track that closely.
        let data = two_blobs();
        let mut prev = f64::INFINITY;
        for k in 1..=6 {
            let res = kmeans(
                &data,
                &KMeansConfig {
                    restarts: 20,
                    ..KMeansConfig::new(k)
                },
            );
            assert!(
                res.wcss <= prev + 1e-9,
                "wcss went up from {prev} to {} at k={k}",
                res.wcss
            );
            prev = res.wcss;
        }
    }

    /// Duplicate-heavy data with more clusters than distinct points: the
    /// empty-cluster repair used to oscillate at a fixed point (repair
    /// re-homed a point after `changed` was computed; the next argmin
    /// undid it) and burn `max_iters × restarts = 800` iterations — the
    /// k7/k8 "~1650 iterations" burn observed in `serve_report.json`.
    /// The fixed-point break must cut that by far more than the 5× the
    /// acceptance gate asks for, without touching the output.
    #[test]
    fn duplicate_heavy_repair_converges_without_iteration_burn() {
        let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![(i % 3) as f64 * 10.0, 0.0]).collect();
        let data = Dataset::from_rows(rows);
        for k in [7, 8] {
            let res = kmeans(&data, &KMeansConfig::new(k));
            assert_eq!(res.assignments.len(), 12);
            assert!(
                res.total_iterations <= 160,
                "k={k}: {} total iterations — the repair oscillation burn is back \
                 (pre-fix: 800 = max_iters × restarts)",
                res.total_iterations
            );
            // Three distinct points and k ≥ 3 clusters: a converged run
            // must still explain the data perfectly.
            assert!(res.wcss < 1e-18, "k={k}: wcss {}", res.wcss);
        }
    }

    /// The pruned assignment path must be bit-for-bit the naive one:
    /// same assignments, same centroid bits, same WCSS bits, same
    /// iteration trajectory.
    #[test]
    fn pruning_is_bit_identical_to_naive() {
        let mut rows = two_blobs().to_rows();
        // Add duplicates and a third clump so ties and repairs happen.
        rows.extend(vec![vec![5.0, 5.0]; 4]);
        rows.push(vec![0.0, 0.0]);
        let data = Dataset::from_rows(rows);
        for k in 1..=8 {
            let pruned = kmeans(&data, &KMeansConfig::new(k));
            let naive = kmeans(
                &data,
                &KMeansConfig {
                    pruning: false,
                    ..KMeansConfig::new(k)
                },
            );
            assert_eq!(pruned.assignments, naive.assignments, "k={k}");
            assert_eq!(pruned.iterations, naive.iterations, "k={k}");
            assert_eq!(pruned.wcss.to_bits(), naive.wcss.to_bits(), "k={k}");
            for c in 0..k {
                for (a, b) in pruned.centroids.row(c).iter().zip(naive.centroids.row(c)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} centroid {c}");
                }
            }
        }
    }

    /// Warm-starting from already-converged centroids must settle
    /// immediately on the same clustering.
    #[test]
    fn warm_start_from_converged_centroids_is_a_fixed_point() {
        let data = two_blobs();
        let cfg = KMeansConfig::new(2);
        let cold = kmeans(&data, &cfg);
        let warm = kmeans_warm(&data, &cfg, &cold.centroids);
        assert_eq!(warm.assignments, cold.assignments);
        assert_eq!(warm.wcss.to_bits(), cold.wcss.to_bits());
        assert!(
            warm.iterations <= 2,
            "converged warm start took {} iterations",
            warm.iterations
        );
    }

    #[test]
    fn total_iterations_accumulates_across_restarts() {
        let data = two_blobs();
        let cfg = KMeansConfig::new(3);
        let res = kmeans(&data, &cfg);
        assert!(res.total_iterations >= res.iterations as u64);
        assert!(
            res.total_iterations >= cfg.restarts as u64,
            "every restart runs at least one iteration"
        );
        let warm = kmeans_warm(&data, &cfg, &res.centroids);
        assert_eq!(warm.total_iterations, warm.iterations as u64);
    }

    #[test]
    #[should_panic(expected = "warm start has")]
    fn warm_start_shape_mismatch_panics() {
        let data = two_blobs();
        let init = Dataset::zeros(3, 2);
        let _ = kmeans_warm(&data, &KMeansConfig::new(2), &init);
    }
}
