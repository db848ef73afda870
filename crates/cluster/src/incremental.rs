//! The k-sweep: warm-started per-row k-means chains.
//!
//! This module is the one implementation of the paper's k = 1..k_max
//! sweep (§V-A); [`SweepChains::evaluate`] runs it for both cold
//! detection and the serve path's warm queries. Re-running
//! best-of-restarts k-means from k-means++ seeds for every k on every
//! query would cost the full sweep even when the dataset grew by a
//! single interval since the last analysis.
//!
//! Warm-starting such a *batch* definition on grown data cannot be
//! byte-identical to re-running it: k-means++ consumes RNG draws against
//! every row, so adding one row perturbs every restart. Instead this
//! module defines the clustering as a **canonical left fold** over the
//! rows, which is what actually runs on both the cold and the warm path:
//!
//! * **Base case** (t = k): best-of-restarts batch
//!   [`kmeans`](crate::kmeans::kmeans) on the first k rows.
//! * **Step** (t → t+1): one warm Lloyd run
//!   ([`kmeans_warm`](crate::kmeans::kmeans_warm)) over the grown prefix,
//!   starting from the previous converged centroids — typically one or
//!   two iterations.
//! * **Review** (t divisible by [`ChainConfig::review_every`]): a few
//!   fresh single-restart k-means++ candidates, seeded by
//!   `review_seed(seed, k, t, c)`, compete with the incumbent; a
//!   candidate replaces it only on *strictly* lower WCSS (ties keep the
//!   incumbent). Reviews bound how far the greedy warm path can drift
//!   from a good optimum as the data grows.
//!
//! The fold state at prefix length t is a pure function of the prefix
//! and the configuration — independent of the query pattern. A chain
//! that was left behind (e.g. because an early-exited sweep never
//! touched its k) simply replays the missed rows the next time it is
//! needed and lands in the identical state. That purity is what makes
//! the analysis cache's byte-identical-or-abandoned discipline hold:
//! cold (fold from scratch) and warm (continue cached chains) produce
//! the same bits at every prefix.
//!
//! # Carried Lloyd state
//!
//! Run naively, step t → t+1 costs a full Lloyd run over t+1 rows: the
//! first iteration computes all (t+1)·k distances, then every cluster is
//! re-summed and the WCSS recomputed over every row. Instead each chain
//! keeps the state its last step ended in, and the next step resumes
//! from it (see the private `lloyd` in [`mod@crate::kmeans`]):
//!
//! * per-point Hamerly bounds, still valid against the centroids the
//!   step starts from, so old points are pruned instead of re-scanned;
//! * per-cluster coordinate sums and counts, accumulated in row-index
//!   order, reused while the cluster's membership is unchanged — the
//!   appended row has the highest index, so adding it last is exactly
//!   the cold summation order;
//! * per-point WCSS terms, recomputed only for points whose centroid's
//!   bits changed; the WCSS itself is formed only where it is read (at
//!   review steps and at the last step of a [`KChain::advance`] call).
//!
//! The first iteration computes its `changed` flag against all-zero
//! assignments, as a cold run does, so iteration counts, centroids, WCSS
//! and assignments all stay bit-identical to running each step cold.
//! The carried state is a cost cache, not fold state: it is not
//! checkpointed (a decoded chain, built with [`KChain::from_parts`],
//! starts without it and its next step simply runs cold), equality
//! ignores it, and [`SweepChains::remap_columns`] drops it.

use crate::dataset::Dataset;
use crate::distance::PairwiseDistances;
use crate::kmeans::{kmeans_head, lloyd_resume, KMeansConfig, KMeansObs, KMeansResult, LloydCarry};
use crate::select_k::{elbow_index, silhouette_index, KSelection, KSelectionMethod, KSweep};
use crate::silhouette::mean_silhouette_pre;
use std::sync::{Mutex, PoisonError};

/// Configuration of the incremental fold. Must stay fixed for the
/// lifetime of a [`SweepChains`]; callers key cached chains by a
/// fingerprint that covers every field here.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Base k-means configuration (its `k` is overridden per chain).
    pub base: KMeansConfig,
    /// Run reviews whenever the prefix length is a positive multiple of
    /// this. `0` disables reviews entirely.
    pub review_every: usize,
    /// Number of fresh single-restart candidates per review.
    pub review_candidates: usize,
}

impl ChainConfig {
    /// Default review cadence over a base k-means configuration.
    pub fn new(base: KMeansConfig) -> ChainConfig {
        ChainConfig {
            base,
            review_every: 16,
            review_candidates: 2,
        }
    }
}

/// The fold state for one value of k: the converged clustering of the
/// first [`KChain::covered`] rows.
///
/// Beside the state proper, a chain keeps the Lloyd cost cache its last
/// step ended in (bounds, cluster sums, WCSS terms; see the module docs).
/// The cache is not part of the state: equality ignores it and clones
/// copy it, a chain rebuilt with [`KChain::from_parts`] starts without
/// it, and either way the fold produces the same bits. It describes
/// `last` as the fold left it, so code that rewrites `last` by hand must
/// rebuild the chain with [`KChain::from_parts`].
#[derive(Debug, Clone)]
pub struct KChain {
    /// The number of clusters this chain tracks.
    pub k: usize,
    /// How many rows of the series the state covers.
    pub covered: usize,
    /// The converged clustering of the covered prefix.
    pub last: KMeansResult,
    /// Lloyd state `last` ended in, for the next step to resume from.
    carry: LloydCarry,
}

impl PartialEq for KChain {
    fn eq(&self, other: &KChain) -> bool {
        self.k == other.k && self.covered == other.covered && self.last == other.last
    }
}

impl KChain {
    /// A chain at a known fold state (e.g. decoded from a checkpoint),
    /// with an empty cost cache: its next step runs cold and lands in
    /// the same bits as a chain that never left memory.
    pub fn from_parts(k: usize, covered: usize, last: KMeansResult) -> KChain {
        KChain {
            k,
            covered,
            last,
            carry: LloydCarry::default(),
        }
    }

    /// Base case of the fold: batch best-of-restarts k-means on the
    /// first `k` rows.
    pub fn start(data: &Dataset, k: usize, cfg: &ChainConfig) -> KChain {
        assert!(
            data.nrows() >= k,
            "cannot start a k={k} chain on {} rows",
            data.nrows()
        );
        let base = KMeansConfig {
            k,
            ..cfg.base.clone()
        };
        let (last, carry) = kmeans_head(data, k, &base, &mut KMeansObs::new(k));
        KChain {
            k,
            covered: k,
            last,
            carry,
        }
    }

    /// Replay the fold steps from `covered` up to prefix length `t`,
    /// one appended row at a time. A no-op when already caught up.
    ///
    /// # Panics
    /// Panics if the chain covers more rows than `t` — a shrinking
    /// series invalidates the fold and the chains must be reset by the
    /// caller, never rewound.
    pub fn advance(&mut self, data: &Dataset, t: usize, cfg: &ChainConfig) {
        assert!(
            self.covered <= t,
            "chain for k={} covers {} rows but the series has {t}; \
             chains must be reset when the series shrinks",
            self.k,
            self.covered
        );
        assert!(t <= data.nrows());
        if self.covered == t {
            return;
        }
        let base = KMeansConfig {
            k: self.k,
            ..cfg.base.clone()
        };
        let mut obs = KMeansObs::new(self.k);
        while self.covered < t {
            let u = self.covered + 1;
            let review = cfg.review_every > 0 && u.is_multiple_of(cfg.review_every);
            // WCSS is read only by a review and by the caller, after the
            // last step; in between, its terms wait in the carry.
            let (mut best, mut carry) = lloyd_resume(
                data,
                u,
                &base,
                &mut self.last,
                std::mem::take(&mut self.carry),
                review || u == t,
                &obs,
            );
            if review {
                for c in 0..cfg.review_candidates {
                    let cand_cfg = KMeansConfig {
                        restarts: 1,
                        seed: review_seed(cfg.base.seed, self.k, u, c),
                        ..base.clone()
                    };
                    let (cand, cand_carry) = kmeans_head(data, u, &cand_cfg, &mut obs);
                    // Strictly better only: ties keep the incumbent, so
                    // the winner is unambiguous and replay-stable.
                    if cand.wcss < best.wcss {
                        best = cand;
                        carry = cand_carry;
                    }
                }
            }
            self.last = best;
            self.carry = carry;
            self.covered = u;
        }
    }
}

/// Deterministic per-(k, t, candidate) seed for review candidates
/// (SplitMix64 finalizer over a weighed sum of the coordinates).
fn review_seed(seed: u64, k: usize, t: usize, c: usize) -> u64 {
    let mut z = seed
        .wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((c as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// All per-k chains of an incremental sweep. Index `i` holds the chain
/// for k = i + 1; the vector grows as larger k's become reachable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepChains {
    /// The chains, in k order (`chains[i].k == i + 1`).
    pub chains: Vec<KChain>,
}

impl SweepChains {
    /// Empty chain set (a cold fold starts here).
    pub fn new() -> SweepChains {
        SweepChains::default()
    }

    /// Whether no chain state exists yet.
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// Drop all chain state (the fold restarts from scratch).
    pub fn clear(&mut self) {
        self.chains.clear();
    }

    /// Re-align cached centroids to a grown feature space: old column
    /// `j` moves to `old_to_new[j]`, every other column is filled with
    /// `+0.0`.
    ///
    /// This is bit-preserving for the fold *provided* the new columns
    /// are exactly `+0.0` in every already-covered row (the caller must
    /// verify that; reset the chains otherwise): re-running the fold on
    /// the widened data computes every squared distance with extra
    /// `(0-0)²` terms interleaved, and adding `+0.0` to a non-negative
    /// partial sum is a bitwise no-op — the same argument that lets
    /// [`PairwiseDistances::extend`] keep old entries. Centroid means
    /// gain all-zero columns, which average to exactly `+0.0`.
    ///
    /// # Panics
    /// Panics if the mapping is not strictly increasing (reordering
    /// surviving columns would change summation order, which is *not*
    /// bit-preserving), does not match the current width, or overflows
    /// `d_new`.
    pub fn remap_columns(&mut self, old_to_new: &[usize], d_new: usize) {
        assert!(
            old_to_new.windows(2).all(|w| w[0] < w[1]),
            "column remap must be strictly increasing"
        );
        if let Some(&last) = old_to_new.last() {
            assert!(
                last < d_new,
                "column remap targets column {last} but the new width is {d_new}"
            );
        }
        for chain in &mut self.chains {
            assert_eq!(
                chain.last.centroids.ncols(),
                old_to_new.len(),
                "column remap covers {} columns but chain k={} has {}",
                old_to_new.len(),
                chain.k,
                chain.last.centroids.ncols()
            );
            let k = chain.last.centroids.nrows();
            let mut wide = Dataset::zeros(k, d_new);
            for c in 0..k {
                for (j, &nj) in old_to_new.iter().enumerate() {
                    wide.set(c, nj, chain.last.centroids.get(c, j));
                }
            }
            chain.last.centroids = wide;
            // The cost cache holds sums at the old width: drop it.
            chain.carry = LloydCarry::default();
        }
    }

    /// Advance every needed chain to cover all of `data` and select k
    /// among k = 1..=`k_max` (capped at the number of rows) by `method`.
    ///
    /// The per-k chains are independent, so the sweep fans out one
    /// [`incprof_par`] pool task per k (self-scheduled: the expensive
    /// large k's do not stall the cheap ones) and assembles the results
    /// in k order, bit-identical for any worker count. The sweep records
    /// the `cluster.select_k.sweep` span, `cluster.select_k.pairwise`
    /// around its own matrix build, and `cluster.select_k.k<k>` per k.
    ///
    /// Silhouette scores read one pairwise-distance matrix, built once
    /// per call unless `shared` supplies it. A shared matrix must cover
    /// exactly `data`'s rows (`shared.n() == data.nrows()`, checked) with
    /// entries equal to `euclidean(data.row(i), data.row(j))`; the sweep
    /// then skips its O(n²·d) build and every silhouette sum is
    /// bit-identical to the cold path, since
    /// [`PairwiseDistances::euclidean_of`] produces exactly those
    /// entries. This is how `incprof_core`'s analysis cache reuses
    /// distance work across streamed queries.
    ///
    /// With `early_exit` and the [`KSelectionMethod::Silhouette`]
    /// method, the sweep stops after the mean silhouette has strictly
    /// decreased twice in a row (over the defined entries — k = 1 has
    /// none): the sweep arrays are truncated at that k, identically on
    /// cold and warm runs, and untouched chains catch up whenever a
    /// later sweep reaches them. The elbow method always sweeps the full
    /// range — it needs the first-to-last WCSS chord.
    pub fn evaluate(
        &mut self,
        data: &Dataset,
        k_max: usize,
        method: KSelectionMethod,
        cfg: &ChainConfig,
        shared: Option<&PairwiseDistances>,
        early_exit: bool,
    ) -> KSelection {
        let _sweep_span = incprof_obs::span(incprof_obs::names::CLUSTER_SELECT_K_SWEEP);
        let n = data.nrows();
        assert!(n >= 1, "cannot sweep an empty dataset");
        let cap = k_max.min(n).max(1);
        if let Some(p) = shared {
            assert_eq!(
                p.n(),
                n,
                "shared pairwise matrix covers {} rows, data has {}",
                p.n(),
                n
            );
        }
        let built: Option<PairwiseDistances> = if cap >= 2 && shared.is_none() {
            let _pair_span = incprof_obs::span(incprof_obs::names::CLUSTER_SELECT_K_PAIRWISE);
            Some(PairwiseDistances::euclidean_of(data))
        } else {
            None
        };
        let pair: Option<&PairwiseDistances> = if cap >= 2 {
            shared.or(built.as_ref())
        } else {
            None
        };

        let use_early = early_exit && method == KSelectionMethod::Silhouette;
        // Each evaluated chain moves out of `self`, through its task and
        // back; chains past the evaluated range stay as they are.
        let mut existing = std::mem::take(&mut self.chains).into_iter();
        let evaluated: Vec<(KChain, Option<f64>)> = if use_early {
            let mut evaluated = Vec::with_capacity(cap);
            let mut defined: Vec<f64> = Vec::new();
            for i in 0..cap {
                let (chain, sil) = eval_one(data, cfg, pair, i + 1, existing.next(), n);
                evaluated.push((chain, sil));
                if let Some(v) = sil {
                    defined.push(v);
                }
                let m = defined.len();
                if m >= 3 && defined[m - 1] < defined[m - 2] && defined[m - 2] < defined[m - 3] {
                    break;
                }
            }
            evaluated
        } else {
            // Per-k chains advance independently; fan out one pool task
            // per k (bit-identical at any worker count — each task owns
            // only its own chain).
            let slots: Vec<Mutex<Option<KChain>>> = existing
                .by_ref()
                .take(cap)
                .map(|c| Mutex::new(Some(c)))
                .collect();
            incprof_par::Pool::current().map_index(cap, 1, |i| {
                let chain = slots
                    .get(i)
                    .and_then(|s| s.lock().unwrap_or_else(PoisonError::into_inner).take());
                eval_one(data, cfg, pair, i + 1, chain, n)
            })
        };

        let mut sweep = KSweep {
            ks: Vec::with_capacity(evaluated.len()),
            results: Vec::with_capacity(evaluated.len()),
            wcss: Vec::with_capacity(evaluated.len()),
            silhouettes: Vec::with_capacity(evaluated.len()),
        };
        let mut chains = Vec::with_capacity(evaluated.len() + existing.len());
        for (i, (chain, sil)) in evaluated.into_iter().enumerate() {
            sweep.ks.push(i + 1);
            sweep.wcss.push(chain.last.wcss);
            sweep.silhouettes.push(sil);
            sweep.results.push(chain.last.clone());
            chains.push(chain);
        }
        chains.extend(existing);
        self.chains = chains;
        let idx = match method {
            KSelectionMethod::Elbow => elbow_index(&sweep.wcss),
            KSelectionMethod::Silhouette => silhouette_index(&sweep.silhouettes),
        };
        KSelection {
            k: sweep.ks[idx],
            result: sweep.results[idx].clone(),
            method,
            sweep,
        }
    }
}

/// Advance (or start) the chain for one k and score its silhouette.
fn eval_one(
    data: &Dataset,
    cfg: &ChainConfig,
    pair: Option<&PairwiseDistances>,
    k: usize,
    existing: Option<KChain>,
    t: usize,
) -> (KChain, Option<f64>) {
    let _k_span = incprof_obs::span(incprof_obs::names::cluster_select_k_k(k));
    let mut chain = match existing {
        Some(c) => c,
        None => KChain::start(data, k, cfg),
    };
    chain.advance(data, t, cfg);
    let sil = match (pair, k >= 2) {
        (Some(pair), true) => mean_silhouette_pre(pair, &chain.last.assignments),
        _ => None,
    };
    (chain, sil)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(c: usize, per: usize) -> Dataset {
        let mut rows = Vec::new();
        for b in 0..c {
            let base = 100.0 * b as f64;
            for i in 0..per {
                rows.push(vec![base + 0.01 * i as f64, base - 0.01 * i as f64]);
            }
        }
        Dataset::from_rows(rows)
    }

    /// `c` blobs of `per` points, blob `b` active only in dimension `b` —
    /// the shape of real interval profiles, where each phase exercises a
    /// different set of functions.
    fn orthogonal_blobs(c: usize, per: usize) -> Dataset {
        let mut rows = Vec::new();
        for b in 0..c {
            for i in 0..per {
                let mut row = vec![0.0; c];
                row[b] = 100.0 + 0.01 * i as f64;
                rows.push(row);
            }
        }
        Dataset::from_rows(rows)
    }

    fn cfg() -> ChainConfig {
        let mut c = ChainConfig::new(KMeansConfig::new(0));
        c.review_every = 4; // exercise reviews on small test data
        c
    }

    fn assert_chains_bit_equal(a: &SweepChains, b: &SweepChains) {
        assert_eq!(a.chains.len(), b.chains.len());
        for (ca, cb) in a.chains.iter().zip(&b.chains) {
            assert_eq!(ca.k, cb.k);
            assert_eq!(ca.covered, cb.covered);
            assert_eq!(ca.last.assignments, cb.last.assignments);
            assert_eq!(ca.last.wcss.to_bits(), cb.last.wcss.to_bits());
            for c in 0..ca.k {
                for (x, y) in ca
                    .last
                    .centroids
                    .row(c)
                    .iter()
                    .zip(cb.last.centroids.row(c))
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "k={} centroid {c}", ca.k);
                }
            }
        }
    }

    /// The fold state at prefix t must not depend on which prefixes were
    /// queried along the way: evaluating at every t and jumping straight
    /// to the end land in bit-identical states and selections.
    #[test]
    fn fold_is_query_pattern_independent() {
        let data = blobs(3, 6);
        let cfg = cfg();
        let mut step_wise = SweepChains::new();
        let mut sel_a = None;
        for t in 1..=data.nrows() {
            let prefix = data.prefix(t);
            sel_a = Some(step_wise.evaluate(
                &prefix,
                8,
                KSelectionMethod::Silhouette,
                &cfg,
                None,
                false,
            ));
        }
        let mut one_shot = SweepChains::new();
        let sel_b = one_shot.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        assert_chains_bit_equal(&step_wise, &one_shot);
        let sel_a = sel_a.unwrap();
        assert_eq!(sel_a.k, sel_b.k);
        assert_eq!(sel_a.result.assignments, sel_b.result.assignments);
        assert_eq!(sel_a.result.wcss.to_bits(), sel_b.result.wcss.to_bits());
        for (a, b) in sel_a.sweep.wcss.iter().zip(&sel_b.sweep.wcss) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in sel_a.sweep.silhouettes.iter().zip(&sel_b.sweep.silhouettes) {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
    }

    /// The fold finds the planted structure (sanity: the incremental
    /// semantics still cluster well, reviews and all).
    #[test]
    fn fold_finds_three_blobs() {
        let data = blobs(3, 6);
        let mut chains = SweepChains::new();
        let sel = chains.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg(), None, false);
        assert_eq!(sel.k, 3);
        let sel = chains.evaluate(&data, 8, KSelectionMethod::Elbow, &cfg(), None, false);
        assert_eq!(sel.k, 3);
    }

    /// Early exit stops after two consecutive strict silhouette drops,
    /// truncating the sweep identically on cold and warm paths; chains
    /// skipped by the exit catch up when a later sweep needs them.
    #[test]
    fn early_exit_truncates_deterministically() {
        let data = blobs(2, 8);
        let cfg = cfg();
        let mut warm = SweepChains::new();
        // Warm the chains over a shorter prefix first (early-exited too).
        warm.evaluate(
            &data.prefix(10),
            8,
            KSelectionMethod::Silhouette,
            &cfg,
            None,
            true,
        );
        let sel_warm = warm.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, true);
        let mut cold = SweepChains::new();
        let sel_cold = cold.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, true);
        assert_eq!(sel_warm.k, sel_cold.k);
        assert_eq!(sel_warm.k, 2, "two planted blobs");
        assert_eq!(sel_warm.sweep.ks, sel_cold.sweep.ks);
        assert!(
            sel_warm.sweep.ks.len() < 8,
            "silhouette collapse on two clean blobs should exit before k_max"
        );
        for (a, b) in sel_warm
            .sweep
            .silhouettes
            .iter()
            .zip(&sel_cold.sweep.silhouettes)
        {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
        // A full (non-early) sweep afterwards catches the skipped chains
        // up and still agrees with a cold full sweep.
        let sel_full_warm =
            warm.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        let mut cold_full = SweepChains::new();
        let sel_full_cold =
            cold_full.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        assert_eq!(sel_full_warm.sweep.ks.len(), 8);
        assert_chains_bit_equal(&warm, &cold_full);
        assert_eq!(sel_full_warm.k, sel_full_cold.k);
    }

    /// The elbow method needs the full WCSS chord, so `early_exit` must
    /// not truncate it.
    #[test]
    fn elbow_ignores_early_exit() {
        let data = blobs(2, 8);
        let mut chains = SweepChains::new();
        let sel = chains.evaluate(&data, 8, KSelectionMethod::Elbow, &cfg(), None, true);
        assert_eq!(sel.sweep.ks.len(), 8);
    }

    /// Re-aligning chains to a grown feature space (new all-zero columns
    /// in the covered prefix) is bit-identical to folding the widened
    /// data from scratch.
    #[test]
    fn remap_columns_preserves_fold_bits() {
        let old = blobs(2, 6);
        let cfg = cfg();
        let mut warm = SweepChains::new();
        warm.evaluate(&old, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        // Widen: insert a zero column in the middle, append one new row
        // that actually uses it.
        let mut rows: Vec<Vec<f64>> = old.iter_rows().map(|r| vec![r[0], 0.0, r[1]]).collect();
        rows.push(vec![50.0, 7.5, 50.0]);
        let new = Dataset::from_rows(rows);
        warm.remap_columns(&[0, 2], 3);
        let sel_warm = warm.evaluate(&new, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        let mut cold = SweepChains::new();
        let sel_cold = cold.evaluate(&new, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        assert_chains_bit_equal(&warm, &cold);
        assert_eq!(sel_warm.k, sel_cold.k);
        assert_eq!(sel_warm.result.assignments, sel_cold.result.assignments);
    }

    /// Remapping drops each chain's carried Lloyd state (its cluster
    /// sums have the old width); the steps that follow must run cold and
    /// match chains folded from scratch over the widened rows, bit for
    /// bit, at every appended row — reviews included.
    #[test]
    fn remap_then_advance_matches_cold_chains() {
        let old = blobs(2, 6);
        let cfg = cfg();
        let mut warm = SweepChains::new();
        warm.evaluate(&old, 4, KSelectionMethod::Elbow, &cfg, None, false);
        let mut rows: Vec<Vec<f64>> = old.iter_rows().map(|r| vec![0.0, r[0], r[1]]).collect();
        rows.extend([
            vec![3.0, 50.0, 50.0],
            vec![0.0, 100.5, 99.0],
            vec![1.5, 0.2, -0.1],
            vec![0.0, 0.0, 0.0],
            vec![2.0, 100.0, 100.0],
        ]);
        let new = Dataset::from_rows(rows);
        warm.remap_columns(&[1, 2], 3);
        for t in old.nrows() + 1..=new.nrows() {
            let mut cold = SweepChains::new();
            cold.evaluate(
                &new.prefix(t),
                4,
                KSelectionMethod::Elbow,
                &cfg,
                None,
                false,
            );
            for chain in &mut warm.chains {
                chain.advance(&new, t, &cfg);
            }
            assert_chains_bit_equal(&warm, &cold);
            for (w, c) in warm.chains.iter().zip(&cold.chains) {
                assert_eq!(w.last.iterations, c.last.iterations, "k={} t={t}", w.k);
            }
        }
    }

    #[test]
    #[should_panic(expected = "chains must be reset when the series shrinks")]
    fn shrinking_series_panics() {
        let data = blobs(2, 4);
        let mut chains = SweepChains::new();
        chains.evaluate(&data, 4, KSelectionMethod::Elbow, &cfg(), None, false);
        let short = data.prefix(3);
        chains.evaluate(&short, 4, KSelectionMethod::Elbow, &cfg(), None, false);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn remap_rejects_reordering() {
        let data = blobs(2, 4);
        let mut chains = SweepChains::new();
        chains.evaluate(&data, 4, KSelectionMethod::Elbow, &cfg(), None, false);
        chains.remap_columns(&[1, 0], 3);
    }

    /// A shared pairwise matrix changes no bits.
    #[test]
    fn shared_pairwise_matrix_gives_bit_identical_fold() {
        let data = blobs(3, 5);
        let cfg = cfg();
        let mut a = SweepChains::new();
        let sa = a.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        let pair = PairwiseDistances::euclidean_of(&data);
        let mut b = SweepChains::new();
        let sb = b.evaluate(
            &data,
            8,
            KSelectionMethod::Silhouette,
            &cfg,
            Some(&pair),
            false,
        );
        assert_chains_bit_equal(&a, &b);
        assert_eq!(sa.k, sb.k);
        for (x, y) in sa.sweep.silhouettes.iter().zip(&sb.sweep.silhouettes) {
            assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits));
        }
    }

    /// What a selection case asserts about the chosen sweep.
    enum Expect {
        /// Exactly this k.
        K(usize),
        /// At most this k.
        AtMostK(usize),
        /// Exactly these swept k's.
        Ks(&'static [usize]),
    }

    /// The cold fold (what `PhaseDetector::detect` runs) selects the
    /// planted k under both criteria, with and without early exit; every
    /// case also checks that the sweep arrays are consistent with the
    /// selection and that a shared pairwise matrix changes no bits.
    #[test]
    fn cold_fold_selects_planted_k() {
        use KSelectionMethod::{Elbow, Silhouette};
        let cases: Vec<(&str, Dataset, usize, KSelectionMethod, Expect)> = vec![
            ("3 blobs", blobs(3, 6), 8, Elbow, Expect::K(3)),
            ("3 blobs", blobs(3, 6), 8, Silhouette, Expect::K(3)),
            // MiniFE in the paper discovers 5 phases; validate at that
            // scale with profile-shaped (orthogonal) clusters.
            (
                "5 orthogonal blobs",
                orthogonal_blobs(5, 8),
                8,
                Elbow,
                Expect::K(5),
            ),
            (
                "5 orthogonal blobs",
                orthogonal_blobs(5, 8),
                8,
                Silhouette,
                Expect::K(5),
            ),
            (
                "uniform",
                Dataset::from_rows(vec![vec![1.0, 1.0]; 10]),
                8,
                Elbow,
                Expect::K(1),
            ),
            ("n < k_max", blobs(1, 3), 8, Elbow, Expect::Ks(&[1, 2, 3])),
            // More blobs than k_max: the paper's k_max = 8 still bounds k.
            ("10 blobs", blobs(10, 3), 8, Elbow, Expect::AtMostK(8)),
            ("2 blobs, k_max 6", blobs(2, 5), 6, Elbow, Expect::K(2)),
        ];
        let cfg = ChainConfig::new(KMeansConfig::new(0));
        for early_exit in [false, true] {
            for (name, data, k_max, method, expect) in &cases {
                let at = format!("{name}, {method:?}, early_exit={early_exit}");
                let sel =
                    SweepChains::new().evaluate(data, *k_max, *method, &cfg, None, early_exit);
                match expect {
                    Expect::K(k) => assert_eq!(sel.k, *k, "{at}"),
                    Expect::AtMostK(k) => assert!(sel.k <= *k, "{at}: k = {}", sel.k),
                    Expect::Ks(ks) => assert_eq!(sel.sweep.ks, *ks, "{at}"),
                }
                let sweep = &sel.sweep;
                assert_eq!(sweep.ks.len(), sweep.results.len(), "{at}");
                assert_eq!(sweep.ks.len(), sweep.wcss.len(), "{at}");
                assert_eq!(sweep.ks.len(), sweep.silhouettes.len(), "{at}");
                assert_eq!(sel.result.assignments.len(), data.nrows(), "{at}");
                let idx = sweep
                    .ks
                    .iter()
                    .position(|&k| k == sel.k)
                    .expect("chosen k swept");
                assert_eq!(sweep.results[idx], sel.result, "{at}");

                let pair = PairwiseDistances::euclidean_of(data);
                let shared = SweepChains::new().evaluate(
                    data,
                    *k_max,
                    *method,
                    &cfg,
                    Some(&pair),
                    early_exit,
                );
                assert_eq!(shared.k, sel.k, "{at}");
                assert_eq!(shared.result, sel.result, "{at}");
                for (a, b) in shared.sweep.wcss.iter().zip(&sweep.wcss) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{at}");
                }
                for (a, b) in shared.sweep.silhouettes.iter().zip(&sweep.silhouettes) {
                    assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shared pairwise matrix")]
    fn shared_matrix_of_wrong_size_is_rejected() {
        let data = blobs(2, 4);
        let small = Dataset::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]);
        let pair = PairwiseDistances::euclidean_of(&small);
        SweepChains::new().evaluate(
            &data,
            8,
            KSelectionMethod::Elbow,
            &cfg(),
            Some(&pair),
            false,
        );
    }
}
