//! Additional property tests for the clustering crate.

use incprof_cluster::{
    adjusted_rand_index, kmeans, rand_index, select_k, ChainConfig, Dataset, KChain, KMeansConfig,
    KMeansResult, KSelectionMethod, Scaling,
};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..4).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(-50.0f64..50.0, d..=d), 2..20)
            .prop_map(Dataset::from_rows)
    })
}

/// Series for the fold: enough rows to cross several reviews, with
/// coordinates often drawn from a coarse grid so duplicate rows, exact
/// distance ties and empty-cluster repairs all occur.
fn arb_series() -> impl Strategy<Value = Dataset> {
    (1usize..4).prop_flat_map(|d| {
        let coord = (0u8..3, 0i32..4, -50.0f64..50.0).prop_map(|(pick, grid, free)| {
            if pick < 2 {
                f64::from(grid) * 2.5
            } else {
                free
            }
        });
        proptest::collection::vec(proptest::collection::vec(coord, d..=d), 8..48)
            .prop_map(Dataset::from_rows)
    })
}

/// Same assignments, centroid bits, WCSS bits and iteration counts.
fn same_fold_state(a: &KMeansResult, b: &KMeansResult, t: usize) -> Result<(), String> {
    let bits = |r: &KMeansResult| -> Vec<u64> {
        (0..r.k())
            .flat_map(|c| r.centroids.row(c).iter().map(|v| v.to_bits()))
            .collect()
    };
    prop_assert!(
        a.assignments == b.assignments,
        "assignments differ at t={t}"
    );
    prop_assert!(bits(a) == bits(b), "centroid bits differ at t={t}");
    prop_assert!(
        a.wcss.to_bits() == b.wcss.to_bits(),
        "wcss differs at t={t}"
    );
    prop_assert!(a.iterations == b.iterations, "iterations differ at t={t}");
    prop_assert!(
        a.total_iterations == b.total_iterations,
        "total iterations differ at t={t}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Lloyd state a chain carries between fold steps is a pure cost
    /// cache: advancing row by row with it lands, at every prefix, in
    /// the bits of a chain whose carry is dropped before each step (each
    /// step then runs cold) and of one with pruning off (the naive
    /// oracle, which reuses nothing).
    #[test]
    fn carried_fold_steps_match_cold_steps_and_naive(
        data in arb_series(),
        k in 1usize..7,
        review_every in 0usize..6,
    ) {
        let k = k.min(data.nrows());
        let cfg = |pruning| ChainConfig {
            base: KMeansConfig { restarts: 3, pruning, ..KMeansConfig::new(k) },
            review_every,
            review_candidates: 2,
        };
        let (on, off) = (cfg(true), cfg(false));
        let mut carried = KChain::start(&data, k, &on);
        let mut dropped = KChain::start(&data, k, &on);
        let mut naive = KChain::start(&data, k, &off);
        same_fold_state(&carried.last, &naive.last, k)?;
        for t in k + 1..=data.nrows() {
            carried.advance(&data, t, &on);
            dropped = KChain::from_parts(dropped.k, dropped.covered, dropped.last);
            dropped.advance(&data, t, &on);
            naive.advance(&data, t, &off);
            same_fold_state(&carried.last, &dropped.last, t)?;
            same_fold_state(&carried.last, &naive.last, t)?;
        }
    }

    #[test]
    fn minmax_scaling_bounds_columns(data in arb_dataset()) {
        let scaled = Scaling::MinMax.apply(&data);
        for i in 0..scaled.nrows() {
            for &v in scaled.row(i) {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v), "value {v}");
            }
        }
    }

    #[test]
    fn row_fraction_rows_sum_to_one_or_zero(data in arb_dataset()) {
        // Make data non-negative first (self times are non-negative).
        let rows: Vec<Vec<f64>> =
            data.iter_rows().map(|r| r.iter().map(|v| v.abs()).collect()).collect();
        let data = Dataset::from_rows(rows);
        let scaled = Scaling::RowFraction.apply(&data);
        for i in 0..scaled.nrows() {
            let sum: f64 = scaled.row(i).iter().sum();
            prop_assert!(
                (sum - 1.0).abs() < 1e-9 || sum.abs() < 1e-12,
                "row {i} sums to {sum}"
            );
        }
    }

    #[test]
    fn zscore_columns_have_zero_mean(data in arb_dataset()) {
        let scaled = Scaling::ZScore.apply(&data);
        for j in 0..scaled.ncols() {
            let mean: f64 =
                (0..scaled.nrows()).map(|i| scaled.get(i, j)).sum::<f64>()
                    / scaled.nrows() as f64;
            prop_assert!(mean.abs() < 1e-9, "column {j} mean {mean}");
        }
    }

    #[test]
    fn wcss_is_nonincreasing_in_k_with_restarts(data in arb_dataset()) {
        let mut prev = f64::INFINITY;
        let k_max = 4.min(data.nrows());
        for k in 1..=k_max {
            let cfg = KMeansConfig { restarts: 16, ..KMeansConfig::new(k) };
            let res = kmeans(&data, &cfg);
            prop_assert!(res.wcss <= prev + 1e-6, "wcss rose at k={k}");
            prev = res.wcss;
        }
    }

    #[test]
    fn selection_result_is_a_partition(data in arb_dataset()) {
        let sel = select_k(&data, 6, KSelectionMethod::Elbow, &KMeansConfig::new(0));
        // Every cluster id below k is inhabited.
        for c in 0..sel.k {
            prop_assert!(sel.result.assignments.contains(&c), "cluster {c} empty");
        }
        prop_assert!(sel.result.assignments.iter().all(|&a| a < sel.k));
    }

    #[test]
    fn ari_invariants(labels in proptest::collection::vec(0usize..4, 2..30)) {
        // Identity and permutation invariance.
        prop_assert!((adjusted_rand_index(&labels, &labels) - 1.0).abs() < 1e-12);
        let permuted: Vec<usize> = labels.iter().map(|&l| (l + 1) % 4).collect();
        prop_assert!((adjusted_rand_index(&labels, &permuted) - 1.0).abs() < 1e-9);
        // Bounded above by 1; rand index in [0,1].
        let other: Vec<usize> = labels.iter().map(|&l| l / 2).collect();
        let ari = adjusted_rand_index(&labels, &other);
        prop_assert!(ari <= 1.0 + 1e-12, "ari {ari}");
        let ri = rand_index(&labels, &other);
        prop_assert!((0.0..=1.0).contains(&ri));
    }
}
