//! `cluster.merges` stays a true work count: `cluster_jaccard` folds each
//! group of identical sets without running those merges, and must still
//! count every merge the packed-matrix path performs.
//!
//! The counter is process-global and library tests run in parallel, so
//! this binary holds exactly one test.

use ccdn_cluster::{cluster_jaccard, hierarchical_cluster, jaccard, DistanceMatrix, Linkage};
use ccdn_obs::ObsReport;

/// SplitMix-style mixing, so every case follows from its seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

/// `n` sets over a `universe`-element universe, each of up to four
/// elements: with a small universe most sets repeat, many of them three
/// or more times.
fn duplicate_heavy_sets(seed: u64, n: usize, universe: u64) -> Vec<Vec<u64>> {
    (0..n as u64)
        .map(|i| {
            let len = mix(seed, i) % 5;
            let mut set: Vec<u64> = (0..len).map(|k| mix(seed ^ i, k) % universe).collect();
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect()
}

/// The partition `run` returns and the `cluster.merges` it added.
fn counted(run: impl FnOnce() -> Vec<Vec<usize>>) -> (Vec<Vec<usize>>, u64) {
    let before = ObsReport::capture();
    let clusters = run();
    let delta = ObsReport::capture().delta(&before);
    (clusters, delta.counters.get("cluster.merges").copied().unwrap_or(0))
}

#[test]
fn cluster_jaccard_counts_the_merges_of_the_matrix_path() {
    ccdn_obs::set_enabled(true);
    let mut duplicates = 0;
    for seed in 0..24u64 {
        let n = 10 + (seed as usize * 7) % 50;
        let sets = duplicate_heavy_sets(seed, n, 3 + seed % 6);
        let mut distinct = sets.clone();
        distinct.sort_unstable();
        distinct.dedup();
        duplicates += n - distinct.len();
        let dm = DistanceMatrix::from_fn(n, |i, j| 1.0 - jaccard(&sets[i], &sets[j]));
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            for cut in [0.0, 0.3, 0.5, 0.75, 1.0] {
                let (want, matrix_merges) = counted(|| hierarchical_cluster(&dm, linkage, cut));
                let (got, set_merges) = counted(|| cluster_jaccard(&sets, linkage, cut));
                let case = format!("seed {seed}, {n} sets, {linkage:?} at {cut}");
                assert_eq!(got, want, "{case}: partition");
                assert_eq!(set_merges, matrix_merges, "{case}: cluster.merges");
                assert_eq!(matrix_merges as usize, n - want.len(), "{case}: merges per cluster");
            }
        }
    }
    assert!(
        duplicates > 400,
        "only {duplicates} duplicate sets: the cases are not duplicate-heavy"
    );
}
