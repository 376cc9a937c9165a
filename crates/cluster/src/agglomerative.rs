use crate::jaccard::jaccard_distance_rows;
use crate::DistanceMatrix;
use ccdn_obs::Counter;

/// Pairwise cluster merges performed below the threshold cut.
static MERGES: Counter = Counter::new("cluster.merges");

/// Inter-cluster distance update rule for agglomerative clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// Distance between clusters is the **maximum** pairwise item distance.
    ///
    /// The default, and the rule RBCAer uses: with a cut threshold `t`,
    /// complete linkage guarantees *every* pair inside a cluster is within
    /// `t` — exactly the paper's "we restrict the distance `Jd(i, j)`
    /// between any two hotspots in the same cluster lower than 0.5"
    /// (§IV-B).
    #[default]
    Complete,
    /// Distance between clusters is the **minimum** pairwise item distance
    /// (chains easily; kept for the ablation bench).
    Single,
    /// Unweighted average of pairwise item distances (UPGMA).
    Average,
}

/// Agglomerative hierarchical clustering with a distance-threshold cut.
///
/// Starts from singleton clusters and repeatedly merges the closest pair
/// of clusters (under the chosen [`Linkage`]) while their distance is
/// **at most** `threshold`. Returns the final partition as a list of
/// clusters, each a sorted list of item indexes; clusters are ordered by
/// their smallest member.
///
/// This is the hotspot-grouping step of RBCAer (§IV-B): items are
/// hotspots, distance is `Jd = 1 − Jaccard` over Top-20 % content sets,
/// and the threshold is 0.5. [`cluster_jaccard`] runs the same merge loop
/// straight from the sets, without the packed matrix.
///
/// Each step merges the globally closest pair, ties going to the first
/// pair in row-major order. Rather than rescanning the matrix for that
/// pair, every row caches its nearest live neighbour to the right, and a
/// merge refreshes only the rows it can change (Müllner's "generic"
/// algorithm, arXiv:1109.2378). That is `O(n²)` time in the typical case
/// and `O(n³)` in the worst, plus one dense `n × n` working copy of the
/// distances; the Lance–Williams update keeps the constant small.
///
/// # Examples
///
/// ```
/// use ccdn_cluster::{hierarchical_cluster, DistanceMatrix, Linkage};
///
/// // Two tight pairs far apart.
/// let pos = [0.0_f64, 0.1, 10.0, 10.1];
/// let dm = DistanceMatrix::from_fn(4, |i, j| (pos[i] - pos[j]).abs());
/// let clusters = hierarchical_cluster(&dm, Linkage::Complete, 1.0);
/// assert_eq!(clusters, vec![vec![0, 1], vec![2, 3]]);
/// ```
#[allow(clippy::needless_range_loop)] // the dense matrix copy reads clearest indexed
pub fn hierarchical_cluster(
    distances: &DistanceMatrix,
    linkage: Linkage,
    threshold: f64,
) -> Vec<Vec<usize>> {
    assert!(threshold >= 0.0 && threshold.is_finite(), "threshold must be finite and >= 0");
    let n = distances.len();
    if n == 0 {
        return Vec::new();
    }

    // Working copy of inter-cluster distances, row-major in one flat
    // allocation (n inner `Vec`s would mean n separate heap blocks and
    // pointer-chasing in the merge loop).
    let mut dist = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            dist[i * n + j] = distances.get(i, j);
        }
    }
    merge_loop(dist, n, (0..n).map(|i| vec![i]).collect(), linkage, threshold)
}

/// [`hierarchical_cluster`] over the Jaccard distance
/// `Jd(i, j) = 1 − jaccard(sets[i], sets[j])` of sorted, deduplicated
/// sets — RBCAer's content aggregation (§IV-B) in one call.
///
/// Returns exactly what [`hierarchical_cluster`] returns on
/// `DistanceMatrix::from_fn(n, |i, j| 1.0 - jaccard(&sets[i], &sets[j]))`,
/// including distance 0 between two empty sets, and adds the same number
/// of merges to the `cluster.merges` counter, but builds neither that
/// packed matrix nor the `n²/2` pairwise set walks.
///
/// Identical sets are grouped first. `Jd` is 0 exactly between identical
/// sets, so the merge loop would fold each group into its smallest member
/// before any other merge; those `n − d` merges are counted without being
/// run, and the loop runs on one row per distinct set, seeded with each
/// group's members and size. Under average linkage the rows are first
/// refolded to the bits the `n`-row loop leaves after its duplicate
/// merges. The grouping is one `O(n log n)` sort that compares lengths
/// first, then elements from the last one, so two sets that share their
/// popular head differ after a few steps.
///
/// The distance rows of the `d` distinct sets come from their sorted
/// `(element, set)` postings, each intersection counted straight into the
/// dense `d × d` working matrix: `O(P log P + Σ_e g_e²)` for `P` postings
/// and `g_e` distinct sets holding element `e`. The merge loop is then
/// `O(d²)` typical and `O(d³)` worst case.
///
/// # Panics
///
/// Panics if `threshold` is negative or not finite. Debug builds also
/// assert that every set is strictly increasing.
///
/// # Examples
///
/// ```
/// use ccdn_cluster::{cluster_jaccard, Linkage};
///
/// let sets = [vec![1, 2, 3], vec![2, 3, 4], vec![100, 101, 102]];
/// // Jd(0, 1) = 1 − 2/4 = 0.5; the third set is disjoint from both.
/// let clusters = cluster_jaccard(&sets, Linkage::Complete, 0.5);
/// assert_eq!(clusters, vec![vec![0, 1], vec![2]]);
/// ```
pub fn cluster_jaccard<T: Ord, S: AsRef<[T]>>(
    sets: &[S],
    linkage: Linkage,
    threshold: f64,
) -> Vec<Vec<usize>> {
    assert!(threshold >= 0.0 && threshold.is_finite(), "threshold must be finite and >= 0");
    if sets.is_empty() {
        return Vec::new();
    }
    let (distinct, members) = duplicate_groups(sets);
    let mut dist = jaccard_distance_rows(&distinct);
    if linkage == Linkage::Average {
        let sizes: Vec<usize> = members.iter().map(Vec::len).collect();
        refold_average(&mut dist, &sizes);
    }
    Counter::add(&MERGES, sets.len().saturating_sub(distinct.len()) as u64);
    merge_loop(dist, distinct.len(), members, linkage, threshold)
}

/// Groups equal sets: one representative per distinct set and, in the
/// same order, each group's members ascending. Groups are ordered by
/// their smallest member, which is the order the merge loop folds them
/// in, and the one its rows must keep for ties to break the same way.
fn duplicate_groups<T: Ord, S: AsRef<[T]>>(sets: &[S]) -> (Vec<&[T]>, Vec<Vec<usize>>) {
    let tail_first =
        |a: &[T], b: &[T]| a.len().cmp(&b.len()).then_with(|| a.iter().rev().cmp(b.iter().rev()));
    let mut keyed: Vec<(&[T], usize)> = sets.iter().map(AsRef::as_ref).zip(0..).collect();
    keyed.sort_unstable_by(|a, b| tail_first(a.0, b.0).then(a.1.cmp(&b.1)));
    let mut groups: Vec<&[(&[T], usize)]> = keyed.chunk_by(|a, b| a.0 == b.0).collect();
    groups.sort_unstable_by_key(|group| group.first().map(|&(_, smallest)| smallest));
    let distinct = groups.iter().filter_map(|group| group.first().map(|&(set, _)| set)).collect();
    let members = groups.iter().map(|group| group.iter().map(|&(_, i)| i).collect()).collect();
    (distinct, members)
}

/// Rewrites the `d × d` average-linkage rows of the distinct sets into
/// the rows the `n`-row merge loop holds once it has folded every group
/// of `sizes[g]` identical sets into its smallest member.
///
/// Folding a group into its smallest member takes one member at a time;
/// each step averages the running entry with an unchanged member's, and
/// `(s·x + x)/(s + 1)` is not always `x` in floating point. Groups fold
/// in order of their smallest members, so entry `(p, q)`, `p < q`, is
/// first the running mean over group `p`'s members, then over group
/// `q`'s, step for step the loop's update; entry `(q, p)` gets the same
/// bits. Complete and single linkage take the maximum or minimum of equal
/// values, which is exact, and need no refold.
fn refold_average(dist: &mut [f64], sizes: &[usize]) {
    let running_mean = |x: f64, size: usize| {
        let mut mean = x;
        for absorbed in 1..size {
            let (sa, sb) = (absorbed as f64, 1.0);
            mean = (sa * mean + sb * x) / (sa + sb);
        }
        mean
    };
    let rows = dist.chunks_exact_mut(sizes.len().max(1));
    for (p, (row, &size_p)) in rows.zip(sizes).enumerate() {
        for (q, (entry, &size_q)) in row.iter_mut().zip(sizes).enumerate() {
            let (first, second) = if p < q { (size_p, size_q) } else { (size_q, size_p) };
            if p != q && (first > 1 || second > 1) {
                *entry = running_mean(running_mean(*entry, first), second);
            }
        }
    }
}

/// Neighbour slot of a row with no live column to its right.
const NO_NEIGHBOUR: usize = usize::MAX;

/// The merge loop shared by [`hierarchical_cluster`] and
/// [`cluster_jaccard`], over a dense row-major `n × n` symmetric matrix
/// whose row `i` starts as the cluster `members[i]`, with that many items
/// as its size: one item each for [`hierarchical_cluster`], one group of
/// identical sets each for [`cluster_jaccard`].
///
/// `nn[i] = (d, j)` caches row `i`'s nearest live column `j > i`, the
/// smallest `j` on ties, so the smallest `i` among rows with the minimal
/// cached `d` is the first strict minimum of a row-major scan over every
/// live pair. Merging `b` into `a` (`a < b`) changes only column/row `a`
/// and retires `b`: row `a` and every row whose neighbour was `a` or `b`
/// is rescanned, and every other row `i < a` weighs the new `d(i, a)`
/// against its cached `(d, j)`. Rows `i > a` never look at column `a`.
// Rows, columns and the per-row vectors share one index.
#[allow(clippy::needless_range_loop)]
// lint: allow(panic-reach, unchecked-arith-reach): every index is a row or column id
// below `n` into the n × n matrix and the per-row vectors the callers size to `n`
fn merge_loop(
    mut dist: Vec<f64>,
    n: usize,
    mut members: Vec<Vec<usize>>,
    linkage: Linkage,
    threshold: f64,
) -> Vec<Vec<usize>> {
    debug_assert_eq!(dist.len(), n * n, "working matrix must be n × n");
    debug_assert_eq!(members.len(), n, "one seed cluster per row");
    let mut active = vec![true; n];
    let mut sizes: Vec<usize> = members.iter().map(Vec::len).collect();
    let nearest_right = |dist: &[f64], active: &[bool], i: usize| {
        let row = &dist[i * n..(i + 1) * n];
        let mut best = (f64::INFINITY, NO_NEIGHBOUR);
        for j in (i + 1)..n {
            if active[j] && row[j] < best.0 {
                best = (row[j], j);
            }
        }
        best
    };
    let mut nn: Vec<(f64, usize)> = (0..n).map(|i| nearest_right(&dist, &active, i)).collect();
    let mut merges = 0u64;

    loop {
        // Find the closest live pair from the cached row minima.
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n {
            let (d, j) = nn[i];
            if !active[i] || j == NO_NEIGHBOUR {
                continue;
            }
            if best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((i, j, d));
            }
        }
        let Some((a, b, d)) = best else { break };
        if d > threshold {
            break;
        }

        // Merge b into a, updating distances via Lance–Williams.
        for k in 0..n {
            if !active[k] || k == a || k == b {
                continue;
            }
            let dak = dist[a * n + k];
            let dbk = dist[b * n + k];
            let merged = match linkage {
                Linkage::Complete => dak.max(dbk),
                Linkage::Single => dak.min(dbk),
                Linkage::Average => {
                    let (sa, sb) = (sizes[a] as f64, sizes[b] as f64);
                    (sa * dak + sb * dbk) / (sa + sb)
                }
            };
            dist[a * n + k] = merged;
            dist[k * n + a] = merged;
        }
        let moved = std::mem::take(&mut members[b]);
        members[a].extend(moved);
        sizes[a] += sizes[b];
        active[b] = false;
        merges += 1;

        // Refresh the neighbour cache.
        for i in 0..n {
            if !active[i] {
                continue;
            }
            let (di, ji) = nn[i];
            if i == a || ji == a || ji == b {
                nn[i] = nearest_right(&dist, &active, i);
            } else if i < a {
                let dia = dist[i * n + a];
                if dia < di || (dia <= di && a < ji) {
                    nn[i] = (dia, a);
                }
            }
        }
    }
    // A path call: `MERGES.add(..)` would resolve by name alone in
    // ccdn-analyze's call graph, to every `add` in the workspace.
    Counter::add(&MERGES, merges);

    let mut clusters: Vec<Vec<usize>> = members
        .into_iter()
        .zip(active)
        .filter(|(_, live)| *live)
        .map(|(mut m, _)| {
            m.sort_unstable();
            m
        })
        .collect();
    clusters.sort_by_key(|c| c[0]);
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn line_matrix(pos: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs())
    }

    const LINKAGES: [Linkage; 3] = [Linkage::Complete, Linkage::Single, Linkage::Average];
    const THRESHOLDS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

    /// The merge loop as it was before the neighbour cache: a full
    /// row-major rescan for the first strict minimum on every merge.
    #[allow(clippy::needless_range_loop)]
    fn rescan_reference(
        distances: &DistanceMatrix,
        linkage: Linkage,
        threshold: f64,
    ) -> Vec<Vec<usize>> {
        let n = distances.len();
        if n == 0 {
            return Vec::new();
        }
        let mut dist = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                dist[i * n + j] = distances.get(i, j);
            }
        }
        let mut active = vec![true; n];
        let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut sizes = vec![1usize; n];
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                for j in (i + 1)..n {
                    if !active[j] {
                        continue;
                    }
                    let d = dist[i * n + j];
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((i, j, d));
                    }
                }
            }
            let Some((a, b, d)) = best else { break };
            if d > threshold {
                break;
            }
            for k in 0..n {
                if !active[k] || k == a || k == b {
                    continue;
                }
                let dak = dist[a * n + k];
                let dbk = dist[b * n + k];
                let merged = match linkage {
                    Linkage::Complete => dak.max(dbk),
                    Linkage::Single => dak.min(dbk),
                    Linkage::Average => {
                        let (sa, sb) = (sizes[a] as f64, sizes[b] as f64);
                        (sa * dak + sb * dbk) / (sa + sb)
                    }
                };
                dist[a * n + k] = merged;
                dist[k * n + a] = merged;
            }
            let moved = std::mem::take(&mut members[b]);
            members[a].extend(moved);
            sizes[a] += sizes[b];
            active[b] = false;
        }
        let mut clusters: Vec<Vec<usize>> = members
            .into_iter()
            .zip(active)
            .filter(|(_, live)| *live)
            .map(|(mut m, _)| {
                m.sort_unstable();
                m
            })
            .collect();
        clusters.sort_by_key(|c| c[0]);
        clusters
    }

    /// An `n`-item matrix whose distances take at most `levels` values
    /// `{0, 0.25, 0.5, ..}`, read from `codes` — tie-heavy, and with
    /// distances sitting exactly on the test thresholds.
    fn quantised_matrix(n: usize, levels: u32, codes: &[u32]) -> DistanceMatrix {
        DistanceMatrix::from_fn(n, |i, j| {
            let code = codes[(i * (i - 1) / 2 + j) % codes.len()];
            f64::from(code % levels) * 0.25
        })
    }

    /// Asserts both clusterers agree with the rescan reference on `dm`
    /// for every linkage and test threshold.
    fn assert_matches_reference(dm: &DistanceMatrix) {
        LINKAGES.iter().flat_map(|&l| THRESHOLDS.map(|t| (l, t))).for_each(|(linkage, t)| {
            let expected = rescan_reference(dm, linkage, t);
            assert_eq!(hierarchical_cluster(dm, linkage, t), expected, "{linkage:?} at {t}");
        });
    }

    #[test]
    fn empty_input_gives_no_clusters() {
        let dm = DistanceMatrix::from_fn(0, |_, _| unreachable!());
        assert!(hierarchical_cluster(&dm, Linkage::Complete, 1.0).is_empty());
    }

    #[test]
    fn singleton_input() {
        let dm = DistanceMatrix::from_fn(1, |_, _| unreachable!());
        assert_eq!(hierarchical_cluster(&dm, Linkage::Complete, 1.0), vec![vec![0]]);
    }

    #[test]
    fn threshold_zero_merges_only_identical() {
        let dm = line_matrix(&[0.0, 0.0, 5.0]);
        let clusters = hierarchical_cluster(&dm, Linkage::Complete, 0.0);
        assert_eq!(clusters, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn huge_threshold_merges_everything() {
        let dm = line_matrix(&[0.0, 3.0, 9.0, 27.0]);
        let clusters = hierarchical_cluster(&dm, Linkage::Complete, 1e9);
        assert_eq!(clusters, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn complete_linkage_caps_intra_cluster_diameter() {
        // A chain 0-1-2-3 with spacing 0.4: single linkage would merge it
        // all at threshold 0.5; complete linkage must keep diameters ≤ 0.5.
        let pos = [0.0, 0.4, 0.8, 1.2];
        let dm = line_matrix(&pos);
        let clusters = hierarchical_cluster(&dm, Linkage::Complete, 0.5);
        for c in &clusters {
            for &i in c {
                for &j in c {
                    assert!(dm.get(i, j) <= 0.5, "pair ({i},{j}) too far in {clusters:?}");
                }
            }
        }
        // Single linkage chains the whole line together.
        let chained = hierarchical_cluster(&dm, Linkage::Single, 0.5);
        assert_eq!(chained, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn average_linkage_sits_between_single_and_complete() {
        let pos = [0.0, 1.0, 2.0, 3.0, 10.0];
        let dm = line_matrix(&pos);
        let single = hierarchical_cluster(&dm, Linkage::Single, 1.0).len();
        let average = hierarchical_cluster(&dm, Linkage::Average, 1.0).len();
        let complete = hierarchical_cluster(&dm, Linkage::Complete, 1.0).len();
        assert!(single <= average && average <= complete);
    }

    #[test]
    fn two_well_separated_blobs() {
        let pos = [0.0, 0.1, 0.2, 8.0, 8.1];
        let dm = line_matrix(&pos);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let clusters = hierarchical_cluster(&dm, linkage, 1.0);
            assert_eq!(clusters, vec![vec![0, 1, 2], vec![3, 4]], "{linkage:?}");
        }
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn negative_threshold_panics() {
        let dm = line_matrix(&[0.0, 1.0]);
        let _ = hierarchical_cluster(&dm, Linkage::Complete, -1.0);
    }

    #[test]
    fn cached_loop_matches_rescan_on_fixed_ties() {
        // All-equal distances: every merge is a tie, broken row-major.
        assert_matches_reference(&DistanceMatrix::from_fn(6, |_, _| 0.5));
        // Two equidistant chains whose merges re-tie after each update.
        assert_matches_reference(&line_matrix(&[0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]));
        assert_matches_reference(&line_matrix(&[0.0, 0.0, 0.0, 1.0, 1.0, 2.0]));
    }

    #[test]
    fn cluster_jaccard_handles_empty_and_singleton_inputs() {
        let none: [Vec<u32>; 0] = [];
        assert!(cluster_jaccard(&none, Linkage::Complete, 0.5).is_empty());
        assert_eq!(cluster_jaccard(&[vec![3u32]], Linkage::Complete, 0.5), vec![vec![0]]);
        assert_eq!(cluster_jaccard(&[Vec::<u32>::new()], Linkage::Single, 0.0), vec![vec![0]]);
    }

    #[test]
    fn cluster_jaccard_groups_empty_and_duplicate_sets() {
        // Two empty sets sit at distance 0, as `1 − jaccard(∅, ∅)` does;
        // an empty set is at distance 1 from every non-empty one.
        let sets: [&[u32]; 5] = [&[], &[1, 2], &[], &[1, 2], &[7]];
        let clusters = cluster_jaccard(&sets, Linkage::Complete, 0.0);
        assert_eq!(clusters, vec![vec![0, 2], vec![1, 3], vec![4]]);
        let all = cluster_jaccard(&sets, Linkage::Complete, 1.0);
        assert_eq!(all, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn cluster_jaccard_rejects_non_finite_threshold() {
        let _ = cluster_jaccard(&[vec![1u32], vec![2]], Linkage::Complete, f64::NAN);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_cached_loop_matches_rescan_on_quantised_ties(
            n in 0usize..41,
            levels in 1u32..8,
            codes in prop::collection::vec(0u32..7, 780),
        ) {
            assert_matches_reference(&quantised_matrix(n, levels, &codes));
        }

        #[test]
        fn prop_cached_loop_matches_rescan_on_random_thresholds(
            pos in prop::collection::vec(0.0f64..10.0, 0..30),
            linkage in prop::sample::select(LINKAGES.to_vec()),
            threshold in 0.0f64..6.0,
        ) {
            let dm = line_matrix(&pos);
            prop_assert_eq!(
                hierarchical_cluster(&dm, linkage, threshold),
                rescan_reference(&dm, linkage, threshold)
            );
        }

        #[test]
        fn prop_cluster_jaccard_matches_the_packed_matrix_path(
            universe in 1u32..13,
            raw in prop::collection::vec(prop::collection::btree_set(0u32..12, 0..6), 0..60),
            cut in 0.0f64..=1.0,
            pair in (0usize..60, 0usize..60),
        ) {
            // A universe of at most 12 elements makes empty, duplicate and
            // nested sets common; a small one makes groups of three or more
            // identical sets common too, where average linkage's refold
            // starts to differ from the plain distance.
            let sets: Vec<Vec<u32>> = raw
                .iter()
                .map(|s| s.iter().map(|e| e % universe).collect::<BTreeSet<u32>>())
                .map(|s| s.into_iter().collect())
                .collect();
            let n = sets.len();
            let dm = DistanceMatrix::from_fn(n, |i, j| 1.0 - jaccard(&sets[i], &sets[j]));
            // Besides the fixed cuts: one drawn from [0, 1], and one sitting
            // exactly on a distance of the matrix, where one bit of
            // difference in a merged distance flips the merge.
            let on_a_distance = if n == 0 { 0.0 } else { dm.get(pair.0 % n, pair.1 % n) };
            let cuts = THRESHOLDS.into_iter().chain([cut, on_a_distance]);
            LINKAGES.iter().flat_map(|&l| cuts.clone().map(move |t| (l, t))).for_each(|(linkage, t)| {
                let expected = rescan_reference(&dm, linkage, t);
                assert_eq!(hierarchical_cluster(&dm, linkage, t), expected, "{linkage:?} at {t}");
                assert_eq!(cluster_jaccard(&sets, linkage, t), expected, "{linkage:?} at {t}");
            });
        }
    }

    proptest! {
        #[test]
        fn prop_partition_is_exact(
            pos in prop::collection::vec(0.0f64..100.0, 0..30),
            threshold in 0.0f64..50.0,
        ) {
            let dm = line_matrix(&pos);
            let clusters = hierarchical_cluster(&dm, Linkage::Complete, threshold);
            // Every item appears exactly once.
            let mut seen: Vec<usize> = clusters.iter().flatten().copied().collect();
            seen.sort_unstable();
            let expected: Vec<usize> = (0..pos.len()).collect();
            prop_assert_eq!(seen, expected);
        }

        #[test]
        fn prop_complete_linkage_diameter_bound(
            pos in prop::collection::vec(0.0f64..10.0, 1..25),
            threshold in 0.0f64..5.0,
        ) {
            let dm = line_matrix(&pos);
            let clusters = hierarchical_cluster(&dm, Linkage::Complete, threshold);
            for c in &clusters {
                for &i in c {
                    for &j in c {
                        prop_assert!(dm.get(i, j) <= threshold + 1e-9);
                    }
                }
            }
        }

        #[test]
        fn prop_single_linkage_merges_all_close_pairs(
            pos in prop::collection::vec(0.0f64..10.0, 1..20),
            threshold in 0.01f64..5.0,
        ) {
            let dm = line_matrix(&pos);
            let clusters = hierarchical_cluster(&dm, Linkage::Single, threshold);
            // Under single linkage, two items closer than the threshold
            // can never end up in different clusters.
            let cluster_of = |x: usize| clusters.iter().position(|c| c.contains(&x)).unwrap();
            for i in 0..pos.len() {
                for j in (i + 1)..pos.len() {
                    if dm.get(i, j) <= threshold {
                        prop_assert_eq!(cluster_of(i), cluster_of(j));
                    }
                }
            }
        }
    }
}
