/// Jaccard similarity coefficient of two **sorted, deduplicated** id
/// slices: `|A ∩ B| / |A ∪ B|` (Eq. 1 of the paper).
///
/// Two empty sets have similarity 1 (they are identical); one empty and
/// one non-empty set have similarity 0.
///
/// The paper computes this over the Top-20 % content sets of hotspot pairs
/// (Fig. 3b) and derives the clustering distance `Jd = 1 − Jaccard`
/// (Eq. 13).
///
/// # Panics
///
/// Debug-asserts that both inputs are strictly increasing (sorted and
/// deduplicated); in release builds unsorted input silently produces a
/// wrong answer, so construct inputs with [`sort`](slice::sort_unstable)
/// + [`dedup`](Vec::dedup).
///
/// # Examples
///
/// ```
/// use ccdn_cluster::jaccard;
///
/// assert_eq!(jaccard::<u32>(&[], &[]), 1.0);
/// assert_eq!(jaccard(&[1, 2, 3], &[2, 3, 4]), 0.5);
/// assert_eq!(jaccard(&[1], &[2]), 0.0);
/// ```
pub fn jaccard<T: Ord>(a: &[T], b: &[T]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "first set must be sorted+dedup");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "second set must be sorted+dedup");
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (inter, union) = jaccard_counts(a, b);
    inter as f64 / union as f64
}

/// Intersection and union sizes of two sorted, deduplicated id slices.
///
/// Exposed separately because RBCAer's replication accounting wants the raw
/// counts, not just the ratio.
///
/// # Examples
///
/// ```
/// use ccdn_cluster::jaccard_counts;
///
/// assert_eq!(jaccard_counts(&[1, 2, 3], &[2, 3, 4]), (2, 4));
/// ```
pub fn jaccard_counts<T: Ord>(a: &[T], b: &[T]) -> (usize, usize) {
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (inter, a.len() + b.len() - inter)
}

/// The dense row-major `n × n` matrix of `Jd(i, j) = 1 − jaccard(sets[i],
/// sets[j])`, zero on the diagonal — the working matrix
/// [`cluster_jaccard`](crate::cluster_jaccard) clusters.
///
/// Sorting the `(element, set)` postings lists each element's sets in
/// ascending order, and every pair `lo < hi` inside one element's run
/// adds one to entry `(lo, hi)`. Each count then becomes
/// `1 − inter / union` with `union = |A| + |B| − inter`: the integers of
/// [`jaccard_counts`], so the same bits as [`jaccard`], and distance 0
/// between two empty sets. No second `n²`-sized buffer is allocated.
// lint: allow(panic-reach): set ids index rows and columns of the n × n matrix and are
// below n by construction
pub(crate) fn jaccard_distance_rows<T: Ord, S: AsRef<[T]>>(sets: &[S]) -> Vec<f64> {
    let n = sets.len();
    let mut postings: Vec<(&T, usize)> =
        Vec::with_capacity(sets.iter().map(|s| s.as_ref().len()).sum());
    for (s, set) in sets.iter().enumerate() {
        let set = set.as_ref();
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set {s} must be sorted+dedup");
        postings.extend(set.iter().map(|e| (e, s)));
    }
    postings.sort_unstable();

    // A cell count that overflows could not be allocated either.
    let mut dist = vec![0.0f64; n.saturating_mul(n)];
    let mut rows: Vec<&mut [f64]> = dist.chunks_exact_mut(n.max(1)).collect();
    for mut run in postings.chunk_by(|x, y| x.0 == y.0) {
        while let [(_, lo), tail @ ..] = run {
            for &(_, hi) in tail {
                rows[*lo][hi] += 1.0;
            }
            run = tail;
        }
    }
    for lo in 0..n {
        let len_lo = sets[lo].as_ref().len();
        for hi in (lo + 1)..n {
            let inter = rows[lo][hi];
            let union = (len_lo + sets[hi].as_ref().len()) as f64 - inter;
            let d = if union > 0.0 { 1.0 - inter / union } else { 0.0 };
            rows[lo][hi] = d;
            rows[hi][lo] = d;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn identical_sets_have_similarity_one() {
        assert_eq!(jaccard(&[3, 7, 9], &[3, 7, 9]), 1.0);
    }

    #[test]
    fn disjoint_sets_have_similarity_zero() {
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
    }

    #[test]
    fn empty_vs_nonempty_is_zero() {
        assert_eq!(jaccard::<u32>(&[], &[1]), 0.0);
        assert_eq!(jaccard::<u32>(&[5], &[]), 0.0);
    }

    #[test]
    fn both_empty_is_one() {
        assert_eq!(jaccard::<u32>(&[], &[]), 1.0);
    }

    #[test]
    fn paper_equation_example() {
        // |{2,3}| / |{1,2,3,4}| = 0.5
        assert_eq!(jaccard(&[1, 2, 3], &[2, 3, 4]), 0.5);
    }

    #[test]
    fn counts_expose_intersection_and_union() {
        assert_eq!(jaccard_counts(&[1, 3, 5, 7], &[3, 4, 5]), (2, 5));
        assert_eq!(jaccard_counts::<u32>(&[], &[]), (0, 0));
    }

    #[test]
    fn works_with_string_ids() {
        let a = ["alpha", "beta"];
        let b = ["beta", "gamma"];
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_matches_btreeset_reference(
            a in prop::collection::btree_set(0u32..200, 0..40),
            b in prop::collection::btree_set(0u32..200, 0..40),
        ) {
            let av: Vec<u32> = a.iter().copied().collect();
            let bv: Vec<u32> = b.iter().copied().collect();
            let inter = a.intersection(&b).count();
            let union = a.union(&b).count();
            let expected = if union == 0 { 1.0 } else { inter as f64 / union as f64 };
            prop_assert!((jaccard(&av, &bv) - expected).abs() < 1e-12);
            if union > 0 {
                prop_assert_eq!(jaccard_counts(&av, &bv), (inter, union));
            }
        }

        #[test]
        fn prop_distance_rows_match_jaccard_bit_for_bit(
            raw in prop::collection::vec(prop::collection::btree_set(0u32..16, 0..8), 0..24),
        ) {
            let sets: Vec<Vec<u32>> = raw.iter().map(|s| s.iter().copied().collect()).collect();
            let n = sets.len();
            let rows = jaccard_distance_rows(&sets);
            prop_assert_eq!(rows.len(), n * n);
            for (k, &d) in rows.iter().enumerate() {
                let (i, j) = (k / n, k % n);
                let expected = if i == j { 0.0 } else { 1.0 - jaccard(&sets[i], &sets[j]) };
                prop_assert_eq!(d.to_bits(), expected.to_bits(), "entry ({}, {})", i, j);
            }
        }

        #[test]
        fn prop_symmetric_and_bounded(
            a in prop::collection::btree_set(0u32..100, 0..30),
            b in prop::collection::btree_set(0u32..100, 0..30),
        ) {
            let av: Vec<u32> = a.iter().copied().collect();
            let bv: Vec<u32> = b.iter().copied().collect();
            let s1 = jaccard(&av, &bv);
            let s2 = jaccard(&bv, &av);
            prop_assert_eq!(s1, s2);
            prop_assert!((0.0..=1.0).contains(&s1));
        }

        #[test]
        fn prop_jd_satisfies_triangle_inequality(
            a in prop::collection::btree_set(0u32..40, 0..15),
            b in prop::collection::btree_set(0u32..40, 0..15),
            c in prop::collection::btree_set(0u32..40, 0..15),
        ) {
            // Jaccard distance is a metric; RBCAer's clustering relies on
            // it behaving sensibly.
            let to_vec = |s: &BTreeSet<u32>| s.iter().copied().collect::<Vec<_>>();
            let (av, bv, cv) = (to_vec(&a), to_vec(&b), to_vec(&c));
            let d = |x: &[u32], y: &[u32]| 1.0 - jaccard(x, y);
            prop_assert!(d(&av, &cv) <= d(&av, &bv) + d(&bv, &cv) + 1e-12);
        }
    }
}
