use crate::VideoId;
use ccdn_stats::Zipf;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A video catalog with global Zipf popularity and per-cluster locality.
///
/// Globally, video popularity follows Zipf(α) — the 80/20-style
/// concentration the paper cites. But the paper's key measurement (§II-B,
/// Fig. 3b) is that popularity *differs from place to place*: the content
/// requested at nearby hotspots overlaps only partially (Jaccard of the
/// Top-20 % sets spread over ≈0.1–0.8) because each hotspot sees a small
/// local population \[9\]. The catalog reproduces this by giving every
/// population cluster its own **seeded permutation** of the rank→video
/// mapping and blending it with the global mapping:
///
/// - with probability `1 − locality` a request's video is
///   `global_perm[rank]`,
/// - with probability `locality` it is `cluster_perm[rank]`,
///
/// where `rank` is a fresh Zipf draw. `locality = 0` makes every cluster
/// identical (conventional-CDN-like similarity ≈ 1); `locality = 1` makes
/// clusters nearly disjoint. Intermediate values produce the paper's
/// diverse similarity range.
///
/// # Examples
///
/// ```
/// use ccdn_trace::VideoCatalog;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let catalog = VideoCatalog::new(1000, 0.8, 0.5, 99);
/// let mut rng = StdRng::seed_from_u64(1);
/// let v = catalog.sample(Some(3), &mut rng);
/// assert!((v.0 as usize) < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct VideoCatalog {
    count: usize,
    zipf: Zipf,
    locality: f64,
    seed: u64,
    global_perm: Vec<u32>,
}

impl VideoCatalog {
    /// Creates a catalog of `count` videos with Zipf exponent
    /// `zipf_alpha`, locality blend `locality ∈ [0, 1]`, and a base
    /// `seed` for the per-cluster permutations.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`, `zipf_alpha` is invalid, or `locality` is
    /// outside `[0, 1]`.
    pub fn new(count: usize, zipf_alpha: f64, locality: f64, seed: u64) -> Self {
        assert!(count > 0, "catalog must be non-empty");
        assert!((0.0..=1.0).contains(&locality), "locality must be in [0, 1]");
        // lint: allow(no-panic): documented panic — the constructor's contract rejects invalid alpha
        let zipf = Zipf::new(count, zipf_alpha).expect("valid zipf parameters");
        let global_perm = permutation(count, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        VideoCatalog { count, zipf, locality, seed, global_perm }
    }

    /// Number of videos.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the catalog is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The locality blend factor.
    pub fn locality(&self) -> f64 {
        self.locality
    }

    /// The effective locality of `cluster`: the configured blend scaled by
    /// a deterministic per-cluster factor in `[0, 2]` (clamped to 1), so
    /// some neighbourhoods have mainstream tastes (sharing the global
    /// popularity head — the high-similarity tail of the paper's Fig. 3b)
    /// while others are strongly niche (the low end).
    pub fn cluster_locality(&self, cluster: usize) -> f64 {
        let u = mix(cluster as u64 + 1, self.seed.rotate_left(7)) as f64 / u64::MAX as f64;
        (2.0 * self.locality * u).min(1.0)
    }

    /// Samples a video for a request attributed to `cluster` (`None` for
    /// background traffic, which always uses the global popularity).
    pub fn sample<R: Rng + ?Sized>(&self, cluster: Option<usize>, rng: &mut R) -> VideoId {
        self.sample_with_locality(cluster.map(|c| (c, self.cluster_locality(c))), rng)
    }

    /// [`sample`](Self::sample) for a cluster whose
    /// [`cluster_locality`](Self::cluster_locality) the caller computed
    /// once, instead of once per request: the same draws and the same
    /// video.
    // lint: allow(panic-reach): `rank` is a draw of the catalog's own Zipf over `0..count`, the length of `global_perm` and the domain of `permuted_rank`
    pub(crate) fn sample_with_locality<R: Rng + ?Sized>(
        &self,
        cluster: Option<(usize, f64)>,
        rng: &mut R,
    ) -> VideoId {
        // A path call: `.sample(..)` would resolve by name alone in
        // ccdn-analyze's call graph, to every `sample` in the workspace.
        let rank = Zipf::sample(&self.zipf, rng);
        match cluster {
            Some((c, locality)) if rng.gen_range(0.0..1.0) < locality => {
                // Per-cluster permutation, computed lazily from the seed.
                // Only the sampled rank is needed, so derive it directly
                // instead of materializing the full permutation.
                VideoId(self.permuted_rank(c, rank))
            }
            _ => VideoId(self.global_perm[rank]),
        }
    }

    /// Element `rank` of cluster `c`'s permutation.
    ///
    /// Uses a Feistel-style format-preserving shuffle so that a single
    /// element costs O(1) instead of materializing O(count) memory per
    /// cluster per call.
    fn permuted_rank(&self, cluster: usize, rank: usize) -> u32 {
        // Cycle-walking Feistel permutation over [0, count).
        let bits = usize::BITS - (self.count - 1).leading_zeros();
        // Round up to an even bit count so both Feistel halves have the
        // same width (a requirement for bijectivity).
        let bits = (bits.max(2) + 1) & !1;
        let half = bits / 2;
        let mask_low = (1u64 << half) - 1;
        let key = self.seed ^ (cluster as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
        let mut x = rank as u64;
        loop {
            // 4 Feistel rounds.
            let (mut l, mut r) = (x >> half, x & mask_low);
            for round in 0..4u64 {
                let f = mix(r ^ key.wrapping_add(round.wrapping_mul(0x9E37_79B9)), key) & mask_low;
                let nl = r;
                r = l ^ f;
                l = nl;
            }
            x = (l << half) | r;
            if (x as usize) < self.count {
                return x as u32;
            }
        }
    }

    /// The `n` globally most popular videos, most popular first.
    pub fn global_top(&self, n: usize) -> Vec<VideoId> {
        (0..n.min(self.count)).map(|rank| VideoId(self.global_perm[rank])).collect()
    }

    /// The `n` most popular videos of `cluster` under its local
    /// permutation (the same mapping [`sample`](Self::sample) draws from),
    /// most popular first.
    pub fn cluster_top(&self, cluster: usize, n: usize) -> Vec<VideoId> {
        (0..n.min(self.count)).map(|rank| VideoId(self.permuted_rank(cluster, rank))).collect()
    }
}

fn mix(v: u64, key: u64) -> u64 {
    let mut h = v ^ key.rotate_left(17);
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 29)
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn samples_are_in_range() {
        let c = VideoCatalog::new(500, 0.8, 0.5, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2000 {
            assert!((c.sample(Some(0), &mut rng).0 as usize) < 500);
            assert!((c.sample(None, &mut rng).0 as usize) < 500);
        }
    }

    #[test]
    fn zero_locality_ignores_cluster() {
        let c = VideoCatalog::new(200, 1.0, 0.0, 7);
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            assert_eq!(c.sample(Some(5), &mut r1), c.sample(Some(9), &mut r2));
        }
    }

    #[test]
    fn full_locality_differs_across_clusters() {
        // With locality 1 and a strongly skewed Zipf, cluster 0's top
        // videos and cluster 1's top videos should barely overlap.
        let c = VideoCatalog::new(1000, 1.2, 1.0, 11);
        let mut rng = StdRng::seed_from_u64(5);
        let sample_top = |cluster: usize, rng: &mut StdRng| {
            let mut counts = std::collections::BTreeMap::new();
            for _ in 0..3000 {
                *counts.entry(c.sample(Some(cluster), rng)).or_insert(0usize) += 1;
            }
            let mut v: Vec<_> = counts.into_iter().collect();
            v.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
            v.into_iter().take(20).map(|(id, _)| id).collect::<BTreeSet<_>>()
        };
        let a = sample_top(0, &mut rng);
        let b = sample_top(1, &mut rng);
        let inter = a.intersection(&b).count();
        assert!(inter < 8, "top sets overlap too much: {inter}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation(257, 99);
        let mut seen = vec![false; 257];
        for &v in &p {
            assert!(!seen[v as usize], "duplicate {v}");
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn feistel_permuted_rank_is_a_bijection() {
        let c = VideoCatalog::new(300, 0.8, 1.0, 4);
        for cluster in 0..3 {
            let mut seen = vec![false; 300];
            for rank in 0..300 {
                let v = c.permuted_rank(cluster, rank) as usize;
                assert!(v < 300);
                assert!(!seen[v], "cluster {cluster} rank {rank} collides");
                seen[v] = true;
            }
        }
    }

    #[test]
    fn cluster_tops_are_deterministic() {
        let c = VideoCatalog::new(100, 0.8, 1.0, 21);
        assert_eq!(c.cluster_top(2, 10), c.cluster_top(2, 10));
        assert_eq!(c.global_top(5).len(), 5);
        assert_eq!(c.global_top(1000).len(), 100);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_catalog_panics() {
        let _ = VideoCatalog::new(0, 1.0, 0.5, 1);
    }

    #[test]
    #[should_panic(expected = "locality")]
    fn bad_locality_panics() {
        let _ = VideoCatalog::new(10, 1.0, 1.5, 1);
    }
}
