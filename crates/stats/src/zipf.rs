use crate::GuidedCdf;
use rand::Rng;

/// A Zipf(α) distribution over ranks `0..n`, sampled by an inverse-CDF
/// [`GuidedCdf`] lookup over precomputed cumulative weights.
///
/// Rank 0 is the most popular item; item `k` has unnormalized weight
/// `1 / (k + 1)^α`. Video popularity in the synthetic trace substrate uses
/// this law — the paper notes video popularity follows the 80/20 Pareto
/// rule (§II-B footnote), which a Zipf exponent around 0.8–1.0 reproduces.
///
/// # Examples
///
/// ```
/// use ccdn_stats::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = Zipf::new(1000, 0.8).unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: GuidedCdf,
    exponent: f64,
}

/// Error returned by [`Zipf::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZipfError {
    /// `n` was zero.
    EmptySupport,
    /// The exponent was negative, NaN, or infinite.
    BadExponent,
    /// `n` exceeded `u32::MAX`, more ranks than the sampler's guide indexes.
    SupportTooLarge,
}

impl std::fmt::Display for ZipfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZipfError::EmptySupport => write!(f, "zipf support must be non-empty"),
            ZipfError::BadExponent => write!(f, "zipf exponent must be finite and non-negative"),
            ZipfError::SupportTooLarge => write!(f, "zipf support must be at most u32::MAX"),
        }
    }
}

impl std::error::Error for ZipfError {}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `alpha`.
    ///
    /// `alpha = 0` degenerates to the uniform distribution.
    ///
    /// # Errors
    ///
    /// Returns an error when `n == 0`, `n > u32::MAX`, or `alpha` is
    /// negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Result<Self, ZipfError> {
        if n == 0 {
            return Err(ZipfError::EmptySupport);
        }
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(ZipfError::BadExponent);
        }
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cumulative.push(acc);
        }
        // Every weight is finite and positive for rank 0 and non-negative
        // after it, so only the length can be rejected.
        let cdf = GuidedCdf::new(cumulative).map_err(|_| ZipfError::SupportTooLarge)?;
        Ok(Zipf { cdf, exponent: alpha })
    }

    /// Number of ranks in the support.
    pub fn support_len(&self) -> usize {
        self.cdf.cumulative().len()
    }

    /// The exponent `α`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability mass of rank `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        let cumulative = self.cdf.cumulative();
        let prev = if k == 0 { 0.0 } else { cumulative[k - 1] };
        (cumulative[k] - prev) / self.cdf.total()
    }

    /// Samples a rank in `0..support_len()`; rank 0 is the most popular.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        // A path call: `.sample(..)` would resolve by name alone in
        // ccdn-analyze's call graph, to every `sample` in the workspace.
        GuidedCdf::sample(&self.cdf, rng)
    }

    /// Smallest number of top ranks whose combined mass reaches `mass`.
    ///
    /// E.g. `head_count(0.8)` answers "how many of the most popular videos
    /// capture 80 % of requests" — the Pareto-style check the paper uses to
    /// justify Top-20 % content sets.
    ///
    /// # Panics
    ///
    /// Panics if `mass` is outside `[0, 1]`.
    pub fn head_count(&self, mass: f64) -> usize {
        assert!((0.0..=1.0).contains(&mass), "mass must be in [0, 1]");
        let total = self.cdf.total();
        self.cdf.cumulative().partition_point(|&c| c < mass * total) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn invalid_parameters_error() {
        assert!(matches!(Zipf::new(0, 1.0), Err(ZipfError::EmptySupport)));
        assert!(matches!(Zipf::new(10, -1.0), Err(ZipfError::BadExponent)));
        assert!(matches!(Zipf::new(10, f64::NAN), Err(ZipfError::BadExponent)));
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 0.8).unwrap();
        let sum: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pmf_is_monotone_decreasing() {
        let z = Zipf::new(50, 1.2).unwrap();
        for k in 1..50 {
            assert!(z.pmf(k) <= z.pmf(k - 1));
        }
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0).unwrap();
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_stay_in_support() {
        let z = Zipf::new(7, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn sampling_matches_pmf_roughly() {
        let z = Zipf::new(20, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let n = 200_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in 0..20 {
            let freq = counts[k] as f64 / n as f64;
            assert!((freq - z.pmf(k)).abs() < 0.01, "rank {k}: freq {freq} pmf {}", z.pmf(k));
        }
    }

    #[test]
    fn head_captures_majority_of_mass() {
        // With α≈1 and 1000 items, a small head captures most of the mass
        // (the 80/20-style concentration the paper relies on).
        let z = Zipf::new(1000, 1.0).unwrap();
        let head = z.head_count(0.8);
        assert!(head < 400, "head of 80% mass was {head}");
        // ... and head_count is consistent with pmf sums.
        let mass: f64 = (0..head).map(|k| z.pmf(k)).sum();
        assert!(mass >= 0.8 - 1e-9);
    }

    #[test]
    fn head_count_extremes() {
        let z = Zipf::new(10, 1.0).unwrap();
        assert_eq!(z.head_count(0.0), 1);
        assert_eq!(z.head_count(1.0), 10);
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(100, 0.9).unwrap();
        let a: Vec<usize> =
            (0..50).scan(StdRng::seed_from_u64(5), |r, _| Some(z.sample(r))).collect();
        let b: Vec<usize> =
            (0..50).scan(StdRng::seed_from_u64(5), |r, _| Some(z.sample(r))).collect();
        assert_eq!(a, b);
    }
}
