use rand::Rng;
use std::fmt;

/// A cumulative-weight array with a bucket guide for inverse-transform
/// sampling: [`index_of`](GuidedCdf::index_of) returns exactly
/// `cumulative.partition_point(|&c| c <= u)`, but searches only the few
/// entries one guide bucket brackets.
///
/// The guide splits `[0, total)` into as many equal buckets as there are
/// entries. Bucket `b` of a value `u` is `⌊u · m / total⌋`, clamped to
/// the last bucket, and the guide stores for every bucket the number of
/// entries that map to lower buckets: the answer for any `u` in bucket
/// `b` lies between `guide[b]` and `guide[b + 1]`.
///
/// **Why the lookup is exact.** It does not trust the float arithmetic
/// that built the guide. Before searching the bracket `[lo, hi)` it checks
/// it against the array itself: `cumulative[lo − 1] ≤ u` (or `lo = 0`)
/// puts the full search's answer at or above `lo`, and
/// `cumulative[hi] > u` (or `hi = n`) puts it at or below `hi`. The array
/// is nondecreasing, so `c ≤ u` holds on a prefix of it, and a prefix of
/// the bracket too: the bracket's partition point plus `lo` is the full
/// partition point. A bracket that fails the check falls back to the full
/// search (a monotone bucket map never produces one).
///
/// # Examples
///
/// ```
/// use ccdn_stats::GuidedCdf;
///
/// let cdf = GuidedCdf::new(vec![1.0, 1.0, 3.0, 6.0]).unwrap();
/// for u in [0.0, 0.5, 1.0, 2.9, 3.0, 5.99, 6.0, 7.0] {
///     assert_eq!(cdf.index_of(u), cdf.cumulative().partition_point(|&c| c <= u));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct GuidedCdf {
    cumulative: Vec<f64>,
    /// `guide[b]`: entries whose bucket is below `b`; one more slot than
    /// buckets, the last holding the entry count.
    guide: Vec<u32>,
    /// Buckets per unit of weight: bucket count times the reciprocal of
    /// the total weight.
    scale: f64,
}

/// Error returned by [`GuidedCdf::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuidedCdfError {
    /// The array was empty.
    Empty,
    /// An entry was NaN or infinite.
    NonFinite,
    /// The entries were not a cumulative sum of non-negative weights:
    /// the first was negative, or one was smaller than its predecessor.
    NotCumulative,
    /// The array had more entries than the guide's `u32` indices reach.
    TooLong,
}

impl fmt::Display for GuidedCdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuidedCdfError::Empty => write!(f, "cumulative weights must be non-empty"),
            GuidedCdfError::NonFinite => write!(f, "cumulative weights must be finite"),
            GuidedCdfError::NotCumulative => {
                write!(f, "cumulative weights must start non-negative and never decrease")
            }
            GuidedCdfError::TooLong => write!(f, "more than u32::MAX cumulative weights"),
        }
    }
}

impl std::error::Error for GuidedCdfError {}

impl GuidedCdf {
    /// Builds the guide over `cumulative`, the running sums of a
    /// sequence of non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns a [`GuidedCdfError`] when `cumulative` is empty, holds a
    /// non-finite entry, starts negative or decreases anywhere, or is
    /// longer than `u32::MAX`.
    pub fn new(cumulative: Vec<f64>) -> Result<Self, GuidedCdfError> {
        let (Some(&first), Some(&total)) = (cumulative.first(), cumulative.last()) else {
            return Err(GuidedCdfError::Empty);
        };
        if cumulative.iter().any(|c| !c.is_finite()) {
            return Err(GuidedCdfError::NonFinite);
        }
        if first < 0.0 || cumulative.iter().zip(cumulative.iter().skip(1)).any(|(prev, c)| c < prev)
        {
            return Err(GuidedCdfError::NotCumulative);
        }
        let n = u32::try_from(cumulative.len()).map_err(|_| GuidedCdfError::TooLong)?;
        let scale = f64::from(n) * total.recip();
        let mut guide = Vec::with_capacity(cumulative.len().saturating_add(1));
        let mut below = 0u32;
        let mut buckets = cumulative.iter().map(|&c| bucket(c, scale, n)).peekable();
        for b in 0..=n {
            while buckets.next_if(|&entry_bucket| entry_bucket < b).is_some() {
                below = below.saturating_add(1);
            }
            guide.push(below);
        }
        Ok(GuidedCdf { cumulative, guide, scale })
    }

    /// The cumulative weights, as given to [`GuidedCdf::new`].
    pub fn cumulative(&self) -> &[f64] {
        &self.cumulative
    }

    /// The total weight: the last cumulative entry.
    pub fn total(&self) -> f64 {
        self.cumulative.last().copied().unwrap_or(0.0)
    }

    /// Exactly `self.cumulative().partition_point(|&c| c <= u)`, for every
    /// `u` (NaN included): the index of the first entry above `u`.
    pub fn index_of(&self, u: f64) -> usize {
        let cumulative = self.cumulative.as_slice();
        // `new` builds one guide entry more than there are buckets.
        let buckets = self.guide.len().saturating_sub(1) as u32;
        let mut ends = self.guide.iter().skip(bucket(u, self.scale, buckets) as usize);
        if let (Some(&lo), Some(&hi)) = (ends.next(), ends.next()) {
            if let Some((head, above)) = cumulative.split_at_checked(hi as usize) {
                if let Some((below, bracket)) = head.split_at_checked(lo as usize) {
                    // The check: the answer is at least `lo` and at most `hi`.
                    if below.last().is_none_or(|&c| c <= u) && above.first().is_none_or(|&c| c > u)
                    {
                        return below.len().saturating_add(bracket.partition_point(|&c| c <= u));
                    }
                }
            }
        }
        cumulative.partition_point(|&c| c <= u)
    }

    /// Draws `u` uniformly from `[0, total)` and returns
    /// [`index_of(u)`](Self::index_of): entry `i` with probability
    /// proportional to its weight `cumulative[i] − cumulative[i − 1]`.
    ///
    /// # Panics
    ///
    /// Panics when the total weight is zero (the range is empty).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.index_of(rng.gen_range(0.0..self.total()))
    }
}

/// Bucket of `value` among `buckets` (at least one): `⌊value · scale⌋`,
/// clamped to `0..buckets`. Monotone in `value`, since IEEE
/// multiplication by a positive `scale` and the saturating float-to-int
/// cast both are; NaN maps to bucket 0.
fn bucket(value: f64, scale: f64, buckets: u32) -> u32 {
    ((value * scale) as u32).min(buckets.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference(cumulative: &[f64], u: f64) -> usize {
        cumulative.partition_point(|&c| c <= u)
    }

    /// Every value at which the answer can change, and its neighbours:
    /// the entries themselves, one ulp either side of each, the bucket
    /// edges `b / scale` and their neighbours, and the ends of the range.
    fn probes(cdf: &GuidedCdf) -> Vec<f64> {
        let mut probes = vec![f64::NEG_INFINITY, -1.0, -0.0, 0.0, f64::INFINITY, f64::NAN];
        for &c in &cdf.cumulative {
            probes.extend([c.next_down(), c, c.next_up()]);
        }
        for b in 0..cdf.guide.len() {
            let edge = b as f64 / cdf.scale;
            probes.extend([edge.next_down(), edge, edge.next_up()]);
        }
        probes
    }

    fn assert_exact(cdf: &GuidedCdf) {
        for u in probes(cdf) {
            assert_eq!(cdf.index_of(u), reference(&cdf.cumulative, u), "u = {u:e}");
        }
    }

    #[test]
    fn invalid_arrays_error() {
        assert_eq!(GuidedCdf::new(vec![]).unwrap_err(), GuidedCdfError::Empty);
        assert_eq!(GuidedCdf::new(vec![1.0, f64::NAN]).unwrap_err(), GuidedCdfError::NonFinite);
        assert_eq!(GuidedCdf::new(vec![f64::INFINITY]).unwrap_err(), GuidedCdfError::NonFinite);
        assert_eq!(GuidedCdf::new(vec![-1.0, 2.0]).unwrap_err(), GuidedCdfError::NotCumulative);
        assert_eq!(GuidedCdf::new(vec![2.0, 1.0]).unwrap_err(), GuidedCdfError::NotCumulative);
    }

    #[test]
    fn single_entry_and_all_zero_weights_are_exact() {
        assert_exact(&GuidedCdf::new(vec![3.5]).unwrap());
        assert_exact(&GuidedCdf::new(vec![0.0]).unwrap());
        assert_exact(&GuidedCdf::new(vec![0.0, 0.0, 0.0]).unwrap());
        assert_exact(&GuidedCdf::new(vec![0.0, 0.0, 1.0, 1.0, 1.0, 2.0]).unwrap());
    }

    #[test]
    fn subnormal_total_is_exact() {
        // `scale` overflows to infinity: every positive value lands in
        // the last bucket, and the bracket check still holds.
        let tiny = f64::from_bits(1);
        assert_exact(&GuidedCdf::new(vec![0.0, tiny, tiny, 2.0 * tiny]).unwrap());
    }

    #[test]
    fn sample_draws_the_partition_point_of_a_uniform_draw() {
        use rand::{rngs::StdRng, SeedableRng};
        let cumulative = vec![1.0, 1.5, 4.0, 4.0, 9.0];
        let cdf = GuidedCdf::new(cumulative.clone()).unwrap();
        let (mut a, mut b) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
        for _ in 0..1_000 {
            let expect = reference(&cumulative, b.gen_range(0.0..9.0));
            assert_eq!(cdf.sample(&mut a), expect);
        }
    }

    /// Cumulative sums of weights drawn from a mix of zeros (repeated
    /// entries), subnormal, ordinary and huge values.
    fn cumulative_strategy() -> impl Strategy<Value = Vec<f64>> {
        let weight = (0u8..5, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
            0 => 0.0,
            1 => x * 1e-310,
            2 => x,
            3 => 1.0 + 49.0 * x,
            _ => 1e12 * (1.0 + 999.0 * x),
        });
        prop::collection::vec(weight, 1..300).prop_map(|weights| {
            weights
                .iter()
                .scan(0.0, |acc, w| {
                    *acc += w;
                    Some(*acc)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The guided lookup equals `partition_point` at every entry, one
        /// ulp either side of it, at and around every bucket edge, and at
        /// random points.
        #[test]
        fn prop_guided_lookup_matches_partition_point(
            cumulative in cumulative_strategy(),
            unit in prop::collection::vec(0.0f64..1.0, 0..64),
        ) {
            let cdf = GuidedCdf::new(cumulative.clone()).unwrap();
            for u in probes(&cdf) {
                prop_assert_eq!(cdf.index_of(u), reference(&cumulative, u), "u = {:e}", u);
            }
            let total = cdf.total();
            for x in unit {
                let u = x * total;
                prop_assert_eq!(cdf.index_of(u), reference(&cumulative, u), "u = {:e}", u);
            }
        }
    }
}
