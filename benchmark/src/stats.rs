//! Order statistics over timing samples.
//!
//! Quantiles use the "exclusive" interpolation of Python's
//! `statistics.quantiles` (positions `i·(n+1)/100`, clamped to the sample
//! range), so the quartiles `--compare` prints are the ones
//! `statistics.quantiles(values, n=4)` gives for the same runs.

use std::fmt;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Median and quartiles of one sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        if sorted.is_empty() {
            return None;
        }
        Some(Summary {
            count: sorted.len(),
            median: median_sorted(&sorted),
            q1: quantile_sorted(&sorted, 25),
            q3: quantile_sorted(&sorted, 75),
        })
    }
}

/// A percentile the sample cannot support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    pub pct: u32,
    pub count: usize,
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples has {} beyond it; at least {MIN_TAIL} are needed",
            self.pct, self.count, self.beyond
        )
    }
}

/// Median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    median_sorted(&sorted(samples))
}

/// The `pct`-th percentile (`0 < pct < 100`), or an error when fewer than
/// [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: u32) -> Result<f64, TooFewSamples> {
    assert!(pct > 0 && pct < 100, "percentile {pct} outside (0, 100)");
    let n = samples.len();
    // Samples ranked above ceil(pct·n/100).
    let beyond = n - (pct as usize * n).div_ceil(100);
    if beyond < MIN_TAIL {
        return Err(TooFewSamples { pct, count: n, beyond });
    }
    Ok(quantile_sorted(&sorted(samples), pct))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(s: &[f64]) -> f64 {
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Python's exclusive-method quantile `pct/100` of a sorted, non-empty
/// slice; a single sample is its own quantile.
fn quantile_sorted(s: &[f64], pct: u32) -> f64 {
    let n = s.len();
    if n == 1 {
        return s[0];
    }
    let m = (n + 1) * pct as usize;
    let j = (m / 100).clamp(1, n - 1);
    let delta = m as f64 - (j * 100) as f64;
    (s[j - 1] * (100.0 - delta) + s[j] * delta) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.count), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: the method
        // extrapolates past the ends of tiny sets.
        let s = Summary::of(&[1.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn single_sample_summarises_to_itself() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.count), (7.0, 7.0, 7.0, 1));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // statistics.quantiles(range(1, 101), n=10)[8] == 90.9
        assert!((percentile(&v, 90).unwrap() - 90.9).abs() < 1e-9);
        let err = percentile(&v[..99], 90).unwrap_err();
        assert_eq!(err, TooFewSamples { pct: 90, count: 99, beyond: 9 });
        assert!(err.to_string().contains("9 beyond"));
        assert!(percentile(&v[..20], 50).is_ok());
        assert!(percentile(&v[..19], 50).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let up: Vec<f64> = (0..200).map(f64::from).collect();
        let down: Vec<f64> = up.iter().rev().copied().collect();
        assert_eq!(percentile(&up, 90), percentile(&down, 90));
    }
}
