//! Statistics substrate for the crowdsourced-CDN reproduction.
//!
//! The paper's measurement study (§II) is built on a handful of statistical
//! tools; this crate implements all of them from scratch:
//!
//! - [`Cdf`]: empirical cumulative distribution functions with quantile
//!   lookup — used for the workload distribution of Fig. 2 and the
//!   correlation/similarity CDFs of Fig. 3;
//! - [`spearman`] / [`pearson`]: rank and linear correlation — Fig. 3a
//!   correlates hourly workloads of nearby hotspot pairs;
//! - [`Zipf`]: a seeded Zipf sampler — video popularity in the synthetic
//!   trace substrate follows a Zipf law (the paper invokes the 80/20 Pareto
//!   rule for video popularity);
//! - [`GuidedCdf`]: inverse-transform lookups over cumulative weights that
//!   return exactly `partition_point` but search one guide bucket — the
//!   Zipf sampler and the trace generator's user pick;
//! - [`Histogram`], [`Summary`], [`gini`], [`jain_fairness`]: descriptive
//!   statistics used when reporting load skew.
//!
//! # Examples
//!
//! ```
//! use ccdn_stats::Cdf;
//!
//! let cdf = Cdf::from_samples([1.0, 2.0, 2.0, 10.0]).unwrap();
//! assert_eq!(cdf.quantile(0.5), 2.0);
//! assert_eq!(cdf.fraction_at_most(2.0), 0.75);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod correlation;
mod describe;
mod guided;
mod zipf;

pub use cdf::{Cdf, CdfError};
pub use correlation::{autocorrelation, pearson, rank_average, spearman, CorrelationError};
pub use describe::{gini, jain_fairness, Histogram, Summary};
pub use guided::{GuidedCdf, GuidedCdfError};
pub use zipf::Zipf;
