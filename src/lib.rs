//! # crowdsourced-cdn
//!
//! A full reproduction of **"Joint Request Balancing and Content
//! Aggregation in Crowdsourced CDN"** (Ma, Wang, Yi, Liu, Sun — ICDCS
//! 2017): the **RBCAer** scheduler, its baselines, and every substrate the
//! paper's trace-driven evaluation needs, implemented from scratch in
//! safe Rust.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geo`] | `ccdn-geo` | planar points, regions, grid spatial index |
//! | [`stats`] | `ccdn-stats` | CDFs, quantiles, Spearman/Pearson, Zipf |
//! | [`flow`] | `ccdn-flow` | Dinic max-flow, min-cost max-flow (SSP) |
//! | [`cluster`] | `ccdn-cluster` | Jaccard, agglomerative clustering |
//! | [`lp`] | `ccdn-lp` | two-phase simplex LP solver |
//! | [`trace`] | `ccdn-trace` | synthetic workload generation |
//! | [`sim`] | `ccdn-sim` | aggregation, metrics, validation, runner |
//! | [`core`] | `ccdn-core` | RBCAer + Nearest / Random / LP-based |
//! | [`par`] | `ccdn-par` | deterministic ordered-join worker pool |
//! | [`obs`] | `ccdn-obs` | counters, histograms, spans, perf reports |
//!
//! # Quickstart
//!
//! ```
//! use crowdsourced_cdn::core::{Nearest, Rbcaer, RbcaerConfig};
//! use crowdsourced_cdn::sim::Runner;
//! use crowdsourced_cdn::trace::TraceConfig;
//!
//! // Generate a synthetic city and drive both schedulers over a day.
//! let trace = TraceConfig::small_test().generate();
//! let runner = Runner::new(&trace);
//!
//! let nearest = runner.run(&mut Nearest::new()).unwrap();
//! let rbcaer = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
//!
//! println!(
//!     "serving ratio: nearest {:.3} vs rbcaer {:.3}",
//!     nearest.total.hotspot_serving_ratio(),
//!     rbcaer.total.hotspot_serving_ratio()
//! );
//! assert!(
//!     rbcaer.total.hotspot_serving_ratio() >= nearest.total.hotspot_serving_ratio() - 1e-9
//! );
//! ```
//!
//! See `DESIGN.md` for the system inventory and per-figure experiment
//! index, and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ccdn_cluster as cluster;
pub use ccdn_core as core;
pub use ccdn_flow as flow;
pub use ccdn_geo as geo;
pub use ccdn_lp as lp;
pub use ccdn_obs as obs;
pub use ccdn_par as par;
pub use ccdn_sim as sim;
pub use ccdn_stats as stats;
pub use ccdn_trace as trace;
