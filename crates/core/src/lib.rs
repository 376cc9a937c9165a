//! The paper's contribution: **RBCAer** — joint request balancing and
//! content aggregation for crowdsourced CDNs — plus the baselines it is
//! evaluated against.
//!
//! From *"Joint Request Balancing and Content Aggregation in Crowdsourced
//! CDN"* (ICDCS 2017). A crowdsourced CDN serves video from thousands of
//! edge "content hotspots" (smart Wi-Fi APs). Two facts make request
//! routing hard there (§II):
//!
//! - per-hotspot load is wildly skewed (99th percentile ≈ 9× the median
//!   under nearest routing), so hotspots must shed load to neighbours; and
//! - the *content* requested at nearby hotspots differs a lot, so naive
//!   load balancing forces under-utilized hotspots to cache many extra
//!   videos — replication the origin CDN pays for.
//!
//! [`Rbcaer`] resolves the tension in two coupled stages, run once per
//! timeslot (§IV):
//!
//! 1. **Request balancing** — overloaded hotspots (`λ_i > s_i`) push their
//!    excess `φ_i = λ_i − s_i` toward under-utilized ones through a
//!    min-cost max-flow network `Gd` whose arc costs are inter-hotspot
//!    latencies, built incrementally under a growing latency threshold
//!    `θ ∈ [θ₁, θ₂]`;
//! 2. **Content aggregation** — hotspots are clustered by Jaccard content
//!    distance, and *flow-guide nodes* rewire `Gd` into `Gc` so the MCMF
//!    preferentially drains a cluster of similar overloaded hotspots into
//!    the same under-utilized hotspot; Procedure 1 then picks the concrete
//!    videos to redirect (maximizing per-video aggregation) and fills
//!    caches, minimizing replicas.
//!
//! Baselines: [`Nearest`] (serve at the nearest hotspot, cache local
//! populars), [`LocalRandom`] (route uniformly among radius-1.5 km holders
//! of the video), and [`LpBased`] (round the LP relaxation of the joint
//! ILP — the slow-but-principled comparator of Fig. 8).
//!
//! # Examples
//!
//! ```
//! use ccdn_core::{Nearest, Rbcaer, RbcaerConfig};
//! use ccdn_sim::Runner;
//! use ccdn_trace::TraceConfig;
//!
//! let trace = TraceConfig::small_test().generate();
//! let runner = Runner::new(&trace);
//!
//! let nearest = runner.run(&mut Nearest::new()).unwrap();
//! let rbcaer = runner.run(&mut Rbcaer::new(RbcaerConfig::default())).unwrap();
//!
//! // RBCAer never serves fewer requests at the edge than Nearest.
//! assert!(
//!     rbcaer.total.hotspot_serving_ratio() >= nearest.total.hotspot_serving_ratio() - 1e-9
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod lp_based;
mod nearest;
mod random;
mod rbcaer;
mod serving;
mod sharded;
pub mod validate;

pub use config::{ConfigError, GuideCost, RbcaerConfig};
pub use lp_based::LpBased;
pub use nearest::Nearest;
pub use random::LocalRandom;
pub use rbcaer::balancing::{BalanceOutcome, GdStats};
pub use rbcaer::Rbcaer;
pub use sharded::{ShardConfig, ShardedRbcaer};
