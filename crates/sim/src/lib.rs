//! Trace-driven simulation engine for the crowdsourced-CDN reproduction.
//!
//! This crate turns a synthetic [`ccdn_trace::Trace`] into the inputs a
//! scheduler sees and scores the scheduler's decisions with the paper's
//! four evaluation metrics (§V-A):
//!
//! 1. **hotspot serving ratio** — fraction of requests served by edge
//!    hotspots rather than the CDN server;
//! 2. **average content access distance** — km between requester and
//!    server (20 km when served by the CDN, the region diagonal);
//! 3. **content replication cost** — replicas pushed to hotspot caches,
//!    normalized by the video-set size;
//! 4. **CDN server load** — requests the CDN serves plus replicas it
//!    pushes, normalized by the total request count.
//!
//! The pipeline: [`HotspotGeometry`] indexes hotspot locations;
//! [`SlotDemand`] aggregates each timeslot's requests to their nearest
//! hotspot (the paper's `λ_h`, `λ_hv` — §III-C); a [`Scheme`] maps the
//! demand to a [`SlotDecision`] (per-video redirections + cache
//! placements); [`SlotMetrics::evaluate`] validates the decision against
//! every model constraint (Eqs. 4–7) and scores it; [`Runner`] drives all
//! slots and accumulates a [`RunReport`].
//!
//! # Examples
//!
//! ```
//! use ccdn_sim::{Runner, Scheme, SlotDecision, SlotInput, Target};
//! use ccdn_trace::TraceConfig;
//!
//! /// A toy scheme that sends every request to the CDN server.
//! struct CdnOnly;
//!
//! impl Scheme for CdnOnly {
//!     fn name(&self) -> &'static str {
//!         "cdn-only"
//!     }
//!
//!     fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
//!         let mut decision = SlotDecision::new(input.hotspot_count());
//!         for (hotspot, demand) in input.demand.per_video() {
//!             decision.assign(hotspot, demand.video, Target::Cdn, demand.count);
//!         }
//!         decision
//!     }
//! }
//!
//! let trace = TraceConfig::small_test().generate();
//! let report = Runner::new(&trace).run(&mut CdnOnly).unwrap();
//! assert_eq!(report.total.hotspot_serving_ratio(), 0.0);
//! assert_eq!(report.total.cdn_server_load(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod failure;
mod geometry;
mod metrics;
mod online;
mod predict;
mod rows;
mod runner;
mod scheme;
pub mod validate;

pub use aggregate::{SlotDemand, VideoDemand};
pub use failure::{FailureModel, FailureProcess, SimConfigError};
pub use geometry::{HotspotGeometry, COLLABORATION_RADIUS_KM};
pub use metrics::{
    served_loads, utilization_fairness, MetricsTotals, SlotMetrics, ValidationError,
};
pub use online::{
    route_with_failover, ChaosOptions, FailoverStats, OnlineReport, OnlineRunner, OnlineSlotOutcome,
};
pub use predict::{Ewma, HoltLinear, LastSlot, PopularityPredictor, SeasonalNaive, WindowMean};
pub use runner::{RunReport, Runner, SlotOutcome};
pub use scheme::{Assignment, Scheme, SlotDecision, SlotInput, Target};
