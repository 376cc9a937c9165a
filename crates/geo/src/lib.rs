//! Planar geometry and spatial indexing for the crowdsourced-CDN reproduction.
//!
//! The paper ("Joint Request Balancing and Content Aggregation in
//! Crowdsourced CDN", ICDCS 2017) models network latency as proportional to
//! geographic distance and evaluates inside a 17 km × 11 km rectangle of
//! Beijing. This crate provides the corresponding substrate:
//!
//! - [`Point`]: a location on a planar map measured in kilometres,
//! - [`Rect`]: an axis-aligned region such as the evaluation rectangle,
//! - [`GridIndex`]: a uniform-grid spatial index supporting exact
//!   nearest-neighbour and radius queries, used to map each user request to
//!   its nearest content hotspot and to enumerate hotspot pairs within the
//!   latency threshold `θ`.
//!
//! # Examples
//!
//! ```
//! use ccdn_geo::{GridIndex, Point, Rect};
//!
//! let region = Rect::new(Point::new(0.0, 0.0), Point::new(17.0, 11.0));
//! let hotspots = vec![Point::new(1.0, 1.0), Point::new(16.0, 10.0)];
//! let index = GridIndex::build(region, 1.0, hotspots.iter().copied());
//!
//! let (nearest, dist) = index.nearest(Point::new(2.0, 2.0)).unwrap();
//! assert_eq!(nearest, 0);
//! assert!((dist - 2.0_f64.sqrt()).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod grid;
mod point;
mod rect;

pub use error::GeoError;
pub use grid::GridIndex;
pub use point::Point;
pub use rect::Rect;

/// Distance, in kilometres, charged when a request is served by the origin
/// CDN server instead of an edge hotspot.
///
/// The paper pins this to 20 km — the diagonal of the 17 km × 11 km
/// evaluation rectangle (`sqrt(17² + 11²) ≈ 20.2`, rounded down in §V-A).
pub const CDN_SERVER_DISTANCE_KM: f64 = 20.0;
