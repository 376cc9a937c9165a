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

/// Largest coordinate magnitude, in km, that a trace or a [`GridIndex`]
/// accepts: `f64::MAX.sqrt() / 4` (≈ 3.35e153).
///
/// Two points within it differ by at most `f64::MAX.sqrt() / 2` on each
/// axis, so a squared distance stays at most `f64::MAX / 2` and every
/// distance is finite. Outside it, `Point::distance` can overflow to
/// infinity. The value is a property of `f64`, not a setting.
pub const MAX_COORDINATE_KM: f64 = 3.351_951_982_485_649e153;

/// Distance, in kilometres, charged when a request is served by the origin
/// CDN server instead of an edge hotspot.
///
/// The paper pins this to 20 km — the diagonal of the 17 km × 11 km
/// evaluation rectangle (`sqrt(17² + 11²) ≈ 20.2`, rounded down in §V-A).
pub const CDN_SERVER_DISTANCE_KM: f64 = 20.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinate_bound_keeps_every_distance_finite() {
        assert_eq!(MAX_COORDINATE_KM, f64::MAX.sqrt() / 4.0);
        let (lo, hi) = (
            Point::new(-MAX_COORDINATE_KM, -MAX_COORDINATE_KM),
            Point::new(MAX_COORDINATE_KM, MAX_COORDINATE_KM),
        );
        assert!(lo.distance_squared(hi) <= f64::MAX / 2.0);
        assert!(lo.distance(hi).is_finite());
        let beyond = Point::new(2.0 * MAX_COORDINATE_KM, 2.0 * MAX_COORDINATE_KM);
        assert!(lo.distance(beyond).is_infinite());
    }
}
