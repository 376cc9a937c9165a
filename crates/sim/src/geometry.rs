use ccdn_geo::{GeoError, GridIndex, Point, Rect};
use ccdn_trace::{Hotspot, HotspotId};

/// The paper's collaboration radius in km (§V-A): hotspots serve each
/// other's requests within this circle. [`OnlineRunner`](crate::OnlineRunner)
/// routes failover within it, the Random and LP baselines redirect within
/// it, and RBCAer's final latency threshold `θ₂` defaults to it.
pub const COLLABORATION_RADIUS_KM: f64 = 1.5;

/// Spatial view of a hotspot deployment: nearest-hotspot lookup, radius
/// queries, pairwise distances, and the CDN fallback distance.
///
/// Distances are computed on demand from the stored locations (`O(1)`
/// each), so the geometry scales to the 5 000-hotspot measurement preset
/// without materializing an `n²` matrix.
///
/// # Examples
///
/// ```
/// use ccdn_sim::HotspotGeometry;
/// use ccdn_trace::TraceConfig;
///
/// let trace = TraceConfig::small_test().generate();
/// let geo = HotspotGeometry::new(trace.region, &trace.hotspots);
/// let (nearest, _dist) = geo.nearest(trace.requests[0].location).unwrap();
/// assert!(nearest.0 < trace.hotspots.len());
/// ```
#[derive(Debug, Clone)]
pub struct HotspotGeometry {
    region: Rect,
    locations: Vec<Point>,
    grid: GridIndex,
    cdn_distance: f64,
}

impl HotspotGeometry {
    /// Builds the geometry for `hotspots` inside `region`; see
    /// [`HotspotGeometry::try_new`] for the typed-error path.
    ///
    /// # Panics
    ///
    /// Panics on every input [`HotspotGeometry::try_new`] rejects.
    pub fn new(region: Rect, hotspots: &[Hotspot]) -> Self {
        match Self::try_new(region, hotspots) {
            Ok(geometry) => geometry,
            // lint: allow(no-panic): documented constructor contract — try_new is the typed path
            Err(e) => panic!("HotspotGeometry::new: {e}"),
        }
    }

    /// Builds the geometry for `hotspots` inside `region`.
    ///
    /// The CDN fallback distance is pinned to 20 km when the region
    /// diagonal is within the paper's evaluation scale, and to the exact
    /// diagonal otherwise (the paper "directly set\[s\] the content access
    /// latency as 20 km when a user request is served by \[the\] CDN
    /// server", §V-A).
    ///
    /// # Errors
    ///
    /// [`GeoError`] if a hotspot location or a region corner has a
    /// non-finite coordinate or one beyond
    /// [`MAX_COORDINATE_KM`](ccdn_geo::MAX_COORDINATE_KM) in magnitude, or
    /// if there are more than `u32::MAX` hotspots: the inputs
    /// [`GridIndex::try_build`] rejects. A `Rect` never holds a non-finite
    /// corner ([`Rect::new`] panics on one).
    // lint: allow(panic-reach): every rejection is GridIndex::try_build's GeoError; the
    // remaining sink is Rect::diagonal's `.distance` resolving by name to an indexing fn
    pub fn try_new(region: Rect, hotspots: &[Hotspot]) -> Result<Self, GeoError> {
        let locations: Vec<Point> = hotspots.iter().map(|h| h.location).collect();
        // The region's longer side over 32, clamped to 0.25–2 km: 0.53 km
        // on the paper's 17 km × 11 km region, 2 km at metro scale.
        let cell = (region.width().max(region.height()) / 32.0).clamp(0.25, 2.0);
        let grid = GridIndex::try_build(region, cell, locations.iter().copied())?;
        let diagonal = region.diagonal();
        let cdn_distance = if (diagonal - 20.0).abs() < 1.0 { 20.0 } else { diagonal };
        Ok(HotspotGeometry { region, locations, grid, cdn_distance })
    }

    /// The deployment region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of hotspots.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether the deployment is empty.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Distance in km charged for CDN-served requests.
    pub fn cdn_distance(&self) -> f64 {
        self.cdn_distance
    }

    /// Location of hotspot `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn location(&self, h: HotspotId) -> Point {
        self.locations[h.0]
    }

    /// Distance between two hotspots in km (the paper's `d_ij`).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn distance(&self, a: HotspotId, b: HotspotId) -> f64 {
        self.locations[a.0].distance(self.locations[b.0])
    }

    /// The hotspot nearest to `point`, with its distance. `None` only for
    /// an empty deployment.
    // lint: allow(panic-reach): GridIndex::nearest uses checked access throughout;
    // remaining sinks are name-resolution false positives on `.get`/`.distance`
    pub fn nearest(&self, point: Point) -> Option<(HotspotId, f64)> {
        self.grid.nearest(point).map(|(i, d)| (HotspotId(i), d))
    }

    /// [`HotspotGeometry::nearest`] of every query at once, in query
    /// order, through the cell-batched [`GridIndex::nearest_batch`].
    /// `None` only for an empty deployment.
    pub fn nearest_batch<T>(
        &self,
        queries: &[T],
        locate: impl Fn(&T) -> Point,
    ) -> Option<Vec<(HotspotId, f64)>> {
        let found = self.grid.nearest_batch(queries, locate)?;
        Some(found.into_iter().map(|(i, d)| (HotspotId(i), d)).collect())
    }

    /// Hotspots within `radius_km` of hotspot `h`, **excluding** `h`
    /// itself, in ascending id order. An out-of-range id yields no
    /// matches.
    pub fn within_radius(&self, h: HotspotId, radius_km: f64) -> Vec<HotspotId> {
        // `<[T]>::get` by path: ccdn-analyze's name-based call graph
        // resolves a `.get` method call to the panicking `DistanceMatrix::get`.
        let Some(&p) = <[Point]>::get(&self.locations, h.0) else {
            return Vec::new();
        };
        self.grid
            .within_radius(p, radius_km)
            .into_iter()
            .filter(|&i| i != h.0)
            .map(HotspotId)
            .collect()
    }

    /// Hotspots within `radius_km` of an arbitrary point.
    pub fn within_radius_of_point(&self, point: Point, radius_km: f64) -> Vec<HotspotId> {
        self.grid.within_radius(point, radius_km).into_iter().map(HotspotId).collect()
    }

    /// All unordered hotspot pairs at distance ≤ `radius_km` — the
    /// candidate edge set of the paper's `Gd` under threshold `θ` and the
    /// "< 5 km" pair population of Fig. 3.
    // lint: allow(panic-reach): GridIndex::pairs_within is iterator-based; its only
    // sink is the guarded index arithmetic inside within_radius
    pub fn pairs_within(&self, radius_km: f64) -> Vec<(HotspotId, HotspotId)> {
        self.grid
            .pairs_within(radius_km)
            .into_iter()
            .map(|(a, b)| (HotspotId(a), HotspotId(b)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdn_trace::TraceConfig;

    fn geometry() -> (ccdn_trace::Trace, HotspotGeometry) {
        let trace = TraceConfig::small_test().generate();
        let geo = HotspotGeometry::new(trace.region, &trace.hotspots);
        (trace, geo)
    }

    #[test]
    fn try_new_builds_what_new_builds() {
        let (trace, geo) = geometry();
        let tried = HotspotGeometry::try_new(trace.region, &trace.hotspots).expect("valid trace");
        assert_eq!(format!("{tried:?}"), format!("{geo:?}"));
    }

    #[test]
    fn try_new_rejects_unusable_coordinates() {
        let trace = TraceConfig::small_test().generate();
        let moved = |x: f64| {
            let mut hotspots = trace.hotspots.clone();
            hotspots[3].location = Point::new(x, 5.0);
            HotspotGeometry::try_new(trace.region, &hotspots).unwrap_err().to_string()
        };
        assert!(moved(f64::NAN).contains("point 3 has non-finite coordinates"));
        assert!(moved(1e300).contains("point 3 lies beyond the coordinate range"));
        // `Rect::new` refuses a NaN corner, so the region a geometry can
        // be handed is finite; its corners may still lie out of range,
        // or span more than an `f64` can measure.
        let far = Rect::new(Point::new(0.0, 0.0), Point::new(1e300, 11.0));
        let err = HotspotGeometry::try_new(far, &trace.hotspots).unwrap_err().to_string();
        assert!(err.contains("bounds corner"), "{err}");
        let huge = Rect::new(Point::new(-1e308, 0.0), Point::new(1e308, 11.0));
        assert!(huge.width().is_infinite());
        let err = HotspotGeometry::try_new(huge, &trace.hotspots).unwrap_err().to_string();
        assert!(err.contains("bounds corner"), "{err}");
    }

    #[test]
    #[should_panic(expected = "HotspotGeometry::new: point 0 has non-finite coordinates")]
    fn new_panics_on_what_try_new_rejects() {
        let mut trace = TraceConfig::small_test().generate();
        trace.hotspots[0].location = Point::new(f64::NAN, 0.0);
        HotspotGeometry::new(trace.region, &trace.hotspots);
    }

    #[test]
    fn paper_region_pins_cdn_distance_to_20km() {
        let (_, geo) = geometry();
        assert_eq!(geo.cdn_distance(), 20.0);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_diagonal() {
        let (trace, geo) = geometry();
        let n = trace.hotspots.len();
        for i in 0..n.min(5) {
            for j in 0..n.min(5) {
                let d = geo.distance(HotspotId(i), HotspotId(j));
                assert_eq!(d, geo.distance(HotspotId(j), HotspotId(i)));
                if i == j {
                    assert_eq!(d, 0.0);
                }
            }
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let (trace, geo) = geometry();
        for r in trace.requests.iter().take(200) {
            let (h, d) = geo.nearest(r.location).unwrap();
            let brute = trace
                .hotspots
                .iter()
                .map(|hs| hs.location.distance(r.location))
                .fold(f64::INFINITY, f64::min);
            assert!((d - brute).abs() < 1e-9, "hotspot {h} dist {d} vs brute {brute}");
        }
    }

    #[test]
    fn within_radius_excludes_self() {
        let (_, geo) = geometry();
        for i in 0..geo.len() {
            let h = HotspotId(i);
            assert!(!geo.within_radius(h, 5.0).contains(&h));
        }
    }

    #[test]
    fn pairs_within_monotone_in_radius() {
        let (_, geo) = geometry();
        let small = geo.pairs_within(1.0).len();
        let large = geo.pairs_within(10.0).len();
        assert!(small <= large);
    }
}
