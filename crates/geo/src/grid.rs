use crate::{GeoError, Point, Rect};

/// Relative (and, scaled by the largest bounds coordinate, absolute)
/// inflation of a batched query's candidate radius. It covers the rounding
/// of cell assignment and of distances, which is ~1e-15 relative.
const ROUNDING_SLACK: f64 = 1e-9;

/// A uniform-grid spatial index over a fixed set of points.
///
/// Supports exact nearest-neighbour queries (expanding ring search) and
/// radius queries. In this reproduction it is used to
///
/// - map every user request to its **nearest content hotspot** (the paper
///   aggregates requests to their nearest hotspot before scheduling, §III),
/// - enumerate hotspot pairs within the latency threshold `θ` when building
///   the balancing flow network `Gd` (§IV-A),
/// - find candidate serving hotspots within 1.5 km for the Random baseline
///   (§V-A), and
/// - partition hotspots into geo-tiles for the sharded planner
///   ([`GridIndex::cell_of`]).
///
/// Build cost is `O(n)`; queries are `O(points inspected)`, which for the
/// paper's densities is a small constant.
///
/// # Out-of-bounds points and queries
///
/// Points outside `bounds` are **not** bucketed into boundary cells: they
/// live on a separate scan list that every query walks in full, so they can
/// never be silently dropped by a cell-window computed from clamped
/// coordinates. Queries outside `bounds` are clamped onto it for cell
/// selection only — distances always use true coordinates, and clamping
/// onto a rectangle is non-expansive (`|clamp(q) − p| ≤ |q − p|` for any
/// in-bounds `p`), which keeps both the ring-termination bound of
/// [`GridIndex::nearest`] and the cell window of
/// [`GridIndex::within_radius`] exact. The differential proptests in this
/// module pin that contract against a brute-force scan.
///
/// # Batched nearest queries
///
/// [`GridIndex::nearest_batch`] answers many queries at once by sharing
/// work between the queries of one cell. Let `c` be the cell's centre, `h`
/// its half-diagonal and `d_c` the distance from `c` to its nearest point
/// `p_c`. Every query `q` in the cell has `|q − c| ≤ h`, so its nearest
/// distance is at most `|q − p_c| ≤ d_c + h`. Any point tied for nearest
/// to `q` is therefore within `d_c + h` of `q`, hence of the cell
/// rectangle. The cell's candidate list — every point within `d_c + h` of
/// the rectangle, plus a tiny slack for rounding — thus holds all of them,
/// and scanning it with the same tie-break as [`GridIndex::nearest`]
/// gives the same index and the same distance bit for bit.
///
/// # Examples
///
/// ```
/// use ccdn_geo::{GridIndex, Point, Rect};
///
/// let region = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
/// let pts = vec![Point::new(1.0, 1.0), Point::new(9.0, 9.0), Point::new(5.0, 5.0)];
/// let idx = GridIndex::build(region, 1.0, pts.iter().copied());
///
/// assert_eq!(idx.nearest(Point::new(4.5, 5.5)).unwrap().0, 2);
/// let near: Vec<usize> = idx.within_radius(Point::new(0.0, 0.0), 2.0);
/// assert_eq!(near, vec![0]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    bounds: Rect,
    cell_km: f64,
    cols: usize,
    rows: usize,
    /// For each cell, indexes of the in-bounds points it contains.
    cells: Vec<Vec<usize>>,
    /// Points lying outside `bounds`, scanned in full by every query.
    outside: Vec<usize>,
    points: Vec<Point>,
}

impl GridIndex {
    /// Builds an index over `points`, bucketing into square cells of side
    /// `cell_km` within `bounds`. Points outside `bounds` stay queryable
    /// through a separate full-scan list (see the type-level docs).
    ///
    /// # Errors
    ///
    /// [`GeoError`] if `cell_km` is not strictly positive and finite, or if
    /// any point has a non-finite coordinate.
    // lint: allow(panic-reach): the only division is f64 width / cell_km (cell_km
    // validated finite-positive above it); the cell allocation size is checked_mul
    pub fn try_build<I>(bounds: Rect, cell_km: f64, points: I) -> Result<Self, GeoError>
    where
        I: IntoIterator<Item = Point>,
    {
        if !(cell_km.is_finite() && cell_km > 0.0) {
            return Err(GeoError::new(format!(
                "cell size must be positive and finite, got {cell_km}"
            )));
        }
        let points: Vec<Point> = points.into_iter().collect();
        for (i, p) in points.iter().enumerate() {
            if !p.is_finite() {
                return Err(GeoError::new(format!(
                    "point {i} has non-finite coordinates ({}, {})",
                    p.x, p.y
                )));
            }
        }
        let cols = ((bounds.width() / cell_km).ceil() as usize).max(1);
        let rows = ((bounds.height() / cell_km).ceil() as usize).max(1);
        let Some(cell_count) = cols.checked_mul(rows) else {
            return Err(GeoError::new(format!(
                "grid of {cols} x {rows} cells overflows; cell size {cell_km} is too small \
                 for the bounds"
            )));
        };
        let mut cells = vec![Vec::new(); cell_count];
        let mut outside = Vec::new();
        let index = GridIndex {
            bounds,
            cell_km,
            cols,
            rows,
            cells: Vec::new(),
            outside: Vec::new(),
            points,
        };
        for (i, &p) in index.points.iter().enumerate() {
            if bounds.contains(p) {
                if let Some(cell) = cells.get_mut(index.cell_of(p)) {
                    cell.push(i);
                }
            } else {
                outside.push(i);
            }
        }
        Ok(GridIndex { cells, outside, ..index })
    }

    /// Builds an index over `points`; see [`GridIndex::try_build`] for the
    /// typed-error path.
    ///
    /// # Panics
    ///
    /// Panics if `cell_km` is not strictly positive and finite, or if any
    /// point has a non-finite coordinate.
    pub fn build<I>(bounds: Rect, cell_km: f64, points: I) -> Self
    where
        I: IntoIterator<Item = Point>,
    {
        match Self::try_build(bounds, cell_km, points) {
            Ok(index) => index,
            // lint: allow(no-panic): documented constructor contract — try_build is the typed path
            Err(e) => panic!("GridIndex::build: {e}"),
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The indexed points, in insertion order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The index bounds.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Number of grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of grid cells (`cols × rows`).
    pub fn cell_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Side length of each square cell in km.
    pub fn cell_km(&self) -> f64 {
        self.cell_km
    }

    fn col_row(&self, p: Point) -> (usize, usize) {
        let q = self.bounds.clamp(p);
        let col = (((q.x - self.bounds.min().x) / self.cell_km) as usize).min(self.cols - 1);
        let row = (((q.y - self.bounds.min().y) / self.cell_km) as usize).min(self.rows - 1);
        (col, row)
    }

    /// Flattened cell index of `p` (`row * cols + col`, out-of-bounds
    /// points clamped onto the boundary cells). The sharded planner uses
    /// this as the geo-tile id of each hotspot: every point maps to
    /// exactly one of [`GridIndex::cell_count`] tiles.
    // lint: allow(panic-reach): row * cols + col < cell_count, whose product was checked at build
    pub fn cell_of(&self, p: Point) -> usize {
        let (col, row) = self.col_row(p);
        row * self.cols + col
    }

    /// Index and distance of the point nearest to `query`, or `None` when
    /// the index is empty. Ties break toward the lower point index.
    ///
    /// Exact: searches rings of cells outward until the best candidate is
    /// provably closer than any unvisited cell, after seeding the best with
    /// a full scan of the out-of-bounds list.
    // The nearest-point code below avoids `.get(i)` (for `.iter().nth(i)`),
    // `.distance(..)` and `.nearest(..)` (for `Point::distance` and
    // `Self::nearest`): ccdn-analyze resolves method names without their
    // receiver types and would charge them to panicking namesakes.
    #[allow(clippy::iter_nth)]
    pub fn nearest(&self, query: Point) -> Option<(usize, f64)> {
        if self.points.is_empty() {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        // Out-of-bounds points are never bucketed — scan them all first.
        for &i in &self.outside {
            if let Some(&p) = self.points.iter().nth(i) {
                update_best(&mut best, i, Point::distance(p, query));
            }
        }
        let (qc, qr) = self.col_row(query);
        let max_ring = self.cols.max(self.rows);
        for ring in 0..=max_ring {
            // Every bucketed point lies inside its cell, and the query's
            // clamped cell is within bounds, so a point in a ring-`r` cell
            // is at least `(r-1) * cell_km` from the clamped query — and
            // clamping is non-expansive, so at least that far from the true
            // query too. Once we hold a candidate at distance `d`, rings
            // beyond `d / cell_km + 1` cannot improve on it.
            if let Some((_, d)) = best {
                if (ring as f64 - 1.0) * self.cell_km > d {
                    break;
                }
            }
            // The ring is the border of its clipped bounding box: the top
            // and bottom rows in full, and the two side columns between.
            let c_lo = qc.saturating_sub(ring);
            let c_hi = qc.saturating_add(ring).min(self.cols - 1);
            for row in qr.saturating_sub(ring)..=qr.saturating_add(ring).min(self.rows - 1) {
                let sides = if row.abs_diff(qr) == ring {
                    [Some((c_lo, c_hi)), None]
                } else {
                    [
                        (qc >= ring).then_some((c_lo, c_lo)),
                        (qc.saturating_add(ring) < self.cols).then_some((c_hi, c_hi)),
                    ]
                };
                for (lo, hi) in sides.into_iter().flatten() {
                    for (i, p) in self.row_points(row, lo, hi) {
                        update_best(&mut best, i, Point::distance(p, query));
                    }
                }
            }
        }
        best
    }

    /// [`GridIndex::nearest`] of every query at once: entry `k` of the
    /// result is `nearest(locate(&queries[k]))`, bit for bit. `None`
    /// when the index is empty.
    ///
    /// The in-bounds queries are bucketed by [`GridIndex::cell_of`] with
    /// a counting sort. Each non-empty cell then gathers its candidate
    /// points once (see the type-level docs for the radius argument) and
    /// scans them for every query it holds. Out-of-bounds queries take the
    /// single-query path. The candidate list is scratch reused across
    /// cells and dropped on return; the index itself stores nothing new.
    ///
    /// Cost: `O(m + cells)` for the sort, plus per non-empty cell one
    /// `nearest` of its centre, one scan of the window of cells its
    /// candidate radius reaches, and `|candidates|` distances per query.
    #[allow(clippy::iter_nth)]
    pub fn nearest_batch<T>(
        &self,
        queries: &[T],
        locate: impl Fn(&T) -> Point,
    ) -> Option<Vec<(usize, f64)>> {
        if self.points.is_empty() {
            return None;
        }
        let mut found = vec![(0, 0.0); queries.len()];
        // Counting sort of the in-bounds queries by cell: cell `c` owns
        // `order[start[c]..start[c + 1]]`, in query order.
        let mut start = vec![0usize; self.cells.len().saturating_add(1)];
        for (q, slot) in queries.iter().zip(found.iter_mut()) {
            let p = locate(q);
            if self.bounds.contains(p) {
                if let Some(count) = start.get_mut(self.cell_of(p).saturating_add(1)) {
                    *count = count.saturating_add(1);
                }
            } else if let Some(hit) = Self::nearest(self, p) {
                *slot = hit;
            }
        }
        let mut in_bounds = 0usize;
        for at in start.iter_mut() {
            in_bounds = in_bounds.saturating_add(*at);
            *at = in_bounds;
        }
        let mut next = start.clone();
        let mut order = vec![0usize; in_bounds];
        for (k, q) in queries.iter().enumerate() {
            let p = locate(q);
            if !self.bounds.contains(p) {
                continue;
            }
            if let Some(at) = next.get_mut(self.cell_of(p)) {
                if let Some(o) = order.get_mut(*at) {
                    *o = k;
                }
                *at = at.saturating_add(1);
            }
        }
        let mut candidates: Vec<(usize, Point)> = Vec::new();
        let spans = start.iter().zip(start.iter().skip(1));
        for (cell, (&lo, &hi)) in spans.enumerate() {
            if lo == hi {
                continue;
            }
            let (Some(row), Some(col)) = (cell.checked_div(self.cols), cell.checked_rem(self.cols))
            else {
                continue;
            };
            self.cell_candidates(col, row, &mut candidates);
            for &k in order.iter().skip(lo).take(hi.saturating_sub(lo)) {
                let (Some(q), Some(slot)) = (queries.iter().nth(k), found.get_mut(k)) else {
                    continue;
                };
                let q = locate(q);
                let mut best = None;
                for &(i, p) in &candidates {
                    update_best(&mut best, i, Point::distance(p, q));
                }
                if let Some(hit) = best {
                    *slot = hit;
                }
            }
        }
        Some(found)
    }

    /// Replaces `out` with every point that can be the nearest point of a
    /// query inside cell `(col, row)`: those within `d_c + h` of the cell
    /// rectangle, where `d_c` is the nearest-point distance of the cell
    /// centre and `h` the cell's half-diagonal, inflated by a slack that
    /// absorbs floating-point rounding in cell assignment and distances.
    #[allow(clippy::iter_nth)]
    fn cell_candidates(&self, col: usize, row: usize, out: &mut Vec<(usize, Point)>) {
        out.clear();
        let (min, max) = (self.bounds.min(), self.bounds.max());
        let x0 = min.x + col as f64 * self.cell_km;
        let y0 = min.y + row as f64 * self.cell_km;
        let x1 = min.x + (col as f64 + 1.0) * self.cell_km;
        let y1 = min.y + (row as f64 + 1.0) * self.cell_km;
        let centre = Point::new(x0, y0).midpoint(Point::new(x1, y1));
        let Some((_, centre_km)) = Self::nearest(self, centre) else { return };
        let magnitude = [min.x, min.y, max.x, max.y].iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let half_diagonal = self.cell_km * std::f64::consts::FRAC_1_SQRT_2;
        let slack_km: f64 = magnitude * ROUNDING_SLACK;
        let reach_km: f64 = (centre_km + half_diagonal) * (1.0 + ROUNDING_SLACK) + slack_km;
        let within_reach = |&(_, p): &(usize, Point)| {
            let in_cell = Point::new(p.x.clamp(x0, x1), p.y.clamp(y0, y1));
            Point::distance(in_cell, p) <= reach_km
        };
        // A bucketed point `k` cells away along an axis is at least
        // `(k - 1) * cell_km` from the cell rectangle on that axis.
        let reach_cells: f64 = reach_km / self.cell_km;
        let reach = (reach_cells.ceil() as usize).saturating_add(1).min(self.cols.max(self.rows));
        let c_lo = col.saturating_sub(reach);
        let c_hi = col.saturating_add(reach).min(self.cols - 1);
        for r in row.saturating_sub(reach)..=row.saturating_add(reach).min(self.rows - 1) {
            out.extend(self.row_points(r, c_lo, c_hi).filter(within_reach));
        }
        let outside =
            self.outside.iter().filter_map(|&i| self.points.iter().nth(i).map(|&p| (i, p)));
        out.extend(outside.filter(within_reach));
    }

    /// The points bucketed in cells `c_lo..=c_hi` of grid row `row`, with
    /// their indexes.
    #[allow(clippy::iter_nth)]
    fn row_points(
        &self,
        row: usize,
        c_lo: usize,
        c_hi: usize,
    ) -> impl Iterator<Item = (usize, Point)> + '_ {
        self.cells
            .iter()
            .skip(row.saturating_mul(self.cols).saturating_add(c_lo))
            .take(c_hi.saturating_sub(c_lo).saturating_add(1))
            .flatten()
            .filter_map(|&i| self.points.iter().nth(i).map(|&p| (i, p)))
    }

    /// Indexes of all points within `radius_km` of `query` (inclusive of
    /// the boundary), in ascending index order. A negative or non-finite
    /// negative radius yields no matches; an infinite radius matches every
    /// point.
    // `.iter().nth` rather than `.get`: ccdn-analyze's name-based call
    // graph resolves `.get` to the panicking `DistanceMatrix::get`.
    #[allow(clippy::iter_nth)]
    pub fn within_radius(&self, query: Point, radius_km: f64) -> Vec<usize> {
        let mut out = Vec::new();
        if self.points.is_empty() || radius_km < 0.0 || radius_km.is_nan() {
            return out;
        }
        let (qc, qr) = self.col_row(query);
        // Clamping the query is non-expansive, so any in-bounds point
        // within `radius_km` of the true query is within `radius_km` of the
        // clamped one — the window around the clamped cell cannot miss it.
        // Cap the reach at the grid size so an infinite or huge radius
        // degrades to a full-grid scan instead of overflowing.
        let max_reach = self.cols.max(self.rows);
        let reach_cells = (radius_km / self.cell_km).ceil();
        let reach = if reach_cells.is_finite() && reach_cells < max_reach as f64 {
            (reach_cells as usize).saturating_add(1)
        } else {
            max_reach
        };
        let r2 = radius_km * radius_km;
        let c_lo = qc.saturating_sub(reach);
        let c_hi = qc.saturating_add(reach).min(self.cols - 1);
        let r_lo = qr.saturating_sub(reach);
        let r_hi = qr.saturating_add(reach).min(self.rows - 1);
        for row in r_lo..=r_hi {
            for col in c_lo..=c_hi {
                let Some(cell) = self.cells.iter().nth(row * self.cols + col) else { continue };
                for &i in cell {
                    if let Some(p) = self.points.iter().nth(i) {
                        if p.distance_squared(query) <= r2 {
                            out.push(i);
                        }
                    }
                }
            }
        }
        // Out-of-bounds points: always scanned in full.
        for &i in &self.outside {
            if let Some(p) = self.points.iter().nth(i) {
                if p.distance_squared(query) <= r2 {
                    out.push(i);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// All unordered point pairs `(i, j)` with `i < j` whose distance is at
    /// most `radius_km`. Used to enumerate the candidate `Gd` edges under
    /// the latency threshold `θ` and the "< 5 km" pair sets of Fig. 3.
    // lint: allow(panic-reach): iterator-based; the only sink is the guarded index
    // arithmetic inside within_radius
    pub fn pairs_within(&self, radius_km: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, &p) in self.points.iter().enumerate() {
            for j in self.within_radius(p, radius_km) {
                if j > i {
                    out.push((i, j));
                }
            }
        }
        out
    }
}

/// Replaces `best` when `(i, d)` is closer, breaking distance ties toward
/// the lower point index.
fn update_best(best: &mut Option<(usize, f64)>, i: usize, d: f64) {
    let better = match *best {
        None => true,
        Some((bi, bd)) => d < bd || (d == bd && i < bi),
    };
    if better {
        *best = Some((i, d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn region() -> Rect {
        Rect::new(Point::origin(), Point::new(17.0, 11.0))
    }

    #[test]
    fn empty_index_has_no_nearest() {
        let idx = GridIndex::build(region(), 1.0, std::iter::empty());
        assert!(idx.is_empty());
        assert!(idx.nearest(Point::origin()).is_none());
        assert!(idx.within_radius(Point::origin(), 5.0).is_empty());
    }

    #[test]
    fn single_point_is_always_nearest() {
        let idx = GridIndex::build(region(), 1.0, vec![Point::new(3.0, 3.0)]);
        let (i, d) = idx.nearest(Point::new(16.0, 10.0)).unwrap();
        assert_eq!(i, 0);
        assert!((d - Point::new(3.0, 3.0).distance(Point::new(16.0, 10.0))).abs() < 1e-12);
    }

    #[test]
    fn nearest_matches_brute_force_on_random_sets() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let pts: Vec<Point> = (0..200)
                .map(|_| Point::new(rng.gen_range(0.0..17.0), rng.gen_range(0.0..11.0)))
                .collect();
            let idx = GridIndex::build(region(), 0.8, pts.iter().copied());
            for _ in 0..50 {
                let q = Point::new(rng.gen_range(-2.0..19.0), rng.gen_range(-2.0..13.0));
                let (gi, gd) = idx.nearest(q).unwrap();
                let (bi, bd) = pts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, p.distance(q)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .unwrap();
                assert_eq!(gi, bi, "grid={gd} brute={bd} at query {q}");
            }
        }
    }

    #[test]
    fn radius_query_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.gen_range(0.0..17.0), rng.gen_range(0.0..11.0)))
            .collect();
        let idx = GridIndex::build(region(), 1.3, pts.iter().copied());
        for _ in 0..40 {
            let q = Point::new(rng.gen_range(0.0..17.0), rng.gen_range(0.0..11.0));
            let r = rng.gen_range(0.0..6.0);
            let got = idx.within_radius(q, r);
            let want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.distance(q) <= r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn pairs_within_is_symmetric_and_deduplicated() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(5.5, 0.0),
        ];
        let idx = GridIndex::build(region(), 1.0, pts);
        let pairs = idx.pairs_within(1.1);
        assert_eq!(pairs, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn points_outside_bounds_are_still_queryable() {
        let pts = vec![Point::new(-5.0, -5.0), Point::new(30.0, 30.0)];
        let idx = GridIndex::build(region(), 2.0, pts);
        assert_eq!(idx.nearest(Point::new(0.0, 0.0)).unwrap().0, 0);
        assert_eq!(idx.nearest(Point::new(17.0, 11.0)).unwrap().0, 1);
        assert_eq!(idx.within_radius(Point::new(-5.0, -5.0), 0.1), vec![0]);
        assert_eq!(idx.within_radius(Point::new(0.0, 0.0), 100.0), vec![0, 1]);
    }

    #[test]
    fn far_outside_point_is_found_beyond_any_cell_window() {
        // A point far outside bounds together with an in-bounds decoy: the
        // ring/window scan alone would stop at the decoy, so this only
        // passes if the outside list is really consulted.
        let pts = vec![Point::new(500.0, 500.0), Point::new(8.0, 6.0)];
        let idx = GridIndex::build(region(), 1.0, pts);
        let q = Point::new(480.0, 500.0);
        assert_eq!(idx.nearest(q).unwrap().0, 0);
        assert_eq!(idx.within_radius(q, 25.0), vec![0]);
        // Pairs: the two are ~695 km apart; only a huge radius links them.
        assert!(idx.pairs_within(100.0).is_empty());
        assert_eq!(idx.pairs_within(1000.0), vec![(0, 1)]);
    }

    #[test]
    fn nearest_batch_handles_empty_inputs() {
        let empty = GridIndex::build(region(), 1.0, std::iter::empty());
        assert!(empty.nearest_batch(&[Point::origin()], |&q| q).is_none());
        let idx = GridIndex::build(region(), 1.0, vec![Point::new(3.0, 3.0)]);
        assert_eq!(idx.nearest_batch(&[] as &[Point], |&q| q), Some(Vec::new()));
    }

    #[test]
    fn duplicate_points_tie_break_to_lowest_index() {
        let p = Point::new(4.0, 4.0);
        let idx = GridIndex::build(region(), 1.0, vec![p, p, p]);
        assert_eq!(idx.nearest(Point::new(4.1, 4.0)).unwrap().0, 0);
    }

    #[test]
    fn try_build_rejects_bad_inputs_with_typed_errors() {
        let err = GridIndex::try_build(region(), 0.0, vec![Point::origin()]).unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
        let err = GridIndex::try_build(region(), f64::NAN, vec![Point::origin()]).unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
        let err = GridIndex::try_build(region(), 1.0, vec![Point::new(f64::NAN, 1.0)]).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        assert!(GridIndex::try_build(region(), 1.0, vec![Point::origin()]).is_ok());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::build(region(), 0.0, vec![Point::origin()]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_point_panics() {
        let _ = GridIndex::build(region(), 1.0, vec![Point::new(f64::NAN, 1.0)]);
    }

    #[test]
    fn radius_zero_finds_exact_matches_only() {
        let pts = vec![Point::new(1.0, 1.0), Point::new(1.0, 1.000001)];
        let idx = GridIndex::build(region(), 1.0, pts);
        assert_eq!(idx.within_radius(Point::new(1.0, 1.0), 0.0), vec![0]);
    }

    #[test]
    fn degenerate_radii_are_total() {
        let pts = vec![Point::new(1.0, 1.0), Point::new(-40.0, 90.0)];
        let idx = GridIndex::build(region(), 1.0, pts.clone());
        assert!(idx.within_radius(Point::origin(), -1.0).is_empty());
        assert!(idx.within_radius(Point::origin(), f64::NAN).is_empty());
        assert_eq!(idx.within_radius(Point::origin(), f64::INFINITY), vec![0, 1]);
    }

    #[test]
    fn cell_of_partitions_every_point() {
        let idx = GridIndex::build(region(), 4.0, std::iter::empty());
        assert_eq!(idx.cols(), 5);
        assert_eq!(idx.rows(), 3);
        assert_eq!(idx.cell_count(), 15);
        assert_eq!(idx.cell_of(Point::origin()), 0);
        assert_eq!(idx.cell_of(Point::new(17.0, 11.0)), 14);
        // Out-of-bounds points clamp onto boundary tiles.
        assert_eq!(idx.cell_of(Point::new(-100.0, -100.0)), 0);
        assert_eq!(idx.cell_of(Point::new(100.0, 100.0)), 14);
    }

    /// Point sets mixing in-bounds and far out-of-bounds coordinates.
    fn wild_points() -> impl Strategy<Value = Vec<Point>> {
        (
            prop::collection::vec((0.0f64..17.0, 0.0f64..11.0), 0..25),
            prop::collection::vec((-600.0f64..600.0, -600.0f64..600.0), 1..25),
        )
            .prop_map(|(inside, outside)| {
                inside.into_iter().chain(outside).map(Point::from).collect()
            })
    }

    /// Queries drawn from the evaluation region half the time, from far
    /// outside it the other half.
    fn wild_query() -> impl Strategy<Value = Point> {
        (0.0f64..1.0, (0.0f64..17.0, 0.0f64..11.0), (-600.0f64..600.0, -600.0f64..600.0)).prop_map(
            |(pick, inside, outside)| {
                if pick < 0.5 {
                    Point::from(inside)
                } else {
                    Point::from(outside)
                }
            },
        )
    }

    proptest! {
        #[test]
        fn prop_nearest_agrees_with_brute_force(
            pts in wild_points(),
            q in wild_query(),
            cell in prop::sample::select(vec![0.3, 1.5, 9.0]),
        ) {
            let idx = GridIndex::build(region(), cell, pts.iter().copied());
            let (gi, gd) = idx.nearest(q).unwrap();
            let (bi, bd) = pts
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.distance(q)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .unwrap();
            prop_assert_eq!(gi, bi);
            prop_assert!((gd - bd).abs() <= 1e-12);
        }

        #[test]
        fn prop_nearest_batch_matches_single_queries(
            pts in wild_points(),
            queries in prop::collection::vec(wild_query(), 0..60),
            cell in prop::sample::select(vec![0.3, 1.5, 9.0]),
        ) {
            let idx = GridIndex::build(region(), cell, pts.iter().copied());
            let batch = idx.nearest_batch(&queries, |&q| q).unwrap();
            prop_assert_eq!(batch.len(), queries.len());
            for (&q, &(bi, bd)) in queries.iter().zip(&batch) {
                let (i, d) = idx.nearest(q).unwrap();
                prop_assert_eq!((bi, bd.to_bits()), (i, d.to_bits()), "query {}", q);
            }
        }

        #[test]
        fn prop_nearest_batch_matches_on_dense_cells_with_ties(
            pts in prop::collection::vec((0.0f64..17.0, 0.0f64..11.0), 1..40),
            dups in prop::collection::vec(0usize..1000, 0..10),
            queries in prop::collection::vec((0.0f64..=17.0, 0.0f64..=11.0), 0..300),
            cell in prop::sample::select(vec![0.3, 1.5, 9.0]),
        ) {
            // Duplicate locations force distance ties, and queries placed
            // exactly on points force zero-distance ties.
            let mut pts: Vec<Point> = pts.into_iter().map(Point::from).collect();
            let copies: Vec<Point> = dups.iter().map(|&k| pts[k % pts.len()]).collect();
            pts.extend(copies);
            let mut queries: Vec<Point> = queries.into_iter().map(Point::from).collect();
            queries.extend(pts.iter().copied());
            queries.push(region().max());
            let idx = GridIndex::build(region(), cell, pts.iter().copied());
            let batch = idx.nearest_batch(&queries, |&q| q).unwrap();
            for (&q, &(bi, bd)) in queries.iter().zip(&batch) {
                let (i, d) = idx.nearest(q).unwrap();
                prop_assert_eq!((bi, bd.to_bits()), (i, d.to_bits()), "query {}", q);
            }
        }

        #[test]
        fn prop_radius_query_is_sound_and_complete(
            pts in wild_points(),
            q in wild_query(),
            r in 0.0f64..700.0,
            cell in prop::sample::select(vec![0.3, 1.5, 9.0]),
        ) {
            let idx = GridIndex::build(region(), cell, pts.iter().copied());
            let got = idx.within_radius(q, r);
            let want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.distance(q) <= r)
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
