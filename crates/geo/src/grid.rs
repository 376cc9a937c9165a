use crate::{GeoError, Point, Rect, MAX_COORDINATE_KM};

/// Relative (and, scaled by the largest bounds coordinate, absolute)
/// inflation of a batched query's candidate radius and stopping bound. It
/// covers the rounding of cell assignment and of distances, which is
/// ~1e-15 relative.
const ROUNDING_SLACK: f64 = 1e-9;

/// Two correctly rounded square roots that round to the same distance
/// come from squared distances within a relative `2^-50` of each other.
/// A squared distance above `TIE_RATIO` times a normal one therefore has
/// a strictly larger square root.
const TIE_RATIO: f64 = 1.0 + 1e-12;

/// Most points an index holds, and most queries one counting sort of
/// [`GridIndex::nearest_batch`] holds: both are numbered with `u32` ids.
const MAX_IDS: usize = u32::MAX as usize;

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
/// Build cost is `O(n + cells)` in two passes; queries are
/// `O(points inspected)`, which for the paper's densities is a small
/// constant.
///
/// # Layout
///
/// The cells are stored in compressed sparse row (CSR) form. The points
/// are sorted by `(cell, index)`: their indexes in one `u32` buffer, their
/// coordinates in a parallel `Point` buffer, and cell `c` owns the range
/// `start[c]..start[c + 1]` of both. Cells are numbered row-major, so the
/// cells `c_lo..=c_hi` of one grid row are one contiguous range, and a
/// window of cells is read as one slice per grid row. The index keeps no
/// copy of the points in insertion order. Indexes are `u32`, so
/// [`GridIndex::try_build`] rejects more than `u32::MAX` points.
///
/// # Out-of-bounds points and queries
///
/// Points outside `bounds` are **not** bucketed into boundary cells: they
/// live on a separate outside list, one more CSR range after the last
/// cell, that every query walks in full, so they can never be silently
/// dropped by a cell-window computed from clamped coordinates. Queries
/// outside `bounds` are clamped onto it for cell selection only —
/// distances always use true coordinates, and clamping onto a rectangle is
/// non-expansive (`|clamp(q) − p| ≤ |q − p|` for any in-bounds `p`), which
/// keeps both the ring-termination bound of [`GridIndex::nearest`] and the
/// cell window of [`GridIndex::within_radius`] exact. The differential
/// proptests in this module pin that contract against a brute-force scan.
///
/// # Batched nearest queries
///
/// [`GridIndex::nearest_batch`] answers many queries at once by sharing
/// work between the queries of one cell, and reads both the queries and
/// the candidate points sequentially.
///
/// *Candidates.* Let `c` be the cell's centre, `h` its half-diagonal and
/// `d_c` the distance from `c` to its nearest point `p_c`. Every query `q`
/// in the cell has `|q − c| ≤ h`, so its nearest distance is at most
/// `|q − p_c| ≤ d_c + h`. Any point tied for nearest to `q` is therefore
/// within `d_c + h` of `q`, hence of the cell rectangle. The cell's
/// candidate list — every point within `d_c + h` of the rectangle, plus a
/// tiny slack for rounding — thus holds all of them.
///
/// *Stopping early.* Each candidate `p` carries `lb(p)`, its distance to
/// the cell rectangle, and the list is sorted by it. No query in the cell
/// is closer to `p` than `lb(p)`, up to the rounding of cell assignment.
/// A query scans the list in that order and stops at the first candidate
/// with `lb(p) > best·(1 + ε) + s`, where `best` is the smallest distance
/// found so far, `ε` is `ROUNDING_SLACK` and `s` is `ROUNDING_SLACK` times
/// the largest bounds coordinate (at least 1 km). The slack exceeds every
/// rounding error of `lb`, of the distance and of cell assignment, so
/// each candidate from there on is farther from the query than `best`
/// even as computed: it can neither beat nor tie the minimum. The stop is
/// strict. A candidate with `lb(p) = best` is still scanned: say the query
/// sits on the left edge of its cell, and `p` lies just as far to its left
/// as a point inside the cell lies from it. Then `p` ties that point, and
/// the lower index still wins.
///
/// *Skipping square roots.* A scan compares squared distances first.
/// `sqrt` is correctly rounded, hence monotone, and two squared distances
/// whose roots round to the same value differ by a relative `2^-50` at
/// most. A candidate whose squared distance exceeds the best one's by
/// the factor `TIE_RATIO` (`1 + 1e-12`), when the best one is a normal
/// number, is therefore strictly farther and cannot change the
/// `(distance, index)` minimum. Only the other candidates take a square
/// root.
///
/// With the same tie-break as [`GridIndex::nearest`], the scan gives the
/// same index and the same distance bit for bit.
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
    /// The points by cell, with the outside list as the range after the
    /// last cell.
    buckets: Buckets,
}

/// Ids and points in compressed sparse row (CSR) form: bucket `b` owns
/// `start[b]..start[b + 1]` of `ids` and `points`.
#[derive(Debug, Clone, Default)]
struct Buckets {
    start: Vec<usize>,
    ids: Vec<u32>,
    points: Vec<Point>,
}

/// A point that can be the nearest point of a query in the cell being
/// scanned.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Distance from the point to the cell rectangle, in km.
    lower_km: f64,
    id: u32,
    point: Point,
}

impl GridIndex {
    /// Builds an index over `points`, bucketing into square cells of side
    /// `cell_km` within `bounds`. Points outside `bounds` stay queryable
    /// through a separate full-scan list (see the type-level docs).
    ///
    /// # Errors
    ///
    /// [`GeoError`] if `cell_km` is not strictly positive and finite, if a
    /// bounds corner or a point has a non-finite coordinate or one beyond
    /// [`MAX_COORDINATE_KM`] in magnitude, or if there are more than
    /// `u32::MAX` points.
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
        if let Some(corner) =
            [bounds.min(), bounds.max()].into_iter().find(|&p| !coordinates_in_range(p))
        {
            return Err(GeoError::new(format!(
                "bounds corner {corner} lies beyond ±{MAX_COORDINATE_KM:e} km"
            )));
        }
        let points = points.into_iter();
        let too_many = |n: usize| {
            GeoError::new(format!("{n} points exceed the index's limit of {MAX_IDS} (u32 ids)"))
        };
        if points.size_hint().0 > MAX_IDS {
            return Err(too_many(points.size_hint().0));
        }
        let points: Vec<Point> = points.collect();
        if points.len() > MAX_IDS {
            return Err(too_many(points.len()));
        }
        if let Some((i, p)) = points.iter().enumerate().find(|&(_, &p)| !coordinates_in_range(p)) {
            let problem = if p.is_finite() {
                "lies beyond the coordinate range"
            } else {
                "has non-finite coordinates"
            };
            return Err(GeoError::new(format!(
                "point {i} {problem} ({}, {}); coordinates must be finite and within \
                 ±{MAX_COORDINATE_KM:e} km, where every distance stays finite",
                p.x, p.y
            )));
        }
        let cols = ((bounds.width() / cell_km).ceil() as usize).max(1);
        let rows = ((bounds.height() / cell_km).ceil() as usize).max(1);
        if cols.checked_mul(rows).is_none() {
            return Err(GeoError::new(format!(
                "grid of {cols} x {rows} cells overflows; cell size {cell_km} is too small \
                 for the bounds"
            )));
        }
        let mut index = GridIndex { bounds, cell_km, cols, rows, buckets: Buckets::default() };
        // The cells, then the outside list. Ids ascend in each bucket
        // because the sort keeps input order.
        let bucket_count = index.cell_count().saturating_add(1);
        let items = points.iter().copied().zip(0u32..);
        index.buckets = Buckets::sort(bucket_count, items, |p| index.bucket_of(p));
        Ok(index)
    }

    /// Builds an index over `points`; see [`GridIndex::try_build`] for the
    /// typed-error path.
    ///
    /// # Panics
    ///
    /// Panics on every input [`GridIndex::try_build`] rejects: a cell size
    /// that is not strictly positive and finite, a coordinate that is not
    /// finite or beyond [`MAX_COORDINATE_KM`], or more than `u32::MAX`
    /// points.
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
        self.buckets.ids.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.buckets.ids.is_empty()
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

    /// The bucket of `p`: its cell when it lies inside `bounds`, the
    /// outside list (bucket `cell_count`) when not.
    fn bucket_of(&self, p: Point) -> usize {
        if self.bounds.contains(p) {
            self.cell_of(p)
        } else {
            self.cell_count()
        }
    }

    /// The ids and points bucketed in cells `c_lo..=c_hi` of grid row
    /// `row`: one contiguous range.
    fn row_points(&self, row: usize, c_lo: usize, c_hi: usize) -> (&[u32], &[Point]) {
        let first = row.saturating_mul(self.cols);
        self.buckets.span(first.saturating_add(c_lo), first.saturating_add(c_hi))
    }

    /// The ids and points outside `bounds`, in ascending id order.
    fn outside(&self) -> (&[u32], &[Point]) {
        self.buckets.span(self.cell_count(), self.cell_count())
    }

    /// Absolute rounding slack of distances and cell assignment, in km:
    /// `ROUNDING_SLACK` times the largest bounds coordinate magnitude, or
    /// times 1 when that is smaller.
    fn slack_km(&self) -> f64 {
        let (min, max) = (self.bounds.min(), self.bounds.max());
        let magnitude = [min.x, min.y, max.x, max.y].iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let slack_km: f64 = magnitude * ROUNDING_SLACK;
        slack_km
    }

    /// Index and distance of the point nearest to `query`, or `None` when
    /// the index is empty. Ties break toward the lower point index.
    ///
    /// Exact: searches rings of cells outward until the best candidate is
    /// provably closer than any unvisited cell, after seeding the best with
    /// a full scan of the out-of-bounds list.
    // The nearest-point code below calls slice methods by path
    // (`<[T]>::get`), and `Point::distance` and `Self::nearest` by path:
    // ccdn-analyze resolves method names without their receiver types and
    // would charge `.get(..)`, `.distance(..)` and `.nearest(..)` to
    // panicking namesakes.
    pub fn nearest(&self, query: Point) -> Option<(usize, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut best: Option<(u32, f64)> = None;
        // Out-of-bounds points are never bucketed — scan them all first.
        let (ids, points) = self.outside();
        for (&i, &p) in ids.iter().zip(points) {
            update_best(&mut best, i, Point::distance(p, query));
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
                    let (ids, points) = self.row_points(row, lo, hi);
                    for (&i, &p) in ids.iter().zip(points) {
                        update_best(&mut best, i, Point::distance(p, query));
                    }
                }
            }
        }
        best.map(|(i, d)| (i as usize, d))
    }

    /// [`GridIndex::nearest`] of every query at once: entry `k` of the
    /// result is `nearest(locate(&queries[k]))`, bit for bit. `None`
    /// when the index is empty.
    ///
    /// A counting sort writes the queries' ids and points into buffers in
    /// cell order, with the out-of-bounds queries after the last cell.
    /// Each non-empty cell then gathers its candidate points once, sorted
    /// by their distance to the cell, and scans them for every query it
    /// holds, stopping early (see the type-level docs for why this is
    /// exact). Out-of-bounds queries take the single-query path. The
    /// buffers are scratch, dropped on return.
    ///
    /// Cost: `O(m + cells)` for the sort, plus per non-empty cell one
    /// `nearest` of its centre, one scan of the window of cells its
    /// candidate radius reaches and a sort of its candidates, plus per
    /// query the candidates up to its stopping bound.
    pub fn nearest_batch<T>(
        &self,
        queries: &[T],
        locate: impl Fn(&T) -> Point,
    ) -> Option<Vec<(usize, f64)>> {
        if self.is_empty() {
            return None;
        }
        let mut found = vec![(0, 0.0); queries.len()];
        // Query ids are u32. Past `u32::MAX` queries, never reached in
        // practice, the rest take the single-query path.
        let (batched, rest) = queries.split_at(queries.len().min(MAX_IDS));
        let (found_batched, found_rest) = found.split_at_mut(batched.len());
        for (q, slot) in rest.iter().zip(found_rest) {
            if let Some(hit) = Self::nearest(self, locate(q)) {
                *slot = hit;
            }
        }
        // The cells, then the out-of-bounds queries.
        let bucket_count = self.cell_count().saturating_add(1);
        let items = batched.iter().zip(0u32..).map(|(q, k)| (locate(q), k));
        let sorted = Buckets::sort(bucket_count, items, |p| self.bucket_of(p));
        let slack_km = self.slack_km();
        let mut candidates = Vec::new();
        for bucket in 0..bucket_count {
            let (ids, points) = sorted.span(bucket, bucket);
            if ids.is_empty() {
                continue;
            }
            self.cell_candidates(bucket, slack_km, &mut candidates);
            for (&k, &q) in ids.iter().zip(points) {
                // The outside bucket has no candidates, so its queries take
                // the single-query path. A cell's candidates always hold
                // its centre's nearest point.
                let hit = match nearest_candidate(&candidates, q, slack_km) {
                    Some((i, d)) => Some((i as usize, d)),
                    None => Self::nearest(self, q),
                };
                if let (Some(slot), Some(hit)) =
                    (<[(usize, f64)]>::get_mut(found_batched, k as usize), hit)
                {
                    *slot = hit;
                }
            }
        }
        #[cfg(feature = "strict-invariants")]
        self.check_batch(queries, &locate, &found);
        Some(found)
    }

    /// With `strict-invariants`: re-checks every in-bounds answer of
    /// [`GridIndex::nearest_batch`] against [`GridIndex::nearest`], bit for
    /// bit, and aborts on the first that differs.
    #[cfg(feature = "strict-invariants")]
    // lint: allow(panic-reach): strict-invariants deliberately aborts on a violated invariant
    fn check_batch<T>(&self, queries: &[T], locate: impl Fn(&T) -> Point, found: &[(usize, f64)]) {
        for (q, &(i, d)) in queries.iter().zip(found) {
            let p = locate(q);
            let single = Self::nearest(self, p).map(|(i, d)| (i, d.to_bits()));
            if self.bounds.contains(p) && single != Some((i, d.to_bits())) {
                // lint: allow(no-panic): strict-invariants deliberately aborts on a violated invariant
                panic!(
                    "strict-invariants: nearest_batch gave ({i}, {d}) for {p}, nearest {single:?}"
                );
            }
        }
    }

    /// Replaces `out` with every point that can be the nearest point of a
    /// query inside `cell`, sorted by its distance to the cell rectangle:
    /// those within `d_c + h` of the rectangle, where `d_c` is the
    /// nearest-point distance of the cell centre and `h` the cell's
    /// half-diagonal, inflated by a slack that absorbs floating-point
    /// rounding in cell assignment and distances. Empty past the last
    /// cell.
    fn cell_candidates(&self, cell: usize, slack_km: f64, out: &mut Vec<Candidate>) {
        out.clear();
        let (Some(row), Some(col)) = (cell.checked_div(self.cols), cell.checked_rem(self.cols))
        else {
            return;
        };
        if row >= self.rows {
            return;
        }
        let min = self.bounds.min();
        let x0 = min.x + col as f64 * self.cell_km;
        let y0 = min.y + row as f64 * self.cell_km;
        let x1 = min.x + (col as f64 + 1.0) * self.cell_km;
        let y1 = min.y + (row as f64 + 1.0) * self.cell_km;
        let centre = Point::new(x0, y0).midpoint(Point::new(x1, y1));
        let Some((_, centre_km)) = Self::nearest(self, centre) else { return };
        let half_diagonal = self.cell_km * std::f64::consts::FRAC_1_SQRT_2;
        let reach_km: f64 = (centre_km + half_diagonal) * (1.0 + ROUNDING_SLACK) + slack_km;
        let mut gather = |ids: &[u32], points: &[Point]| {
            for (&id, &point) in ids.iter().zip(points) {
                let in_cell = Point::new(point.x.clamp(x0, x1), point.y.clamp(y0, y1));
                let lower_km = Point::distance(in_cell, point);
                if lower_km <= reach_km {
                    out.push(Candidate { lower_km, id, point });
                }
            }
        };
        // A bucketed point `k >= 1` cells away along an axis is at least
        // `(k - 1) * cell_km` from the cell rectangle on that axis, so the
        // window reaches `floor(reach_km / cell_km) + 1` cells out.
        let reach_cells: f64 = (reach_km / self.cell_km).floor();
        let reach = (reach_cells as usize).saturating_add(1).min(self.cols.max(self.rows));
        let c_lo = col.saturating_sub(reach);
        let c_hi = col.saturating_add(reach).min(self.cols - 1);
        for r in row.saturating_sub(reach)..=row.saturating_add(reach).min(self.rows - 1) {
            let (ids, points) = self.row_points(r, c_lo, c_hi);
            gather(ids, points);
        }
        let (ids, points) = self.outside();
        gather(ids, points);
        // Distances are non-negative, and non-negative f64s order like
        // their bit patterns.
        out.sort_unstable_by_key(|c| c.lower_km.to_bits());
    }

    /// Indexes of all points within `radius_km` of `query` (inclusive of
    /// the boundary), in ascending index order. A negative or non-finite
    /// negative radius yields no matches; an infinite radius matches every
    /// point.
    pub fn within_radius(&self, query: Point, radius_km: f64) -> Vec<usize> {
        let mut out = Vec::new();
        if self.is_empty() || radius_km < 0.0 || radius_km.is_nan() {
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
        // The window's rows, then the out-of-bounds points in full.
        let rows = (r_lo..=r_hi).map(|row| self.row_points(row, c_lo, c_hi));
        for (ids, points) in rows.chain([self.outside()]) {
            for (&i, p) in ids.iter().zip(points) {
                if p.distance_squared(query) <= r2 {
                    out.push(i as usize);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// All unordered point pairs `(i, j)` with `i < j` whose distance is at
    /// most `radius_km`, in ascending order. Used to enumerate the
    /// candidate `Gd` edges under the latency threshold `θ` and the
    /// "< 5 km" pair sets of Fig. 3.
    // lint: allow(panic-reach): iterator-based; the only sink is the guarded index
    // arithmetic inside within_radius
    pub fn pairs_within(&self, radius_km: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (&i, &p) in self.buckets.ids.iter().zip(&self.buckets.points) {
            let i = i as usize;
            for j in self.within_radius(p, radius_km) {
                if j > i {
                    out.push((i, j));
                }
            }
        }
        // The points are stored by cell, not by index.
        out.sort_unstable();
        out
    }
}

impl Buckets {
    /// Counting sort of `items` into `count` buckets by `bucket_of`,
    /// keeping the items' order within each bucket. Reads `items` twice.
    fn sort<I>(count: usize, items: I, bucket_of: impl Fn(Point) -> usize) -> Self
    where
        I: Iterator<Item = (Point, u32)> + Clone,
    {
        // Pass 1: bucket `b`'s size into `start[b + 1]`, then prefix sums.
        let mut start = vec![0usize; count.saturating_add(1)];
        for (p, _) in items.clone() {
            if let Some(size) = <[usize]>::get_mut(&mut start, bucket_of(p).saturating_add(1)) {
                *size = size.saturating_add(1);
            }
        }
        let mut total = 0usize;
        for at in start.iter_mut() {
            total = total.saturating_add(*at);
            *at = total;
        }
        // Pass 2: `next[b]` walks bucket `b`'s range.
        let mut next = start.clone();
        let mut ids = vec![0u32; total];
        let mut points = vec![Point::origin(); total];
        for (p, id) in items {
            let Some(at) = <[usize]>::get_mut(&mut next, bucket_of(p)) else { continue };
            if let (Some(slot_id), Some(slot_p)) =
                (<[u32]>::get_mut(&mut ids, *at), <[Point]>::get_mut(&mut points, *at))
            {
                (*slot_id, *slot_p) = (id, p);
            }
            *at = at.saturating_add(1);
        }
        Buckets { start, ids, points }
    }

    /// The ids and points of buckets `first..=last`: one contiguous range.
    fn span(&self, first: usize, last: usize) -> (&[u32], &[Point]) {
        let at = |b: usize| <[usize]>::get(&self.start, b).copied().unwrap_or(0);
        let (lo, hi) = (at(first), at(last.saturating_add(1)));
        let ids = <[u32]>::get(&self.ids, lo..hi).unwrap_or_default();
        (ids, <[Point]>::get(&self.points, lo..hi).unwrap_or_default())
    }
}

/// Whether both coordinates of `p` are finite and within
/// [`MAX_COORDINATE_KM`] in magnitude.
fn coordinates_in_range(p: Point) -> bool {
    p.x.abs() <= MAX_COORDINATE_KM && p.y.abs() <= MAX_COORDINATE_KM
}

/// Replaces `best` when `(i, d)` is closer, breaking distance ties toward
/// the lower point index; returns whether it did.
fn update_best(best: &mut Option<(u32, f64)>, i: u32, d: f64) -> bool {
    let better = match *best {
        None => true,
        Some((bi, bd)) => d < bd || (d == bd && i < bi),
    };
    if better {
        *best = Some((i, d));
    }
    better
}

/// The `(index, distance)` minimum over `candidates` for a query `q` of
/// their cell, as [`update_best`] ranks them, or `None` for no
/// candidates. It stops at the first candidate whose distance bound
/// exceeds the best distance plus slack, and takes no square root of a
/// squared distance that exceeds the best one by the factor `TIE_RATIO`
/// (see the type-level docs for why both are exact).
fn nearest_candidate(candidates: &[Candidate], q: Point, slack_km: f64) -> Option<(u32, f64)> {
    let mut best = None;
    let mut stop_km = f64::INFINITY;
    let mut skip_above = f64::INFINITY;
    for c in candidates {
        if c.lower_km > stop_km {
            break;
        }
        let d2 = c.point.distance_squared(q);
        if d2 > skip_above {
            continue;
        }
        let d = d2.sqrt();
        if update_best(&mut best, c.id, d) {
            let stop: f64 = d * (1.0 + ROUNDING_SLACK) + slack_km;
            let skip: f64 = if d2 >= f64::MIN_POSITIVE { d2 * TIE_RATIO } else { f64::INFINITY };
            (stop_km, skip_above) = (stop, skip);
        }
    }
    best
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
    fn try_build_rejects_coordinates_whose_distances_overflow() {
        for p in [Point::new(1e300, 1.0), Point::new(1.0, -1e300)] {
            let err = GridIndex::try_build(region(), 1.0, vec![Point::origin(), p]).unwrap_err();
            let message = err.to_string();
            assert!(message.contains("point 1") && message.contains("beyond"), "{message}");
        }
        let wide = Rect::new(Point::origin(), Point::new(1e300, 1.0));
        let err = GridIndex::try_build(wide, 1.0, std::iter::empty()).unwrap_err();
        assert!(err.to_string().contains("bounds corner"), "{err}");
        // At the bound itself every distance is still finite.
        let edge = Point::new(MAX_COORDINATE_KM, -MAX_COORDINATE_KM);
        let idx = GridIndex::try_build(region(), 1.0, vec![Point::origin(), edge]).unwrap();
        let far = Point::new(-MAX_COORDINATE_KM, MAX_COORDINATE_KM);
        let (i, d) = idx.nearest(far).unwrap();
        assert_eq!(i, 0);
        assert!(d.is_finite(), "{d}");
        assert_eq!(idx.nearest_batch(&[far, edge], |&q| q), Some(vec![(0, d), (1, 0.0)]));
    }

    #[test]
    fn square_root_skip_keeps_ties_of_different_squared_distances() {
        // `B` and `A` lie at squared distances 0.25 + 2^-54 and 0.25 from
        // `q`, and both square roots round to 0.5. `A` is inside `q`'s
        // 1.5 km cell and is scanned first; `B`, outside it, has the lower
        // index and must still win the tie.
        let q = Point::new(1.25, 1.0);
        let b = Point::new(1.75, 1.0 + 2f64.powi(-27));
        let a = Point::new(0.75, 1.0);
        assert!(b.distance_squared(q) > a.distance_squared(q));
        assert_eq!(b.distance(q).to_bits(), a.distance(q).to_bits());
        let idx = GridIndex::build(region(), 1.5, vec![b, a]);
        assert_eq!(idx.nearest(q), Some((0, 0.5)));
        assert_eq!(idx.nearest_batch(&[q], |&q| q), Some(vec![(0, 0.5)]));
    }

    #[test]
    fn try_build_rejects_more_points_than_u32_ids() {
        // The exact size hint rejects the input before anything is stored.
        let too_many = std::iter::repeat_n(Point::origin(), MAX_IDS + 1);
        let err = GridIndex::try_build(region(), 1.0, too_many).unwrap_err();
        assert!(err.to_string().contains("u32"), "{err}");
    }

    #[test]
    fn layout_buckets_each_point_once_in_index_order() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut pts: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.gen_range(-3.0..20.0), rng.gen_range(-3.0..14.0)))
            .collect();
        // Cell corners, cell borders and the region's own corners.
        pts.extend(
            [(0.0, 0.0), (17.0, 11.0), (1.5, 3.0), (4.5, 7.3), (16.9, 1.5), (17.0, 0.0)]
                .map(Point::from),
        );
        pts.extend([(-0.1, 5.0), (17.1, 5.0), (5.0, 11.1)].map(Point::from));
        let idx = GridIndex::build(region(), 1.5, pts.iter().copied());
        assert_eq!(idx.len(), pts.len());
        let start = &idx.buckets.start;
        assert_eq!(start.len(), idx.cell_count() + 2, "one range per cell, then the outside list");
        assert_eq!((start[0], start[start.len() - 1]), (0, pts.len()));
        assert!(start.windows(2).all(|w| w[0] <= w[1]));
        let mut seen = vec![0; pts.len()];
        for bucket in 0..=idx.cell_count() {
            let (ids, points) = idx.buckets.span(bucket, bucket);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "bucket {bucket} is not in index order");
            for (&i, &p) in ids.iter().zip(points) {
                let i = i as usize;
                seen[i] += 1;
                assert_eq!(p, pts[i]);
                if bucket == idx.cell_count() {
                    assert!(!region().contains(p), "in-bounds point {i} on the outside list");
                } else {
                    assert!(region().contains(p), "out-of-bounds point {i} in cell {bucket}");
                    assert_eq!(idx.cell_of(p), bucket);
                }
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "every point sits in exactly one bucket");
        // One grid row's cells form one contiguous range.
        let (ids, _) = idx.row_points(2, 1, 4);
        let cells: usize =
            (1..=4).map(|c| idx.buckets.span(2 * idx.cols() + c, 2 * idx.cols() + c).0.len()).sum();
        assert_eq!(ids.len(), cells);
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

    /// Tight blobs: every point lies within `spread` km of one of a few
    /// centres in the region, so some land outside it.
    fn clustered_points() -> impl Strategy<Value = Vec<Point>> {
        (
            prop::collection::vec((0.0f64..17.0, 0.0f64..11.0), 1..5),
            prop::sample::select(vec![0.02, 0.3, 2.0]),
            prop::collection::vec((0usize..4, -1.0f64..1.0, -1.0f64..1.0), 50..400),
        )
            .prop_map(|(centres, spread, offsets)| {
                offsets
                    .into_iter()
                    .map(|(k, dx, dy)| {
                        let (cx, cy) = centres[k % centres.len()];
                        Point::new(cx + spread * dx, cy + spread * dy)
                    })
                    .collect()
            })
    }

    /// The brute-force `(index, distance)` minimum, ties to the lower index.
    fn brute_nearest(pts: &[Point], q: Point) -> (usize, f64) {
        pts.iter()
            .enumerate()
            .map(|(i, p)| (i, p.distance(q)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .unwrap()
    }

    proptest! {
        /// The batch path against single queries and brute force, bit for
        /// bit, on clustered points. The queries include exact cell
        /// borders and corners, and each case plants an exact tie at the
        /// stopping bound: query `q` sits on the bottom edge of its cell,
        /// point `A` lies `t` below it (outside the cell, so its distance
        /// bound is exactly `t`) and point `B` lies `t` to its left, inside
        /// the cell. `A` has the lower index and must win the tie.
        #[test]
        fn prop_nearest_batch_matches_on_clustered_points_with_planted_ties(
            pts in clustered_points(),
            cell in prop::sample::select(vec![0.3, 1.5, 9.0]),
            (kx, ky) in (0usize..64, 0usize..64),
            (a_at, b_at) in (0.0f64..1.0, 0.0f64..1.0),
            free in prop::collection::vec((-1.0f64..18.0, -1.0f64..12.0), 0..100),
        ) {
            let min = region().min();
            let grid = GridIndex::build(region(), cell, std::iter::empty());
            let (cols, rows) = (grid.cols(), grid.rows());
            // The bottom edge of row `r`, computed as the index computes
            // it, on a row that `cell_of` assigns the edge to.
            let edge = |r: usize| min.y + r as f64 * cell;
            let row_of = |y: f64| grid.cell_of(Point::new(min.x, y)) / cols;
            let ky = (0..rows).map(|r| (ky + r) % rows).find(|&r| row_of(edge(r)) == r).unwrap();
            let x0 = min.x + (kx % cols) as f64 * cell;
            // `t` is a power of two above every coordinate's ulp, so
            // `q.x - t` and `q.y - t` are exact and the tie is exact.
            let t = 1.0 / 32.0;
            let q = Point::new(x0 + 2.0 * t, edge(ky));
            let (a, b) = (Point::new(q.x, q.y - t), Point::new(q.x - t, q.y));
            prop_assert_eq!(a.distance(q).to_bits(), t.to_bits());
            prop_assert_eq!(b.distance(q).to_bits(), t.to_bits());
            let mut pts: Vec<Point> = pts.into_iter().filter(|p| p.distance(q) > 2.0 * t).collect();
            let ia = (a_at * pts.len() as f64) as usize;
            pts.insert(ia, a);
            let ib = ia + 1 + (b_at * (pts.len() - ia) as f64) as usize;
            pts.insert(ib, b);

            let snap = |v: f64, lo: f64| lo + ((v - lo) / cell).round() * cell;
            let mut queries = vec![q];
            for &(x, y) in &free {
                let (sx, sy) = (snap(x, min.x), snap(y, min.y));
                queries.extend([(x, y), (sx, y), (x, sy), (sx, sy)].map(Point::from));
            }
            queries.extend(pts.iter().step_by(7).copied());
            let idx = GridIndex::build(region(), cell, pts.iter().copied());
            let batch = idx.nearest_batch(&queries, |&q| q).unwrap();
            prop_assert_eq!(batch[0], (ia, t), "planted tie");
            for (&q, &(bi, bd)) in queries.iter().zip(&batch) {
                let (i, d) = idx.nearest(q).unwrap();
                let (wi, wd) = brute_nearest(&pts, q);
                prop_assert_eq!((bi, bd.to_bits()), (i, d.to_bits()), "query {}", q);
                prop_assert_eq!((bi, bd.to_bits()), (wi, wd.to_bits()), "query {}", q);
            }
        }

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
