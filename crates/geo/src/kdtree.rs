use crate::Point;

/// A static 2-d k-d tree over a fixed point set.
///
/// The [`GridIndex`](crate::GridIndex) is ideal when points are roughly
/// uniform over a known rectangle (the paper's city presets). The k-d
/// tree needs no bounding region and stays `O(log n)` per query under
/// arbitrarily skewed densities — e.g. a deployment where nearly all APs
/// sit in a handful of malls. Both structures answer the same queries and
/// are property-tested against each other.
///
/// # Examples
///
/// ```
/// use ccdn_geo::{KdTree, Point};
///
/// let tree = KdTree::build(vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0)]);
/// let (idx, dist) = tree.nearest(Point::new(1.0, 0.0)).unwrap();
/// assert_eq!(idx, 0);
/// assert_eq!(dist, 1.0);
/// assert_eq!(tree.within_radius(Point::new(4.0, 4.0), 2.0), vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    /// Node storage: `nodes[k]` splits on axis `depth % 2`.
    nodes: Vec<Node>,
    points: Vec<Point>,
    root: Option<usize>,
}

#[derive(Debug, Clone)]
struct Node {
    /// Index into `points`.
    point: usize,
    left: Option<usize>,
    right: Option<usize>,
}

impl KdTree {
    /// Builds a balanced tree over `points` (median splits).
    ///
    /// # Panics
    ///
    /// Panics if any point has a non-finite coordinate.
    pub fn build<I>(points: I) -> Self
    where
        I: IntoIterator<Item = Point>,
    {
        let points: Vec<Point> = points.into_iter().collect();
        for (i, p) in points.iter().enumerate() {
            assert!(p.is_finite(), "point {i} has non-finite coordinates");
        }
        let mut indexes: Vec<usize> = (0..points.len()).collect();
        let mut tree = KdTree { nodes: Vec::with_capacity(points.len()), points, root: None };
        tree.root = tree.build_rec(&mut indexes, 0);
        tree
    }

    fn build_rec(&mut self, indexes: &mut [usize], depth: usize) -> Option<usize> {
        if indexes.is_empty() {
            return None;
        }
        let axis = depth % 2;
        let mid = indexes.len() / 2;
        indexes.select_nth_unstable_by(mid, |&a, &b| {
            let (pa, pb) = (self.points[a], self.points[b]);
            if axis == 0 {
                pa.x.total_cmp(&pb.x).then(a.cmp(&b))
            } else {
                pa.y.total_cmp(&pb.y).then(a.cmp(&b))
            }
        });
        let point = indexes[mid];
        let node_id = self.nodes.len();
        self.nodes.push(Node { point, left: None, right: None });
        // Split the borrow: recurse on copies of the halves.
        let mut left_half: Vec<usize> = indexes[..mid].to_vec();
        let mut right_half: Vec<usize> = indexes[mid + 1..].to_vec();
        let left = self.build_rec(&mut left_half, depth + 1);
        let right = self.build_rec(&mut right_half, depth + 1);
        self.nodes[node_id].left = left;
        self.nodes[node_id].right = right;
        Some(node_id)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The indexed points, in insertion order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Index and distance of the nearest point to `query`; ties break to
    /// the lower index. `None` when empty.
    pub fn nearest(&self, query: Point) -> Option<(usize, f64)> {
        let root = self.root?;
        let mut best: Option<(usize, f64)> = None;
        self.nearest_rec(root, 0, query, &mut best);
        best.map(|(i, d2)| (i, d2.sqrt()))
    }

    fn nearest_rec(
        &self,
        node_id: usize,
        depth: usize,
        query: Point,
        best: &mut Option<(usize, f64)>,
    ) {
        let node = &self.nodes[node_id];
        let p = self.points[node.point];
        let d2 = p.distance_squared(query);
        let better = match *best {
            None => true,
            Some((bi, bd2)) => d2 < bd2 || (d2 == bd2 && node.point < bi),
        };
        if better {
            *best = Some((node.point, d2));
        }
        let axis = depth % 2;
        let (q, split) = if axis == 0 { (query.x, p.x) } else { (query.y, p.y) };
        let diff: f64 = q - split;
        let (near, far) =
            if diff < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
        if let Some(n) = near {
            self.nearest_rec(n, depth.saturating_add(1), query, best);
        }
        // Cross the splitting plane only if it can still improve.
        let cross_sq: f64 = diff * diff;
        let must_cross = match *best {
            None => true,
            Some((_, bd2)) => cross_sq <= bd2,
        };
        if must_cross {
            if let Some(f) = far {
                self.nearest_rec(f, depth.saturating_add(1), query, best);
            }
        }
    }

    /// Indexes of points within `radius_km` of `query` (inclusive), in
    /// ascending index order.
    ///
    /// # Panics
    ///
    /// Panics if `radius_km` is negative.
    pub fn within_radius(&self, query: Point, radius_km: f64) -> Vec<usize> {
        assert!(radius_km >= 0.0, "radius must be non-negative");
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.radius_rec(root, 0, query, radius_km * radius_km, radius_km, &mut out);
        }
        out.sort_unstable();
        out
    }

    // `.iter().nth` rather than `.get`: ccdn-analyze's name-based call
    // graph resolves `.get` to the panicking `DistanceMatrix::get`.
    #[allow(clippy::iter_nth)]
    fn radius_rec(
        &self,
        node_id: usize,
        depth: usize,
        query: Point,
        r2: f64,
        r: f64,
        out: &mut Vec<usize>,
    ) {
        let Some(node) = self.nodes.iter().nth(node_id) else {
            return;
        };
        let Some(&p) = self.points.iter().nth(node.point) else {
            return;
        };
        if p.distance_squared(query) <= r2 {
            out.push(node.point);
        }
        let axis = depth % 2;
        let diff = if axis == 0 { query.x - p.x } else { query.y - p.y };
        if diff - r <= 0.0 {
            if let Some(l) = node.left {
                self.radius_rec(l, depth + 1, query, r2, r, out);
            }
        }
        if diff + r >= 0.0 {
            if let Some(rgt) = node.right {
                self.radius_rec(rgt, depth + 1, query, r2, r, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GridIndex, Rect};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn empty_tree() {
        let tree = KdTree::build(std::iter::empty());
        assert!(tree.is_empty());
        assert!(tree.nearest(Point::origin()).is_none());
        assert!(tree.within_radius(Point::origin(), 10.0).is_empty());
    }

    #[test]
    fn single_point() {
        let tree = KdTree::build(vec![Point::new(3.0, 4.0)]);
        let (i, d) = tree.nearest(Point::origin()).unwrap();
        assert_eq!(i, 0);
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_points_tie_break_to_lowest_index() {
        let p = Point::new(1.0, 1.0);
        let tree = KdTree::build(vec![p, p, p]);
        assert_eq!(tree.nearest(Point::new(1.1, 1.0)).unwrap().0, 0);
    }

    #[test]
    fn nearest_matches_brute_force_on_random_sets() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let pts: Vec<Point> = (0..150)
                .map(|_| Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)))
                .collect();
            let tree = KdTree::build(pts.iter().copied());
            for _ in 0..40 {
                let q = Point::new(rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0));
                let (gi, gd) = tree.nearest(q).unwrap();
                let (bi, bd) = pts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, p.distance(q)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .unwrap();
                assert_eq!(gi, bi, "kd {gd} vs brute {bd}");
            }
        }
    }

    #[test]
    fn radius_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(5);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)))
            .collect();
        let tree = KdTree::build(pts.iter().copied());
        for _ in 0..40 {
            let q = Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0));
            let r = rng.gen_range(0.0..8.0);
            let got = tree.within_radius(q, r);
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
    fn handles_extremely_skewed_densities() {
        // 1000 points inside a 10 m blob plus one outlier 100 km away:
        // the regime the grid handles poorly without tuning.
        let mut rng = StdRng::seed_from_u64(8);
        let mut pts: Vec<Point> = (0..1000)
            .map(|_| Point::new(rng.gen_range(0.0..0.01), rng.gen_range(0.0..0.01)))
            .collect();
        pts.push(Point::new(100.0, 100.0));
        let tree = KdTree::build(pts.iter().copied());
        assert_eq!(tree.nearest(Point::new(99.0, 99.0)).unwrap().0, 1000);
        assert_eq!(tree.within_radius(Point::new(100.0, 100.0), 1.0), vec![1000]);
    }

    proptest! {
        #[test]
        fn prop_kdtree_agrees_with_grid(
            pts in prop::collection::vec((0.0f64..17.0, 0.0f64..11.0), 1..80),
            q in (0.0f64..17.0, 0.0f64..11.0),
            r in 0.0f64..9.0,
        ) {
            let pts: Vec<Point> = pts.into_iter().map(Point::from).collect();
            let region = Rect::new(Point::origin(), Point::new(17.0, 11.0));
            let grid = GridIndex::build(region, 1.0, pts.iter().copied());
            let tree = KdTree::build(pts.iter().copied());
            let q = Point::from(q);
            prop_assert_eq!(tree.nearest(q).map(|(i, _)| i), grid.nearest(q).map(|(i, _)| i));
            prop_assert_eq!(tree.within_radius(q, r), grid.within_radius(q, r));
        }
    }
}
