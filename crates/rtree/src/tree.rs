//! The STR-packed static R-tree.

use soi_common::{effective_threads, par_chunks_mut, par_sort_by, OrderedF64};
use soi_geo::{Point, Rect};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An item storable in the tree: anything with a bounding rectangle.
pub trait BoundedItem {
    /// The item's bounding rectangle (a degenerate rect for points).
    fn rect(&self) -> Rect;
}

/// A per-node aggregate, merged bottom-up at build time.
///
/// Summaries let traversals prune whole subtrees on non-spatial criteria —
/// the hybrid spatio-textual index stores the union of subtree keywords.
pub trait Summary<T>: Clone {
    /// The empty aggregate.
    fn empty() -> Self;
    /// Folds one item into the aggregate.
    fn add_item(&mut self, item: &T);
    /// Merges a child aggregate into this one.
    fn merge(&mut self, other: &Self);
}

/// The trivial summary (no aggregation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoSummary;

impl<T> Summary<T> for NoSummary {
    fn empty() -> Self {
        NoSummary
    }
    fn add_item(&mut self, _: &T) {}
    fn merge(&mut self, _: &Self) {}
}

#[derive(Debug, Clone, Copy)]
enum Children {
    /// Leaf: a contiguous range of `items`.
    Items { start: usize, len: usize },
    /// Internal: a contiguous range of `nodes`.
    Nodes { start: usize, len: usize },
}

#[derive(Debug, Clone)]
struct Node<S> {
    rect: Rect,
    summary: S,
    children: Children,
}

/// A static R-tree bulk-loaded with the Sort-Tile-Recursive algorithm.
///
/// Items are stored once, grouped by leaf; internal levels are rebuilt
/// bottom-up with STR tiling per level. The tree is immutable after
/// construction (street segments, POIs, and photos are static in this
/// system, as the paper notes).
///
/// ```
/// use soi_geo::{Point, Rect};
/// use soi_rtree::RTree;
///
/// let pts: Vec<Point> = (0..100)
///     .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
///     .collect();
/// let tree: RTree<Point> = RTree::bulk_load(pts);
///
/// // Range query.
/// let mut hits = 0;
/// tree.search_rect(&Rect::new(Point::new(1.5, 1.5), Point::new(3.5, 3.5)), |_| hits += 1);
/// assert_eq!(hits, 4);
///
/// // Nearest neighbours.
/// let near = tree.nearest_k(Point::new(4.2, 4.2), 1);
/// assert_eq!(near[0].0, &Point::new(4.0, 4.0));
/// ```
#[derive(Debug, Clone)]
pub struct RTree<T, S = NoSummary> {
    items: Vec<T>,
    nodes: Vec<Node<S>>,
    root: Option<usize>,
    fanout: usize,
}

/// Default maximum entries per node.
pub const DEFAULT_FANOUT: usize = 16;

impl<T: BoundedItem, S: Summary<T>> RTree<T, S> {
    /// Bulk-loads a tree from `items` with the default fanout.
    pub fn bulk_load(items: Vec<T>) -> Self {
        Self::bulk_load_with_fanout(items, DEFAULT_FANOUT)
    }

    /// Bulk-loads a tree with an explicit `fanout` (≥ 2).
    ///
    /// # Panics
    /// Panics if `fanout < 2`.
    pub fn bulk_load_with_fanout(items: Vec<T>, fanout: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        let mut tree = Self {
            items,
            nodes: Vec::new(),
            root: None,
            fanout,
        };
        if tree.items.is_empty() {
            return tree;
        }

        // --- STR tiling of the items into leaves.
        let n = tree.items.len();
        let slab_capacity = Self::leaf_slab_capacity(n, fanout);
        tree.items
            .sort_by(|a, b| a.rect().center().x.total_cmp(&b.rect().center().x));
        let mut start = 0;
        while start < n {
            let end = (start + slab_capacity).min(n);
            tree.items[start..end]
                .sort_by(|a, b| a.rect().center().y.total_cmp(&b.rect().center().y));
            start = end;
        }

        tree.build_levels();
        tree
    }

    /// Item count of one vertical STR slab for `n` items.
    fn leaf_slab_capacity(n: usize, fanout: usize) -> usize {
        let num_leaves = n.div_ceil(fanout);
        let slabs = (num_leaves as f64).sqrt().ceil() as usize;
        slabs * fanout
    }

    /// Builds the leaf and internal node levels over `self.items`, which must
    /// already be STR-tiled (sorted by center x, then by center y per slab).
    fn build_levels(&mut self) {
        let tree = self;
        let fanout = tree.fanout;
        let n = tree.items.len();
        let num_leaves = n.div_ceil(fanout);

        // --- Leaf level.
        let mut level: Vec<usize> = Vec::with_capacity(num_leaves);
        let mut offset = 0;
        while offset < n {
            let len = fanout.min(n - offset);
            let slice = &tree.items[offset..offset + len];
            let mut rect = slice[0].rect();
            let mut summary = S::empty();
            for item in slice {
                rect = rect.union(&item.rect());
                summary.add_item(item);
            }
            tree.nodes.push(Node {
                rect,
                summary,
                children: Children::Items { start: offset, len },
            });
            level.push(tree.nodes.len() - 1);
            offset += len;
        }

        // --- Internal levels: STR-tile the previous level's nodes.
        while level.len() > 1 {
            // Tile by node centers: sort by x, slab-sort by y.
            let num_parents = level.len().div_ceil(fanout);
            let slabs = (num_parents as f64).sqrt().ceil() as usize;
            let slab_capacity = slabs * fanout;
            level.sort_by(|&a, &b| {
                tree.nodes[a]
                    .rect
                    .center()
                    .x
                    .total_cmp(&tree.nodes[b].rect.center().x)
            });
            let mut start = 0;
            while start < level.len() {
                let end = (start + slab_capacity).min(level.len());
                level[start..end].sort_by(|&a, &b| {
                    tree.nodes[a]
                        .rect
                        .center()
                        .y
                        .total_cmp(&tree.nodes[b].rect.center().y)
                });
                start = end;
            }

            // Children of one parent must be contiguous in `nodes`: append
            // the tiled level in order, then group.
            let level_start = tree.nodes.len();
            let tiled: Vec<Node<S>> = level.iter().map(|&i| tree.nodes[i].clone()).collect();
            tree.nodes.extend(tiled);

            let mut parents: Vec<usize> = Vec::with_capacity(num_parents);
            let mut offset = 0;
            let level_len = level.len();
            while offset < level_len {
                let len = fanout.min(level_len - offset);
                let child_start = level_start + offset;
                let mut rect = tree.nodes[child_start].rect;
                let mut summary = tree.nodes[child_start].summary.clone();
                for i in 1..len {
                    rect = rect.union(&tree.nodes[child_start + i].rect);
                    let child_summary = tree.nodes[child_start + i].summary.clone();
                    summary.merge(&child_summary);
                }
                tree.nodes.push(Node {
                    rect,
                    summary,
                    children: Children::Nodes {
                        start: child_start,
                        len,
                    },
                });
                parents.push(tree.nodes.len() - 1);
                offset += len;
            }
            level = parents;
        }
        tree.root = Some(level[0]);
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns true if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The stored items (in leaf order, not insertion order).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Bounding rectangle of all items (`None` if empty).
    pub fn bounds(&self) -> Option<Rect> {
        self.root.map(|r| self.nodes[r].rect)
    }

    /// The maximum node fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Calls `visit` for every item whose rect intersects `query`.
    pub fn search_rect<V: FnMut(&T)>(&self, query: &Rect, mut visit: V) {
        self.search_pruned(
            |rect, _| rect.intersects(query),
            |item| {
                if item.rect().intersects(query) {
                    visit(item);
                }
            },
        );
    }

    /// Calls `visit` for every item whose rect lies within `dist` of `p`.
    pub fn search_within_dist<V: FnMut(&T)>(&self, p: Point, dist: f64, mut visit: V) {
        self.search_pruned(
            |rect, _| rect.mindist_to_point(p) <= dist,
            |item| {
                if item.rect().mindist_to_point(p) <= dist {
                    visit(item);
                }
            },
        );
    }

    /// Generic pruned traversal: descends into a node only when
    /// `descend(rect, summary)` holds; `visit` receives every item of the
    /// surviving leaves (apply item-level filtering in the visitor).
    pub fn search_pruned<D, V>(&self, mut descend: D, mut visit: V)
    where
        D: FnMut(&Rect, &S) -> bool,
        V: FnMut(&T),
    {
        let Some(root) = self.root else { return };
        let mut stack = vec![root];
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx];
            if !descend(&node.rect, &node.summary) {
                continue;
            }
            match node.children {
                Children::Items { start, len } => {
                    for item in &self.items[start..start + len] {
                        visit(item);
                    }
                }
                Children::Nodes { start, len } => {
                    stack.extend(start..start + len);
                }
            }
        }
    }

    /// The `k` items nearest to `p` (by rect mindist; exact distance for
    /// point items), with their distances, nearest first.
    ///
    /// Ties are broken by traversal order (deterministic for a given tree).
    pub fn nearest_k(&self, p: Point, k: usize) -> Vec<(&T, f64)> {
        self.nearest_k_pruned(p, k, |_, _| true, |_| true)
    }

    /// Best-first k-nearest with subtree and item predicates: nodes failing
    /// `descend` are skipped wholesale; items failing `accept` are skipped.
    ///
    /// This is the traversal of the hybrid spatio-textual index: `descend`
    /// checks the node keyword summary, `accept` the item's own keywords.
    pub fn nearest_k_pruned<D, A>(
        &self,
        p: Point,
        k: usize,
        mut descend: D,
        mut accept: A,
    ) -> Vec<(&T, f64)>
    where
        D: FnMut(&Rect, &S) -> bool,
        A: FnMut(&T) -> bool,
    {
        let mut out: Vec<(&T, f64)> = Vec::with_capacity(k.min(self.items.len()));
        if k == 0 {
            return out;
        }
        let Some(root) = self.root else { return out };

        // Heap entries: (distance, is_item, index). `index` is a node index
        // or an item index depending on `is_item`.
        let mut heap: BinaryHeap<Reverse<(OrderedF64, bool, usize)>> = BinaryHeap::new();
        if descend(&self.nodes[root].rect, &self.nodes[root].summary) {
            let d = self.nodes[root].rect.mindist_to_point(p);
            heap.push(Reverse((OrderedF64::new(d), false, root)));
        }
        while let Some(Reverse((dist, is_item, idx))) = heap.pop() {
            if is_item {
                out.push((&self.items[idx], dist.get()));
                if out.len() == k {
                    break;
                }
                continue;
            }
            match self.nodes[idx].children {
                Children::Items { start, len } => {
                    for (i, item) in self.items[start..start + len].iter().enumerate() {
                        if accept(item) {
                            let d = item.rect().mindist_to_point(p);
                            heap.push(Reverse((OrderedF64::new(d), true, start + i)));
                        }
                    }
                }
                Children::Nodes { start, len } => {
                    for child in start..start + len {
                        let node = &self.nodes[child];
                        if descend(&node.rect, &node.summary) {
                            let d = node.rect.mindist_to_point(p);
                            heap.push(Reverse((OrderedF64::new(d), false, child)));
                        }
                    }
                }
            }
        }
        out
    }
}

impl<T: BoundedItem + Send, S: Summary<T>> RTree<T, S> {
    /// Bulk-loads a tree with an explicit `fanout` (≥ 2) using up to
    /// `threads` worker threads for the two STR sorting passes (`0` =
    /// resolve automatically, see [`soi_common::effective_threads`]).
    ///
    /// The global x-sort uses a stable parallel merge sort and the per-slab
    /// y-sorts run on disjoint slabs with a stable sort each, so the item
    /// order — and therefore the whole tree — is identical to
    /// [`RTree::bulk_load_with_fanout`] for every thread count.
    ///
    /// # Panics
    /// Panics if `fanout < 2`.
    pub fn bulk_load_with_threads(items: Vec<T>, fanout: usize, threads: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        let threads = effective_threads((threads > 0).then_some(threads));
        let mut tree = Self {
            items,
            nodes: Vec::new(),
            root: None,
            fanout,
        };
        if tree.items.is_empty() {
            return tree;
        }

        let n = tree.items.len();
        let slab_capacity = Self::leaf_slab_capacity(n, fanout);
        par_sort_by(&mut tree.items, threads, |a, b| {
            a.rect().center().x.total_cmp(&b.rect().center().x)
        });
        par_chunks_mut(&mut tree.items, slab_capacity, threads, |_, slab| {
            slab.sort_by(|a, b| a.rect().center().y.total_cmp(&b.rect().center().y));
        });

        tree.build_levels();
        tree
    }
}

impl BoundedItem for Point {
    fn rect(&self) -> Rect {
        Rect::new(*self, *self)
    }
}

impl BoundedItem for Rect {
    fn rect(&self) -> Rect {
        *self
    }
}

impl<B: BoundedItem, X> BoundedItem for (B, X) {
    fn rect(&self) -> Rect {
        self.0.rect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(nx: usize, ny: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                pts.push(Point::new(x as f64, y as f64));
            }
        }
        pts
    }

    fn collect_rect(tree: &RTree<Point>, q: &Rect) -> Vec<Point> {
        let mut out = Vec::new();
        tree.search_rect(q, |p| out.push(*p));
        out.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        out
    }

    #[test]
    fn empty_tree() {
        let tree: RTree<Point> = RTree::bulk_load(vec![]);
        assert!(tree.is_empty());
        assert!(tree.bounds().is_none());
        assert!(tree.nearest_k(Point::ORIGIN, 3).is_empty());
        let mut count = 0;
        tree.search_rect(&Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)), |_| {
            count += 1
        });
        assert_eq!(count, 0);
    }

    #[test]
    fn single_item() {
        let tree: RTree<Point> = RTree::bulk_load(vec![Point::new(2.0, 3.0)]);
        assert_eq!(tree.len(), 1);
        let near = tree.nearest_k(Point::ORIGIN, 5);
        assert_eq!(near.len(), 1);
        assert!((near[0].1 - 13.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn range_query_matches_brute_force() {
        let pts = grid_points(20, 20);
        let tree: RTree<Point> = RTree::bulk_load(pts.clone());
        assert_eq!(tree.len(), 400);
        for q in [
            Rect::new(Point::new(2.5, 2.5), Point::new(7.5, 4.5)),
            Rect::new(Point::new(-10.0, -10.0), Point::new(50.0, 50.0)),
            Rect::new(Point::new(100.0, 100.0), Point::new(101.0, 101.0)),
            Rect::new(Point::new(3.0, 3.0), Point::new(3.0, 3.0)),
        ] {
            let got = collect_rect(&tree, &q);
            let mut want: Vec<Point> = pts.iter().copied().filter(|p| q.contains(*p)).collect();
            want.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn within_dist_matches_brute_force() {
        let pts = grid_points(15, 15);
        let tree: RTree<Point> = RTree::bulk_load(pts.clone());
        let center = Point::new(7.3, 6.8);
        for dist in [0.5, 2.0, 5.5] {
            let mut got = Vec::new();
            tree.search_within_dist(center, dist, |p| got.push(*p));
            got.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
            let mut want: Vec<Point> = pts
                .iter()
                .copied()
                .filter(|p| p.dist(center) <= dist)
                .collect();
            want.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
            assert_eq!(got, want, "dist {dist}");
        }
    }

    #[test]
    fn nearest_k_matches_brute_force() {
        let pts = grid_points(12, 9);
        let tree: RTree<Point> = RTree::bulk_load(pts.clone());
        let q = Point::new(4.4, 3.9);
        for k in [1usize, 5, 20, 200] {
            let got: Vec<f64> = tree.nearest_k(q, k).iter().map(|&(_, d)| d).collect();
            let mut want: Vec<f64> = pts.iter().map(|p| p.dist(q)).collect();
            want.sort_by(f64::total_cmp);
            want.truncate(k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g - w).abs() < 1e-12, "k={k}");
            }
            // Distances must be non-decreasing.
            for pair in got.windows(2) {
                assert!(pair[0] <= pair[1]);
            }
        }
    }

    #[test]
    fn nearest_k_pruned_filters_items() {
        // Only points with even x accepted.
        let pts = grid_points(10, 1);
        let tree: RTree<Point> = RTree::bulk_load(pts);
        let near = tree.nearest_k_pruned(
            Point::new(0.0, 0.0),
            3,
            |_, _| true,
            |p| (p.x as i64) % 2 == 0,
        );
        let xs: Vec<f64> = near.iter().map(|(p, _)| p.x).collect();
        assert_eq!(xs, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn summaries_aggregate_counts() {
        #[derive(Clone)]
        struct Count(usize);
        impl Summary<Point> for Count {
            fn empty() -> Self {
                Count(0)
            }
            fn add_item(&mut self, _: &Point) {
                self.0 += 1;
            }
            fn merge(&mut self, other: &Self) {
                self.0 += other.0;
            }
        }
        let pts = grid_points(9, 7);
        let tree: RTree<Point, Count> = RTree::bulk_load(pts);
        // The root summary must count everything.
        let mut visited = 0;
        tree.search_pruned(
            |_, s| {
                if visited == 0 {
                    assert_eq!(s.0, 63);
                }
                visited += 1;
                true
            },
            |_| {},
        );
        assert!(visited > 1);
    }

    #[test]
    fn bounded_item_impls() {
        let p = Point::new(1.0, 2.0);
        assert_eq!(BoundedItem::rect(&p).min, p);
        let r = Rect::new(Point::ORIGIN, Point::new(1.0, 1.0));
        assert_eq!(BoundedItem::rect(&r), r);
        let pair = (p, "payload");
        assert_eq!(BoundedItem::rect(&pair).min, p);
    }

    #[test]
    fn small_fanout_still_correct() {
        let pts = grid_points(8, 8);
        let tree: RTree<Point> = RTree::bulk_load_with_fanout(pts.clone(), 2);
        let q = Rect::new(Point::new(1.5, 1.5), Point::new(4.5, 6.5));
        let got = collect_rect(&tree, &q);
        let want = pts.iter().copied().filter(|p| q.contains(*p)).count();
        assert_eq!(got.len(), want);
    }

    #[test]
    #[should_panic(expected = "fanout must be at least 2")]
    fn fanout_one_panics() {
        let _: RTree<Point> = RTree::bulk_load_with_fanout(vec![Point::ORIGIN], 1);
    }

    #[test]
    fn parallel_bulk_load_identical_to_sequential() {
        // Pseudo-random points with duplicate coordinates to exercise the
        // stability of the tiling sorts.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut pts = Vec::with_capacity(3000);
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pts.push(Point::new((x % 97) as f64, ((x >> 17) % 89) as f64));
        }
        for fanout in [2usize, 16] {
            let sequential: RTree<Point> = RTree::bulk_load_with_fanout(pts.clone(), fanout);
            for threads in [1usize, 2, 8] {
                let parallel: RTree<Point> =
                    RTree::bulk_load_with_threads(pts.clone(), fanout, threads);
                assert_eq!(sequential.items(), parallel.items(), "threads {threads}");
                assert_eq!(sequential.bounds(), parallel.bounds());
                let near_s: Vec<(Point, f64)> = sequential
                    .nearest_k(Point::new(41.5, 40.5), 25)
                    .into_iter()
                    .map(|(p, d)| (*p, d))
                    .collect();
                let near_p: Vec<(Point, f64)> = parallel
                    .nearest_k(Point::new(41.5, 40.5), 25)
                    .into_iter()
                    .map(|(p, d)| (*p, d))
                    .collect();
                assert_eq!(near_s, near_p, "threads {threads}");
            }
        }
    }
}
