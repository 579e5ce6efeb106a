//! Planar geometry primitives used by the simulator.
//!
//! The paper's model places every node at a location in the plane; the
//! quasi-unit-disk channel and the virtual-node regions are all defined
//! in terms of Euclidean distance.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A location in the plane, in meters.
///
/// ```
/// use vi_radio::geometry::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (cheaper than
    /// [`Point::distance`]; use for comparisons).
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Returns `true` if `other` lies within `radius` of `self`
    /// (inclusive).
    pub fn within(self, other: Point, radius: f64) -> bool {
        self.distance_sq(other) <= radius * radius
    }

    /// Linear interpolation from `self` towards `target` by `t ∈ [0,1]`.
    pub fn lerp(self, target: Point, t: f64) -> Point {
        Point::new(
            self.x + (target.x - self.x) * t,
            self.y + (target.y - self.y) * t,
        )
    }

    /// Moves from `self` towards `target` by at most `max_step`,
    /// stopping exactly at `target` if it is closer than `max_step`.
    ///
    /// This is the primitive by which mobility models enforce the
    /// paper's bounded velocity `vmax` (one round = one time slot, so a
    /// per-round step bound is a velocity bound).
    pub fn step_towards(self, target: Point, max_step: f64) -> Point {
        let d = self.distance(target);
        if d <= max_step || d == 0.0 {
            target
        } else {
            self.lerp(target, max_step / d)
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// An axis-aligned rectangle, used to bound mobility models.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Minimum corner (inclusive).
    pub min: Point,
    /// Maximum corner (inclusive).
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points.
    ///
    /// # Panics
    ///
    /// Panics if `min` is not component-wise `<= max`.
    pub fn new(min: Point, max: Point) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y,
            "Rect min must be <= max (got min={min}, max={max})"
        );
        Rect { min, max }
    }

    /// A square of side `side` anchored at the origin.
    pub fn square(side: f64) -> Self {
        Rect::new(Point::ORIGIN, Point::new(side, side))
    }

    /// Width of the rectangle.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the rectangle.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Returns `true` if `p` lies inside the rectangle (inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` into the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Center of the rectangle.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

/// Marks a vacated entry of the grid's cell order.
const VACANT: u32 = u32::MAX;

/// One point of a [`SpatialGrid`] in cell order: its position and
/// index, stored together.
#[derive(Clone, Copy, Debug)]
struct Entry {
    pos: Point,
    idx: u32,
}

/// A uniform-grid spatial index over a set of points, queried for "all
/// points within `radius` of here".
///
/// The channel [`Medium`](crate::channel::Medium) keeps one of these
/// over node positions: with cell size `R2`, a range query for an
/// interference radius touches at most a 3×3 block of cells, turning
/// the naive all-pairs scan into a near-linear sweep.
///
/// Internally a flat cell list in compressed-sparse-row form: every
/// point's index and position are stored together in cell order, and
/// `cell_start[c]..cell_start[c + 1]` is cell `c`'s range. A stable
/// counting sort fills the arrays (each cell then lists its points in
/// ascending index order). The cells of one grid row are adjacent, so
/// a query scans one contiguous range per cell row.
///
/// The grid supports two maintenance regimes:
///
/// * [`SpatialGrid::rebuild`] reindexes a whole point set, recomputing
///   the geometry (origin, cell size, dimensions) from the data. All
///   buffers are reused, so steady-state rebuilds allocate nothing
///   once capacities have grown to the working-set size.
/// * [`SpatialGrid::move_point`] / [`SpatialGrid::insert`] /
///   [`SpatialGrid::remove`] update the index incrementally under the
///   geometry *anchored* by the last rebuild. A move that stays in its
///   cell updates the entry in place; a cross-cell move or an insert
///   parks the point on a pending list that queries scan linearly,
///   until [`SpatialGrid::settle`] merges the list back into the cell
///   order in one streaming pass (callers settle once per batch of
///   updates). Points that drift outside the anchored bounding box are
///   clamped into edge cells — queries stay **correct** (every
///   candidate is distance-filtered), only the edge cells grow;
///   callers can consult [`SpatialGrid::covers`] and trigger a rebuild
///   when drift degrades the anchor.
///
/// Queries return indices in **ascending index order** regardless of
/// maintenance history, so an incrementally-updated grid is
/// query-for-query byte-identical to one rebuilt from scratch over the
/// same points (a property the grid proptests assert).
#[derive(Clone, Debug, Default)]
pub struct SpatialGrid {
    /// Nominal cell size requested at construction.
    cell: f64,
    /// Cell size actually used by the last rebuild (the nominal size,
    /// possibly coarsened to respect [`Self::MAX_CELLS_PER_AXIS`]).
    effective_cell: f64,
    origin: Point,
    /// Maximum corner of the anchored bounding box (see
    /// [`SpatialGrid::covers`]).
    anchor_max: Point,
    cols: usize,
    rows: usize,
    /// Position of every point, by point index.
    positions: Vec<Point>,
    /// `cell_start[c]..cell_start[c + 1]` is cell `c`'s range of
    /// `entries` (one more offset than cells).
    cell_start: Vec<u32>,
    /// Every point in cell order. A vacated entry has index `VACANT`
    /// and NaN coordinates, which no distance test accepts.
    entries: Vec<Entry>,
    /// Points inserted or moved across a cell boundary since the cell
    /// order was last built; queries scan them linearly. A point is
    /// pending exactly when its cell holds no entry for it.
    pending: Vec<u32>,
    /// Positions of the entries vacated since the cell order was last
    /// built.
    vacated: Vec<u32>,
    /// Scratch: a settle's edits to the cell order, as `(old
    /// position, cell or VACANT, point index)`.
    edits: Vec<(u32, u32, u32)>,
    /// Scratch: the next cell order while a settle writes it; during a
    /// rebuild, each point with its cell in place of its index.
    spare: Vec<Entry>,
}

impl SpatialGrid {
    /// Upper bound on cells per axis; beyond this the effective cell
    /// size is coarsened so sparse, far-flung populations cannot make
    /// the grid allocate quadratically in the coordinate spread.
    const MAX_CELLS_PER_AXIS: usize = 1024;

    /// Creates an empty grid with the given nominal cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite.
    pub fn new(cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "grid cell size must be positive and finite (got {cell})"
        );
        SpatialGrid {
            cell,
            ..SpatialGrid::default()
        }
    }

    /// Number of points currently indexed.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The current position of point `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn position(&self, idx: u32) -> Point {
        self.positions[idx as usize]
    }

    /// `true` if `p` lies inside the bounding box the geometry was
    /// anchored to at the last rebuild. Points outside are still
    /// indexed correctly (clamped into edge cells); this is purely a
    /// performance hint for deciding when to re-anchor.
    pub fn covers(&self, p: Point) -> bool {
        self.cols > 0
            && p.x >= self.origin.x
            && p.y >= self.origin.y
            && p.x <= self.anchor_max.x
            && p.y <= self.anchor_max.y
    }

    /// Reindexes `points`, recomputing the anchored geometry and
    /// reusing all internal buffers.
    pub fn rebuild(&mut self, points: &[Point]) {
        self.positions.clear();
        self.positions.extend_from_slice(points);
        self.reindex();
    }

    /// Recomputes the anchored geometry from `self.positions`, then
    /// sorts every point into it.
    fn reindex(&mut self) {
        self.pending.clear();
        self.vacated.clear();
        if self.positions.is_empty() {
            self.cols = 0;
            self.rows = 0;
            self.cell_start.clear();
            self.entries.clear();
            return;
        }

        let (mut min_x, mut min_y, mut max_x, mut max_y) = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for p in &self.positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        self.origin = Point::new(min_x, min_y);
        self.anchor_max = Point::new(max_x, max_y);
        let span_x = (max_x - min_x).max(0.0);
        let span_y = (max_y - min_y).max(0.0);
        let max_axis = Self::MAX_CELLS_PER_AXIS as f64;
        let mut effective_cell = self.cell.max(span_x / max_axis).max(span_y / max_axis);
        // Rebuild cost is O(cells), so also cap the cell count relative
        // to the population: a few far-flung points must not make every
        // round sweep a huge, almost-empty grid.
        let cell_budget = (16 * self.positions.len().max(16)) as f64;
        let cells_at = |cell: f64| ((span_x / cell) + 1.0) * ((span_y / cell) + 1.0);
        if cells_at(effective_cell) > cell_budget {
            effective_cell *= (cells_at(effective_cell) / cell_budget).sqrt();
        }
        self.cols = (span_x / effective_cell) as usize + 1;
        self.rows = (span_y / effective_cell) as usize + 1;
        self.effective_cell = effective_cell;

        // Stable counting sort. Counts land at `c + 2`, so after the
        // prefix sum `cell_start[c + 1]` is cell `c`'s first entry —
        // the scatter cursor, which ends at cell `c + 1`'s first entry.
        let cell_of = self.cell_map();
        let cells = self.cols * self.rows;
        let starts = &mut self.cell_start;
        starts.clear();
        starts.resize(cells + 2, 0);
        self.spare.clear();
        self.spare.extend(self.positions.iter().map(|&pos| {
            let c = cell_of(pos);
            starts[c + 2] += 1;
            Entry { pos, idx: c as u32 }
        }));
        let mut sum = 0;
        for start in starts.iter_mut() {
            sum += *start;
            *start = sum;
        }
        let n = self.positions.len();
        self.entries.resize(
            n,
            Entry {
                pos: Point::ORIGIN,
                idx: VACANT,
            },
        );
        for (i, &Entry { pos, idx: c }) in self.spare.iter().enumerate() {
            let cursor = &mut starts[c as usize + 1];
            let at = *cursor as usize;
            *cursor += 1;
            self.entries[at] = Entry { pos, idx: i as u32 };
        }
        starts.truncate(cells + 1);
    }

    /// Merges the pending points back into the cell order under the
    /// unchanged anchor and drops the vacated entries (a no-op when
    /// there are none): the runs between edits are block-copied, and
    /// each cell's offset moves by the edits before it. Queries are
    /// correct either way; settling keeps them from scanning a growing
    /// pending list.
    pub fn settle(&mut self) {
        if self.pending.is_empty() && self.vacated.is_empty() {
            return;
        }
        let cell_of = self.cell_map();
        let cells = self.cols * self.rows;
        // A pending point lands at the end of its cell; at one old
        // position, inserts (in cell order) precede the vacated entry.
        self.edits.clear();
        for &i in &self.pending {
            let c = cell_of(self.positions[i as usize]);
            self.edits.push((self.cell_start[c + 1], c as u32, i));
        }
        for &k in &self.vacated {
            self.edits.push((k, VACANT, VACANT));
        }
        self.edits.sort_unstable();

        self.spare.clear();
        let mut from = 0;
        for &(at, cell, i) in &self.edits {
            let at = at as usize;
            self.spare.extend_from_slice(&self.entries[from..at]);
            if cell == VACANT {
                from = at + 1;
            } else {
                self.spare.push(Entry {
                    pos: self.positions[i as usize],
                    idx: i,
                });
                from = at;
            }
        }
        self.spare.extend_from_slice(&self.entries[from..]);
        std::mem::swap(&mut self.entries, &mut self.spare);

        // Cell `c` now starts later by the inserts into cells before
        // it, and earlier by the vacated entries before its old start.
        let mut edits = self.edits.iter().peekable();
        let mut shift = 0i64;
        for (c, start) in self.cell_start[..=cells].iter_mut().enumerate() {
            let old = *start;
            while let Some(&(_, cell, _)) = edits.next_if(|&&(at, cell, _)| {
                if cell == VACANT {
                    at < old
                } else {
                    (cell as usize) < c
                }
            }) {
                shift += if cell == VACANT { -1 } else { 1 };
            }
            *start = (i64::from(old) + shift) as u32;
        }
        self.pending.clear();
        self.vacated.clear();
    }

    /// Moves point `idx` to `to`: in place if it stays in its cell,
    /// otherwise onto the pending list until the next
    /// [`SpatialGrid::settle`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn move_point(&mut self, idx: u32, to: Point) {
        let from = std::mem::replace(&mut self.positions[idx as usize], to);
        let cell_of = self.cell_map();
        let (cf, ct) = (cell_of(from), cell_of(to));
        // No entry means the point is pending already, and queries read
        // pending points from `positions`.
        if let Some(k) = self.entry_in(cf, idx) {
            if cf == ct {
                self.entries[k].pos = to;
            } else {
                self.vacate(k);
                self.pending.push(idx);
            }
        }
    }

    /// Appends a new point under the current anchored geometry and
    /// returns its index (`len - 1`). The first insert into an empty
    /// grid anchors the geometry to the point.
    pub fn insert(&mut self, p: Point) -> u32 {
        let idx = self.positions.len() as u32;
        self.positions.push(p);
        if self.cols == 0 {
            self.reindex();
        } else {
            self.pending.push(idx);
        }
        idx
    }

    /// Removes point `idx` with swap-remove semantics: the point with
    /// the largest index takes over index `idx` (mirror bookkeeping in
    /// callers must do the same relabeling).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn remove(&mut self, idx: u32) {
        let last = (self.positions.len() - 1) as u32;
        let cell_of = self.cell_map();
        match self.entry_in(cell_of(self.positions[idx as usize]), idx) {
            Some(k) => self.vacate(k),
            None => {
                let at = self.pending_slot(idx);
                self.pending.swap_remove(at);
            }
        }
        if idx != last {
            match self.entry_in(cell_of(self.positions[last as usize]), last) {
                Some(k) => self.entries[k].idx = idx,
                None => {
                    let at = self.pending_slot(last);
                    self.pending[at] = idx;
                }
            }
        }
        self.positions.swap_remove(idx as usize);
    }

    /// Where point `idx`'s entry sits in cell `c`, if it has one there.
    fn entry_in(&self, c: usize, idx: u32) -> Option<usize> {
        let start = self.cell_start[c] as usize;
        self.entries[start..self.cell_start[c + 1] as usize]
            .iter()
            .position(|e| e.idx == idx)
            .map(|k| start + k)
    }

    /// Where `idx` sits on the pending list.
    fn pending_slot(&self, idx: u32) -> usize {
        self.pending
            .iter()
            .position(|&p| p == idx)
            .expect("a point without an entry must be pending")
    }

    /// Empties one cell-ordered entry; queries and settles skip it.
    fn vacate(&mut self, k: usize) {
        self.entries[k] = Entry {
            pos: Point::new(f64::NAN, f64::NAN),
            idx: VACANT,
        };
        self.vacated.push(k as u32);
    }

    /// The anchored geometry's cell function, detached from `self` so
    /// that loops filling the grid's arrays can call it. Coordinates
    /// are clamped into the grid (`as usize` saturates negatives to 0).
    fn cell_map(&self) -> impl Fn(Point) -> usize {
        let (origin, cell, cols, rows) = (self.origin, self.effective_cell, self.cols, self.rows);
        move |p| {
            let cx = (((p.x - origin.x) / cell) as usize).min(cols - 1);
            let cy = (((p.y - origin.y) / cell) as usize).min(rows - 1);
            cy * cols + cx
        }
    }

    /// Appends to `out` the index of every point within `radius` of
    /// `center` (inclusive, matching [`Point::within`]), in **ascending
    /// index order** — the canonical order, independent of how the grid
    /// was maintained.
    pub fn query_within(&self, center: Point, radius: f64, out: &mut Vec<u32>) {
        let base = out.len();
        self.for_each_candidate(center, radius, |idx, _| out.push(idx));
        out[base..].sort_unstable();
    }

    /// Like [`SpatialGrid::query_within`], but also reports the squared
    /// distance from `center` to each hit (ascending index order).
    pub fn query_within_d2(&self, center: Point, radius: f64, out: &mut Vec<(u32, f64)>) {
        let base = out.len();
        self.for_each_candidate(center, radius, |idx, d2| out.push((idx, d2)));
        out[base..].sort_unstable_by_key(|&(idx, _)| idx);
    }

    /// The lowest index within `radius` of `center` (inclusive), if
    /// any — the first hit [`SpatialGrid::query_within`] would report,
    /// without an output buffer.
    pub fn first_within(&self, center: Point, radius: f64) -> Option<u32> {
        let mut first: Option<u32> = None;
        self.for_each_candidate(center, radius, |idx, _| {
            first = Some(first.map_or(idx, |f| f.min(idx)));
        });
        first
    }

    /// Visits every in-radius point as `(index, squared distance)`:
    /// one contiguous cell-ordered range per cell row, then the
    /// pending list.
    fn for_each_candidate(&self, center: Point, radius: f64, mut visit: impl FnMut(u32, f64)) {
        if self.positions.is_empty() {
            return;
        }
        let r_sq = radius * radius;
        let cell = self.effective_cell;
        // `as usize` truncates towards zero and saturates negatives
        // (and NaN) to 0, which is exactly floor-then-clamp here.
        let clamp = |v: f64, hi: usize| ((v / cell) as usize).min(hi - 1);
        let cx0 = clamp(center.x - radius - self.origin.x, self.cols);
        let cx1 = clamp(center.x + radius - self.origin.x, self.cols);
        let cy0 = clamp(center.y - radius - self.origin.y, self.rows);
        let cy1 = clamp(center.y + radius - self.origin.y, self.rows);
        for cy in cy0..=cy1 {
            let row = cy * self.cols;
            let range =
                self.cell_start[row + cx0] as usize..self.cell_start[row + cx1 + 1] as usize;
            for e in &self.entries[range] {
                let d2 = e.pos.distance_sq(center);
                if d2 <= r_sq {
                    visit(e.idx, d2);
                }
            }
        }
        for &idx in &self.pending {
            let d2 = self.positions[idx as usize].distance_sq(center);
            if d2 <= r_sq {
                visit(idx, d2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 7.5);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_triangle_inequality() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(5.0, 1.0);
        let c = Point::new(2.0, 9.0);
        assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-12);
    }

    #[test]
    fn within_is_inclusive() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!(a.within(b, 5.0));
        assert!(!a.within(b, 4.999));
    }

    #[test]
    fn step_towards_respects_bound() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let stepped = a.step_towards(b, 3.0);
        assert!((a.distance(stepped) - 3.0).abs() < 1e-12);
        // Stops at the target when close enough.
        let close = Point::new(1.0, 0.0);
        assert_eq!(close.step_towards(b, 100.0), b);
    }

    #[test]
    fn step_towards_zero_distance() {
        let a = Point::new(2.0, 2.0);
        assert_eq!(a.step_towards(a, 1.0), a);
    }

    #[test]
    fn rect_contains_and_clamp() {
        let r = Rect::square(10.0);
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(r.contains(Point::new(0.0, 10.0)));
        assert!(!r.contains(Point::new(-0.1, 5.0)));
        assert_eq!(r.clamp(Point::new(-3.0, 12.0)), Point::new(0.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "Rect min must be <= max")]
    fn rect_rejects_inverted_corners() {
        let _ = Rect::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0));
    }

    #[test]
    fn rect_center() {
        let r = Rect::new(Point::new(2.0, 2.0), Point::new(6.0, 10.0));
        assert_eq!(r.center(), Point::new(4.0, 6.0));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 8.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(2.0, 4.0));
    }

    /// Brute-force oracle for grid queries.
    fn naive_within(points: &[Point], center: Point, radius: f64) -> Vec<u32> {
        (0..points.len() as u32)
            .filter(|&i| points[i as usize].within(center, radius))
            .collect()
    }

    #[test]
    fn grid_matches_naive_queries() {
        // Deterministic pseudo-random scatter (no RNG dependency here).
        let points: Vec<Point> = (0..200u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                Point::new((h % 1000) as f64 / 7.0, ((h >> 32) % 1000) as f64 / 7.0)
            })
            .collect();
        let mut grid = SpatialGrid::new(20.0);
        grid.rebuild(&points);
        assert_eq!(grid.len(), points.len());
        for (qi, &center) in points.iter().enumerate().step_by(17) {
            for radius in [0.5, 5.0, 20.0, 75.0] {
                let mut got = Vec::new();
                grid.query_within(center, radius, &mut got);
                got.sort_unstable();
                assert_eq!(
                    got,
                    naive_within(&points, center, radius),
                    "query {qi} radius {radius}"
                );
            }
        }
    }

    /// Asserts every query form agrees with the brute-force oracle.
    fn assert_matches_naive(grid: &SpatialGrid, points: &[Point], center: Point, radius: f64) {
        let want = naive_within(points, center, radius);
        let mut got = Vec::new();
        grid.query_within(center, radius, &mut got);
        assert_eq!(got, want, "query at {center} radius {radius}");
        let mut got_d2 = Vec::new();
        grid.query_within_d2(center, radius, &mut got_d2);
        let want_d2: Vec<(u32, f64)> = want
            .iter()
            .map(|&i| (i, points[i as usize].distance_sq(center)))
            .collect();
        assert_eq!(got_d2, want_d2, "d2 query at {center} radius {radius}");
        assert_eq!(grid.first_within(center, radius), want.first().copied());
    }

    #[test]
    fn grid_edge_cases_match_brute_force() {
        let cell = 10.0;
        // Points exactly on cell edges, the anchor's far corner
        // included.
        let on_edges: Vec<Point> = (0..36)
            .map(|k| Point::new((k % 6) as f64 * cell, (k / 6) as f64 * cell))
            .collect();
        // Every point in one cell.
        let one_cell: Vec<Point> = (0..20)
            .map(|k| Point::new(3.0 + (k % 5) as f64 * 0.5, 4.0 + (k / 5) as f64 * 0.5))
            .collect();
        // One far-flung point: the spread would need millions of cells
        // per axis, so the cell size is coarsened.
        let mut far_flung = one_cell.clone();
        far_flung.push(Point::new(1.0e7, -3.0e6));
        for points in [on_edges, one_cell, far_flung] {
            let mut grid = SpatialGrid::new(cell);
            grid.rebuild(&points);
            assert!(grid.cols <= SpatialGrid::MAX_CELLS_PER_AXIS);
            assert!(grid.rows <= SpatialGrid::MAX_CELLS_PER_AXIS);
            // The cell budget (16 cells per point) holds up to the
            // rounding of each axis to whole cells.
            assert!(grid.cols * grid.rows <= 2 * 16 * points.len().max(16));
            let mut centers = points.clone();
            centers.extend([
                Point::new(-5.0, -5.0),
                Point::new(25.0, 5.0),
                Point::new(5.0e6, 0.0),
            ]);
            for &center in &centers {
                for radius in [0.0, 0.5, cell, 1.5 * cell, 60.0, 2.0e7] {
                    assert_matches_naive(&grid, &points, center, radius);
                }
            }
        }
        // A coarsened grid stays exact through a cross-cell move, both
        // while the point is pending and once settled.
        let mut points: Vec<Point> = (0..20).map(|k| Point::new(k as f64, 0.0)).collect();
        points.push(Point::new(1.0e7, 1.0e7));
        let mut grid = SpatialGrid::new(cell);
        grid.rebuild(&points);
        assert!(grid.effective_cell > cell, "far point coarsens the grid");
        points[3] = Point::new(5.0e6, 5.0e6);
        grid.move_point(3, points[3]);
        for settled in [false, true] {
            if settled {
                grid.settle();
            }
            for &center in &points {
                assert_matches_naive(&grid, &points, center, cell);
            }
        }
    }

    /// Random interleavings of moves (within and across cells),
    /// inserts, swap-removes and settles keep every query exact, with
    /// the pending list full or empty.
    #[test]
    fn grid_maintenance_with_settles_matches_brute_force() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let point = |next: &mut dyn FnMut() -> u64| {
            Point::new(
                (next() % 6000) as f64 / 100.0,
                (next() % 6000) as f64 / 100.0,
            )
        };
        let mut points: Vec<Point> = (0..40).map(|_| point(&mut next)).collect();
        let mut grid = SpatialGrid::new(7.0);
        grid.rebuild(&points);
        for step in 0..600 {
            match next() % 8 {
                0 => {
                    let p = point(&mut next);
                    assert_eq!(grid.insert(p) as usize, points.len());
                    points.push(p);
                }
                1 if points.len() > 1 => {
                    let i = (next() % points.len() as u64) as usize;
                    grid.remove(i as u32);
                    points.swap_remove(i);
                }
                2 => grid.settle(),
                3 => {
                    // A nudge that mostly stays within its cell.
                    let i = (next() % points.len() as u64) as usize;
                    points[i].x += 0.25;
                    grid.move_point(i as u32, points[i]);
                }
                _ => {
                    let i = (next() % points.len() as u64) as usize;
                    points[i] = point(&mut next);
                    grid.move_point(i as u32, points[i]);
                }
            }
            assert_eq!(grid.len(), points.len(), "step {step}");
            let center = points[(next() % points.len() as u64) as usize];
            for radius in [0.0, 3.5, 7.0, 20.0] {
                assert_matches_naive(&grid, &points, center, radius);
            }
        }
    }

    #[test]
    fn grid_rebuild_reuses_and_resizes() {
        let mut grid = SpatialGrid::new(10.0);
        grid.rebuild(&[Point::new(1.0, 1.0), Point::new(2.0, 2.0)]);
        assert_eq!(grid.len(), 2);
        let mut out = Vec::new();
        grid.query_within(Point::new(1.0, 1.0), 5.0, &mut out);
        assert_eq!(out.len(), 2);

        // Shrink to empty and grow again: queries must stay consistent.
        grid.rebuild(&[]);
        assert!(grid.is_empty());
        out.clear();
        grid.query_within(Point::ORIGIN, 100.0, &mut out);
        assert!(out.is_empty());

        let far = vec![Point::new(0.0, 0.0), Point::new(1e6, 1e6)];
        grid.rebuild(&far);
        out.clear();
        grid.query_within(Point::new(1e6, 1e6), 1.0, &mut out);
        assert_eq!(out, vec![1], "coarsened grid still answers correctly");
    }

    #[test]
    fn grid_query_is_inclusive_like_within() {
        let points = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        let mut grid = SpatialGrid::new(20.0);
        grid.rebuild(&points);
        let mut out = Vec::new();
        grid.query_within(Point::ORIGIN, 5.0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1], "boundary point included");
        out.clear();
        grid.query_within(Point::ORIGIN, 4.999, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    #[should_panic(expected = "grid cell size")]
    fn grid_rejects_bad_cell() {
        let _ = SpatialGrid::new(0.0);
    }

    #[test]
    fn grid_queries_are_in_ascending_index_order() {
        // Points scattered so cell order differs from index order.
        let points = vec![
            Point::new(90.0, 90.0),
            Point::new(1.0, 1.0),
            Point::new(50.0, 50.0),
            Point::new(2.0, 2.0),
        ];
        let mut grid = SpatialGrid::new(10.0);
        grid.rebuild(&points);
        let mut out = Vec::new();
        grid.query_within(Point::new(45.0, 45.0), 100.0, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3], "canonical ascending order");
        let mut d2 = Vec::new();
        grid.query_within_d2(Point::new(1.0, 1.0), 2.0, &mut d2);
        assert_eq!(d2.len(), 2);
        assert_eq!((d2[0].0, d2[1].0), (1, 3));
        assert_eq!(d2[0].1, 0.0);
    }

    #[test]
    fn grid_incremental_ops_track_positions() {
        let mut grid = SpatialGrid::new(5.0);
        grid.rebuild(&[Point::new(0.0, 0.0), Point::new(20.0, 0.0)]);
        assert!(grid.covers(Point::new(10.0, 0.0)));
        assert!(!grid.covers(Point::new(30.0, 5.0)));

        // Move point 0 across cells; queries follow it.
        grid.move_point(0, Point::new(19.0, 0.0));
        assert_eq!(grid.position(0), Point::new(19.0, 0.0));
        let mut out = Vec::new();
        grid.query_within(Point::new(20.0, 0.0), 1.5, &mut out);
        assert_eq!(out, vec![0, 1]);

        // Moving outside the anchor stays correct (clamped edge cell).
        grid.move_point(0, Point::new(45.0, 3.0));
        out.clear();
        grid.query_within(Point::new(45.0, 3.0), 1.0, &mut out);
        assert_eq!(out, vec![0]);

        // Insert appends; remove relabels the last index.
        assert_eq!(grid.insert(Point::new(21.0, 0.0)), 2);
        grid.remove(0); // point 2 takes index 0
        assert_eq!(grid.len(), 2);
        assert_eq!(grid.position(0), Point::new(21.0, 0.0));
        out.clear();
        grid.query_within(Point::new(20.5, 0.0), 1.0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1]);
    }
}
