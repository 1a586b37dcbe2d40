//! Node placement: grids, lines and random fields.
//!
//! The paper's simulation deploys "a 200×200 m² grid network with 36 nodes"
//! — a 6×6 grid at 40 m spacing, which equals the sensor radio range so
//! grid neighbours are exactly one sensor hop apart. The multi-hop feasibility
//! analysis uses a linear topology with 200 m source–sink separation.

use crate::addr::NodeId;
use bcp_sim::rng::Rng;

/// A point in the deployment plane, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// East coordinate (m).
    pub x: f64,
    /// North coordinate (m).
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other` in metres.
    pub fn distance_to(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// An immutable node placement.
///
/// # Examples
///
/// ```
/// use bcp_net::topo::Topology;
/// use bcp_net::addr::NodeId;
///
/// // The paper's deployment: 6×6 grid, 40 m pitch, 200×200 m².
/// let topo = Topology::grid(6, 40.0);
/// assert_eq!(topo.len(), 36);
/// // Grid neighbours are in sensor range (40 m), diagonals are not.
/// let n = topo.neighbors_within(NodeId(0), 40.0);
/// assert_eq!(n.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    positions: Vec<Position>,
}

impl Topology {
    /// Builds a topology from explicit positions.
    pub fn from_positions(positions: Vec<Position>) -> Self {
        Topology { positions }
    }

    /// A `side × side` grid with `spacing_m` metres between neighbours.
    /// Node 0 is at the origin; ids increase row-major.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0` or the spacing is not positive and finite.
    pub fn grid(side: usize, spacing_m: f64) -> Self {
        assert!(side > 0, "grid needs at least one node");
        assert!(
            spacing_m.is_finite() && spacing_m > 0.0,
            "invalid spacing {spacing_m}"
        );
        let mut positions = Vec::with_capacity(side * side);
        for row in 0..side {
            for col in 0..side {
                positions.push(Position::new(
                    col as f64 * spacing_m,
                    row as f64 * spacing_m,
                ));
            }
        }
        Topology { positions }
    }

    /// `n` nodes on a line with `spacing_m` pitch — the paper's multi-hop
    /// feasibility setting (source and destination separated by 200 m).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the spacing is invalid.
    pub fn line(n: usize, spacing_m: f64) -> Self {
        assert!(n > 0, "line needs at least one node");
        assert!(
            spacing_m.is_finite() && spacing_m > 0.0,
            "invalid spacing {spacing_m}"
        );
        Topology {
            positions: (0..n)
                .map(|i| Position::new(i as f64 * spacing_m, 0.0))
                .collect(),
        }
    }

    /// `n` nodes placed uniformly at random on a `width × height` field.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the field is degenerate.
    pub fn random_uniform(n: usize, width_m: f64, height_m: f64, rng: &mut Rng) -> Self {
        assert!(n > 0, "field needs at least one node");
        assert!(width_m > 0.0 && height_m > 0.0, "degenerate field");
        Topology {
            positions: (0..n)
                .map(|_| Position::new(rng.range_f64(0.0, width_m), rng.range_f64(0.0, height_m)))
                .collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` when there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// All node ids, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// Distance between two nodes in metres.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance_to(&self.position(b))
    }

    /// `true` when `b` is within `range_m` of `a` (unit-disk model; a node
    /// is never in range of itself).
    ///
    /// Compares *squared* distances: a grid spaced exactly at `range_m`
    /// puts every neighbour on the boundary, and `sqrt` rounding there
    /// could flip adjacency between platforms or opt-levels. Squared
    /// comparison keeps the boundary a single exact float product.
    pub fn in_range(&self, a: NodeId, b: NodeId, range_m: f64) -> bool {
        if a == b {
            return false;
        }
        let (pa, pb) = (self.position(a), self.position(b));
        let (dx, dy) = (pa.x - pb.x, pa.y - pb.y);
        dx * dx + dy * dy <= range_m * range_m
    }

    /// Ids of all nodes within `range_m` of `node`, ascending.
    pub fn neighbors_within(&self, node: NodeId, range_m: f64) -> Vec<NodeId> {
        self.nodes()
            .filter(|&other| self.in_range(node, other, range_m))
            .collect()
    }

    /// Precomputed neighbour sets for every node at the given range: row
    /// `i` equals [`Topology::neighbors_within`] of node `i`, ascending.
    ///
    /// Nodes are binned into square cells twice the range wide, and each
    /// node tests only the 3 × 3 block of cells around its own with
    /// [`Topology::in_range`]. An in-range pair is at most one range
    /// apart on each axis, half a cell, so float rounding in the cell
    /// index can never put it two cells apart. The cost is linear in the
    /// node count for a field of even density. The per-node scan runs
    /// instead where binning cannot save a test or does not fit: a range
    /// that is zero or not finite, a field at most 3 cells a side (the
    /// block around its middle cell is the whole field), or one with
    /// more than 16 cells per node.
    pub fn neighbor_table(&self, range_m: f64) -> Vec<Vec<NodeId>> {
        let n = self.len();
        let scan = || {
            self.nodes()
                .map(|v| self.neighbors_within(v, range_m))
                .collect()
        };
        // `in_range` compares against the squared range, so its sign
        // does not matter.
        let side = 2.0 * range_m.abs();
        if !(side.is_finite() && side > 0.0) {
            return scan();
        }
        let (mut lo_x, mut lo_y) = (f64::INFINITY, f64::INFINITY);
        let (mut hi_x, mut hi_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &self.positions {
            (lo_x, lo_y) = (lo_x.min(p.x), lo_y.min(p.y));
            (hi_x, hi_y) = (hi_x.max(p.x), hi_y.max(p.y));
        }
        let cols = ((hi_x - lo_x) / side).floor() + 1.0;
        let rows = ((hi_y - lo_y) / side).floor() + 1.0;
        // An empty or non-finite field gives an infinite or NaN count.
        let cells = cols * rows;
        if cells.is_nan() || cells > 16.0 * n as f64 || (cols <= 3.0 && rows <= 3.0) {
            return scan();
        }
        let (cols, rows) = (cols as usize, rows as usize);
        // Each node's cell, row-major; coordinates are at least the
        // minimum, so `as` floors them.
        let cells: Vec<usize> = self
            .positions
            .iter()
            .map(|p| {
                let x = (((p.x - lo_x) / side) as usize).min(cols - 1);
                let y = (((p.y - lo_y) / side) as usize).min(rows - 1);
                y * cols + x
            })
            .collect();
        // The nodes of cell `c` are `members[start[c]..start[c + 1]]`,
        // ascending, so the cells of one row are one contiguous slice.
        let mut start = vec![0usize; cols * rows + 1];
        for &c in &cells {
            start[c + 1] += 1;
        }
        for c in 0..cols * rows {
            start[c + 1] += start[c];
        }
        let mut members = vec![NodeId(0); n];
        let mut next = start.clone();
        for (id, &c) in self.nodes().zip(&cells) {
            members[next[c]] = id;
            next[c] += 1;
        }
        self.nodes()
            .zip(&cells)
            .map(|(a, &c)| {
                let (x, y) = (c % cols, c / cols);
                let (left, right) = (x.saturating_sub(1), (x + 1).min(cols - 1));
                let mut near = Vec::new();
                for row in y.saturating_sub(1)..=(y + 1).min(rows - 1) {
                    let block = &members[start[row * cols + left]..start[row * cols + right + 1]];
                    near.extend(
                        block
                            .iter()
                            .copied()
                            .filter(|&b| self.in_range(a, b, range_m)),
                    );
                }
                near.sort_unstable();
                near
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_geometry() {
        let t = Topology::grid(6, 40.0);
        assert_eq!(t.len(), 36);
        // Far corner is at (200, 200).
        let far = t.position(NodeId(35));
        assert_eq!((far.x, far.y), (200.0, 200.0));
        // Corner-to-corner distance is 200·√2.
        assert!((t.distance(NodeId(0), NodeId(35)) - 200.0 * 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn grid_neighbor_counts() {
        let t = Topology::grid(6, 40.0);
        // Corner: 2 neighbours; edge: 3; interior: 4 (diagonals are 56.6 m,
        // out of the 40 m sensor range).
        assert_eq!(t.neighbors_within(NodeId(0), 40.0).len(), 2);
        assert_eq!(t.neighbors_within(NodeId(1), 40.0).len(), 3);
        assert_eq!(t.neighbors_within(NodeId(7), 40.0).len(), 4);
    }

    #[test]
    fn dot11_range_covers_more() {
        let t = Topology::grid(6, 40.0);
        // At 250 m (Cabletron) a *centered* node hears everyone — this is
        // why the multi-hop scenario's sink sits at the grid centre: the
        // far corners are 282.8 m apart, beyond even Cabletron's range.
        let center = NodeId(14); // (80, 80)
        assert_eq!(t.neighbors_within(center, 250.0).len(), 35);
        assert!(t.distance(NodeId(0), NodeId(35)) > 250.0);
    }

    #[test]
    fn line_matches_paper_multihop() {
        // 200 m separation at 40 m pitch = 5 sensor hops.
        let t = Topology::line(6, 40.0);
        assert_eq!(t.distance(NodeId(0), NodeId(5)), 200.0);
        assert_eq!(t.neighbors_within(NodeId(0), 40.0), vec![NodeId(1)]);
        assert_eq!(
            t.neighbors_within(NodeId(2), 40.0),
            vec![NodeId(1), NodeId(3)]
        );
    }

    #[test]
    fn knife_edge_grid_adjacency_is_deterministic() {
        // A grid spaced exactly at the range puts every lattice neighbour
        // on the in-range boundary. Squared-distance comparison keeps
        // them adjacent (d² and r² are the same exact product), and the
        // adjacency must be symmetric and identical to the closed form on
        // every platform/opt-level.
        for spacing in [40.0, 0.5, 37.25] {
            let t = Topology::grid(5, spacing);
            for a in t.nodes() {
                for b in t.nodes() {
                    let same = t.in_range(a, b, spacing);
                    assert_eq!(same, t.in_range(b, a, spacing), "symmetry {a} {b}");
                    // Lattice neighbours (Manhattan distance 1) are
                    // exactly at range; everything else is off-boundary.
                    let (ar, ac) = (a.0 / 5, a.0 % 5);
                    let (br, bc) = (b.0 / 5, b.0 % 5);
                    let lattice = ar.abs_diff(br) + ac.abs_diff(bc) == 1;
                    assert_eq!(same, lattice, "{a}->{b} at spacing {spacing}");
                }
            }
        }
    }

    #[test]
    fn not_in_range_of_self() {
        let t = Topology::grid(2, 10.0);
        assert!(!t.in_range(NodeId(0), NodeId(0), 1000.0));
    }

    #[test]
    fn random_field_bounds_and_determinism() {
        let mut rng = Rng::new(7);
        let a = Topology::random_uniform(50, 100.0, 50.0, &mut rng);
        for n in a.nodes() {
            let p = a.position(n);
            assert!((0.0..100.0).contains(&p.x));
            assert!((0.0..50.0).contains(&p.y));
        }
        let mut rng2 = Rng::new(7);
        let b = Topology::random_uniform(50, 100.0, 50.0, &mut rng2);
        assert_eq!(a, b, "same seed, same field");
    }

    #[test]
    fn neighbor_table_matches_queries() {
        let mut rng = Rng::new(22);
        let mut fields = Vec::new();
        for n in [1, 2, 40, 300] {
            fields.push((Topology::random_uniform(n, 400.0, 150.0, &mut rng), 40.0));
        }
        for spacing in [40.0, 0.5, 37.25, 1e-3, 3e5] {
            fields.push((Topology::grid(7, spacing), spacing));
            fields.push((Topology::line(9, spacing), spacing));
        }
        // Nodes on top of each other, and one far away.
        let mut stacked = vec![Position::new(5.0, 5.0); 3];
        stacked.push(Position::new(-1e6, 2e6));
        fields.push((Topology::from_positions(stacked), 40.0));
        // No nodes, and a node with no finite position.
        fields.push((Topology::from_positions(Vec::new()), 40.0));
        let mut lost = vec![Position::new(f64::NAN, 0.0)];
        lost.extend((0..30).map(|i| Position::new(i as f64 * 40.0, 0.0)));
        fields.push((Topology::from_positions(lost), 40.0));
        for (t, spacing) in &fields {
            let ranges = [
                0.0,
                spacing * 0.5,
                *spacing,
                spacing * (1.0 - f64::EPSILON),
                spacing * (1.0 + f64::EPSILON),
                spacing * 2f64.sqrt(),
                spacing * 3.0,
                -spacing,
                f64::INFINITY,
                f64::NAN,
            ];
            for range in ranges {
                let table = t.neighbor_table(range);
                assert_eq!(table.len(), t.len());
                for n in t.nodes() {
                    assert_eq!(
                        table[n.index()],
                        t.neighbors_within(n, range),
                        "{} nodes, node {n}, spacing {spacing}, range {range}",
                        t.len()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_grid_panics() {
        let _ = Topology::grid(0, 40.0);
    }
}
