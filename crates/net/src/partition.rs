//! Spatial partitioning of a [`Topology`] into shards.
//!
//! The sharded simulator splits one world across cores; this module
//! decides *which node lives on which shard*. The partitioner cuts the
//! deployment plane into K vertical strips of (near-)equal node count —
//! for the paper's grids that means contiguous column bands, so only the
//! nodes along strip edges have radio neighbours on another shard and
//! cross-shard traffic stays proportional to the boundary length, not the
//! area.

use crate::addr::NodeId;
use crate::topo::Topology;

/// An assignment of every node to one of `k` shards, and of every node
/// to a local index within its shard: its rank by id among the nodes
/// that shard owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    shard_of: Vec<u32>,
    local_of: Vec<u32>,
    sizes: Vec<usize>,
}

impl Partition {
    /// Puts all `n` nodes on a single shard (the sequential layout).
    pub fn single(n: usize) -> Partition {
        Self::from_owners(vec![0; n], 1)
    }

    /// Ranks each node by id within its shard.
    fn from_owners(shard_of: Vec<u32>, k: usize) -> Partition {
        let mut sizes = vec![0usize; k];
        let local_of = shard_of
            .iter()
            .map(|&s| {
                let size = &mut sizes[s as usize];
                *size += 1;
                (*size - 1) as u32
            })
            .collect();
        Partition {
            shard_of,
            local_of,
            sizes,
        }
    }

    /// Cuts `topo` into `k` vertical strips balanced by node count: nodes
    /// are ordered by `(x, y, id)` and chunked contiguously, so each shard
    /// owns a spatially compact band. `k` is clamped to `1..=topo.len()`.
    pub fn strips(topo: &Topology, k: usize) -> Partition {
        Self::from_cuts(topo, k, |cuts, _| cuts)
    }

    /// [`strips`], but with every cut line steered away from `hot` — the
    /// node expected to anchor the densest traffic (a convergecast sink,
    /// a broadcast source). Relay load concentrates around that node, and
    /// a transmission next to a cut is re-delivered on the far shard as
    /// `RxBegin`/`RxEnd` duplicates; placing the cuts as far from the hot
    /// node as balance allows keeps the busiest transmitters interior.
    ///
    /// All interior cuts shift together by one offset, chosen (by direct
    /// search) to maximise the hot node's distance to the nearest cut in
    /// strip order, bounded to a quarter of the base strip width so no
    /// shard's node count strays far from `n/k`. The partition stays a
    /// contiguous banding — only where the bands fall changes, and the
    /// choice of partition never affects physics, just how much traffic
    /// crosses shard boundaries.
    ///
    /// [`strips`]: Partition::strips
    pub fn strips_avoiding(topo: &Topology, k: usize, hot: NodeId) -> Partition {
        Self::from_cuts(topo, k, |mut cuts, order| {
            let n = order.len();
            let hot_idx = order
                .iter()
                .position(|&m| m == hot)
                .expect("hot node is in the topology") as isize;
            let width = (n / (cuts.len() + 1)) as isize;
            let slack = width / 4;
            // Clearance beyond half a strip is worthless — no radio reaches
            // that far relative to the strip scale — so the objective is
            // capped there, and a hot node already clear of every cut keeps
            // the perfectly balanced split.
            let clearance = |delta: isize| {
                cuts.iter()
                    .map(|&c| (c as isize + delta - hot_idx).abs())
                    .min()
                    .unwrap_or(isize::MAX)
                    .min(width / 2)
            };
            let mut best = 0isize;
            for delta in -slack..=slack {
                // Strict improvement only: ties keep the smaller shift,
                // so the unshifted balanced cut is the default.
                if clearance(delta) > clearance(best) {
                    best = delta;
                }
            }
            for c in &mut cuts {
                *c = (*c as isize + best) as usize;
            }
            cuts
        })
    }

    /// Shared strip machinery: orders nodes by `(x, y, id)`, computes the
    /// balanced interior cut indices, lets `place` adjust them, and chunks
    /// the order at the final cuts. `place` receives strictly increasing
    /// cuts in `(0, n)` and must return the same.
    fn from_cuts(
        topo: &Topology,
        k: usize,
        place: impl FnOnce(Vec<usize>, &[NodeId]) -> Vec<usize>,
    ) -> Partition {
        let n = topo.len();
        let k = k.clamp(1, n.max(1));
        let mut order: Vec<NodeId> = topo.nodes().collect();
        order.sort_by(|&a, &b| {
            let (pa, pb) = (topo.position(a), topo.position(b));
            (pa.x, pa.y, a.0)
                .partial_cmp(&(pb.x, pb.y, b.0))
                .expect("finite coordinates")
        });
        let base = n / k;
        let rem = n % k;
        let mut cuts = Vec::with_capacity(k.saturating_sub(1));
        let mut next = 0usize;
        for s in 0..k.saturating_sub(1) {
            next += base + usize::from(s < rem);
            cuts.push(next);
        }
        let cuts = place(cuts, &order);
        debug_assert!(cuts.windows(2).all(|w| w[0] < w[1]), "cuts increase");
        debug_assert!(cuts.iter().all(|&c| c > 0 && c < n), "cuts interior");
        let mut shard_of = vec![0u32; n];
        for (shard, chunk) in split_at_cuts(&order, &cuts).enumerate() {
            for &node in chunk {
                shard_of[node.index()] = shard as u32;
            }
        }
        Self::from_owners(shard_of, k)
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.sizes.len()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.shard_of.len()
    }

    /// `true` when the partition covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.shard_of.is_empty()
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.shard_of[node.index()] as usize
    }

    /// `node`'s index among the nodes its shard owns, ascending by id.
    pub fn local_of(&self, node: NodeId) -> usize {
        self.local_of[node.index()] as usize
    }

    /// Node count per shard.
    pub fn shard_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Nodes with at least one radio neighbour (at `range_m`) on another
    /// shard — the conservative engine's synchronization frontier.
    pub fn boundary_nodes(&self, topo: &Topology, range_m: f64) -> Vec<NodeId> {
        topo.nodes()
            .filter(|&n| {
                let s = self.shard_of(n);
                topo.neighbors_within(n, range_m)
                    .iter()
                    .any(|&m| self.shard_of(m) != s)
            })
            .collect()
    }
}

/// Splits `order` into the `cuts.len() + 1` contiguous chunks delimited
/// by the cut indices.
fn split_at_cuts<'a, T>(order: &'a [T], cuts: &'a [usize]) -> impl Iterator<Item = &'a [T]> {
    let starts = std::iter::once(0).chain(cuts.iter().copied());
    let ends = cuts.iter().copied().chain(std::iter::once(order.len()));
    starts.zip(ends).map(|(s, e)| &order[s..e])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_covers_everything() {
        let p = Partition::single(9);
        assert_eq!(p.k(), 1);
        assert_eq!(p.shard_sizes(), [9]);
        assert_eq!(p.local_of(NodeId(8)), 8);
        assert_eq!(p.shard_of(NodeId(8)), 0);
    }

    #[test]
    fn strips_balance_node_counts() {
        let topo = Topology::grid(6, 40.0);
        let p = Partition::strips(&topo, 4);
        assert_eq!(p.k(), 4);
        let sizes = p.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 36);
        assert_eq!(
            (sizes.iter().max().unwrap() - sizes.iter().min().unwrap()),
            0,
            "36 nodes split 4 ways evenly: {sizes:?}"
        );
    }

    #[test]
    fn strips_are_column_bands_on_a_grid() {
        // Row-major 6×6 grid: node id = row*6 + col. Two strips must split
        // by x (columns 0–2 vs 3–5), not by id blocks.
        let topo = Topology::grid(6, 40.0);
        let p = Partition::strips(&topo, 2);
        for node in topo.nodes() {
            let col = node.0 % 6;
            assert_eq!(
                p.shard_of(node),
                usize::from(col >= 3),
                "node {node} in column {col}"
            );
        }
    }

    #[test]
    fn local_indices_rank_each_shards_nodes_by_id() {
        let topo = Topology::grid(6, 40.0);
        let p = Partition::strips(&topo, 4);
        let mut next = vec![0; p.k()];
        for node in topo.nodes() {
            let s = p.shard_of(node);
            assert_eq!(p.local_of(node), next[s], "{node}");
            next[s] += 1;
        }
        assert_eq!(next, p.shard_sizes());
    }

    #[test]
    fn boundary_is_the_strip_edge() {
        let topo = Topology::grid(6, 40.0);
        let p = Partition::strips(&topo, 2);
        let boundary = p.boundary_nodes(&topo, 40.0);
        // At sensor range (orthogonal neighbours) the frontier is columns
        // 2 and 3: 12 of 36 nodes.
        assert_eq!(boundary.len(), 12);
        for node in &boundary {
            let col = node.0 % 6;
            assert!(col == 2 || col == 3, "node {node} in column {col}");
        }
    }

    #[test]
    fn strips_avoiding_moves_cuts_off_the_hot_column() {
        // 8×8 grid, 2 strips: the balanced cut falls between columns 3
        // and 4. A hot node in column 4 sits right on that boundary; the
        // steered cut must move as far away as the ±width/4 slack allows
        // while staying a contiguous column banding.
        let topo = Topology::grid(8, 40.0);
        let hot = NodeId(4 * 8 + 4); // row 4, column 4 → sorted index 36
        let p = Partition::strips_avoiding(&topo, 2, hot);
        assert_eq!(p.k(), 2);
        let hot_shard = p.shard_of(hot);
        // The hot node's orthogonal radio neighbours stay on its shard.
        for &m in topo.neighbors_within(hot, 40.0).iter() {
            assert_eq!(p.shard_of(m), hot_shard, "neighbour {m} crosses");
        }
        // Still a contiguous banding by column.
        let mut seen = vec![];
        for col in 0..8u32 {
            let s = p.shard_of(NodeId(col));
            if seen.last() != Some(&s) {
                seen.push(s);
            }
            for row in 1..8u32 {
                assert_eq!(p.shard_of(NodeId(row * 8 + col)), s, "column split");
            }
        }
        assert_eq!(seen, vec![0, 1], "two bands, in order");
        // Balance stays within the documented quarter-width slack.
        let sizes = p.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        assert!(sizes.iter().all(|&s| (24..=40).contains(&s)), "{sizes:?}");
    }

    #[test]
    fn strips_avoiding_with_clear_hot_node_keeps_the_balanced_cut() {
        // Hot node already far from every cut: no shift is an improvement,
        // so the steered partition equals the plain balanced one.
        let topo = Topology::grid(6, 40.0);
        let p = Partition::strips_avoiding(&topo, 2, NodeId(0));
        assert_eq!(p, Partition::strips(&topo, 2));
    }

    #[test]
    fn strips_avoiding_degenerates_safely() {
        // k = 1 (no cuts) and k = n (width 1, zero slack) both stay valid.
        let topo = Topology::grid(2, 40.0);
        let one = Partition::strips_avoiding(&topo, 1, NodeId(3));
        assert_eq!(one.shard_sizes(), [4]);
        let all = Partition::strips_avoiding(&topo, 4, NodeId(3));
        assert_eq!(all.shard_sizes(), [1, 1, 1, 1]);
    }

    #[test]
    fn k_is_clamped_to_node_count() {
        let topo = Topology::grid(2, 40.0);
        let p = Partition::strips(&topo, 64);
        assert_eq!(p.k(), 4);
        assert_eq!(p.shard_sizes(), [1, 1, 1, 1]);
    }

    #[test]
    fn uneven_split_spreads_remainder() {
        let topo = Topology::line(10, 40.0);
        let p = Partition::strips(&topo, 3);
        let mut sizes = p.shard_sizes().to_vec();
        sizes.sort();
        assert_eq!(sizes, vec![3, 3, 4]);
        // Contiguity along the line.
        for i in 0..9 {
            assert!(p.shard_of(NodeId(i + 1)) >= p.shard_of(NodeId(i)));
        }
    }
}
