//! Hop-count routing over the unit-disk graph.
//!
//! The paper decouples routing from the protocol: "two separate trees that
//! go over sensor and IEEE 802.11 radios are built". [`Routes`] holds
//! all-pairs shortest-hop next-hops for one radio's connectivity graph
//! (BFS; ties broken by lowest node id, so routes are deterministic).
//! [`ShortcutTable`] implements Section 3's route optimization: a sender
//! that overhears its packet being forwarded learns the *last* forwarder as
//! a direct next hop for future bursts.

use crate::addr::NodeId;
use crate::topo::Topology;
use bcp_sim::persist::{Dec, DecodeError, Enc, Persist};
use std::collections::VecDeque;

/// How routes weigh candidate paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouteWeight {
    /// Fewest hops (the paper's BFS trees); ties broken by lowest node id.
    #[default]
    ShortestHop,
    /// Max–min residual energy: among all paths, maximise the *minimum*
    /// residual energy over the relay nodes, breaking ties by hop count
    /// then lowest node id. Spreads forwarding load away from nearly-dead
    /// relays, the classic lifetime-maximising weight.
    MaxMinResidual,
}

/// All-pairs shortest-hop routing for one radio range.
///
/// # Examples
///
/// ```
/// use bcp_net::addr::NodeId;
/// use bcp_net::routing::Routes;
/// use bcp_net::topo::Topology;
///
/// let topo = Topology::line(6, 40.0);
/// let routes = Routes::shortest_hop(&topo, 40.0);
/// // 5 hops end to end, next hop is the adjacent node.
/// assert_eq!(routes.hops(NodeId(5), NodeId(0)), Some(5));
/// assert_eq!(routes.next_hop(NodeId(5), NodeId(0)), Some(NodeId(4)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Routes {
    n: usize,
    // next[dst][src] = first hop from src toward dst.
    next: Vec<Vec<Option<NodeId>>>,
    // dist[dst][src] = hop count from src to dst.
    dist: Vec<Vec<Option<u32>>>,
}

impl Routes {
    /// Builds shortest-hop routes over the unit-disk graph at `range_m`.
    pub fn shortest_hop(topo: &Topology, range_m: f64) -> Self {
        Self::shortest_hop_excluding(topo, range_m, &[])
    }

    /// Shortest-hop routes over the unit-disk graph with `excluded` nodes
    /// removed (dead nodes neither relay nor terminate routes) — the
    /// route-repair primitive: after a death, rebuild with the corpse
    /// excluded and every surviving node routes around it.
    ///
    /// # Examples
    ///
    /// ```
    /// use bcp_net::addr::NodeId;
    /// use bcp_net::routing::Routes;
    /// use bcp_net::topo::Topology;
    ///
    /// let topo = Topology::grid(3, 10.0);
    /// // Node 1 (the only 1-hop relay from 2 to 0 besides 3... ) dies:
    /// let r = Routes::shortest_hop_excluding(&topo, 10.0, &[NodeId(1)]);
    /// // 2 still reaches 0, but not through 1.
    /// let path = r.path(NodeId(2), NodeId(0)).expect("rerouted");
    /// assert!(!path.contains(&NodeId(1)));
    /// ```
    pub fn shortest_hop_excluding(topo: &Topology, range_m: f64, excluded: &[NodeId]) -> Self {
        let n = topo.len();
        let neighbors = prune(topo.neighbor_table(range_m), excluded);
        let mut next = Vec::with_capacity(n);
        let mut dist = Vec::with_capacity(n);
        for dst in topo.nodes() {
            if excluded.contains(&dst) {
                // A dead destination is unreachable from everywhere.
                next.push(vec![None; n]);
                dist.push(vec![None; n]);
                continue;
            }
            let (d, parent) = bfs_from(&neighbors, dst, n);
            // parent[src] points one hop toward dst (BFS tree rooted at dst).
            next.push(parent);
            dist.push(d);
        }
        Routes { n, next, dist }
    }

    /// Max–min residual-energy routes: each node picks the path to each
    /// destination whose *bottleneck relay* (the relay with the least
    /// residual energy, endpoints excluded) is as healthy as possible;
    /// ties break by hop count, then lowest node id, so routes stay
    /// deterministic. `residual_j[i]` is node `i`'s remaining energy in
    /// joules (`f64::INFINITY` for mains-powered nodes); `excluded` nodes
    /// are dead and carry nothing.
    ///
    /// # Panics
    ///
    /// Panics if `residual_j.len() != topo.len()`.
    pub fn max_min_residual(
        topo: &Topology,
        range_m: f64,
        residual_j: &[f64],
        excluded: &[NodeId],
    ) -> Self {
        let n = topo.len();
        assert_eq!(residual_j.len(), n, "one residual per node");
        let neighbors = prune(topo.neighbor_table(range_m), excluded);
        let mut next = Vec::with_capacity(n);
        let mut dist = Vec::with_capacity(n);
        for dst in topo.nodes() {
            if excluded.contains(&dst) {
                next.push(vec![None; n]);
                dist.push(vec![None; n]);
                continue;
            }
            let (d, parent) = widest_from(&neighbors, residual_j, dst, n);
            next.push(parent);
            dist.push(d);
        }
        Routes { n, next, dist }
    }

    /// Number of nodes routed.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no nodes are routed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// First hop from `src` toward `dst`; `None` when unreachable or when
    /// `src == dst`.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        if src == dst {
            return None;
        }
        self.next[dst.index()][src.index()]
    }

    /// Hop count from `src` to `dst`; `Some(0)` when equal, `None` when
    /// unreachable.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        self.dist[dst.index()][src.index()]
    }

    /// `true` when every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        self.dist.iter().all(|row| row.iter().all(|d| d.is_some()))
    }

    /// The full path from `src` to `dst`, inclusive of both; `None` when
    /// unreachable.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.hops(src, dst)?;
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            path.push(cur);
            if path.len() > self.n {
                unreachable!("routing loop from {src} to {dst}");
            }
        }
        Some(path)
    }

    /// The forward progress `fp^H` of Section 2.1 for a sender: how many
    /// hops of *this* routing (the low radio's) one direct hop to `dst`
    /// spans.
    pub fn forward_progress(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        self.hops(src, dst)
    }
}

/// Removes `excluded` nodes from a neighbour table (both directions).
fn prune(mut neighbors: Vec<Vec<NodeId>>, excluded: &[NodeId]) -> Vec<Vec<NodeId>> {
    if excluded.is_empty() {
        return neighbors;
    }
    for (i, list) in neighbors.iter_mut().enumerate() {
        if excluded.contains(&NodeId(i as u32)) {
            list.clear();
        } else {
            list.retain(|v| !excluded.contains(v));
        }
    }
    neighbors
}

/// Widest-path (bottleneck) tree rooted at `root`: for every node, the path
/// toward `root` maximising the minimum residual over *relay* nodes
/// (endpoints excluded), tie-broken by hop count then lowest parent id.
/// Runs the O(n²) Dijkstra variant — fine at sensor-network sizes and
/// allocation-free beyond the label arrays.
fn widest_from(
    neighbors: &[Vec<NodeId>],
    residual_j: &[f64],
    root: NodeId,
    n: usize,
) -> (Vec<Option<u32>>, Vec<Option<NodeId>>) {
    const UNSET: f64 = f64::NEG_INFINITY;
    let mut width = vec![UNSET; n];
    let mut hops: Vec<u32> = vec![u32::MAX; n];
    let mut toward: Vec<Option<NodeId>> = vec![None; n];
    let mut done = vec![false; n];
    width[root.index()] = f64::INFINITY;
    hops[root.index()] = 0;
    loop {
        // Pick the best unfinalised labelled node: widest, then fewest
        // hops, then lowest id (the scan order breaks the id tie).
        let mut best: Option<usize> = None;
        for i in 0..n {
            if done[i] || width[i] == UNSET {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    if width[i] > width[b] || (width[i] == width[b] && hops[i] < hops[b]) {
                        best = Some(i);
                    }
                }
            }
        }
        let Some(u) = best else { break };
        done[u] = true;
        // Routing *through* u costs u's residual, unless u is the root
        // (the destination spends no relay energy).
        let via_u = if u == root.index() {
            f64::INFINITY
        } else {
            width[u].min(residual_j[u])
        };
        for &v in &neighbors[u] {
            let v = v.index();
            if done[v] {
                continue;
            }
            let better = via_u > width[v]
                || (via_u == width[v] && hops[u] + 1 < hops[v])
                || (via_u == width[v]
                    && hops[u] + 1 == hops[v]
                    && toward[v].map(|p| u < p.index()).unwrap_or(true));
            if better {
                width[v] = via_u;
                hops[v] = hops[u] + 1;
                toward[v] = Some(NodeId(u as u32));
            }
        }
    }
    let dist = hops
        .into_iter()
        .map(|h| if h == u32::MAX { None } else { Some(h) })
        .collect();
    (dist, toward)
}

fn bfs_from(
    neighbors: &[Vec<NodeId>],
    root: NodeId,
    n: usize,
) -> (Vec<Option<u32>>, Vec<Option<NodeId>>) {
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut toward: Vec<Option<NodeId>> = vec![None; n];
    dist[root.index()] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        // Neighbour lists are ascending, so parents tie-break to lowest id.
        for &v in &neighbors[u.index()] {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                // From v, going toward root means going through u.
                toward[v.index()] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (dist, toward)
}

/// A source-rooted dissemination tree: the reverse of the shortest-hop
/// (or widest-path) tree [`Routes`] builds toward the same node.
///
/// Convergecast routes answer "which neighbour do I hand data to, going
/// *toward* `root`?"; dissemination asks the transpose — "which
/// neighbours take data *from* me, coming from `root`?". Edge `u → v`
/// exists exactly when `routes.next_hop(v, root) == u`, so the tree is
/// deterministic whenever the routes are, and rebuilding routes after a
/// node death (route repair) repairs the tree for free.
///
/// # Examples
///
/// ```
/// use bcp_net::addr::NodeId;
/// use bcp_net::routing::{Dissemination, Routes};
/// use bcp_net::topo::Topology;
///
/// let topo = Topology::line(4, 40.0);
/// let routes = Routes::shortest_hop(&topo, 40.0);
/// let tree = Dissemination::from_routes(&routes, NodeId(0));
/// assert_eq!(tree.children(NodeId(0)), &[NodeId(1)]);
/// assert_eq!(tree.subtree(NodeId(2)), vec![NodeId(2), NodeId(3)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dissemination {
    root: NodeId,
    children: Vec<Vec<NodeId>>,
    reached: Vec<bool>,
}

impl Dissemination {
    /// Builds the tree rooted at `root` by reversing `routes`' next hops
    /// toward it. Nodes `routes` cannot reach (disconnected or excluded
    /// as dead) are simply absent.
    pub fn from_routes(routes: &Routes, root: NodeId) -> Self {
        let n = routes.len();
        let mut children = vec![Vec::new(); n];
        let mut reached = vec![false; n];
        reached[root.index()] = true;
        for v in 0..n as u32 {
            let v = NodeId(v);
            if v == root {
                continue;
            }
            if let Some(parent) = routes.next_hop(v, root) {
                // v's first hop toward root is its tree parent; node ids
                // ascend, so every child list is born sorted.
                children[parent.index()].push(v);
                reached[v.index()] = true;
            }
        }
        Dissemination {
            root,
            children,
            reached,
        }
    }

    /// The disseminating node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The nodes that take data directly from `node` (ascending ids).
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// `true` when the tree spans `node` (the root always; others exactly
    /// when the routes reach them).
    pub fn contains(&self, node: NodeId) -> bool {
        self.reached[node.index()]
    }

    /// How many nodes the tree spans, root included.
    pub fn coverage(&self) -> usize {
        self.reached.iter().filter(|&&r| r).count()
    }

    /// `node` plus every descendant, in depth-first (stack) order — the
    /// set of nodes that lose a packet when the edge into `node` fails.
    pub fn subtree(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend(self.children(u).iter().copied());
        }
        out
    }
}

/// Learned high-radio shortcuts (Section 3 route optimization).
///
/// Initially the high radio follows the low-radio route. When the sender
/// overhears its own packet being forwarded, the last forwarder heard
/// becomes the next hop for subsequent transmissions, cutting out
/// intermediate relays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShortcutTable {
    // (dst -> learned next hop); small n, linear scan is fine and keeps
    // iteration order deterministic.
    entries: Vec<(NodeId, NodeId)>,
}

impl ShortcutTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that packets for `dst` were last overheard being forwarded
    /// by `via`; replaces any previous entry.
    pub fn learn(&mut self, dst: NodeId, via: NodeId) {
        if let Some(e) = self.entries.iter_mut().find(|(d, _)| *d == dst) {
            e.1 = via;
        } else {
            self.entries.push((dst, via));
        }
    }

    /// The learned next hop toward `dst`, if any.
    pub fn shortcut(&self, dst: NodeId) -> Option<NodeId> {
        self.entries
            .iter()
            .find(|(d, _)| *d == dst)
            .map(|(_, via)| *via)
    }

    /// Drops the entry for `dst` (e.g. after a delivery failure).
    pub fn invalidate(&mut self, dst: NodeId) {
        self.entries.retain(|(d, _)| *d != dst);
    }

    /// Drops every entry learned *through* `via` — route repair when a
    /// forwarder dies: a shortcut through a corpse is a blackhole.
    pub fn invalidate_via(&mut self, via: NodeId) {
        self.entries.retain(|(_, v)| *v != via);
    }

    /// Number of learned entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been learned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

bcp_sim::persist!(struct ShortcutTable { entries });

/// Per-node tables: one row per node of the world being loaded (see
/// [`Dec::check_table`]), each `n` wide when `square`.
fn check_rows<T>(
    d: &Dec<'_>,
    rows: &[Vec<T>],
    square: bool,
    what: &str,
) -> Result<(), DecodeError> {
    d.check_table(rows.len(), what)?;
    if square && rows.iter().any(|r| r.len() != rows.len()) {
        return Err(DecodeError::new(format!("{what} is not square")));
    }
    Ok(())
}

/// `next` with its row count, then the `dist` rows (as many).
impl Persist for Routes {
    fn save(&self, e: &mut Enc) {
        self.next.save(e);
        for row in &self.dist {
            row.save(e);
        }
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        self.next.load(d)?;
        check_rows(d, &self.next, true, "a next-hop table")?;
        self.n = self.next.len();
        self.dist = vec![Vec::new(); self.n];
        for row in &mut self.dist {
            row.load(d)?;
        }
        check_rows(d, &self.dist, true, "a hop-count table")
    }
}

/// The root, the child lists with their row count, then one reached flag
/// per node.
impl Persist for Dissemination {
    fn save(&self, e: &mut Enc) {
        self.root.save(e);
        self.children.save(e);
        for r in &self.reached {
            r.save(e);
        }
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        self.root.load(d)?;
        self.children.load(d)?;
        check_rows(d, &self.children, false, "a dissemination tree")?;
        self.reached = vec![false; self.children.len()];
        for r in &mut self.reached {
            r.load(d)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_routes_hop_by_hop() {
        let topo = Topology::line(6, 40.0);
        let r = Routes::shortest_hop(&topo, 40.0);
        assert!(r.is_connected());
        assert_eq!(r.hops(NodeId(5), NodeId(0)), Some(5));
        assert_eq!(
            r.path(NodeId(5), NodeId(0)).unwrap(),
            (0..=5).rev().map(NodeId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn grid_hops_are_manhattan() {
        let topo = Topology::grid(6, 40.0);
        let r = Routes::shortest_hop(&topo, 40.0);
        assert!(r.is_connected());
        // Corner (0,0) to corner (5,5): 10 hops.
        assert_eq!(r.hops(NodeId(35), NodeId(0)), Some(10));
        // One row over: 1 hop.
        assert_eq!(r.hops(NodeId(6), NodeId(0)), Some(1));
    }

    #[test]
    fn dot11_range_makes_single_hop_to_central_sink() {
        // The multi-hop scenario: sink at the grid centre so Cabletron
        // (250 m) reaches it in one hop from every node.
        let topo = Topology::grid(6, 40.0);
        let sink = NodeId(14); // (80, 80): at most 169.7 m from any node
        let r = Routes::shortest_hop(&topo, 250.0);
        for n in topo.nodes() {
            if n != sink {
                assert_eq!(r.hops(n, sink), Some(1), "direct at 250 m");
                assert_eq!(r.next_hop(n, sink), Some(sink));
            }
        }
    }

    #[test]
    fn forward_progress_matches_paper() {
        // 200 m line: 5 sensor hops; Cabletron (250 m) reaches in one, so
        // its forward progress is 5 (Section 2.2).
        let topo = Topology::line(6, 40.0);
        let low = Routes::shortest_hop(&topo, 40.0);
        assert_eq!(low.forward_progress(NodeId(5), NodeId(0)), Some(5));
    }

    #[test]
    fn disconnected_pairs_unreachable() {
        // Two nodes 100 m apart with 40 m range.
        let topo = Topology::line(2, 100.0);
        let r = Routes::shortest_hop(&topo, 40.0);
        assert!(!r.is_connected());
        assert_eq!(r.hops(NodeId(0), NodeId(1)), None);
        assert_eq!(r.next_hop(NodeId(0), NodeId(1)), None);
        assert_eq!(r.path(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn self_routes() {
        let topo = Topology::grid(2, 10.0);
        let r = Routes::shortest_hop(&topo, 20.0);
        assert_eq!(r.hops(NodeId(1), NodeId(1)), Some(0));
        assert_eq!(r.next_hop(NodeId(1), NodeId(1)), None);
        assert_eq!(r.path(NodeId(1), NodeId(1)), Some(vec![NodeId(1)]));
    }

    #[test]
    fn routes_are_deterministic() {
        let topo = Topology::grid(5, 40.0);
        let a = Routes::shortest_hop(&topo, 40.0);
        let b = Routes::shortest_hop(&topo, 40.0);
        assert_eq!(a, b);
    }

    #[test]
    fn paths_never_loop() {
        let topo = Topology::grid(6, 40.0);
        let r = Routes::shortest_hop(&topo, 60.0);
        for src in topo.nodes() {
            let path = r.path(src, NodeId(0)).expect("connected");
            let mut dedup = path.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), path.len(), "no repeated nodes");
        }
    }

    #[test]
    fn excluding_nodes_reroutes_around_them() {
        // 3×3 grid, 10 m pitch, 10 m range: orthogonal neighbours only.
        let topo = Topology::grid(3, 10.0);
        let full = Routes::shortest_hop(&topo, 10.0);
        assert_eq!(full.hops(NodeId(8), NodeId(0)), Some(4));
        // The two centre-adjacent relays 1 and 3 die: corner 8 must route
        // the long way round and never through a corpse.
        let dead = [NodeId(1), NodeId(3)];
        let r = Routes::shortest_hop_excluding(&topo, 10.0, &dead);
        let path = r.path(NodeId(8), NodeId(0));
        assert!(
            path.is_none(),
            "0 is cut off entirely: its only neighbours died"
        );
        // Non-severed pairs still route, avoiding the dead.
        let p = r.path(NodeId(8), NodeId(2)).expect("2 is reachable");
        for d in dead {
            assert!(!p.contains(&d), "path uses dead node {d}");
        }
        // Dead nodes are unreachable as destinations and sources.
        assert_eq!(r.hops(NodeId(8), NodeId(1)), None);
        assert_eq!(r.hops(NodeId(1), NodeId(8)), None);
    }

    #[test]
    fn excluding_nothing_matches_plain_bfs() {
        let topo = Topology::grid(5, 40.0);
        assert_eq!(
            Routes::shortest_hop(&topo, 60.0),
            Routes::shortest_hop_excluding(&topo, 60.0, &[])
        );
    }

    #[test]
    fn max_min_residual_avoids_drained_relays() {
        // A 4-node diamond: 0 — {1, 2} — 3, with 1 nearly drained.
        use crate::topo::Position;
        let topo = Topology::from_positions(vec![
            Position::new(0.0, 0.0),   // 0: source side
            Position::new(10.0, 8.0),  // 1: drained relay
            Position::new(10.0, -8.0), // 2: healthy relay
            Position::new(20.0, 0.0),  // 3: destination
        ]);
        let range = 14.0; // 0↔1, 0↔2, 1↔3, 2↔3; not 0↔3 (20 m), not 1↔2 (16 m)
        let residual = [5.0, 0.1, 4.0, f64::INFINITY];
        let r = Routes::max_min_residual(&topo, range, &residual, &[]);
        assert_eq!(
            r.next_hop(NodeId(0), NodeId(3)),
            Some(NodeId(2)),
            "routes through the healthy relay"
        );
        // Hop counts still come back, and equal-residual ties prefer
        // fewer hops: from 1 the direct link to 3 wins.
        assert_eq!(r.hops(NodeId(0), NodeId(3)), Some(2));
        assert_eq!(r.next_hop(NodeId(1), NodeId(3)), Some(NodeId(3)));
    }

    #[test]
    fn max_min_residual_with_equal_energy_degenerates_to_hops() {
        let topo = Topology::grid(4, 40.0);
        let residual = vec![100.0; topo.len()];
        let widest = Routes::max_min_residual(&topo, 40.0, &residual, &[]);
        let bfs = Routes::shortest_hop(&topo, 40.0);
        for src in topo.nodes() {
            for dst in topo.nodes() {
                assert_eq!(
                    widest.hops(src, dst),
                    bfs.hops(src, dst),
                    "{src}->{dst}: equal residuals must keep shortest hops"
                );
            }
        }
    }

    #[test]
    fn max_min_residual_respects_exclusions() {
        let topo = Topology::line(4, 40.0);
        let residual = vec![10.0; 4];
        let r = Routes::max_min_residual(&topo, 40.0, &residual, &[NodeId(1)]);
        assert_eq!(r.hops(NodeId(3), NodeId(0)), None, "line severed at 1");
        assert_eq!(r.hops(NodeId(3), NodeId(2)), Some(1));
    }

    #[test]
    fn route_weight_default_is_shortest_hop() {
        assert_eq!(RouteWeight::default(), RouteWeight::ShortestHop);
    }

    #[test]
    fn dissemination_reverses_the_bfs_tree() {
        let topo = Topology::grid(3, 10.0);
        let routes = Routes::shortest_hop(&topo, 10.0);
        let tree = Dissemination::from_routes(&routes, NodeId(0));
        assert_eq!(tree.root(), NodeId(0));
        assert_eq!(tree.coverage(), 9, "connected grid is fully spanned");
        // Every non-root node appears as exactly one child, under its
        // BFS parent.
        let mut seen = vec![0u32; 9];
        for u in topo.nodes() {
            for &c in tree.children(u) {
                assert_eq!(routes.next_hop(c, NodeId(0)), Some(u));
                seen[c.index()] += 1;
            }
        }
        assert_eq!(seen[0], 0, "the root has no parent");
        assert!(
            seen[1..].iter().all(|&s| s == 1),
            "one parent each: {seen:?}"
        );
        // Subtrees partition the descendants.
        let whole = tree.subtree(NodeId(0));
        assert_eq!(whole.len(), 9);
    }

    #[test]
    fn dissemination_skips_dead_and_disconnected_nodes() {
        // A 4-node line severed by excluding node 1: the tree from 0
        // spans only {0, 1-excluded? no:} {0}∪nothing past the corpse.
        let topo = Topology::line(4, 40.0);
        let routes = Routes::shortest_hop_excluding(&topo, 40.0, &[NodeId(1)]);
        let tree = Dissemination::from_routes(&routes, NodeId(0));
        assert!(tree.contains(NodeId(0)));
        assert!(!tree.contains(NodeId(1)), "corpses are not spanned");
        assert!(
            !tree.contains(NodeId(2)),
            "nodes behind the corpse are cut off"
        );
        assert_eq!(tree.coverage(), 1);
        assert!(tree.children(NodeId(0)).is_empty());
    }

    #[test]
    fn dissemination_follows_route_repair() {
        // The repaired routes reroute around the corpse; the rebuilt tree
        // must span the survivors through the detour.
        let topo = Topology::grid(3, 10.0);
        let repaired = Routes::shortest_hop_excluding(&topo, 10.0, &[NodeId(1)]);
        let tree = Dissemination::from_routes(&repaired, NodeId(0));
        assert_eq!(tree.coverage(), 8, "everyone but the corpse");
        assert!(!tree.subtree(NodeId(0)).contains(&NodeId(1)));
        // Node 2 (whose straight-line parent died) hangs off the detour.
        assert!(tree.contains(NodeId(2)));
    }

    #[test]
    fn shortcut_learning() {
        let mut t = ShortcutTable::new();
        assert!(t.is_empty());
        let dst = NodeId(0);
        t.learn(dst, NodeId(3));
        assert_eq!(t.shortcut(dst), Some(NodeId(3)));
        // Later overhearing replaces the entry ("the last node that
        // forwards the packet is set as the next-hop").
        t.learn(dst, NodeId(1));
        assert_eq!(t.shortcut(dst), Some(NodeId(1)));
        assert_eq!(t.len(), 1);
        t.invalidate(dst);
        assert_eq!(t.shortcut(dst), None);
    }

    #[test]
    fn invalidate_via_drops_routes_through_a_corpse() {
        let mut t = ShortcutTable::new();
        t.learn(NodeId(0), NodeId(3));
        t.learn(NodeId(7), NodeId(3));
        t.learn(NodeId(9), NodeId(4));
        t.invalidate_via(NodeId(3));
        assert_eq!(t.shortcut(NodeId(0)), None);
        assert_eq!(t.shortcut(NodeId(7)), None);
        assert_eq!(t.shortcut(NodeId(9)), Some(NodeId(4)), "other vias survive");
    }
}
