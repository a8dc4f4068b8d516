use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::DiGraph;

/// An immutable compressed-sparse-row snapshot of a [`DiGraph`].
///
/// All out-edges live in two flat arrays indexed through a per-node offset
/// table, which makes repeated shortest-path sweeps (the inner loop of cost
/// and best-response computation) cache-friendly.
///
/// # Example
///
/// ```
/// use sp_graph::{DiGraph, CsrGraph};
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 2.0);
/// let csr = CsrGraph::from_digraph(&g);
/// assert_eq!(csr.dijkstra(0)[2], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<usize>,
    weights: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    pub(crate) dist: f64,
    pub(crate) node: usize,
}

impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable working memory for repeated shortest-path sweeps.
///
/// Hot loops (the `GameSession` evaluation cache, best-response oracles)
/// run thousands of Dijkstra sweeps over same-sized graphs; sharing one
/// scratch avoids a heap allocation per sweep. Besides the priority
/// queue, the scratch owns a distance row for
/// [`CsrGraph::dijkstra_row_with`], so back-to-back oracle builds reuse
/// both the heap and the output buffer across calls.
#[derive(Debug, Clone, Default)]
pub struct DijkstraScratch {
    heap: BinaryHeap<Entry>,
    row: Vec<f64>,
}

impl DijkstraScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        DijkstraScratch::default()
    }
}

impl CsrGraph {
    /// Builds the CSR snapshot of `g`.
    #[must_use]
    pub fn from_digraph(g: &DiGraph) -> Self {
        let n = g.node_count();
        let m = g.edge_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m);
        offsets.push(0);
        for u in 0..n {
            for e in g.out_edges(u) {
                targets.push(e.to);
                weights.push(e.weight);
            }
            offsets.push(targets.len());
        }
        CsrGraph {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The reverse graph: every edge `u → v` becomes `v → u` with the
    /// same weight.
    ///
    /// Distances *to* a node `t` in `self` are distances *from* `t` in
    /// the transpose, so one forward sweep on the transpose yields the
    /// column `d(·, t)` — the backward half of a landmark sketch. The
    /// construction is a counting sort over the edge arrays, `O(n + m)`,
    /// and the transpose's out-edges are emitted in ascending source
    /// order, so the result is deterministic.
    #[must_use]
    pub fn transpose(&self) -> CsrGraph {
        let n = self.node_count();
        let m = self.edge_count();
        let mut offsets = vec![0usize; n + 1];
        for &t in &self.targets {
            offsets[t + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0usize; m];
        let mut weights = vec![0.0f64; m];
        for u in 0..n {
            let (ts, ws) = self.out_neighbors(u);
            for (&v, &w) in ts.iter().zip(ws) {
                let slot = cursor[v];
                cursor[v] += 1;
                targets[slot] = u;
                weights[slot] = w;
            }
        }
        CsrGraph {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of directed edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of `node` as parallel `(targets, weights)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[must_use]
    pub fn out_neighbors(&self, node: usize) -> (&[usize], &[f64]) {
        let lo = self.offsets[node];
        let hi = self.offsets[node + 1];
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Single-source shortest path distances from `source`.
    ///
    /// Identical semantics to [`crate::dijkstra`] but without touching the
    /// adjacency-list representation.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    #[must_use]
    pub fn dijkstra(&self, source: usize) -> Vec<f64> {
        let n = self.node_count();
        let mut dist = vec![f64::INFINITY; n];
        self.dijkstra_into(source, &mut dist);
        dist
    }

    /// Like [`CsrGraph::dijkstra`] but reuses a caller-provided buffer to
    /// avoid per-call allocation. `dist` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds or `dist.len() != node_count()`.
    pub fn dijkstra_into(&self, source: usize, dist: &mut [f64]) {
        let mut scratch = DijkstraScratch::new();
        self.dijkstra_into_with(source, dist, &mut scratch);
    }

    /// Like [`CsrGraph::dijkstra_into`] but reuses caller-provided scratch
    /// memory as well, so back-to-back sweeps allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds or `dist.len() != node_count()`.
    pub fn dijkstra_into_with(
        &self,
        source: usize,
        dist: &mut [f64],
        scratch: &mut DijkstraScratch,
    ) {
        self.sweep_into(source, usize::MAX, dist, scratch);
    }

    /// One full sweep from `source` into `dist`, never expanding the
    /// out-edges of `skip` (`usize::MAX` skips nothing).
    fn sweep_into(
        &self,
        source: usize,
        skip: usize,
        dist: &mut [f64],
        scratch: &mut DijkstraScratch,
    ) {
        let n = self.node_count();
        assert!(source < n, "source {source} out of bounds for {n} nodes");
        assert_eq!(dist.len(), n, "distance buffer has wrong length");
        dist.fill(f64::INFINITY);
        dist[source] = 0.0;
        scratch.heap.clear();
        scratch.heap.push(Entry {
            dist: 0.0,
            node: source,
        });
        self.relax_from_heap_skipping(dist, scratch, skip);
    }

    /// Like [`CsrGraph::dijkstra_into_with`] but sweeps into the
    /// scratch-owned row buffer and returns it, so repeated sweeps — a
    /// best-response oracle builds one per candidate neighbour, thousands
    /// per dynamics round — allocate nothing after the first call.
    ///
    /// The returned slice is valid until the next use of `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn dijkstra_row_with<'a>(
        &self,
        source: usize,
        scratch: &'a mut DijkstraScratch,
    ) -> &'a [f64] {
        self.dijkstra_row_skipping_with(source, usize::MAX, scratch)
    }

    /// Like [`CsrGraph::dijkstra_row_with`], but sweeps as if the
    /// out-edges of `skip` were absent — the row of the subgraph
    /// `G_{-skip}` — without materialising that subgraph. This is the
    /// residual row `D_{G_{-i}}(source, ·)` a best-response oracle for
    /// peer `i = skip` reads, swept on the full overlay snapshot.
    /// `skip` itself still receives its distance (edges *into* it
    /// remain); it is just never expanded. With `skip >= node_count()`
    /// nothing is skipped.
    ///
    /// Bit-identical to a plain sweep on a graph built without `skip`'s
    /// out-edges: Dijkstra settles each node at the minimum, over
    /// paths, of the left-folded path sum, whatever the edge order.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn dijkstra_row_skipping_with<'a>(
        &self,
        source: usize,
        skip: usize,
        scratch: &'a mut DijkstraScratch,
    ) -> &'a [f64] {
        let mut row = std::mem::take(&mut scratch.row);
        row.resize(self.node_count(), f64::INFINITY);
        self.sweep_into(source, skip, &mut row, scratch);
        scratch.row = row;
        &scratch.row
    }

    /// Incremental single-source repair after **weight decreases / edge
    /// additions**: given `dist` holding correct distances in a graph of
    /// which `self` is a superset (same nodes, possibly extra or cheaper
    /// edges), and `seeds` listing nodes whose tentative distance just
    /// dropped, restores exact distances for `self`.
    ///
    /// Seeds with `new_dist >= dist[node]` are ignored. This is the
    /// standard decrease-only re-relaxation: work is proportional to the
    /// region whose distances actually change, not to the whole graph —
    /// the `GameSession` cache uses it to avoid full APSP rebuilds when a
    /// peer adds links.
    ///
    /// # Panics
    ///
    /// Panics if `dist.len() != node_count()` or a seed node is out of
    /// bounds.
    pub fn relax_decrease_into(
        &self,
        dist: &mut [f64],
        seeds: &[(usize, f64)],
        scratch: &mut DijkstraScratch,
    ) {
        let n = self.node_count();
        assert_eq!(dist.len(), n, "distance buffer has wrong length");
        scratch.heap.clear();
        for &(node, new_dist) in seeds {
            assert!(node < n, "seed {node} out of bounds for {n} nodes");
            // sp-lint: allow(float-eps, reason = "Dijkstra relaxation: exact strict improvement is the termination criterion; an eps band would cycle")
            if new_dist < dist[node] {
                dist[node] = new_dist;
                scratch.heap.push(Entry {
                    dist: new_dist,
                    node,
                });
            }
        }
        self.relax_from_heap(dist, scratch);
    }

    /// Like [`CsrGraph::relax_decrease_into`], but relaxes as if the
    /// out-edges of `skip` were absent — i.e. against the subgraph
    /// `G_{-skip}` — without materialising that subgraph.
    ///
    /// This is the repair kernel for **residual** distance rows
    /// `D_{G_{-i}}(v, ·)` (the rows a best-response oracle for peer `i`
    /// reads): when some *other* peer adds links, the cached residual row
    /// can be restored by decrease-only relaxation, but the propagation
    /// must never route through `i`'s out-links, which `G_{-i}` does not
    /// contain. Seeds landing **on** `skip` are accepted (edges *into*
    /// `skip` exist in `G_{-skip}`); they just never propagate onward.
    ///
    /// With `skip >= node_count()` no node is skipped and the call is
    /// exactly [`CsrGraph::relax_decrease_into`].
    ///
    /// # Panics
    ///
    /// Panics if `dist.len() != node_count()` or a seed node is out of
    /// bounds.
    pub fn relax_decrease_skipping(
        &self,
        dist: &mut [f64],
        seeds: &[(usize, f64)],
        skip: usize,
        scratch: &mut DijkstraScratch,
    ) {
        let n = self.node_count();
        assert_eq!(dist.len(), n, "distance buffer has wrong length");
        scratch.heap.clear();
        for &(node, new_dist) in seeds {
            assert!(node < n, "seed {node} out of bounds for {n} nodes");
            // sp-lint: allow(float-eps, reason = "Dijkstra relaxation: exact strict improvement is the termination criterion; an eps band would cycle")
            if new_dist < dist[node] {
                dist[node] = new_dist;
                scratch.heap.push(Entry {
                    dist: new_dist,
                    node,
                });
            }
        }
        self.relax_from_heap_skipping(dist, scratch, skip);
    }

    /// Runs one full single-source sweep per `(source, buffer)` job,
    /// sharding the jobs over at most `workers` scoped threads with a
    /// per-thread [`DijkstraScratch`].
    ///
    /// The buffers must be disjoint (guaranteed by the borrow checker);
    /// `CsrGraph` itself is immutable and shared read-only across the
    /// threads. With `workers <= 1` or a single job everything runs on
    /// the calling thread — results are identical either way, only the
    /// wall-clock changes. This is the bulk-row engine behind
    /// `GameSession`'s parallel cache refill.
    ///
    /// # Panics
    ///
    /// Panics if any job's source is out of bounds or its buffer length
    /// differs from `node_count()`.
    pub fn dijkstra_rows_with(&self, mut jobs: Vec<(usize, &mut [f64])>, workers: usize) {
        let workers = workers.max(1).min(jobs.len());
        if workers <= 1 {
            let mut scratch = DijkstraScratch::new();
            for (source, row) in &mut jobs {
                self.dijkstra_into_with(*source, row, &mut scratch);
            }
            return;
        }
        let shard_len = jobs.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for shard in jobs.chunks_mut(shard_len) {
                scope.spawn(move || {
                    let mut scratch = DijkstraScratch::new();
                    for (source, row) in shard {
                        self.dijkstra_into_with(*source, row, &mut scratch);
                    }
                });
            }
        });
    }

    /// Settles whatever is queued in `scratch.heap` against `dist` (lazy
    /// deletion: stale queue entries are skipped on pop).
    fn relax_from_heap(&self, dist: &mut [f64], scratch: &mut DijkstraScratch) {
        // `usize::MAX` is never a node index, so nothing is skipped.
        self.relax_from_heap_skipping(dist, scratch, usize::MAX);
    }

    /// [`CsrGraph::relax_from_heap`], never expanding the out-edges of
    /// `skip` (settled nodes equal to `skip` are popped but not relaxed).
    fn relax_from_heap_skipping(
        &self,
        dist: &mut [f64],
        scratch: &mut DijkstraScratch,
        skip: usize,
    ) {
        while let Some(Entry { dist: d, node: u }) = scratch.heap.pop() {
            // sp-lint: allow(float-eps, reason = "stale-heap-entry skip: compares a value against an exact copy of itself, never a recomputation")
            if d > dist[u] || u == skip {
                continue;
            }
            let (ts, ws) = self.out_neighbors(u);
            for (&v, &w) in ts.iter().zip(ws) {
                let nd = d + w;
                // sp-lint: allow(float-eps, reason = "Dijkstra relaxation: exact strict improvement is the termination criterion; an eps band would cycle")
                if nd < dist[v] {
                    dist[v] = nd;
                    scratch.heap.push(Entry { dist: nd, node: v });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builders, dijkstra};

    #[test]
    fn csr_matches_adjacency_dijkstra() {
        let mut g = DiGraph::new(6);
        let edges = [
            (0, 1, 2.0),
            (1, 2, 2.0),
            (2, 3, 2.0),
            (0, 3, 7.0),
            (3, 4, 1.0),
            (4, 0, 1.0),
        ];
        for (u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        let csr = CsrGraph::from_digraph(&g);
        for s in 0..6 {
            assert_eq!(csr.dijkstra(s), dijkstra(&g, s), "source {s}");
        }
    }

    #[test]
    fn structure_roundtrip() {
        let g = builders::complete_graph(4, |i, j| (i + j) as f64);
        let csr = CsrGraph::from_digraph(&g);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 12);
        let (ts, ws) = csr.out_neighbors(0);
        assert_eq!(ts, &[1, 2, 3]);
        assert_eq!(ws, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dijkstra_into_reuses_buffer() {
        let g = builders::cycle_graph(5, |_, _| 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let mut buf = vec![42.0; 5];
        csr.dijkstra_into(2, &mut buf);
        assert_eq!(buf, vec![3.0, 4.0, 0.0, 1.0, 2.0]);
        csr.dijkstra_into(0, &mut buf);
        assert_eq!(buf, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn dijkstra_into_checks_buffer_len() {
        let g = builders::cycle_graph(3, |_, _| 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let mut buf = vec![0.0; 2];
        csr.dijkstra_into(0, &mut buf);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let g = builders::complete_graph(8, |i, j| ((i * 7 + j * 3) % 5 + 1) as f64);
        let csr = CsrGraph::from_digraph(&g);
        let mut scratch = DijkstraScratch::new();
        let mut buf = vec![0.0; 8];
        for s in 0..8 {
            csr.dijkstra_into_with(s, &mut buf, &mut scratch);
            assert_eq!(buf, csr.dijkstra(s), "source {s}");
        }
    }

    #[test]
    fn decrease_relaxation_repairs_added_edges() {
        // Path 0 -> 1 -> 2 -> 3 with unit weights; then add shortcut 0 -> 3.
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        let csr_old = CsrGraph::from_digraph(&g);
        let mut dist = csr_old.dijkstra(0);
        assert_eq!(dist[3], 3.0);
        g.add_edge(0, 3, 0.5);
        g.add_edge(3, 1, 0.1); // decreased dist must propagate onward
        let csr_new = CsrGraph::from_digraph(&g);
        let mut scratch = DijkstraScratch::new();
        csr_new.relax_decrease_into(&mut dist, &[(3, 0.5)], &mut scratch);
        assert_eq!(dist, csr_new.dijkstra(0));
        assert_eq!(dist[3], 0.5);
        assert!((dist[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn decrease_relaxation_ignores_worse_seeds() {
        let g = builders::cycle_graph(5, |_, _| 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let mut dist = csr.dijkstra(0);
        let before = dist.clone();
        let mut scratch = DijkstraScratch::new();
        csr.relax_decrease_into(&mut dist, &[(2, 99.0)], &mut scratch);
        assert_eq!(dist, before);
    }

    #[test]
    fn skipping_relaxation_matches_subgraph_repair() {
        // G_{-1} (node 1's out-edge 1 -> 3 excluded): 0 -> 1, 2 -> 0,
        // 2 -> 3 (expensive). Residual row from source 2.
        let mut sub = DiGraph::new(4);
        for (u, v, w) in [(0, 1, 1.0), (2, 0, 1.0), (2, 3, 5.0)] {
            sub.add_edge(u, v, w);
        }
        let mut dist = CsrGraph::from_digraph(&sub).dijkstra(2);
        assert_eq!(dist, vec![1.0, 2.0, 0.0, 5.0]);
        // Peer 2 adds 2 -> 1 (weight 0.3). The full overlay also holds
        // node 1's own edge 1 -> 3 (1.0): relaxing through it would
        // wrongly report d(2, 3) = 1.3, a path G_{-1} does not contain.
        let mut full = sub.clone();
        full.add_edge(1, 3, 1.0);
        full.add_edge(2, 1, 0.3);
        sub.add_edge(2, 1, 0.3);
        let full_csr = CsrGraph::from_digraph(&full);
        let mut scratch = DijkstraScratch::new();
        full_csr.relax_decrease_skipping(&mut dist, &[(1, 0.3)], 1, &mut scratch);
        let expected = CsrGraph::from_digraph(&sub).dijkstra(2);
        assert_eq!(dist, expected, "repair must agree with the subgraph");
        assert_eq!(dist[1], 0.3);
        assert_eq!(dist[3], 5.0, "must not route through node 1's out-edge");
    }

    #[test]
    fn skipping_relaxation_accepts_seeds_on_the_skipped_node() {
        // Edges INTO the skipped node exist in the subgraph: a seed
        // landing on it must update its distance without propagating.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let mut dist = vec![0.0, 5.0, f64::INFINITY];
        let mut scratch = DijkstraScratch::new();
        csr.relax_decrease_skipping(&mut dist, &[(1, 1.0)], 1, &mut scratch);
        assert_eq!(dist[1], 1.0, "seed on the skipped node is applied");
        assert!(
            dist[2].is_infinite(),
            "the skipped node's out-edges must not relax"
        );
    }

    #[test]
    fn skipping_out_of_range_node_degenerates_to_plain_relaxation() {
        let g = builders::cycle_graph(5, |_, _| 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let mut a = csr.dijkstra(0);
        let mut b = a.clone();
        let mut scratch = DijkstraScratch::new();
        csr.relax_decrease_into(&mut a, &[(3, 0.25)], &mut scratch);
        csr.relax_decrease_skipping(&mut b, &[(3, 0.25)], usize::MAX, &mut scratch);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_rows_match_sequential_sweeps() {
        let g = builders::complete_graph(17, |i, j| ((i * 5 + j * 11) % 7 + 1) as f64);
        let csr = CsrGraph::from_digraph(&g);
        for workers in [0usize, 1, 2, 5, 32] {
            let mut m = crate::DistanceMatrix::new_filled(17, -1.0);
            let jobs: Vec<(usize, &mut [f64])> = m.rows_mut().enumerate().collect();
            csr.dijkstra_rows_with(jobs, workers);
            for s in 0..17 {
                assert_eq!(
                    m.row(s),
                    csr.dijkstra(s).as_slice(),
                    "source {s}, workers {workers}"
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let csr = CsrGraph::from_digraph(&DiGraph::new(0));
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let mut g = DiGraph::new(5);
        for (u, v, w) in [(0, 1, 2.0), (1, 2, 3.0), (3, 1, 0.5), (4, 0, 1.0)] {
            g.add_edge(u, v, w);
        }
        let csr = CsrGraph::from_digraph(&g);
        let t = csr.transpose();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.edge_count(), 4);
        let (ts, ws) = t.out_neighbors(1);
        assert_eq!(ts, &[0, 3]);
        assert_eq!(ws, &[2.0, 0.5]);
        assert_eq!(t.transpose(), csr, "double transpose is the identity");
    }

    #[test]
    fn transpose_sweep_yields_columns() {
        let g = builders::complete_graph(7, |i, j| ((i * 3 + j * 5) % 4 + 1) as f64);
        let csr = CsrGraph::from_digraph(&g);
        let t = csr.transpose();
        for target in 0..7 {
            let back = t.dijkstra(target);
            for source in 0..7 {
                assert_eq!(
                    back[source],
                    csr.dijkstra(source)[target],
                    "d({source}, {target})"
                );
            }
        }
    }
}
