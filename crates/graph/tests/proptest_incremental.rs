//! Property tests for the incremental shortest-path machinery backing
//! `GameSession`'s cache repair: decrease-only re-relaxation must agree
//! with a from-scratch Dijkstra after arbitrary edge additions, a sweep
//! that skips one node's out-edges must agree with a sweep of the
//! subgraph without them, and the sharded multi-row sweep must agree
//! with sequential sweeps exactly.

use proptest::prelude::*;
use sp_graph::{CsrGraph, DiGraph, DijkstraScratch, DistanceMatrix};

/// A random digraph as `(n, edges)`; parallel edges are allowed (Dijkstra
/// simply relaxes both).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..=12).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n, 0.1f64..10.0), 0..40).prop_map(|edges| {
                edges
                    .into_iter()
                    .filter(|&(u, v, _)| u != v)
                    .collect::<Vec<_>>()
            }),
        )
    })
}

fn build(n: usize, edges: &[(usize, usize, f64)]) -> DiGraph {
    let mut g = DiGraph::new(n);
    for &(u, v, w) in edges {
        g.add_edge(u, v, w);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Seeded decrease-only relaxation after edge additions restores
    /// exactly the distances a fresh Dijkstra computes on the new graph.
    #[test]
    fn relax_decrease_matches_fresh_dijkstra(
        (n, edges) in arb_graph(),
        extra in proptest::collection::vec((0usize..12, 0usize..12, 0.05f64..5.0), 1..8),
        source_raw in 0usize..12
    ) {
        let source = source_raw % n;
        let g_old = build(n, &edges);
        let csr_old = CsrGraph::from_digraph(&g_old);
        let mut dist = csr_old.dijkstra(source);

        let mut g_new = build(n, &edges);
        let mut seeds: Vec<(usize, f64)> = Vec::new();
        for &(u_raw, v_raw, w) in &extra {
            let (u, v) = (u_raw % n, v_raw % n);
            if u == v {
                continue;
            }
            g_new.add_edge(u, v, w);
            // Seed exactly like the session repair does: only additions
            // that improve on the cached row.
            if dist[u].is_finite() && dist[u] + w < dist[v] {
                seeds.push((v, dist[u] + w));
            }
        }
        let csr_new = CsrGraph::from_digraph(&g_new);
        let mut scratch = DijkstraScratch::new();
        csr_new.relax_decrease_into(&mut dist, &seeds, &mut scratch);
        prop_assert_eq!(dist, csr_new.dijkstra(source),
            "incremental repair diverged from a fresh sweep");
    }

    /// A sweep on the full graph that never expands `skip` yields,
    /// bit for bit, the row a fresh sweep computes on the graph built
    /// without `skip`'s out-edges — including rows from `skip` itself
    /// (which then reaches nothing) and `skip` out of range.
    #[test]
    fn skipping_sweep_matches_fresh_subgraph_dijkstra(
        (n, edges) in arb_graph(),
        source_raw in 0usize..12,
        skip_raw in 0usize..13
    ) {
        let source = source_raw % n;
        let skip = if skip_raw == 12 { usize::MAX } else { skip_raw % n };
        let full = CsrGraph::from_digraph(&build(n, &edges));
        let kept: Vec<(usize, usize, f64)> =
            edges.iter().copied().filter(|&(u, _, _)| u != skip).collect();
        let fresh = CsrGraph::from_digraph(&build(n, &kept)).dijkstra(source);
        let mut scratch = DijkstraScratch::new();
        let skipped = full.dijkstra_row_skipping_with(source, skip, &mut scratch);
        let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(skipped), bits(&fresh), "source {} skip {}", source, skip);
    }

    /// The sharded multi-row sweep fills every requested row with exactly
    /// the distances per-row sequential sweeps produce, for any worker
    /// count (including degenerate ones).
    #[test]
    fn parallel_row_sweeps_match_sequential(
        (n, edges) in arb_graph(),
        workers in 0usize..9
    ) {
        let g = build(n, &edges);
        let csr = CsrGraph::from_digraph(&g);
        let mut m = DistanceMatrix::new_filled(n, -1.0);
        let jobs: Vec<(usize, &mut [f64])> = m.rows_mut().enumerate().collect();
        csr.dijkstra_rows_with(jobs, workers);
        for s in 0..n {
            let fresh = csr.dijkstra(s);
            prop_assert_eq!(m.row(s), fresh.as_slice(), "row {}", s);
        }
    }
}
