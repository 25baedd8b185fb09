//! The rows the exact bitmask oracle reads, on the conformance corpus: every
//! row of [`reach_words64`] must be exactly the scalar closed
//! `r`-neighbourhood.
//!
//! The corpus mirrors `tests/conformance.rs` — the paper's structured
//! families, the degenerate shapes, and the n ∈ (20, 26] band.

use bedom::graph::bitset::reach_words64;
use bedom::graph::generators::{cycle, grid, path, stacked_triangulation, star};
use bedom::graph::{graph_from_edges, Graph, Vertex};

fn corpus() -> Vec<(&'static str, Graph)> {
    vec![
        ("empty", Graph::empty(0)),
        ("single-vertex", Graph::empty(1)),
        ("two-isolated", Graph::empty(2)),
        ("path-16", path(16)),
        ("path-26", path(26)),
        ("cycle-24", cycle(24)),
        ("star-21", star(20)),
        ("grid-5x5", grid(5, 5)),
        ("planar-tri-26", stacked_triangulation(26, 5)),
        (
            "disconnected",
            graph_from_edges(12, &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)]),
        ),
    ]
}

#[test]
fn reach_words64_rows_match_scalar_neighborhoods_on_the_corpus() {
    use bedom::graph::bfs::closed_neighborhood;
    for (name, g) in corpus() {
        for r in [0u32, 1, 3] {
            let rows = reach_words64(&g, r);
            for v in g.vertices() {
                let want = closed_neighborhood(&g, v, r);
                let row = rows[v as usize];
                let got: Vec<Vertex> = g.vertices().filter(|&u| (row >> u) & 1 == 1).collect();
                assert_eq!(got, want, "{name}, r = {r}, v = {v}");
            }
        }
    }
}
