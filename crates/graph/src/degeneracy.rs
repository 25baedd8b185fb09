//! Degeneracy, core decomposition and degeneracy orderings.
//!
//! Classes of bounded expansion are in particular degenerate (Section 2 of
//! the paper: every graph in such a class is `f(0)`-degenerate, hence has at
//! most `f(0)·n` edges). The degeneracy ordering is also the seed of the
//! weak-colouring-number ordering heuristics in `bedom-wcol` and of the
//! Barenboim–Elkin style orientation used in the distributed setting.

use crate::graph::{Graph, Vertex};

/// Result of a core decomposition.
#[derive(Clone, Debug)]
pub struct CoreDecomposition {
    /// `core[v]` = the core number of vertex `v`.
    pub core: Vec<u32>,
    /// The degeneracy of the graph (max core number, 0 for an edgeless graph).
    pub degeneracy: u32,
    /// A degeneracy ordering: each vertex has at most `degeneracy` neighbours
    /// *later* in this ordering (the standard "smallest-degree-last" peel
    /// order, listed in peel order).
    pub order: Vec<Vertex>,
}

/// Computes the core decomposition with the linear-time bucket algorithm of
/// Matula–Beck / Batagelj–Zaveršnik.
pub fn core_decomposition(graph: &Graph) -> CoreDecomposition {
    let n = graph.num_vertices();
    if n == 0 {
        return CoreDecomposition {
            core: Vec::new(),
            degeneracy: 0,
            order: Vec::new(),
        };
    }
    let mut degree: Vec<usize> = (0..n).map(|v| graph.degree(v as Vertex)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);

    // Bucket sort vertices by degree.
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin[d] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0usize; n];
    let mut vert = vec![0 as Vertex; n];
    {
        let mut cursor = bin.clone();
        for v in 0..n {
            pos[v] = cursor[degree[v]];
            vert[pos[v]] = v as Vertex;
            cursor[degree[v]] += 1;
        }
    }

    let mut core = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0u32;
    for i in 0..n {
        let v = vert[i];
        let dv = degree[v as usize];
        degeneracy = degeneracy.max(dv as u32);
        core[v as usize] = degeneracy;
        order.push(v);
        for &w in graph.neighbors(v) {
            let wi = w as usize;
            if degree[wi] > dv {
                // Move w one bucket down.
                let dw = degree[wi];
                let pw = pos[wi];
                let first = bin[dw];
                let u = vert[first];
                if u != w {
                    vert[first] = w;
                    vert[pw] = u;
                    pos[wi] = first;
                    pos[u as usize] = pw;
                }
                bin[dw] += 1;
                degree[wi] -= 1;
            }
        }
    }
    CoreDecomposition {
        core,
        degeneracy,
        order,
    }
}

/// The degeneracy of a graph: the minimum `k` such that every subgraph has a
/// vertex of degree at most `k`.
pub fn degeneracy(graph: &Graph) -> u32 {
    core_decomposition(graph).degeneracy
}

/// A degeneracy ordering `v_1, …, v_n` such that every vertex has at most
/// `degeneracy(G)` neighbours that appear *after* it.
pub fn degeneracy_order(graph: &Graph) -> Vec<Vertex> {
    core_decomposition(graph).order
}

/// Checks the defining property of a degeneracy ordering: returns the maximum
/// "forward degree" (number of neighbours later in the order) over all
/// vertices. For a valid degeneracy order this equals the degeneracy. The
/// tests' independent check of [`core_decomposition`]'s order.
#[cfg(test)]
pub(crate) fn max_forward_degree(graph: &Graph, order: &[Vertex]) -> usize {
    let n = graph.num_vertices();
    assert_eq!(
        order.len(),
        n,
        "order must contain every vertex exactly once"
    );
    let mut rank = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v as usize] = i;
    }
    let mut worst = 0usize;
    for (i, &v) in order.iter().enumerate() {
        let fwd = graph
            .neighbors(v)
            .iter()
            .filter(|&&w| rank[w as usize] > i)
            .count();
        worst = worst.max(fwd);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{graph_from_edges, Graph};

    fn complete_graph(n: usize) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        graph_from_edges(n, &edges)
    }

    #[test]
    fn degeneracy_of_basic_graphs() {
        // Path: degeneracy 1, cycle: 2, complete K5: 4, edgeless: 0.
        let path = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(degeneracy(&path), 1);
        let cycle = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(degeneracy(&cycle), 2);
        assert_eq!(degeneracy(&complete_graph(5)), 4);
        assert_eq!(degeneracy(&Graph::empty(7)), 0);
        assert_eq!(degeneracy(&Graph::empty(0)), 0);
    }

    #[test]
    fn core_numbers_of_clique_plus_pendant() {
        // K4 with a pendant vertex attached to vertex 0.
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]);
        let dec = core_decomposition(&g);
        assert_eq!(dec.degeneracy, 3);
        assert_eq!(dec.core[4], 1);
        for v in 0..4 {
            assert_eq!(dec.core[v], 3);
        }
    }

    #[test]
    fn degeneracy_order_has_bounded_forward_degree() {
        let g = complete_graph(6);
        let dec = core_decomposition(&g);
        assert_eq!(max_forward_degree(&g, &dec.order), dec.degeneracy as usize);

        let grid = {
            // 4x4 grid graph; degeneracy 2.
            let mut edges = Vec::new();
            let idx = |r: u32, c: u32| r * 4 + c;
            for r in 0..4u32 {
                for c in 0..4u32 {
                    if c + 1 < 4 {
                        edges.push((idx(r, c), idx(r, c + 1)));
                    }
                    if r + 1 < 4 {
                        edges.push((idx(r, c), idx(r + 1, c)));
                    }
                }
            }
            graph_from_edges(16, &edges)
        };
        let dec = core_decomposition(&grid);
        assert_eq!(dec.degeneracy, 2);
        assert!(max_forward_degree(&grid, &dec.order) <= 2);
    }

    #[test]
    fn order_is_a_permutation() {
        let g = complete_graph(4);
        let dec = core_decomposition(&g);
        let mut sorted = dec.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }
}
