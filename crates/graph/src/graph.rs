//! Compact CSR (compressed sparse row) representation of finite, undirected,
//! simple graphs — the graph model used throughout the paper (Section 2,
//! "Graphs").
//!
//! The paper assumes graphs are "represented by adjacency lists so that the
//! total size of a graph representation is linear in the number of edges and
//! vertices"; a CSR layout is the cache-friendly equivalent of that and keeps
//! neighbour iteration allocation-free, which matters for the linear-time
//! claims of Theorem 5 and for the simulator's per-round loops.

use std::fmt;

/// Vertex identifier. Dense, `0..n`.
pub type Vertex = u32;

/// An undirected simple graph in CSR form.
///
/// Invariants maintained by [`GraphBuilder`]:
/// * no self-loops,
/// * no parallel edges,
/// * every adjacency slice is sorted increasingly by vertex id.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adjacency: Vec<Vertex>,
    num_edges: usize,
}

impl Graph {
    /// Builds a graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            adjacency: Vec::new(),
            num_edges: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterator over all vertices `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.num_vertices() as Vertex
    }

    /// The sorted open neighbourhood `N(v)` of `v` as a slice.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2m/n` of the graph (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / n as f64
        }
    }

    /// Whether `{u, v}` is an edge. `O(log deg(u))`.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        if u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all edges as pairs `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Induced subgraph `G[keep]`, together with the mapping from new vertex
    /// ids to the original ids.
    ///
    /// `keep` may be in any order and may contain duplicates; duplicates are
    /// ignored. The returned mapping is sorted by original id.
    pub fn induced_subgraph(&self, keep: &[Vertex]) -> (Graph, Vec<Vertex>) {
        let n = self.num_vertices();
        let mut selected: Vec<Vertex> = keep.to_vec();
        selected.sort_unstable();
        selected.dedup();
        let mut new_id = vec![u32::MAX; n];
        for (i, &v) in selected.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let mut builder = GraphBuilder::new(selected.len());
        for &v in &selected {
            for &w in self.neighbors(v) {
                if v < w && new_id[w as usize] != u32::MAX {
                    builder.add_edge(new_id[v as usize], new_id[w as usize]);
                }
            }
        }
        (builder.build(), selected)
    }

    /// Returns the graph with vertices relabelled according to `perm`, where
    /// `perm[old] = new`. `perm` must be a permutation of `0..n`.
    pub fn relabel(&self, perm: &[Vertex]) -> Graph {
        assert_eq!(
            perm.len(),
            self.num_vertices(),
            "permutation length mismatch"
        );
        let mut builder = GraphBuilder::new(self.num_vertices());
        for (u, v) in self.edges() {
            builder.add_edge(perm[u as usize], perm[v as usize]);
        }
        builder.build()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={})",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

/// Incremental edge-list builder producing a [`Graph`].
///
/// The builder silently drops self-loops and duplicate edges so that the
/// resulting graph is always simple — random generators such as the
/// Configuration Model naturally produce both and the paper explicitly works
/// with simple graphs.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Vertex, Vertex)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices the final graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are ignored.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
    }

    /// Adds every edge of an iterator.
    pub fn extend_edges<I: IntoIterator<Item = (Vertex, Vertex)>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
    }

    /// Finalises the builder into a CSR graph.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut degree = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut adjacency = vec![0 as Vertex; acc];
        let mut cursor = offsets.clone();
        for &(u, v) in &self.edges {
            adjacency[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each per-vertex slice receives its neighbours in increasing order of
        // the *other* endpoint only for the first endpoint; sort every slice to
        // restore the sorted-adjacency invariant.
        for v in 0..self.n {
            adjacency[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph {
            offsets,
            adjacency,
            num_edges: self.edges.len(),
        }
    }
}

/// Convenience constructor from an explicit edge list.
pub fn graph_from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    b.extend_edges(edges.iter().copied());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        for v in g.vertices() {
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn builder_dedups_and_drops_self_loops() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(2, 2);
        b.add_edge(1, 2);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(2, 2));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn adjacency_slices_are_sorted() {
        let g = graph_from_edges(6, &[(5, 0), (3, 0), (0, 1), (0, 4), (0, 2)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
        assert_eq!(g.degree(0), 5);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 5);
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.has_edge(u, v));
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn induced_subgraph_keeps_only_internal_edges() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let (h, map) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(map, vec![1, 2, 3]);
        assert_eq!(h.num_edges(), 3); // 1-2, 2-3, 1-3
        assert!(h.has_edge(0, 1));
        assert!(h.has_edge(1, 2));
        assert!(h.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2)]);
        let (h, map) = g.induced_subgraph(&[2, 1, 1, 2]);
        assert_eq!(h.num_vertices(), 2);
        assert_eq!(map, vec![1, 2]);
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let perm = vec![3, 2, 1, 0];
        let h = g.relabel(&perm);
        assert_eq!(h.num_edges(), 3);
        assert!(h.has_edge(3, 2));
        assert!(h.has_edge(2, 1));
        assert!(h.has_edge(1, 0));
        assert!(!h.has_edge(0, 3));
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 3);
    }

    #[test]
    fn average_degree_matches_handshake_lemma() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.num_edges());
    }
}
