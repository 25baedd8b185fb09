//! Connectivity: connected components, union–find, and connectivity checks of
//! vertex subsets (used to verify *connected* distance-r dominating sets,
//! Section 5 of the paper).

use crate::graph::{Graph, Vertex};

/// Array-based union–find (disjoint set union) with path compression and
/// union by size.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..crate::cast::u32_from_usize(n)).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of the set containing `x`.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Unites the sets containing `a` and `b`; returns true if they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets remaining.
    pub fn num_components(&self) -> usize {
        self.components
    }
}

/// Component id of each vertex (ids are `0..num_components`, assigned in order
/// of the smallest vertex of each component).
pub fn connected_components(graph: &Graph) -> (Vec<u32>, usize) {
    let n = graph.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for v in 0..crate::cast::u32_from_usize(n) {
        if comp[v as usize] != u32::MAX {
            continue;
        }
        comp[v as usize] = next;
        stack.push(v);
        while let Some(x) = stack.pop() {
            for &w in graph.neighbors(x) {
                if comp[w as usize] == u32::MAX {
                    comp[w as usize] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// Whether the whole graph is connected (the empty graph counts as connected).
pub fn is_connected(graph: &Graph) -> bool {
    let n = graph.num_vertices();
    if n <= 1 {
        return true;
    }
    let (_, k) = connected_components(graph);
    k == 1
}

/// Whether the subgraph induced by `set` is connected (an empty or singleton
/// set counts as connected). Duplicates in `set` are ignored.
pub fn is_induced_connected(graph: &Graph, set: &[Vertex]) -> bool {
    if set.len() <= 1 {
        return true;
    }
    let mut sorted: Vec<Vertex> = set.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() <= 1 {
        return true;
    }
    let mut in_set = vec![false; graph.num_vertices()];
    for &v in &sorted {
        in_set[v as usize] = true;
    }
    let mut visited = vec![false; graph.num_vertices()];
    let mut stack = vec![sorted[0]];
    visited[sorted[0] as usize] = true;
    let mut count = 1usize;
    while let Some(x) = stack.pop() {
        for &w in graph.neighbors(x) {
            if in_set[w as usize] && !visited[w as usize] {
                visited[w as usize] = true;
                count += 1;
                stack.push(w);
            }
        }
    }
    count == sorted.len()
}

/// Vertices of the largest connected component (sorted by id). Useful for
/// extracting a connected instance from random generators.
pub fn largest_component(graph: &Graph) -> Vec<Vertex> {
    let (comp, k) = connected_components(graph);
    if k == 0 {
        return Vec::new();
    }
    let mut sizes = vec![0usize; k];
    for &c in &comp {
        sizes[c as usize] += 1;
    }
    // Largest component, later ids winning ties (as `max_by_key` did before
    // this was rewritten cast- and unwrap-free).
    let mut best = 0u32;
    let mut best_size = 0usize;
    for (i, &s) in sizes.iter().enumerate() {
        if s >= best_size {
            best_size = s;
            best = crate::cast::u32_from_usize(i);
        }
    }
    (0..crate::cast::u32_from_usize(graph.num_vertices()))
        .filter(|&v| comp[v as usize] == best)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    #[test]
    fn union_find_basic() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.num_components(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn components_of_disjoint_paths() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[3], comp[5]);
    }

    #[test]
    fn connectivity_checks() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_connected(&g));
        let h = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!is_connected(&h));
        assert!(is_connected(&crate::graph::Graph::empty(0)));
        assert!(is_connected(&crate::graph::Graph::empty(1)));
    }

    #[test]
    fn induced_connectivity() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        assert!(is_induced_connected(&g, &[1, 2, 3]));
        assert!(!is_induced_connected(&g, &[1, 3]));
        assert!(is_induced_connected(&g, &[]));
        assert!(is_induced_connected(&g, &[4]));
        assert!(is_induced_connected(&g, &[2, 2, 3, 3]));
    }

    #[test]
    fn largest_component_extraction() {
        let g = graph_from_edges(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)]);
        let big = largest_component(&g);
        assert_eq!(big, vec![0, 1, 2]);
    }
}
