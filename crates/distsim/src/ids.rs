//! Identifier assignment schemes.
//!
//! The paper's model gives every vertex a unique `O(log n)`-bit identifier but
//! promises nothing about how identifiers relate to the graph structure.
//! Distributed algorithms must therefore work for *every* assignment; the
//! simulator lets experiments stress this by running the same algorithm under
//! natural, randomly shuffled and adversarially structured assignments.

use bedom_graph::{Graph, Vertex};
use bedom_rng::DetRng;

/// How network identifiers are assigned to graph vertices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdAssignment {
    /// `id(v) = v` — identifiers coincide with vertex indices.
    Natural,
    /// A uniformly random permutation of `0..n`, seeded.
    Shuffled(u64),
    /// Identifiers decrease along a BFS from vertex 0 (an adversarial-ish
    /// pattern: ids anti-correlate with the distance structure greedy
    /// tie-breaks tend to assume).
    ReverseBfs,
    /// Identifiers follow the *reverse* of a degeneracy order, putting large
    /// ids on low-degree fringe vertices.
    ReverseDegeneracy,
}

impl IdAssignment {
    /// Produces `ids[v] = network id of graph vertex v`. Ids are a permutation
    /// of `0..n` (kept dense so they fit in `⌈log₂ n⌉` bits, as the model
    /// requires).
    pub fn assign(&self, graph: &Graph) -> Vec<u64> {
        let n = graph.num_vertices();
        match *self {
            IdAssignment::Natural => (0..n as u64).collect(),
            IdAssignment::Shuffled(seed) => {
                let mut ids: Vec<u64> = (0..n as u64).collect();
                let mut rng = DetRng::seed_from_u64(seed);
                rng.shuffle(&mut ids);
                ids
            }
            IdAssignment::ReverseBfs => {
                let order = bfs_order(graph);
                let mut ids = vec![0u64; n];
                for (pos, &v) in order.iter().enumerate() {
                    ids[v as usize] = (n - 1 - pos) as u64;
                }
                ids
            }
            IdAssignment::ReverseDegeneracy => {
                let order = bedom_graph::degeneracy::degeneracy_order(graph);
                let mut ids = vec![0u64; n];
                for (pos, &v) in order.iter().enumerate() {
                    ids[v as usize] = (n - 1 - pos) as u64;
                }
                ids
            }
        }
    }
}

/// Vertices in BFS order: a BFS from vertex 0, then one from the lowest
/// unreached vertex of each later component. Also the storage order of
/// [`crate::network::Network`].
pub(crate) fn bfs_order(graph: &Graph) -> Vec<Vertex> {
    let n = graph.num_vertices();
    let mut visited = vec![false; n];
    // The output doubles as the FIFO queue: `order[head..]` is the frontier.
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    for start in 0..n as Vertex {
        if visited[start as usize] {
            continue;
        }
        visited[start as usize] = true;
        order.push(start);
        while let Some(&v) = order.get(head) {
            head += 1;
            for &w in graph.neighbors(v) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    order.push(w);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_graph::generators::{grid, path};

    fn is_permutation(ids: &[u64], n: usize) -> bool {
        let mut seen = vec![false; n];
        for &id in ids {
            if id as usize >= n || seen[id as usize] {
                return false;
            }
            seen[id as usize] = true;
        }
        ids.len() == n
    }

    #[test]
    fn all_assignments_are_permutations() {
        let g = grid(6, 7);
        for scheme in [
            IdAssignment::Natural,
            IdAssignment::Shuffled(3),
            IdAssignment::ReverseBfs,
            IdAssignment::ReverseDegeneracy,
        ] {
            let ids = scheme.assign(&g);
            assert!(is_permutation(&ids, g.num_vertices()), "{scheme:?}");
        }
    }

    #[test]
    fn natural_is_identity_and_shuffle_is_seeded() {
        let g = path(20);
        assert_eq!(
            IdAssignment::Natural.assign(&g),
            (0..20u64).collect::<Vec<_>>()
        );
        assert_eq!(
            IdAssignment::Shuffled(9).assign(&g),
            IdAssignment::Shuffled(9).assign(&g)
        );
        assert_ne!(
            IdAssignment::Shuffled(9).assign(&g),
            IdAssignment::Shuffled(10).assign(&g)
        );
    }

    #[test]
    fn reverse_bfs_gives_source_the_largest_id() {
        let g = path(10);
        let ids = IdAssignment::ReverseBfs.assign(&g);
        assert_eq!(ids[0], 9);
        assert_eq!(ids[9], 0);
    }
}
