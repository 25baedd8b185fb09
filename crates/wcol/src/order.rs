//! Linear orders on vertex sets.
//!
//! All of the paper's algorithms are parameterised by a linear order `L` of
//! `V(G)` witnessing a bound on the weak colouring number (Section 2,
//! "Generalized colouring numbers"). [`LinearOrder`] stores the order both as
//! a position array (`rank`) and as the sorted vertex list, so comparisons are
//! `O(1)` and iteration along `L` is `O(n)` — the representation Theorem 5's
//! linear-time claim assumes.

use bedom_graph::Vertex;

/// A linear order of the vertices `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinearOrder {
    /// `rank[v]` = position of vertex `v` in the order (0 = smallest).
    rank: Vec<u32>,
    /// `order[i]` = vertex at position `i`.
    order: Vec<Vertex>,
}

impl LinearOrder {
    /// Builds the order in which `order[i]` is the `i`-th smallest vertex.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_order(order: Vec<Vertex>) -> Self {
        let n = order.len();
        let mut rank = vec![u32::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            assert!(
                (v as usize) < n && rank[v as usize] == u32::MAX,
                "order is not a permutation: vertex {v}"
            );
            rank[v as usize] = i as u32;
        }
        LinearOrder { rank, order }
    }

    /// The identity order (vertex id = position).
    pub fn identity(n: usize) -> Self {
        LinearOrder {
            rank: (0..n as u32).collect(),
            order: (0..n as Vertex).collect(),
        }
    }

    /// Builds an order from arbitrary per-vertex sort keys (ties broken by
    /// vertex id); smaller key = smaller position.
    pub fn from_keys<K: Ord>(keys: &[K]) -> Self {
        let mut order: Vec<Vertex> = (0..keys.len() as Vertex).collect();
        order.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]).then(a.cmp(&b)));
        LinearOrder::from_order(order)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Position of `v` (0 = smallest).
    #[inline]
    pub fn rank(&self, v: Vertex) -> u32 {
        self.rank[v as usize]
    }

    /// Vertex at position `i`.
    #[inline]
    pub fn vertex_at(&self, i: usize) -> Vertex {
        self.order[i]
    }

    /// Whether `u <_L v`.
    #[inline]
    pub fn less(&self, u: Vertex, v: Vertex) -> bool {
        self.rank[u as usize] < self.rank[v as usize]
    }

    /// Whether `u ≤_L v`.
    #[inline]
    pub fn less_eq(&self, u: Vertex, v: Vertex) -> bool {
        self.rank[u as usize] <= self.rank[v as usize]
    }

    /// The `L`-minimum of a non-empty set.
    pub fn min_of<'a, I: IntoIterator<Item = &'a Vertex>>(&self, set: I) -> Option<Vertex> {
        set.into_iter()
            .copied()
            .min_by_key(|&v| self.rank[v as usize])
    }

    /// Iterates vertices from smallest to largest.
    pub fn iter(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.order.iter().copied()
    }

    /// The underlying position-to-vertex list.
    pub fn as_slice(&self) -> &[Vertex] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_order_ranks_and_compares() {
        let a = LinearOrder::from_order(vec![2, 0, 3, 1]);
        assert_eq!(a.rank(2), 0);
        assert_eq!(a.vertex_at(0), 2);
        assert!(a.less(2, 0));
        assert!(a.less_eq(0, 0));
        assert!(!a.less(1, 3));
    }

    #[test]
    fn identity_order() {
        let l = LinearOrder::identity(5);
        assert_eq!(l.len(), 5);
        for v in 0..5u32 {
            assert_eq!(l.rank(v), v);
        }
    }

    #[test]
    fn from_keys_breaks_ties_by_id() {
        let keys = vec![5u32, 1, 5, 1];
        let l = LinearOrder::from_keys(&keys);
        assert_eq!(l.as_slice(), &[1, 3, 0, 2]);
    }

    #[test]
    fn min_of_set() {
        let l = LinearOrder::from_order(vec![3, 1, 2, 0]);
        assert_eq!(l.min_of(&[0, 1, 2]), Some(1));
        assert_eq!(l.min_of(&[0]), Some(0));
        assert_eq!(l.min_of(&[]), None);
    }

    #[test]
    #[should_panic]
    fn non_permutation_rejected() {
        LinearOrder::from_order(vec![0, 0, 1]);
    }

    #[test]
    fn empty_order() {
        let l = LinearOrder::identity(0);
        assert!(l.is_empty());
        assert_eq!(l.iter().count(), 0);
    }
}
