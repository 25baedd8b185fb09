//! Word-parallel closed-neighbourhood rows: `u64`-packed multi-source BFS.
//!
//! The scalar traversals in [`bfs`](crate::bfs) advance one source at a time.
//! This module packs up to 64 sources into the bits of one `u64` *lane word*
//! per vertex and advances all of them across an edge with a handful of word
//! ops — the saturation-style set-valued iteration of symbolic reachability
//! engines, specialised to unweighted, unrestricted BFS:
//!
//! * a private frontier kernel keeps `[cur, next, reached]` lane words per
//!   vertex; one round performs `next[w] |= cur[x] & ~(next[w] | reached[w])`
//!   for every edge `(x, w)` incident to the frontier, so 64 sources cross an
//!   edge per word op;
//! * [`ReachMatrix`] / [`reach_words64`] — closed-`r`-neighbourhood rows
//!   `N_r[v]` built through the kernel in 64-source batches; the coverage
//!   test of a candidate dominating set becomes `O(k·n/64)` word ORs against
//!   these rows, which is what lets the exact bitmask oracle and the
//!   brute-force validator ride the same machinery.
//!
//! Packing pays here because unrestricted balls are dense: most lanes of a
//! batch share most row vertices. The order-restricted balls of the paper's
//! Algorithm 3 are not (a good order keeps each within `wcol` vertices), so
//! `bedom-wcol` builds its index with the per-source scalar sweep instead.

use crate::graph::{Graph, Vertex};

/// Bits per lane word.
const WORD_BITS: usize = 64;

/// Offsets of the three lane words each vertex holds in [`FrontierSweep`].
const CUR: usize = 0;
const NEXT: usize = 1;
const REACHED: usize = 2;

/// The word-parallel frontier kernel: up to 64 unrestricted BFS sources
/// advanced together, one bit lane per source. The three lane words of a
/// vertex sit side by side, so an edge touch costs a single random memory
/// access; one sweep is reused for every batch of a build.
#[derive(Debug)]
struct FrontierSweep {
    words: Vec<[u64; 3]>,
    frontier: Vec<Vertex>,
    next_frontier: Vec<Vertex>,
}

impl FrontierSweep {
    fn new(n: usize) -> Self {
        FrontierSweep {
            words: vec![[0; 3]; n],
            frontier: Vec::new(),
            next_frontier: Vec::new(),
        }
    }

    /// Runs the BFSes of the distinct `sources` (lane `i` starts at
    /// `sources[i]`) to depth `r`, then calls `emit(v, lanes)` for every
    /// vertex in id order — bit `i` of `lanes` is set iff
    /// `dist(sources[i], v) ≤ r` — and leaves the sweep zeroed for the next
    /// batch.
    fn run(&mut self, graph: &Graph, sources: &[Vertex], r: u32, mut emit: impl FnMut(usize, u64)) {
        debug_assert!(sources.len() <= WORD_BITS, "a sweep holds 64 lanes");
        self.frontier.clear();
        for (lane, &u) in sources.iter().enumerate() {
            debug_assert_eq!(self.words[u as usize][REACHED], 0, "duplicate source {u}");
            let bit = 1u64 << lane;
            self.words[u as usize] = [bit, 0, bit];
            self.frontier.push(u);
        }
        for _ in 0..r {
            if self.frontier.is_empty() {
                break;
            }
            for &x in &self.frontier {
                let cur = self.words[x as usize][CUR];
                for &y in graph.neighbors(x) {
                    let w = &mut self.words[y as usize];
                    let add = cur & !(w[NEXT] | w[REACHED]);
                    if add != 0 {
                        if w[NEXT] == 0 {
                            self.next_frontier.push(y);
                        }
                        w[NEXT] |= add;
                    }
                }
            }
            // Retire the old frontier, then promote `next` to `cur` and merge
            // it into `reached` (a vertex may sit on both frontiers).
            for &x in &self.frontier {
                self.words[x as usize][CUR] = 0;
            }
            for &y in &self.next_frontier {
                let w = &mut self.words[y as usize];
                *w = [w[NEXT], 0, w[REACHED] | w[NEXT]];
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
            self.next_frontier.clear();
        }
        for (v, w) in self.words.iter_mut().enumerate() {
            emit(v, w[REACHED]);
            *w = [0; 3];
        }
    }
}

/// Closed-`r`-neighbourhood rows for graphs with `n ≤ 64`: `row[v]` has bit
/// `u` set iff `dist(u, v) ≤ r`. By distance symmetry the same word read as
/// "vertices covered by `v`" *is* `N_r[v]` — one `u64` per vertex, the
/// one-word rows of a [`ReachMatrix`]. This is the substrate of the exact
/// bitmask domination oracle: the coverage of a candidate set is the OR of
/// its members' rows.
pub fn reach_words64(graph: &Graph, r: u32) -> Vec<u64> {
    let n = graph.num_vertices();
    assert!(n <= WORD_BITS, "reach_words64 needs n ≤ 64, got {n}");
    ReachMatrix::build(graph, r).words
}

/// Closed-`r`-neighbourhood rows for arbitrary `n`: `row(v)` bit `u` iff
/// `dist(u, v) ≤ r` (a symmetric relation, so the row is also the bitset form
/// of `N_r[v]`). Built in 64-source kernel batches; memory is `n²/8` bytes,
/// so this is for validator-sized graphs, not the 100k instances.
#[derive(Clone, Debug)]
pub struct ReachMatrix {
    r: u32,
    n: usize,
    /// Words per row, `⌈n/64⌉`.
    stride: usize,
    /// Row `v` is `words[v·stride..(v+1)·stride]`, little-endian bit order.
    words: Vec<u64>,
}

impl ReachMatrix {
    /// Builds the distance-`r` reachability rows through the frontier kernel:
    /// batch `b` seeds sources `64b..64b+64` and fills word `b` of every row.
    pub fn build(graph: &Graph, r: u32) -> Self {
        let n = graph.num_vertices();
        let stride = n.div_ceil(WORD_BITS);
        let mut words = vec![0u64; n * stride];
        let mut sweep = FrontierSweep::new(n);
        let mut batch: Vec<Vertex> = Vec::with_capacity(WORD_BITS);
        for (b, start) in (0..n).step_by(WORD_BITS).enumerate() {
            let end = (start + WORD_BITS).min(n);
            batch.clear();
            batch.extend(start as Vertex..end as Vertex);
            sweep.run(graph, &batch, r, |v, lanes| words[v * stride + b] = lanes);
        }
        ReachMatrix {
            r,
            n,
            stride,
            words,
        }
    }

    /// The radius the rows were built at.
    #[inline]
    pub fn radius(&self) -> u32 {
        self.r
    }

    /// `N_r[v]` as row words.
    #[inline]
    pub fn row(&self, v: Vertex) -> &[u64] {
        let start = v as usize * self.stride;
        &self.words[start..start + self.stride]
    }

    /// Whether `set` distance-`r` dominates the graph: `O(|set|·n/64)` word
    /// ORs of the members' rows against the all-ones row. The empty set
    /// dominates only the empty graph.
    pub fn covers(&self, set: &[Vertex]) -> bool {
        self.uncovered_words(set)
            .into_iter()
            .all(|missing| missing == 0)
    }

    /// The vertices *not* distance-`r` dominated by `set`, ascending.
    pub fn uncovered(&self, set: &[Vertex]) -> Vec<Vertex> {
        let mut out = Vec::new();
        for (j, mut missing) in self.uncovered_words(set).into_iter().enumerate() {
            while missing != 0 {
                let b = missing.trailing_zeros() as usize;
                out.push((j * WORD_BITS + b) as Vertex);
                missing &= missing - 1;
            }
        }
        out
    }

    /// One word per column group: bits of vertices left uncovered by `set`.
    fn uncovered_words(&self, set: &[Vertex]) -> Vec<u64> {
        let mut acc = vec![0u64; self.stride];
        for &u in set {
            for (a, &b) in acc.iter_mut().zip(self.row(u)) {
                *a |= b;
            }
        }
        // Complement within the valid column range.
        for (j, word) in acc.iter_mut().enumerate() {
            let valid = self.n - j * WORD_BITS;
            let full = if valid >= WORD_BITS {
                !0u64
            } else {
                (1u64 << valid) - 1
            };
            *word = !*word & full;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::all_pairs_distances;
    use crate::domset::is_distance_dominating_set;
    use crate::generators::{cycle, gnp, grid, path, stacked_triangulation, star};
    use crate::graph::graph_from_edges;

    /// Rows must reproduce scalar BFS distances exactly — across several
    /// 64-source batches (n > 64, multi-word rows) that reuse one sweep.
    #[test]
    fn reach_matrix_rows_match_all_pairs_distances() {
        for g in [
            path(9),
            cycle(17),
            star(12),
            grid(7, 11),
            stacked_triangulation(150, 4),
            gnp(70, 0.07, 11),
            graph_from_edges(5, &[]),
        ] {
            let d = all_pairs_distances(&g);
            for r in [0u32, 1, 2, 5, 8] {
                let rows = ReachMatrix::build(&g, r);
                for v in 0..g.num_vertices() {
                    let row = rows.row(v as Vertex);
                    for (u, du) in d.iter().enumerate() {
                        let bit = (row[u / WORD_BITS] >> (u % WORD_BITS)) & 1 == 1;
                        assert_eq!(bit, du[v] <= r, "r={r}, u={u}, v={v}");
                    }
                }
            }
        }
    }

    #[test]
    fn reach_words64_matches_all_pairs_distances() {
        for g in [path(7), cycle(12), grid(4, 5), stacked_triangulation(26, 3)] {
            let d = all_pairs_distances(&g);
            for r in [0u32, 1, 2, 4] {
                let rows = reach_words64(&g, r);
                for v in 0..g.num_vertices() {
                    for (u, du) in d.iter().enumerate() {
                        assert_eq!((rows[v] >> u) & 1 == 1, du[v] <= r, "r={r}, u={u}, v={v}");
                    }
                }
            }
        }
    }

    #[test]
    fn reach_matrix_coverage_agrees_with_the_scalar_validator() {
        for g in [
            path(10),
            grid(9, 9), // n = 81 > 64: exercises multi-word rows
            graph_from_edges(7, &[(0, 1), (2, 3), (3, 4)]),
            Graph::empty(0),
            Graph::empty(3),
        ] {
            for r in [1u32, 2] {
                let rows = ReachMatrix::build(&g, r);
                assert_eq!(rows.radius(), r);
                let n = g.num_vertices() as Vertex;
                let candidates: Vec<Vec<Vertex>> = vec![
                    vec![],
                    (0..n).collect(),
                    (0..n).step_by(3).collect(),
                    (0..n).filter(|v| v % 5 == 1).collect(),
                ];
                for set in candidates {
                    assert_eq!(
                        rows.covers(&set),
                        is_distance_dominating_set(&g, &set, r) && !(set.is_empty() && n > 0),
                        "r={r}, set={set:?}"
                    );
                    let unc = rows.uncovered(&set);
                    assert!(unc.windows(2).all(|w| w[0] < w[1]));
                    for v in 0..n {
                        let dominated = set
                            .iter()
                            .any(|&u| (rows.row(v)[u as usize / 64] >> (u % 64)) & 1 == 1);
                        assert_eq!(unc.contains(&v), !dominated, "r={r}, v={v}");
                    }
                }
            }
        }
    }
}
