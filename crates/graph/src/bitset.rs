//! Word-parallel closed-neighbourhood rows: a `u64`-packed multi-source BFS.
//!
//! The scalar traversals in [`bfs`](crate::bfs) advance one source at a time.
//! [`reach_words64`] packs all sources of a graph with `n ≤ 64` into the bits
//! of one `u64` *lane word* per vertex and advances all of them across an
//! edge with a handful of word ops — the saturation-style set-valued
//! iteration of symbolic reachability engines, specialised to unweighted,
//! unrestricted BFS. Its private frontier kernel keeps `[cur, next, reached]`
//! lane words per vertex; one round performs
//! `next[w] |= cur[x] & ~(next[w] | reached[w])` for every edge `(x, w)`
//! incident to the frontier, so 64 sources cross an edge per word op.
//!
//! The rows are the closed `r`-neighbourhoods `N_r[v]`, and the exact bitmask
//! oracle ([`bitmask_minimum_domination_number`]) tests the coverage of a
//! candidate set as the OR of its members' rows. The brute-force validator
//! ([`is_distance_dominating_set`]) does not use them: it runs one scalar
//! depth-`r` BFS, so the conformance harness's two oracles share no kernel.
//!
//! Packing pays here because unrestricted balls are dense: most lanes share
//! most row vertices. The order-restricted balls of the paper's Algorithm 3
//! are not (a good order keeps each within `wcol` vertices), so `bedom-wcol`
//! builds its index with the per-source scalar sweep instead.
//!
//! [`bitmask_minimum_domination_number`]: crate::domset::bitmask_minimum_domination_number
//! [`is_distance_dominating_set`]: crate::domset::is_distance_dominating_set

use crate::graph::{Graph, Vertex};

/// Bits per lane word.
const WORD_BITS: usize = 64;

/// Offsets of the three lane words each vertex holds in the kernel, side by
/// side, so an edge touch costs a single random memory access.
const CUR: usize = 0;
const NEXT: usize = 1;
const REACHED: usize = 2;

/// Closed-`r`-neighbourhood rows for graphs with `n ≤ 64`: `row[v]` has bit
/// `u` set iff `dist(u, v) ≤ r`. By distance symmetry the same word read as
/// "vertices covered by `v`" *is* `N_r[v]` — one `u64` per vertex. This is
/// the substrate of the exact bitmask domination oracle: the coverage of a
/// candidate set is the OR of its members' rows.
///
/// One run of the frontier kernel builds every row: lane `u` is the BFS from
/// vertex `u`, advanced `r` rounds.
pub fn reach_words64(graph: &Graph, r: u32) -> Vec<u64> {
    let n = graph.num_vertices();
    assert!(n <= WORD_BITS, "reach_words64 needs n ≤ 64, got {n}");
    let mut words: Vec<[u64; 3]> = (0..n).map(|u| [1 << u, 0, 1 << u]).collect();
    let mut frontier: Vec<Vertex> = graph.vertices().collect();
    let mut next_frontier: Vec<Vertex> = Vec::new();
    for _ in 0..r {
        if frontier.is_empty() {
            break;
        }
        for &x in &frontier {
            let cur = words[x as usize][CUR];
            for &y in graph.neighbors(x) {
                let w = &mut words[y as usize];
                let add = cur & !(w[NEXT] | w[REACHED]);
                if add != 0 {
                    if w[NEXT] == 0 {
                        next_frontier.push(y);
                    }
                    w[NEXT] |= add;
                }
            }
        }
        // Retire the old frontier, then promote `next` to `cur` and merge it
        // into `reached` (a vertex may sit on both frontiers).
        for &x in &frontier {
            words[x as usize][CUR] = 0;
        }
        for &y in &next_frontier {
            let w = &mut words[y as usize];
            *w = [w[NEXT], 0, w[REACHED] | w[NEXT]];
        }
        std::mem::swap(&mut frontier, &mut next_frontier);
        next_frontier.clear();
    }
    words.iter().map(|w| w[REACHED]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::all_pairs_distances;
    use crate::generators::{cycle, grid, path, stacked_triangulation};

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
}
