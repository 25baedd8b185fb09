//! Connecting a distance-`r` dominating set in the LOCAL model —
//! Lemmas 14–16 and Theorem 17 of the paper.
//!
//! Given *any* distance-`r` dominating set `D` of a connected graph `G`, the
//! LOCAL algorithm of Lemma 16 turns it into a connected distance-`r`
//! dominating set `D'` with `|D'| ≤ 2r·d·|D|` in `3r + 1` rounds, where `d`
//! bounds the edge density of depth-`r` minors of the class (`d = 3` for
//! planar graphs, giving the paper's factor `2r·d = 6` for `r = 1`).
//!
//! The construction:
//!
//! 1. every vertex `w` determines its owner `v ∈ D`: the dominator whose
//!    lexicographically-shortest path `P(v, w)` is smallest (Lemma 14's
//!    `D`-partition `B(v)`, using identifiers for tie-breaking);
//! 2. contracting the parts `B(v)` yields a connected depth-`r` minor `H(D)`
//!    (Lemma 15), which — on a bounded expansion class — has at most `d·|D|`
//!    edges;
//! 3. for every edge `{u, v}` of `H(D)`, both endpoints compute the same
//!    lexicographically-shortest path of length ≤ 2r + 1 between them in `G`
//!    and all its vertices join `D'`.
//!
//! The per-vertex decision depends only on the radius-`(2r+1)` view, so the
//! whole computation is executed with the ball-based LOCAL evaluator of
//! `bedom-distsim` (equivalent to the message-passing protocol with unbounded
//! messages); the paper's round count `3r + 1` = `2r + 1` rounds of
//! information gathering plus `r` reporting rounds.

use bedom_distsim::{run_local, LocalView};
use bedom_graph::{Graph, Vertex};
use std::collections::VecDeque;

/// Result of the LOCAL connector.
#[derive(Clone, Debug)]
pub struct LocalConnectResult {
    /// The input dominating set `D`.
    pub dominating_set: Vec<Vertex>,
    /// The connected dominating set `D' ⊇ D`.
    pub connected_dominating_set: Vec<Vertex>,
    /// The owner (dominator) of every vertex under the `D`-partition.
    pub owner_of: Vec<Vertex>,
    /// Blow-up factor `|D'| / |D|` (1.0 if `D` is empty).
    pub blowup: f64,
    /// Number of LOCAL rounds the protocol corresponds to (`3r + 1`).
    pub rounds: usize,
}

/// Lexicographically-shortest path from `u` to `w` inside `view`, considering
/// only paths of length at most `max_len`. Paths are compared first by
/// length, then lexicographically by the identifier sequence from `u` to `w`
/// (the paper's `≤_lex`). Returns `None` if `w` is farther than `max_len`
/// from `u` inside the view.
fn lex_shortest_path(
    view: &LocalView<'_>,
    u: Vertex,
    w: Vertex,
    max_len: u32,
) -> Option<Vec<Vertex>> {
    if u == w {
        return Some(vec![u]);
    }
    // BFS distances from w restricted to the view, so we can walk greedily
    // from u towards w always decreasing the distance and picking the
    // smallest-id next hop — which yields the lexicographically least
    // shortest path. The map is lookup-only (never iterated), but a BTreeMap
    // keeps the whole protocol crate free of randomised hash state.
    let mut dist: std::collections::BTreeMap<Vertex, u32> = std::collections::BTreeMap::new();
    dist.insert(w, 0);
    let mut queue = VecDeque::new();
    queue.push_back(w);
    while let Some(x) = queue.pop_front() {
        let d = dist[&x];
        if d >= max_len {
            continue;
        }
        for y in view.neighbors_in_view(x) {
            if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(y) {
                e.insert(d + 1);
                queue.push_back(y);
            }
        }
    }
    let total = *dist.get(&u)?;
    if total > max_len {
        return None;
    }
    let mut path = vec![u];
    let mut current = u;
    let mut remaining = total;
    while current != w {
        // Among neighbours one step closer to w, pick the smallest id.
        let next = view
            .neighbors_in_view(current)
            .into_iter()
            .filter(|y| dist.get(y).is_some_and(|&d| d + 1 == remaining))
            .min_by_key(|&y| view.id_of(y))
            .expect("distance decreases along some neighbour");
        path.push(next);
        current = next;
        remaining -= 1;
    }
    Some(path)
}

/// The owner of `w` in the `D`-partition: the dominator `v` (at distance
/// ≤ r in the view) whose `P(v, w)` is `≤_lex`-smallest. All candidate
/// dominators and paths lie within distance `r` of `w`, hence inside any
/// view of radius ≥ 2r + 1 centred within distance r + 1 of `w`.
fn owner_in_view(view: &LocalView<'_>, in_d: &[bool], w: Vertex, r: u32) -> Option<Vertex> {
    let mut best: Option<(u32, Vec<u64>, Vertex)> = None;
    for candidate in &view.ball {
        let candidate = *candidate;
        if !in_d[candidate as usize] {
            continue;
        }
        if let Some(path) = lex_shortest_path(view, candidate, w, r) {
            let key: Vec<u64> = path.iter().map(|&x| view.id_of(x)).collect();
            // Paths inside a view have ≤ r + 1 vertices (BFS bound); convert
            // checked so a broken view explodes instead of wrapping.
            let len = u32::try_from(path.len())
                .expect("view path length exceeds u32 — violates the radius-r BFS bound");
            let better = match &best {
                None => true,
                Some((blen, bkey, _)) => len < *blen || (len == *blen && key < *bkey),
            };
            if better {
                best = Some((len, key, candidate));
            }
        }
    }
    best.map(|(_, _, v)| v)
}

/// Runs the LOCAL connector of Lemma 16 / Theorem 17 on a connected graph.
///
/// `ids[v]` are the unique identifiers the lexicographic tie-breaking uses;
/// `dominating_set` must be a distance-`r` dominating set of `graph`.
pub fn local_connect(
    graph: &Graph,
    ids: &[u64],
    dominating_set: &[Vertex],
    r: u32,
) -> LocalConnectResult {
    let n = graph.num_vertices();
    let mut in_d = vec![false; n];
    for &v in dominating_set {
        in_d[v as usize] = true;
    }
    // The view radius and the path bound below only bound searches, and no
    // distance exceeds n − 1 ≤ u32::MAX, so saturating at u32::MAX finds
    // exactly what 2r + 1 would.
    let view_radius = r.saturating_mul(2).saturating_add(1);

    // Step 1 (per vertex): determine the owner of every vertex. Evaluated at
    // radius r + 1 … but ownership needs paths from dominators within r, all
    // inside the radius-(2r+1) view, so one evaluation pass suffices.
    let owner_of: Vec<Vertex> = run_local(graph, ids, view_radius, |view| {
        owner_in_view(view, &in_d, view.center, r).unwrap_or(view.center)
    });

    // Step 2 + 3 (per dominator): find the H(D)-neighbours and, for each, the
    // common lexicographically-shortest connecting path; emit its vertices.
    let contributions: Vec<Vec<Vertex>> = run_local(graph, ids, view_radius, |view| {
        let v = view.center;
        if !in_d[v as usize] {
            return Vec::new();
        }
        // Recompute ownership inside the view for every vertex whose owner we
        // might need (everything within distance r + 1 of v): this is exactly
        // the locally available information, no global state is consulted.
        let mut additions: Vec<Vertex> = Vec::new();
        let mut handled: std::collections::BTreeSet<Vertex> = std::collections::BTreeSet::new();
        for &w in &view.ball {
            if view.distance_to(w).unwrap_or(u32::MAX) > r {
                continue;
            }
            if owner_in_view(view, &in_d, w, r) != Some(v) {
                continue;
            }
            // w ∈ B(v). Examine its neighbours owned by other dominators.
            for x in view.neighbors_in_view(w) {
                let owner_x = match owner_in_view(view, &in_d, x, r) {
                    Some(o) => o,
                    None => continue,
                };
                if owner_x == v || handled.contains(&owner_x) {
                    continue;
                }
                handled.insert(owner_x);
                // {v, owner_x} is an edge of H(D): add the common
                // lexicographically-shortest path of length ≤ 2r + 1.
                if let Some(path) =
                    lex_shortest_path(view, v.min(owner_x), v.max(owner_x), view_radius)
                {
                    additions.extend(path);
                }
            }
        }
        additions.sort_unstable();
        additions.dedup();
        additions
    });

    let mut in_dprime = in_d.clone();
    for contribution in &contributions {
        for &x in contribution {
            in_dprime[x as usize] = true;
        }
    }
    let connected_dominating_set: Vec<Vertex> = graph
        .vertices()
        .filter(|&v| in_dprime[v as usize])
        .collect();
    let blowup = if dominating_set.is_empty() {
        1.0
    } else {
        connected_dominating_set.len() as f64 / dominating_set.len() as f64
    };
    LocalConnectResult {
        dominating_set: dominating_set.to_vec(),
        connected_dominating_set,
        owner_of,
        blowup,
        rounds: 3 * r as usize + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_distsim::IdAssignment;
    use bedom_graph::components::is_induced_connected;
    use bedom_graph::domset::{greedy_distance_dominating_set, is_distance_dominating_set};
    use bedom_graph::generators::{
        cycle, grid, maximal_outerplanar, path, random_tree, stacked_triangulation,
        triangulated_grid,
    };

    fn check(graph: &Graph, r: u32, density_bound: f64) -> LocalConnectResult {
        let ids = IdAssignment::Shuffled(17).assign(graph);
        let d = greedy_distance_dominating_set(graph, r);
        let result = local_connect(graph, &ids, &d, r);
        assert!(is_distance_dominating_set(
            graph,
            &result.connected_dominating_set,
            r
        ));
        assert!(
            is_induced_connected(graph, &result.connected_dominating_set),
            "D' not connected (n = {}, r = {r})",
            graph.num_vertices()
        );
        for v in &d {
            assert!(result.connected_dominating_set.contains(v));
        }
        // Lemma 16 size bound: |D'| ≤ |D| + 2r·d·|D| where d bounds the edge
        // density of depth-r minors; we check against the caller-provided
        // class bound plus the original set.
        let bound = d.len() as f64 * (1.0 + 2.0 * r as f64 * density_bound);
        assert!(
            (result.connected_dominating_set.len() as f64) <= bound + 1.0,
            "|D'| = {} exceeds bound {bound} (|D| = {})",
            result.connected_dominating_set.len(),
            d.len()
        );
        assert_eq!(result.rounds, (3 * r + 1) as usize);
        result
    }

    #[test]
    fn radii_whose_double_overflows_saturate_to_the_exact_answer() {
        // No distance on 12 vertices exceeds 11, so every radius from 12 on
        // connects the same way; only the reported round count grows.
        let g = cycle(12);
        let ids = IdAssignment::Shuffled(17).assign(&g);
        let expected = local_connect(&g, &ids, &[0, 6], 12);
        for r in [1 << 31, u32::MAX] {
            let result = local_connect(&g, &ids, &[0, 6], r);
            assert_eq!(
                result.connected_dominating_set, expected.connected_dominating_set,
                "r = {r}"
            );
            assert_eq!(result.owner_of, expected.owner_of, "r = {r}");
            assert_eq!(result.rounds, 3 * r as usize + 1);
        }
    }

    #[test]
    fn connects_on_paths_cycles_and_trees() {
        for r in 1..=2u32 {
            check(&path(30), r, 1.0);
            check(&cycle(24), r, 2.0);
            check(&random_tree(60, 3), r, 1.0);
        }
    }

    #[test]
    fn connects_on_planar_families_within_factor_six() {
        // Planar graphs have depth-r minor density < 3 for every r, so the
        // paper's factor for r = 1 is 2·1·3 = 6.
        for g in [
            grid(8, 8),
            triangulated_grid(7, 9),
            stacked_triangulation(120, 5),
            maximal_outerplanar(80),
        ] {
            let result = check(&g, 1, 3.0);
            assert!(result.blowup <= 7.0, "blow-up {} too large", result.blowup);
        }
    }

    #[test]
    fn connects_for_larger_radii_on_planar_graphs() {
        check(&grid(10, 10), 2, 3.0);
        check(&stacked_triangulation(150, 2), 2, 3.0);
    }

    #[test]
    fn owner_partition_is_a_dominator_within_distance_r() {
        let g = grid(7, 7);
        let ids = IdAssignment::Natural.assign(&g);
        let r = 2;
        let d = greedy_distance_dominating_set(&g, r);
        let result = local_connect(&g, &ids, &d, r);
        for w in g.vertices() {
            let owner = result.owner_of[w as usize];
            assert!(d.contains(&owner), "owner of {w} not in D");
            let dist = bedom_graph::bfs::distance(&g, w, owner).unwrap();
            assert!(dist <= r);
        }
    }

    #[test]
    fn owners_agree_between_overlapping_views() {
        // Lemma 14 needs the partition to be globally consistent even though
        // each vertex computes it locally: recomputing the owner of w from any
        // dominator's view must give the same answer as w's own view.
        let g = stacked_triangulation(60, 11);
        let ids = IdAssignment::Shuffled(3).assign(&g);
        let r = 1;
        let d = greedy_distance_dominating_set(&g, r);
        let mut in_d = vec![false; g.num_vertices()];
        for &v in &d {
            in_d[v as usize] = true;
        }
        let result = local_connect(&g, &ids, &d, r);
        for &v in &d {
            let view = bedom_distsim::build_view(&g, &ids, v, 2 * r + 1);
            for &w in &view.ball {
                if view.distance_to(w).unwrap() <= r {
                    let local_owner = owner_in_view(&view, &in_d, w, r).unwrap();
                    assert_eq!(local_owner, result.owner_of[w as usize], "w = {w}");
                }
            }
        }
    }

    #[test]
    fn already_connected_dominating_set_gains_little() {
        // If D is already connected, the connector may still add the paths
        // between adjacent owners, but the result stays within the bound and
        // remains connected.
        let g = path(20);
        let ids = IdAssignment::Natural.assign(&g);
        let d: Vec<Vertex> = (0..20).collect();
        let result = local_connect(&g, &ids, &d, 1);
        assert_eq!(result.connected_dominating_set, d);
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::empty(1);
        let ids = vec![0u64];
        let result = local_connect(&g, &ids, &[0], 1);
        assert_eq!(result.connected_dominating_set, vec![0]);
        assert_eq!(result.blowup, 1.0);
    }
}
