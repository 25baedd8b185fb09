//! Sparse neighbourhood covers as a routing/clustering substrate
//! (Theorem 4 / Theorem 8).
//!
//! Sparse covers underlie compact routing tables, mobile user tracking and
//! synchronisers (the applications cited in the paper's introduction). This
//! example computes the cover of Theorem 8 distributedly on a Chung–Lu
//! "complex network" instance, verifies its quality (every r-ball is inside
//! some cluster, cluster radius ≤ 2r, bounded membership per vertex), and
//! uses it for a toy clustered-routing task: route between random vertex
//! pairs through the home cluster of the source.
//!
//! Run with:
//! ```text
//! cargo run --release --example cover_routing
//! ```

use bedom::core::{distributed_neighborhood_cover, DistDomSetConfig};
use bedom::graph::bfs::distance;
use bedom::graph::components::largest_component;
use bedom::graph::generators::chung_lu_power_law;
use bedom_rng::DetRng;

fn main() {
    let raw = chung_lu_power_law(8_000, 2.5, 2.0, 16.0, 5);
    let (graph, _) = raw.induced_subgraph(&largest_component(&raw));
    let r = 2;
    println!(
        "instance: Chung–Lu power-law network (largest component), n = {}, m = {}",
        graph.num_vertices(),
        graph.num_edges()
    );

    let cover = distributed_neighborhood_cover(&graph, DistDomSetConfig::new(r))
        .expect("protocol respects the model");
    let as_cover = cover.to_neighborhood_cover(&graph);
    println!(
        "distributed {r}-neighbourhood cover: rounds = {} (order {} + wreach {})",
        cover.total_rounds(),
        cover.order_rounds,
        cover.wreach_rounds
    );
    println!(
        "cover degree = {} (≤ measured c = {}), max cluster radius = {:?} (bound {}), avg cluster size = {:.1}",
        as_cover.degree(),
        cover.measured_constant,
        as_cover.max_cluster_radius(&graph),
        2 * r,
        as_cover.average_cluster_size()
    );
    assert!(as_cover.covers_all_r_neighborhoods(&graph));

    // Toy application: local routing inside clusters. For random pairs at
    // distance ≤ r, the home cluster of the source contains the whole route.
    let mut rng = DetRng::seed_from_u64(9);
    let mut routable = 0;
    let mut sampled = 0;
    while sampled < 200 {
        let s = rng.gen_range(0..graph.num_vertices()) as u32;
        let t = rng.gen_range(0..graph.num_vertices()) as u32;
        match distance(&graph, s, t) {
            Some(d) if d <= r => {
                sampled += 1;
                let home = as_cover.home[s as usize];
                let cluster = &as_cover.clusters[home as usize];
                if cluster.binary_search(&t).is_ok() {
                    routable += 1;
                }
            }
            _ => continue,
        }
    }
    println!(
        "clustered routing check: {routable}/{sampled} random pairs within distance {r} are \
         routable entirely inside the source's home cluster (expected: all)"
    );
    assert_eq!(routable, sampled);
}
