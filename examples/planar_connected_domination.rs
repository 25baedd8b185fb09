//! Connected dominating sets on planar graphs in constant LOCAL rounds —
//! the paper's headline combination (Theorem 17 + Lenzen et al. [36]).
//!
//! A connected dominating set is the standard backbone structure for routing
//! in ad-hoc and wireless networks (the application domain the paper cites
//! for connected domination). This example:
//!
//! 1. builds a planar "road network" instance,
//! 2. runs the constant-round Lenzen et al. LOCAL dominating-set algorithm,
//! 3. connects the result with the 3r+1-round LOCAL connector of Theorem 17,
//! 4. reports the measured blow-up against the paper's factor-6 bound, and
//! 5. also runs the CONGEST_BC pipeline of Theorem 10 for comparison.
//!
//! Run with:
//! ```text
//! cargo run --release --example planar_connected_domination
//! ```

use bedom::baselines::lenzen_planar_dominating_set;
use bedom::core::{distributed_connected_domination, local_connect, DistDomSetConfig};
use bedom::distsim::IdAssignment;
use bedom::graph::components::is_induced_connected;
use bedom::graph::domset::is_distance_dominating_set;
use bedom::graph::generators::road_network;

fn main() {
    let graph = road_network(60, 60, 0.35, 7);
    let ids = IdAssignment::Shuffled(1).assign(&graph);
    let r = 1;
    println!(
        "instance: planar road network, n = {}, m = {}",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Step 1: constant-round LOCAL dominating set (Lenzen et al.).
    let mds = lenzen_planar_dominating_set(&graph, &ids);
    assert!(is_distance_dominating_set(&graph, &mds, 1));
    println!("Lenzen et al. dominating set: |D| = {}", mds.len());

    // Step 2: connect it with the LOCAL connector (Theorem 17). On planar
    // graphs the blow-up is at most 2r·3 = 6 for r = 1.
    let connected = local_connect(&graph, &ids, &mds, r);
    assert!(is_distance_dominating_set(
        &graph,
        &connected.connected_dominating_set,
        r
    ));
    assert!(is_induced_connected(
        &graph,
        &connected.connected_dominating_set
    ));
    println!(
        "LOCAL connector (Theorem 17): |D'| = {}, blow-up = {:.2} (paper bound: 6), rounds = {}",
        connected.connected_dominating_set.len(),
        connected.blowup,
        connected.rounds
    );

    // Step 3: the CONGEST_BC pipeline of Theorem 10 on the same instance.
    let congest = distributed_connected_domination(&graph, DistDomSetConfig::new(r))
        .expect("protocol respects the model");
    assert!(is_induced_connected(
        &graph,
        &congest.connected_dominating_set
    ));
    println!(
        "Theorem 10 (CONGEST_BC): |D| = {}, |D'| = {}, blow-up = {:.2}, total rounds = {}",
        congest.dominating_set.len(),
        congest.connected_dominating_set.len(),
        congest.blowup,
        congest.total_rounds()
    );
}
