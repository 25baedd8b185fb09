//! Graph generators for every class the paper names, plus controls.
//!
//! The paper's results hold on *classes of bounded expansion*; the examples it
//! explicitly lists are planar graphs, graphs with excluded (topological)
//! minors, bounded-genus graphs, and the random graphs of the Configuration
//! Model and the Chung–Lu model with fixed degree sequences (Section 1). The
//! generators below cover:
//!
//! * structured, exactly-analysable families (paths, cycles, grids, tori,
//!   trees, stars) — used for unit tests with known optimal
//!   dominating sets;
//! * planar families (stacked triangulations, outerplanar graphs, grid-like
//!   triangulations) — the headline class for the LOCAL-model results;
//! * `k`-trees / partial `k`-trees — bounded treewidth, hence excluded-minor,
//!   hence bounded expansion;
//! * Configuration-Model and Chung–Lu random graphs with bounded or power-law
//!   degree sequences — the "real-world network" stand-ins;
//! * Erdős–Rényi `G(n,p)` with superconstant average degree — a *control*
//!   that is **not** of bounded expansion, used to show where the guarantees
//!   degrade.
//!
//! All generators are deterministic given a seed (`bedom-rng`).

mod planar;
mod random;
mod structured;

pub use planar::*;
pub use random::*;
pub use structured::*;

use crate::graph::Graph;
use bedom_rng::DetRng;

/// Deterministic RNG used by all generators.
pub(crate) fn rng_from_seed(seed: u64) -> DetRng {
    DetRng::seed_from_u64(seed)
}

/// A named graph family with a uniform construction interface, used by the
/// experiment harness to sweep classes × sizes × seeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Path P_n.
    Path,
    /// Cycle C_n.
    Cycle,
    /// Two-dimensional grid, roughly square.
    Grid,
    /// Two-dimensional torus, roughly square.
    Torus,
    /// Uniform random recursive tree.
    RandomTree,
    /// Complete binary tree.
    BinaryTree,
    /// Stacked planar triangulation (Apollonian-network style).
    PlanarTriangulation,
    /// Maximal outerplanar graph (fan of triangles on a cycle).
    Outerplanar,
    /// Random 2-tree (treewidth 2, planar).
    TwoTree,
    /// Random k-tree with k = 3 (treewidth 3, K5-minor-free is *not*
    /// guaranteed but shallow minors stay sparse).
    ThreeTree,
    /// Configuration model with a truncated power-law degree sequence.
    ConfigurationModel,
    /// Chung–Lu model with a truncated power-law weight sequence.
    ChungLu,
    /// Random graph with all degrees ≤ 4.
    BoundedDegree,
    /// Erdős–Rényi with average degree 8 (control, not bounded expansion as
    /// density grows).
    Gnp,
}

impl Family {
    /// All families used in the experiment sweeps.
    pub const ALL: [Family; 14] = [
        Family::Path,
        Family::Cycle,
        Family::Grid,
        Family::Torus,
        Family::RandomTree,
        Family::BinaryTree,
        Family::PlanarTriangulation,
        Family::Outerplanar,
        Family::TwoTree,
        Family::ThreeTree,
        Family::ConfigurationModel,
        Family::ChungLu,
        Family::BoundedDegree,
        Family::Gnp,
    ];

    /// The bounded-expansion families (everything except the `Gnp` control).
    pub const BOUNDED_EXPANSION: [Family; 13] = [
        Family::Path,
        Family::Cycle,
        Family::Grid,
        Family::Torus,
        Family::RandomTree,
        Family::BinaryTree,
        Family::PlanarTriangulation,
        Family::Outerplanar,
        Family::TwoTree,
        Family::ThreeTree,
        Family::ConfigurationModel,
        Family::ChungLu,
        Family::BoundedDegree,
    ];

    /// Short stable name used in experiment output tables.
    pub fn name(self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::Grid => "grid",
            Family::Torus => "torus",
            Family::RandomTree => "random-tree",
            Family::BinaryTree => "binary-tree",
            Family::PlanarTriangulation => "planar-tri",
            Family::Outerplanar => "outerplanar",
            Family::TwoTree => "2-tree",
            Family::ThreeTree => "3-tree",
            Family::ConfigurationModel => "config-model",
            Family::ChungLu => "chung-lu",
            Family::BoundedDegree => "bounded-deg",
            Family::Gnp => "gnp",
        }
    }

    /// Generates a member of the family with approximately `n` vertices.
    ///
    /// The exact vertex count may differ slightly (e.g. grids round to the
    /// nearest rectangle); callers that need the exact size should read it
    /// from the returned graph.
    pub fn generate(self, n: usize, seed: u64) -> Graph {
        let n = n.max(1);
        match self {
            Family::Path => path(n),
            Family::Cycle => cycle(n.max(3)),
            Family::Grid => {
                let side = (n as f64).sqrt().round().max(1.0) as usize;
                grid(side, side.max(1))
            }
            Family::Torus => {
                let side = (n as f64).sqrt().round().max(3.0) as usize;
                torus(side, side)
            }
            Family::RandomTree => random_tree(n, seed),
            Family::BinaryTree => complete_binary_tree(n),
            Family::PlanarTriangulation => stacked_triangulation(n, seed),
            Family::Outerplanar => maximal_outerplanar(n.max(3)),
            Family::TwoTree => random_ktree(n, 2, seed),
            Family::ThreeTree => random_ktree(n, 3, seed),
            Family::ConfigurationModel => configuration_model_power_law(n, 2.5, 2, 12, seed),
            Family::ChungLu => chung_lu_power_law(n, 2.5, 2.0, 14.0, seed),
            Family::BoundedDegree => bounded_degree_random(n, 4, seed),
            Family::Gnp => gnp_with_average_degree(n, 8.0, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::largest_component;

    #[test]
    fn every_family_generates_nonempty_simple_graphs() {
        for family in Family::ALL {
            let g = family.generate(200, 7);
            assert!(
                g.num_vertices() > 0,
                "{} produced empty graph",
                family.name()
            );
            // Simplicity is enforced by the builder; spot check no self loops.
            for v in g.vertices() {
                assert!(!g.neighbors(v).contains(&v), "{}: self loop", family.name());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for family in [
            Family::RandomTree,
            Family::ConfigurationModel,
            Family::ChungLu,
            Family::Gnp,
        ] {
            let a = family.generate(300, 42);
            let b = family.generate(300, 42);
            assert_eq!(a, b, "{} not deterministic", family.name());
            let c = family.generate(300, 43);
            // Different seeds should (almost surely) differ.
            assert_ne!(a, c, "{} ignores seed", family.name());
        }
    }

    #[test]
    fn bounded_expansion_families_have_small_average_degree() {
        for family in Family::BOUNDED_EXPANSION {
            let g = family.generate(2000, 3);
            assert!(
                g.average_degree() < 16.0,
                "{}: average degree {}",
                family.name(),
                g.average_degree()
            );
        }
    }

    #[test]
    fn largest_components_are_substantial() {
        for family in Family::ALL {
            let g = family.generate(500, 11);
            let lc = largest_component(&g);
            assert!(
                lc.len() >= g.num_vertices() / 4,
                "{}: tiny largest component {}/{}",
                family.name(),
                lc.len(),
                g.num_vertices()
            );
        }
    }

    #[test]
    fn family_names_are_unique() {
        let mut names: Vec<_> = Family::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Family::ALL.len());
    }
}
