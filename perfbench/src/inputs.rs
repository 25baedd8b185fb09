//! Seeded inputs. Every instance, shard list and query stream comes from the
//! `--seed` argument; seed 0 reproduces the legacy headline instances
//! (generator seeds 3 and 5, identifier seed `0xd15d`) that the committed
//! `BENCH_ksv.json` figures were measured on.

use bedom_bench::connected_instance;
use bedom_core::{Algorithm, DominationPipeline, Mode};
use bedom_graph::generators::{grid, stacked_triangulation, Family};
use bedom_graph::Graph;
use bedom_rng::DetRng;

/// Vertices of each headline instance.
pub const HEADLINE_N: usize = 100_000;
/// Vertices of the graph the serve session loads. At most 4096, so the
/// `Auto` strategy `serve`'s contexts use stays sequential: with two threads
/// the child's peak RSS varied by up to a third between identical runs.
pub const SERVE_N: usize = 4_000;
/// Shards of the journaled batch.
pub const BATCH_SHARDS: usize = 2048;

/// The seeds one `--seed` value expands to.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    /// `--seed` itself.
    pub seed: u64,
    /// Generator seed of the planar triangulation.
    pub planar: u64,
    /// Generator seed of the configuration model.
    pub config: u64,
    /// Identifier-assignment seed.
    pub ids: u64,
}

impl Seeds {
    /// Expands `seed`; `Seeds::of(0)` gives the legacy 3 / 5 / `0xd15d`.
    pub fn of(seed: u64) -> Self {
        let k = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Seeds {
            seed,
            planar: 3u64.wrapping_add(k),
            config: 5u64.wrapping_add(k.rotate_left(17)),
            ids: 0xd15d ^ k.rotate_left(31),
        }
    }

    /// Whether these are the legacy seeds the committed figures belong to.
    pub fn is_legacy(&self) -> bool {
        self.seed == 0
    }

    /// A generator for everything else this seed decides (shard lists,
    /// query streams).
    pub fn rng(&self, stream: u64) -> DetRng {
        DetRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }
}

/// The two headline instances: 100k planar triangulation and the largest
/// component of a 100k configuration model.
pub fn headline_instances(seeds: &Seeds) -> [(&'static str, Graph); 2] {
    [
        (
            "planar-tri",
            stacked_triangulation(HEADLINE_N, seeds.planar),
        ),
        (
            "config-model",
            connected_instance(Family::ConfigurationModel, HEADLINE_N, seeds.config),
        ),
    ]
}

/// The graph the serve session loads (a 4k planar triangulation).
pub fn serve_graph(seeds: &Seeds) -> Graph {
    stacked_triangulation(SERVE_N, seeds.planar)
}

/// Which pipeline a batch shard runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPipeline {
    /// The Theorem 9 distributed pipeline.
    Theorem9,
    /// The constant-round KSV protocol.
    Ksv,
    /// The sequential Theorem 5 algorithm.
    Theorem5,
    /// The distributed connected Theorem 10 pipeline.
    Theorem10,
}

/// The batch's shards: about 250 vertices each, rotating through planar
/// triangulations, configuration models and grids, radius 1 and 2, and the
/// four pipelines, so every 24 consecutive shards cover every combination.
pub fn batch_shards(seeds: &Seeds) -> Vec<(Graph, DominationPipeline)> {
    let mut rng = seeds.rng(0xba7c);
    (0..BATCH_SHARDS)
        .map(|i| {
            let n = 200 + rng.gen_below(100) as usize;
            let gen_seed = rng.next_u64();
            let id_seed = rng.next_u64();
            let graph = match i % 3 {
                0 => stacked_triangulation(n, gen_seed),
                1 => connected_instance(Family::ConfigurationModel, n, gen_seed),
                _ => {
                    let rows = 10 + rng.gen_below(8) as usize;
                    grid(rows, n / rows)
                }
            };
            let r = 1 + ((i / 3) % 2) as u32;
            let base = DominationPipeline::new(r).seed(id_seed);
            let pipeline = match shard_pipeline(i) {
                ShardPipeline::Theorem9 => base.mode(Mode::Distributed),
                ShardPipeline::Ksv => base.algorithm(Algorithm::KsvConstantRound),
                ShardPipeline::Theorem5 => base,
                ShardPipeline::Theorem10 => base.mode(Mode::Distributed).connected(true),
            };
            (graph, pipeline)
        })
        .collect()
}

/// The pipeline of shard `i` (see [`batch_shards`]).
pub fn shard_pipeline(i: usize) -> ShardPipeline {
    match (i / 6) % 4 {
        0 => ShardPipeline::Theorem9,
        1 => ShardPipeline::Ksv,
        2 => ShardPipeline::Theorem5,
        _ => ShardPipeline::Theorem10,
    }
}

/// The eight query kinds of a serve session: `domset` at r ∈ {1, 2} with
/// alg ∈ {order, ksv, seq}, and `cover` at r ∈ {1, 2}.
pub const QUERY_KINDS: [&str; 8] = [
    "domset r=1 alg=order",
    "domset r=2 alg=order",
    "domset r=1 alg=ksv",
    "domset r=2 alg=ksv",
    "domset r=1 alg=seq",
    "domset r=2 alg=seq",
    "cover r=1",
    "cover r=2",
];

/// A seeded closed-loop query stream of `per_kind` queries of each kind in
/// shuffled order (indices into [`QUERY_KINDS`]). Every kind appears equally
/// often, so the mix is uniform in every run, not just on average.
pub fn query_stream(seeds: &Seeds, per_kind: usize) -> Vec<usize> {
    let mut stream: Vec<usize> = (0..QUERY_KINDS.len())
        .flat_map(|k| std::iter::repeat_n(k, per_kind))
        .collect();
    seeds.rng(0x5e7e).shuffle(&mut stream);
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_legacy_instance_set() {
        let s = Seeds::of(0);
        assert_eq!((s.planar, s.config, s.ids), (3, 5, 0xd15d));
        let t = Seeds::of(1);
        assert!(t.planar != 3 && t.config != 5 && t.ids != 0xd15d);
    }

    #[test]
    fn streams_are_seeded_and_uniform() {
        let a = query_stream(&Seeds::of(4), 5);
        assert_eq!(a, query_stream(&Seeds::of(4), 5));
        assert_ne!(a, query_stream(&Seeds::of(5), 5));
        for k in 0..QUERY_KINDS.len() {
            assert_eq!(a.iter().filter(|&&x| x == k).count(), 5);
        }
    }
}
