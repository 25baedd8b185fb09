//! Pinned elections of the KSV knowledge flood on the shapes that stress it:
//! hub-heavy Apollonian-style stacks, long paths at r = 3, disconnected
//! unions, and the whole exact-oracle conformance corpus.
//!
//! Every run is pinned to a fingerprint — |D|, |D₁|, |D₂|, |D₃|, |hubs|, the
//! total wire bits and an FNV-1a hash of the sorted set — recorded while the
//! library still shipped the verbatim record flood next to the summary flood
//! and asserted that both elected identical sets on every run below. The
//! tables are therefore the record flood's elections too; the per-vertex
//! reference for the decision view is the exact-view oracle in
//! `bedom_core::dist_ksv`'s unit tests.
//!
//! Faulty runs are pinned too: crashes in every knowledge round and lossy
//! knowledge floods, each outcome (the elected set and its wire cost, or the
//! typed violation) folded into one hash per shape and radius.

use bedom::core::{
    default_hub_cap, distributed_ksv_domination_r, distributed_ksv_domination_r_faulty, ksv_rounds,
    KsvConfig, KSV_FRAME_HEADER_BITS, KSV_FRAME_PAYLOAD_BITS,
};
use bedom::distsim::{ExecutionStrategy, FaultPlan, IdAssignment};
use bedom::graph::domset::is_distance_dominating_set;
use bedom::graph::generators::{
    configuration_model_power_law, cycle, grid, path, stacked_triangulation, star,
};
use bedom::graph::{graph_from_edges, Graph, Vertex};

/// The conformance corpus (mirrors `tests/conformance.rs`): every instance
/// small enough for the exact bitmask oracle there.
fn corpus() -> Vec<(&'static str, Graph)> {
    vec![
        ("empty", Graph::empty(0)),
        ("single-vertex", Graph::empty(1)),
        ("two-isolated", Graph::empty(2)),
        ("path-10", path(10)),
        ("path-16", path(16)),
        ("cycle-13", cycle(13)),
        ("star-10", star(9)),
        ("grid-3x4", grid(3, 4)),
        ("grid-4x4", grid(4, 4)),
        ("planar-tri-14", stacked_triangulation(14, 3)),
        (
            "config-model-14",
            configuration_model_power_law(14, 2.5, 1, 5, 7),
        ),
        (
            "disconnected",
            graph_from_edges(12, &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)]),
        ),
    ]
}

/// An Apollonian-style stack: start from a triangle and repeatedly plant a
/// new vertex inside a face, joined to all three corners. Deterministic
/// rotation through the face list produces deeply nested hubs — the early
/// corners accumulate large degree, which is exactly the shape the cluster
/// merge targets.
fn apollonian(levels: usize) -> Graph {
    let mut edges: Vec<(Vertex, Vertex)> = vec![(0, 1), (1, 2), (0, 2)];
    let mut faces: Vec<[Vertex; 3]> = vec![[0, 1, 2]];
    let mut next: Vertex = 3;
    for step in 0..levels {
        let [a, b, c] = faces[step % faces.len()];
        let v = next;
        next += 1;
        edges.extend([(v, a), (v, b), (v, c)]);
        faces.extend([[a, b, v], [a, c, v], [b, c, v]]);
    }
    graph_from_edges(next as usize, &edges)
}

/// A disconnected union of heterogeneous components: a hubbed star, a long
/// path, a small triangulation, and isolated vertices — the flood must keep
/// every component's election independent and exact.
fn disconnected_union() -> Graph {
    let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
    let mut base: Vertex = 0;
    // Star on 41 vertices (centre `base`).
    for leaf in 1..=40 {
        edges.push((base, base + leaf));
    }
    base += 41;
    // Path on 30 vertices.
    for i in 0..29 {
        edges.push((base + i, base + i + 1));
    }
    base += 30;
    // Triangulated strip on 12 vertices.
    for i in 0..10 {
        edges.push((base + i, base + i + 1));
        edges.push((base + i, base + i + 2));
    }
    base += 12;
    // Three isolated vertices.
    graph_from_edges(base as usize + 3, &edges)
}

/// One pinned run: `(shape, r, hub cap, [|D|, |D₁|, |D₂|, |D₃|, |hubs|,
/// total bits], FNV-1a hash of the sorted set)`.
type Pin = (&'static str, u32, Option<usize>, [usize; 6], u64);

/// The FNV-1a (64-bit) offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a (64-bit) hash over `bytes`.
fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a (64-bit) over the little-endian bytes of each vertex.
fn fnv1a(set: &[Vertex]) -> u64 {
    set.iter()
        .fold(FNV_OFFSET, |hash, v| fnv1a_extend(hash, &v.to_le_bytes()))
}

/// Runs one pinned configuration (ids `Shuffled(0xf10d)`), checks validity
/// and the round constant, and returns its fingerprint.
fn fingerprint(name: &str, g: &Graph, r: u32, hub_cap: Option<usize>) -> ([usize; 6], u64) {
    let result = distributed_ksv_domination_r(
        g,
        r,
        KsvConfig {
            assignment: IdAssignment::Shuffled(0xf10d),
            hub_cap,
            ..KsvConfig::new()
        },
    )
    .unwrap();
    assert!(
        is_distance_dominating_set(g, &result.dominating_set, r),
        "{name} (r = {r}, cap {hub_cap:?}): output does not dominate"
    );
    if g.num_vertices() > 0 {
        assert_eq!(result.rounds, ksv_rounds(r), "{name} round constant");
    }
    (
        [
            result.dominating_set.len(),
            result.hard_core.len(),
            result.cover_dominators.len(),
            result.self_elected.len(),
            result.high_degree.len(),
            result.stats.total_bits,
        ],
        fnv1a(&result.dominating_set),
    )
}

/// Re-runs every pin against its shape and compares fingerprints.
fn assert_pinned(shapes: &[(&str, Graph)], pins: &[Pin]) {
    for &(name, r, hub_cap, counts, hash) in pins {
        let (_, g) = shapes
            .iter()
            .find(|(shape, _)| *shape == name)
            .unwrap_or_else(|| panic!("no shape named {name}"));
        assert_eq!(
            fingerprint(name, g, r, hub_cap),
            (counts, hash),
            "{name} (r = {r}, cap {hub_cap:?}): election moved off its pin"
        );
    }
}

/// Corpus pins: r = 1, and r ∈ {2, 3} under the default hub cap and with
/// hubs disabled. The default cap (n ≤ 14 < 32) fires no hubs here, so both
/// rows of a radius agree: these are the exact paper elections that
/// `tests/conformance.rs` certifies against the exact oracle.
#[rustfmt::skip]
const CORPUS_PINS: &[Pin] = &[
    ("empty", 1, None, [0, 0, 0, 0, 0, 0], 0xcbf29ce484222325),
    ("empty", 2, None, [0, 0, 0, 0, 0, 0], 0xcbf29ce484222325),
    ("empty", 2, Some(usize::MAX), [0, 0, 0, 0, 0, 0], 0xcbf29ce484222325),
    ("empty", 3, None, [0, 0, 0, 0, 0, 0], 0xcbf29ce484222325),
    ("empty", 3, Some(usize::MAX), [0, 0, 0, 0, 0, 0], 0xcbf29ce484222325),
    ("single-vertex", 1, None, [1, 0, 0, 1, 0, 24], 0x4d25767f9dce13f5),
    ("single-vertex", 2, None, [1, 0, 0, 1, 0, 49], 0x4d25767f9dce13f5),
    ("single-vertex", 2, Some(usize::MAX), [1, 0, 0, 1, 0, 49], 0x4d25767f9dce13f5),
    ("single-vertex", 3, None, [1, 0, 0, 1, 0, 49], 0x4d25767f9dce13f5),
    ("single-vertex", 3, Some(usize::MAX), [1, 0, 0, 1, 0, 49], 0x4d25767f9dce13f5),
    ("two-isolated", 1, None, [2, 0, 0, 2, 0, 48], 0x08cd4c29d1e47d34),
    ("two-isolated", 2, None, [2, 0, 0, 2, 0, 98], 0x08cd4c29d1e47d34),
    ("two-isolated", 2, Some(usize::MAX), [2, 0, 0, 2, 0, 98], 0x08cd4c29d1e47d34),
    ("two-isolated", 3, None, [2, 0, 0, 2, 0, 98], 0x08cd4c29d1e47d34),
    ("two-isolated", 3, Some(usize::MAX), [2, 0, 0, 2, 0, 98], 0x08cd4c29d1e47d34),
    ("path-10", 1, None, [9, 0, 9, 0, 0, 868], 0x128810cb6e3fe760),
    ("path-10", 2, None, [6, 0, 6, 0, 0, 2446], 0x2b757857de1560dc),
    ("path-10", 2, Some(usize::MAX), [6, 0, 6, 0, 0, 2446], 0x2b757857de1560dc),
    ("path-10", 3, None, [5, 0, 5, 0, 0, 4344], 0x4eb211b337cd3115),
    ("path-10", 3, Some(usize::MAX), [5, 0, 5, 0, 0, 4344], 0x4eb211b337cd3115),
    ("path-16", 1, None, [14, 0, 14, 0, 0, 1400], 0x51b88c0bdbc1f659),
    ("path-16", 2, None, [11, 0, 11, 0, 0, 4172], 0x1014c71b4a909631),
    ("path-16", 2, Some(usize::MAX), [11, 0, 11, 0, 0, 4172], 0x1014c71b4a909631),
    ("path-16", 3, None, [9, 0, 9, 0, 0, 7618], 0x2cd62bcd0e4677ff),
    ("path-16", 3, Some(usize::MAX), [9, 0, 9, 0, 0, 7618], 0x2cd62bcd0e4677ff),
    ("cycle-13", 1, None, [10, 0, 10, 0, 0, 1128], 0x8f88989e21b90a26),
    ("cycle-13", 2, None, [9, 0, 9, 0, 0, 3761], 0x41f7701ec1f626a0),
    ("cycle-13", 2, Some(usize::MAX), [9, 0, 9, 0, 0, 3761], 0x41f7701ec1f626a0),
    ("cycle-13", 3, None, [9, 0, 9, 0, 0, 7237], 0x41f7701ec1f626a0),
    ("cycle-13", 3, Some(usize::MAX), [9, 0, 9, 0, 0, 7237], 0x41f7701ec1f626a0),
    ("star-10", 1, None, [1, 1, 0, 0, 0, 304], 0x4d25767f9dce13f5),
    ("star-10", 2, None, [2, 0, 2, 0, 0, 2105], 0x88e29c08790d8af0),
    ("star-10", 2, Some(usize::MAX), [2, 0, 2, 0, 0, 2105], 0x88e29c08790d8af0),
    ("star-10", 3, None, [2, 0, 2, 0, 0, 7557], 0x88e29c08790d8af0),
    ("star-10", 3, Some(usize::MAX), [2, 0, 2, 0, 0, 7557], 0x88e29c08790d8af0),
    ("grid-3x4", 1, None, [10, 0, 10, 0, 0, 1212], 0x77130892f920d223),
    ("grid-3x4", 2, None, [4, 0, 4, 0, 0, 4758], 0x14c4f4907201ef35),
    ("grid-3x4", 2, Some(usize::MAX), [4, 0, 4, 0, 0, 4758], 0x14c4f4907201ef35),
    ("grid-3x4", 3, None, [2, 0, 2, 0, 0, 10490], 0xcdc21d36f6b03286),
    ("grid-3x4", 3, Some(usize::MAX), [2, 0, 2, 0, 0, 10490], 0xcdc21d36f6b03286),
    ("grid-4x4", 1, None, [12, 0, 12, 0, 0, 1632], 0x5245bbb4c88df344),
    ("grid-4x4", 2, None, [11, 0, 11, 0, 0, 7508], 0xf082dd21ff6d8c7f),
    ("grid-4x4", 2, Some(usize::MAX), [11, 0, 11, 0, 0, 7508], 0xf082dd21ff6d8c7f),
    ("grid-4x4", 3, None, [5, 0, 5, 0, 0, 17860], 0x47195cacfb7249d9),
    ("grid-4x4", 3, Some(usize::MAX), [5, 0, 5, 0, 0, 17860], 0x47195cacfb7249d9),
    ("planar-tri-14", 1, None, [7, 0, 7, 0, 0, 1200], 0xfbf04ad13fe936e5),
    ("planar-tri-14", 2, None, [4, 0, 4, 0, 0, 5480], 0x63e88390774d9316),
    ("planar-tri-14", 2, Some(usize::MAX), [4, 0, 4, 0, 0, 5480], 0x63e88390774d9316),
    ("planar-tri-14", 3, None, [2, 0, 2, 0, 0, 17766], 0xe0be28487a521f67),
    ("planar-tri-14", 3, Some(usize::MAX), [2, 0, 2, 0, 0, 17766], 0xe0be28487a521f67),
    ("config-model-14", 1, None, [12, 1, 11, 0, 0, 992], 0xe001d6db6341fcef),
    ("config-model-14", 2, None, [10, 0, 10, 0, 0, 2632], 0xfee81e71aa98dc83),
    ("config-model-14", 2, Some(usize::MAX), [10, 0, 10, 0, 0, 2632], 0xfee81e71aa98dc83),
    ("config-model-14", 3, None, [9, 0, 9, 0, 0, 4090], 0xc978562c60d1e898),
    ("config-model-14", 3, Some(usize::MAX), [9, 0, 9, 0, 0, 4090], 0xc978562c60d1e898),
    ("disconnected", 1, None, [12, 0, 9, 3, 0, 816], 0xe554888727308865),
    ("disconnected", 2, None, [9, 0, 6, 3, 0, 1648], 0x7fecf5319931ff58),
    ("disconnected", 2, Some(usize::MAX), [9, 0, 6, 3, 0, 1648], 0x7fecf5319931ff58),
    ("disconnected", 3, None, [9, 0, 6, 3, 0, 2272], 0x160796bd7a0c8a97),
    ("disconnected", 3, Some(usize::MAX), [9, 0, 6, 3, 0, 2272], 0x160796bd7a0c8a97),
];

#[test]
fn conformance_corpus_is_bit_identical_across_floods() {
    assert_pinned(&corpus(), CORPUS_PINS);
}

/// Deep hub nesting: the original corners reach large degree and many
/// vertices sit within distance 1–2 of several hubs at once.
#[rustfmt::skip]
const APOLLONIAN_PINS: &[Pin] = &[
    ("apollonian-120", 1, None, [16, 4, 12, 0, 0, 8945], 0x4a12b2fff6246aa1),
    ("apollonian-120", 2, Some(6), [16, 0, 0, 0, 16, 13579], 0x2135120b48416d25),
    ("apollonian-120", 2, None, [22, 0, 22, 0, 0, 261806], 0xc50ee6e296a219fd),
    ("apollonian-120", 2, Some(usize::MAX), [22, 0, 22, 0, 0, 261806], 0xc50ee6e296a219fd),
    ("apollonian-120", 3, Some(6), [16, 0, 0, 0, 16, 101915], 0x2135120b48416d25),
    ("apollonian-120", 3, None, [5, 0, 5, 0, 0, 7745399], 0xd793772973a77129),
    ("apollonian-120", 3, Some(usize::MAX), [5, 0, 5, 0, 0, 7745399], 0xd793772973a77129),
];

#[test]
fn apollonian_hub_stacks_agree_across_floods() {
    assert_pinned(&[("apollonian-120", apollonian(120))], APOLLONIAN_PINS);
}

/// No hubs ever fire on a path; these pin the beacon/summary/relay wave
/// timing at the largest tested radius, where the relay window (rounds
/// r..2r−2) is longest.
#[rustfmt::skip]
const LONG_PATH_PINS: &[Pin] = &[
    ("path-200", 3, None, [124, 0, 124, 0, 0, 126494], 0x9f491801dd97816b),
    ("cycle-150", 3, None, [99, 0, 99, 0, 0, 95982], 0x56ea6d29b7110ebb),
];

#[test]
fn long_paths_at_r3_agree_across_floods() {
    assert_pinned(
        &[("path-200", path(200)), ("cycle-150", cycle(150))],
        LONG_PATH_PINS,
    );
}

/// Every component's election must stay independent and exact; the star
/// centre is a hub at both caps.
#[rustfmt::skip]
const DISCONNECTED_PINS: &[Pin] = &[
    ("disconnected-union", 1, None, [38, 1, 34, 3, 0, 5921], 0x0dbdd1825535f030),
    ("disconnected-union", 2, Some(8), [30, 0, 26, 3, 1, 16770], 0x986ce5a6f6cfed49),
    ("disconnected-union", 2, None, [30, 0, 26, 3, 1, 16770], 0x986ce5a6f6cfed49),
    ("disconnected-union", 3, Some(8), [28, 0, 24, 3, 1, 53641], 0xd4cbcbc7e26e6221),
    ("disconnected-union", 3, None, [28, 0, 24, 3, 1, 53641], 0xd4cbcbc7e26e6221),
];

#[test]
fn disconnected_unions_agree_across_floods() {
    assert_pinned(
        &[("disconnected-union", disconnected_union())],
        DISCONNECTED_PINS,
    );
}

#[test]
fn clustered_flood_smoke_test_at_distance_2() {
    // Tier-1 smoke test for the summary flood on a small planar instance:
    // the default configuration (automatic hub cap) must elect a valid set
    // in the constant round count with bounded frames.
    let g = stacked_triangulation(500, 4);
    let result = distributed_ksv_domination_r(&g, 2, KsvConfig::new()).unwrap();
    assert!(is_distance_dominating_set(&g, &result.dominating_set, 2));
    assert_eq!(result.rounds, ksv_rounds(2));
    assert_eq!(result.phase_bits.total(), result.stats.total_bits);
    assert!(
        result.stats.max_message_bits <= KSV_FRAME_HEADER_BITS + KSV_FRAME_PAYLOAD_BITS,
        "max frame {} exceeds the framing bound",
        result.stats.max_message_bits
    );
}

#[test]
fn hub_cap_knob_controls_the_cluster_merge() {
    // star(40): centre degree 40. The automatic cap (∇ ≈ 1 → 32) makes the
    // centre a hub; an explicit cap of 64 does not; usize::MAX never does.
    let g = star(40);
    let run = |hub_cap| {
        distributed_ksv_domination_r(
            &g,
            2,
            KsvConfig {
                hub_cap,
                ..KsvConfig::new()
            },
        )
        .unwrap()
    };
    assert_eq!(run(None).high_degree.len(), 1);
    assert_eq!(default_hub_cap(1), 32);
    assert!(run(Some(64)).high_degree.is_empty());
    assert!(run(Some(usize::MAX)).high_degree.is_empty());
    // All three still dominate, whichever way the knob points.
    for hub_cap in [None, Some(64), Some(usize::MAX)] {
        assert!(is_distance_dominating_set(
            &g,
            &run(hub_cap).dominating_set,
            2
        ));
    }
}

/// One pinned faulty-run row: `(shape, r, [Ok runs, Err runs], FNV-1a of
/// every run's outcome in plan order)`.
type FaultPin = (&'static str, u32, [usize; 2], u64);

/// The fault plans of one row: for every round `t ∈ 1..=2r`, a one-round
/// crash `[t, t + 1)` of vertex 0, 1 and 7 and a crash of vertex 0 from `t`
/// to the end of the run; then message drops at rate 0.2 throughout the
/// knowledge flood under seeds 0–3.
fn fault_plans(r: u32) -> Vec<FaultPlan> {
    let end = ksv_rounds(r) + 1;
    let mut plans = Vec::new();
    for t in 1..=2 * r as usize {
        for v in [0, 1, 7] {
            plans.push(FaultPlan::seeded(0).crash(v, t, t + 1));
        }
        plans.push(FaultPlan::seeded(0).crash(0, t, end));
    }
    for seed in 0..4 {
        plans.push(
            FaultPlan::seeded(seed)
                .drop_messages(0.2)
                .during(1, 2 * r as usize + 1),
        );
    }
    plans
}

/// Runs every fault plan of `r` on `g` (hub cap 8, ids `Shuffled(11)`,
/// sequential) and folds the outcomes: an `Ok` run contributes the FNV-1a
/// of its sorted set, its total bits and its largest frame; an `Err` run
/// the `Debug` text of its violation.
fn fault_fingerprint(g: &Graph, r: u32) -> ([usize; 2], u64) {
    let config = KsvConfig {
        assignment: IdAssignment::Shuffled(11),
        hub_cap: Some(8),
        strategy: ExecutionStrategy::Sequential,
        ..KsvConfig::new()
    };
    let mut counts = [0usize; 2];
    let mut hash = FNV_OFFSET;
    for plan in fault_plans(r) {
        match distributed_ksv_domination_r_faulty(g, r, config, plan, None) {
            Ok(result) => {
                counts[0] += 1;
                for word in [
                    fnv1a(&result.dominating_set),
                    result.stats.total_bits as u64,
                    result.stats.max_message_bits as u64,
                ] {
                    hash = fnv1a_extend(hash, &word.to_le_bytes());
                }
            }
            Err(violation) => {
                counts[1] += 1;
                hash = fnv1a_extend(hash, format!("{violation:?}").as_bytes());
            }
        }
    }
    (counts, hash)
}

#[rustfmt::skip]
const FAULT_PINS: &[FaultPin] = &[
    ("planar-tri-300", 1, [3, 9], 0x95fa3fffed5d6b14),
    ("planar-tri-300", 2, [4, 16], 0xeb158e0d7f335157),
    ("planar-tri-300", 3, [4, 24], 0xd1f778c4d3926415),
    ("star-60", 1, [4, 8], 0x4c3377f8bb00b00b),
    ("star-60", 2, [6, 14], 0x06efcbfeb318d7f0),
    ("star-60", 3, [8, 20], 0x89861d844925ea82),
    ("config-model-300", 1, [4, 8], 0xf9881fee8f7f2a32),
    ("config-model-300", 2, [4, 16], 0x5eb6a4b5e006e321),
    ("config-model-300", 3, [4, 24], 0x7c6e60f2b5ac641d),
    ("grid-12x12", 1, [3, 9], 0xf5596b6dfe7533e0),
    ("grid-12x12", 2, [4, 16], 0xcb98055d5986d5e7),
    ("grid-12x12", 3, [4, 24], 0xa5264fb893394108),
];

#[test]
fn faulty_runs_keep_their_pinned_outcomes() {
    // No other suite crashes a vertex across the summary broadcast round
    // (r − 1) or drops summaries mid-flood; these rows pin what such runs
    // elect, or exactly which violation they report.
    let shapes: Vec<(&str, Graph)> = vec![
        ("planar-tri-300", stacked_triangulation(300, 5)),
        ("star-60", star(60)),
        (
            "config-model-300",
            configuration_model_power_law(300, 2.5, 2, 8, 3),
        ),
        ("grid-12x12", grid(12, 12)),
    ];
    let mut actual: Vec<FaultPin> = Vec::new();
    for &(name, ref g) in &shapes {
        for r in 1..=3 {
            let (counts, hash) = fault_fingerprint(g, r);
            actual.push((name, r, counts, hash));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, r, counts, hash)| format!("    ({name:?}, {r}, {counts:?}, {hash:#018x}),\n"))
        .collect();
    assert_eq!(
        actual, FAULT_PINS,
        "faulty runs moved off their pins; now:\n{table}"
    );
}
