//! Fixture tests: one firing and one non-firing source per lint, plus the
//! edge cases the tokenizer and test-region masking exist for (widening
//! casts, `#[cfg(test)]` regions, string literals that merely *mention* a
//! banned name).
//!
//! Fixtures are analyzed as in-memory sources under paths chosen to land in
//! (or out of) each lint's scope — the same `analyze_source` entry point the
//! driver uses on real files.

use bedom_analyze::{analyze_source, Finding};

fn findings_for(path: &str, src: &str, lint: &str) -> Vec<Finding> {
    analyze_source(path, src)
        .into_iter()
        .filter(|f| f.lint == lint)
        .collect()
}

// --- narrow-cast ------------------------------------------------------------

#[test]
fn narrow_cast_fires_on_as_u16_in_a_wire_crate() {
    let src = "pub fn width(n: usize) -> u16 { n as u16 }\n";
    let hits = findings_for("crates/distsim/src/message.rs", src, "narrow-cast");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line, 1);
}

#[test]
fn narrow_cast_ignores_widening_as_usize() {
    // `as usize` (and `as u64`) widen on every supported target; only the
    // narrowing u8/u16/u32 targets are flagged.
    let src = "pub fn widen(v: u32) -> usize { v as usize + 0u64 as usize }\n";
    let hits = findings_for("crates/distsim/src/message.rs", src, "narrow-cast");
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn narrow_cast_is_skipped_inside_cfg_test_modules() {
    let src = "\
pub fn fine() {}

#[cfg(test)]
mod tests {
    #[test]
    fn helper() {
        let x: usize = 70000;
        let _ = x as u16; // fixture-only truncation
    }
}
";
    let hits = findings_for("crates/distsim/src/network.rs", src, "narrow-cast");
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn narrow_cast_does_not_apply_outside_wire_path_crates() {
    let src = "pub fn f(n: usize) -> u32 { n as u32 }\n";
    let hits = findings_for("crates/rng/src/lib.rs", src, "narrow-cast");
    assert!(hits.is_empty(), "{hits:?}");
}

// --- hash-order -------------------------------------------------------------

#[test]
fn hash_order_fires_on_hashmap_in_a_protocol_crate() {
    let src = "use std::collections::HashMap;\n";
    let hits = findings_for("crates/distsim/src/network.rs", src, "hash-order");
    assert_eq!(hits.len(), 1, "{hits:?}");
}

#[test]
fn hash_order_ignores_string_literals_mentioning_hashmap() {
    // The tokenizer drops literal contents, so prose mentioning the banned
    // name must not fire.
    let src = "pub const HINT: &str = \"replace HashMap with BTreeMap\";\n";
    let hits = findings_for("crates/distsim/src/network.rs", src, "hash-order");
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn hash_order_allows_btree_collections() {
    let src = "use std::collections::{BTreeMap, BTreeSet};\n";
    let hits = findings_for("crates/core/src/dist_ksv.rs", src, "hash-order");
    assert!(hits.is_empty(), "{hits:?}");
}

// --- wall-clock -------------------------------------------------------------

#[test]
fn wall_clock_fires_on_instant_now_in_library_code() {
    let src = "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n";
    let hits = findings_for("crates/graph/src/bfs.rs", src, "wall-clock");
    assert_eq!(hits.len(), 1, "{hits:?}");
}

#[test]
fn wall_clock_is_allowed_in_the_bench_crates() {
    let src = "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n";
    assert!(findings_for("crates/bench/src/lib.rs", src, "wall-clock").is_empty());
}

#[test]
fn wall_clock_ignores_instant_without_now() {
    // Storing or comparing `Instant`s someone else produced is fine; only
    // *sampling* the clock is flagged.
    let src = "pub fn keep(t: std::time::Instant) -> std::time::Instant { t }\n";
    let hits = findings_for("crates/graph/src/bfs.rs", src, "wall-clock");
    assert!(hits.is_empty(), "{hits:?}");
}

// --- no-unwrap --------------------------------------------------------------

#[test]
fn no_unwrap_fires_on_unwrap_and_expect_in_library_code() {
    let src = "\
pub fn f(o: Option<u32>) -> u32 { o.unwrap() }
pub fn g(o: Option<u32>) -> u32 { o.expect(\"present\") }
";
    let hits = findings_for("crates/graph/src/bfs.rs", src, "no-unwrap");
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert_eq!(hits[0].line, 1);
    assert_eq!(hits[1].line, 2);
}

#[test]
fn no_unwrap_is_allowed_in_tests_and_test_modules() {
    let in_test_file = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    assert!(findings_for("tests/determinism.rs", in_test_file, "no-unwrap").is_empty());
    let in_test_mod = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1u32).unwrap();
    }
}
";
    assert!(findings_for("crates/graph/src/bfs.rs", in_test_mod, "no-unwrap").is_empty());
}

#[test]
fn no_unwrap_ignores_similarly_named_methods() {
    // `unwrap_or`, `unwrap_or_else`, `unwrap_or_default` don't panic.
    let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap_or(0).max(o.unwrap_or_else(|| 1)) }\n";
    let hits = findings_for("crates/graph/src/bfs.rs", src, "no-unwrap");
    assert!(hits.is_empty(), "{hits:?}");
}

// --- raw-thread -------------------------------------------------------------

#[test]
fn raw_thread_fires_outside_bedom_par() {
    let src = "pub fn go() { std::thread::spawn(|| {}); }\n";
    let hits = findings_for("crates/graph/src/bfs.rs", src, "raw-thread");
    assert!(!hits.is_empty(), "{hits:?}");
}

#[test]
fn raw_thread_is_allowed_inside_bedom_par() {
    let src = "pub fn go() { std::thread::scope(|_| {}); }\n";
    let hits = findings_for("crates/par/src/lib.rs", src, "raw-thread");
    assert!(hits.is_empty(), "{hits:?}");
}

// --- tokenizer edge cases through a whole lint ------------------------------

#[test]
fn raw_strings_and_comments_never_fire_lints() {
    let src = "\
// std::thread::spawn in a comment is fine; so is HashMap.
/* block comment: o.unwrap() */
pub const DOC: &str = r#\"Instant::now() inside a raw string\"#;
";
    let all = analyze_source("crates/graph/src/bfs.rs", src);
    assert!(all.is_empty(), "{all:?}");
}
