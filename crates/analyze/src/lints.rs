//! The lint battery: repo-specific invariants enforced over token streams.
//!
//! Each lint documents the invariant it guards and the PR that established
//! it. A lint fires [`Finding`]s; whether a finding fails the build is
//! decided later against the committed allowlist (`analyze.toml`).

use crate::context::{FileContext, FileKind};

/// One violation: where, what, why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint name (stable, used in `analyze.toml`).
    pub lint: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A single analysis pass over one file's token stream.
pub trait Lint {
    /// Stable name, referenced from the allowlist.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-lints` and the README table.
    fn description(&self) -> &'static str;
    /// Whether the lint applies to this file at all (path/kind scoping).
    fn applies(&self, ctx: &FileContext) -> bool;
    /// Scans the token stream and appends findings.
    fn check(&self, ctx: &FileContext, out: &mut Vec<Finding>);
}

/// The full battery, in report order.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(NarrowCast),
        Box::new(HashOrder),
        Box::new(WallClock),
        Box::new(NoUnwrap),
        Box::new(RawThread),
    ]
}

/// Runs every applicable lint over one file.
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    let ctx = FileContext::from_source(path, src);
    let mut out = Vec::new();
    for lint in all_lints() {
        if lint.applies(&ctx) {
            lint.check(&ctx, &mut out);
        }
    }
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out
}

fn finding(ctx: &FileContext, i: usize, lint: &'static str, message: String) -> Finding {
    Finding {
        file: ctx.path.clone(),
        line: ctx.tokens[i].line,
        lint,
        message,
    }
}

/// Whether tokens `i..` match the identifier/punctuation sequence `pat`,
/// where alphabetic entries match identifiers and everything else matches
/// punctuation (`":"` twice for `::`).
fn seq_matches(ctx: &FileContext, i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| {
        ctx.tokens.get(i + k).is_some_and(|t| {
            if p.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                t.is_ident(p)
            } else {
                p.chars().next().is_some_and(|c| t.is_punct(c))
            }
        })
    })
}

/// **L1 — `narrow-cast`**: no unchecked narrowing `as u8`/`as u16`/`as u32`
/// on wire-path code.
///
/// The wire paths were swept clean of these by hand (delivery-CSR offsets,
/// stored-path lengths) because a silently wrapping cast corrupts bit
/// accounting instead of failing loudly. Scope: the
/// message-carrying crates (`bedom-distsim`, `bedom-wcol::distributed`,
/// `bedom-core::dist_*`) plus the wire-adjacent graph interchange paths
/// (`io.rs`, `components.rs`). Widening casts (`as usize`, `as u64`) never
/// fire. Use `u32::from` for provable widenings and the checked
/// `bedom_graph::cast` helpers (or `try_from`) for narrowings.
#[derive(Debug)]
pub struct NarrowCast;

impl Lint for NarrowCast {
    fn name(&self) -> &'static str {
        "narrow-cast"
    }

    fn description(&self) -> &'static str {
        "unchecked narrowing `as u8`/`as u16`/`as u32` on wire-path code"
    }

    fn applies(&self, ctx: &FileContext) -> bool {
        let p = ctx.path.as_str();
        p.starts_with("crates/distsim/src/")
            || p == "crates/wcol/src/distributed.rs"
            || p.starts_with("crates/core/src/dist_")
            || p == "crates/graph/src/io.rs"
            || p == "crates/graph/src/components.rs"
    }

    fn check(&self, ctx: &FileContext, out: &mut Vec<Finding>) {
        for i in 0..ctx.tokens.len() {
            if ctx.is_test_code(i) || !ctx.tokens[i].is_ident("as") {
                continue;
            }
            let target = match ctx.tokens.get(i + 1).and_then(|t| t.ident()) {
                Some(t @ ("u8" | "u16" | "u32")) => t,
                _ => continue,
            };
            out.push(finding(
                ctx,
                i,
                self.name(),
                format!(
                    "unchecked narrowing cast `as {target}` on a wire path; use \
                     `{target}::try_from`/`{target}::from` or a `bedom_graph::cast` helper"
                ),
            ));
        }
    }
}

/// **L2 — `hash-order`**: no `HashMap`/`HashSet` in deterministic protocol
/// crates.
///
/// Every protocol run must be bit-identical across `Sequential`/`Parallel`
/// and across processes; `RandomState`-seeded iteration order is the classic
/// way to lose that silently (PR 7's fault determinism holds only because no
/// protocol loop iterates a `HashMap`). Scope: `bedom-distsim`, `bedom-core`,
/// `bedom-wcol::distributed`. Use `BTreeMap`/`BTreeSet` or sorted vectors;
/// lookup-only maps that are never iterated may be allowlisted with a reason.
#[derive(Debug)]
pub struct HashOrder;

impl Lint for HashOrder {
    fn name(&self) -> &'static str {
        "hash-order"
    }

    fn description(&self) -> &'static str {
        "`HashMap`/`HashSet` in deterministic protocol crates"
    }

    fn applies(&self, ctx: &FileContext) -> bool {
        let p = ctx.path.as_str();
        p.starts_with("crates/distsim/src/")
            || p.starts_with("crates/core/src/")
            || p == "crates/wcol/src/distributed.rs"
    }

    fn check(&self, ctx: &FileContext, out: &mut Vec<Finding>) {
        for i in 0..ctx.tokens.len() {
            if ctx.is_test_code(i) {
                continue;
            }
            let name = match ctx.tokens[i].ident() {
                Some(n @ ("HashMap" | "HashSet")) => n,
                _ => continue,
            };
            out.push(finding(
                ctx,
                i,
                self.name(),
                format!(
                    "`{name}` exposes RandomState iteration order in a deterministic \
                     protocol crate; use BTree collections or sorted vecs"
                ),
            ));
        }
    }
}

/// **L3 — `wall-clock`**: no wall-clock or entropy sources outside the bench
/// harness.
///
/// `Instant::now`, `SystemTime` and `RandomState` make runs unrepeatable;
/// reproducibility is the property the whole KSV reproduction leans on.
/// Timing belongs in `bedom-bench`; everything else takes seeds
/// (`bedom-rng`) and counts rounds/bits, not seconds.
#[derive(Debug)]
pub struct WallClock;

impl Lint for WallClock {
    fn name(&self) -> &'static str {
        "wall-clock"
    }

    fn description(&self) -> &'static str {
        "wall-clock/entropy source outside bedom-bench"
    }

    fn applies(&self, ctx: &FileContext) -> bool {
        let p = ctx.path.as_str();
        !p.starts_with("crates/bench/") && !matches!(ctx.kind, FileKind::Test | FileKind::Bench)
    }

    fn check(&self, ctx: &FileContext, out: &mut Vec<Finding>) {
        for i in 0..ctx.tokens.len() {
            if ctx.is_test_code(i) {
                continue;
            }
            let what = if seq_matches(ctx, i, &["Instant", ":", ":", "now"]) {
                "Instant::now"
            } else if ctx.tokens[i].is_ident("SystemTime") {
                "SystemTime"
            } else if ctx.tokens[i].is_ident("RandomState") {
                "RandomState"
            } else {
                continue;
            };
            out.push(finding(
                ctx,
                i,
                self.name(),
                format!(
                    "`{what}` is a wall-clock/entropy source; deterministic code takes \
                     seeds and counts rounds, timing belongs in bedom-bench"
                ),
            ));
        }
    }
}

/// **L4 — `no-unwrap`**: no `.unwrap()` / `.expect()` in library non-test
/// code.
///
/// Library panics take down a whole scenario shard; errors on fallible paths
/// are typed (`ModelViolation`, `CodecError`, `ParseError`). Invariant
/// guards that genuinely cannot fail belong behind an explicit
/// `panic!`/`unreachable!` with the invariant spelled out, or an allowlist
/// entry with a reason. `unwrap_or`, `unwrap_or_else`, `unwrap_or_default`
/// never fire.
#[derive(Debug)]
pub struct NoUnwrap;

impl Lint for NoUnwrap {
    fn name(&self) -> &'static str {
        "no-unwrap"
    }

    fn description(&self) -> &'static str {
        "`.unwrap()`/`.expect()` in library non-test code"
    }

    fn applies(&self, ctx: &FileContext) -> bool {
        let p = ctx.path.as_str();
        let library_crate = [
            "crates/par/src/",
            "crates/rng/src/",
            "crates/graph/src/",
            "crates/distsim/src/",
            "crates/wcol/src/",
            "crates/core/src/",
            "crates/baselines/src/",
            "crates/analyze/src/",
            "src/",
        ];
        ctx.kind == FileKind::Lib && library_crate.iter().any(|c| p.starts_with(c))
    }

    fn check(&self, ctx: &FileContext, out: &mut Vec<Finding>) {
        for i in 0..ctx.tokens.len() {
            if ctx.is_test_code(i) || !ctx.tokens[i].is_punct('.') {
                continue;
            }
            let method = match ctx.tokens.get(i + 1).and_then(|t| t.ident()) {
                Some(m @ ("unwrap" | "expect")) => m,
                _ => continue,
            };
            if !ctx.tokens.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            out.push(finding(
                ctx,
                i + 1,
                self.name(),
                format!(
                    "`.{method}()` in library code panics the whole shard; return a typed \
                     error or guard the invariant with an explicit panic! and a reason"
                ),
            ));
        }
    }
}

/// **L5 — `raw-thread`**: `std::thread` is confined to `bedom-par`.
///
/// One fork-join layer (`ExecutionStrategy`) is the reason sequential and
/// parallel runs are bit-identical by construction — a second ad-hoc thread
/// pool would fork the execution model and escape the determinism suite and
/// the debug scratch tracker.
#[derive(Debug)]
pub struct RawThread;

impl Lint for RawThread {
    fn name(&self) -> &'static str {
        "raw-thread"
    }

    fn description(&self) -> &'static str {
        "raw `std::thread` outside bedom-par"
    }

    fn applies(&self, ctx: &FileContext) -> bool {
        !ctx.path.starts_with("crates/par/")
    }

    fn check(&self, ctx: &FileContext, out: &mut Vec<Finding>) {
        for i in 0..ctx.tokens.len() {
            if ctx.is_test_code(i) {
                continue;
            }
            let hit = seq_matches(ctx, i, &["std", ":", ":", "thread"])
                || seq_matches(ctx, i, &["thread", ":", ":", "spawn"])
                || seq_matches(ctx, i, &["thread", ":", ":", "scope"]);
            if !hit {
                continue;
            }
            // `std::thread` inside a longer path was already reported at the
            // `std` token; avoid double-reporting `std::thread::spawn`.
            if ctx.tokens[i].is_ident("thread")
                && i >= 2
                && ctx.tokens[i - 1].is_punct(':')
                && ctx.tokens[i - 2].is_punct(':')
            {
                continue;
            }
            out.push(finding(
                ctx,
                i,
                self.name(),
                "raw `std::thread` use outside bedom-par forks the execution model; \
                 go through `ExecutionStrategy`"
                    .to_string(),
            ));
        }
    }
}
