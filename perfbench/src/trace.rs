//! Spans recorded around calls into the library's public functions, and the
//! allocation counters the traced binary's global allocator bumps.
//!
//! A span holds a name, start and end (nanoseconds since the tracer began),
//! its parent, and the allocations made while it was open. Spans stay in
//! memory and are written out as JSON lines when the run ends. A layer's
//! self time is the time of its spans minus the time of their child spans.

#![allow(unsafe_code)] // the counting allocator implements `GlobalAlloc`

use crate::stats::Outcome;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocations and allocated bytes so far, across all threads. Both stay 0
/// unless the running binary installed [`CountingAlloc`].
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The system allocator plus two statistics counters (relaxed atomics: they
/// publish no other data). Only `perfbench-traced` installs it.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and never touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System` underneath.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `dist_wreach.protocol`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Allocations made while the span was open (0 without the counting
    /// allocator).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let (allocs, bytes) = alloc_counts();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            allocs,
            alloc_bytes: bytes,
        });
        self.open.push(index);
        let out = body(self);
        self.open.pop();
        let end = self.now_ns();
        let (allocs, bytes) = alloc_counts();
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = bytes - span.alloc_bytes;
        out
    }

    /// Records a span measured elsewhere (e.g. on a worker thread, with
    /// times from [`Tracer::now_ns`]) under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            allocs: 0,
            alloc_bytes: 0,
        });
    }

    /// Every span recorded so far, in start order of their `span` calls.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index the next span will get (for [`Tracer::record`] parents).
    pub fn next_index(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: each span's duration minus its direct
    /// children's durations, summed by name.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total duration per span name, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Total allocations and bytes per span name.
    pub fn allocs(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(a, b), s| (a + s.allocs, b + s.alloc_bytes))
    }

    /// Writes the spans as JSON lines, each tagged with the workload and
    /// seed, to `path`.
    pub fn write_jsonl(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"workload\": \"{workload}\", \"seed\": {seed}, \"allocs\": {}, \"alloc_bytes\": {}}}\n",
                s.name, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            ));
        }
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        file.write_all(out.as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Span names and the per-layer self-time metric each one feeds.
const LAYER_SPANS: [(&str, &str); 10] = [
    ("graph.lower_bound", "graph.lower_bound_s"),
    ("wcol.order", "wcol.order_s"),
    ("dist_wreach.protocol", "dist_wreach.protocol_s"),
    ("dist_domset.election", "dist_domset.election_s"),
    ("context.index", "context.index_s"),
    ("context.reads", "context.reads_s"),
    ("context.drop", "context.drop_s"),
    ("dist_ksv.protocol", "dist_ksv.protocol_s"),
    ("seq_domset.solve", "seq_domset.solve_s"),
    ("dist_cover.cover", "dist_cover.cover_s"),
];

/// Self times, allocation counts and the trace's own figures. `pass` is the
/// root span; its wall time is the traced `solve_s`.
pub fn layer_metrics(out: &mut Outcome, tr: &Tracer, untraced_solve_s: f64) {
    let own = tr.self_secs();
    let mut layer_sum = 0.0;
    for (span, metric) in LAYER_SPANS {
        let secs = own.get(span).copied().unwrap_or(0.0);
        layer_sum += secs;
        out.add(metric, secs);
    }
    out.set(
        "dist_wreach.allocs",
        tr.allocs("dist_wreach.protocol").0 as f64,
    );
    out.set("context.index_allocs", tr.allocs("context.index").0 as f64);
    let (ksv_allocs, ksv_bytes) = tr.allocs("dist_ksv.protocol");
    out.set("dist_ksv.allocs", ksv_allocs as f64);
    out.set("dist_ksv.alloc_bytes", ksv_bytes as f64);
    let traced = tr.total_secs("pass");
    out.set("trace.solve_s", traced);
    out.set("trace.coverage", layer_sum / traced.max(1e-12));
    out.set("trace_overhead", traced / untraced_solve_s.max(1e-12));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let own = t.self_secs();
        assert!(own["child"] >= 0.02);
        assert!(own["root"] >= 0.01 && own["root"] < own["child"] + 0.05);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!((own["root"] + own["child"] - t.total_secs("root")).abs() < 1e-9);
    }
}
