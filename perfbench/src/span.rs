//! Spans recorded by the benchmark around its calls into the library,
//! and the counting allocator that attributes allocations to them.
//!
//! A span has a name (`<layer>.<call>`), a start and an end, the span
//! that encloses it, and the operation it belongs to (one spec run, one
//! checkpoint, the resume, one serve cell). Spans stay in memory and are
//! written out once, when the workload ends. With tracing off a span is
//! a plain call: nothing is timed or stored.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Counts allocations while [`COUNTING`] is set (the traced run only);
/// otherwise a single relaxed load in front of the system allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Stops allocation counting (the traced repetition is over).
pub fn stop_counting() {
    COUNTING.store(false, Ordering::Relaxed);
}

fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One finished span. Times are nanoseconds since the tracer started;
/// allocation figures include the span's children.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Per-name totals over a workload's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub self_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// The span recorder. Disabled, it records nothing and times nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
    op: u64,
    probe_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        COUNTING.store(enabled, Ordering::Relaxed);
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
            op: 0,
            probe_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span only while tracing: extra work that splits
    /// a call's time into parts (the encode inside a save), which the
    /// untraced repetitions skip.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) {
        if self.enabled {
            let t0 = Instant::now();
            self.span(name, f);
            self.probe_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Seconds spent in [`Tracer::probe`] work, which the span overhead
    /// leaves out.
    pub fn probe_s(&self) -> f64 {
        self.probe_ns as f64 * 1e-9
    }

    /// Runs `f` as a new operation: its spans share a fresh identifier.
    /// `name` is the operation's kind (`op.spec`, `op.cell`, ...).
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.next_op += 1;
        let outer = std::mem::replace(&mut self.op, self.next_op);
        let out = self.span(name, f);
        self.op = outer;
        out
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let (a0, b0) = alloc_counts();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let (a1, b1) = alloc_counts();
        let end = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.allocs = a1 - a0;
        s.alloc_bytes = b1 - b0;
        out
    }

    /// Records a span whose interval was observed rather than wrapped:
    /// the serve cells, which run inside the server.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.next_op += 1;
        let span = Span {
            name,
            op: self.next_op,
            parent: self.open.last().copied(),
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            allocs: 0,
            alloc_bytes: 0,
        };
        self.spans.push(span);
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Self time and self allocations per span name: each span's figure
    /// minus the part its direct children account for.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        let mut child_bytes = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
                child_allocs[p] += s.allocs;
                child_bytes[p] += s.alloc_bytes;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            let own = s.end_ns.saturating_sub(s.start_ns);
            t.self_s += own.saturating_sub(child_ns[i]) as f64 * 1e-9;
            t.allocs += s.allocs.saturating_sub(child_allocs[i]);
            t.alloc_bytes += s.alloc_bytes.saturating_sub(child_bytes[i]);
        }
        out
    }

    /// The spans as NDJSON, one object per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}\n",
                s.name, s.op, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            ));
        }
        out
    }
}
