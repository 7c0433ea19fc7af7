//! Opt-in instrumented global allocator: alloc/dealloc/live/peak
//! accounting cheap enough to leave on.
//!
//! [`CountingAlloc`] wraps the system allocator. Binaries that want
//! memory observability install it once:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: topics_obs::alloc::CountingAlloc = topics_obs::alloc::CountingAlloc;
//! ```
//!
//! Counting is **off by default** — the hot path then costs exactly one
//! relaxed atomic load and a branch — and is switched on with
//! [`set_enabled`] (the CLI's `--alloc-stats` flag). When on, every
//! allocation updates process-wide *and* thread-local counters with
//! relaxed atomics / plain `Cell`s: no locks, no allocation, no
//! syscalls, so the allocator can never re-enter itself.
//!
//! Two accounting scopes sit on top of the raw counters:
//!
//! * [`AllocSpan`] — a *thread-local* delta scope for one unit of work
//!   (one visit, one probe, one page load). Nesting is supported: a
//!   child span's peak watermark is folded back into its parent on
//!   finish.
//! * [`WindowSpan`] — a *process-wide* delta scope for one pipeline
//!   phase (all worker threads included). Top-level phases run
//!   sequentially, so resetting the window peak watermark at phase
//!   start is sound.
//!
//! The deltas become `alloc_bytes`/`alloc_count`/`peak_bytes` span
//! attributes on the trace, which [`crate::Trace::stripped`] removes —
//! allocation counts depend on thread scheduling and allocator
//! internals, so they are *operational* data, outside the determinism
//! contract. Crucially the counters only ever *observe*: enabling or
//! disabling them cannot change a single byte of `campaign.col` or a
//! stripped trace (the determinism suite pins this).

// The one place in the workspace that genuinely needs `unsafe`: a
// `GlobalAlloc` impl is an unsafe trait by definition. Everything the
// impl does beyond forwarding to `System` is lock-free arithmetic.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Number of power-of-two size classes tracked (2⁰ … 2⁴⁷ bytes; larger
/// allocations fold into the last class).
pub const SIZE_CLASSES: usize = 48;

static ENABLED: AtomicBool = AtomicBool::new(false);

// Process-wide counters (relaxed; read with `global_stats`).
static G_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static G_ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static G_DEALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static G_DEALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
/// Net live bytes. Signed: a thread may free memory another allocated.
static G_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// High-water mark of `G_LIVE_BYTES` since process start (never reset).
static G_PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark since the last [`WindowSpan`] start (resettable).
static G_WINDOW_PEAK: AtomicU64 = AtomicU64::new(0);

/// Per-size-class allocation counts (index = ⌈log₂ size⌉, capped).
static G_SIZE_CLASSES: [AtomicU64; SIZE_CLASSES] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; SIZE_CLASSES]
};

thread_local! {
    // Plain-data cells (no `Drop`), so no TLS destructor is registered
    // and access from inside the allocator is always safe.
    static T_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static T_ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static T_DEALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static T_DEALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static T_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static T_PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The instrumented allocator. Install as `#[global_allocator]`;
/// counting stays off until [`set_enabled`] flips it on.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

#[inline]
fn size_class(size: usize) -> usize {
    // ⌈log₂ size⌉, with size 0/1 in class 0.
    let bits = usize::BITS - size.max(1).next_power_of_two().leading_zeros() - 1;
    (bits as usize).min(SIZE_CLASSES - 1)
}

#[inline]
fn record_alloc(size: usize) {
    let bytes = size as u64;
    G_ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    G_ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    G_SIZE_CLASSES[size_class(size)].fetch_add(1, Ordering::Relaxed);
    let live = G_LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    if live > 0 {
        G_PEAK_BYTES.fetch_max(live as u64, Ordering::Relaxed);
        G_WINDOW_PEAK.fetch_max(live as u64, Ordering::Relaxed);
    }
    // `try_with` only fails during thread teardown; drop the sample.
    let _ = T_ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = T_ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = T_LIVE_BYTES.try_with(|c| {
        let live = c.get() + size as i64;
        c.set(live);
        let _ = T_PEAK_BYTES.try_with(|p| p.set(p.get().max(live)));
    });
}

#[inline]
fn record_dealloc(size: usize) {
    let bytes = size as u64;
    G_DEALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    G_DEALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    G_LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
    let _ = T_DEALLOC_BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = T_DEALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = T_LIVE_BYTES.try_with(|c| c.set(c.get() - size as i64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ENABLED.load(Ordering::Relaxed) {
            record_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ENABLED.load(Ordering::Relaxed) {
            // Count a grow/shrink as a fresh allocation of the new size
            // plus a free of the old one, on both scopes, so alloc and
            // dealloc totals stay balanced.
            record_alloc(new_size);
            record_dealloc(layout.size());
        }
        p
    }
}

/// Turn counting on or off. Off (the default) reduces the allocator to
/// one relaxed load per call. Counters are *not* reset by disabling, so
/// a snapshot after a run still reads the run's totals.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether allocations are currently being counted.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A point-in-time copy of one accounting scope's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes allocated (cumulative, including freed-again memory).
    pub alloc_bytes: u64,
    /// Allocation calls.
    pub alloc_count: u64,
    /// Bytes deallocated.
    pub dealloc_bytes: u64,
    /// Deallocation calls.
    pub dealloc_count: u64,
    /// Net live bytes right now (can go negative per-thread when a
    /// thread frees memory another allocated; clamped to 0 here).
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
}

/// Process-wide counters since the process started counting.
pub fn global_stats() -> AllocStats {
    AllocStats {
        alloc_bytes: G_ALLOC_BYTES.load(Ordering::Relaxed),
        alloc_count: G_ALLOC_COUNT.load(Ordering::Relaxed),
        dealloc_bytes: G_DEALLOC_BYTES.load(Ordering::Relaxed),
        dealloc_count: G_DEALLOC_COUNT.load(Ordering::Relaxed),
        live_bytes: G_LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: G_PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// This thread's counters since it started counting.
pub fn thread_stats() -> AllocStats {
    AllocStats {
        alloc_bytes: T_ALLOC_BYTES.with(Cell::get),
        alloc_count: T_ALLOC_COUNT.with(Cell::get),
        dealloc_bytes: T_DEALLOC_BYTES.with(Cell::get),
        dealloc_count: T_DEALLOC_COUNT.with(Cell::get),
        live_bytes: T_LIVE_BYTES.with(Cell::get).max(0) as u64,
        peak_bytes: T_PEAK_BYTES.with(Cell::get).max(0) as u64,
    }
}

/// The measured allocation delta of a finished [`AllocSpan`] or
/// [`WindowSpan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Bytes allocated inside the scope.
    pub alloc_bytes: u64,
    /// Allocation calls inside the scope.
    pub alloc_count: u64,
    /// Bytes deallocated inside the scope.
    pub dealloc_bytes: u64,
    /// Peak of (live bytes − live bytes at scope start) while the scope
    /// ran; 0 when the scope only freed memory.
    pub peak_bytes: u64,
}

impl AllocDelta {
    /// True when nothing was recorded (counting off, or a zero scope).
    pub fn is_zero(&self) -> bool {
        *self == AllocDelta::default()
    }
}

/// Field-wise sum: the deltas of scopes that split one piece of work
/// across threads. The summed peak is an upper bound of their joint
/// peak, which is exact only when the scopes' peaks coincide.
impl std::ops::Add for AllocDelta {
    type Output = AllocDelta;

    fn add(self, other: AllocDelta) -> AllocDelta {
        AllocDelta {
            alloc_bytes: self.alloc_bytes + other.alloc_bytes,
            alloc_count: self.alloc_count + other.alloc_count,
            dealloc_bytes: self.dealloc_bytes + other.dealloc_bytes,
            peak_bytes: self.peak_bytes + other.peak_bytes,
        }
    }
}

impl std::iter::Sum for AllocDelta {
    fn sum<I: Iterator<Item = AllocDelta>>(deltas: I) -> AllocDelta {
        deltas.fold(AllocDelta::default(), |a, b| a + b)
    }
}

/// Thread-local allocation scope for one unit of work. Create with
/// [`AllocSpan::start`], finish with [`AllocSpan::finish`]; the scope
/// is a no-op (all-zero delta) while counting is disabled.
#[derive(Debug)]
#[must_use = "an unfinished AllocSpan measures nothing"]
pub struct AllocSpan {
    active: bool,
    start_alloc_bytes: u64,
    start_alloc_count: u64,
    start_dealloc_bytes: u64,
    start_live: i64,
    /// Parent scope's watermark, folded back in on finish.
    outer_peak: i64,
}

impl AllocSpan {
    /// Open a scope at the current thread counters and reset the
    /// thread's peak watermark to the current live level.
    pub fn start() -> AllocSpan {
        if !is_enabled() {
            return AllocSpan {
                active: false,
                start_alloc_bytes: 0,
                start_alloc_count: 0,
                start_dealloc_bytes: 0,
                start_live: 0,
                outer_peak: 0,
            };
        }
        let live = T_LIVE_BYTES.with(Cell::get);
        let outer_peak = T_PEAK_BYTES.with(|p| p.replace(live));
        AllocSpan {
            active: true,
            start_alloc_bytes: T_ALLOC_BYTES.with(Cell::get),
            start_alloc_count: T_ALLOC_COUNT.with(Cell::get),
            start_dealloc_bytes: T_DEALLOC_BYTES.with(Cell::get),
            start_live: live,
            outer_peak,
        }
    }

    /// Close the scope: the delta since [`AllocSpan::start`], with the
    /// parent watermark restored (so nested spans never hide a peak
    /// from their enclosing span).
    pub fn finish(self) -> AllocDelta {
        if !self.active {
            return AllocDelta::default();
        }
        let peak = T_PEAK_BYTES.with(|p| {
            let inner = p.get();
            p.set(inner.max(self.outer_peak));
            inner
        });
        AllocDelta {
            alloc_bytes: T_ALLOC_BYTES.with(Cell::get) - self.start_alloc_bytes,
            alloc_count: T_ALLOC_COUNT.with(Cell::get) - self.start_alloc_count,
            dealloc_bytes: T_DEALLOC_BYTES.with(Cell::get) - self.start_dealloc_bytes,
            peak_bytes: (peak - self.start_live).max(0) as u64,
        }
    }
}

/// Process-wide allocation scope for one pipeline phase. All threads'
/// allocations land in the delta. Top-level phases run sequentially, so
/// the window peak watermark can be reset at scope start; do not nest
/// two `WindowSpan`s concurrently (the inner reset would truncate the
/// outer watermark — thread scopes use [`AllocSpan`] instead).
#[derive(Debug)]
#[must_use = "an unfinished WindowSpan measures nothing"]
pub struct WindowSpan {
    active: bool,
    start_alloc_bytes: u64,
    start_alloc_count: u64,
    start_dealloc_bytes: u64,
    start_live: u64,
}

impl WindowSpan {
    /// Open a process-wide scope and reset the window peak watermark.
    pub fn start() -> WindowSpan {
        if !is_enabled() {
            return WindowSpan {
                active: false,
                start_alloc_bytes: 0,
                start_alloc_count: 0,
                start_dealloc_bytes: 0,
                start_live: 0,
            };
        }
        let live = G_LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64;
        G_WINDOW_PEAK.store(live, Ordering::Relaxed);
        WindowSpan {
            active: true,
            start_alloc_bytes: G_ALLOC_BYTES.load(Ordering::Relaxed),
            start_alloc_count: G_ALLOC_COUNT.load(Ordering::Relaxed),
            start_dealloc_bytes: G_DEALLOC_BYTES.load(Ordering::Relaxed),
            start_live: live,
        }
    }

    /// Close the scope and return the process-wide delta.
    pub fn finish(self) -> AllocDelta {
        if !self.active {
            return AllocDelta::default();
        }
        let peak = G_WINDOW_PEAK.load(Ordering::Relaxed);
        AllocDelta {
            alloc_bytes: G_ALLOC_BYTES.load(Ordering::Relaxed) - self.start_alloc_bytes,
            alloc_count: G_ALLOC_COUNT.load(Ordering::Relaxed) - self.start_alloc_count,
            dealloc_bytes: G_DEALLOC_BYTES.load(Ordering::Relaxed) - self.start_dealloc_bytes,
            peak_bytes: peak.saturating_sub(self.start_live),
        }
    }
}

/// Per-size-class allocation counts as `(inclusive upper bound, count)`
/// pairs, smallest class first. Only classes with observations are
/// returned.
pub fn size_class_counts() -> Vec<(u64, u64)> {
    G_SIZE_CLASSES
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let n = c.load(Ordering::Relaxed);
            (n > 0).then_some((1u64 << i, n))
        })
        .collect()
}

/// OS-reported peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Publish the current allocation counters into a metrics registry:
/// `mem_*` gauges (live heap, process peak, counter totals, OS peak
/// RSS) plus the `alloc_size_bytes` histogram on power-of-two buckets.
/// All of these are operational series, removed by
/// [`crate::MetricsSnapshot::strip_wall_clock`].
pub fn publish(metrics: &crate::MetricsRegistry) {
    let stats = global_stats();
    metrics
        .gauge("mem_alloc_bytes")
        .set(stats.alloc_bytes as i64);
    metrics
        .gauge("mem_alloc_count")
        .set(stats.alloc_count as i64);
    metrics
        .gauge("mem_dealloc_bytes")
        .set(stats.dealloc_bytes as i64);
    metrics.gauge("mem_live_bytes").set(stats.live_bytes as i64);
    metrics.gauge("mem_peak_bytes").set(stats.peak_bytes as i64);
    if let Some(rss) = peak_rss_bytes() {
        metrics.gauge("mem_peak_rss_bytes").set(rss as i64);
    }
    let hist = metrics.histogram_with_buckets(
        "alloc_size_bytes",
        crate::metrics::DEFAULT_SIZE_BUCKETS_BYTES,
    );
    for (bound, count) in size_class_counts() {
        hist.observe_n(bound, count);
    }
}

/// Allocate (and immediately release) `bytes` of heap in bounded
/// chunks. This exists for the `mem-regression-fixture` CI feature: a
/// deliberate, measurable allocation regression that the perf ledger
/// must catch. Each chunk goes through `black_box` so the allocator
/// calls cannot be optimised away.
pub fn ballast(bytes: u64) {
    const CHUNK: u64 = 1 << 22; // 4 MiB
    let mut left = bytes;
    while left > 0 {
        let take = left.min(CHUNK) as usize;
        let chunk: Vec<u8> = std::hint::black_box(Vec::with_capacity(take));
        drop(chunk);
        left -= take as u64;
    }
}
