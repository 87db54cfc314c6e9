//! Workspace-wide observability for the BREL suite: spans, events,
//! counters, Chrome-trace export, and phase attribution.
//!
//! # Design
//!
//! Instrumentation sites call [`span()`] (RAII guard), [`event()`] or
//! [`event!`] (instant marker), or [`count`] (named counter). All are
//! gated on a global category bitmask held in a single `AtomicU32`: when
//! the category is disabled the call is one relaxed atomic load and an
//! immediate return — no clock read, no allocation, no lock. The
//! monotonic clock is only consulted inside the enabled path, so a
//! process that never installs a collector pays (almost) nothing for
//! being instrumented.
//!
//! With no collector installed (the default) the mask is `0` and nothing
//! is recorded. [`install`] arms a [`RecordingCollector`], which captures
//! every span and event for export as a Chrome trace-event JSON file
//! ([`RecordingCollector::chrome_trace`], loadable in Perfetto or
//! `chrome://tracing`) and for the aggregate [`PhaseReport`] (per-phase
//! total/self time and call counts).
//!
//! Spans land on *tracks* — one per worker thread by default, or named
//! explicitly via [`set_track`] so short-lived scoped threads (wide-mode
//! round workers) map onto one stable track per worker index.
//!
//! # Determinism contract
//!
//! Observability is strictly write-only with respect to the suite's
//! deterministic outputs. Timing and collector state never flow into any
//! deterministic serialization: batch JSON/CSV reports remain
//! byte-identical whether tracing is off, on, or recording, and across
//! worker counts. Traces and phase reports are emitted only through
//! side channels (a `--trace-out` file, stderr). The only timing values
//! in user-facing reports are the pre-existing `wall_micros` fields,
//! which stay behind the engine's explicit `include_timing` gates.
//!
//! The [`MetricsRegistry`] is the unified read side for the suite's
//! per-crate counter structs (`CacheStats`, `GcStats`, `ReuseStats`,
//! `SolveStats`): each struct exposes its fields as `(name, value)`
//! pairs that a registry absorbs under a dotted prefix, giving one flat,
//! sorted namespace over every layer's counters.

#![warn(missing_docs)]

mod chrome;
mod collector;
mod metrics;
mod report;

pub use chrome::{chrome_trace, escape_json_into};
pub use collector::{ArgList, EventRecord, PhaseAgg, RecordingCollector, SpanRecord};
pub use metrics::{Metric, MetricsRegistry};
pub use report::{PhaseReport, PhaseRow};

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Instrumentation categories; each maps to one bit of the global mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Category {
    /// BDD kernel lifecycle phases: the GC sweep.
    Kernel = 0,
    /// Per-operation kernel work: `ite`, quantification, ISOP. High
    /// frequency — collectors may aggregate these instead of keeping
    /// individual span records.
    KernelOp = 1,
    /// Search-layer work: `Explorer` expansions, frontier traffic.
    Search = 2,
    /// Engine-layer work: jobs, wide-mode rounds, dispatch/merge.
    Engine = 3,
    /// Session reuse: warm rehydration hits/misses, reset cost.
    Session = 4,
    /// Serve-layer work: connection accept, admission, queue wait,
    /// incumbent streaming, load shedding.
    Serve = 5,
}

impl Category {
    /// Every category enabled.
    pub const ALL: u32 = 0b11_1111;

    /// The mask bit for this category.
    #[inline]
    pub const fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Short lowercase label, used as the Chrome trace `cat` field.
    pub const fn label(self) -> &'static str {
        match self {
            Category::Kernel => "kernel",
            Category::KernelOp => "kernel-op",
            Category::Search => "search",
            Category::Engine => "engine",
            Category::Session => "session",
            Category::Serve => "serve",
        }
    }
}

/// Global category mask; `0` means every instrumentation site is inert.
static MASK: AtomicU32 = AtomicU32::new(0);

/// The installed collector. Read-locked once per *enabled* span/event;
/// never touched on the disabled fast path.
static COLLECTOR: RwLock<Option<Arc<RecordingCollector>>> = RwLock::new(None);

/// Shared epoch for all span timestamps, fixed at first use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds elapsed since `start`, saturating at `u64::MAX`.
///
/// The one shared wall-clock helper for the workspace (deduplicates the
/// former per-crate `u64::try_from(d.as_micros()).unwrap_or(u64::MAX)`
/// copies).
#[inline]
pub fn wall_micros(start: Instant) -> u64 {
    duration_micros(start.elapsed())
}

/// Microseconds in `d`, saturating at `u64::MAX`.
#[inline]
pub(crate) fn duration_micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[inline]
fn now_micros() -> u64 {
    wall_micros(*EPOCH.get_or_init(Instant::now))
}

/// Installs `collector` as the global sink and arms its category mask.
///
/// Spans already open keep reporting to the collector they captured at
/// open time, so swapping collectors mid-span is safe (if noisy).
pub fn install(collector: Arc<RecordingCollector>) {
    let mask = collector.mask();
    *COLLECTOR.write().unwrap_or_else(PoisonError::into_inner) = Some(collector);
    MASK.store(mask, Ordering::Release);
}

/// Removes the global collector; every instrumentation site goes inert.
pub fn uninstall() {
    MASK.store(0, Ordering::Release);
    *COLLECTOR.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Whether `cat` is currently enabled. One relaxed load.
#[inline]
pub fn enabled(cat: Category) -> bool {
    MASK.load(Ordering::Relaxed) & cat.bit() != 0
}

fn current_collector() -> Option<Arc<RecordingCollector>> {
    COLLECTOR
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

// ---------------------------------------------------------------------------
// Tracks
// ---------------------------------------------------------------------------

/// Interned track names, indexed by track id. Track `0` is reserved for
/// the process default ("main").
static TRACKS: Mutex<Vec<String>> = Mutex::new(Vec::new());

thread_local! {
    /// The track spans opened on this thread land on; lazily defaulted
    /// from the thread name.
    static CURRENT_TRACK: Cell<Option<u32>> = const { Cell::new(None) };
    /// Open-span nesting depth on this thread (enabled spans only).
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Interns `name` and returns its stable track id. Repeated calls with
/// the same name return the same id, so scoped threads respawned each
/// round can share one logical track.
pub(crate) fn intern_track(name: &str) -> u32 {
    let mut tracks = TRACKS.lock().unwrap_or_else(PoisonError::into_inner);
    if tracks.is_empty() {
        tracks.push("main".to_string());
    }
    if let Some(id) = tracks.iter().position(|t| t == name) {
        return id as u32;
    }
    tracks.push(name.to_string());
    (tracks.len() - 1) as u32
}

/// A snapshot of every interned track name, indexed by track id.
pub(crate) fn track_names() -> Vec<String> {
    let mut tracks = TRACKS.lock().unwrap_or_else(PoisonError::into_inner);
    if tracks.is_empty() {
        tracks.push("main".to_string());
    }
    tracks.clone()
}

/// Assigns the calling thread to the named track until the returned
/// guard drops (which restores the previous assignment).
pub fn set_track(name: &str) -> TrackGuard {
    let id = intern_track(name);
    let previous = CURRENT_TRACK.with(|t| t.replace(Some(id)));
    TrackGuard { previous }
}

/// Restores the thread's previous track assignment on drop. See
/// [`set_track`].
#[must_use = "dropping the guard immediately restores the previous track"]
pub struct TrackGuard {
    previous: Option<u32>,
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        CURRENT_TRACK.with(|t| t.set(self.previous));
    }
}

fn current_track() -> u32 {
    CURRENT_TRACK.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| "main".to_string());
            let id = intern_track(&name);
            t.set(Some(id));
            id
        }
    })
}

/// Current open-span nesting depth on this thread. Exposed so tests can
/// assert RAII guards rebalance the stack across panics.
pub fn current_depth() -> u32 {
    DEPTH.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Spans, events, counters
// ---------------------------------------------------------------------------

/// Opens a span; the span closes (and is reported) when the returned
/// guard drops, including during panic unwinding. Disabled categories
/// return an inert guard without reading the clock.
#[inline]
pub fn span(cat: Category, name: &'static str) -> SpanGuard {
    if !enabled(cat) {
        return SpanGuard { active: None };
    }
    SpanGuard::open(cat, name)
}

/// RAII span guard returned by [`span()`]; reports the completed span to
/// the collector on drop.
#[must_use = "dropping the guard ends the span immediately"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    collector: Arc<RecordingCollector>,
    cat: Category,
    name: &'static str,
    track: u32,
    depth: u32,
    start_us: u64,
    args: ArgList,
}

impl SpanGuard {
    #[inline(never)]
    fn open(cat: Category, name: &'static str) -> SpanGuard {
        let Some(collector) = current_collector() else {
            return SpanGuard { active: None };
        };
        let track = current_track();
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        SpanGuard {
            active: Some(ActiveSpan {
                collector,
                cat,
                name,
                track,
                depth,
                start_us: now_micros(),
                args: ArgList::new(),
            }),
        }
    }

    /// Attaches a small integer argument (shown in the trace viewer).
    /// No-op on an inert guard; at most [`ArgList::CAPACITY`] args stick.
    #[inline]
    pub fn arg(&mut self, key: &'static str, value: u64) -> &mut Self {
        if let Some(active) = &mut self.active {
            active.args.push(key, value);
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let end_us = now_micros();
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            active.collector.span(SpanRecord {
                cat: active.cat,
                name: active.name,
                track: active.track,
                start_us: active.start_us,
                dur_us: end_us.saturating_sub(active.start_us),
                depth: active.depth,
                args: active.args,
            });
        }
    }
}

/// Emits an instant event (a zero-duration marker on the thread's
/// track). Inert when `cat` is disabled. [`event!`] attaches arguments.
#[inline]
pub fn event(cat: Category, name: &'static str) {
    if enabled(cat) {
        emit_event(cat, name, ArgList::new());
    }
}

/// The enabled path of [`event!`]; not part of the public API.
#[doc(hidden)]
#[inline(never)]
pub fn emit_event(cat: Category, name: &'static str, args: ArgList) {
    if let Some(collector) = current_collector() {
        collector.event(EventRecord {
            cat,
            name,
            track: current_track(),
            ts_us: now_micros(),
            args,
        });
    }
}

/// Adds `delta` to the named collector counter. Inert when `cat` is
/// disabled.
#[inline]
pub fn count(cat: Category, name: &'static str, delta: u64) {
    if enabled(cat) {
        if let Some(collector) = current_collector() {
            collector.add(name, delta);
        }
    }
}

/// Measures the per-call cost, in nanoseconds, of opening a span whose
/// category the current mask rejects — the price instrumented code pays
/// when tracing is off. Callers probing the zero-overhead contract (the
/// CI gate, the bench harness) should [`uninstall`] first so the mask is
/// `0`; with a collector armed this records two million spans instead.
pub fn disabled_span_ns() -> u64 {
    const PROBES: u32 = 2_000_000;
    let start = Instant::now();
    for _ in 0..PROBES {
        let _guard = span(Category::Engine, "overhead_probe");
    }
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    nanos / u64::from(PROBES)
}

/// Emits an instant event with up to [`ArgList::CAPACITY`] `key => value`
/// arguments: `obs::event!(Category::Search, "improved", "cost" => c);`.
/// The arguments are evaluated only when the category is enabled, so a
/// disabled event costs one relaxed load however dear its arguments are.
#[macro_export]
macro_rules! event {
    ($cat:expr, $name:expr $(,)?) => {
        $crate::event($cat, $name)
    };
    ($cat:expr, $name:expr, $k1:literal => $v1:expr
        $(, $k2:literal => $v2:expr $(, $k3:literal => $v3:expr)?)? $(,)?) => {{
        let cat = $cat;
        if $crate::enabled(cat) {
            let mut args = $crate::ArgList::new();
            args.push($k1, $v1 as u64);
            $(args.push($k2, $v2 as u64); $(args.push($k3, $v3 as u64);)?)?
            $crate::emit_event(cat, $name, args);
        }
    }};
}

/// Opens a span with optional `key => value` arguments:
/// `let _g = obs::span!(Category::Engine, "round", "round" => i);`
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr) => {
        $crate::span($cat, $name)
    };
    ($cat:expr, $name:expr, $($key:literal => $value:expr),+ $(,)?) => {{
        let mut guard = $crate::span($cat, $name);
        $(guard.arg($key, $value as u64);)+
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn event_macro_evaluates_its_arguments_only_when_enabled() {
        let evaluated = AtomicU32::new(0);
        let value = |v: u64| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            v
        };
        let collector = Arc::new(RecordingCollector::with_mask(Category::Search.bit()));
        install(collector.clone());
        event!(Category::Engine, "off", "a" => value(1));
        event!(Category::Search, "on", "a" => value(1), "b" => value(2), "c" => value(3));
        event!(Category::Search, "bare");
        uninstall();
        assert_eq!(evaluated.load(Ordering::Relaxed), 3);
        let events = collector.events();
        let names: Vec<_> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["on", "bare"]);
        let args: Vec<_> = events[0].args.iter().collect();
        assert_eq!(args, [("a", 1), ("b", 2), ("c", 3)]);
        assert!(events[1].args.is_empty());
    }
}
