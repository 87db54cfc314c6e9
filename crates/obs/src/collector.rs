//! The [`RecordingCollector`], the one sink spans, events and counters
//! flow into while it is installed.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use crate::report::PhaseReport;
use crate::Category;

/// A fixed-capacity list of `(key, value)` span/event arguments. Kept
/// inline (no allocation) so attaching args to a hot span is cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArgList {
    entries: [Option<(&'static str, u64)>; Self::CAPACITY],
}

impl ArgList {
    /// Maximum number of arguments a span or event can carry.
    pub const CAPACITY: usize = 3;

    /// An empty argument list.
    pub fn new() -> ArgList {
        ArgList::default()
    }

    /// Appends an argument; silently dropped once full.
    pub fn push(&mut self, key: &'static str, value: u64) {
        for slot in &mut self.entries {
            if slot.is_none() {
                *slot = Some((key, value));
                return;
            }
        }
    }

    /// Iterates the populated arguments in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().filter_map(|slot| *slot)
    }

    /// Whether no arguments are attached.
    pub fn is_empty(&self) -> bool {
        self.entries[0].is_none()
    }
}

/// A completed span, reported to the collector when its guard drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's category.
    pub cat: Category,
    /// Static phase name (e.g. `"expand"`, `"barrier_wait"`).
    pub name: &'static str,
    /// Track id the span ran on; see `track_names`.
    pub track: u32,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth on its thread at open time (0 = top level).
    pub depth: u32,
    /// Attached integer arguments.
    pub args: ArgList,
}

impl SpanRecord {
    /// End timestamp, microseconds since the trace epoch.
    pub(crate) fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// An instant event (zero-duration marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// The event's category.
    pub cat: Category,
    /// Static event name (e.g. `"improved"`, `"warm_hit"`).
    pub name: &'static str,
    /// Track id the event fired on.
    pub track: u32,
    /// Timestamp, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Attached integer arguments.
    pub args: ArgList,
}

/// Per-phase aggregate: call count and total duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseAgg {
    /// Number of completed spans of this phase.
    pub count: u64,
    /// Sum of their durations, microseconds.
    pub total_us: u64,
}

#[derive(Default)]
struct AggState {
    phases: BTreeMap<(Category, &'static str), PhaseAgg>,
    events: BTreeMap<(Category, &'static str), u64>,
    counters: BTreeMap<&'static str, u64>,
}

impl AggState {
    fn absorb_span(&mut self, record: &SpanRecord) {
        let agg = self.phases.entry((record.cat, record.name)).or_default();
        agg.count += 1;
        agg.total_us = agg.total_us.saturating_add(record.dur_us);
    }
}

/// The named counters (explicit [`crate::count`] calls plus one
/// `events.<category>.<name>` count per event name), sorted by name.
fn collect_counters(state: &AggState) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = state
        .counters
        .iter()
        .map(|(&name, &v)| (name.to_string(), v))
        .collect();
    for (&(cat, name), &v) in &state.events {
        out.push((format!("events.{}.{}", cat.label(), name), v));
    }
    out.sort();
    out
}

#[derive(Default)]
struct RecordingState {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    agg: AggState,
}

/// Captures every span and event for Chrome-trace export and the
/// aggregate [`PhaseReport`].
///
/// [`Category::KernelOp`] spans (`ite`/quantify/ISOP — easily millions
/// per solve) are folded into the aggregates only, keeping `trace.json`
/// bounded.
#[derive(Default)]
pub struct RecordingCollector {
    mask: u32,
    state: Mutex<RecordingState>,
}

impl RecordingCollector {
    /// A recording collector armed for every category, kernel ops
    /// aggregated.
    pub fn new() -> RecordingCollector {
        RecordingCollector::with_mask(Category::ALL)
    }

    /// A recording collector armed for `mask`, kernel ops aggregated.
    pub fn with_mask(mask: u32) -> RecordingCollector {
        RecordingCollector {
            mask,
            state: Mutex::default(),
        }
    }

    /// Clones the recorded spans.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .spans
            .clone()
    }

    /// Clones the recorded instant events.
    pub fn events(&self) -> Vec<EventRecord> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .events
            .clone()
    }

    /// Snapshot of the named counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        collect_counters(&state.agg)
    }

    /// Renders everything recorded so far as Chrome trace-event JSON
    /// (load in Perfetto or `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        crate::chrome::chrome_trace(&state.spans, &state.events, &crate::track_names())
    }

    /// Builds the aggregate per-phase report (total/self time, counts)
    /// from everything recorded so far.
    pub fn phase_report(&self) -> PhaseReport {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let phases = state
            .agg
            .phases
            .iter()
            .map(|(&(cat, name), &agg)| (cat, name, agg))
            .collect::<Vec<_>>();
        PhaseReport::build(
            &state.spans,
            &phases,
            collect_counters(&state.agg),
            &crate::track_names(),
        )
    }

    /// Discards all recorded data, keeping the collector installed.
    pub fn clear(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = RecordingState::default();
    }
}

/// The sink side, called by the instrumentation sites while installed.
/// Thread-safe: spans arrive concurrently from every worker thread.
impl RecordingCollector {
    /// The category mask armed while this collector is installed.
    pub(crate) fn mask(&self) -> u32 {
        self.mask
    }

    /// Receives a completed span.
    pub(crate) fn span(&self, record: SpanRecord) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.agg.absorb_span(&record);
        if record.cat != Category::KernelOp {
            state.spans.push(record);
        }
    }

    /// Receives an instant event.
    pub(crate) fn event(&self, record: EventRecord) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state
            .agg
            .events
            .entry((record.cat, record.name))
            .or_default() += 1;
        state.events.push(record);
    }

    /// Adds `delta` to the named counter.
    pub(crate) fn add(&self, counter: &'static str, delta: u64) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state.agg.counters.entry(counter).or_default() += delta;
    }
}
