//! The unified metrics registry: one flat, sorted namespace of named
//! `u64` counters/gauges over every layer's statistics.
//!
//! The suite's per-crate stats structs (`CacheStats`, `GcStats`,
//! `ReuseStats`, `SolveStats`) each expose their fields as
//! `(name, value)` pairs; [`MetricsRegistry::absorb`] files them under a
//! dotted prefix (e.g. `kernel.cache.cache_hits`), making the structs
//! typed views over one registry rather than four unrelated silos.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A handle to one named metric; cheap to clone, updates are atomic.
#[derive(Debug, Clone, Default)]
pub struct Metric(Arc<AtomicU64>);

impl Metric {
    /// Adds `delta` (counter-style).
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrites the value (gauge-style).
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registry of named metrics. Handle lookup takes a lock; updates
/// through a held [`Metric`] handle are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the handle for `name`, registering it at zero first if
    /// needed.
    pub fn metric(&self, name: &str) -> Metric {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(metric) = metrics.get(name) {
            return metric.clone();
        }
        let metric = Metric::default();
        metrics.insert(name.to_string(), metric.clone());
        metric
    }

    /// Sets `prefix.name` for every `(name, value)` pair — the bridge
    /// from a stats-struct snapshot into the registry namespace.
    pub fn absorb(&self, prefix: &str, pairs: &[(&str, u64)]) {
        for &(name, value) in pairs {
            self.metric(&format!("{prefix}.{name}")).set(value);
        }
    }

    /// Adds (rather than sets) every pair under `prefix`, for
    /// accumulating deltas across jobs or rounds.
    pub fn absorb_delta(&self, prefix: &str, pairs: &[(&str, u64)]) {
        for &(name, value) in pairs {
            self.metric(&format!("{prefix}.{name}")).add(value);
        }
    }

    /// Snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        metrics
            .iter()
            .map(|(name, metric)| (name.clone(), metric.get()))
            .collect()
    }

    /// Renders the snapshot as aligned `name value` lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            out.push_str(&format!("  {name:<44} {value}\n"));
        }
        out
    }
}
