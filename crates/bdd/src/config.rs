//! Construction-time tuning of a BDD manager.
//!
//! Earlier kernel generations exposed the lifecycle knobs as ad-hoc
//! setters on the shared handle (`set_auto_gc`, `set_gc_threshold`) and
//! read the `BREL_BDD_*` environment variables deep inside the manager
//! constructor. Both paths are collapsed here: a [`BddConfig`] is built
//! once — programmatically or from the environment — and consumed at
//! session construction. One environment variable remains supported as a
//! *documented override*, parsed in exactly one place
//! ([`BddConfig::from_env`]):
//!
//! * `BREL_BDD_GC_MIN_NODES` — live-node floor of the automatic-GC
//!   growth trigger (a plain integer).
//!
//! The CI smoke runs use it to force a tiny GC threshold through every
//! solver path without touching call sites. The variable order is not a
//! setting: every manager keeps the order it was built with (see
//! [`crate::Var`]).

use std::sync::OnceLock;

use crate::gc::GcState;

/// Builder for a manager's lifecycle configuration, consumed at session
/// construction ([`crate::BddSession::with_config`]).
///
/// The default configuration matches the historical setter defaults:
/// automatic GC on with an 8 Ki live-node floor.
///
/// ```
/// use brel_bdd::{BddConfig, BddSession};
///
/// let session = BddSession::with_config(4, BddConfig::new().gc_min_nodes(256));
/// assert_eq!(session.num_vars(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddConfig {
    pub(crate) auto_gc: bool,
    pub(crate) gc_min_nodes: usize,
}

impl Default for BddConfig {
    fn default() -> Self {
        BddConfig {
            auto_gc: true,
            gc_min_nodes: GcState::DEFAULT_MIN_NODES,
        }
    }
}

impl BddConfig {
    /// The default configuration: automatic GC on with the standard
    /// live-node floor, environment ignored.
    pub fn new() -> Self {
        Self::default()
    }

    /// The default configuration with the `BREL_BDD_GC_MIN_NODES`
    /// environment override applied. This is the configuration the
    /// convenience constructors ([`crate::BddSession::new`],
    /// [`crate::BddManager::new`]) use, so an operator can
    /// re-tune a whole binary without a rebuild.
    ///
    /// The environment is read once per process and cached.
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Some(min_nodes) = env_gc_min_nodes() {
            config.gc_min_nodes = min_nodes;
        }
        config
    }

    /// Enables or disables automatic collection (explicit
    /// [`crate::BddSession::collect_garbage`] always works). Disable to
    /// pin an append-only arena for measurements.
    pub fn auto_gc(mut self, enabled: bool) -> Self {
        self.auto_gc = enabled;
        self
    }

    /// Sets the live-node floor of the automatic-GC growth trigger.
    /// Clamped to at least 2.
    pub fn gc_min_nodes(mut self, min_nodes: usize) -> Self {
        self.gc_min_nodes = min_nodes.max(2);
        self
    }
}

/// The process-wide `BREL_BDD_GC_MIN_NODES` override, read once.
fn env_gc_min_nodes() -> Option<usize> {
    static MIN_NODES: OnceLock<Option<usize>> = OnceLock::new();
    *MIN_NODES.get_or_init(|| {
        std::env::var("BREL_BDD_GC_MIN_NODES")
            .ok()
            .and_then(|v| v.parse().ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_defaults() {
        let c = BddConfig::new().auto_gc(false).gc_min_nodes(100);
        assert!(!c.auto_gc);
        assert_eq!(c.gc_min_nodes, 100);
    }

    #[test]
    fn gc_floor_is_clamped() {
        assert_eq!(BddConfig::new().gc_min_nodes(0).gc_min_nodes, 2);
    }

    #[test]
    fn default_matches_historical_setters() {
        let c = BddConfig::default();
        assert!(c.auto_gc);
        assert_eq!(c.gc_min_nodes, GcState::DEFAULT_MIN_NODES);
    }
}
