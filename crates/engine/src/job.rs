//! Portable job descriptions.
//!
//! Although the redesigned BDD layer is `Send` (a [`brel_bdd::BddSession`]
//! can cross threads), the engine still ships jobs as plain owned data — a
//! [`RelationSpec`] (canonical tabular rows) plus solver configuration —
//! and every worker rehydrates the relation into its own session before
//! solving. Rehydration is deterministic and a pure function of the
//! relation, so the same [`JobSpec`] produces the same solution on every
//! worker and at every worker count, and the canonical rows give the
//! cross-job cache a sound [`RelationSpec::fingerprint`] to key on.

use brel_core::{CostFn, SearchStrategy};
use brel_relation::{BooleanRelation, RelationError, RelationRow, RelationSpace};

use crate::fault::FaultPolicy;

/// Which solver implementation a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The output-ordered quick solver (Fig. 4 of the paper).
    Quick,
    /// The gyocro-style reduce–expand–irredundant baseline.
    Gyocro,
    /// The BREL recursive branch-and-bound solver (Fig. 6).
    Brel,
}

impl BackendKind {
    /// Short stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Quick => "quick",
            BackendKind::Gyocro => "gyocro",
            BackendKind::Brel => "brel",
        }
    }

    /// Every backend, in the deterministic portfolio order.
    pub fn all() -> [BackendKind; 3] {
        [BackendKind::Quick, BackendKind::Gyocro, BackendKind::Brel]
    }
}

/// The cost function a job minimizes: the clonable, thread-portable subset
/// of [`brel_core::CostFn`] (the `Custom` closure variant cannot cross
/// threads and is deliberately not representable here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostSpec {
    /// Sum of the BDD sizes of the outputs (area-oriented; the default).
    #[default]
    SumBddSize,
    /// Sum of the squared BDD sizes (delay-oriented).
    SumSquaredBddSize,
    /// Shared BDD size of all outputs.
    SharedBddSize,
    /// Number of cubes of the ISOP covers.
    CubeCount,
    /// Number of literals of the ISOP covers.
    LiteralCount,
}

impl CostSpec {
    /// Short stable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            CostSpec::SumBddSize => "sum-bdd-size",
            CostSpec::SumSquaredBddSize => "sum-squared-bdd-size",
            CostSpec::SharedBddSize => "shared-bdd-size",
            CostSpec::CubeCount => "cube-count",
            CostSpec::LiteralCount => "literal-count",
        }
    }

    /// Materializes the corresponding solver cost function.
    pub fn to_cost_fn(self) -> CostFn {
        match self {
            CostSpec::SumBddSize => CostFn::SumBddSize,
            CostSpec::SumSquaredBddSize => CostFn::SumSquaredBddSize,
            CostSpec::SharedBddSize => CostFn::SharedBddSize,
            CostSpec::CubeCount => CostFn::CubeCount,
            CostSpec::LiteralCount => CostFn::LiteralCount,
        }
    }
}

/// An owned, manager-free description of a Boolean relation: the dimension
/// of its space plus its tabular rows (see [`BooleanRelation::to_rows`]).
/// This is the serialization boundary jobs ride across threads.
///
/// Rows are stored in *canonical* form (merged inputs, sorted images,
/// empty images dropped, rows sorted by input vertex — see
/// [`brel_core::canonical_rows`]): two specs describing the same relation
/// compare equal however their rows were authored, rehydration is a pure
/// function of the relation rather than of row order, and the engine's
/// cross-job cache can key on [`RelationSpec::fingerprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSpec {
    num_inputs: usize,
    num_outputs: usize,
    rows: Vec<RelationRow>,
}

impl RelationSpec {
    /// The widest input or output vector a spec may declare. It equals
    /// the enumeration limit of [`BooleanRelation::to_rows`], so every
    /// spec [`RelationSpec::from_relation`] produces is within it. The
    /// bound is checked before rehydration allocates a space, so a
    /// hostile width (say, 4 billion inputs and no rows) is an error
    /// instead of an allocation abort.
    pub const MAX_WIDTH: usize = 16;

    /// Builds a spec from explicit rows, validating both widths and every
    /// vertex arity up front so that [`RelationSpec::rehydrate`] cannot
    /// fail later on a worker thread. The rows are canonicalized on the
    /// way in.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::TooLarge`] if either width exceeds
    /// [`RelationSpec::MAX_WIDTH`], and
    /// [`RelationError::DimensionMismatch`] if any vertex has the wrong
    /// arity.
    pub fn new(
        num_inputs: usize,
        num_outputs: usize,
        rows: Vec<RelationRow>,
    ) -> Result<Self, RelationError> {
        let widest = num_inputs.max(num_outputs);
        if widest > Self::MAX_WIDTH {
            return Err(RelationError::TooLarge {
                vars: widest,
                limit: Self::MAX_WIDTH,
            });
        }
        for (input, outputs) in &rows {
            if input.len() != num_inputs {
                return Err(RelationError::DimensionMismatch {
                    expected: num_inputs,
                    found: input.len(),
                });
            }
            for output in outputs {
                if output.len() != num_outputs {
                    return Err(RelationError::DimensionMismatch {
                        expected: num_outputs,
                        found: output.len(),
                    });
                }
            }
        }
        Ok(RelationSpec {
            num_inputs,
            num_outputs,
            rows: brel_core::canonical_rows(&rows),
        })
    }

    /// Exports a live relation into a portable spec.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::TooLarge`] if the relation's space cannot be
    /// enumerated exhaustively.
    pub fn from_relation(relation: &BooleanRelation) -> Result<Self, RelationError> {
        Ok(RelationSpec {
            num_inputs: relation.space().num_inputs(),
            num_outputs: relation.space().num_outputs(),
            rows: brel_core::canonical_rows(&relation.to_rows()?),
        })
    }

    /// Rebuilds the relation inside a fresh, private BDD manager: the
    /// one-shot convenience over [`crate::WarmSession::rehydrate`], which
    /// is the engine's single rehydration path (the worker pool and wide
    /// mode call it with persistent warm sessions instead).
    pub fn rehydrate(&self) -> (RelationSpace, BooleanRelation) {
        let (space, relation, _warm) = crate::reuse::WarmSession::cold().rehydrate(self);
        (space, relation)
    }

    /// The canonical 64-bit fingerprint of the relation these rows
    /// describe (see [`brel_core::relation_fingerprint`]): invariant under
    /// row order, duplicate pairs, unordered images and irrelevant input
    /// columns. The cross-job solved-subrelation cache keys on it.
    pub fn fingerprint(&self) -> u64 {
        brel_core::relation_fingerprint(self.num_inputs, self.num_outputs, &self.rows)
    }

    /// Number of input variables.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output variables.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The tabular rows.
    pub fn rows(&self) -> &[RelationRow] {
        &self.rows
    }
}

/// Per-job exploration budget, mapped onto each backend's own knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobBudget {
    /// BREL: maximum number of subrelations explored (`None` = unbounded).
    pub max_explored: Option<usize>,
    /// BREL: capacity of the pending-subrelation FIFO (`None` = unbounded).
    pub fifo_capacity: Option<usize>,
    /// gyocro: maximum number of full reduce–expand–irredundant passes.
    pub gyocro_max_passes: usize,
}

impl Default for JobBudget {
    fn default() -> Self {
        JobBudget {
            max_explored: Some(10),
            fifo_capacity: Some(64),
            gyocro_max_passes: 10,
        }
    }
}

/// One unit of work: a relation, the backends to race on it, the cost
/// function that scores them, and the exploration budget.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable job name (instance name in the benchmark corpora).
    pub name: String,
    /// The relation to solve.
    pub relation: RelationSpec,
    /// Backends to run on this job, in order. One backend is a plain solve;
    /// several form a portfolio whose cheapest solution wins.
    pub backends: Vec<BackendKind>,
    /// The cost function used both inside BREL and to score/compare results.
    pub cost: CostSpec,
    /// The exploration budget.
    pub budget: JobBudget,
    /// The frontier discipline of the BREL backend's exploration
    /// (`SearchStrategy` is plain-old-data, so it rides across threads with
    /// the rest of the spec). Ignored by the quick and gyocro backends.
    pub strategy: SearchStrategy,
    /// The fault policy: deadlines, the live-node quota, retries and the
    /// degradation switch (see [`FaultPolicy`]). The default policy is
    /// unrestricted with fallback enabled.
    pub fault: FaultPolicy,
}

impl JobSpec {
    /// A job solved by a single backend.
    pub fn single(name: impl Into<String>, relation: RelationSpec, backend: BackendKind) -> Self {
        JobSpec {
            name: name.into(),
            relation,
            backends: vec![backend],
            cost: CostSpec::default(),
            budget: JobBudget::default(),
            strategy: SearchStrategy::default(),
            fault: FaultPolicy::default(),
        }
    }

    /// A portfolio job racing every available backend.
    pub fn portfolio(name: impl Into<String>, relation: RelationSpec) -> Self {
        JobSpec {
            name: name.into(),
            relation,
            backends: BackendKind::all().to_vec(),
            cost: CostSpec::default(),
            budget: JobBudget::default(),
            strategy: SearchStrategy::default(),
            fault: FaultPolicy::default(),
        }
    }

    /// Sets the cost function.
    pub fn with_cost(mut self, cost: CostSpec) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the exploration budget.
    pub fn with_budget(mut self, budget: JobBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the BREL backend's search strategy.
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the fault policy.
    pub fn with_fault(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }
}

// The whole point of the job layer: specs must be free to cross threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<JobSpec>();
    assert_send_sync::<RelationSpec>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_spec() -> RelationSpec {
        let space = RelationSpace::new(2, 2);
        let r = BooleanRelation::from_table(&space, "00:{00}\n01:{00}\n10:{00,11}\n11:{10,11}")
            .unwrap();
        RelationSpec::from_relation(&r).unwrap()
    }

    #[test]
    fn spec_round_trips_through_a_private_manager() {
        let spec = fig1_spec();
        assert_eq!(spec.num_inputs(), 2);
        assert_eq!(spec.num_outputs(), 2);
        let (_space, r) = spec.rehydrate();
        assert!(r.is_well_defined());
        assert_eq!(r.num_pairs(), 6);
        assert_eq!(RelationSpec::from_relation(&r).unwrap(), spec);
    }

    #[test]
    fn spec_validates_arities_up_front() {
        assert!(RelationSpec::new(2, 2, vec![(vec![true], vec![])]).is_err());
        assert!(RelationSpec::new(2, 2, vec![(vec![true, false], vec![vec![true]])]).is_err());
        assert!(RelationSpec::new(2, 2, vec![(vec![true, false], vec![])]).is_ok());
    }

    #[test]
    fn spec_widths_are_bounded_before_anything_is_allocated() {
        let max = RelationSpec::MAX_WIDTH;
        assert!(RelationSpec::new(max, max, vec![]).is_ok());
        for (inputs, outputs) in [(max + 1, 1), (1, max + 1), (4_000_000_000, 1)] {
            assert_eq!(
                RelationSpec::new(inputs, outputs, vec![]),
                Err(RelationError::TooLarge {
                    vars: inputs.max(outputs),
                    limit: max,
                })
            );
        }
        // The widest relation `from_relation` can export is accepted.
        let space = RelationSpace::new(max, 1);
        let exported = RelationSpec::from_relation(&BooleanRelation::full(&space)).unwrap();
        let rows = exported.rows().to_vec();
        assert_eq!(RelationSpec::new(max, 1, rows).unwrap(), exported);
    }

    #[test]
    fn cost_spec_matches_core_cost_functions() {
        use brel_core::CostFunction;
        for cost in [
            CostSpec::SumBddSize,
            CostSpec::SumSquaredBddSize,
            CostSpec::SharedBddSize,
            CostSpec::CubeCount,
            CostSpec::LiteralCount,
        ] {
            assert_eq!(cost.name(), cost.to_cost_fn().name());
        }
    }

    #[test]
    fn builders_compose() {
        let job = JobSpec::portfolio("fig1", fig1_spec())
            .with_cost(CostSpec::LiteralCount)
            .with_budget(JobBudget {
                max_explored: None,
                ..JobBudget::default()
            })
            .with_strategy(SearchStrategy::BestFirst);
        assert_eq!(job.backends.len(), 3);
        assert_eq!(job.cost, CostSpec::LiteralCount);
        assert_eq!(job.budget.max_explored, None);
        assert_eq!(job.strategy, SearchStrategy::BestFirst);
        let single = JobSpec::single("fig1", fig1_spec(), BackendKind::Brel);
        assert_eq!(single.backends, vec![BackendKind::Brel]);
        assert_eq!(single.strategy, SearchStrategy::Fifo);
    }
}
