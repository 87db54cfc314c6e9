//! The variable space shared by relations, ISFs and functions.

use std::fmt;
use std::sync::Arc;

use brel_bdd::{Bdd, BddConfig, BddSession, GcStats, Var};

use crate::error::RelationError;

struct SpaceInner {
    mgr: BddSession,
    inputs: Vec<Var>,
    outputs: Vec<Var>,
    input_names: Vec<String>,
    output_names: Vec<String>,
}

/// The space `𝔹ⁿ × 𝔹ᵐ` a Boolean relation lives in: a shared BDD manager
/// with `n` input variables followed by `m` output variables.
///
/// The space is cheaply clonable and — like the [`BddSession`] it wraps —
/// `Send`, so a space (with all its relations dropped or along for the
/// ride) can move between threads. All objects built from the same space
/// share one BDD manager, which is what gives the solver its node sharing
/// across subrelations (Section 7.1 of the paper).
#[derive(Clone)]
pub struct RelationSpace {
    inner: Arc<SpaceInner>,
}

impl fmt::Debug for RelationSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RelationSpace(inputs={}, outputs={})",
            self.num_inputs(),
            self.num_outputs()
        )
    }
}

impl RelationSpace {
    /// Creates a space with `num_inputs` input variables (named `x0..`) and
    /// `num_outputs` output variables (named `y0..`). Inputs are placed
    /// above outputs in the BDD variable order.
    pub fn new(num_inputs: usize, num_outputs: usize) -> Self {
        Self::from_session(
            BddSession::new(num_inputs + num_outputs),
            num_inputs,
            num_outputs,
        )
    }

    /// Creates a space with an explicit kernel lifecycle configuration
    /// (see [`BddConfig`]); the former per-manager knob setters are gone.
    pub fn with_config(num_inputs: usize, num_outputs: usize, config: BddConfig) -> Self {
        Self::from_session(
            BddSession::with_config(num_inputs + num_outputs, config),
            num_inputs,
            num_outputs,
        )
    }

    /// Wraps an existing session — typically a freshly [`BddSession::reset`]
    /// warm worker session — as a relation space. The session must already
    /// have exactly `num_inputs + num_outputs` variables; the first
    /// `num_inputs` become the inputs, the rest the outputs, and they are
    /// (re)named `x0..`/`y0..`.
    ///
    /// # Panics
    ///
    /// Panics if the session's variable count does not match.
    pub fn from_session(mgr: BddSession, num_inputs: usize, num_outputs: usize) -> Self {
        assert_eq!(
            mgr.num_vars(),
            num_inputs + num_outputs,
            "session variable count does not match the space arity"
        );
        let inputs: Vec<Var> = (0..num_inputs).map(Var::from).collect();
        let outputs: Vec<Var> = (num_inputs..num_inputs + num_outputs)
            .map(Var::from)
            .collect();
        let input_names: Vec<String> = (0..num_inputs).map(|i| format!("x{i}")).collect();
        let output_names: Vec<String> = (0..num_outputs).map(|i| format!("y{i}")).collect();
        for (v, n) in inputs.iter().zip(&input_names) {
            mgr.set_var_name(*v, n.clone());
        }
        for (v, n) in outputs.iter().zip(&output_names) {
            mgr.set_var_name(*v, n.clone());
        }
        RelationSpace {
            inner: Arc::new(SpaceInner {
                mgr,
                inputs,
                outputs,
                input_names,
                output_names,
            }),
        }
    }

    /// Creates a space with named variables.
    pub fn with_names(input_names: &[&str], output_names: &[&str]) -> Self {
        let space = RelationSpace::new(input_names.len(), output_names.len());
        // The session is fresh and unshared here, so names can be set
        // through the manager.
        for (i, name) in input_names.iter().enumerate() {
            space.inner.mgr.set_var_name(space.inner.inputs[i], *name);
        }
        for (i, name) in output_names.iter().enumerate() {
            space.inner.mgr.set_var_name(space.inner.outputs[i], *name);
        }
        let inner = SpaceInner {
            mgr: space.inner.mgr.clone(),
            inputs: space.inner.inputs.clone(),
            outputs: space.inner.outputs.clone(),
            input_names: input_names.iter().map(|s| s.to_string()).collect(),
            output_names: output_names.iter().map(|s| s.to_string()).collect(),
        };
        RelationSpace {
            inner: Arc::new(inner),
        }
    }

    /// Returns `true` if both handles denote the same space.
    pub(crate) fn same_space(&self, other: &RelationSpace) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The shared BDD manager.
    pub fn mgr(&self) -> &BddSession {
        &self.inner.mgr
    }

    /// The shared manager's lifecycle counters (collections, reclaimed
    /// nodes, live and peak live nodes).
    pub fn gc_stats(&self) -> GcStats {
        self.inner.mgr.gc_stats()
    }

    /// Number of input variables.
    pub fn num_inputs(&self) -> usize {
        self.inner.inputs.len()
    }

    /// Number of output variables.
    pub fn num_outputs(&self) -> usize {
        self.inner.outputs.len()
    }

    /// The BDD variables of the inputs, in order.
    pub fn input_vars(&self) -> &[Var] {
        &self.inner.inputs
    }

    /// The BDD variables of the outputs, in order.
    pub fn output_vars(&self) -> &[Var] {
        &self.inner.outputs
    }

    /// The BDD variable of output `j`.
    pub fn output_var(&self, j: usize) -> Var {
        self.inner.outputs[j]
    }

    /// Name of input `i`.
    pub fn input_name(&self, i: usize) -> &str {
        &self.inner.input_names[i]
    }

    /// Name of output `j`.
    pub fn output_name(&self, j: usize) -> &str {
        &self.inner.output_names[j]
    }

    /// The projection literal of input `i`.
    pub fn input(&self, i: usize) -> Bdd {
        self.inner.mgr.var(self.inner.inputs[i])
    }

    /// The projection literal of output `j`.
    pub fn output(&self, j: usize) -> Bdd {
        self.inner.mgr.var(self.inner.outputs[j])
    }

    /// Builds the minterm BDD of an input vertex.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::DimensionMismatch`] if `bits` has the wrong
    /// length.
    pub fn input_minterm(&self, bits: &[bool]) -> Result<Bdd, RelationError> {
        if bits.len() != self.num_inputs() {
            return Err(RelationError::DimensionMismatch {
                expected: self.num_inputs(),
                found: bits.len(),
            });
        }
        let lits: Vec<(Var, bool)> = self
            .inner
            .inputs
            .iter()
            .zip(bits.iter())
            .map(|(&v, &b)| (v, b))
            .collect();
        Ok(self.inner.mgr.cube(&lits))
    }

    /// Builds the minterm BDD of an output vertex.
    ///
    /// # Errors
    ///
    /// Returns [`RelationError::DimensionMismatch`] if `bits` has the wrong
    /// length.
    pub fn output_minterm(&self, bits: &[bool]) -> Result<Bdd, RelationError> {
        if bits.len() != self.num_outputs() {
            return Err(RelationError::DimensionMismatch {
                expected: self.num_outputs(),
                found: bits.len(),
            });
        }
        let lits: Vec<(Var, bool)> = self
            .inner
            .outputs
            .iter()
            .zip(bits.iter())
            .map(|(&v, &b)| (v, b))
            .collect();
        Ok(self.inner.mgr.cube(&lits))
    }

    /// Builds a full assignment (indexed by BDD variable) from input and
    /// output vertex bits, suitable for evaluating characteristic functions.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `output` are longer than the corresponding
    /// variable lists.
    pub fn full_assignment(&self, input: &[bool], output: &[bool]) -> Vec<bool> {
        let mut asg = vec![false; self.inner.mgr.num_vars()];
        for (v, &b) in self.inner.inputs.iter().zip(input) {
            asg[v.index()] = b;
        }
        for (v, &b) in self.inner.outputs.iter().zip(output) {
            asg[v.index()] = b;
        }
        asg
    }

    /// Iterates over all input vertices (as bit vectors), LSB-first in input
    /// index order.
    ///
    /// # Panics
    ///
    /// Panics if the space has more than 24 inputs (exhaustive enumeration
    /// would be unreasonable).
    pub fn enumerate_inputs(&self) -> Vec<Vec<bool>> {
        let n = self.num_inputs();
        assert!(n <= 24, "too many inputs for exhaustive enumeration");
        (0..(1u64 << n))
            .map(|bits| (0..n).map(|i| bits & (1 << i) != 0).collect())
            .collect()
    }

    /// Iterates over all output vertices (as bit vectors).
    ///
    /// # Panics
    ///
    /// Panics if the space has more than 24 outputs.
    pub(crate) fn enumerate_outputs(&self) -> Vec<Vec<bool>> {
        let m = self.num_outputs();
        assert!(m <= 24, "too many outputs for exhaustive enumeration");
        (0..(1u64 << m))
            .map(|bits| (0..m).map(|i| bits & (1 << i) != 0).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variables_are_ordered_inputs_then_outputs() {
        let s = RelationSpace::new(3, 2);
        assert_eq!(s.num_inputs(), 3);
        assert_eq!(s.num_outputs(), 2);
        assert_eq!(s.input_vars()[0], Var(0));
        assert_eq!(s.output_var(0), Var(3));
        assert_eq!(s.output_var(1), Var(4));
        assert_eq!(s.mgr().num_vars(), 5);
    }

    #[test]
    fn named_spaces() {
        let s = RelationSpace::with_names(&["a", "b"], &["x"]);
        assert_eq!(s.input_name(0), "a");
        assert_eq!(s.output_name(0), "x");
        assert_eq!(s.mgr().var_name(s.input_vars()[1]), "b");
    }

    #[test]
    fn minterm_builders_validate_length() {
        let s = RelationSpace::new(2, 1);
        assert!(s.input_minterm(&[true]).is_err());
        let m = s.input_minterm(&[true, false]).unwrap();
        assert_eq!(m.sat_count(3), 2, "output variable remains free");
        let o = s.output_minterm(&[true]).unwrap();
        assert_eq!(o.support(), vec![Var(2)]);
    }

    #[test]
    fn enumeration_sizes() {
        let s = RelationSpace::new(3, 2);
        assert_eq!(s.enumerate_inputs().len(), 8);
        assert_eq!(s.enumerate_outputs().len(), 4);
        assert_eq!(s.enumerate_inputs()[1], vec![true, false, false]);
    }

    #[test]
    fn clone_shares_space() {
        let s = RelationSpace::new(1, 1);
        let t = s.clone();
        assert!(s.same_space(&t));
        let u = RelationSpace::new(1, 1);
        assert!(!s.same_space(&u));
    }
}
