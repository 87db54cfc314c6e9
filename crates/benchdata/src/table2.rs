//! The Table 2 Boolean-relation benchmark family.
//!
//! The original `int*`, `b9`, `vtx`, `gr` and `she*` relation files used by
//! gyocro and BREL are not publicly archived. This module regenerates a
//! family with the same instance names and input/output counts, built the
//! way such relations arise in practice (and the way the paper motivates
//! them in Section 1): take a cut of a reconvergent network — a hidden
//! multiple-output function `H(X)` feeding a hidden gate `G(Y)` — and expose
//! as flexibility every value of the cut that produces the same primary
//! output, i.e. `R(X, Y) = (G(H(X)) ⇔ G(Y))`.
//!
//! Such relations are always well defined (take `Y = H(X)`) and, whenever
//! `G` is non-injective, contain input vertices whose image is not a cube —
//! exactly the situation of Fig. 1 of the paper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use brel_bdd::Bdd;
use brel_relation::{BooleanRelation, RelationSpace};

/// One named instance of the Table 2 family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Instance {
    /// Instance name as it appears in the paper's Table 2.
    pub name: &'static str,
    /// Number of input variables (PI).
    pub num_inputs: usize,
    /// Number of output variables (PO).
    pub num_outputs: usize,
    /// Generator seed (fixed so every run sees the same relation).
    pub seed: u64,
}

/// The instance list. Input/output counts follow the sizes reported for
/// these benchmarks in the BR-minimization literature (small relations with
/// 4–10 inputs and 2–5 outputs); the names match Table 2 of the paper.
pub fn instances() -> Vec<Table2Instance> {
    vec![
        Table2Instance {
            name: "int1",
            num_inputs: 4,
            num_outputs: 3,
            seed: 101,
        },
        Table2Instance {
            name: "int2",
            num_inputs: 5,
            num_outputs: 3,
            seed: 102,
        },
        Table2Instance {
            name: "int3",
            num_inputs: 6,
            num_outputs: 3,
            seed: 103,
        },
        Table2Instance {
            name: "int4",
            num_inputs: 6,
            num_outputs: 4,
            seed: 104,
        },
        Table2Instance {
            name: "int5",
            num_inputs: 7,
            num_outputs: 4,
            seed: 105,
        },
        Table2Instance {
            name: "int6",
            num_inputs: 8,
            num_outputs: 4,
            seed: 106,
        },
        Table2Instance {
            name: "int7",
            num_inputs: 8,
            num_outputs: 5,
            seed: 107,
        },
        Table2Instance {
            name: "int8",
            num_inputs: 9,
            num_outputs: 5,
            seed: 108,
        },
        Table2Instance {
            name: "int9",
            num_inputs: 10,
            num_outputs: 5,
            seed: 109,
        },
        Table2Instance {
            name: "int10",
            num_inputs: 10,
            num_outputs: 4,
            seed: 110,
        },
        Table2Instance {
            name: "b9",
            num_inputs: 8,
            num_outputs: 4,
            seed: 201,
        },
        Table2Instance {
            name: "vtx",
            num_inputs: 9,
            num_outputs: 4,
            seed: 202,
        },
        Table2Instance {
            name: "gr",
            num_inputs: 7,
            num_outputs: 5,
            seed: 203,
        },
        Table2Instance {
            name: "she1",
            num_inputs: 6,
            num_outputs: 4,
            seed: 204,
        },
        Table2Instance {
            name: "she2",
            num_inputs: 8,
            num_outputs: 5,
            seed: 205,
        },
    ]
}

/// Looks up an instance by name.
pub fn instance(name: &str) -> Option<Table2Instance> {
    instances().into_iter().find(|i| i.name == name)
}

/// Generates the relation of one instance.
pub fn generate(instance: &Table2Instance) -> (RelationSpace, BooleanRelation) {
    generate_in_space(
        instance,
        RelationSpace::new(instance.num_inputs, instance.num_outputs),
    )
}

/// Generates the relation of one instance into a space with an explicit
/// kernel lifecycle configuration. Used by workloads that must pin GC
/// behaviour regardless of the `BREL_BDD_GC_MIN_NODES` environment (which
/// since the `BddConfig` redesign can only be chosen at construction).
pub fn generate_with_config(
    instance: &Table2Instance,
    config: brel_bdd::BddConfig,
) -> (RelationSpace, BooleanRelation) {
    generate_in_space(
        instance,
        RelationSpace::with_config(instance.num_inputs, instance.num_outputs, config),
    )
}

fn generate_in_space(
    instance: &Table2Instance,
    space: RelationSpace,
) -> (RelationSpace, BooleanRelation) {
    let mut rng = StdRng::seed_from_u64(instance.seed);

    // Hidden cut functions H_j(X): random reconvergent expressions.
    let hidden: Vec<Bdd> = (0..instance.num_outputs)
        .map(|_| random_expression(&space, &mut rng))
        .collect();
    // Hidden downstream gate G(Y): a random symmetric-ish combination of the
    // cut signals — non-injective, so several cut values are interchangeable.
    let g_over_outputs = random_gate_over_outputs(&space, &mut rng);
    // G(H(X)): compose the gate with the hidden functions.
    let mut g_of_h = g_over_outputs.clone();
    for (j, h) in hidden.iter().enumerate() {
        g_of_h = g_of_h.compose(space.output_var(j), h);
    }
    // R(X, Y) = G(H(X)) ⇔ G(Y)
    let chi = g_of_h.iff(&g_over_outputs);
    let relation = BooleanRelation::from_characteristic(&space, chi);
    debug_assert!(relation.is_well_defined());
    (space, relation)
}

/// A random multilevel expression over the input variables.
fn random_expression(space: &RelationSpace, rng: &mut StdRng) -> Bdd {
    let n = space.num_inputs();
    let mut terms: Vec<Bdd> = Vec::new();
    let num_terms = rng.gen_range(2..=3);
    for _ in 0..num_terms {
        let mut term = space.mgr().one();
        let width = rng.gen_range(2..=3.min(n));
        for _ in 0..width {
            let v = space.input(rng.gen_range(0..n));
            let lit = if rng.gen_bool(0.5) { v } else { v.complement() };
            term = term.and(&lit);
        }
        terms.push(term);
    }
    let mut acc = space.mgr().zero();
    for t in &terms {
        if rng.gen_bool(0.25) {
            acc = acc.xor(t);
        } else {
            acc = acc.or(t);
        }
    }
    acc
}

/// A random non-injective gate over the output variables.
fn random_gate_over_outputs(space: &RelationSpace, rng: &mut StdRng) -> Bdd {
    let m = space.num_outputs();
    let outputs: Vec<Bdd> = (0..m).map(|j| space.output(j)).collect();
    match rng.gen_range(0..3) {
        // AND of ORs of pairs.
        0 => {
            let mut acc = space.mgr().one();
            for pair in outputs.chunks(2) {
                let or = pair.iter().fold(space.mgr().zero(), |a, b| a.or(b));
                acc = acc.and(&or);
            }
            acc
        }
        // Majority-like threshold.
        1 => {
            let mut acc = space.mgr().zero();
            for i in 0..m {
                for j in (i + 1)..m {
                    acc = acc.or(&outputs[i].and(&outputs[j]));
                }
            }
            acc
        }
        // Parity (fully symmetric, highly non-injective).
        _ => outputs.iter().fold(space.mgr().zero(), |a, b| a.xor(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_instance_is_well_defined_with_flexibility() {
        for inst in instances() {
            let (_space, r) = generate(&inst);
            assert!(r.is_well_defined(), "{} must be well defined", inst.name);
            assert!(
                !r.is_function(),
                "{} should expose flexibility (non-injective gate)",
                inst.name
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let inst = instance("int1").unwrap();
        let (_s1, a) = generate(&inst);
        let (_s2, b) = generate(&inst);
        assert_eq!(a.num_pairs(), b.num_pairs());
    }

    #[test]
    fn instance_lookup() {
        assert!(instance("b9").is_some());
        assert!(instance("does-not-exist").is_none());
        assert_eq!(instances().len(), 15);
        let vtx = instance("vtx").unwrap();
        assert_eq!(vtx.num_inputs, 9);
        assert_eq!(vtx.num_outputs, 4);
    }

    #[test]
    fn some_instance_has_non_cube_flexibility() {
        // At least one generated relation must contain an input vertex whose
        // image is not expressible with per-output don't cares (the reason
        // these benchmarks need a BR solver at all).
        let mut found = false;
        for inst in instances().iter().take(5) {
            let (_space, r) = generate(inst);
            let misf_rel = r.to_misf().to_relation();
            if misf_rel != r {
                found = true;
                break;
            }
        }
        assert!(found, "the family must exercise true BR flexibility");
    }
}
