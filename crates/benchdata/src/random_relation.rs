//! Parameterized random well-defined Boolean relations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use brel_relation::{vertex, BooleanRelation, RelationSpace};

/// Generates a random *well-defined* Boolean relation over `num_inputs`
/// inputs and `num_outputs` outputs.
///
/// Every input vertex receives at least one output vertex; with probability
/// `extra_pair_prob` additional output vertices are related, which creates
/// the kind of non-cube-expressible flexibility the BREL solver exists for.
/// The construction enumerates the input space, so `num_inputs` is limited
/// to 16.
///
/// # Panics
///
/// Panics if `num_inputs > 16` or `num_outputs > 16`.
pub fn random_well_defined_relation(
    num_inputs: usize,
    num_outputs: usize,
    extra_pair_prob: f64,
    seed: u64,
) -> (RelationSpace, BooleanRelation) {
    random_in_space(
        RelationSpace::new(num_inputs, num_outputs),
        extra_pair_prob,
        seed,
    )
}

/// Like [`random_well_defined_relation`], but the space's BDD manager is
/// built with an explicit [`brel_bdd::BddConfig`]. Oracle tests use this to
/// pin GC behaviour, which since the config redesign can only be chosen at
/// construction.
pub fn random_well_defined_relation_with(
    num_inputs: usize,
    num_outputs: usize,
    extra_pair_prob: f64,
    seed: u64,
    config: brel_bdd::BddConfig,
) -> (RelationSpace, BooleanRelation) {
    random_in_space(
        RelationSpace::with_config(num_inputs, num_outputs, config),
        extra_pair_prob,
        seed,
    )
}

fn random_in_space(
    space: RelationSpace,
    extra_pair_prob: f64,
    seed: u64,
) -> (RelationSpace, BooleanRelation) {
    let num_inputs = space.num_inputs();
    let num_outputs = space.num_outputs();
    assert!(num_inputs <= 16, "input space must stay enumerable");
    assert!(num_outputs <= 16, "output space must stay enumerable");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut words = Vec::new();
    let output_count = 1u64 << num_outputs;
    // Inputs and outputs are drawn by enumeration index (component 0 in
    // the least significant bit), the order of `enumerate_inputs`.
    let pair = |x: u32, y: u64| {
        vertex::from_index(x, num_inputs) << num_outputs | vertex::from_index(y as u32, num_outputs)
    };
    for x in 0..1u32 << num_inputs {
        // One mandatory image vertex.
        let first = rng.gen_range(0..output_count);
        words.push(pair(x, first));
        // Optional extra vertices.
        for candidate in 0..output_count {
            if candidate != first && rng.gen_bool(extra_pair_prob) {
                words.push(pair(x, candidate));
            }
        }
    }
    let relation = BooleanRelation::from_packed(&space, &words).expect("the space fits a word");
    (space, relation)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_relations_are_well_defined() {
        for seed in 0..5 {
            let (_space, r) = random_well_defined_relation(4, 3, 0.2, seed);
            assert!(r.is_well_defined());
            assert!(r.num_pairs() >= 1 << 4);
        }
    }

    #[test]
    fn zero_extra_probability_yields_a_function() {
        let (_space, r) = random_well_defined_relation(3, 2, 0.0, 7);
        assert!(r.is_function());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (_s1, a) = random_well_defined_relation(4, 2, 0.3, 42);
        let (_s2, b) = random_well_defined_relation(4, 2, 0.3, 42);
        assert_eq!(a.num_pairs(), b.num_pairs());
        let (_s3, c) = random_well_defined_relation(4, 2, 0.3, 43);
        // Different seeds almost surely differ in the number of pairs.
        assert!(a.num_pairs() != c.num_pairs() || a.to_table().unwrap() != c.to_table().unwrap());
    }
}
