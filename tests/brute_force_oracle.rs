//! An independent brute-force oracle for every solver backend.
//!
//! Each relation is generated here as a plain table — the set of output
//! vertices related to each input vertex — and reaches the solvers through
//! its packed pair words (`from_packed`). The oracle enumerates every compatible function (one
//! output vertex per input vertex), scores each with the solvers' own
//! [`CostFn`], and checks every backend's answer pointwise against the
//! table: f(x) ∈ R(x) for every input x, read from the table, never from
//! `is_compatible` or any other predicate of the relation layer. A kernel
//! bug that those predicates share with the solvers cannot hide here.

use std::collections::HashMap;

use brel_suite::bdd::Bdd;
use brel_suite::brel::{BrelConfig, BrelSolver, CostFn, CostFunction, QuickSolver, SearchStrategy};
use brel_suite::gyocro::GyocroSolver;
use brel_suite::relation::{vertex, BooleanRelation, MultiOutputFunction, RelationSpace};

/// A relation as a plain table: `images[x]` lists the output vertices
/// related to input vertex `x`. A vertex is a counter whose bit `i` is
/// component `i`, the order of `RelationSpace::enumerate_inputs`.
struct Table {
    num_inputs: usize,
    num_outputs: usize,
    images: Vec<Vec<u32>>,
}

/// SplitMix64: a tiny deterministic stream, independent of the crates
/// under test.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The components of a vertex counter.
fn bits(vertex: u32, width: usize) -> Vec<bool> {
    (0..width).map(|i| vertex >> i & 1 == 1).collect()
}

impl Table {
    /// A seeded well-defined relation: every output vertex is related to
    /// each input vertex with probability `percent`/100, and an input left
    /// with an empty image gets one output vertex drawn uniformly.
    fn random(num_inputs: usize, num_outputs: usize, percent: u64, seed: u64) -> Table {
        let mut rng = Mix(seed);
        let images = (0..1u32 << num_inputs)
            .map(|_| {
                let mut image: Vec<u32> = (0..1u32 << num_outputs)
                    .filter(|_| rng.next() % 100 < percent)
                    .collect();
                if image.is_empty() {
                    image.push((rng.next() % (1 << num_outputs)) as u32);
                }
                image
            })
            .collect();
        Table {
            num_inputs,
            num_outputs,
            images,
        }
    }

    /// The relation of the table, built in a fresh space.
    fn relation(&self) -> (RelationSpace, BooleanRelation) {
        let space = RelationSpace::new(self.num_inputs, self.num_outputs);
        let (n, m) = (self.num_inputs, self.num_outputs);
        let words: Vec<u32> = self
            .images
            .iter()
            .enumerate()
            .flat_map(|(x, image)| {
                let x = vertex::from_index(x as u32, n) << m;
                image.iter().map(move |&y| x | vertex::from_index(y, m))
            })
            .collect();
        let relation = BooleanRelation::from_packed(&space, &words).expect("table widths match");
        (space, relation)
    }

    /// Panics unless `f` picks a related output vertex at every input.
    fn assert_compatible(&self, space: &RelationSpace, f: &MultiOutputFunction, who: &str) {
        for (x, image) in self.images.iter().enumerate() {
            let input = bits(x as u32, self.num_inputs);
            let asg = space.full_assignment(&input, &[]);
            let y =
                (0..self.num_outputs).fold(0u32, |y, j| y | u32::from(f.output(j).eval(&asg)) << j);
            assert!(
                image.contains(&y),
                "{who}: f({input:?}) = {:?} lies outside the image {image:?}",
                bits(y, self.num_outputs)
            );
        }
    }

    /// The least cost over every compatible function: each choice of one
    /// output vertex per input vertex, counted in mixed radix over the
    /// image sizes.
    fn optimum(&self, space: &RelationSpace, cost: &CostFn) -> u64 {
        // Output functions by truth table (bit x = value at input x).
        let mut by_table: HashMap<u64, Bdd> = HashMap::new();
        let mut choice = vec![0usize; self.images.len()];
        let mut best = u64::MAX;
        loop {
            let outputs = (0..self.num_outputs)
                .map(|j| {
                    let table = choice.iter().enumerate().fold(0u64, |t, (x, &c)| {
                        t | u64::from(self.images[x][c] >> j & 1) << x
                    });
                    by_table
                        .entry(table)
                        .or_insert_with(|| self.function_of(space, table))
                        .clone()
                })
                .collect();
            let f = MultiOutputFunction::new(space, outputs).expect("one function per output");
            best = best.min(cost.cost(&f));
            // Next choice vector; done once every digit wrapped.
            let Some(x) = (0..choice.len()).find(|&x| choice[x] + 1 < self.images[x].len()) else {
                return best;
            };
            choice[x] += 1;
            choice[..x].fill(0);
        }
    }

    /// The single-output function with truth table `table`.
    fn function_of(&self, space: &RelationSpace, table: u64) -> Bdd {
        (0..self.images.len())
            .filter(|&x| table >> x & 1 == 1)
            .fold(space.mgr().zero(), |f, x| {
                let minterm = space.input_minterm(&bits(x as u32, self.num_inputs));
                f.or(&minterm.expect("input width matches"))
            })
    }
}

/// Every backend's function on `table`, named, with the cost the backend
/// itself reported (gyocro and quick report none).
fn backends(relation: &BooleanRelation) -> Vec<(String, MultiOutputFunction, Option<u64>)> {
    let mut out = vec![
        (
            "quick".to_string(),
            QuickSolver::new().solve(relation).expect("well defined"),
            None,
        ),
        (
            "gyocro".to_string(),
            GyocroSolver::default()
                .solve(relation)
                .expect("well defined")
                .function,
            None,
        ),
    ];
    let brel = [
        ("brel table2", BrelConfig::table2()),
        ("brel exact fifo", BrelConfig::exact()),
        (
            "brel exact dfs",
            BrelConfig::exact().with_strategy(SearchStrategy::Dfs),
        ),
        (
            "brel exact best-first",
            BrelConfig::exact().with_strategy(SearchStrategy::BestFirst),
        ),
    ];
    for (name, config) in brel {
        let solution = BrelSolver::new(config)
            .solve(relation)
            .expect("well defined");
        out.push((name.to_string(), solution.function, Some(solution.cost)));
    }
    out
}

/// Over seeded 3×2 relations of three densities: every backend's function
/// is compatible pointwise and scores no better than the brute-force
/// optimum, every BREL run reports the cost of the function it returns,
/// and exact BREL is never worse than the quick solver.
///
/// Exact BREL is not always optimal: its leaves are heuristic ISF
/// minimizations. The relations where it misses the optimum are pinned,
/// so a search change can neither lose an optimum silently nor close a
/// gap without the pin moving with it.
#[test]
fn no_backend_beats_the_brute_force_optimum_on_3x2_relations() {
    let cost = CostFn::default();
    let mut checked = 0;
    let mut exact_misses = Vec::new();
    for percent in [30, 50, 80] {
        for seed in 0..24 {
            let table = Table::random(3, 2, percent, seed);
            let (space, relation) = table.relation();
            let optimum = table.optimum(&space, &cost);
            let mut quick = None;
            for (name, f, reported) in backends(&relation) {
                let who = format!("{name} (p = {percent}%, seed {seed})");
                table.assert_compatible(&space, &f, &who);
                let score = cost.cost(&f);
                assert!(
                    score >= optimum,
                    "{who} scored {score} below the optimum {optimum}"
                );
                if let Some(reported) = reported {
                    assert_eq!(reported, score, "{who} misreports its cost");
                }
                match name.as_str() {
                    "quick" => quick = Some(score),
                    "brel exact fifo" => {
                        let quick = quick.expect("quick runs first");
                        assert!(score <= quick, "{who} scored {score} above quick's {quick}");
                        if score > optimum {
                            exact_misses.push((percent, seed));
                        }
                    }
                    _ => {}
                }
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 72);
    assert_eq!(exact_misses, [(30, 3), (30, 5), (30, 7)]);
}

/// Fig. 10 (Section 9.1): the brute-force optimum is 2, the two
/// single-literal outputs, and exact BREL reaches it.
#[test]
fn fig10_optimum_is_two_and_exact_brel_reaches_it() {
    // "ab : {xy}" rows 00 : {00, 11}, 01 : {10}, 10 : {01, 10}, 11 : {11},
    // as counters (bit 0 is a, resp. x).
    let table = Table {
        num_inputs: 2,
        num_outputs: 2,
        images: vec![vec![0b00, 0b11], vec![0b10, 0b01], vec![0b01], vec![0b11]],
    };
    let (space, relation) = table.relation();
    let (_, fig10) = brel_suite::benchdata::figures::fig10();
    for x in 0..4u32 {
        for y in 0..4u32 {
            assert_eq!(
                fig10.contains(&bits(x, 2), &bits(y, 2)).unwrap(),
                table.images[x as usize].contains(&y),
                "the table must be Fig. 10's relation"
            );
        }
    }
    assert_eq!(table.optimum(&space, &CostFn::default()), 2);
    let exact = BrelSolver::new(BrelConfig::exact())
        .solve(&relation)
        .expect("well defined");
    table.assert_compatible(&space, &exact.function, "brel exact");
    assert_eq!(exact.cost, 2);
}
