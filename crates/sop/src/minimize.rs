//! ESPRESSO-style cover optimization against an incompletely specified
//! function.
//!
//! The gyocro baseline of the paper (Watanabe & Brayton) repeatedly applies
//! the `reduce` → `expand` → `irredundant` loop on a cover whose freedom is
//! given by an interval `[On, On ∪ Dc]`. The functions in this module
//! implement those three operations for a single-output cover, using BDDs as
//! the oracle for validity checks (a cube may expand only while it stays
//! inside `On ∪ Dc`; a cover is valid only while it still covers `On`).
//!
//! Each pass is linear in the number of cubes `n`: `reduce` and
//! `irredundant` build every cube's BDD once and form "all the other cubes"
//! as a running prefix OR joined with a precomputed suffix OR, so a pass
//! costs O(n) BDD ORs per output. `expand` tests each candidate cube with
//! one restriction of the upper bound, without building the cube's BDD.

use brel_bdd::{Bdd, BddSession, Var};

use crate::cover::Cover;
use crate::cube::{Cube, CubeValue};

/// The don't-care interval `[on, on ∪ dc]` an optimized cover must respect.
#[derive(Debug, Clone)]
pub struct Interval {
    /// Minterms that must be covered.
    pub on: Bdd,
    /// Upper bound: minterms that may be covered (`on ∪ dc`).
    pub upper: Bdd,
}

impl Interval {
    /// Creates an interval from the onset and the don't-care set.
    pub fn new(on: Bdd, dc: &Bdd) -> Self {
        let upper = on.or(dc);
        Interval { on, upper }
    }

    /// Creates the exact interval of a completely specified function.
    pub fn exact(f: Bdd) -> Self {
        Interval {
            upper: f.clone(),
            on: f,
        }
    }

    /// Returns `true` if `cover` implements the interval: it covers `on`
    /// and stays within `upper`.
    pub fn admits(&self, cover: &Cover, mgr: &BddSession, vars: &[Var]) -> bool {
        let f = cover.to_bdd_with_vars(mgr, vars);
        self.on.is_subset_of(&f) && f.is_subset_of(&self.upper)
    }
}

/// Expands every cube of the cover as much as possible (removing literals)
/// while the cube stays inside `interval.upper`. Literals are tried in
/// ascending variable order, matching the greedy single-variable expansion
/// described for Herb/gyocro in the paper.
///
/// A candidate cube `c` is tested as `upper|c ≡ 1`: one restriction of
/// `upper` by the cube's literals.
pub fn expand(cover: &mut Cover, interval: &Interval, _mgr: &BddSession, vars: &[Var]) {
    let upper = &interval.upper;
    let width = cover.width();
    let cubes: Vec<Cube> = cover
        .cubes()
        .iter()
        .map(|cube| {
            let mut best = cube.clone();
            for v in 0..width {
                if best.value(v) == CubeValue::DontCare {
                    continue;
                }
                let mut candidate = best.clone();
                candidate.set(v, CubeValue::DontCare);
                if upper
                    .restrict_assignment(&candidate.literals_with_vars(vars))
                    .is_one()
                {
                    best = candidate;
                }
            }
            best
        })
        .collect();
    *cover = Cover::from_cubes(width, cubes).expect("expand preserves the width");
    cover.remove_contained_cubes();
}

/// Reduces every cube to the smallest cube that still covers the part of
/// `interval.on` not covered by the other cubes (the already-reduced
/// versions of the earlier ones, the original later ones). Cubes whose
/// required part is empty are kept as they are for `irredundant` to judge.
pub fn reduce(cover: &mut Cover, interval: &Interval, mgr: &BddSession, vars: &[Var]) {
    let width = cover.width();
    let cubes = cover.cubes();
    let bdds: Vec<Bdd> = cubes
        .iter()
        .map(|c| c.to_bdd_with_vars(mgr, vars))
        .collect();
    let suffix = suffix_ors(mgr, &bdds);
    // `prefix` is the OR of the reduced cubes so far.
    let mut prefix = mgr.zero();
    let mut result: Vec<Cube> = Vec::with_capacity(cubes.len());
    for (i, cube) in cubes.iter().enumerate() {
        let others = prefix.or(&suffix[i + 1]);
        let required = interval.on.and(&bdds[i]).diff(&others);
        let mut reduced = cube.clone();
        if !required.is_zero() {
            // Smallest enclosing cube of `required` within this cube.
            for (pos, &var) in vars.iter().enumerate().take(width) {
                if reduced.value(pos) != CubeValue::DontCare {
                    continue;
                }
                if required.cofactor(var, false).is_zero() {
                    reduced.set(pos, CubeValue::One);
                } else if required.cofactor(var, true).is_zero() {
                    reduced.set(pos, CubeValue::Zero);
                }
            }
        }
        prefix = if reduced == *cube {
            prefix.or(&bdds[i])
        } else {
            prefix.or(&reduced.to_bdd_with_vars(mgr, vars))
        };
        result.push(reduced);
    }
    *cover = Cover::from_cubes(width, result).expect("reduce preserves the width");
}

/// Removes cubes not needed to cover `interval.on`, visiting them in order:
/// a cube goes when the cubes kept so far and the cubes after it cover
/// `on` without it.
pub fn irredundant(cover: &mut Cover, interval: &Interval, mgr: &BddSession, vars: &[Var]) {
    cover.remove_contained_cubes();
    let bdds: Vec<Bdd> = cover
        .cubes()
        .iter()
        .map(|c| c.to_bdd_with_vars(mgr, vars))
        .collect();
    let suffix = suffix_ors(mgr, &bdds);
    let mut kept_or = mgr.zero();
    let mut kept: Vec<Cube> = Vec::with_capacity(bdds.len());
    for (i, cube) in cover.cubes().iter().enumerate() {
        if !interval.on.is_subset_of(&kept_or.or(&suffix[i + 1])) {
            kept_or = kept_or.or(&bdds[i]);
            kept.push(cube.clone());
        }
    }
    *cover = Cover::from_cubes(cover.width(), kept).expect("irredundant preserves the width");
}

/// `suffix[k]` is the OR of `bdds[k..]`; `suffix[bdds.len()]` is 0.
fn suffix_ors(mgr: &BddSession, bdds: &[Bdd]) -> Vec<Bdd> {
    let mut suffix = vec![mgr.zero(); bdds.len() + 1];
    for k in (0..bdds.len()).rev() {
        suffix[k] = bdds[k].or(&suffix[k + 1]);
    }
    suffix
}

/// Runs the reduce–expand–irredundant loop until the `(cubes, literals)`
/// cost stops improving, returning the number of iterations performed.
pub fn reduce_expand_irredundant(
    cover: &mut Cover,
    interval: &Interval,
    mgr: &BddSession,
    vars: &[Var],
    max_iterations: usize,
) -> usize {
    let mut best_cost = (cover.num_cubes(), cover.num_literals());
    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        reduce(cover, interval, mgr, vars);
        expand(cover, interval, mgr, vars);
        irredundant(cover, interval, mgr, vars);
        let cost = (cover.num_cubes(), cover.num_literals());
        if cost >= best_cost {
            break;
        }
        best_cost = cost;
    }
    iterations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(n: usize) -> Vec<Var> {
        (0..n).map(|i| Var(i as u32)).collect()
    }

    fn cover(width: usize, rows: &[&str]) -> Cover {
        Cover::from_cubes(
            width,
            rows.iter().map(|r| Cube::parse(r).unwrap()).collect(),
        )
        .unwrap()
    }

    /// The quadratic `reduce` the linear pass replaced: rebuilds the other
    /// cubes' OR from scratch for every cube.
    fn reference_reduce(cover: &mut Cover, interval: &Interval, mgr: &BddSession, vars: &[Var]) {
        let width = cover.width();
        let cubes: Vec<Cube> = cover.cubes().to_vec();
        let mut result: Vec<Cube> = Vec::new();
        for (i, cube) in cubes.iter().enumerate() {
            let mut others = mgr.zero();
            for (j, other) in cubes.iter().enumerate() {
                if i == j {
                    continue;
                }
                let c = if j < result.len() { &result[j] } else { other };
                others = others.or(&c.to_bdd_with_vars(mgr, vars));
            }
            let cube_bdd = cube.to_bdd_with_vars(mgr, vars);
            let required = interval.on.and(&cube_bdd).diff(&others);
            if required.is_zero() {
                result.push(cube.clone());
                continue;
            }
            let mut reduced = cube.clone();
            for (pos, &var) in vars.iter().enumerate().take(width) {
                if reduced.value(pos) != CubeValue::DontCare {
                    continue;
                }
                let req0 = required.cofactor(var, false);
                let req1 = required.cofactor(var, true);
                if req0.is_zero() {
                    reduced.set(pos, CubeValue::One);
                } else if req1.is_zero() {
                    reduced.set(pos, CubeValue::Zero);
                }
            }
            result.push(reduced);
        }
        *cover = Cover::from_cubes(width, result).unwrap();
    }

    /// The `expand` that built every candidate cube and an `implies` node.
    fn reference_expand(cover: &mut Cover, interval: &Interval, mgr: &BddSession, vars: &[Var]) {
        let width = cover.width();
        let cubes: Vec<Cube> = cover
            .cubes()
            .iter()
            .map(|cube| {
                let mut best = cube.clone();
                for v in 0..width {
                    if best.value(v) == CubeValue::DontCare {
                        continue;
                    }
                    let mut candidate = best.clone();
                    candidate.set(v, CubeValue::DontCare);
                    if candidate
                        .to_bdd_with_vars(mgr, vars)
                        .is_subset_of(&interval.upper)
                    {
                        best = candidate;
                    }
                }
                best
            })
            .collect();
        *cover = Cover::from_cubes(width, cubes).unwrap();
        cover.remove_contained_cubes();
    }

    /// The quadratic `irredundant` the linear pass replaced.
    fn reference_irredundant(
        cover: &mut Cover,
        interval: &Interval,
        mgr: &BddSession,
        vars: &[Var],
    ) {
        cover.remove_contained_cubes();
        let mut i = 0;
        while i < cover.num_cubes() {
            let mut others = mgr.zero();
            for (j, c) in cover.cubes().iter().enumerate() {
                if j != i {
                    others = others.or(&c.to_bdd_with_vars(mgr, vars));
                }
            }
            if interval.on.is_subset_of(&others) {
                let mut cubes = cover.cubes().to_vec();
                cubes.remove(i);
                *cover = Cover::from_cubes(cover.width(), cubes).unwrap();
            } else {
                i += 1;
            }
        }
    }

    /// SplitMix64: a self-contained seeded stream for the oracle below.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_cube(rng: &mut SplitMix, width: usize) -> Cube {
        Cube::new(
            (0..width)
                .map(|_| match rng.below(3) {
                    0 => CubeValue::Zero,
                    1 => CubeValue::One,
                    _ => CubeValue::DontCare,
                })
                .collect(),
        )
    }

    fn random_cover(rng: &mut SplitMix, width: usize, max_cubes: u64) -> Cover {
        let n = rng.below(max_cubes + 1) as usize;
        let mut cubes: Vec<Cube> = Vec::with_capacity(n + 2);
        for _ in 0..n {
            cubes.push(random_cube(rng, width));
        }
        // Duplicate a cube, or add one the others already cover.
        if !cubes.is_empty() {
            match rng.below(3) {
                0 => {
                    let k = rng.below(cubes.len() as u64) as usize;
                    cubes.push(cubes[k].clone());
                }
                1 => {
                    let k = rng.below(cubes.len() as u64) as usize;
                    let mut inner = cubes[k].clone();
                    for pos in 0..width {
                        if inner.value(pos) == CubeValue::DontCare && rng.below(2) == 0 {
                            inner.set(pos, CubeValue::One);
                        }
                    }
                    cubes.insert(rng.below(cubes.len() as u64 + 1) as usize, inner);
                }
                _ => {}
            }
        }
        Cover::from_cubes(width, cubes).unwrap()
    }

    fn texts(cover: &Cover) -> Vec<String> {
        cover.cubes().iter().map(Cube::to_text).collect()
    }

    type Pass = fn(&mut Cover, &Interval, &BddSession, &[Var]);

    #[test]
    fn linear_passes_match_the_quadratic_reference_cube_for_cube() {
        let mut rng = SplitMix(0x5EED_C0DE);
        for case in 0..500 {
            let width = 1 + case % 7;
            let mgr = BddSession::new(width);
            let vs = vars(width);
            // The cover to optimize; an independent random dc; and an onset
            // that is the cover's function, a random one, or empty.
            let start = random_cover(&mut rng, width, 7);
            let dc = random_cover(&mut rng, width, 3).to_bdd(&mgr);
            let on = match case % 4 {
                0 => mgr.zero(),
                1 => random_cover(&mut rng, width, 5).to_bdd(&mgr),
                _ => start.to_bdd(&mgr),
            };
            let interval = Interval::new(on, &dc);
            let passes: [(&str, Pass, Pass); 3] = [
                ("reduce", reduce, reference_reduce),
                ("expand", expand, reference_expand),
                ("irredundant", irredundant, reference_irredundant),
            ];
            // Each pass alone on the start cover, then the chained loop step.
            let mut chained = start.clone();
            let mut chained_ref = start.clone();
            for (name, new, old) in passes {
                let mut got = start.clone();
                let mut want = start.clone();
                new(&mut got, &interval, &mgr, &vs);
                old(&mut want, &interval, &mgr, &vs);
                assert_eq!(texts(&got), texts(&want), "case {case}: {name} alone");
                new(&mut chained, &interval, &mgr, &vs);
                old(&mut chained_ref, &interval, &mgr, &vs);
                assert_eq!(
                    texts(&chained),
                    texts(&chained_ref),
                    "case {case}: {name} in the loop"
                );
            }
        }
    }

    #[test]
    fn expand_uses_dont_cares() {
        let mgr = BddSession::new(2);
        let vs = vars(2);
        // on = a·b ; dc = a·b'  → the cube 11 can expand to 1-.
        let on = cover(2, &["11"]).to_bdd(&mgr);
        let dc = cover(2, &["10"]).to_bdd(&mgr);
        let interval = Interval::new(on, &dc);
        let mut c = cover(2, &["11"]);
        expand(&mut c, &interval, &mgr, &vs);
        assert_eq!(c.num_cubes(), 1);
        assert_eq!(c.cubes()[0].to_text(), "1-");
        assert!(interval.admits(&c, &mgr, &vs));
    }

    #[test]
    fn reduce_shrinks_overlapping_cube() {
        let mgr = BddSession::new(2);
        let vs = vars(2);
        // on = a + b, cover = {1-, -1}; reducing either cube must keep validity.
        let on = cover(2, &["1-", "-1"]).to_bdd(&mgr);
        let interval = Interval::exact(on);
        let mut c = cover(2, &["1-", "-1"]);
        reduce(&mut c, &interval, &mgr, &vs);
        expand(&mut c, &interval, &mgr, &vs);
        irredundant(&mut c, &interval, &mgr, &vs);
        assert!(interval.admits(&c, &mgr, &vs));
        assert_eq!(c.num_cubes(), 2);
    }

    #[test]
    fn irredundant_drops_consensus_cube() {
        let mgr = BddSession::new(3);
        let vs = vars(3);
        let full = cover(3, &["11-", "0-1", "-11"]);
        let on = full.to_bdd(&mgr);
        let interval = Interval::exact(on);
        let mut c = full.clone();
        irredundant(&mut c, &interval, &mgr, &vs);
        assert_eq!(c.num_cubes(), 2);
        assert!(interval.admits(&c, &mgr, &vs));
    }

    #[test]
    fn loop_converges_and_preserves_interval() {
        let mgr = BddSession::new(3);
        let vs = vars(3);
        // on covers the odd-parity minterms of (a, b) plus dc on c.
        let on = cover(3, &["100", "010", "111", "001"]).to_bdd(&mgr);
        let dc = cover(3, &["110"]).to_bdd(&mgr);
        let interval = Interval::new(on, &dc);
        let mut c = cover(3, &["100", "010", "111", "001"]);
        let before = (c.num_cubes(), c.num_literals());
        let iters = reduce_expand_irredundant(&mut c, &interval, &mgr, &vs, 10);
        assert!(iters >= 1);
        assert!(interval.admits(&c, &mgr, &vs));
        let after = (c.num_cubes(), c.num_literals());
        assert!(after <= before, "cost must not increase");
    }

    #[test]
    fn interval_admits_detects_violations() {
        let mgr = BddSession::new(2);
        let vs = vars(2);
        let on = cover(2, &["11"]).to_bdd(&mgr);
        let interval = Interval::exact(on);
        let good = cover(2, &["11"]);
        let too_big = cover(2, &["1-"]);
        let too_small = Cover::empty(2);
        assert!(interval.admits(&good, &mgr, &vs));
        assert!(!interval.admits(&too_big, &mgr, &vs));
        assert!(!interval.admits(&too_small, &mgr, &vs));
    }
}
