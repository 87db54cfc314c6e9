//! Property-based checks that the BDD substrate agrees with truth-table
//! semantics on small variable counts — the foundation everything else in
//! the reproduction rests on.

use proptest::prelude::*;

use brel_suite::bdd::{Bdd, BddSession, Var};

/// A tiny expression language interpreted both over BDDs and truth tables.
#[derive(Debug, Clone)]
enum Expr {
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

fn expr_strategy(num_vars: usize) -> impl Strategy<Value = Expr> {
    let leaf = (0..num_vars).prop_map(Expr::Var);
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

fn to_bdd(expr: &Expr, mgr: &BddSession) -> Bdd {
    match expr {
        Expr::Var(i) => mgr.var(*i as u32),
        Expr::Not(e) => to_bdd(e, mgr).complement(),
        Expr::And(a, b) => to_bdd(a, mgr).and(&to_bdd(b, mgr)),
        Expr::Or(a, b) => to_bdd(a, mgr).or(&to_bdd(b, mgr)),
        Expr::Xor(a, b) => to_bdd(a, mgr).xor(&to_bdd(b, mgr)),
    }
}

fn eval(expr: &Expr, asg: &[bool]) -> bool {
    match expr {
        Expr::Var(i) => asg[*i],
        Expr::Not(e) => !eval(e, asg),
        Expr::And(a, b) => eval(a, asg) && eval(b, asg),
        Expr::Or(a, b) => eval(a, asg) || eval(b, asg),
        Expr::Xor(a, b) => eval(a, asg) ^ eval(b, asg),
    }
}

const NUM_VARS: usize = 5;

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << NUM_VARS)).map(|bits| (0..NUM_VARS).map(|i| bits & (1 << i) != 0).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BDD construction is semantics-preserving and canonical: equal truth
    /// tables produce identical nodes.
    #[test]
    fn bdd_matches_truth_table_and_is_canonical(e1 in expr_strategy(NUM_VARS), e2 in expr_strategy(NUM_VARS)) {
        let mgr = BddSession::new(NUM_VARS);
        let f1 = to_bdd(&e1, &mgr);
        let f2 = to_bdd(&e2, &mgr);
        let mut equal = true;
        for asg in assignments() {
            prop_assert_eq!(f1.eval(&asg), eval(&e1, &asg));
            prop_assert_eq!(f2.eval(&asg), eval(&e2, &asg));
            if f1.eval(&asg) != f2.eval(&asg) {
                equal = false;
            }
        }
        prop_assert_eq!(equal, f1 == f2, "canonicity violated");
    }

    /// Quantification, cofactors and composition agree with their
    /// truth-table definitions.
    #[test]
    fn quantification_and_cofactors_are_sound(e in expr_strategy(NUM_VARS), v in 0..NUM_VARS) {
        let mgr = BddSession::new(NUM_VARS);
        let f = to_bdd(&e, &mgr);
        let var = Var::from(v);
        let exists = f.exists(&[var]);
        let forall = f.forall(&[var]);
        let f0 = f.cofactor(var, false);
        let f1 = f.cofactor(var, true);
        for asg in assignments() {
            let mut a0 = asg.clone();
            a0[v] = false;
            let mut a1 = asg.clone();
            a1[v] = true;
            let e0 = eval(&e, &a0);
            let e1 = eval(&e, &a1);
            prop_assert_eq!(exists.eval(&asg), e0 || e1);
            prop_assert_eq!(forall.eval(&asg), e0 && e1);
            prop_assert_eq!(f0.eval(&asg), e0);
            prop_assert_eq!(f1.eval(&asg), e1);
        }
    }

    /// ISOP generation covers exactly the function, and the cover's cube
    /// count/literal count are consistent.
    #[test]
    fn isop_cover_is_exact(e in expr_strategy(NUM_VARS)) {
        let mgr = BddSession::new(NUM_VARS);
        let f = to_bdd(&e, &mgr);
        let isop = f.isop();
        prop_assert_eq!(isop.function, f.node_id());
        for asg in assignments() {
            let covered = isop.cubes.iter().any(|c| c.eval(&asg));
            prop_assert_eq!(covered, f.eval(&asg));
        }
        prop_assert!(isop.num_literals() >= isop.num_cubes() || f.is_zero() || f.is_one());
    }

    /// The generalized cofactors agree with the function on the care set.
    #[test]
    fn generalized_cofactors_agree_on_care(e in expr_strategy(NUM_VARS), c in expr_strategy(NUM_VARS)) {
        let mgr = BddSession::new(NUM_VARS);
        let f = to_bdd(&e, &mgr);
        let care = to_bdd(&c, &mgr);
        prop_assume!(!care.is_zero());
        let constrained = f.constrain(&care);
        let restricted = f.restrict(&care);
        for asg in assignments() {
            if care.eval(&asg) {
                prop_assert_eq!(constrained.eval(&asg), f.eval(&asg));
                prop_assert_eq!(restricted.eval(&asg), f.eval(&asg));
            }
        }
    }

    /// The shortest-path cube is an implicant of the function (every
    /// completion satisfies it) and is never longer than the path found by
    /// the plain cube picker. (Note: it minimizes literals along BDD paths,
    /// which is a heuristic for — not identical to — the globally largest
    /// implicant; see §7.4 of the paper.)
    #[test]
    fn shortest_path_is_a_contained_cube(e in expr_strategy(NUM_VARS)) {
        let mgr = BddSession::new(NUM_VARS);
        let f = to_bdd(&e, &mgr);
        prop_assume!(!f.is_zero());
        let cube = f.shortest_path().unwrap();
        // Containment: every completion of the cube satisfies f.
        for asg in assignments() {
            let mut fixed = asg.clone();
            for &(v, b) in cube.assignments() {
                fixed[v.index()] = b;
            }
            prop_assert!(f.eval(&fixed));
        }
        // Never longer than an arbitrary satisfying path.
        let any = f.pick_cube().unwrap();
        prop_assert!(cube.num_literals() <= any.num_literals());
    }

    /// sat_count equals brute-force counting.
    #[test]
    fn sat_count_is_exact(e in expr_strategy(NUM_VARS)) {
        let mgr = BddSession::new(NUM_VARS);
        let f = to_bdd(&e, &mgr);
        let brute = assignments().filter(|a| eval(&e, a)).count() as u128;
        prop_assert_eq!(f.sat_count(NUM_VARS), brute);
    }
}
