//! Technology-independent optimization: a stand-in for the SIS "algebraic
//! script" used in the paper's Table 2 post-processing.
//!
//! The pass pipeline is:
//!
//! 1. [`sweep`] — remove constant and single-literal buffer nodes by
//!    propagating them into their fanouts,
//! 2. [`eliminate`] — collapse internal nodes whose elimination does not
//!    increase the literal count,
//! 3. [`extract_common_cubes`] — greedy extraction of two-literal common
//!    divisors (the core of `fx`/`gcx`): a cube appearing in several covers
//!    becomes a new node and is substituted everywhere,
//! 4. [`factored_literals`] — an algebraic factoring estimate of the literal
//!    count of each node, used for the `ALG` column of Table 2.
//!
//! [`optimize`] chains the first three passes until the literal count stops
//! improving.

use std::cmp::Reverse;
use std::collections::HashMap;

use brel_sop::{Cover, Cube, CubeValue};

use crate::netlist::{Network, NetworkError, SignalId, SignalKind};

/// Removes constant nodes and single-literal (buffer/inverter-free) nodes by
/// substituting them into their fanouts. Returns the number of nodes
/// removed (they remain in the signal table but become unreferenced).
pub fn sweep(net: &mut Network) -> Result<usize, NetworkError> {
    let order = net.topological_order()?;
    let mut removed = 0usize;
    for node in order {
        let SignalKind::Internal { fanins, cover } = net.kind(node).clone() else {
            continue;
        };
        // A buffer: a single cube with a single positive literal.
        if cover.num_cubes() == 1 && cover.num_literals() == 1 {
            let cube = &cover.cubes()[0];
            if let Some(pos) = cube
                .values()
                .iter()
                .position(|v| matches!(v, CubeValue::One))
            {
                let source = fanins[pos];
                if replace_fanin_everywhere(net, node, source)? {
                    removed += 1;
                }
            }
        }
    }
    Ok(removed)
}

/// Replaces every use of `old` as a fanin by `new`. Returns `true` if any
/// substitution was made and the node is no longer referenced by any cover
/// or primary output.
fn replace_fanin_everywhere(
    net: &mut Network,
    old: SignalId,
    new: SignalId,
) -> Result<bool, NetworkError> {
    if net.primary_outputs().contains(&old)
        || net
            .latches()
            .iter()
            .any(|l| l.input == old || l.output == old)
    {
        return Ok(false);
    }
    let nodes: Vec<SignalId> = net.signals().collect();
    for node in nodes {
        let SignalKind::Internal { fanins, cover } = net.kind(node).clone() else {
            continue;
        };
        if !fanins.contains(&old) {
            continue;
        }
        let new_fanins: Vec<SignalId> = fanins
            .iter()
            .map(|&f| if f == old { new } else { f })
            .collect();
        net.replace_node(node, new_fanins, cover)?;
    }
    Ok(true)
}

/// Collapses internal nodes into their fanouts when doing so does not
/// increase the total literal count (a simplified SIS `eliminate 0`).
/// Returns the number of nodes eliminated.
pub fn eliminate(net: &mut Network) -> Result<usize, NetworkError> {
    let order = net.topological_order()?;
    let mut eliminated = 0usize;
    for node in order {
        let SignalKind::Internal { cover, .. } = net.kind(node).clone() else {
            continue;
        };
        if net.primary_outputs().contains(&node) || net.latches().iter().any(|l| l.input == node) {
            continue;
        }
        // Cheap nodes only: a single cube, or a pair of single-literal cubes.
        let cheap = cover.num_cubes() == 1 || cover.num_literals() <= 2;
        if !cheap {
            continue;
        }
        if collapse_into_fanouts(net, node)? {
            eliminated += 1;
        }
    }
    Ok(eliminated)
}

/// Substitutes the definition of `node` into every fanout cover (algebraic
/// substitution of an SOP into a positive literal). Fanouts using the node
/// in complemented form are left untouched, in which case the node is kept.
fn collapse_into_fanouts(net: &mut Network, node: SignalId) -> Result<bool, NetworkError> {
    let SignalKind::Internal {
        fanins: node_fanins,
        cover: node_cover,
    } = net.kind(node).clone()
    else {
        return Ok(false);
    };
    let fanouts: Vec<SignalId> = net
        .signals()
        .filter(|&s| match net.kind(s) {
            SignalKind::Internal { fanins, .. } => fanins.contains(&node),
            _ => false,
        })
        .collect();
    if fanouts.is_empty() {
        return Ok(false);
    }
    // Refuse if any fanout uses the node complemented (algebraic substitution
    // of the complement would require complementing the cover).
    for &fo in &fanouts {
        let SignalKind::Internal { fanins, cover } = net.kind(fo) else {
            continue;
        };
        let pos = fanins.iter().position(|&f| f == node).expect("is a fanout");
        if cover
            .cubes()
            .iter()
            .any(|c| matches!(c.value(pos), CubeValue::Zero))
        {
            return Ok(false);
        }
    }
    for fo in fanouts {
        let SignalKind::Internal { fanins, cover } = net.kind(fo).clone() else {
            continue;
        };
        let pos = fanins.iter().position(|&f| f == node).expect("is a fanout");
        // New fanin list: old fanins minus `node`, plus node's fanins.
        let mut new_fanins: Vec<SignalId> = fanins.iter().copied().filter(|&f| f != node).collect();
        for &f in &node_fanins {
            if !new_fanins.contains(&f) {
                new_fanins.push(f);
            }
        }
        let mut new_cover = Cover::empty(new_fanins.len());
        let index_of = |sig: SignalId, list: &[SignalId]| list.iter().position(|&f| f == sig);
        for cube in cover.cubes() {
            let uses_node = matches!(cube.value(pos), CubeValue::One);
            // Base: the cube's literals on the surviving fanins.
            let mut base = Cube::universe(new_fanins.len());
            for (i, v) in cube.values().iter().enumerate() {
                if i == pos {
                    continue;
                }
                if let Some(j) = index_of(fanins[i], &new_fanins) {
                    if !matches!(v, CubeValue::DontCare) {
                        base.set(j, *v);
                    }
                }
            }
            if !uses_node {
                new_cover.push(base).expect("width matches");
                continue;
            }
            // Distribute the node's cubes into this cube.
            for ncube in node_cover.cubes() {
                let mut merged = base.clone();
                let mut consistent = true;
                for (i, v) in ncube.values().iter().enumerate() {
                    if matches!(v, CubeValue::DontCare) {
                        continue;
                    }
                    let j = index_of(node_fanins[i], &new_fanins).expect("added above");
                    match merged.value(j) {
                        CubeValue::DontCare => merged.set(j, *v),
                        existing if existing == *v => {}
                        _ => {
                            consistent = false;
                            break;
                        }
                    }
                }
                if consistent {
                    new_cover.push(merged).expect("width matches");
                }
            }
        }
        new_cover.remove_contained_cubes();
        net.replace_node(fo, new_fanins, new_cover)?;
    }
    Ok(true)
}

/// Greedy extraction of common two-literal cubes across all node covers: the
/// most frequent two-literal divisor becomes a new node and is substituted
/// into every cover that contains it. Repeats until no divisor saves
/// literals. Returns the number of new nodes created.
pub fn extract_common_cubes(net: &mut Network) -> Result<usize, NetworkError> {
    // A literal is a (signal, polarity) pair; divisors are ordered pairs of
    // literals.
    type Literal = (SignalId, bool);
    let mut created = 0usize;
    loop {
        // Count two-literal sub-cubes (pairs of (signal, polarity)).
        let mut counts: HashMap<(Literal, Literal), usize> = HashMap::new();
        for node in net.signals().collect::<Vec<_>>() {
            let SignalKind::Internal { fanins, cover } = net.kind(node) else {
                continue;
            };
            for cube in cover.cubes() {
                let lits: Vec<(SignalId, bool)> = cube
                    .values()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| match v {
                        CubeValue::One => Some((fanins[i], true)),
                        CubeValue::Zero => Some((fanins[i], false)),
                        CubeValue::DontCare => None,
                    })
                    .collect();
                for i in 0..lits.len() {
                    for j in (i + 1)..lits.len() {
                        let mut key = [lits[i], lits[j]];
                        key.sort();
                        *counts.entry((key[0], key[1])).or_insert(0) += 1;
                    }
                }
            }
        }
        // The most frequent divisor; ties go to the smallest literal pair, so
        // the choice does not depend on the map's iteration order.
        let Some((&(lit_a, lit_b), &count)) =
            counts.iter().max_by_key(|&(&pair, &c)| (c, Reverse(pair)))
        else {
            break;
        };
        // Extracting saves (count - 1) literals minus the 2 literals of the
        // new node; require a strict gain.
        if count < 3 {
            break;
        }
        created += 1;
        // Pick a node name not already in use (optimize() may call this pass
        // several times on the same network).
        let mut suffix = created;
        let name = loop {
            let candidate = format!("__cx{suffix}");
            if net.signal(&candidate).is_none() {
                break candidate;
            }
            suffix += 1;
        };
        let new_cover = Cover::from_cubes(
            2,
            vec![Cube::new(vec![
                if lit_a.1 {
                    CubeValue::One
                } else {
                    CubeValue::Zero
                },
                if lit_b.1 {
                    CubeValue::One
                } else {
                    CubeValue::Zero
                },
            ])],
        )
        .expect("two-literal cube");
        let new_node = net.add_node(&name, vec![lit_a.0, lit_b.0], new_cover)?;

        // Substitute in every cover containing both literals.
        for node in net.signals().collect::<Vec<_>>() {
            if node == new_node {
                continue;
            }
            let SignalKind::Internal { fanins, cover } = net.kind(node).clone() else {
                continue;
            };
            let pa = fanins.iter().position(|&f| f == lit_a.0);
            let pb = fanins.iter().position(|&f| f == lit_b.0);
            let (Some(pa), Some(pb)) = (pa, pb) else {
                continue;
            };
            let matches_cube = |cube: &Cube| {
                cube.value(pa) == polarity(lit_a.1) && cube.value(pb) == polarity(lit_b.1)
            };
            if !cover.cubes().iter().any(matches_cube) {
                continue;
            }
            let mut new_fanins = fanins.clone();
            new_fanins.push(new_node);
            let mut rebuilt = Cover::empty(new_fanins.len());
            for cube in cover.cubes() {
                let mut extended: Vec<CubeValue> = cube.values().to_vec();
                extended.push(CubeValue::DontCare);
                if matches_cube(cube) {
                    extended[pa] = CubeValue::DontCare;
                    extended[pb] = CubeValue::DontCare;
                    extended[new_fanins.len() - 1] = CubeValue::One;
                }
                rebuilt.push(Cube::new(extended)).expect("width matches");
            }
            net.replace_node(node, new_fanins, rebuilt)?;
        }
    }
    Ok(created)
}

fn polarity(positive: bool) -> CubeValue {
    if positive {
        CubeValue::One
    } else {
        CubeValue::Zero
    }
}

/// Estimates the factored-form literal count of a cover by recursive
/// algebraic division by the most frequent literal — the metric SIS's
/// `print_stats -f` style counts and the paper's `ALG` column approximates.
pub fn factored_literals(cover: &Cover) -> usize {
    fn recurse(cubes: &[Cube]) -> usize {
        if cubes.is_empty() {
            return 0;
        }
        if cubes.len() == 1 {
            return cubes[0].num_literals();
        }
        let width = cubes[0].width();
        // Find the literal occurring most often.
        let mut best: Option<(usize, CubeValue, usize)> = None;
        for pos in 0..width {
            for value in [CubeValue::One, CubeValue::Zero] {
                let count = cubes.iter().filter(|c| c.value(pos) == value).count();
                if count >= 2 && best.map(|(_, _, c)| count > c).unwrap_or(true) {
                    best = Some((pos, value, count));
                }
            }
        }
        let Some((pos, value, _)) = best else {
            // No sharing possible: plain sum of cube literals.
            return cubes.iter().map(Cube::num_literals).sum();
        };
        let mut quotient: Vec<Cube> = Vec::new();
        let mut remainder: Vec<Cube> = Vec::new();
        for c in cubes {
            if c.value(pos) == value {
                let mut q = c.clone();
                q.set(pos, CubeValue::DontCare);
                quotient.push(q);
            } else {
                remainder.push(c.clone());
            }
        }
        // literal + (factored quotient) + factored remainder
        1 + recurse(&quotient) + recurse(&remainder)
    }
    recurse(cover.cubes())
}

/// Total factored-literal count of the network.
pub fn network_factored_literals(net: &Network) -> usize {
    net.signals()
        .map(|s| match net.kind(s) {
            SignalKind::Internal { cover, .. } => factored_literals(cover),
            _ => 0,
        })
        .sum()
}

/// The full "algebraic script" stand-in: sweep, eliminate and common-cube
/// extraction repeated until the literal count stops improving. Returns the
/// final SOP literal count.
///
/// # Errors
///
/// Returns [`NetworkError::CombinationalCycle`] if the network is cyclic.
pub fn optimize(net: &mut Network) -> Result<usize, NetworkError> {
    let mut best = net.literal_count();
    for _ in 0..10 {
        sweep(net)?;
        eliminate(net)?;
        extract_common_cubes(net)?;
        let now = net.literal_count();
        if now >= best {
            break;
        }
        best = now;
    }
    Ok(net.literal_count())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(width: usize, rows: &[&str]) -> Cover {
        Cover::from_cubes(
            width,
            rows.iter().map(|r| Cube::parse(r).unwrap()).collect(),
        )
        .unwrap()
    }

    fn functional_equivalence(a: &Network, b: &Network) -> bool {
        let n = a.combinational_inputs().len();
        assert_eq!(n, b.combinational_inputs().len());
        for bits in 0..(1u32 << n) {
            let asg: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
            let va = a.simulate(&asg).unwrap();
            let vb = b.simulate(&asg).unwrap();
            for (&oa, &ob) in a.primary_outputs().iter().zip(b.primary_outputs().iter()) {
                if va[&oa] != vb[&ob] {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn sweep_removes_buffers() {
        let mut net = Network::new("buf");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let buf = net.add_node("buf", vec![a], cover(1, &["1"])).unwrap();
        let n = net.add_node("n", vec![buf, b], cover(2, &["11"])).unwrap();
        net.add_output(n);
        let reference = net.clone();
        let removed = sweep(&mut net).unwrap();
        assert_eq!(removed, 1);
        // n now reads directly from a.
        let SignalKind::Internal { fanins, .. } = net.kind(n) else {
            panic!()
        };
        assert!(fanins.contains(&a));
        assert!(functional_equivalence(&reference, &net));
    }

    #[test]
    fn eliminate_collapses_cheap_nodes() {
        let mut net = Network::new("elim");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let n1 = net.add_node("n1", vec![a, b], cover(2, &["11"])).unwrap();
        let n2 = net
            .add_node("n2", vec![n1, c], cover(2, &["1-", "-1"]))
            .unwrap();
        net.add_output(n2);
        let reference = net.clone();
        let eliminated = eliminate(&mut net).unwrap();
        assert_eq!(eliminated, 1);
        assert!(functional_equivalence(&reference, &net));
        // n2 should now compute a·b + c directly.
        let SignalKind::Internal { fanins, cover } = net.kind(n2) else {
            panic!()
        };
        assert_eq!(fanins.len(), 3);
        assert_eq!(cover.num_cubes(), 2);
    }

    #[test]
    fn common_cube_extraction_reduces_literals() {
        let mut net = Network::new("cx");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let d = net.add_input("d").unwrap();
        // Three nodes all containing the cube a·b.
        let n1 = net
            .add_node("n1", vec![a, b, c], cover(3, &["111"]))
            .unwrap();
        let n2 = net
            .add_node("n2", vec![a, b, d], cover(3, &["111"]))
            .unwrap();
        let n3 = net
            .add_node("n3", vec![a, b, c, d], cover(4, &["11-1", "--10"]))
            .unwrap();
        net.add_output(n1);
        net.add_output(n2);
        net.add_output(n3);
        let reference = net.clone();
        let before = net.literal_count();
        let created = extract_common_cubes(&mut net).unwrap();
        assert!(created >= 1);
        assert!(net.literal_count() < before);
        assert!(functional_equivalence(&reference, &net));
    }

    #[test]
    fn common_cube_extraction_breaks_ties_on_the_smallest_literal_pair() {
        // a·b and c·d each occur three times: a tie the pass must break the
        // same way on every run.
        let mut net = Network::new("tie");
        let ins: Vec<SignalId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| net.add_input(n).unwrap())
            .collect();
        for name in ["n1", "n2", "n3"] {
            let n = net
                .add_node(name, ins.clone(), cover(4, &["--11", "11--"]))
                .unwrap();
            net.add_output(n);
        }
        for _ in 0..16 {
            let mut run = net.clone();
            assert_eq!(extract_common_cubes(&mut run).unwrap(), 2);
            let first = run.signal("__cx1").unwrap();
            let SignalKind::Internal { fanins, .. } = run.kind(first) else {
                panic!()
            };
            assert_eq!(fanins, &ins[..2], "a·b is extracted first");
        }
    }

    #[test]
    fn factored_literals_shares_common_factors() {
        // a·b + a·c: 4 SOP literals but 3 in factored form a·(b + c).
        let c = cover(3, &["11-", "1-1"]);
        assert_eq!(c.num_literals(), 4);
        assert_eq!(factored_literals(&c), 3);
        // A single cube factors to itself.
        let single = cover(2, &["10"]);
        assert_eq!(factored_literals(&single), 2);
        // Disjoint cubes cannot share.
        let disjoint = cover(4, &["11--", "--11"]);
        assert_eq!(factored_literals(&disjoint), 4);
    }

    #[test]
    fn optimize_is_functionally_safe_and_not_worse() {
        let mut net = Network::new("opt");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let buf = net.add_node("buf", vec![a], cover(1, &["1"])).unwrap();
        let n1 = net
            .add_node("n1", vec![buf, b, c], cover(3, &["11-", "1-1"]))
            .unwrap();
        let n2 = net
            .add_node("n2", vec![a, b, c], cover(3, &["110", "111"]))
            .unwrap();
        net.add_output(n1);
        net.add_output(n2);
        let reference = net.clone();
        let before = net.literal_count();
        let after = optimize(&mut net).unwrap();
        assert!(after <= before);
        assert!(functional_equivalence(&reference, &net));
    }
}
