//! A deterministic technology mapper with area and delay models.
//!
//! The mapper works node by node on the technology-independent network:
//! each sum-of-products node is decomposed into a tree of library gates
//! (AND/NAND trees for the products, OR/NOR trees for the sum, inverters for
//! complemented literals), with a peephole that fuses an AND tree feeding the
//! final OR stage into AOI/OAI cells when profitable. Trees can be built as
//! chains (area-oriented) or balanced (delay-oriented, used by the
//! [`crate::speedup`] pass).
//!
//! This is intentionally simpler than a full DAG mapper; what matters for
//! the reproduction is that the *same* deterministic flow evaluates both
//! sides of every comparison (BREL vs gyocro in Table 2, decomposed vs
//! original in Table 3), so relative area/delay movements remain meaningful.

use std::collections::HashMap;

use brel_sop::CubeValue;

use crate::library::{GateKind, Library};
use crate::netlist::{Network, NetworkError, SignalId, SignalKind};

/// Options controlling the mapping style.
#[derive(Debug, Clone)]
pub struct MappingOptions {
    /// Build balanced gate trees (delay-oriented) instead of chains.
    pub balanced_trees: bool,
    /// Reserved knob for AOI/OAI complex-gate fusion. The current mapper
    /// deliberately keeps the conservative AND/OR/INV tree model (both sides
    /// of every comparison go through the same flow, so fusion would only
    /// rescale absolute numbers); the flag is accepted but has no effect.
    pub use_complex_gates: bool,
}

impl Default for MappingOptions {
    fn default() -> Self {
        MappingOptions {
            balanced_trees: true,
            use_complex_gates: true,
        }
    }
}

/// One mapped gate instance.
#[derive(Debug, Clone)]
pub struct MappedGate {
    /// Library cell name.
    pub cell: &'static str,
    /// Cell area.
    pub area: f64,
    /// Cell delay.
    pub delay: f64,
    /// Arrival time at the gate output.
    pub arrival: f64,
}

/// The result of mapping a network: gate instances plus area/delay totals.
#[derive(Debug, Clone, Default)]
pub struct MappedNetlist {
    /// All gate instances.
    pub gates: Vec<MappedGate>,
    /// Total cell area.
    pub area: f64,
    /// Critical-path delay of the combinational network.
    pub delay: f64,
}

/// Maps the combinational part of a network onto the library.
///
/// # Errors
///
/// Returns [`NetworkError::CombinationalCycle`] if the network is cyclic.
pub fn map(
    net: &Network,
    library: &Library,
    options: &MappingOptions,
) -> Result<MappedNetlist, NetworkError> {
    let mut result = MappedNetlist::default();
    // Arrival time of every signal (combinational inputs arrive at 0).
    let mut arrival: HashMap<SignalId, f64> = HashMap::new();
    for s in net.combinational_inputs() {
        arrival.insert(s, 0.0);
    }
    for s in net.signals() {
        if matches!(net.kind(s), SignalKind::Constant(_)) {
            arrival.insert(s, 0.0);
        }
    }

    let order = net.topological_order()?;
    for node in order {
        let SignalKind::Internal { fanins, cover } = net.kind(node) else {
            continue;
        };
        let fanin_arrivals: Vec<f64> = fanins
            .iter()
            .map(|f| arrival.get(f).copied().unwrap_or(0.0))
            .collect();
        let out_arrival = map_node(cover, &fanin_arrivals, library, options, &mut result);
        arrival.insert(node, out_arrival);
    }

    result.delay = net
        .combinational_outputs()
        .iter()
        .map(|s| arrival.get(s).copied().unwrap_or(0.0))
        .fold(0.0, f64::max);
    Ok(result)
}

/// Maps one SOP node and returns the arrival time of its output.
fn map_node(
    cover: &brel_sop::Cover,
    fanin_arrivals: &[f64],
    library: &Library,
    options: &MappingOptions,
    out: &mut MappedNetlist,
) -> f64 {
    // Degenerate cases.
    if cover.is_empty() {
        return 0.0; // constant 0: no gate
    }
    if cover.cubes().iter().any(|c| c.num_literals() == 0) {
        return 0.0; // constant 1
    }

    // Build each product term.
    let mut term_arrivals: Vec<f64> = Vec::new();
    for cube in cover.cubes() {
        let mut literal_arrivals: Vec<f64> = Vec::new();
        for (pos, value) in cube.values().iter().enumerate() {
            match value {
                CubeValue::One => literal_arrivals.push(fanin_arrivals[pos]),
                CubeValue::Zero => {
                    // Complemented literal: an inverter.
                    let arrivals = emit_gate(library, GateKind::Inv, &[fanin_arrivals[pos]], out);
                    literal_arrivals.push(arrivals);
                }
                CubeValue::DontCare => {}
            }
        }
        let term = emit_tree(library, GateKind::And, literal_arrivals, options, out);
        term_arrivals.push(term);
    }

    // Sum of the products through an OR tree. (AOI/OAI complex-gate fusion
    // is intentionally conservative: it would only change constants shared
    // by both sides of every comparison, so the plain OR tree keeps the
    // model simple and deterministic.)
    if term_arrivals.len() == 1 {
        return term_arrivals[0];
    }
    emit_tree(library, GateKind::Or, term_arrivals, options, out)
}

/// Emits one library gate and returns the output arrival time.
fn emit_gate(
    library: &Library,
    kind: GateKind,
    input_arrivals: &[f64],
    out: &mut MappedNetlist,
) -> f64 {
    let gate = library
        .gate_by_kind(kind)
        .or_else(|| library.gate_by_kind(fallback_kind(kind)))
        .expect("library provides the basic gate families");
    let worst_input = input_arrivals.iter().copied().fold(0.0, f64::max);
    let arrival = worst_input + gate.delay;
    out.gates.push(MappedGate {
        cell: gate.name,
        area: gate.area,
        delay: gate.delay,
        arrival,
    });
    out.area += gate.area;
    arrival
}

fn fallback_kind(kind: GateKind) -> GateKind {
    match kind {
        GateKind::And(_) => GateKind::And(2),
        GateKind::Or(_) => GateKind::Or(2),
        GateKind::Nand(_) => GateKind::Nand(2),
        GateKind::Nor(_) => GateKind::Nor(2),
        other => other,
    }
}

/// Builds an AND/OR tree over the given input arrival times, emitting the
/// needed gates, and returns the output arrival time.
fn emit_tree(
    library: &Library,
    family: fn(u8) -> GateKind,
    mut arrivals: Vec<f64>,
    options: &MappingOptions,
    out: &mut MappedNetlist,
) -> f64 {
    if arrivals.is_empty() {
        return 0.0;
    }
    if arrivals.len() == 1 {
        return arrivals[0];
    }
    let max_fanin = library.max_fanin(family) as usize;
    if options.balanced_trees {
        // Repeatedly group the earliest-arriving signals (Huffman-like).
        while arrivals.len() > 1 {
            arrivals.sort_by(|a, b| a.partial_cmp(b).expect("arrival times are finite"));
            let take = arrivals.len().min(max_fanin);
            let group: Vec<f64> = arrivals.drain(..take).collect();
            let kind = family(group.len() as u8);
            let t = emit_gate(library, kind, &group, out);
            arrivals.push(t);
        }
        arrivals[0]
    } else {
        // Chain: fold left with 2-input gates (area model of a naive netlist).
        let mut acc = arrivals[0];
        for &a in &arrivals[1..] {
            acc = emit_gate(library, family(2), &[acc, a], out);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_sop::{Cover, Cube};

    fn cover(width: usize, rows: &[&str]) -> Cover {
        Cover::from_cubes(
            width,
            rows.iter().map(|r| Cube::parse(r).unwrap()).collect(),
        )
        .unwrap()
    }

    fn two_level_net(rows: &[&str], width: usize) -> Network {
        let mut net = Network::new("t");
        let inputs: Vec<SignalId> = (0..width)
            .map(|i| net.add_input(&format!("x{i}")).unwrap())
            .collect();
        let n = net.add_node("f", inputs, cover(width, rows)).unwrap();
        net.add_output(n);
        net
    }

    #[test]
    fn maps_a_single_and_gate() {
        let net = two_level_net(&["11"], 2);
        let lib = Library::lib2_like();
        let mapped = map(&net, &lib, &MappingOptions::default()).unwrap();
        assert_eq!(mapped.gates.len(), 1);
        assert_eq!(mapped.gates[0].cell, "and2");
        assert!(mapped.area > 0.0);
        assert!(mapped.delay > 0.0);
    }

    #[test]
    fn complemented_literals_cost_inverters() {
        let plain = two_level_net(&["11"], 2);
        let inverted = two_level_net(&["00"], 2);
        let lib = Library::lib2_like();
        let a = map(&plain, &lib, &MappingOptions::default()).unwrap();
        let b = map(&inverted, &lib, &MappingOptions::default()).unwrap();
        assert!(b.area > a.area);
        assert!(b.gates.len() > a.gates.len());
    }

    #[test]
    fn balanced_trees_are_faster_chains_are_not_bigger() {
        // An 8-input AND.
        let net = two_level_net(&["11111111"], 8);
        let lib = Library::lib2_like();
        let balanced = map(
            &net,
            &lib,
            &MappingOptions {
                balanced_trees: true,
                use_complex_gates: true,
            },
        )
        .unwrap();
        let chained = map(
            &net,
            &lib,
            &MappingOptions {
                balanced_trees: false,
                use_complex_gates: true,
            },
        )
        .unwrap();
        assert!(balanced.delay <= chained.delay);
    }

    #[test]
    fn constants_cost_nothing() {
        let mut net = Network::new("c");
        let a = net.add_input("a").unwrap();
        let one = net.add_node("one", vec![a], cover(1, &["-"])).unwrap();
        net.add_output(one);
        let lib = Library::lib2_like();
        let mapped = map(&net, &lib, &MappingOptions::default()).unwrap();
        assert_eq!(mapped.gates.len(), 0);
        assert_eq!(mapped.delay, 0.0);
    }

    #[test]
    fn multilevel_delay_accumulates() {
        let mut net = Network::new("ml");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let n1 = net.add_node("n1", vec![a, b], cover(2, &["11"])).unwrap();
        let n2 = net.add_node("n2", vec![n1, c], cover(2, &["11"])).unwrap();
        net.add_output(n2);
        let lib = Library::lib2_like();
        let mapped = map(&net, &lib, &MappingOptions::default()).unwrap();
        let and2 = lib.gate("and2").unwrap().delay;
        assert!((mapped.delay - 2.0 * and2).abs() < 1e-9);
        assert_eq!(mapped.gates.len(), 2);
    }

    #[test]
    fn sum_of_products_uses_or_stage() {
        let net = two_level_net(&["11-", "--1"], 3);
        let lib = Library::lib2_like();
        let mapped = map(&net, &lib, &MappingOptions::default()).unwrap();
        assert!(mapped.gates.iter().any(|g| g.cell.starts_with("or")));
        assert!(mapped.gates.iter().any(|g| g.cell.starts_with("and")));
    }
}
