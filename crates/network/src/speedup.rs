//! Delay-oriented restructuring, standing in for SIS `speed_up`.
//!
//! The paper's delay-oriented decomposition flow (Table 3) runs the
//! collapse + `speed_up` + map sequence on the next-state logic. This module
//! provides the equivalent knob for our substrate: it collapses each
//! combinational output to its global function and re-expresses it as a
//! (shallow) two-level node, leaving the balancing work to the mapper's
//! balanced-tree decomposition. The result is a network whose mapped delay
//! only depends on the collapsed functions — exactly the property the
//! decomposition experiment needs in order to measure the benefit of
//! balancing the three mux-input functions.

use std::collections::HashMap;

use brel_bdd::Var;
use brel_sop::Cover;

use crate::netlist::{Network, NetworkError, SignalId, SignalKind};

/// Collapses every combinational output into a single two-level node over
/// the combinational inputs (primary inputs and latch outputs) and rebuilds
/// the network. Returns the new network.
///
/// # Errors
///
/// Returns [`NetworkError::CombinationalCycle`] on cyclic input networks and
/// propagates construction errors for pathological cases.
pub fn collapse(net: &Network) -> Result<Network, NetworkError> {
    let (_mgr, input_vars, funcs) = net.global_functions()?;
    let cis = net.combinational_inputs();
    let ordered_vars: Vec<Var> = cis.iter().map(|s| input_vars[s]).collect();

    let mut out = Network::new(format!("{}_collapsed", net.name()));
    let mut new_ids: HashMap<SignalId, SignalId> = HashMap::new();
    for &ci in &cis {
        match net.kind(ci) {
            SignalKind::PrimaryInput => {
                let id = out.add_input(net.signal_name(ci))?;
                new_ids.insert(ci, id);
            }
            SignalKind::LatchOutput => {
                // Created below together with the latch; placeholder for now.
            }
            _ => {}
        }
    }

    // Latch outputs must exist before nodes that read them; create latches
    // with placeholder inputs and patch afterwards.
    for (idx, latch) in net.latches().iter().enumerate() {
        let placeholder = out.add_constant(&format!("__collapse_ph_{idx}"), false)?;
        let q = out.add_latch(placeholder, net.signal_name(latch.output), latch.init)?;
        new_ids.insert(latch.output, q);
    }

    // One collapsed node per combinational output.
    let fanins: Vec<SignalId> = cis.iter().map(|s| new_ids[s]).collect();
    for co in net.combinational_outputs() {
        let f = &funcs[&co];
        let isop = f.isop();
        let cover = Cover::from_isop(&isop, &ordered_vars);
        let name = format!("{}_c", net.signal_name(co));
        let node = out.add_node(&name, fanins.clone(), cover)?;
        new_ids.insert(co, node);
    }

    for (idx, latch) in net.latches().iter().enumerate() {
        out.set_latch_input(idx, new_ids[&latch.input]);
    }
    for &po in net.primary_outputs() {
        out.add_output(new_ids[&po]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use crate::mapper::{map, MappingOptions};
    use brel_sop::Cube;

    fn cover(width: usize, rows: &[&str]) -> Cover {
        Cover::from_cubes(
            width,
            rows.iter().map(|r| Cube::parse(r).unwrap()).collect(),
        )
        .unwrap()
    }

    fn deep_chain() -> Network {
        // A deliberately deep chain: n1 = a·b, n2 = n1·c, n3 = n2·d, out = n3·e
        let mut net = Network::new("chain");
        let inputs: Vec<SignalId> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|n| net.add_input(n).unwrap())
            .collect();
        let n1 = net
            .add_node("n1", vec![inputs[0], inputs[1]], cover(2, &["11"]))
            .unwrap();
        let n2 = net
            .add_node("n2", vec![n1, inputs[2]], cover(2, &["11"]))
            .unwrap();
        let n3 = net
            .add_node("n3", vec![n2, inputs[3]], cover(2, &["11"]))
            .unwrap();
        let out = net
            .add_node("out", vec![n3, inputs[4]], cover(2, &["11"]))
            .unwrap();
        net.add_output(out);
        net
    }

    #[test]
    fn collapse_preserves_function() {
        let net = deep_chain();
        let collapsed = collapse(&net).unwrap();
        assert_eq!(collapsed.num_nodes(), 1);
        let n = net.combinational_inputs().len();
        for bits in 0..(1u32 << n) {
            let asg: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
            let v1 = net.simulate(&asg).unwrap();
            let v2 = collapsed.simulate(&asg).unwrap();
            assert_eq!(
                v1[&net.primary_outputs()[0]],
                v2[&collapsed.primary_outputs()[0]]
            );
        }
    }

    #[test]
    fn collapse_plus_balanced_mapping_reduces_delay() {
        let net = deep_chain();
        let lib = Library::lib2_like();
        let options = MappingOptions::default();
        let before = map(&net, &lib, &options).unwrap();
        let collapsed = collapse(&net).unwrap();
        let after = map(&collapsed, &lib, &options).unwrap();
        assert!(
            after.delay < before.delay,
            "balancing a 5-input AND chain must reduce delay ({} vs {})",
            after.delay,
            before.delay
        );
    }

    #[test]
    fn collapse_keeps_latches_and_outputs() {
        let mut net = Network::new("seq");
        let a = net.add_input("a").unwrap();
        let n1 = net.add_node("n1", vec![a], cover(1, &["0"])).unwrap();
        let q = net.add_latch(n1, "q", true).unwrap();
        let out = net.add_node("out", vec![q, a], cover(2, &["11"])).unwrap();
        net.add_output(out);
        let collapsed = collapse(&net).unwrap();
        assert_eq!(collapsed.latches().len(), 1);
        assert_eq!(collapsed.primary_outputs().len(), 1);
        assert!(collapsed.latches()[0].init);
        // The latch next-state input is the collapsed ¬a node.
        let latch_in = collapsed.latches()[0].input;
        let sim = collapsed.simulate(&[true, false]).unwrap();
        // combinational inputs of the collapsed net: a and q (order as built).
        assert!(!sim[&latch_in]);
    }
}
