//! A small standard-cell library with area and delay figures modelled after
//! the classic SIS `lib2.genlib` library used in the paper's experiments.
//!
//! Areas are in normalized cell-area units and delays in normalized gate
//! delays (a fanout-independent, pin-independent model: adequate because the
//! harness only ever compares two netlists mapped with the *same* library
//! and mapper).

use std::fmt;

/// The logic function implemented by a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// N-input AND.
    And(u8),
    /// N-input OR.
    Or(u8),
    /// N-input NAND.
    Nand(u8),
    /// N-input NOR.
    Nor(u8),
    /// Two-input XOR.
    Xor2,
    /// Two-input XNOR.
    Xnor2,
    /// AND-OR-INVERT 2-1: `¬(a·b + c)`.
    Aoi21,
    /// OR-AND-INVERT 2-1: `¬((a + b)·c)`.
    Oai21,
    /// 2:1 multiplexer `a·s̄ + b·s`.
    Mux2,
}

/// One cell of the library.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Cell name (e.g. `nand2`).
    pub name: &'static str,
    /// Logic function.
    pub kind: GateKind,
    /// Number of inputs.
    pub inputs: u8,
    /// Cell area.
    pub area: f64,
    /// Pin-to-output delay.
    pub delay: f64,
}

/// A gate library.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Library {
    gates: Vec<Gate>,
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.gates {
            writeln!(f, "{:8} area={:5.1} delay={:4.2}", g.name, g.area, g.delay)?;
        }
        Ok(())
    }
}

impl Library {
    /// The default `lib2`-like library.
    pub fn lib2_like() -> Self {
        let gates = vec![
            Gate {
                name: "inv",
                kind: GateKind::Inv,
                inputs: 1,
                area: 1.0,
                delay: 0.4,
            },
            Gate {
                name: "buf",
                kind: GateKind::Buf,
                inputs: 1,
                area: 1.5,
                delay: 0.6,
            },
            Gate {
                name: "nand2",
                kind: GateKind::Nand(2),
                inputs: 2,
                area: 2.0,
                delay: 0.6,
            },
            Gate {
                name: "nand3",
                kind: GateKind::Nand(3),
                inputs: 3,
                area: 3.0,
                delay: 0.8,
            },
            Gate {
                name: "nand4",
                kind: GateKind::Nand(4),
                inputs: 4,
                area: 4.0,
                delay: 1.0,
            },
            Gate {
                name: "nor2",
                kind: GateKind::Nor(2),
                inputs: 2,
                area: 2.0,
                delay: 0.7,
            },
            Gate {
                name: "nor3",
                kind: GateKind::Nor(3),
                inputs: 3,
                area: 3.0,
                delay: 0.9,
            },
            Gate {
                name: "nor4",
                kind: GateKind::Nor(4),
                inputs: 4,
                area: 4.0,
                delay: 1.1,
            },
            Gate {
                name: "and2",
                kind: GateKind::And(2),
                inputs: 2,
                area: 3.0,
                delay: 0.8,
            },
            Gate {
                name: "and3",
                kind: GateKind::And(3),
                inputs: 3,
                area: 4.0,
                delay: 1.0,
            },
            Gate {
                name: "and4",
                kind: GateKind::And(4),
                inputs: 4,
                area: 5.0,
                delay: 1.2,
            },
            Gate {
                name: "or2",
                kind: GateKind::Or(2),
                inputs: 2,
                area: 3.0,
                delay: 0.9,
            },
            Gate {
                name: "or3",
                kind: GateKind::Or(3),
                inputs: 3,
                area: 4.0,
                delay: 1.1,
            },
            Gate {
                name: "or4",
                kind: GateKind::Or(4),
                inputs: 4,
                area: 5.0,
                delay: 1.3,
            },
            Gate {
                name: "xor2",
                kind: GateKind::Xor2,
                inputs: 2,
                area: 5.0,
                delay: 1.2,
            },
            Gate {
                name: "xnor2",
                kind: GateKind::Xnor2,
                inputs: 2,
                area: 5.0,
                delay: 1.2,
            },
            Gate {
                name: "aoi21",
                kind: GateKind::Aoi21,
                inputs: 3,
                area: 3.0,
                delay: 0.9,
            },
            Gate {
                name: "oai21",
                kind: GateKind::Oai21,
                inputs: 3,
                area: 3.0,
                delay: 0.9,
            },
            Gate {
                name: "mux2",
                kind: GateKind::Mux2,
                inputs: 3,
                area: 6.0,
                delay: 1.3,
            },
        ];
        Library { gates }
    }

    /// Looks up a gate by name.
    pub fn gate(&self, name: &str) -> Option<&Gate> {
        self.gates.iter().find(|g| g.name == name)
    }

    /// Looks up a gate by kind.
    pub(crate) fn gate_by_kind(&self, kind: GateKind) -> Option<&Gate> {
        self.gates.iter().find(|g| g.kind == kind)
    }

    /// The widest AND/OR/NAND/NOR fan-in available for the given family.
    pub(crate) fn max_fanin(&self, family: fn(u8) -> GateKind) -> u8 {
        (2..=8u8)
            .filter(|&n| self.gate_by_kind(family(n)).is_some())
            .max()
            .unwrap_or(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_library_has_the_usual_cells() {
        let lib = Library::lib2_like();
        assert!(lib.gate("inv").is_some());
        assert!(lib.gate("nand2").is_some());
        assert!(lib.gate("mux2").is_some());
        assert!(lib.gate("nand17").is_none());
        assert_eq!(lib.gate_by_kind(GateKind::Nand(3)).unwrap().name, "nand3");
        assert_eq!(lib.max_fanin(GateKind::Nand), 4);
        assert_eq!(lib.max_fanin(GateKind::And), 4);
    }

    #[test]
    fn bigger_gates_cost_more() {
        let lib = Library::lib2_like();
        let n2 = lib.gate("nand2").unwrap();
        let n4 = lib.gate("nand4").unwrap();
        assert!(n4.area > n2.area);
        assert!(n4.delay > n2.delay);
        let inv = lib.gate("inv").unwrap();
        assert!(inv.area < n2.area);
    }

    #[test]
    fn display_lists_every_gate() {
        let lib = Library::lib2_like();
        let text = lib.to_string();
        assert_eq!(text.lines().count(), lib.gates.len());
        assert!(text.contains("nand2"));
    }
}
