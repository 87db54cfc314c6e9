//! The technology-independent Boolean network.

use std::collections::HashMap;
use std::fmt;

use brel_bdd::{Bdd, BddSession, Var};
use brel_sop::Cover;

/// Identifier of a signal (net) in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What drives a signal.
#[derive(Debug, Clone)]
pub enum SignalKind {
    /// A primary input.
    PrimaryInput,
    /// The output of a flip-flop (a state variable of the sequential
    /// circuit; combinationally it behaves like an input).
    LatchOutput,
    /// An internal node computing a sum-of-products of its fanins.
    Internal {
        /// The fanin signals, in cover-column order.
        fanins: Vec<SignalId>,
        /// The local function as a cover over the fanins.
        cover: Cover,
    },
    /// A constant driver.
    Constant(bool),
}

/// A D flip-flop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latch {
    /// The next-state (D) input signal.
    pub input: SignalId,
    /// The state (Q) output signal.
    pub output: SignalId,
    /// Initial value.
    pub init: bool,
}

/// Errors produced by network construction and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A referenced signal name does not exist.
    UnknownSignal(String),
    /// A signal name was defined twice.
    DuplicateSignal(String),
    /// The cover width does not match the number of fanins.
    ArityMismatch {
        /// Node name.
        node: String,
        /// Number of fanins.
        fanins: usize,
        /// Cover width.
        cover_width: usize,
    },
    /// The network contains a combinational cycle.
    CombinationalCycle,
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownSignal(n) => write!(f, "unknown signal `{n}`"),
            NetworkError::DuplicateSignal(n) => write!(f, "signal `{n}` defined twice"),
            NetworkError::ArityMismatch {
                node,
                fanins,
                cover_width,
            } => write!(
                f,
                "node `{node}` has {fanins} fanins but a cover of width {cover_width}"
            ),
            NetworkError::CombinationalCycle => write!(f, "combinational cycle detected"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// The result of [`Network::global_functions`]: the BDD manager, the
/// variable assigned to each combinational input, and the global function of
/// every signal.
pub type GlobalFunctions = (BddSession, HashMap<SignalId, Var>, HashMap<SignalId, Bdd>);

/// A multilevel Boolean network: primary inputs and outputs, internal
/// sum-of-products nodes and D flip-flops.
#[derive(Debug, Clone, Default)]
pub struct Network {
    name: String,
    kinds: Vec<SignalKind>,
    names: Vec<String>,
    by_name: HashMap<String, SignalId>,
    primary_outputs: Vec<SignalId>,
    latches: Vec<Latch>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            ..Network::default()
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn add_signal(&mut self, name: &str, kind: SignalKind) -> Result<SignalId, NetworkError> {
        if self.by_name.contains_key(name) {
            return Err(NetworkError::DuplicateSignal(name.to_string()));
        }
        let id = SignalId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Adds a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DuplicateSignal`] if the name is taken.
    pub fn add_input(&mut self, name: &str) -> Result<SignalId, NetworkError> {
        self.add_signal(name, SignalKind::PrimaryInput)
    }

    /// Adds a constant driver.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DuplicateSignal`] if the name is taken.
    pub fn add_constant(&mut self, name: &str, value: bool) -> Result<SignalId, NetworkError> {
        self.add_signal(name, SignalKind::Constant(value))
    }

    /// Adds an internal node computing `cover` over `fanins`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DuplicateSignal`] or
    /// [`NetworkError::ArityMismatch`].
    pub fn add_node(
        &mut self,
        name: &str,
        fanins: Vec<SignalId>,
        cover: Cover,
    ) -> Result<SignalId, NetworkError> {
        if cover.width() != fanins.len() {
            return Err(NetworkError::ArityMismatch {
                node: name.to_string(),
                fanins: fanins.len(),
                cover_width: cover.width(),
            });
        }
        self.add_signal(name, SignalKind::Internal { fanins, cover })
    }

    /// Replaces the function of an existing internal node.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ArityMismatch`] if the widths disagree or
    /// [`NetworkError::UnknownSignal`] if `id` is not an internal node.
    pub(crate) fn replace_node(
        &mut self,
        id: SignalId,
        fanins: Vec<SignalId>,
        cover: Cover,
    ) -> Result<(), NetworkError> {
        if cover.width() != fanins.len() {
            return Err(NetworkError::ArityMismatch {
                node: self.names[id.index()].clone(),
                fanins: fanins.len(),
                cover_width: cover.width(),
            });
        }
        match &mut self.kinds[id.index()] {
            k @ SignalKind::Internal { .. } => {
                *k = SignalKind::Internal { fanins, cover };
                Ok(())
            }
            _ => Err(NetworkError::UnknownSignal(self.names[id.index()].clone())),
        }
    }

    /// Marks a signal as a primary output.
    pub fn add_output(&mut self, id: SignalId) {
        if !self.primary_outputs.contains(&id) {
            self.primary_outputs.push(id);
        }
    }

    /// Adds a D flip-flop: `output` becomes a state variable fed by `input`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DuplicateSignal`] if the output name is taken.
    pub fn add_latch(
        &mut self,
        input: SignalId,
        output_name: &str,
        init: bool,
    ) -> Result<SignalId, NetworkError> {
        let output = self.add_signal(output_name, SignalKind::LatchOutput)?;
        self.latches.push(Latch {
            input,
            output,
            init,
        });
        Ok(output)
    }

    /// Re-targets an existing latch to a new next-state signal.
    ///
    /// # Panics
    ///
    /// Panics if `latch_index` is out of range.
    pub fn set_latch_input(&mut self, latch_index: usize, input: SignalId) {
        self.latches[latch_index].input = input;
    }

    /// Looks up a signal by name.
    pub(crate) fn signal(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// Name of a signal.
    pub(crate) fn signal_name(&self, id: SignalId) -> &str {
        &self.names[id.index()]
    }

    /// Kind of a signal.
    pub fn kind(&self, id: SignalId) -> &SignalKind {
        &self.kinds[id.index()]
    }

    /// All signal ids.
    pub(crate) fn signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.kinds.len() as u32).map(SignalId)
    }

    /// The primary inputs.
    pub fn primary_inputs(&self) -> Vec<SignalId> {
        self.signals()
            .filter(|&s| matches!(self.kinds[s.index()], SignalKind::PrimaryInput))
            .collect()
    }

    /// The primary outputs.
    pub fn primary_outputs(&self) -> &[SignalId] {
        &self.primary_outputs
    }

    /// The flip-flops.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// The combinational inputs: primary inputs plus latch outputs.
    pub(crate) fn combinational_inputs(&self) -> Vec<SignalId> {
        self.signals()
            .filter(|&s| {
                matches!(
                    self.kinds[s.index()],
                    SignalKind::PrimaryInput | SignalKind::LatchOutput
                )
            })
            .collect()
    }

    /// The combinational outputs: primary outputs plus latch (next-state)
    /// inputs.
    pub(crate) fn combinational_outputs(&self) -> Vec<SignalId> {
        let mut outs = self.primary_outputs.clone();
        for l in &self.latches {
            if !outs.contains(&l.input) {
                outs.push(l.input);
            }
        }
        outs
    }

    /// Number of internal nodes.
    pub fn num_nodes(&self) -> usize {
        self.signals()
            .filter(|&s| matches!(self.kinds[s.index()], SignalKind::Internal { .. }))
            .count()
    }

    /// Total number of SOP literals over all internal nodes (the usual
    /// technology-independent size metric).
    pub fn literal_count(&self) -> usize {
        self.signals()
            .map(|s| match &self.kinds[s.index()] {
                SignalKind::Internal { cover, .. } => cover.num_literals(),
                _ => 0,
            })
            .sum()
    }

    /// Topological order of the internal nodes (fanins before fanouts).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::CombinationalCycle`] if the combinational
    /// part is cyclic.
    pub fn topological_order(&self) -> Result<Vec<SignalId>, NetworkError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; self.kinds.len()];
        let mut order = Vec::new();
        // Iterative DFS to avoid recursion limits on deep networks.
        for root in self.signals() {
            if marks[root.index()] != Mark::White {
                continue;
            }
            let mut stack = vec![(root, false)];
            while let Some((node, expanded)) = stack.pop() {
                if expanded {
                    marks[node.index()] = Mark::Black;
                    if matches!(self.kinds[node.index()], SignalKind::Internal { .. }) {
                        order.push(node);
                    }
                    continue;
                }
                match marks[node.index()] {
                    Mark::Black => continue,
                    Mark::Grey => return Err(NetworkError::CombinationalCycle),
                    Mark::White => {}
                }
                marks[node.index()] = Mark::Grey;
                stack.push((node, true));
                if let SignalKind::Internal { fanins, .. } = &self.kinds[node.index()] {
                    for &f in fanins {
                        match marks[f.index()] {
                            Mark::White => stack.push((f, false)),
                            Mark::Grey => return Err(NetworkError::CombinationalCycle),
                            Mark::Black => {}
                        }
                    }
                }
            }
        }
        Ok(order)
    }

    /// Computes the global BDD of every signal in terms of the combinational
    /// inputs. Returns the manager, the input-variable assignment and the
    /// per-signal global functions.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::CombinationalCycle`] on cyclic networks.
    pub fn global_functions(&self) -> Result<GlobalFunctions, NetworkError> {
        let inputs = self.combinational_inputs();
        let mgr = BddSession::new(inputs.len());
        let mut input_vars = HashMap::new();
        let mut funcs: HashMap<SignalId, Bdd> = HashMap::new();
        for (i, &s) in inputs.iter().enumerate() {
            let v = Var::from(i);
            mgr.set_var_name(v, self.signal_name(s));
            input_vars.insert(s, v);
            funcs.insert(s, mgr.var(v));
        }
        for s in self.signals() {
            if let SignalKind::Constant(value) = self.kinds[s.index()] {
                funcs.insert(s, if value { mgr.one() } else { mgr.zero() });
            }
        }
        for node in self.topological_order()? {
            let SignalKind::Internal { fanins, cover } = &self.kinds[node.index()] else {
                continue;
            };
            // Build the node function by composing the cover with the global
            // functions of the fanins.
            let mut acc = mgr.zero();
            for cube in cover.cubes() {
                let mut term = mgr.one();
                for (pos, value) in cube.values().iter().enumerate() {
                    let fanin = funcs
                        .get(&fanins[pos])
                        .expect("fanins precede fanouts in topological order")
                        .clone();
                    match value {
                        brel_sop::CubeValue::One => term = term.and(&fanin),
                        brel_sop::CubeValue::Zero => term = term.and(&fanin.complement()),
                        brel_sop::CubeValue::DontCare => {}
                    }
                }
                acc = acc.or(&term);
            }
            funcs.insert(node, acc);
        }
        Ok((mgr, input_vars, funcs))
    }

    /// Simulates the combinational part on one input assignment (indexed in
    /// the order of [`Network::combinational_inputs`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::CombinationalCycle`] on cyclic networks.
    #[cfg(test)]
    pub(crate) fn simulate(
        &self,
        inputs: &[bool],
    ) -> Result<HashMap<SignalId, bool>, NetworkError> {
        let cis = self.combinational_inputs();
        let mut values: HashMap<SignalId, bool> = HashMap::new();
        for (i, &s) in cis.iter().enumerate() {
            values.insert(s, *inputs.get(i).unwrap_or(&false));
        }
        for s in self.signals() {
            if let SignalKind::Constant(v) = self.kinds[s.index()] {
                values.insert(s, v);
            }
        }
        for node in self.topological_order()? {
            let SignalKind::Internal { fanins, cover } = &self.kinds[node.index()] else {
                continue;
            };
            let local: Vec<bool> = fanins.iter().map(|f| values[f]).collect();
            values.insert(node, cover.eval(&local));
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_sop::Cube;

    fn cover(width: usize, rows: &[&str]) -> Cover {
        Cover::from_cubes(
            width,
            rows.iter().map(|r| Cube::parse(r).unwrap()).collect(),
        )
        .unwrap()
    }

    /// Builds a tiny sequential circuit:
    /// n1 = a·b, n2 = n1 + c, ff: q <- n2, out = q ⊕ a.
    fn sample() -> Network {
        let mut net = Network::new("sample");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let n1 = net.add_node("n1", vec![a, b], cover(2, &["11"])).unwrap();
        let n2 = net
            .add_node("n2", vec![n1, c], cover(2, &["1-", "-1"]))
            .unwrap();
        let q = net.add_latch(n2, "q", false).unwrap();
        let out = net
            .add_node("out", vec![q, a], cover(2, &["10", "01"]))
            .unwrap();
        net.add_output(out);
        net
    }

    #[test]
    fn construction_and_counts() {
        let net = sample();
        assert_eq!(net.primary_inputs().len(), 3);
        assert_eq!(net.primary_outputs().len(), 1);
        assert_eq!(net.latches().len(), 1);
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.combinational_inputs().len(), 4);
        assert_eq!(net.combinational_outputs().len(), 2);
        assert_eq!(net.literal_count(), 2 + 2 + 4);
        assert!(net.signal("n1").is_some());
        assert!(net.signal("missing").is_none());
    }

    #[test]
    fn duplicate_and_arity_errors() {
        let mut net = Network::new("t");
        net.add_input("a").unwrap();
        assert!(matches!(
            net.add_input("a"),
            Err(NetworkError::DuplicateSignal(_))
        ));
        let a = net.signal("a").unwrap();
        assert!(matches!(
            net.add_node("n", vec![a], cover(2, &["11"])),
            Err(NetworkError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let net = sample();
        let order = net.topological_order().unwrap();
        let pos = |name: &str| {
            order
                .iter()
                .position(|&s| net.signal_name(s) == name)
                .unwrap()
        };
        assert!(pos("n1") < pos("n2"));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn cycle_is_detected() {
        let mut net = Network::new("cyc");
        let a = net.add_input("a").unwrap();
        // n1 depends on n2 and vice versa.
        let n1 = net.add_node("n1", vec![a], cover(1, &["1"])).unwrap();
        let n2 = net.add_node("n2", vec![n1], cover(1, &["1"])).unwrap();
        net.replace_node(n1, vec![n2], cover(1, &["1"])).unwrap();
        assert!(matches!(
            net.topological_order(),
            Err(NetworkError::CombinationalCycle)
        ));
    }

    #[test]
    fn global_functions_match_simulation() {
        let net = sample();
        let (_mgr, _vars, funcs) = net.global_functions().unwrap();
        let cis = net.combinational_inputs();
        for bits in 0..(1u32 << cis.len()) {
            let asg: Vec<bool> = (0..cis.len()).map(|i| bits & (1 << i) != 0).collect();
            let sim = net.simulate(&asg).unwrap();
            for co in net.combinational_outputs() {
                assert_eq!(
                    funcs[&co].eval(&asg),
                    sim[&co],
                    "mismatch at signal {}",
                    net.signal_name(co)
                );
            }
        }
    }

    #[test]
    fn constants_propagate() {
        let mut net = Network::new("const");
        let one = net.add_constant("one", true).unwrap();
        let a = net.add_input("a").unwrap();
        let n = net.add_node("n", vec![one, a], cover(2, &["11"])).unwrap();
        net.add_output(n);
        let sim = net.simulate(&[true]).unwrap();
        assert!(sim[&n]);
        let (_m, _v, funcs) = net.global_functions().unwrap();
        assert_eq!(funcs[&n], funcs[&a]);
    }
}
