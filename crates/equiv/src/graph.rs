//! The And-Inverter Graph shared by the equivalence checker and
//! synthesis.
//!
//! Both sides of a miter are imported into **one** [`Graph`], so a
//! primary input named `a` on the golden design and `a` on the candidate
//! resolve to the same literal ([`Graph::input`]). Structural hashing
//! then merges every cone the two sides build identically — such output
//! pairs fold to the same literal and are discharged without touching
//! the SAT solver. Only genuinely restructured logic reaches CNF.
//!
//! The graph itself does constant propagation, idempotence/complement
//! rules, commutative canonicalisation and strashing — nothing that
//! depends on which tool is building. The synthesis AIG in
//! `asicgap-synth` stores its nodes here too and adds what only
//! synthesis needs in front: AND depths, one-level rewriting, balancing,
//! and inputs that are never merged by name ([`Graph::fresh_input`]).
//! Cell functions expand into either through [`AigOps`] and
//! [`crate::build_function`]. The graph lives in this crate so that
//! `asicgap-synth` (and everything above it) can *depend on* the checker
//! without a cycle.

use std::collections::HashMap;

/// A literal: a [`Graph`] node with an optional complement, encoded as
/// `node << 1 | complement`. Node 0 is the constant false, so
/// [`Lit::FALSE`] is `0` and [`Lit::TRUE`] is `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Constant false.
    pub const FALSE: Lit = Lit(0);
    /// Constant true.
    pub const TRUE: Lit = Lit(1);

    /// The literal for `node`, optionally complemented.
    pub fn new(node: usize, complement: bool) -> Lit {
        Lit((node as u32) << 1 | complement as u32)
    }

    /// The referenced node index.
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// `true` if the literal is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal.
    #[allow(clippy::should_implement_trait)] // AIG literature calls this `not`
    #[must_use]
    pub fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// `true` for [`Lit::FALSE`] and [`Lit::TRUE`].
    pub fn is_const(self) -> bool {
        self.node() == 0
    }
}

/// One graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    /// The constant-false node (index 0 only).
    Const,
    /// Primary input number `n` (index into [`Graph::input_names`]).
    Input(usize),
    /// Two-input AND of the operand literals.
    And(Lit, Lit),
}

/// The AND-level operations a cell function expands into
/// ([`crate::build_function`]), implemented by the miter [`Graph`] and the
/// synthesis AIG.
///
/// `or`, `xor` and `mux` are built from `and` here, once. Each
/// implementor keeps its own `and`, `maj` and `and_all`, because those
/// create nodes in an order the implementor's results are pinned to.
pub trait AigOps {
    /// AND of two literals.
    fn and(&mut self, a: Lit, b: Lit) -> Lit;

    /// Majority of three.
    fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit;

    /// AND over a slice (cell expansions never pass an empty one).
    fn and_all(&mut self, lits: &[Lit]) -> Lit;

    /// OR via De Morgan.
    fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.not(), b.not()).not()
    }

    /// XOR as `(a·¬b) + (¬a·b)`.
    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, b.not());
        let t1 = self.and(a.not(), b);
        self.or(t0, t1)
    }

    /// 2:1 mux: `s ? b : a`.
    fn mux(&mut self, a: Lit, b: Lit, s: Lit) -> Lit {
        let t0 = self.and(a, s.not());
        let t1 = self.and(b, s);
        self.or(t0, t1)
    }
}

/// A structurally hashed AIG with get-or-create named inputs.
///
/// # Example
///
/// ```
/// use asicgap_equiv::{AigOps, Graph, Lit};
///
/// let mut g = Graph::new();
/// let a = g.input("a");
/// let b = g.input("b");
/// let x = g.and(a, b);
/// // Same operands, same node — strashing at work.
/// assert_eq!(g.and(b, a), x);
/// // Constant propagation.
/// assert_eq!(g.and(a, a.not()), Lit::FALSE);
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    input_names: Vec<String>,
    by_name: HashMap<String, Lit>,
    strash: HashMap<(Lit, Lit), usize>,
}

impl Default for Graph {
    fn default() -> Graph {
        Graph::new()
    }
}

impl Graph {
    /// An empty graph (just the constant node).
    pub fn new() -> Graph {
        Graph {
            nodes: vec![Node::Const],
            input_names: Vec::new(),
            by_name: HashMap::new(),
            strash: HashMap::new(),
        }
    }

    /// Returns the literal for the input named `name`, creating the input
    /// if it does not exist yet. Both sides of a miter call this with
    /// their port names; identical names share one node.
    pub fn input(&mut self, name: &str) -> Lit {
        if let Some(&lit) = self.by_name.get(name) {
            return lit;
        }
        let lit = self.fresh_input(name);
        self.by_name.insert(name.to_string(), lit);
        lit
    }

    /// Creates a new input named `name`, never shared: neither
    /// [`Graph::input`] nor [`Graph::input_literal`] finds it by name.
    /// Synthesis numbers its inputs by position, so two of them may carry
    /// one name (a top port `__q_r` beside register `r`'s pseudo-input).
    pub fn fresh_input(&mut self, name: impl Into<String>) -> Lit {
        let idx = self.nodes.len();
        self.nodes.push(Node::Input(self.input_names.len()));
        self.input_names.push(name.into());
        Lit::new(idx, false)
    }

    /// Input names in creation order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// The literal of an already-created input, without creating one.
    pub fn input_literal(&self, name: &str) -> Option<Lit> {
        self.by_name.get(name).copied()
    }

    /// Total node count (constant + inputs + ANDs).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph holds nothing beyond the constant node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The AND operands of `node`, or `None` for inputs/constants.
    pub fn and_children(&self, node: usize) -> Option<(Lit, Lit)> {
        match self.nodes[node] {
            Node::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// The input position of `node`, or `None` if it is not an input.
    pub fn input_position(&self, node: usize) -> Option<usize> {
        match self.nodes[node] {
            Node::Input(i) => Some(i),
            _ => None,
        }
    }

    /// Evaluates `lits` under an assignment of every input (indexed by
    /// input position; missing inputs read as false).
    pub fn eval(&self, lits: impl IntoIterator<Item = Lit>, inputs: &[bool]) -> Vec<bool> {
        let mut values = vec![false; self.nodes.len()];
        for (n, node) in self.nodes.iter().enumerate() {
            values[n] = match *node {
                Node::Const => false,
                Node::Input(i) => inputs.get(i).copied().unwrap_or(false),
                Node::And(a, b) => {
                    (values[a.node()] ^ a.is_complement()) & (values[b.node()] ^ b.is_complement())
                }
            };
        }
        lits.into_iter()
            .map(|l| values[l.node()] ^ l.is_complement())
            .collect()
    }
}

impl AigOps for Graph {
    /// AND with constant propagation, idempotence, complement rules, and
    /// structural hashing.
    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant and trivial cases.
        if a == Lit::FALSE || b == Lit::FALSE || a == b.not() {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        // Commutative canonical order.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&n) = self.strash.get(&(a, b)) {
            return Lit::new(n, false);
        }
        let n = self.nodes.len();
        self.nodes.push(Node::And(a, b));
        self.strash.insert((a, b), n);
        Lit::new(n, false)
    }

    fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let t = self.or(ab, ac);
        self.or(t, bc)
    }

    /// Left fold from [`Lit::TRUE`] (so an empty slice is true).
    fn and_all(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = Lit::TRUE;
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_rules() {
        let mut g = Graph::new();
        let a = g.input("a");
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(Lit::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, a.not()), Lit::FALSE);
    }

    #[test]
    fn inputs_are_shared_by_name() {
        let mut g = Graph::new();
        let a1 = g.input("a");
        let a2 = g.input("a");
        assert_eq!(a1, a2);
        assert_eq!(g.input_names(), ["a"]);
    }

    #[test]
    fn fresh_inputs_are_never_shared() {
        let mut g = Graph::default();
        let a = g.input("a");
        let b = g.fresh_input("a");
        assert!(!a.is_const(), "the default graph holds the constant node");
        assert_ne!(a, b);
        assert_eq!(g.input_literal("a"), Some(a));
        assert_eq!(g.input("a"), a);
        assert_eq!(g.input_names(), ["a", "a"]);
    }

    #[test]
    fn identical_cones_strash_to_one_literal() {
        let mut g = Graph::new();
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let x1 = g.and(a, b);
        let y1 = g.or(x1, c);
        // "Other side" of the miter builds the same function the same way.
        let x2 = g.and(b, a);
        let y2 = g.or(c, x2);
        assert_eq!(y1, y2);
        // xor of equal literals folds to the constant.
        assert_eq!(g.xor(y1, y2), Lit::FALSE);
    }

    #[test]
    fn eval_matches_truth_tables() {
        let mut g = Graph::new();
        let a = g.input("a");
        let b = g.input("b");
        let x = g.xor(a, b);
        let m = g.mux(a, b, x);
        for bits in 0..4u32 {
            let ins = [bits & 1 != 0, bits & 2 != 0];
            assert_eq!(g.eval([x], &ins), [ins[0] ^ ins[1]]);
            let want = if ins[0] ^ ins[1] { ins[1] } else { ins[0] };
            assert_eq!(g.eval([m], &ins), [want]);
        }
    }

    #[test]
    fn maj_is_majority() {
        let mut g = Graph::new();
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let m = g.maj(a, b, c);
        for bits in 0..8u32 {
            let ins = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let want = ins.iter().filter(|&&x| x).count() >= 2;
            assert_eq!(g.eval([m], &ins), [want], "bits {bits:03b}");
        }
    }
}
