//! And-Inverter Graphs for synthesis: the equivalence checker's
//! [`Graph`] plus what only synthesis adds.

use std::collections::HashMap;

use asicgap_equiv::{AigOps, Graph, Lit};

/// An And-Inverter Graph: the technology-independent logic representation.
///
/// Its nodes live in an [`asicgap_equiv::Graph`] — one node vector, one
/// strash table and one evaluator, shared with the equivalence checker.
/// On top of it the AIG keeps what synthesis adds: AND depths, named
/// outputs, one-level rewriting in front of the graph's `and`, balancing,
/// and inputs that are always created fresh, never merged by name.
///
/// # Example
///
/// ```
/// use asicgap_synth::{Aig, AigOps};
///
/// let mut aig = Aig::new();
/// let a = aig.input("a");
/// let b = aig.input("b");
/// let x = aig.xor(a, b);
/// aig.set_output("x", x);
/// assert_eq!(aig.eval(&[true, false]), vec![true]);
/// assert_eq!(aig.eval(&[true, true]), vec![false]);
/// ```
#[derive(Debug, Clone)]
pub struct Aig {
    graph: Graph,
    /// AND-depth per node, maintained incrementally.
    depths: Vec<usize>,
    outputs: Vec<(String, Lit)>,
}

impl Default for Aig {
    fn default() -> Aig {
        Aig::new()
    }
}

impl Aig {
    /// An empty AIG (just the constant node).
    pub fn new() -> Aig {
        Aig {
            graph: Graph::new(),
            depths: vec![0],
            outputs: Vec::new(),
        }
    }

    /// Adds a primary input and returns its literal. Every call creates a
    /// new input, whatever its name: inputs are positions, not names.
    pub fn input(&mut self, name: impl Into<String>) -> Lit {
        self.depths.push(0);
        self.graph.fresh_input(name)
    }

    /// Declares an output.
    pub fn set_output(&mut self, name: impl Into<String>, lit: Lit) {
        self.outputs.push((name.into(), lit));
    }

    /// Outputs as (name, literal) pairs.
    pub fn outputs(&self) -> &[(String, Lit)] {
        &self.outputs
    }

    /// The node graph: AND structure, input names and positions.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Evaluates all outputs on concrete input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not hold one value per input.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let arity = self.graph.input_names().len();
        assert_eq!(inputs.len(), arity, "input arity mismatch");
        self.graph
            .eval(self.outputs.iter().map(|&(_, l)| l), inputs)
    }

    /// Rebuilds the AIG with balanced AND/OR trees (depth reduction — the
    /// technology-independent restructuring step every synthesis tool
    /// runs). Output literals are remapped; names are preserved.
    pub fn balanced(&self) -> Aig {
        let mut out = Aig::new();
        for name in self.graph.input_names() {
            out.input(name.clone());
        }
        let mut memo: HashMap<usize, Lit> = HashMap::new();
        for (name, lit) in &self.outputs {
            let l = self.rebuild(lit.node(), &mut out, &mut memo);
            out.set_output(name.clone(), if lit.is_complement() { l.not() } else { l });
        }
        out
    }

    /// Rebuilds `node` into `out`, flattening maximal same-phase AND cones
    /// and re-associating them balanced by depth.
    fn rebuild(&self, node: usize, out: &mut Aig, memo: &mut HashMap<usize, Lit>) -> Lit {
        if let Some(&l) = memo.get(&node) {
            return l;
        }
        let lit = if node == 0 {
            Lit::FALSE
        } else if let Some(k) = self.graph.input_position(node) {
            Lit::new(k + 1, false) // inputs occupy 1..=n in `out`
        } else {
            // Collect the maximal AND cone rooted here: descend through
            // plain (non-complemented) AND edges.
            let mut leaves: Vec<Lit> = Vec::new();
            self.collect_and_cone(node, &mut leaves);
            let mut rebuilt: Vec<(usize, Lit)> = leaves
                .iter()
                .map(|l| {
                    let r = self.rebuild(l.node(), out, memo);
                    let r = if l.is_complement() { r.not() } else { r };
                    (out.depths[r.node()], r)
                })
                .collect();
            // Huffman-style: always combine the two shallowest.
            rebuilt.sort_by_key(|&(d, _)| std::cmp::Reverse(d));
            while rebuilt.len() > 1 {
                let (d1, l1) = rebuilt.pop().expect("len > 1");
                let (d2, l2) = rebuilt.pop().expect("len > 0");
                let combined = out.and(l1, l2);
                let d = d1.max(d2) + 1;
                let pos = rebuilt
                    .binary_search_by_key(&std::cmp::Reverse(d), |&(dd, _)| std::cmp::Reverse(dd))
                    .unwrap_or_else(|e| e);
                rebuilt.insert(pos, (d, combined));
            }
            rebuilt[0].1
        };
        memo.insert(node, lit);
        lit
    }

    fn collect_and_cone(&self, node: usize, leaves: &mut Vec<Lit>) {
        let (a, b) = self
            .graph
            .and_children(node)
            .expect("cone roots are AND nodes");
        for child in [a, b] {
            if !child.is_complement() && self.graph.and_children(child.node()).is_some() {
                self.collect_and_cone(child.node(), leaves);
            } else {
                leaves.push(child);
            }
        }
    }
}

impl AigOps for Aig {
    /// AND of two literals: one-level rewriting (absorption,
    /// contradiction, substitution), then the graph's constant folding,
    /// trivial cases and structural hashing. No rule below matches a
    /// constant or trivial pair (AND children are never constant), so
    /// those reach the graph untouched.
    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // One-level rewriting against each operand's children.
        for (x, y) in [(a, b), (b, a)] {
            if let Some((c, d)) = self.graph.and_children(y.node()) {
                if !y.is_complement() {
                    // Absorption: x · (x·d) = x·d.
                    if x == c || x == d {
                        return y;
                    }
                    // Contradiction: x · (¬x·d) = 0.
                    if x == c.not() || x == d.not() {
                        return Lit::FALSE;
                    }
                } else {
                    // Substitution: x · ¬(x·d) = x·¬d.
                    if x == c {
                        return self.and(x, d.not());
                    }
                    if x == d {
                        return self.and(x, c.not());
                    }
                    // Idempotence through complement: x · ¬(¬x·d) = x.
                    if x == c.not() || x == d.not() {
                        return x;
                    }
                }
            }
        }
        let nodes = self.graph.len();
        let lit = self.graph.and(a, b);
        if self.graph.len() > nodes {
            self.depths
                .push(1 + self.depths[a.node()].max(self.depths[b.node()]));
        }
        lit
    }

    /// 3-input majority.
    fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let bc = self.and(b, c);
        let ac = self.and(a, c);
        let t = self.or(ab, bc);
        self.or(t, ac)
    }

    /// AND over a slice (balanced reduction).
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty.
    fn and_all(&mut self, lits: &[Lit]) -> Lit {
        assert!(!lits.is_empty(), "and over empty literal list");
        let mut level = lits.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                match pair {
                    [x, y] => next.push(self.and(*x, *y)),
                    [x] => next.push(*x),
                    _ => unreachable!(),
                }
            }
            level = next;
        }
        level[0]
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    /// Depth in AND levels of the deepest output cone.
    fn depth(g: &Aig) -> usize {
        g.outputs
            .iter()
            .map(|(_, l)| g.depths[l.node()])
            .max()
            .unwrap_or(0)
    }

    fn and_count(g: &Aig) -> usize {
        let graph = g.graph();
        (0..graph.len())
            .filter(|&n| graph.and_children(n).is_some())
            .count()
    }

    #[test]
    fn strashing_deduplicates() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y, "commutative normalisation shares the node");
        assert_eq!(and_count(&g), 1);
    }

    #[test]
    fn constant_folding() {
        let mut g = Aig::new();
        let a = g.input("a");
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, a.not()), Lit::FALSE);
        assert_eq!(and_count(&g), 0);
    }

    #[test]
    fn xor_mux_maj_truth_tables() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let s = g.input("s");
        let x = g.xor(a, b);
        let m = g.mux(a, b, s);
        let j = g.maj(a, b, s);
        g.set_output("x", x);
        g.set_output("m", m);
        g.set_output("j", j);
        for bits in 0..8u32 {
            let va = bits & 1 != 0;
            let vb = bits & 2 != 0;
            let vs = bits & 4 != 0;
            let out = g.eval(&[va, vb, vs]);
            assert_eq!(out[0], va ^ vb);
            assert_eq!(out[1], if vs { vb } else { va });
            #[allow(clippy::nonminimal_bool)] // textbook majority form
            let maj = (va && vb) || (vb && vs) || (va && vs);
            assert_eq!(out[2], maj);
        }
    }

    #[test]
    fn balance_reduces_depth_of_chains() {
        let mut g = Aig::new();
        let inputs: Vec<Lit> = (0..16).map(|i| g.input(format!("i{i}"))).collect();
        // Left-deep AND chain: depth 15.
        let mut acc = inputs[0];
        for &l in &inputs[1..] {
            acc = g.and(acc, l);
        }
        g.set_output("y", acc);
        assert_eq!(depth(&g), 15);
        let b = g.balanced();
        assert_eq!(depth(&b), 4, "16-way AND balances to depth 4");
        // Behaviour preserved.
        for pattern in [0u32, 0xFFFF, 0x1234, 0x8000] {
            let ins: Vec<bool> = (0..16).map(|i| pattern & (1 << i) != 0).collect();
            assert_eq!(g.eval(&ins), b.eval(&ins));
        }
    }

    #[test]
    fn balance_preserves_mixed_logic() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let x = g.xor(a, b);
        let y = g.or(x, c);
        let z = g.and(y, a);
        g.set_output("z", z);
        let bal = g.balanced();
        for bits in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(g.eval(&ins), bal.eval(&ins), "bits {bits:03b}");
        }
    }

    #[test]
    fn one_level_rewrites_fire_and_preserve_semantics() {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let ab = g.and(a, b);
        // Absorption: a · (a·b) = a·b — no new node.
        assert_eq!(g.and(a, ab), ab);
        // Contradiction: ¬a · (a·b) = 0.
        assert_eq!(g.and(a.not(), ab), Lit::FALSE);
        // Substitution: a · ¬(a·b) = a·¬b.
        let sub = g.and(a, ab.not());
        let direct = g.and(a, b.not());
        assert_eq!(sub, direct, "substitution canonicalises");
        // Idempotence through complement: a · ¬(¬a·b) = a.
        let nb = g.and(a.not(), b);
        assert_eq!(g.and(a, nb.not()), a);
        // Exhaustive semantic check of everything built above.
        g.set_output("s", sub);
        for bits in 0..4u32 {
            let ins = vec![bits & 1 != 0, bits & 2 != 0];
            assert_eq!(g.eval(&ins)[0], ins[0] && !ins[1], "bits {bits:02b}");
        }
    }

    #[test]
    fn lit_encoding_round_trips() {
        let l = Lit::new(5, true);
        assert_eq!(l.node(), 5);
        assert!(l.is_complement());
        assert_eq!(l.not().node(), 5);
        assert!(!l.not().is_complement());
        assert_eq!(Lit::TRUE, Lit::FALSE.not());
    }
}
