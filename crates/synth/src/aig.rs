//! And-Inverter Graphs with structural hashing.

use std::collections::HashMap;

use asicgap_equiv::Lit;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Const,
    Input(usize),
    And(Lit, Lit),
}

/// An And-Inverter Graph: the technology-independent logic representation.
///
/// # Example
///
/// ```
/// use asicgap_synth::Aig;
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
    nodes: Vec<Node>,
    /// AND-depth per node, maintained incrementally.
    depths: Vec<usize>,
    input_names: Vec<String>,
    outputs: Vec<(String, Lit)>,
    strash: HashMap<(Lit, Lit), usize>,
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
            nodes: vec![Node::Const],
            depths: vec![0],
            input_names: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// Adds a primary input and returns its literal.
    pub fn input(&mut self, name: impl Into<String>) -> Lit {
        let idx = self.nodes.len();
        self.nodes.push(Node::Input(self.input_names.len()));
        self.depths.push(0);
        self.input_names.push(name.into());
        Lit::new(idx, false)
    }

    /// Declares an output.
    pub fn set_output(&mut self, name: impl Into<String>, lit: Lit) {
        self.outputs.push((name.into(), lit));
    }

    /// Input names in declaration order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Outputs as (name, literal) pairs.
    pub fn outputs(&self) -> &[(String, Lit)] {
        &self.outputs
    }

    /// Number of inputs.
    pub fn input_count(&self) -> usize {
        self.input_names.len()
    }

    /// The AND children of `node`, if it is an AND.
    pub fn and_children(&self, node: usize) -> Option<(Lit, Lit)> {
        match self.nodes[node] {
            Node::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// `true` if `node` is a primary input.
    pub fn is_input(&self, node: usize) -> bool {
        matches!(self.nodes[node], Node::Input(_))
    }

    /// The input position of `node`, if it is an input.
    pub fn input_position(&self, node: usize) -> Option<usize> {
        match self.nodes[node] {
            Node::Input(k) => Some(k),
            _ => None,
        }
    }

    /// Total node count (constant + inputs + ANDs).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no nodes besides the constant.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// AND of two literals, with constant folding, trivial-case
    /// simplification, one-level rewriting (absorption, contradiction,
    /// substitution), and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant folding.
        if a == Lit::FALSE || b == Lit::FALSE {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE {
            return a;
        }
        if a == b {
            return a;
        }
        if a == b.not() {
            return Lit::FALSE;
        }
        // One-level rewriting against each operand's children.
        for (x, y) in [(a, b), (b, a)] {
            if let Some((c, d)) = self.and_children(y.node()) {
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
        // Commutative normalisation for hashing.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&n) = self.strash.get(&(a, b)) {
            return Lit::new(n, false);
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::And(a, b));
        self.depths
            .push(1 + self.depths[a.node()].max(self.depths[b.node()]));
        self.strash.insert((a, b), idx);
        Lit::new(idx, false)
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.not(), b.not()).not()
    }

    /// XOR as `(a·¬b) + (¬a·b)`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, b.not());
        let t1 = self.and(a.not(), b);
        self.or(t0, t1)
    }

    /// MUX: `s ? b : a`.
    pub fn mux(&mut self, a: Lit, b: Lit, s: Lit) -> Lit {
        let t0 = self.and(a, s.not());
        let t1 = self.and(b, s);
        self.or(t0, t1)
    }

    /// 3-input majority.
    pub fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
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
    pub fn and_all(&mut self, lits: &[Lit]) -> Lit {
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

    /// Evaluates all outputs on concrete input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.input_count()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.input_count(), "input arity mismatch");
        let mut val = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            val[i] = match *node {
                Node::Const => false,
                Node::Input(k) => inputs[k],
                Node::And(a, b) => {
                    let va = val[a.node()] ^ a.is_complement();
                    let vb = val[b.node()] ^ b.is_complement();
                    va && vb
                }
            };
        }
        self.outputs
            .iter()
            .map(|(_, l)| val[l.node()] ^ l.is_complement())
            .collect()
    }

    /// Depth in AND levels of the deepest output cone.
    pub fn depth(&self) -> usize {
        let mut d = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::And(a, b) = *node {
                d[i] = 1 + d[a.node()].max(d[b.node()]);
            }
        }
        self.outputs
            .iter()
            .map(|(_, l)| d[l.node()])
            .max()
            .unwrap_or(0)
    }

    /// Rebuilds the AIG with balanced AND/OR trees (depth reduction — the
    /// technology-independent restructuring step every synthesis tool
    /// runs). Output literals are remapped; names are preserved.
    pub fn balanced(&self) -> Aig {
        let mut out = Aig::new();
        for name in &self.input_names {
            out.input(name.clone());
        }
        let mut memo: HashMap<usize, Lit> = HashMap::new();
        // Depth for tie-breaking when rebuilding.
        let mut new_outputs = Vec::new();
        for (name, lit) in &self.outputs {
            let l = self.rebuild(lit.node(), &mut out, &mut memo);
            new_outputs.push((name.clone(), if lit.is_complement() { l.not() } else { l }));
        }
        for (n, l) in new_outputs {
            out.set_output(n, l);
        }
        out
    }

    /// Rebuilds `node` into `out`, flattening maximal same-phase AND cones
    /// and re-associating them balanced by depth.
    fn rebuild(&self, node: usize, out: &mut Aig, memo: &mut HashMap<usize, Lit>) -> Lit {
        if let Some(&l) = memo.get(&node) {
            return l;
        }
        let lit = match self.nodes[node] {
            Node::Const => Lit::FALSE,
            Node::Input(k) => Lit::new(k + 1, false), // inputs occupy 1..=n in `out`
            Node::And(_, _) => {
                // Collect the maximal AND cone rooted here: descend through
                // plain (non-complemented) AND edges.
                let mut leaves: Vec<Lit> = Vec::new();
                self.collect_and_cone(node, &mut leaves);
                let mut rebuilt: Vec<(usize, Lit)> = leaves
                    .iter()
                    .map(|l| {
                        let r = self.rebuild(l.node(), out, memo);
                        let r = if l.is_complement() { r.not() } else { r };
                        (out.lit_depth(r), r)
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
                        .binary_search_by_key(&std::cmp::Reverse(d), |&(dd, _)| {
                            std::cmp::Reverse(dd)
                        })
                        .unwrap_or_else(|e| e);
                    rebuilt.insert(pos, (d, combined));
                }
                rebuilt[0].1
            }
        };
        memo.insert(node, lit);
        lit
    }

    fn collect_and_cone(&self, node: usize, leaves: &mut Vec<Lit>) {
        let Node::And(a, b) = self.nodes[node] else {
            unreachable!("cone roots are AND nodes");
        };
        for child in [a, b] {
            if !child.is_complement() {
                if let Node::And(_, _) = self.nodes[child.node()] {
                    self.collect_and_cone(child.node(), leaves);
                    continue;
                }
            }
            leaves.push(child);
        }
    }

    fn lit_depth(&self, lit: Lit) -> usize {
        self.depths[lit.node()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_count(g: &Aig) -> usize {
        g.nodes
            .iter()
            .filter(|n| matches!(n, Node::And(_, _)))
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
        assert_eq!(g.depth(), 15);
        let b = g.balanced();
        assert_eq!(b.depth(), 4, "16-way AND balances to depth 4");
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
