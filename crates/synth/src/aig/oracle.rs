//! Differential oracle for the synthesis AIG over the shared graph: the
//! AIG that kept its own node vector and strash table survives here,
//! test-only and verbatim apart from the methods no comparison needs,
//! together with the two cell-function expansions the shared
//! [`build_function`] replaced (synthesis re-entry's and the miter
//! import's). Seeded random sequences of AIG calls, and every
//! combinational cell function, must build the same nodes, depths and
//! literals on both sides: that is what keeps every mapped netlist,
//! every equivalence effort counter and every reply byte where it was.
//!
//! Expiry: delete this module with the first change meant to alter AIG
//! structure (a new rewrite rule, another `and_all` or `maj` order, a
//! different balancing): such a change re-pins its goldens instead.

use std::collections::HashMap;

use asicgap_cells::CellFunction;
use asicgap_equiv::{build_function, AigOps, Graph, Lit};
use asicgap_tech::Rng64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Const,
    Input(usize),
    And(Lit, Lit),
}

/// The AIG before it stored its nodes in [`Graph`].
#[derive(Debug, Clone)]
struct Aig {
    nodes: Vec<Node>,
    depths: Vec<usize>,
    input_names: Vec<String>,
    outputs: Vec<(String, Lit)>,
    strash: HashMap<(Lit, Lit), usize>,
}

impl Aig {
    fn new() -> Aig {
        Aig {
            nodes: vec![Node::Const],
            depths: vec![0],
            input_names: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::new(),
        }
    }

    fn input(&mut self, name: impl Into<String>) -> Lit {
        let idx = self.nodes.len();
        self.nodes.push(Node::Input(self.input_names.len()));
        self.depths.push(0);
        self.input_names.push(name.into());
        Lit::new(idx, false)
    }

    fn set_output(&mut self, name: impl Into<String>, lit: Lit) {
        self.outputs.push((name.into(), lit));
    }

    fn and_children(&self, node: usize) -> Option<(Lit, Lit)> {
        match self.nodes[node] {
            Node::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    fn and(&mut self, a: Lit, b: Lit) -> Lit {
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

    fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.not(), b.not()).not()
    }

    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, b.not());
        let t1 = self.and(a.not(), b);
        self.or(t0, t1)
    }

    fn mux(&mut self, a: Lit, b: Lit, s: Lit) -> Lit {
        let t0 = self.and(a, s.not());
        let t1 = self.and(b, s);
        self.or(t0, t1)
    }

    fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let bc = self.and(b, c);
        let ac = self.and(a, c);
        let t = self.or(ab, bc);
        self.or(t, ac)
    }

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

    fn balanced(&self) -> Aig {
        let mut out = Aig::new();
        for name in &self.input_names {
            out.input(name.clone());
        }
        let mut memo: HashMap<usize, Lit> = HashMap::new();
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

    fn rebuild(&self, node: usize, out: &mut Aig, memo: &mut HashMap<usize, Lit>) -> Lit {
        if let Some(&l) = memo.get(&node) {
            return l;
        }
        let lit = match self.nodes[node] {
            Node::Const => Lit::FALSE,
            Node::Input(k) => Lit::new(k + 1, false), // inputs occupy 1..=n in `out`
            Node::And(_, _) => {
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
}

/// The re-entry expansion synthesis kept (`reentry::build_function`).
fn expand_in_reentry(aig: &mut Aig, f: CellFunction, ins: &[Lit]) -> Lit {
    assert_eq!(ins.len(), f.num_inputs(), "{f} arity mismatch in re-entry");
    match f {
        CellFunction::Inv => ins[0].not(),
        CellFunction::Buf => ins[0],
        CellFunction::And(_) => aig.and_all(ins),
        CellFunction::Nand(_) => aig.and_all(ins).not(),
        CellFunction::Or(_) => {
            let nots: Vec<Lit> = ins.iter().map(|l| l.not()).collect();
            aig.and_all(&nots).not()
        }
        CellFunction::Nor(_) => {
            let nots: Vec<Lit> = ins.iter().map(|l| l.not()).collect();
            aig.and_all(&nots)
        }
        CellFunction::Xor2 => aig.xor(ins[0], ins[1]),
        CellFunction::Xnor2 => aig.xor(ins[0], ins[1]).not(),
        CellFunction::Xor3 => {
            let t = aig.xor(ins[0], ins[1]);
            aig.xor(t, ins[2])
        }
        CellFunction::Maj3 => aig.maj(ins[0], ins[1], ins[2]),
        CellFunction::Aoi21 => {
            let t = aig.and(ins[0], ins[1]);
            aig.or(t, ins[2]).not()
        }
        CellFunction::Aoi22 => {
            let t0 = aig.and(ins[0], ins[1]);
            let t1 = aig.and(ins[2], ins[3]);
            aig.or(t0, t1).not()
        }
        CellFunction::Oai21 => {
            let t = aig.or(ins[0], ins[1]);
            aig.and(t, ins[2]).not()
        }
        CellFunction::Oai22 => {
            let t0 = aig.or(ins[0], ins[1]);
            let t1 = aig.or(ins[2], ins[3]);
            aig.and(t0, t1).not()
        }
        CellFunction::Mux2 => aig.mux(ins[0], ins[1], ins[2]),
        CellFunction::Dff | CellFunction::Latch => {
            unreachable!("sequential cells are handled as boundaries")
        }
    }
}

/// The miter graph's operations before [`AigOps`]: `and` is still the
/// graph's own; the rest are the bodies the graph carried (its `mux` put
/// the select first in each AND).
struct OldGraph<'a>(&'a mut Graph);

impl OldGraph<'_> {
    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        self.0.and(a, b)
    }

    fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.not(), b.not()).not()
    }

    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, b.not());
        let t1 = self.and(a.not(), b);
        self.or(t0, t1)
    }

    fn mux(&mut self, a: Lit, b: Lit, s: Lit) -> Lit {
        let t0 = self.and(s.not(), a);
        let t1 = self.and(s, b);
        self.or(t0, t1)
    }

    fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let t = self.or(ab, ac);
        self.or(t, bc)
    }

    fn and_all(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = Lit::TRUE;
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }
}

/// The miter import's expansion (`miter::build_function`).
fn expand_in_miter(g: &mut OldGraph<'_>, f: CellFunction, ins: &[Lit]) -> Lit {
    assert_eq!(ins.len(), f.num_inputs(), "{f} arity mismatch in miter");
    match f {
        CellFunction::Inv => ins[0].not(),
        CellFunction::Buf => ins[0],
        CellFunction::And(_) => g.and_all(ins),
        CellFunction::Nand(_) => g.and_all(ins).not(),
        CellFunction::Or(_) => {
            let nots: Vec<Lit> = ins.iter().map(|l| l.not()).collect();
            g.and_all(&nots).not()
        }
        CellFunction::Nor(_) => {
            let nots: Vec<Lit> = ins.iter().map(|l| l.not()).collect();
            g.and_all(&nots)
        }
        CellFunction::Xor2 => g.xor(ins[0], ins[1]),
        CellFunction::Xnor2 => g.xor(ins[0], ins[1]).not(),
        CellFunction::Xor3 => {
            let t = g.xor(ins[0], ins[1]);
            g.xor(t, ins[2])
        }
        CellFunction::Maj3 => g.maj(ins[0], ins[1], ins[2]),
        CellFunction::Aoi21 => {
            let t = g.and(ins[0], ins[1]);
            g.or(t, ins[2]).not()
        }
        CellFunction::Aoi22 => {
            let t0 = g.and(ins[0], ins[1]);
            let t1 = g.and(ins[2], ins[3]);
            g.or(t0, t1).not()
        }
        CellFunction::Oai21 => {
            let t = g.or(ins[0], ins[1]);
            g.and(t, ins[2]).not()
        }
        CellFunction::Oai22 => {
            let t0 = g.or(ins[0], ins[1]);
            let t1 = g.or(ins[2], ins[3]);
            g.and(t0, t1).not()
        }
        CellFunction::Mux2 => g.mux(ins[0], ins[1], ins[2]),
        CellFunction::Dff | CellFunction::Latch => {
            unreachable!("sequential cells are handled as boundaries")
        }
    }
}

/// Every node of a graph as (input position, AND children).
type NodeList = Vec<(Option<usize>, Option<(Lit, Lit)>)>;

fn graph_nodes(g: &Graph) -> NodeList {
    (0..g.len())
        .map(|n| (g.input_position(n), g.and_children(n)))
        .collect()
}

fn oracle_nodes(o: &Aig) -> NodeList {
    o.nodes
        .iter()
        .map(|node| match *node {
            Node::Const => (None, None),
            Node::Input(k) => (Some(k), None),
            Node::And(a, b) => (None, Some((a, b))),
        })
        .collect()
}

/// Node lists, depths, input names and outputs all equal.
fn assert_same(new: &super::Aig, old: &Aig, what: &str) {
    assert_eq!(graph_nodes(&new.graph), oracle_nodes(old), "{what}: nodes");
    assert_eq!(new.depths, old.depths, "{what}: depths");
    assert_eq!(
        new.graph.input_names(),
        old.input_names,
        "{what}: input names"
    );
    assert_eq!(new.outputs, old.outputs, "{what}: outputs");
}

/// A literal from the pool, complemented half the time.
fn pick(rng: &mut Rng64, pool: &[Lit]) -> Lit {
    let l = pool[rng.index(pool.len())];
    if rng.flip() {
        l.not()
    } else {
        l
    }
}

/// Operands aimed at a rewrite rule: an AND from the pool (either
/// phase) and one of its children (either phase), in either order.
fn rule_operands(rng: &mut Rng64, new: &super::Aig, pool: &[Lit]) -> Option<(Lit, Lit)> {
    let ands: Vec<Lit> = pool
        .iter()
        .copied()
        .filter(|l| new.graph.and_children(l.node()).is_some())
        .collect();
    if ands.is_empty() {
        return None;
    }
    let y = pick(rng, &ands);
    let (c, d) = new.graph.and_children(y.node()).expect("an AND");
    let x = pick(rng, &[c, d]);
    Some(if rng.flip() { (x, y) } else { (y, x) })
}

#[test]
fn random_call_sequences_build_the_oracle_graph() {
    let names = ["a", "b", "__q_r", "r", "a"];
    for seed in 0..300u64 {
        let mut rng = Rng64::new(0xA16_0000 + seed);
        let mut new = super::Aig::new();
        let mut old = Aig::new();
        let mut pool = vec![Lit::FALSE, Lit::TRUE];
        for _ in 0..2 + rng.index(3) {
            let name = names[rng.index(names.len())];
            let l = new.input(name);
            assert_eq!(l, old.input(name));
            pool.push(l);
        }
        for step in 0..40 + rng.index(80) {
            let (a, b, c) = (
                pick(&mut rng, &pool),
                pick(&mut rng, &pool),
                pick(&mut rng, &pool),
            );
            let (n, o) = match rng.index(9) {
                0 => {
                    let name = names[rng.index(names.len())];
                    (new.input(name), old.input(name))
                }
                1 => (new.and(a, b), old.and(a, b)),
                2 => match rule_operands(&mut rng, &new, &pool) {
                    Some((x, y)) => (new.and(x, y), old.and(x, y)),
                    None => (new.and(a, a.not()), old.and(a, a.not())),
                },
                3 => (new.or(a, b), old.or(a, b)),
                4 => (new.xor(a, b), old.xor(a, b)),
                5 => (new.mux(a, b, c), old.mux(a, b, c)),
                6 => (new.maj(a, b, c), old.maj(a, b, c)),
                7 => {
                    let lits: Vec<Lit> = (0..1 + rng.index(6))
                        .map(|_| pick(&mut rng, &pool))
                        .collect();
                    (new.and_all(&lits), old.and_all(&lits))
                }
                _ => {
                    new.set_output(format!("y{step}"), a);
                    old.set_output(format!("y{step}"), a);
                    (a, a)
                }
            };
            assert_eq!(n, o, "seed {seed} step {step}");
            pool.push(n);
        }
        assert_same(&new, &old, &format!("seed {seed}"));
        let (bn, bo) = (new.balanced(), old.balanced());
        assert_same(&bn, &bo, &format!("seed {seed} balanced"));
        assert_same(
            &bn.balanced(),
            &bo.balanced(),
            &format!("seed {seed} rebalanced"),
        );
    }
}

#[test]
fn the_shared_expansion_builds_both_deleted_copies() {
    let mut functions = vec![CellFunction::Inv, CellFunction::Buf];
    for n in 2..=4 {
        functions.extend([
            CellFunction::Nand(n),
            CellFunction::Nor(n),
            CellFunction::And(n),
            CellFunction::Or(n),
        ]);
    }
    functions.extend([
        CellFunction::Xor2,
        CellFunction::Xnor2,
        CellFunction::Xor3,
        CellFunction::Maj3,
        CellFunction::Aoi21,
        CellFunction::Aoi22,
        CellFunction::Oai21,
        CellFunction::Oai22,
        CellFunction::Mux2,
    ]);
    for f in functions {
        for seed in 0..40u64 {
            let mut rng = Rng64::new(0xE4_0000 + seed);
            // Synthesis: the shared expansion on the AIG against re-entry's
            // copy on the oracle, over inputs and ANDs already built.
            let mut new = super::Aig::new();
            let mut old = Aig::new();
            let mut pool = vec![Lit::FALSE, Lit::TRUE];
            for k in 0..4 {
                let l = new.input(format!("i{k}"));
                assert_eq!(l, old.input(format!("i{k}")));
                pool.push(l);
            }
            for _ in 0..3 {
                let (a, b) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
                let l = new.and(a, b);
                assert_eq!(l, old.and(a, b));
                pool.push(l);
            }
            let ins: Vec<Lit> = (0..f.num_inputs()).map(|_| pick(&mut rng, &pool)).collect();
            let got = build_function(&mut new, f, &ins);
            assert_eq!(got, expand_in_reentry(&mut old, f, &ins), "{f} seed {seed}");
            assert_same(&new, &old, &format!("{f} seed {seed}"));

            // Miter: the same draws on the graph against the import's copy.
            let mut shared = Graph::new();
            let mut copy = Graph::new();
            let mut pool = vec![Lit::FALSE, Lit::TRUE];
            for k in 0..4 {
                let l = shared.input(&format!("i{k}"));
                assert_eq!(l, copy.input(&format!("i{k}")));
                pool.push(l);
            }
            for _ in 0..3 {
                let (a, b) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
                let l = shared.and(a, b);
                assert_eq!(l, copy.and(a, b));
                pool.push(l);
            }
            let ins: Vec<Lit> = (0..f.num_inputs()).map(|_| pick(&mut rng, &pool)).collect();
            let got = build_function(&mut shared, f, &ins);
            assert_eq!(
                got,
                expand_in_miter(&mut OldGraph(&mut copy), f, &ins),
                "{f} seed {seed}"
            );
            assert_eq!(graph_nodes(&shared), graph_nodes(&copy), "{f} seed {seed}");
        }
    }
}
