//! Technology mapping: AIG → mapped netlist over a concrete library.
//!
//! A dynamic program over (node, phase) chooses, for every AIG node and
//! both output polarities, the cheapest implementation among the patterns
//! the target library offers: flattened AND cones (AND/NAND/OR/NOR up to
//! the library fan-in), AOI/OAI shapes, XOR/XNOR and MUX detection, and
//! explicit inverters to fix phases. Libraries without a function simply
//! contribute no candidates for it — which is precisely how a poor library
//! inflates depth and gate count (§6).

use std::collections::HashMap;

use asicgap_cells::{CellFunction, Library, LogicFamily};
use asicgap_equiv::{Graph, Lit};
use asicgap_netlist::{NetId, Netlist};

use crate::aig::Aig;
use crate::error::SynthError;
use crate::reentry::SeqBinding;

/// Mapper configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapOptions {
    /// Match AOI/OAI/XOR/MUX patterns (disable for the §4.2 ablation).
    pub use_complex: bool,
    /// Cap on flattened AND-cone fan-in (further capped by the library).
    pub max_fanin: u8,
}

impl Default for MapOptions {
    fn default() -> MapOptions {
        MapOptions {
            use_complex: true,
            max_fanin: 4,
        }
    }
}

/// Maps a combinational AIG onto `lib`.
///
/// # Errors
///
/// - [`SynthError::LibraryTooPoor`] if the library lacks an inverter or a
///   2-input NAND;
/// - [`SynthError::ConstantOutput`] if an output folded to a constant.
pub fn map_aig(aig: &Aig, lib: &Library, options: &MapOptions) -> Result<Netlist, SynthError> {
    map_with_seq(aig, lib, options, &[], "mapped")
}

#[derive(Debug, Clone)]
enum Choice {
    /// The node is a primary (or pseudo) input used in plain phase.
    InputPlain,
    /// Realise this phase by inverting the other phase.
    InvertOther,
    /// Realise this phase with one library cell over input literals.
    Cell { f: CellFunction, ins: Vec<Lit> },
}

struct Mapper<'a> {
    graph: &'a Graph,
    lib: &'a Library,
    options: &'a MapOptions,
    /// cost[node][phase]: estimated path delay in τ units.
    cost: Vec<[f64; 2]>,
    choice: Vec<[Option<Choice>; 2]>,
    inv_cost: f64,
}

impl<'a> Mapper<'a> {
    fn has(&self, f: CellFunction) -> bool {
        self.lib.has_function(f, LogicFamily::StaticCmos)
    }

    fn cell_cost(f: CellFunction) -> f64 {
        // Delay at the canonical gain of 4, in τ units.
        f.logical_effort() * 4.0 + f.parasitic()
    }

    fn lit_cost(&self, l: Lit) -> f64 {
        self.cost[l.node()][l.is_complement() as usize]
    }

    fn candidate_cost(&self, f: CellFunction, ins: &[Lit]) -> f64 {
        let worst_in = ins.iter().map(|&l| self.lit_cost(l)).fold(0.0f64, f64::max);
        worst_in + Self::cell_cost(f)
    }

    /// Flattens the plain-edge AND cone under `node` to at most `limit`
    /// leaves (expanding breadth-first, never exceeding the limit).
    fn flatten_cone(&self, node: usize, limit: usize) -> Vec<Lit> {
        let (a, b) = self.graph.and_children(node).expect("cone root is AND");
        let mut leaves = vec![a, b];
        loop {
            let expandable = leaves
                .iter()
                .position(|l| !l.is_complement() && self.graph.and_children(l.node()).is_some());
            let Some(pos) = expandable else { break };
            if leaves.len() + 1 > limit {
                break;
            }
            let l = leaves.remove(pos);
            let (c, d) = self.graph.and_children(l.node()).expect("checked above");
            leaves.push(c);
            leaves.push(d);
        }
        leaves
    }

    /// Enumerates (function, inputs, phase) candidates for `node`.
    /// `phase` 0 = plain (node value), 1 = complemented.
    fn candidates(&self, node: usize) -> Vec<(CellFunction, Vec<Lit>, usize)> {
        let (a, b) = self
            .graph
            .and_children(node)
            .expect("candidates need an AND");
        let mut out = Vec::new();
        let lib_max = (2..=4u8)
            .filter(|&n| self.has(CellFunction::Nand(n)) || self.has(CellFunction::And(n)))
            .max()
            .unwrap_or(2);
        let limit = self.options.max_fanin.min(lib_max) as usize;

        // Flattened AND cones at every size from 2 up to the limit.
        let mut cones: Vec<Vec<Lit>> = vec![vec![a, b]];
        if limit > 2 {
            let maximal = self.flatten_cone(node, limit);
            if maximal.len() > 2 {
                cones.push(maximal);
            }
        }
        for leaves in &cones {
            let n = leaves.len() as u8;
            let nots: Vec<Lit> = leaves.iter().map(|l| l.not()).collect();
            if self.has(CellFunction::And(n)) {
                out.push((CellFunction::And(n), leaves.clone(), 0));
            }
            if self.has(CellFunction::Nor(n)) {
                out.push((CellFunction::Nor(n), nots.clone(), 0));
            }
            if self.has(CellFunction::Nand(n)) {
                out.push((CellFunction::Nand(n), leaves.clone(), 1));
            }
            if self.has(CellFunction::Or(n)) {
                out.push((CellFunction::Or(n), nots, 1));
            }
        }

        if !self.options.use_complex {
            return out;
        }

        let and_node = |l: Lit| -> Option<(Lit, Lit)> {
            if l.is_complement() {
                self.graph.and_children(l.node())
            } else {
                None
            }
        };

        // AOI21: X = ¬(c·d)·¬e  →  plain X = AOI21(c, d, e).
        for (compl_side, other) in [(a, b), (b, a)] {
            if let Some((c, d)) = and_node(compl_side) {
                if self.has(CellFunction::Aoi21) {
                    out.push((CellFunction::Aoi21, vec![c, d, other.not()], 0));
                }
                // OAI21: X = (u+v)·w (with compl_side = ¬(¬u·¬v))
                // → ¬X = OAI21(u, v, w).
                if c.is_complement() && d.is_complement() && self.has(CellFunction::Oai21) {
                    out.push((CellFunction::Oai21, vec![c.not(), d.not(), other], 1));
                }
            }
        }
        // AOI22 / OAI22: both edges complemented ANDs.
        if let (Some((c, d)), Some((e, f))) = (and_node(a), and_node(b)) {
            if self.has(CellFunction::Aoi22) {
                out.push((CellFunction::Aoi22, vec![c, d, e, f], 0));
            }
            if c.is_complement()
                && d.is_complement()
                && e.is_complement()
                && f.is_complement()
                && self.has(CellFunction::Oai22)
            {
                out.push((
                    CellFunction::Oai22,
                    vec![c.not(), d.not(), e.not(), f.not()],
                    1,
                ));
            }
            // XOR: V's children are the complements of U's children
            // → X = l1 ⊕ l2 (fold input complements into the function).
            let u = [c, d];
            let v = [e, f];
            let v_matches = (v[0] == u[0].not() && v[1] == u[1].not())
                || (v[0] == u[1].not() && v[1] == u[0].not());
            if v_matches {
                let parity = u[0].is_complement() ^ u[1].is_complement();
                let p = Lit::new(u[0].node(), false);
                let q = Lit::new(u[1].node(), false);
                let (plain_f, compl_f) = if parity {
                    (CellFunction::Xnor2, CellFunction::Xor2)
                } else {
                    (CellFunction::Xor2, CellFunction::Xnor2)
                };
                if self.has(plain_f) {
                    out.push((plain_f, vec![p, q], 0));
                }
                if self.has(compl_f) {
                    out.push((compl_f, vec![p, q], 1));
                }
            }
            // MUX: U = du·¬s, V = dv·s  →  ¬X = MUX(du, dv, s),
            //                               X = MUX(¬du, ¬dv, s).
            if self.has(CellFunction::Mux2) {
                for (i, &us) in u.iter().enumerate() {
                    for (j, &vs) in v.iter().enumerate() {
                        if us == vs.not() {
                            let s = vs;
                            let du = u[1 - i];
                            let dv = v[1 - j];
                            out.push((CellFunction::Mux2, vec![du, dv, s], 1));
                            out.push((CellFunction::Mux2, vec![du.not(), dv.not(), s], 0));
                        }
                    }
                }
            }
        }
        out
    }

    fn run_dp(&mut self) {
        for node in 0..self.graph.len() {
            if node == 0 {
                // Constant node: unreachable in valid mapping.
                self.cost[0] = [f64::INFINITY, f64::INFINITY];
                continue;
            }
            if self.graph.input_position(node).is_some() {
                self.cost[node] = [0.0, self.inv_cost];
                self.choice[node] = [Some(Choice::InputPlain), Some(Choice::InvertOther)];
                continue;
            }
            let mut best = [f64::INFINITY, f64::INFINITY];
            let mut pick: [Option<Choice>; 2] = [None, None];
            for (f, ins, phase) in self.candidates(node) {
                let c = self.candidate_cost(f, &ins);
                if c < best[phase] {
                    best[phase] = c;
                    pick[phase] = Some(Choice::Cell { f, ins });
                }
            }
            // Phase repair with inverters (both directions, one pass each).
            if best[0] + self.inv_cost < best[1] {
                best[1] = best[0] + self.inv_cost;
                pick[1] = Some(Choice::InvertOther);
            }
            if best[1] + self.inv_cost < best[0] {
                best[0] = best[1] + self.inv_cost;
                pick[0] = Some(Choice::InvertOther);
            }
            self.cost[node] = best;
            self.choice[node] = pick;
        }
    }
}

/// Maps an AIG that may carry sequential boundaries — the public form
/// of `map_with_seq` for external AIG producers. The frontend lowers
/// imported designs with Yosys generic gates into an AIG (flip-flops as
/// `__q_`/`__d_` pseudo-pin boundaries, exactly as
/// [`crate::netlist_to_aig`] produces them) and hands it here for
/// technology mapping.
///
/// # Errors
///
/// As `map_with_seq`: [`SynthError::LibraryTooPoor`] without an
/// inverter plus a nand2 or nor2, [`SynthError::ConstantOutput`] when
/// an output literal is constant.
pub fn map_aig_seq(
    aig: &Aig,
    lib: &Library,
    options: &MapOptions,
    seq: &[SeqBinding],
    name: &str,
) -> Result<Netlist, SynthError> {
    map_with_seq(aig, lib, options, seq, name)
}

/// Maps an AIG that may carry sequential boundaries (from
/// [`crate::netlist_to_aig`]); flip-flops/latches are re-instantiated and
/// their pseudo pins reconnected.
pub(crate) fn map_with_seq(
    aig: &Aig,
    lib: &Library,
    options: &MapOptions,
    seq: &[SeqBinding],
    name: &str,
) -> Result<Netlist, SynthError> {
    let inv = lib
        .smallest(CellFunction::Inv)
        .ok_or_else(|| SynthError::LibraryTooPoor {
            what: "inverter".to_string(),
        })?;
    if !lib.has_function(CellFunction::Nand(2), LogicFamily::StaticCmos)
        && !lib.has_function(CellFunction::Nor(2), LogicFamily::StaticCmos)
    {
        return Err(SynthError::LibraryTooPoor {
            what: "nand2 or nor2".to_string(),
        });
    }

    let graph = aig.graph();
    let mut mapper = Mapper {
        graph,
        lib,
        options,
        cost: vec![[f64::INFINITY; 2]; graph.len()],
        choice: vec![[None, None]; graph.len()],
        inv_cost: Mapper::cell_cost(CellFunction::Inv),
    };
    mapper.run_dp();

    // --- Emission ---------------------------------------------------
    let mut netlist = Netlist::new(name);
    let pseudo_q: HashMap<usize, usize> = seq
        .iter()
        .enumerate()
        .map(|(k, s)| (s.q_input, k))
        .collect();
    let pseudo_d: HashMap<usize, usize> = seq
        .iter()
        .enumerate()
        .map(|(k, s)| (s.d_output, k))
        .collect();

    // Nets for inputs (true PIs) and pseudo Q nets.
    let mut input_net: Vec<NetId> = Vec::with_capacity(graph.input_names().len());
    let mut q_nets: Vec<Option<NetId>> = vec![None; seq.len()];
    for (pos, iname) in graph.input_names().iter().enumerate() {
        let net = netlist.add_net(iname.clone());
        if let Some(&k) = pseudo_q.get(&pos) {
            q_nets[k] = Some(net);
        } else {
            netlist.add_input(iname.clone(), net)?;
        }
        input_net.push(net);
    }

    struct Emitter<'b> {
        netlist: &'b mut Netlist,
        lib: &'b Library,
        choice: &'b [[Option<Choice>; 2]],
        input_net: &'b [NetId],
        graph: &'b Graph,
        memo: HashMap<(usize, bool), NetId>,
        counter: usize,
        inv: asicgap_cells::CellId,
    }

    impl Emitter<'_> {
        fn emit(&mut self, lit: Lit) -> Result<NetId, SynthError> {
            let key = (lit.node(), lit.is_complement());
            if let Some(&n) = self.memo.get(&key) {
                return Ok(n);
            }
            let phase = lit.is_complement() as usize;
            let choice = self.choice[lit.node()][phase]
                .clone()
                .expect("DP produced a choice for every reachable node");
            let net = match choice {
                Choice::InputPlain => {
                    let pos = self
                        .graph
                        .input_position(lit.node())
                        .expect("InputPlain on input node");
                    self.input_net[pos]
                }
                Choice::InvertOther => {
                    let src = self.emit(lit.not())?;
                    let out = self.fresh_net();
                    let name = self.fresh_name("inv");
                    self.netlist
                        .add_instance(name, self.lib, self.inv, &[src], out)?;
                    out
                }
                Choice::Cell { f, ins } => {
                    let mut in_nets = Vec::with_capacity(ins.len());
                    for l in &ins {
                        in_nets.push(self.emit(*l)?);
                    }
                    let cell = self
                        .lib
                        .smallest(f)
                        .expect("candidates only use available functions");
                    let out = self.fresh_net();
                    let name = self.fresh_name(&f.base_name());
                    self.netlist
                        .add_instance(name, self.lib, cell, &in_nets, out)?;
                    out
                }
            };
            self.memo.insert(key, net);
            Ok(net)
        }

        fn fresh_net(&mut self) -> NetId {
            let id = self.netlist.add_net(format!("m{}", self.counter));
            self.counter += 1;
            id
        }

        fn fresh_name(&mut self, base: &str) -> String {
            let n = format!("u{}_{base}", self.counter);
            self.counter += 1;
            n
        }
    }

    let mut em = Emitter {
        netlist: &mut netlist,
        lib,
        choice: &mapper.choice,
        input_net: &input_net,
        graph,
        memo: HashMap::new(),
        counter: 0,
        inv,
    };

    let mut d_nets: Vec<Option<NetId>> = vec![None; seq.len()];
    for (pos, (oname, lit)) in aig.outputs().iter().enumerate() {
        if lit.is_const() {
            return Err(SynthError::ConstantOutput {
                name: oname.clone(),
            });
        }
        let net = em.emit(*lit)?;
        if let Some(&k) = pseudo_d.get(&pos) {
            d_nets[k] = Some(net);
        } else {
            em.netlist.add_output(oname.clone(), net);
        }
    }
    let counter_base = em.counter;
    drop(em);

    // Reconnect sequential elements.
    for (k, binding) in seq.iter().enumerate() {
        let f = if binding.is_latch {
            CellFunction::Latch
        } else {
            CellFunction::Dff
        };
        let cell = lib.smallest(f).ok_or_else(|| SynthError::LibraryTooPoor {
            what: f.to_string(),
        })?;
        let d = d_nets[k].expect("every binding has a D net");
        let q = q_nets[k].expect("every binding has a Q net");
        netlist.add_instance(format!("u{}_{f}", counter_base + k), lib, cell, &[d], q)?;
    }

    netlist.topo_order()?;
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_equiv::AigOps;
    use asicgap_netlist::Simulator;
    use asicgap_tech::Technology;

    fn libs() -> (Library, Library) {
        let tech = Technology::cmos025_asic();
        (
            LibrarySpec::rich().build(&tech),
            LibrarySpec::poor().build(&tech),
        )
    }

    fn test_aig() -> Aig {
        let mut g = Aig::new();
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let d = g.input("d");
        let x = g.xor(a, b);
        let m = g.mux(c, d, x);
        let t = g.and(a, c);
        let o = g.or(t, m);
        let j = g.maj(a, b, d);
        g.set_output("o", o);
        g.set_output("j", j.not());
        g
    }

    fn check_equiv(aig: &Aig, netlist: &Netlist, lib: &Library) {
        let mut sim = Simulator::new(netlist, lib);
        let n = aig.graph().input_names().len();
        // Map netlist input order to AIG input order by name.
        let order: Vec<usize> = netlist
            .inputs()
            .iter()
            .map(|(name, _)| {
                aig.graph()
                    .input_names()
                    .iter()
                    .position(|x| x == name)
                    .expect("input names preserved")
            })
            .collect();
        for bits in 0..(1u32 << n.min(10)) {
            let aig_in: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
            let nl_in: Vec<bool> = order.iter().map(|&i| aig_in[i]).collect();
            let got = sim.run_comb(&nl_in);
            let want = aig.eval(&aig_in);
            assert_eq!(got, want, "bits {bits:b}");
        }
    }

    #[test]
    fn mapping_is_equivalent_on_rich_library() {
        let (rich, _) = libs();
        let aig = test_aig();
        let n = map_aig(&aig, &rich, &MapOptions::default()).expect("maps");
        check_equiv(&aig, &n, &rich);
    }

    #[test]
    fn mapping_is_equivalent_on_poor_library() {
        let (_, poor) = libs();
        let aig = test_aig();
        let n = map_aig(&aig, &poor, &MapOptions::default()).expect("maps");
        check_equiv(&aig, &n, &poor);
    }

    #[test]
    fn mapping_without_complex_gates_is_equivalent_but_larger() {
        let (rich, _) = libs();
        let aig = test_aig();
        let full = map_aig(&aig, &rich, &MapOptions::default()).expect("maps");
        let simple = map_aig(
            &aig,
            &rich,
            &MapOptions {
                use_complex: false,
                max_fanin: 4,
            },
        )
        .expect("maps");
        check_equiv(&aig, &simple, &rich);
        assert!(simple.instance_count() >= full.instance_count());
    }

    #[test]
    fn poor_library_needs_more_cells() {
        let (rich, poor) = libs();
        let aig = test_aig();
        let on_rich = map_aig(&aig, &rich, &MapOptions::default()).expect("maps");
        let on_poor = map_aig(&aig, &poor, &MapOptions::default()).expect("maps");
        assert!(on_poor.instance_count() > on_rich.instance_count());
    }

    #[test]
    fn constant_output_is_an_error() {
        let (rich, _) = libs();
        let mut g = Aig::new();
        let a = g.input("a");
        let never = g.and(a, a.not());
        g.set_output("z", never);
        assert!(matches!(
            map_aig(&g, &rich, &MapOptions::default()),
            Err(SynthError::ConstantOutput { .. })
        ));
    }
}
