//! Re-entry: decompose a mapped netlist back into an AIG.
//!
//! This is how the library-richness experiments keep the logic constant:
//! build a design once, collapse it to its AIG, and remap against each
//! candidate library. Sequential cells become pseudo-boundary pins that
//! [`crate::SynthFlow::remap`] reconnects after mapping.

use asicgap_cells::{CellFunction, Library};
use asicgap_equiv::{build_function, Lit};
use asicgap_netlist::Netlist;

use crate::aig::Aig;

/// A sequential cell carried across re-entry: its Q is AIG input
/// `q_input`, its D is AIG output `d_output` (indices into the AIG input /
/// output lists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqBinding {
    /// Position in the AIG's input names.
    pub q_input: usize,
    /// Position in [`Aig::outputs`].
    pub d_output: usize,
    /// `true` for a transparent latch, `false` for a flip-flop.
    pub is_latch: bool,
}

/// Collapses `netlist` into an AIG. Returns the graph and the sequential
/// bindings (empty for combinational designs).
///
/// # Panics
///
/// Panics if the netlist has a combinational cycle (validated netlists do
/// not).
pub fn netlist_to_aig(netlist: &Netlist, lib: &Library) -> (Aig, Vec<SeqBinding>) {
    let mut aig = Aig::new();
    let mut lit_of: Vec<Option<Lit>> = vec![None; netlist.net_count()];

    // Primary inputs first, preserving order and names.
    for (name, net) in netlist.inputs() {
        lit_of[net.index()] = Some(aig.input(name.clone()));
    }
    // Sequential outputs become pseudo-inputs.
    let mut seq = Vec::new();
    let mut seq_insts = Vec::new();
    for (id, inst) in netlist.iter_instances() {
        if inst.is_sequential() {
            let q_input = aig.graph().input_names().len();
            let lit = aig.input(format!("__q_{}", inst.name()));
            lit_of[inst.out().index()] = Some(lit);
            seq_insts.push((id, q_input, inst.function() == CellFunction::Latch));
        }
    }

    let order = netlist
        .topo_order()
        .expect("re-entry requires an acyclic netlist");
    for &id in order {
        let inst = netlist.instance(id);
        let ins: Vec<Lit> = inst
            .fanin()
            .iter()
            .map(|n| lit_of[n.index()].expect("topological order visits fanin first"))
            .collect();
        let f = lib.cell(inst.cell()).function;
        let out = build_function(&mut aig, f, &ins);
        lit_of[inst.out().index()] = Some(out);
    }

    for (name, net) in netlist.outputs() {
        let lit = lit_of[net.index()].expect("outputs are driven");
        aig.set_output(name.clone(), lit);
    }
    for (id, q_input, is_latch) in seq_insts {
        let inst = netlist.instance(id);
        let d = lit_of[inst.fanin()[0].index()].expect("D nets are driven");
        let d_output = aig.outputs().len();
        aig.set_output(format!("__d_{}", inst.name()), d);
        seq.push(SeqBinding {
            q_input,
            d_output,
            is_latch,
        });
    }
    (aig, seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::{generators, Simulator};
    use asicgap_tech::Technology;

    #[test]
    fn aig_matches_netlist_behaviour() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let n = generators::alu(&lib, 4).expect("alu4");
        let (aig, seq) = netlist_to_aig(&n, &lib);
        assert!(seq.is_empty());
        assert_eq!(aig.graph().input_names().len(), n.inputs().len());
        let mut sim = Simulator::new(&n, &lib);
        // Compare on a sweep of input patterns.
        for seed in 0..64u64 {
            let bits: Vec<bool> = (0..n.inputs().len())
                .map(|i| (seed.wrapping_mul(0x9E3779B97F4A7C15) >> (i % 60)) & 1 == 1)
                .collect();
            let want = sim.run_comb(&bits);
            let got = aig.eval(&bits);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn sequential_cells_become_boundaries() {
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        let mut b = asicgap_netlist::NetlistBuilder::new("seqd", &lib);
        let a = b.input("a");
        let x = b.inv(a).expect("inv");
        let q = b.dff(x).expect("dff");
        let y = b.inv(q).expect("inv");
        b.output("y", y);
        let n = b.finish().expect("valid");
        let (aig, seq) = netlist_to_aig(&n, &lib);
        assert_eq!(seq.len(), 1);
        assert_eq!(aig.graph().input_names().len(), 2); // a + pseudo q
        assert_eq!(aig.outputs().len(), 2); // y + pseudo d
    }
}
