//! Dual-rail domino mapping: the §7.2 what-if, implemented.
//!
//! "There has been some progress in dynamic logic circuit synthesis [25],
//! but it has yet to produce commercially available libraries." The
//! methodological obstacle is inversion: domino gates are monotone, so
//! arbitrary logic cannot be mapped directly. The custom-world workaround
//! is **dual-rail** (differential) domino: carry every signal as a
//! (positive, negative) rail pair; then
//!
//! ```text
//! pos(a·b) = AND(pos a, pos b)      neg(a·b) = OR(neg a, neg b)
//! ```
//!
//! and inversion is a free rail swap. The result is monotone end-to-end —
//! it passes [`asicgap_sta::check_domino_phases`] by construction — at
//! roughly 2× the gates and the §7 power premium, which is exactly the
//! trade the paper describes.
//!
//! Primary inputs must be supplied in dual-rail form (in silicon they come
//! from dual-rail latches): for every AIG input `x` the netlist has ports
//! `x` and `x_n`, and the caller drives `x_n = !x`.

use std::collections::HashMap;

use asicgap_cells::{CellFunction, Library, LogicFamily};
use asicgap_equiv::Lit;
use asicgap_netlist::{NetId, Netlist};

use crate::aig::Aig;
use crate::error::SynthError;

/// Maps `aig` onto the domino family of `lib` in dual-rail form.
///
/// # Errors
///
/// - [`SynthError::LibraryTooPoor`] if `lib` has no domino AND2/OR2;
/// - [`SynthError::ConstantOutput`] if an output folded to a constant.
pub fn map_dual_rail_domino(aig: &Aig, lib: &Library, name: &str) -> Result<Netlist, SynthError> {
    let and2 = lib
        .drives_for(CellFunction::And(2), LogicFamily::Domino)
        .first()
        .copied()
        .ok_or_else(|| SynthError::LibraryTooPoor {
            what: "domino and2".to_string(),
        })?;
    let or2 = lib
        .drives_for(CellFunction::Or(2), LogicFamily::Domino)
        .first()
        .copied()
        .ok_or_else(|| SynthError::LibraryTooPoor {
            what: "domino or2".to_string(),
        })?;

    let mut netlist = Netlist::new(name);
    // Rails per node: (pos net, neg net).
    let mut rails: HashMap<usize, (NetId, NetId)> = HashMap::new();
    let graph = aig.graph();
    for (pos_idx, input_name) in graph.input_names().iter().enumerate() {
        let p = netlist.add_net(input_name.clone());
        netlist.add_input(input_name.clone(), p)?;
        let neg_name = format!("{input_name}_n");
        let n = netlist.add_net(neg_name.clone());
        netlist.add_input(neg_name, n)?;
        // Input node indices are 1..=n_inputs in construction order.
        rails.insert(pos_idx + 1, (p, n));
    }

    // Nodes are topologically ordered by construction.
    let mut counter = 0usize;
    for node in 1..graph.len() {
        let Some((a, b)) = graph.and_children(node) else {
            continue; // an input
        };
        let rail = |l: Lit, rails: &HashMap<usize, (NetId, NetId)>| -> (NetId, NetId) {
            let (p, n) = rails[&l.node()];
            if l.is_complement() {
                (n, p)
            } else {
                (p, n)
            }
        };
        let (pa, na) = rail(a, &rails);
        let (pb, nb) = rail(b, &rails);
        let p = netlist.add_net(format!("dp{counter}"));
        netlist.add_instance(format!("dand{counter}"), lib, and2, &[pa, pb], p)?;
        let n = netlist.add_net(format!("dn{counter}"));
        netlist.add_instance(format!("dor{counter}"), lib, or2, &[na, nb], n)?;
        counter += 1;
        rails.insert(node, (p, n));
    }

    for (oname, lit) in aig.outputs() {
        if lit.is_const() {
            return Err(SynthError::ConstantOutput {
                name: oname.clone(),
            });
        }
        let (p, n) = rails[&lit.node()];
        let net = if lit.is_complement() { n } else { p };
        netlist.add_output(oname.clone(), net);
    }
    netlist.topo_order()?;
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{map_aig, MapOptions};
    use crate::reentry::netlist_to_aig;
    use asicgap_cells::LibrarySpec;
    use asicgap_netlist::{generators, Simulator};
    use asicgap_sta::{analyze, check_domino_phases, ClockSpec};
    use asicgap_tech::Technology;

    fn custom_lib() -> Library {
        LibrarySpec::custom().build(&Technology::cmos025_custom())
    }

    /// Simulates a dual-rail netlist: inputs are fed as (x, !x) pairs.
    fn run_dual_rail(netlist: &Netlist, lib: &Library, values: &[bool]) -> Vec<bool> {
        let mut sim = Simulator::new(netlist, lib);
        let mut full = Vec::with_capacity(values.len() * 2);
        for &v in values {
            full.push(v);
            full.push(!v);
        }
        sim.run_comb(&full)
    }

    #[test]
    fn dual_rail_mapping_is_equivalent_and_phase_legal() {
        let lib = custom_lib();
        let golden = generators::alu(&lib, 4).expect("alu4");
        let (aig, seq) = netlist_to_aig(&golden, &lib);
        assert!(seq.is_empty());
        let domino = map_dual_rail_domino(&aig, &lib, "alu4_domino").expect("maps");
        assert!(
            check_domino_phases(&domino, &lib).is_empty(),
            "dual-rail domino is monotone by construction"
        );
        for seed in 0..200u64 {
            let n = aig.graph().input_names().len();
            let bits: Vec<bool> = (0..n)
                .map(|i| (seed.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(i as u32)) & 1 == 1)
                .collect();
            let want = aig.eval(&bits);
            let got = run_dual_rail(&domino, &lib, &bits);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn domino_mapping_beats_static_mapping_on_speed() {
        // The E8 measurement on whole mapped netlists, not single cells.
        let lib = custom_lib();
        let golden = generators::ripple_carry_adder(&lib, 8).expect("rca8");
        let (aig, _) = netlist_to_aig(&golden, &lib);
        let statik = map_aig(&aig, &lib, &MapOptions::default()).expect("static map");
        let domino = map_dual_rail_domino(&aig, &lib, "rca8_domino").expect("domino map");
        let clock = ClockSpec::unconstrained();
        let t_static = analyze(&statik, &lib, &clock, None).min_period;
        let t_domino = analyze(&domino, &lib, &clock, None).min_period;
        let ratio = t_static / t_domino;
        assert!(
            ratio > 1.1 && ratio < 2.5,
            "mapped-netlist domino speedup {ratio:.2} (paper: 1.5-2.0 at cell level)"
        );
        // And the paper's costs: ~2x the gates.
        assert!(domino.instance_count() > 3 * statik.instance_count() / 2);
    }

    #[test]
    fn missing_domino_family_is_reported() {
        let tech = Technology::cmos025_asic();
        let rich = LibrarySpec::rich().build(&tech);
        let golden = generators::parity_tree(&rich, 4).expect("parity");
        let (aig, _) = netlist_to_aig(&golden, &rich);
        assert!(matches!(
            map_dual_rail_domino(&aig, &rich, "nope"),
            Err(SynthError::LibraryTooPoor { .. })
        ));
    }
}
